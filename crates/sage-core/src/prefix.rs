//! Variable-length prefix codes and association tables (§5.1.1).
//!
//! SAGe's guide arrays use unary-style prefix codes (`0`, `10`, `110`,
//! `1110`, …) so that more common classes cost fewer bits, and a small
//! *Association Table* maps each code to the bit width (or literal
//! value) it selects. The all-ones pattern one longer than the last code
//! serves as an *escape* for values outside the tuned classes.

use crate::bitio::{BitReader, BitStreamExhausted, BitWriter};

/// An association table: prefix-code index → class payload.
///
/// Entry 0 gets the shortest code (`0`), entry 1 gets `10`, and so on —
/// so entries must be ordered by descending frequency for optimal size.
/// `T` is the payload: a bit *width* for position arrays, or a literal
/// *value* for mismatch-count classes.
///
/// # Example
///
/// ```
/// use sage_core::prefix::AssociationTable;
/// use sage_core::bitio::{BitReader, BitWriter};
///
/// let table = AssociationTable::new(vec![2u32, 4, 8]).unwrap();
/// let mut w = BitWriter::new();
/// table.encode_index(&mut w, 1); // emits "10"
/// let (bytes, len) = w.finish();
/// let mut r = BitReader::new(&bytes, len);
/// assert_eq!(table.decode(&mut r).unwrap(), Some(&4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssociationTable<T> {
    entries: Vec<T>,
}

impl<T> AssociationTable<T> {
    /// Maximum number of classes a table may hold (the paper bounds the
    /// search at 8 distinct bit counts; the escape takes one more slot).
    pub const MAX_ENTRIES: usize = 16;

    /// Creates a table from payloads ordered by descending frequency.
    ///
    /// Returns `None` when empty or larger than [`Self::MAX_ENTRIES`].
    pub fn new(entries: Vec<T>) -> Option<AssociationTable<T>> {
        if entries.is_empty() || entries.len() > Self::MAX_ENTRIES {
            return None;
        }
        Some(AssociationTable { entries })
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the table has no classes (never constructible).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Borrow the payloads in code order.
    pub fn entries(&self) -> &[T] {
        &self.entries
    }

    /// Writes the prefix code for class `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn encode_index(&self, w: &mut BitWriter, index: usize) {
        assert!(index < self.entries.len(), "class index out of range");
        w.write_unary(index as u32);
    }

    /// Writes the escape code.
    pub fn encode_escape(&self, w: &mut BitWriter) {
        w.write_unary(self.entries.len() as u32);
    }

    /// Reads one code; returns the class payload, or `None` for escape.
    ///
    /// # Errors
    ///
    /// Fails on stream exhaustion or a code longer than the escape
    /// (corrupt stream).
    pub fn decode<'r>(
        &'r self,
        r: &mut BitReader<'_>,
    ) -> Result<Option<&'r T>, BitStreamExhausted> {
        let idx = r.read_unary(self.entries.len() as u32)? as usize;
        Ok(self.entries.get(idx))
    }
}

/// A width table: association table whose payloads are bit widths, used
/// by MPA/MMPA-style tuned value arrays.
pub type WidthTable = AssociationTable<u32>;

impl WidthTable {
    /// Builds a width table from tuned widths and their frequencies:
    /// orders classes by descending frequency so common widths get
    /// short codes.
    ///
    /// `widths_with_freq` pairs each chosen width with the number of
    /// values that will use it. Returns `None` for empty input.
    pub fn from_widths(mut widths_with_freq: Vec<(u32, u64)>) -> Option<WidthTable> {
        widths_with_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        AssociationTable::new(widths_with_freq.into_iter().map(|(w, _)| w).collect())
    }

    /// Selects the class for a value needing `bits` bits: the smallest
    /// class width ≥ `bits`. Returns `None` if no class fits (escape).
    pub fn class_for_bits(&self, bits: u32) -> Option<usize> {
        let mut best: Option<(usize, u32)> = None;
        for (i, &w) in self.entries().iter().enumerate() {
            if w >= bits && best.is_none_or(|(_, bw)| w < bw) {
                best = Some((i, w));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Encodes `value` as class code + fixed-width payload, using the
    /// escape (code + 32-bit raw) when no class fits.
    pub fn encode_value(&self, guide: &mut BitWriter, array: &mut BitWriter, value: u64) {
        let bits = 64 - value.leading_zeros();
        match self.class_for_bits(bits) {
            Some(class) => {
                self.encode_index(guide, class);
                let w = self.entries()[class];
                array.write_bits(value, w);
            }
            None => {
                self.encode_escape(guide);
                array.write_bits(value, 32);
            }
        }
    }

    /// Decodes one value written by [`encode_value`](Self::encode_value).
    ///
    /// # Errors
    ///
    /// Fails on stream exhaustion.
    pub fn decode_value(
        &self,
        guide: &mut BitReader<'_>,
        array: &mut BitReader<'_>,
    ) -> Result<u64, BitStreamExhausted> {
        match self.decode(guide)? {
            Some(&w) => array.read_bits(w),
            None => array.read_bits(32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_codes_have_expected_lengths() {
        let t = AssociationTable::new(vec![1u32, 2, 3, 4]).unwrap();
        let mut w = BitWriter::new();
        t.encode_index(&mut w, 0);
        assert_eq!(w.bit_len(), 1); // "0"
        t.encode_index(&mut w, 3);
        assert_eq!(w.bit_len(), 1 + 4); // "1110"
        t.encode_escape(&mut w);
        assert_eq!(w.bit_len(), 1 + 4 + 5); // "11110"
    }

    #[test]
    fn encode_decode_all_classes_and_escape() {
        let t = AssociationTable::new(vec![10u32, 20, 30]).unwrap();
        let mut w = BitWriter::new();
        t.encode_index(&mut w, 0);
        t.encode_index(&mut w, 2);
        t.encode_escape(&mut w);
        t.encode_index(&mut w, 1);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(t.decode(&mut r).unwrap(), Some(&10));
        assert_eq!(t.decode(&mut r).unwrap(), Some(&30));
        assert_eq!(t.decode(&mut r).unwrap(), None);
        assert_eq!(t.decode(&mut r).unwrap(), Some(&20));
    }

    #[test]
    fn width_table_orders_by_frequency() {
        let t = WidthTable::from_widths(vec![(2, 5), (8, 100), (4, 50)]).unwrap();
        assert_eq!(t.entries(), &[8, 4, 2]);
    }

    #[test]
    fn class_for_bits_picks_smallest_fitting_width() {
        let t = WidthTable::from_widths(vec![(2, 3), (4, 2), (8, 1)]).unwrap();
        assert_eq!(t.class_for_bits(0).map(|i| t.entries()[i]), Some(2));
        assert_eq!(t.class_for_bits(2).map(|i| t.entries()[i]), Some(2));
        assert_eq!(t.class_for_bits(3).map(|i| t.entries()[i]), Some(4));
        assert_eq!(t.class_for_bits(8).map(|i| t.entries()[i]), Some(8));
        assert_eq!(t.class_for_bits(9), None);
    }

    #[test]
    fn value_round_trip_including_escape() {
        let t = WidthTable::from_widths(vec![(3, 10), (6, 5)]).unwrap();
        let values = [0u64, 5, 7, 63, 1_000_000];
        let mut guide = BitWriter::new();
        let mut array = BitWriter::new();
        for &v in &values {
            t.encode_value(&mut guide, &mut array, v);
        }
        let (gb, gl) = guide.finish();
        let (ab, al) = array.finish();
        let mut gr = BitReader::new(&gb, gl);
        let mut ar = BitReader::new(&ab, al);
        for &v in &values {
            assert_eq!(t.decode_value(&mut gr, &mut ar).unwrap(), v);
        }
    }

    #[test]
    fn cost_matches_actual_encoding() {
        // The tuner's cost model: a unary guide code plus the class
        // width, or the escape code plus 32 raw bits.
        let t = WidthTable::from_widths(vec![(3, 10), (6, 5)]).unwrap();
        for &v in &[0u64, 7, 40, 100_000] {
            let bits = 64 - v.leading_zeros();
            let cost = match t.class_for_bits(bits) {
                Some(class) => class as u64 + 1 + u64::from(t.entries()[class]),
                None => t.len() as u64 + 1 + 32,
            };
            let mut guide = BitWriter::new();
            let mut array = BitWriter::new();
            t.encode_value(&mut guide, &mut array, v);
            assert_eq!(cost, guide.bit_len() + array.bit_len(), "value {v}");
        }
    }

    #[test]
    fn table_size_limits() {
        assert!(AssociationTable::<u32>::new(vec![]).is_none());
        assert!(AssociationTable::new(vec![0u32; 17]).is_none());
        assert!(AssociationTable::new(vec![0u32; 16]).is_some());
    }
}
