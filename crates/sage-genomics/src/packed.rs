//! Packed DNA encodings.
//!
//! `SAGe_Read` (§5.4) lets the genome analysis system request the output
//! in the format its accelerator consumes directly: 2-bit packed for
//! `N`-free data, 3-bit packed when `N` must be representable, or plain
//! ASCII. This module implements the packed formats.

use crate::base::Base;
use crate::seq::DnaSeq;

/// A 2-bit-per-base packed sequence. `N` cannot be represented; packing a
/// sequence with `N` silently stores it as `A` (callers that care track
/// `N` positions separately, exactly as SAGe's corner-case records do).
///
/// # Example
///
/// ```
/// use sage_genomics::packed::Packed2;
/// use sage_genomics::DnaSeq;
///
/// let s: DnaSeq = "ACGTAC".parse().unwrap();
/// let p = Packed2::pack(&s);
/// assert_eq!(p.unpack(), s);
/// assert_eq!(p.byte_len(), 2); // 6 bases -> 12 bits -> 2 bytes
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Packed2 {
    data: Vec<u8>,
    len: usize,
}

/// Every byte of packed storage as the four bases it holds, base `k` in
/// bits `2k..2k + 2` — [`Packed2::unpack`] copies four bases per lookup
/// instead of shifting them out one [`Packed2::get`] at a time.
const UNPACK4: [[Base; 4]; 256] = {
    let mut table = [[Base::A; 4]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut k = 0;
        while k < 4 {
            table[byte][k] = Base::ACGT[(byte >> (2 * k)) & 0b11];
            k += 1;
        }
        byte += 1;
    }
    table
};

impl Packed2 {
    /// Packs a sequence at 2 bits/base.
    pub fn pack(seq: &[Base]) -> Packed2 {
        let mut data = vec![0u8; seq.len().div_ceil(4)];
        for (i, b) in seq.iter().enumerate() {
            data[i / 4] |= b.code2() << ((i % 4) * 2);
        }
        Packed2 {
            data,
            len: seq.len(),
        }
    }

    /// Adopts already-packed storage — `len` bases in the layout
    /// [`as_bytes`](Self::as_bytes) exposes — without unpacking it.
    /// Returns `None` unless `data` holds exactly `len.div_ceil(4)`
    /// bytes. Pad bits past the last base are cleared, so the result
    /// equals `Packed2::pack` of the same bases whatever they held.
    pub fn from_raw(mut data: Vec<u8>, len: usize) -> Option<Packed2> {
        if data.len() != len.div_ceil(4) {
            return None;
        }
        let tail = len % 4; // bases in a partly used last byte
        if tail > 0 {
            let last = data.last_mut().expect("len > 0 means at least one byte");
            *last &= (1u8 << (tail * 2)) - 1;
        }
        Some(Packed2 { data, len })
    }

    /// Number of bytes of packed storage.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Borrows the packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Returns base `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is past the last base.
    pub fn get(&self, i: usize) -> Base {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        Base::from_code2((self.data[i / 4] >> ((i % 4) * 2)) & 0b11)
    }

    /// Unpacks to an owned sequence.
    pub fn unpack(&self) -> DnaSeq {
        let mut bases = Vec::with_capacity(self.data.len() * 4);
        for &byte in &self.data {
            bases.extend_from_slice(&UNPACK4[usize::from(byte)]);
        }
        bases.truncate(self.len);
        DnaSeq::from_bases(bases)
    }
}

/// A 3-bit-per-base packed sequence that can represent `N`.
///
/// # Example
///
/// ```
/// use sage_genomics::packed::Packed3;
/// use sage_genomics::DnaSeq;
///
/// let s: DnaSeq = "ACGNT".parse().unwrap();
/// let p = Packed3::pack(&s);
/// assert_eq!(p.unpack(), s);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Packed3 {
    bits: Vec<u8>,
    len: usize,
}

impl Packed3 {
    /// Packs a sequence at 3 bits/base.
    pub fn pack(seq: &[Base]) -> Packed3 {
        let nbits = seq.len() * 3;
        let mut bits = vec![0u8; nbits.div_ceil(8)];
        for (i, b) in seq.iter().enumerate() {
            let code = b.code3();
            for k in 0..3 {
                if (code >> k) & 1 == 1 {
                    let bit = i * 3 + k;
                    bits[bit / 8] |= 1 << (bit % 8);
                }
            }
        }
        Packed3 {
            bits,
            len: seq.len(),
        }
    }

    /// Returns base `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is past the last base or the stored code is invalid.
    pub fn get(&self, i: usize) -> Base {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let mut code = 0u8;
        for k in 0..3 {
            let bit = i * 3 + k;
            if (self.bits[bit / 8] >> (bit % 8)) & 1 == 1 {
                code |= 1 << k;
            }
        }
        Base::from_code3(code).expect("corrupt 3-bit code")
    }

    /// Unpacks to an owned sequence.
    pub fn unpack(&self) -> DnaSeq {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed2_round_trip() {
        let s: DnaSeq = "ACGTACGTAAACCCGGGTTT".parse().unwrap();
        assert_eq!(Packed2::pack(&s).unpack(), s);
        // Every prefix, so every `len % 4`: the table unpack agrees
        // with `get`, and the raw constructor with `pack`.
        for len in 0..=s.len() {
            let p = Packed2::pack(&s.as_slice()[..len]);
            let unpacked = p.unpack();
            assert_eq!(unpacked.len(), len);
            for (i, &b) in unpacked.iter().enumerate() {
                assert_eq!(b, p.get(i), "base {i} of {len}");
            }
            assert_eq!(Packed2::from_raw(p.as_bytes().to_vec(), len), Some(p));
        }
    }

    #[test]
    fn packed2_maps_n_to_a() {
        let s: DnaSeq = "ANT".parse().unwrap();
        let p = Packed2::pack(&s);
        assert_eq!(p.get(1), Base::A);
    }

    #[test]
    fn packed2_partial_byte() {
        let s: DnaSeq = "ACG".parse().unwrap();
        let p = Packed2::pack(&s);
        assert_eq!(p.byte_len(), 1);
        assert_eq!(p.unpack(), s);
        // The raw constructor takes exactly `len.div_ceil(4)` bytes and
        // clears the pad bits: equal bases compare equal whatever the
        // unused bits of the last byte held.
        let dirty = p.as_bytes()[0] | 0b1100_0000;
        assert_eq!(Packed2::from_raw(vec![dirty], 3), Some(p));
        assert_eq!(Packed2::from_raw(vec![], 3), None);
        assert_eq!(Packed2::from_raw(vec![dirty, 0], 3), None);
        assert_eq!(Packed2::from_raw(vec![0], 0), None);
        assert_eq!(Packed2::from_raw(vec![], 0), Some(Packed2::default()));
    }

    #[test]
    fn packed3_round_trip_with_n() {
        let s: DnaSeq = "ACGNTNNACGT".parse().unwrap();
        assert_eq!(Packed3::pack(&s).unpack(), s);
    }

    #[test]
    fn packed_sizes() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(Packed2::pack(&s).byte_len(), 2);
        assert_eq!(Packed3::pack(&s).bits.len(), 3);
    }

    #[test]
    fn empty_sequences() {
        let s = DnaSeq::default();
        assert!(Packed2::pack(&s).unpack().is_empty());
        assert!(Packed3::pack(&s).unpack().is_empty());
    }
}
