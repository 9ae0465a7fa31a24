//! Sequencing reads and read sets, owned or in columns ([`ChunkColumns`]).

use crate::base::Base;
use crate::seq::DnaSeq;

/// A single sequencing read: bases plus optional header and quality
/// scores.
///
/// Quality scores are stored as raw Phred+33 bytes, exactly as they
/// appear in FASTQ; `None` models sequencers/workflows that omit them
/// (§5.1 of the paper).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Read {
    /// FASTQ header without the `@`, if retained.
    pub id: Option<String>,
    /// The bases.
    pub seq: DnaSeq,
    /// Phred+33 quality bytes, one per base, if present.
    pub qual: Option<Vec<u8>>,
}

impl Read {
    /// Convenience constructor from a sequence only.
    pub fn from_seq(seq: DnaSeq) -> Read {
        Read {
            id: None,
            seq,
            qual: None,
        }
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// `true` for a zero-length read.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// A borrowed read, in place in a [`ChunkColumns`] or a [`Read`]. Its fields
/// compare with a read's as slices: `r.seq == read.seq && r.qual == read.qual`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRef<'a> {
    /// The bases.
    pub seq: &'a [Base],
    /// The Phred+33 quality bytes, one per base, if present.
    pub qual: QualRef<'a>,
}

impl ReadRef<'_> {
    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// `true` for a zero-length read.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Copies the read into an owned [`Read`], with no id: stored reads
    /// carry none.
    pub fn to_read(&self) -> Read {
        let mut read = Read::from_seq(DnaSeq::from_bases(self.seq.to_vec()));
        read.qual = self.qual.0.map(<[u8]>::to_vec);
        read
    }
}

impl<'a> From<&'a Read> for ReadRef<'a> {
    fn from(read: &'a Read) -> ReadRef<'a> {
        let (seq, qual) = (read.seq.as_slice(), QualRef(read.qual.as_deref()));
        ReadRef { seq, qual }
    }
}

/// The quality bytes of a [`ReadRef`], `None` when the read has none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QualRef<'a>(pub Option<&'a [u8]>);

impl PartialEq<Option<Vec<u8>>> for QualRef<'_> {
    fn eq(&self, other: &Option<Vec<u8>>) -> bool {
        self.0 == other.as_deref()
    }
}

impl PartialEq<DnaSeq> for &[Base] {
    fn eq(&self, other: &DnaSeq) -> bool {
        *self == other.as_slice()
    }
}

/// A decoded chunk in three buffers: bases, quality bytes at the same
/// offsets, and each read's `[start, end)` span in dataset order. Reading
/// a read allocates nothing; freeing the chunk frees three buffers.
/// Collecting [`ReadRef`]s builds one: all with qualities, or none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkColumns {
    /// Every read's bases, concatenated.
    pub bases: Vec<Base>,
    /// Every read's quality bytes, at its bases' offsets.
    pub qual: Option<Vec<u8>>,
    /// Each read's `[start, end)` in the columns, in dataset order.
    pub spans: Vec<(u32, u32)>,
}

impl ChunkColumns {
    /// Number of reads.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when the chunk holds no reads.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The read at `span`, an entry of [`ChunkColumns::spans`].
    pub fn at(&self, (lo, hi): (u32, u32)) -> ReadRef<'_> {
        let r = lo as usize..hi as usize;
        let qual = QualRef(self.qual.as_ref().map(|q| &q[r.clone()]));
        let seq = &self.bases[r];
        ReadRef { seq, qual }
    }

    /// Iterates the reads in dataset order.
    pub fn iter(&self) -> impl Iterator<Item = ReadRef<'_>> + '_ {
        self.spans.iter().map(|&s| self.at(s))
    }

    /// Bases plus quality bytes held.
    pub fn payload_bytes(&self) -> usize {
        self.bases.len() + self.qual.as_ref().map_or(0, Vec::len)
    }
}

impl<'a> FromIterator<ReadRef<'a>> for ChunkColumns {
    fn from_iter<I: IntoIterator<Item = ReadRef<'a>>>(reads: I) -> ChunkColumns {
        let mut cols = ChunkColumns::default();
        for r in reads {
            if let Some(q) = r.qual.0 {
                cols.qual.get_or_insert_with(Vec::new).extend_from_slice(q);
            }
            let lo = cols.bases.len();
            cols.bases.extend_from_slice(r.seq);
            let offset = |n: usize| u32::try_from(n).expect("chunk outgrows u32 offsets");
            cols.spans.push((offset(lo), offset(cols.bases.len())));
        }
        let n_qual = cols.qual.as_ref().map_or(cols.bases.len(), Vec::len);
        assert!(n_qual == cols.bases.len(), "a quality per base, or none");
        cols
    }
}

/// An owned collection of reads — the unit SAGe compresses.
///
/// # Example
///
/// ```
/// use sage_genomics::{Read, ReadSet};
///
/// let rs: ReadSet = vec![Read::from_seq("ACGT".parse().unwrap())]
///     .into_iter()
///     .collect();
/// assert_eq!(rs.total_bases(), 4);
/// assert!(rs.is_fixed_length());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    reads: Vec<Read>,
}

impl ReadSet {
    /// Creates an empty read set.
    pub fn new() -> ReadSet {
        ReadSet { reads: Vec::new() }
    }

    /// Wraps a vector of reads.
    pub fn from_reads(reads: Vec<Read>) -> ReadSet {
        ReadSet { reads }
    }

    /// Borrows the reads.
    pub fn reads(&self) -> &[Read] {
        &self.reads
    }

    /// Mutably borrows the reads.
    pub fn reads_mut(&mut self) -> &mut Vec<Read> {
        &mut self.reads
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// `true` when there are no reads.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// Adds a read.
    pub fn push(&mut self, read: Read) {
        self.reads.push(read);
    }

    /// Total number of bases across all reads.
    pub fn total_bases(&self) -> usize {
        self.reads.iter().map(|r| r.len()).sum()
    }

    /// Total number of quality-score bytes across all reads.
    pub fn total_quality_bytes(&self) -> usize {
        self.reads
            .iter()
            .map(|r| r.qual.as_ref().map_or(0, |q| q.len()))
            .sum()
    }

    /// `true` if every read has the same length (typical for short-read
    /// sequencers; lets SAGe skip the per-read length stream).
    pub fn is_fixed_length(&self) -> bool {
        match self.reads.first() {
            None => true,
            Some(first) => self.reads.iter().all(|r| r.len() == first.len()),
        }
    }

    /// Longest read length, or 0 when empty.
    pub fn max_read_len(&self) -> usize {
        self.reads.iter().map(|r| r.len()).max().unwrap_or(0)
    }

    /// Iterator over the reads.
    pub fn iter(&self) -> std::slice::Iter<'_, Read> {
        self.reads.iter()
    }
}

impl FromIterator<Read> for ReadSet {
    fn from_iter<I: IntoIterator<Item = Read>>(iter: I) -> ReadSet {
        ReadSet {
            reads: iter.into_iter().collect(),
        }
    }
}

impl Extend<Read> for ReadSet {
    fn extend<I: IntoIterator<Item = Read>>(&mut self, iter: I) {
        self.reads.extend(iter);
    }
}

impl<'a> IntoIterator for &'a ReadSet {
    type Item = &'a Read;
    type IntoIter = std::slice::Iter<'a, Read>;

    fn into_iter(self) -> Self::IntoIter {
        self.reads.iter()
    }
}

impl IntoIterator for ReadSet {
    type Item = Read;
    type IntoIter = std::vec::IntoIter<Read>;

    fn into_iter(self) -> Self::IntoIter {
        self.reads.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(seqs: &[&str]) -> ReadSet {
        seqs.iter()
            .map(|s| Read::from_seq(s.parse().unwrap()))
            .collect()
    }

    #[test]
    fn totals() {
        let rs = mk(&["ACGT", "AC"]);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.total_bases(), 6);
        assert_eq!(rs.max_read_len(), 4);
    }

    #[test]
    fn fixed_length_detection() {
        assert!(mk(&["ACGT", "TTTT"]).is_fixed_length());
        assert!(!mk(&["ACGT", "TT"]).is_fixed_length());
        assert!(ReadSet::new().is_fixed_length());
    }

    #[test]
    fn columns_borrow_what_the_reads_own() {
        let mut rs = mk(&["ACGT", "", "GGA"]);
        for r in rs.reads_mut() {
            r.qual = Some(vec![b'#'; r.len()]);
        }
        let cols: ChunkColumns = rs.iter().map(ReadRef::from).collect();
        assert_eq!(cols.spans, [(0, 4), (4, 4), (4, 7)]);
        assert_eq!((cols.len(), cols.payload_bytes()), (3, 14));
        for (got, want) in cols.iter().zip(rs.iter()) {
            assert!(got.seq == want.seq && got.qual == want.qual);
            assert_eq!(got.to_read(), *want);
        }
        assert!(cols.at(cols.spans[1]).is_empty());
        let bare: ChunkColumns = mk(&["AC"]).iter().map(ReadRef::from).collect();
        assert_eq!(bare.qual, None);
        assert!(bare.at(bare.spans[0]).qual != Some(vec![b'#'; 2]));
    }

    #[test]
    #[should_panic(expected = "a quality per base")]
    fn columns_refuse_reads_with_and_without_qualities() {
        let mut rs = mk(&["ACGT", "AC"]);
        rs.reads_mut()[1].qual = Some(vec![b'#'; 2]);
        let _: ChunkColumns = rs.iter().map(ReadRef::from).collect();
    }

    #[test]
    fn quality_accounting() {
        let mut rs = mk(&["ACGT"]);
        assert_eq!(rs.total_quality_bytes(), 0);
        rs.reads_mut()[0].qual = Some(vec![b'I'; 4]);
        assert_eq!(rs.total_quality_bytes(), 4);
    }
}
