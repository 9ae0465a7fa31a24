//! Owned DNA sequences.

use crate::base::{Base, ParseBaseError};
use std::fmt;
use std::ops::{Deref, Index};

/// An owned DNA sequence: a thin, validated wrapper around `Vec<Base>`.
///
/// # Example
///
/// ```
/// use sage_genomics::DnaSeq;
///
/// let s: DnaSeq = "ACGTN".parse().unwrap();
/// assert_eq!(s.len(), 5);
/// assert_eq!(s.reverse_complement().to_string(), "NACGT");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct DnaSeq(Vec<Base>);

impl DnaSeq {
    /// Creates an empty sequence with reserved capacity.
    pub fn with_capacity(cap: usize) -> DnaSeq {
        DnaSeq(Vec::with_capacity(cap))
    }

    /// Wraps a vector of bases.
    pub fn from_bases(bases: Vec<Base>) -> DnaSeq {
        DnaSeq(bases)
    }

    /// Parses an ASCII byte slice (case-insensitive `ACGTN`).
    ///
    /// # Errors
    ///
    /// Returns the first invalid byte encountered.
    pub fn from_ascii(bytes: &[u8]) -> Result<DnaSeq, ParseBaseError> {
        bytes.iter().map(|&b| Base::try_from(b)).collect()
    }

    /// Serializes to upper-case ASCII.
    pub fn to_ascii(&self) -> Vec<u8> {
        self.0.iter().map(|&b| u8::from(b)).collect()
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the sequence has no bases.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the bases as a slice.
    pub fn as_slice(&self) -> &[Base] {
        &self.0
    }

    /// Appends a base.
    pub fn push(&mut self, base: Base) {
        self.0.push(base);
    }

    /// Appends all bases of `other`.
    pub fn extend_from_seq(&mut self, other: &DnaSeq) {
        self.0.extend_from_slice(&other.0);
    }

    /// Appends a slice of bases.
    pub fn extend_from_slice(&mut self, bases: &[Base]) {
        self.0.extend_from_slice(bases);
    }

    /// Returns the reverse complement as a new sequence.
    pub fn reverse_complement(&self) -> DnaSeq {
        DnaSeq(self.0.iter().rev().map(|b| b.complement()).collect())
    }

    /// Returns a sub-sequence `[start, start+len)` as a new sequence.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn subseq(&self, start: usize, len: usize) -> DnaSeq {
        DnaSeq(self.0[start..start + len].to_vec())
    }

    /// Positions (0-based) of all `N` bases.
    pub fn n_positions(&self) -> Vec<usize> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.is_n().then_some(i))
            .collect()
    }

    /// Consumes the sequence and returns the underlying bases.
    pub fn into_bases(self) -> Vec<Base> {
        self.0
    }

    /// Iterator over the bases.
    pub fn iter(&self) -> std::slice::Iter<'_, Base> {
        self.0.iter()
    }
}

impl Deref for DnaSeq {
    type Target = [Base];

    fn deref(&self) -> &[Base] {
        &self.0
    }
}

impl Index<usize> for DnaSeq {
    type Output = Base;

    fn index(&self, i: usize) -> &Base {
        &self.0[i]
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for DnaSeq {
    type Err = ParseBaseError;

    fn from_str(s: &str) -> Result<DnaSeq, ParseBaseError> {
        DnaSeq::from_ascii(s.as_bytes())
    }
}

impl FromIterator<Base> for DnaSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> DnaSeq {
        DnaSeq(iter.into_iter().collect())
    }
}

impl Extend<Base> for DnaSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl<'a> IntoIterator for &'a DnaSeq {
    type Item = &'a Base;
    type IntoIter = std::slice::Iter<'a, Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl IntoIterator for DnaSeq {
    type Item = Base;
    type IntoIter = std::vec::IntoIter<Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl From<Vec<Base>> for DnaSeq {
    fn from(v: Vec<Base>) -> DnaSeq {
        DnaSeq(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let s: DnaSeq = "ACGTNACGT".parse().unwrap();
        assert_eq!(s.to_string(), "ACGTNACGT");
    }

    #[test]
    fn parse_rejects_invalid() {
        assert!("ACGX".parse::<DnaSeq>().is_err());
    }

    #[test]
    fn reverse_complement_is_involutive() {
        let s: DnaSeq = "ACGGTTNA".parse().unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn reverse_complement_matches_manual() {
        let s: DnaSeq = "AACGT".parse().unwrap();
        assert_eq!(s.reverse_complement().to_string(), "ACGTT");
    }

    #[test]
    fn subseq_extracts_window() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(s.subseq(2, 3).to_string(), "GTA");
    }

    #[test]
    fn n_positions_found() {
        let s: DnaSeq = "ANGNT".parse().unwrap();
        assert_eq!(s.n_positions(), vec![1, 3]);
    }

    #[test]
    fn collect_from_iterator() {
        let s: DnaSeq = [Base::A, Base::C].into_iter().collect();
        assert_eq!(s.to_string(), "AC");
    }
}
