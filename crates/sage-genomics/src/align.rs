//! Read-to-consensus alignments.
//!
//! Genomic compressors (§2.2) represent each read as a *matching
//! position* in a consensus sequence plus the read's *mismatches*
//! (substitutions, insertions, deletions). This module defines that
//! representation:
//!
//! - [`Edit`] — one mismatch, at an offset inside the read.
//! - [`Segment`] — a contiguous stretch of the read aligned to one
//!   consensus location (chimeric reads have several segments, §5.1.2
//!   Property 4).
//! - [`Alignment`] — a full lossless description of a read: optional
//!   soft clips at either end plus 1..=N segments.
//!
//! The contract is exact reconstruction: applying an alignment to the
//! consensus reproduces the read's bases (with `N` positions masked to
//! `A`; SAGe restores `N` via corner-case records, §5.1.4).

use crate::base::Base;
use crate::seq::DnaSeq;

/// One mismatch between a read and the consensus, positioned by its
/// offset within the (oriented) segment it belongs to.
///
/// Offsets are *read-side*: a [`Edit::Del`] consumes no read bases, so
/// several edits may share an offset; the order in the containing
/// segment's edit list is the canonical application order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// The read has `base` where the consensus has something else.
    Sub {
        /// Offset within the segment.
        read_off: u32,
        /// The read's base (differs from the consensus base).
        base: Base,
    },
    /// The read contains `bases` that are absent from the consensus.
    Ins {
        /// Offset within the segment where the inserted bases start.
        read_off: u32,
        /// The inserted bases (length ≥ 1).
        bases: Vec<Base>,
    },
    /// The consensus contains `len` bases that are absent from the read.
    Del {
        /// Offset within the segment where the deletion occurs.
        read_off: u32,
        /// Number of consensus bases skipped (≥ 1).
        len: u32,
    },
}

impl Edit {
    /// The read-side offset of this edit within its segment.
    pub fn read_off(&self) -> u32 {
        match self {
            Edit::Sub { read_off, .. }
            | Edit::Ins { read_off, .. }
            | Edit::Del { read_off, .. } => *read_off,
        }
    }

    /// `true` for insertions and deletions.
    pub fn is_indel(&self) -> bool {
        !matches!(self, Edit::Sub { .. })
    }

    /// Length of the indel block (1 for substitutions).
    pub fn block_len(&self) -> u32 {
        match self {
            Edit::Sub { .. } => 1,
            Edit::Ins { bases, .. } => bases.len() as u32,
            Edit::Del { len, .. } => *len,
        }
    }
}

/// A contiguous read stretch `[read_start, read_end)` aligned at one
/// consensus position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// First read offset covered by this segment.
    pub read_start: u32,
    /// One past the last read offset covered.
    pub read_end: u32,
    /// Matching position in the consensus (of the oriented segment's
    /// first base).
    pub cons_pos: u64,
    /// `true` if the segment matches the reverse-complement strand.
    pub rev: bool,
    /// Mismatches in oriented-segment coordinates, in application order
    /// (non-decreasing `read_off`).
    pub edits: Vec<Edit>,
}

impl Segment {
    /// Segment length in read bases.
    pub fn len(&self) -> u32 {
        self.read_end - self.read_start
    }

    /// `true` for zero-length segments.
    pub fn is_empty(&self) -> bool {
        self.read_end == self.read_start
    }

    /// Reconstructs the oriented bases of this segment from the
    /// consensus and then applies orientation, appending exactly the
    /// read's bases for `[read_start, read_end)` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the alignment walks out of the consensus or the edits
    /// are inconsistent with the segment length.
    fn reconstruct_into(&self, consensus: &[Base], out: &mut Vec<Base>) {
        let start = out.len();
        let end = start + self.len() as usize;
        let mut c = self.cons_pos as usize;
        // Consensus runs go over in one slice copy each.
        let copy_to = |out: &mut Vec<Base>, c: &mut usize, target: usize| {
            let n = target - out.len();
            out.extend_from_slice(&consensus[*c..*c + n]);
            *c += n;
        };
        for e in &self.edits {
            let target = start + e.read_off() as usize;
            assert!(target >= out.len(), "edits out of order");
            copy_to(out, &mut c, target);
            match e {
                Edit::Sub { base, .. } => {
                    debug_assert_ne!(
                        *base, consensus[c],
                        "substitution base equals consensus base"
                    );
                    out.push(*base);
                    c += 1;
                }
                Edit::Ins { bases, .. } => out.extend_from_slice(bases),
                Edit::Del { len, .. } => c += *len as usize,
            }
        }
        assert!(out.len() <= end, "edits overrun segment length");
        copy_to(out, &mut c, end);
        if self.rev {
            let seg = &mut out[start..];
            seg.reverse();
            for b in seg {
                *b = b.complement();
            }
        }
    }
}

/// A full, lossless alignment of one read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Alignment {
    /// Unaligned bases preceding the first segment (soft clip).
    pub clip_start: Vec<Base>,
    /// Unaligned bases following the last segment (soft clip).
    pub clip_end: Vec<Base>,
    /// 1..=N aligned segments, contiguous in read coordinates. Empty
    /// means the read is unmapped and must be stored raw.
    pub segments: Vec<Segment>,
}

impl Alignment {
    /// An unmapped-read marker.
    pub fn unmapped() -> Alignment {
        Alignment::default()
    }

    /// `true` when the read could not be aligned at all.
    pub fn is_unmapped(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total number of edit records across all segments.
    pub fn total_edits(&self) -> usize {
        self.segments.iter().map(|s| s.edits.len()).sum()
    }

    /// Matching position of the first segment (used for read
    /// reordering, §5.1.3). Unmapped reads sort last via `u64::MAX`.
    pub fn sort_key(&self) -> u64 {
        self.segments.first().map_or(u64::MAX, |s| s.cons_pos)
    }

    /// Checks the structural invariants: segments contiguous, clips at
    /// the extremes, edits ordered.
    pub fn is_well_formed(&self, read_len: usize) -> bool {
        if self.is_unmapped() {
            return self.clip_start.is_empty() && self.clip_end.is_empty();
        }
        let mut expected = self.clip_start.len() as u32;
        for seg in &self.segments {
            if seg.read_start != expected || seg.read_end < seg.read_start {
                return false;
            }
            let mut last = 0u32;
            for e in &seg.edits {
                if e.read_off() < last {
                    return false;
                }
                last = e.read_off();
            }
            expected = seg.read_end;
        }
        expected as usize + self.clip_end.len() == read_len
    }

    /// Reconstructs the full read (with `N` masked to `A`) from the
    /// consensus.
    ///
    /// # Panics
    ///
    /// Panics if the alignment is inconsistent with the consensus.
    pub fn reconstruct(&self, consensus: &[Base]) -> DnaSeq {
        let seg_bases: usize = self.segments.iter().map(|s| s.len() as usize).sum();
        let mut out = Vec::with_capacity(self.clip_start.len() + seg_bases + self.clip_end.len());
        out.extend_from_slice(&self.clip_start);
        for seg in &self.segments {
            seg.reconstruct_into(consensus, &mut out);
        }
        out.extend_from_slice(&self.clip_end);
        DnaSeq::from_bases(out)
    }
}

/// Number of bits needed to represent `v` (0 needs 0 bits).
///
/// This is the quantity whose per-dataset distribution drives SAGe's
/// bit-width tuning (Algorithm 1).
#[inline]
pub fn bits_needed(v: u64) -> u32 {
    64 - v.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consensus() -> DnaSeq {
        "ACGTACGTACGTACGTACGT".parse().unwrap()
    }

    /// One segment's bases, through the whole-read reconstruction.
    fn rebuild(seg: &Segment, consensus: &[Base]) -> DnaSeq {
        Alignment {
            clip_start: vec![],
            clip_end: vec![],
            segments: vec![seg.clone()],
        }
        .reconstruct(consensus)
    }

    #[test]
    fn perfect_segment_reconstructs_consensus_window() {
        let seg = Segment {
            read_start: 0,
            read_end: 8,
            cons_pos: 4,
            rev: false,
            edits: vec![],
        };
        assert_eq!(rebuild(&seg, &consensus()).to_string(), "ACGTACGT");
    }

    #[test]
    fn substitution_applied() {
        let seg = Segment {
            read_start: 0,
            read_end: 4,
            cons_pos: 0,
            rev: false,
            edits: vec![Edit::Sub {
                read_off: 1,
                base: Base::T,
            }],
        };
        assert_eq!(rebuild(&seg, &consensus()).to_string(), "ATGT");
    }

    #[test]
    fn insertion_and_deletion_applied() {
        // Consensus ACGT...; insert "GG" at offset 2, delete 1 at offset 6.
        let seg = Segment {
            read_start: 0,
            read_end: 8,
            cons_pos: 0,
            rev: false,
            edits: vec![
                Edit::Ins {
                    read_off: 2,
                    bases: vec![Base::G, Base::G],
                },
                Edit::Del {
                    read_off: 6,
                    len: 1,
                },
            ],
        };
        // read = AC GG GT [skip A] CG
        assert_eq!(rebuild(&seg, &consensus()).to_string(), "ACGGGTCG");
    }

    #[test]
    fn reverse_segment_is_reverse_complement() {
        let fwd = Segment {
            read_start: 0,
            read_end: 6,
            cons_pos: 2,
            rev: false,
            edits: vec![],
        };
        let rev = Segment {
            rev: true,
            ..fwd.clone()
        };
        let f = rebuild(&fwd, &consensus());
        let r = rebuild(&rev, &consensus());
        assert_eq!(f.reverse_complement(), r);
    }

    #[test]
    fn chimeric_alignment_with_clips() {
        let aln = Alignment {
            clip_start: vec![Base::T, Base::T],
            clip_end: vec![Base::A],
            segments: vec![
                Segment {
                    read_start: 2,
                    read_end: 6,
                    cons_pos: 0,
                    rev: false,
                    edits: vec![],
                },
                Segment {
                    read_start: 6,
                    read_end: 10,
                    cons_pos: 12,
                    rev: false,
                    edits: vec![],
                },
            ],
        };
        assert!(aln.is_well_formed(11));
        let got = aln.reconstruct(&consensus());
        assert_eq!(got.to_string(), "TTACGTACGTA");
    }

    #[test]
    fn well_formedness_rejects_gaps() {
        let aln = Alignment {
            clip_start: vec![],
            clip_end: vec![],
            segments: vec![Segment {
                read_start: 1, // gap: should start at 0
                read_end: 5,
                cons_pos: 0,
                rev: false,
                edits: vec![],
            }],
        };
        assert!(!aln.is_well_formed(5));
    }

    #[test]
    fn cons_span_accounts_for_indels() {
        let seg = Segment {
            read_start: 0,
            read_end: 10,
            cons_pos: 0,
            rev: false,
            edits: vec![
                Edit::Ins {
                    read_off: 3,
                    bases: vec![Base::A, Base::A],
                },
                Edit::Del {
                    read_off: 7,
                    len: 3,
                },
            ],
        };
        // 10 read bases, 2 from insertion -> 8 from consensus, +3 deleted:
        // the segment reads exactly the first 11 consensus bases.
        let cons = consensus();
        assert_eq!(
            rebuild(&seg, &cons.as_slice()[..11]).to_string(),
            "ACGAATAACG"
        );
        assert!(std::panic::catch_unwind(|| rebuild(&seg, &cons.as_slice()[..10])).is_err());
    }

    #[test]
    fn bits_needed_edges() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(3), 2);
        assert_eq!(bits_needed(4), 3);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
    }

    #[test]
    fn unmapped_alignment_sorts_last() {
        assert_eq!(Alignment::unmapped().sort_key(), u64::MAX);
    }
}
