//! Empirical dataset analyses.
//!
//! These are the measurements behind the paper's motivation for each
//! encoding optimization: Fig. 7(a) — bits needed for delta-encoded
//! mismatch positions; Fig. 7(b) — mismatch counts per read; Fig. 7(c,d)
//! — indel block length and indel bases CDFs; Fig. 10 — bits needed for
//! delta-encoded matching positions. All operate on [`Alignment`]s
//! produced by the mapper (or any other source).

use crate::align::{bits_needed, Alignment};

/// A simple integer histogram over small non-negative values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Increments the bucket for `value`.
    pub fn add(&mut self, value: usize) {
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-bucket fractions (empty histogram yields an empty vec).
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Cumulative fractions: entry `i` is the fraction of samples ≤ `i`.
    pub fn cumulative_fractions(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return Vec::new();
        }
        let mut acc = 0u64;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / total as f64
            })
            .collect()
    }
}

impl FromIterator<usize> for Histogram {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Histogram {
        let mut h = Histogram::new();
        for v in iter {
            h.add(v);
        }
        h
    }
}

/// Fig. 7(a): histogram of bits needed for the delta-encoded mismatch
/// positions within each read (delta between consecutive edit offsets).
pub fn mismatch_position_bits_histogram(alignments: &[Alignment]) -> Histogram {
    let mut h = Histogram::new();
    for aln in alignments {
        for seg in &aln.segments {
            let mut prev = 0u64;
            for e in &seg.edits {
                let off = u64::from(e.read_off());
                let delta = off - prev;
                h.add(bits_needed(delta) as usize);
                prev = off;
            }
        }
    }
    h
}

/// Fig. 7(b): histogram of mismatch (edit) counts per read.
pub fn mismatch_count_histogram(alignments: &[Alignment]) -> Histogram {
    alignments.iter().map(|a| a.total_edits()).collect()
}

/// Fig. 7(c): histogram of indel block lengths (input to the CDF).
pub fn indel_block_length_histogram(alignments: &[Alignment]) -> Histogram {
    let mut h = Histogram::new();
    for aln in alignments {
        for seg in &aln.segments {
            for e in &seg.edits {
                if e.is_indel() {
                    h.add(e.block_len() as usize);
                }
            }
        }
    }
    h
}

/// Fig. 7(d): histogram of indel *bases* by block length — bucket `L`
/// holds `L × (number of blocks of length L)`.
pub fn indel_bases_by_length_histogram(alignments: &[Alignment]) -> Histogram {
    let mut h = Histogram::new();
    for aln in alignments {
        for seg in &aln.segments {
            for e in &seg.edits {
                if e.is_indel() {
                    let len = e.block_len() as usize;
                    for _ in 0..len {
                        h.add(len);
                    }
                }
            }
        }
    }
    h
}

/// Fig. 10: histogram of bits needed for delta-encoded matching
/// positions after reordering reads by position (§5.1.3).
pub fn matching_position_bits_histogram(alignments: &[Alignment]) -> Histogram {
    let mut positions: Vec<u64> = alignments
        .iter()
        .filter(|a| !a.is_unmapped())
        .map(|a| a.sort_key())
        .collect();
    positions.sort_unstable();
    let mut h = Histogram::new();
    let mut prev = 0u64;
    for p in positions {
        h.add(bits_needed(p - prev) as usize);
        prev = p;
    }
    h
}

/// Fraction of mismatch bases that belong to chimeric reads (reads with
/// more than one segment) — the paper's Property 4 measurement.
pub fn chimeric_mismatch_base_fraction(alignments: &[Alignment]) -> f64 {
    let mut total = 0u64;
    let mut chimeric = 0u64;
    for aln in alignments {
        let is_chimeric = aln.segments.len() > 1;
        for seg in &aln.segments {
            for e in &seg.edits {
                let bases = u64::from(e.block_len());
                total += bases;
                if is_chimeric {
                    chimeric += bases;
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        chimeric as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::{Edit, Segment};
    use crate::base::Base;

    fn aln_with_edits(offs: &[u32]) -> Alignment {
        Alignment {
            clip_start: vec![],
            clip_end: vec![],
            segments: vec![Segment {
                read_start: 0,
                read_end: 100,
                cons_pos: 0,
                rev: false,
                edits: offs
                    .iter()
                    .map(|&o| Edit::Sub {
                        read_off: o,
                        base: Base::A,
                    })
                    .collect(),
            }],
        }
    }

    #[test]
    fn histogram_basics() {
        let h: Histogram = [0usize, 1, 1, 3].into_iter().collect();
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts[1], 2);
        let f = h.fractions();
        assert!((f[1] - 0.5).abs() < 1e-12);
        let c = h.cumulative_fractions();
        assert!((c[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_fractions() {
        let h = Histogram::new();
        assert!(h.fractions().is_empty());
    }

    #[test]
    fn mismatch_position_bits_uses_deltas() {
        // Edits at 5, 6, 10 -> deltas 5, 1, 4 -> bits 3, 1, 3.
        let h = mismatch_position_bits_histogram(&[aln_with_edits(&[5, 6, 10])]);
        assert_eq!(h.counts[3], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn mismatch_counts_counted_per_read() {
        let h = mismatch_count_histogram(&[
            aln_with_edits(&[]),
            aln_with_edits(&[1]),
            aln_with_edits(&[1, 2]),
        ]);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 1);
    }

    #[test]
    fn indel_bases_weights_by_length() {
        let mut aln = aln_with_edits(&[]);
        aln.segments[0].edits = vec![
            Edit::Del {
                read_off: 0,
                len: 1,
            },
            Edit::Del {
                read_off: 5,
                len: 4,
            },
        ];
        let blocks = indel_block_length_histogram(&[aln.clone()]);
        assert_eq!(blocks.counts[1], 1);
        assert_eq!(blocks.counts[4], 1);
        let bases = indel_bases_by_length_histogram(&[aln]);
        assert_eq!(bases.counts[1], 1);
        assert_eq!(bases.counts[4], 4);
    }

    #[test]
    fn matching_position_bits_sorted_deltas() {
        let mk = |pos: u64| Alignment {
            clip_start: vec![],
            clip_end: vec![],
            segments: vec![Segment {
                read_start: 0,
                read_end: 10,
                cons_pos: pos,
                rev: false,
                edits: vec![],
            }],
        };
        // Positions 8, 2, 2 -> sorted 2,2,8 -> deltas 2,0,6 -> bits 2,0,3.
        let h = matching_position_bits_histogram(&[mk(8), mk(2), mk(2)]);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[2], 1);
        assert_eq!(h.counts[3], 1);
    }

    #[test]
    fn chimeric_fraction() {
        let single = aln_with_edits(&[1, 2]);
        let mut chimeric = aln_with_edits(&[1]);
        chimeric.segments.push(Segment {
            read_start: 100,
            read_end: 200,
            cons_pos: 500,
            rev: false,
            edits: vec![Edit::Sub {
                read_off: 0,
                base: Base::C,
            }],
        });
        let f = chimeric_mismatch_base_fraction(&[single, chimeric]);
        assert!((f - 0.5).abs() < 1e-12);
    }
}
