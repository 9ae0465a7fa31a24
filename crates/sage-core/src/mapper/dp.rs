//! Edit-script alignment kernels.
//!
//! The mapper anchors reads with exact minimizer matches and aligns the
//! short stretches *between* anchors (plus the read's extremities) with
//! unit-cost dynamic programming. Three variants are needed:
//!
//! - [`align_global`] — both ends fixed (between two anchors), banded;
//! - [`align_free_start`] — the consensus start is free (extending a
//!   read prefix leftwards from the first anchor);
//! - [`align_free_end`] — the consensus end is free (extending a read
//!   suffix rightwards from the last anchor).
//!
//! Most stretches a mapper hands over *equal* the consensus they are
//! pinned to (a short read with one error has one stretch that does
//! not), so each kernel first compares the read with the pinned
//! consensus stretch and, when they are equal, returns all-[`Op::Match`]
//! at cost 0 without building a matrix. That is what the matrix gives
//! on such input — cost 0 is the unique optimum and the traceback tries
//! the diagonal first — so the early return changes no alignment.
//! Nothing is carried from one call to the next.

use sage_genomics::Base;

/// One read-side alignment operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read base equals the consensus base.
    Match,
    /// Read base differs from the consensus base.
    Sub,
    /// Read base absent from the consensus.
    Ins,
    /// Consensus base absent from the read.
    Del,
}

/// Result of an alignment kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignmentOps {
    /// Operations in read order.
    pub ops: Vec<Op>,
    /// Total unit cost (subs + inserted + deleted bases).
    pub cost: u32,
    /// First consensus offset consumed (non-zero only for
    /// [`align_free_start`]).
    pub cons_start: usize,
    /// One past the last consensus offset consumed.
    pub cons_end: usize,
}

impl AlignmentOps {
    /// `n` matches against the consensus from `cons_start`: the
    /// alignment of a read stretch equal to the consensus under it.
    fn all_match(n: usize, cons_start: usize) -> AlignmentOps {
        AlignmentOps {
            ops: vec![Op::Match; n],
            cost: 0,
            cons_start,
            cons_end: cons_start + n,
        }
    }
}

const INF: u32 = u32::MAX / 2;

/// Globally aligns `read` against `cons` (both fully consumed) with a
/// band of half-width `band` around the straight diagonal. Returns
/// `None` when the optimal path would leave the band or the DP exceeds
/// `max_cells`.
pub fn align_global(
    read: &[Base],
    cons: &[Base],
    band: usize,
    max_cells: usize,
) -> Option<AlignmentOps> {
    let band = band.max(read.len().abs_diff(cons.len()) + 2);
    if read.len().saturating_mul(2 * band + 1) > max_cells {
        return None;
    }
    // Only past the budget check: a stretch over budget is `None` (the
    // mapper then stores it as a deletion run plus an insertion run)
    // whether or not it happens to equal the consensus.
    if read == cons {
        return Some(AlignmentOps::all_match(read.len(), 0));
    }
    global_matrix(read, cons, band)
}

/// [`align_global`]'s banded matrix and traceback; `band` is already
/// widened to the length difference and within the cell budget.
fn global_matrix(read: &[Base], cons: &[Base], band: usize) -> Option<AlignmentOps> {
    let n = read.len();
    let m = cons.len();
    // Row i covers consensus columns [lo(i), hi(i)].
    let center = |i: usize| (i * m).checked_div(n).unwrap_or(0);
    let lo = |i: usize| center(i).saturating_sub(band);
    let hi = |i: usize| (center(i) + band).min(m);
    let width = 2 * band + 1;
    let idx = |i: usize, j: usize| i * width + (j - lo(i));

    let mut cost = vec![INF; (n + 1) * width];
    for j in lo(0)..=hi(0) {
        cost[idx(0, j)] = j as u32; // deletions along the top row
    }
    for i in 1..=n {
        for j in lo(i)..=hi(i) {
            let mut best = INF;
            // Insertion (consume read base i-1).
            if j >= lo(i - 1) && j <= hi(i - 1) {
                best = best.min(cost[idx(i - 1, j)].saturating_add(1));
            }
            if j > 0 {
                // Deletion (consume cons base j-1).
                if j > lo(i) {
                    best = best.min(cost[idx(i, j - 1)].saturating_add(1));
                }
                // Diagonal.
                if j > lo(i - 1) && j - 1 <= hi(i - 1) {
                    let sub = u32::from(read[i - 1] != cons[j - 1]);
                    best = best.min(cost[idx(i - 1, j - 1)].saturating_add(sub));
                }
            }
            cost[idx(i, j)] = best;
        }
    }
    if m < lo(n) || m > hi(n) || cost[idx(n, m)] >= INF {
        return None;
    }
    // Traceback.
    let total = cost[idx(n, m)];
    let mut ops = Vec::with_capacity(n.max(m));
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        let cur = cost[idx(i, j)];
        if i > 0 && j > 0 && j > lo(i - 1) && j - 1 <= hi(i - 1) {
            let sub = u32::from(read[i - 1] != cons[j - 1]);
            if cost[idx(i - 1, j - 1)].saturating_add(sub) == cur {
                ops.push(if sub == 1 { Op::Sub } else { Op::Match });
                i -= 1;
                j -= 1;
                continue;
            }
        }
        if j > 0 && j > lo(i) && cost[idx(i, j - 1)].saturating_add(1) == cur {
            ops.push(Op::Del);
            j -= 1;
            continue;
        }
        if i > 0 && j >= lo(i - 1) && j <= hi(i - 1) && cost[idx(i - 1, j)].saturating_add(1) == cur
        {
            ops.push(Op::Ins);
            i -= 1;
            continue;
        }
        // Should be unreachable on a consistent matrix.
        return None;
    }
    ops.reverse();
    Some(AlignmentOps {
        ops,
        cost: total,
        cons_start: 0,
        cons_end: m,
    })
}

/// Aligns all of `read` against a *suffix* of `cons` (the consensus
/// start is free; the end is pinned at `cons.len()`). Used to extend a
/// read prefix leftwards from its first anchor. Unbanded — callers pass
/// small windows.
pub fn align_free_start(read: &[Base], cons: &[Base]) -> AlignmentOps {
    if cons.ends_with(read) {
        return AlignmentOps::all_match(read.len(), cons.len() - read.len());
    }
    free_start_matrix(read, cons)
}

/// [`align_free_start`]'s matrix and traceback.
fn free_start_matrix(read: &[Base], cons: &[Base]) -> AlignmentOps {
    let n = read.len();
    let m = cons.len();
    let w = m + 1;
    let mut cost = vec![INF; (n + 1) * w];
    cost[..w].fill(0); // free start anywhere in the consensus window
    for i in 1..=n {
        for j in 0..=m {
            let mut best = cost[(i - 1) * w + j].saturating_add(1); // Ins
            if j > 0 {
                best = best.min(cost[i * w + j - 1].saturating_add(1)); // Del
                let sub = u32::from(read[i - 1] != cons[j - 1]);
                best = best.min(cost[(i - 1) * w + j - 1].saturating_add(sub));
            }
            cost[i * w + j] = best;
        }
    }
    let total = cost[n * w + m];
    let mut ops = Vec::new();
    let (mut i, mut j) = (n, m);
    while i > 0 {
        let cur = cost[i * w + j];
        if j > 0 {
            let sub = u32::from(read[i - 1] != cons[j - 1]);
            if cost[(i - 1) * w + j - 1].saturating_add(sub) == cur {
                ops.push(if sub == 1 { Op::Sub } else { Op::Match });
                i -= 1;
                j -= 1;
                continue;
            }
            if cost[i * w + j - 1].saturating_add(1) == cur {
                ops.push(Op::Del);
                j -= 1;
                continue;
            }
        }
        ops.push(Op::Ins);
        i -= 1;
    }
    // Trailing deletions before the free start are *not* part of the
    // alignment: j is where the path enters the window.
    ops.reverse();
    AlignmentOps {
        ops,
        cost: total,
        cons_start: j,
        cons_end: m,
    }
}

/// Aligns all of `read` against a *prefix* of `cons` (the consensus end
/// is free; the start is pinned at 0). Used to extend a read suffix
/// rightwards from its last anchor. Unbanded — callers pass small
/// windows.
pub fn align_free_end(read: &[Base], cons: &[Base]) -> AlignmentOps {
    if cons.starts_with(read) {
        return AlignmentOps::all_match(read.len(), 0);
    }
    free_end_matrix(read, cons)
}

/// [`align_free_end`]'s matrix and traceback.
fn free_end_matrix(read: &[Base], cons: &[Base]) -> AlignmentOps {
    let n = read.len();
    let m = cons.len();
    let w = m + 1;
    let mut cost = vec![INF; (n + 1) * w];
    for (j, c) in cost.iter_mut().enumerate().take(w) {
        *c = j as u32;
    }
    for i in 1..=n {
        for j in 0..=m {
            let mut best = cost[(i - 1) * w + j].saturating_add(1);
            if j > 0 {
                best = best.min(cost[i * w + j - 1].saturating_add(1));
                let sub = u32::from(read[i - 1] != cons[j - 1]);
                best = best.min(cost[(i - 1) * w + j - 1].saturating_add(sub));
            }
            cost[i * w + j] = best;
        }
    }
    // Free end: best cell in the last row.
    let (end_j, total) = (0..=m)
        .map(|j| (j, cost[n * w + j]))
        .min_by_key(|&(_, c)| c)
        .expect("non-empty row");
    let mut ops = Vec::new();
    let (mut i, mut j) = (n, end_j);
    while i > 0 || j > 0 {
        let cur = cost[i * w + j];
        if i > 0 && j > 0 {
            let sub = u32::from(read[i - 1] != cons[j - 1]);
            if cost[(i - 1) * w + j - 1].saturating_add(sub) == cur {
                ops.push(if sub == 1 { Op::Sub } else { Op::Match });
                i -= 1;
                j -= 1;
                continue;
            }
        }
        if j > 0 && cost[i * w + j - 1].saturating_add(1) == cur {
            ops.push(Op::Del);
            j -= 1;
            continue;
        }
        ops.push(Op::Ins);
        i -= 1;
    }
    ops.reverse();
    AlignmentOps {
        ops,
        cost: total,
        cons_start: 0,
        cons_end: end_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::DnaSeq;

    fn s(x: &str) -> DnaSeq {
        x.parse().unwrap()
    }

    #[test]
    fn identical_sequences_all_match() {
        let a = s("ACGTACGT");
        let r = align_global(&a, &a, 4, 1 << 20).unwrap();
        assert_eq!(r.cost, 0);
        assert!(r.ops.iter().all(|&o| o == Op::Match));
    }

    #[test]
    fn single_substitution_detected() {
        let r = align_global(&s("ACGTACGT"), &s("ACGAACGT"), 4, 1 << 20).unwrap();
        assert_eq!(r.cost, 1);
        assert_eq!(r.ops.iter().filter(|&&o| o == Op::Sub).count(), 1);
    }

    #[test]
    fn insertion_and_deletion_detected() {
        // read has extra "GG"; cons has extra "T" elsewhere.
        let r = align_global(&s("ACGGGTAC"), &s("ACGTACT"), 6, 1 << 20).unwrap();
        let ins = r.ops.iter().filter(|&&o| o == Op::Ins).count();
        let del = r.ops.iter().filter(|&&o| o == Op::Del).count();
        assert_eq!(ins as i64 - del as i64, 8 - 7);
        assert!(r.cost <= 4);
    }

    #[test]
    fn ops_reconstruct_read() {
        // Fuzz-ish: apply ops to cons and compare with read.
        let read = s("ACGTTTACGGACGTAC");
        let cons = s("ACGTACGGAACGTACG");
        let r = align_global(&read, &cons, 8, 1 << 20).unwrap();
        let mut rebuilt = Vec::new();
        let mut ri = 0;
        let mut ci = 0;
        for op in &r.ops {
            match op {
                Op::Match => {
                    assert_eq!(read[ri], cons[ci]);
                    rebuilt.push(cons[ci]);
                    ri += 1;
                    ci += 1;
                }
                Op::Sub => {
                    assert_ne!(read[ri], cons[ci]);
                    rebuilt.push(read[ri]);
                    ri += 1;
                    ci += 1;
                }
                Op::Ins => {
                    rebuilt.push(read[ri]);
                    ri += 1;
                }
                Op::Del => {
                    ci += 1;
                }
            }
        }
        assert_eq!(ci, cons.len());
        assert_eq!(DnaSeq::from_bases(rebuilt), read);
    }

    #[test]
    fn band_too_small_returns_none_or_valid() {
        // A 6-base shift needs band >= 8 after the abs-diff adjustment;
        // the function must never return a wrong-cost alignment.
        let read = s("AAAAAACGTACGTACGT");
        let cons = s("CGTACGTACGT");
        if let Some(r) = align_global(&read, &cons, 1, 1 << 20) {
            assert!(r.cost >= 6);
        }
    }

    #[test]
    fn cell_budget_respected() {
        let read = s("ACGTACGTACGTACGTACGT");
        assert!(align_global(&read, &read, 64, 10).is_none());
    }

    #[test]
    fn early_returns_equal_the_matrix_paths() {
        // Inputs that take each kernel's early return — equal, the read
        // a suffix / a prefix of the window, an empty read — get from
        // it exactly what the matrix and its traceback produce.
        let window = s("TTGACCATGCAGGTTACGATCGGATTACA");
        let window = window.as_slice();
        for len in 0..=window.len() {
            let suffix = &window[window.len() - len..];
            let prefix = &window[..len];
            assert_eq!(
                align_global(prefix, prefix, 4, 1 << 20),
                global_matrix(prefix, prefix, 4),
                "global, {len} bases"
            );
            assert_eq!(
                align_free_start(suffix, window),
                free_start_matrix(suffix, window),
                "free start, {len} bases"
            );
            assert_eq!(
                align_free_end(prefix, window),
                free_end_matrix(prefix, window),
                "free end, {len} bases"
            );
        }
        // A repeat: the read matches the window at several offsets, and
        // the pinned end decides which one the matrix takes.
        let repeat = s("ACACACACACACACAC");
        let repeat = repeat.as_slice();
        for len in 0..=repeat.len() {
            let (suffix, prefix) = (&repeat[repeat.len() - len..], &repeat[..len]);
            assert_eq!(
                align_free_start(suffix, repeat),
                free_start_matrix(suffix, repeat)
            );
            assert_eq!(
                align_free_end(prefix, repeat),
                free_end_matrix(prefix, repeat)
            );
        }
        let full = align_free_end(window, window);
        assert_eq!((full.cost, full.cons_start, full.cons_end), (0, 0, 29));
        assert!(full.ops.iter().all(|&o| o == Op::Match));
    }

    #[test]
    fn free_start_skips_consensus_prefix() {
        // read matches the last 5 bases of the window.
        let r = align_free_start(&s("GTACG"), &s("TTTTTGTACG"));
        assert_eq!(r.cost, 0);
        assert_eq!(r.cons_start, 5);
        assert_eq!(r.cons_end, 10);
        assert!(r.ops.iter().all(|&o| o == Op::Match));
    }

    #[test]
    fn free_end_stops_early() {
        let r = align_free_end(&s("ACGTA"), &s("ACGTATTTTT"));
        assert_eq!(r.cost, 0);
        assert_eq!(r.cons_end, 5);
    }

    #[test]
    fn free_start_empty_read() {
        let r = align_free_start(&[], &s("ACGT"));
        assert_eq!(r.cost, 0);
        assert_eq!(r.cons_start, 4);
        assert!(r.ops.is_empty());
    }

    #[test]
    fn free_end_prefers_insertion_over_bad_matches() {
        // Nothing matches: read should be insertions with cons_end 0 or
        // a same-cost mix; cost equals read length in the worst case.
        let r = align_free_end(&s("AAAA"), &s("TTTT"));
        assert!(r.cost <= 4);
    }
}
