//! Per-dataset parameter tuning (the paper's Algorithm 1).
//!
//! SAGe adapts the bit widths of every array to each read set: during
//! compression it forms a histogram of the bit counts needed for the
//! values in a stream, then exhaustively searches for the bit-width
//! boundaries `W = (x₁ < … < x_d)` that minimize the total encoded size
//! (values + guide codes), growing `d` from 1 to 8 and stopping early
//! when the improvement falls below a convergence threshold ε.
//!
//! The same machinery tunes the *value classes* used for mismatch
//! counts (Property 2: most short reads have 0 mismatches), where the
//! most frequent literal values get dedicated short codes and the rest
//! take an escape.

use crate::prefix::{AssociationTable, WidthTable};

/// Convergence threshold the paper uses for Algorithm 1.
pub const DEFAULT_EPSILON: f64 = 0.01;

/// Maximum number of distinct bit-width classes (`d ≤ 8`).
pub const MAX_CLASSES: usize = 8;

/// Result of a tuning run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TunedWidths {
    /// Chosen bit-width boundaries, ascending. Every value whose bit
    /// count falls in `(widths[i-1], widths[i]]` is stored with
    /// `widths[i]` bits.
    pub widths: Vec<u32>,
    /// Total encoded size in bits (values + guide codes) under this
    /// choice.
    pub total_bits: u64,
}

impl TunedWidths {
    /// Builds the frequency-ordered width table for these boundaries
    /// given the original bit-count histogram.
    pub fn to_width_table(&self, hist: &[u64]) -> Option<WidthTable> {
        let freqs: Vec<(u32, u64)> = self
            .widths
            .iter()
            .map(|&w| (w, bucket_count(hist, &self.widths, w)))
            .collect();
        WidthTable::from_widths(freqs)
    }
}

/// Number of histogram samples that land in the class with upper
/// boundary `w`.
fn bucket_count(hist: &[u64], widths: &[u32], w: u32) -> u64 {
    let idx = widths.iter().position(|&x| x == w).expect("width in set");
    let lo = if idx == 0 { 0 } else { widths[idx - 1] + 1 };
    hist.iter()
        .enumerate()
        .skip(lo as usize)
        .take_while(|(b, _)| *b as u32 <= w)
        .map(|(_, &c)| c)
        .sum()
}

/// Algorithm 1: tunes bit-width boundaries for a bit-count histogram.
///
/// `hist[b]` is the number of values needing exactly `b` bits
/// (`hist.len() ≤ 33`, i.e. bit counts 0–32 as in the paper's
/// `|H| ≤ 32` bound). Returns boundaries that minimize
/// `Σ count(bucket) × (bucket_width + guide_code_len)` where guide code
/// lengths are unary codes assigned by descending bucket frequency.
///
/// # Example
///
/// ```
/// use sage_core::tuning::tune_bit_widths;
///
/// // 1000 tiny deltas (≤2 bits), a handful of large ones (8 bits).
/// let mut hist = vec![0u64; 9];
/// hist[1] = 600;
/// hist[2] = 400;
/// hist[8] = 5;
/// let tuned = tune_bit_widths(&hist, 0.0);
/// assert_eq!(*tuned.widths.last().unwrap(), 8);
/// assert!(tuned.widths.len() >= 2); // splitting beats one fat class
/// ```
///
/// # Panics
///
/// Panics if `hist` is longer than 33 buckets.
pub fn tune_bit_widths(hist: &[u64], epsilon: f64) -> TunedWidths {
    assert!(hist.len() <= 33, "bit-count histogram bounded by 32 bits");
    // Candidate boundaries: the distinct bit counts present.
    let candidates: Vec<u32> = hist
        .iter()
        .enumerate()
        .filter_map(|(b, &c)| (c > 0).then_some(b as u32))
        .collect();
    let Some(&max_bits) = candidates.last() else {
        // Empty histogram: a single zero-width class.
        return TunedWidths {
            widths: vec![0],
            total_bits: 0,
        };
    };

    // Prefix sums over the histogram for O(1) bucket counts.
    let mut prefix = vec![0u64; hist.len() + 1];
    for (i, &c) in hist.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
    }
    let range_count =
        |lo: u32, hi: u32| prefix[(hi as usize + 1).min(hist.len())] - prefix[lo as usize];

    // Evaluates a boundary set (ascending, last == max_bits).
    let eval = |widths: &[u32]| -> u64 {
        let mut buckets: Vec<(u64, u32)> = Vec::with_capacity(widths.len());
        let mut lo = 0u32;
        for &w in widths {
            buckets.push((range_count(lo, w), w));
            lo = w + 1;
        }
        // Unary guide codes by descending frequency: rank r costs r+1 bits.
        buckets.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
        buckets
            .iter()
            .enumerate()
            .map(|(rank, &(count, w))| count * (u64::from(w) + rank as u64 + 1))
            .sum()
    };

    // The intermediate boundaries are chosen among candidates < max_bits.
    let inner: Vec<u32> = candidates[..candidates.len() - 1].to_vec();
    let mut best = TunedWidths {
        widths: vec![max_bits],
        total_bits: eval(&[max_bits]),
    };
    let mut last_round = best.total_bits;
    for d in 2..=MAX_CLASSES.min(inner.len() + 1) {
        let mut round_best: Option<TunedWidths> = None;
        let k = d - 1; // number of inner boundaries
        let mut combo: Vec<usize> = (0..k).collect();
        loop {
            let mut widths: Vec<u32> = combo.iter().map(|&i| inner[i]).collect();
            widths.push(max_bits);
            let cost = eval(&widths);
            if round_best.as_ref().is_none_or(|b| cost < b.total_bits) {
                round_best = Some(TunedWidths {
                    widths,
                    total_bits: cost,
                });
            }
            // Next combination of `k` indices out of `inner.len()`.
            let mut i = k;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                if combo[i] != i + inner.len() - k {
                    combo[i] += 1;
                    for j in i + 1..k {
                        combo[j] = combo[j - 1] + 1;
                    }
                    break;
                }
                if i == 0 {
                    combo.clear();
                    break;
                }
            }
            if combo.is_empty() {
                break;
            }
        }
        let round_best = round_best.expect("at least one combination");
        if round_best.total_bits < best.total_bits {
            best = round_best;
        }
        // Convergence test from Algorithm 1 (line 10).
        let improvement =
            (last_round.saturating_sub(best.total_bits)) as f64 / best.total_bits.max(1) as f64;
        if improvement < epsilon {
            break;
        }
        last_round = best.total_bits;
    }
    best
}

/// Tuned literal-value classes (for mismatch counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TunedValues {
    /// Values with dedicated codes, ordered by descending frequency
    /// (code order). Everything else takes the escape + 16-bit raw.
    pub values: Vec<u32>,
    /// Total encoded size in bits.
    pub total_bits: u64,
}

/// Number of raw bits after a value-class escape code.
pub const VALUE_ESCAPE_BITS: u32 = 16;

impl TunedValues {
    /// Builds the association table (payload = literal value).
    pub fn to_table(&self) -> Option<AssociationTable<u32>> {
        AssociationTable::new(self.values.clone())
    }
}

/// Tunes literal-value classes over `hist[v] = frequency of value v`.
///
/// Picks the `k` most frequent values for dedicated unary codes, with
/// `k ∈ 1..=8` chosen to minimize total size; rarer values pay the
/// escape (`k+1` code bits + 16 raw bits).
pub fn tune_value_classes(hist: &[u64]) -> TunedValues {
    let mut by_freq: Vec<(u32, u64)> = hist
        .iter()
        .enumerate()
        .filter_map(|(v, &c)| (c > 0).then_some((v as u32, c)))
        .collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    if by_freq.is_empty() {
        return TunedValues {
            values: vec![0],
            total_bits: 0,
        };
    }
    let total: u64 = by_freq.iter().map(|&(_, c)| c).sum();
    let mut best: Option<TunedValues> = None;
    for k in 1..=MAX_CLASSES.min(by_freq.len()) {
        let mut cost = 0u64;
        let mut covered = 0u64;
        for (rank, &(_, c)) in by_freq.iter().take(k).enumerate() {
            cost += c * (rank as u64 + 1);
            covered += c;
        }
        cost += (total - covered) * (k as u64 + 1 + u64::from(VALUE_ESCAPE_BITS));
        if best.as_ref().is_none_or(|b| cost < b.total_bits) {
            best = Some(TunedValues {
                values: by_freq.iter().take(k).map(|&(v, _)| v).collect(),
                total_bits: cost,
            });
        }
    }
    best.expect("non-empty histogram")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_yields_zero_width() {
        let t = tune_bit_widths(&[], 0.01);
        assert_eq!(t.widths, vec![0]);
        assert_eq!(t.total_bits, 0);
    }

    #[test]
    fn single_bucket_uses_its_width() {
        let mut hist = vec![0u64; 6];
        hist[5] = 100;
        let t = tune_bit_widths(&hist, 0.0);
        assert_eq!(t.widths, vec![5]);
        // 100 values × (5 value bits + 1 guide bit).
        assert_eq!(t.total_bits, 600);
    }

    #[test]
    fn skewed_histogram_splits_classes() {
        // Mostly 1-bit deltas plus rare 12-bit jumps: one class would
        // cost 13 bits per tiny delta; splitting is far better.
        let mut hist = vec![0u64; 13];
        hist[1] = 10_000;
        hist[12] = 10;
        let t = tune_bit_widths(&hist, 0.0);
        assert_eq!(t.widths, vec![1, 12]);
        // 10_000×(1+1) + 10×(12+2)
        assert_eq!(t.total_bits, 20_000 + 140);
    }

    #[test]
    fn exhaustive_matches_brute_force_on_small_input() {
        // Brute-force all subsets for a 4-bucket histogram and compare.
        let hist = vec![50u64, 200, 30, 5, 90];
        let tuned = tune_bit_widths(&hist, 0.0);
        let candidates = [0u32, 1, 2, 3, 4];
        let mut best = u64::MAX;
        for mask in 1u32..32 {
            let widths: Vec<u32> = candidates
                .iter()
                .copied()
                .filter(|&c| mask & (1 << c) != 0)
                .collect();
            if *widths.last().unwrap() != 4 {
                continue; // must cover the max
            }
            // Replicate the cost model.
            let mut buckets = Vec::new();
            let mut lo = 0u32;
            for &w in &widths {
                let count: u64 = (lo..=w).map(|b| hist[b as usize]).sum();
                buckets.push((count, w));
                lo = w + 1;
            }
            buckets.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
            let cost: u64 = buckets
                .iter()
                .enumerate()
                .map(|(r, &(c, w))| c * (u64::from(w) + r as u64 + 1))
                .sum();
            best = best.min(cost);
        }
        assert_eq!(tuned.total_bits, best);
    }

    #[test]
    fn epsilon_zero_never_worse_than_single_class() {
        let hist = vec![10u64, 500, 100, 3, 0, 0, 44, 2];
        let tuned = tune_bit_widths(&hist, 0.0);
        let total: u64 = hist.iter().sum();
        let single = total * (7 + 1);
        assert!(tuned.total_bits <= single);
    }

    #[test]
    fn width_table_round_trip_from_tuning() {
        let mut hist = vec![0u64; 10];
        hist[2] = 100;
        hist[9] = 4;
        let tuned = tune_bit_widths(&hist, 0.0);
        let table = tuned.to_width_table(&hist).unwrap();
        // Most frequent class (width 2) must get the shortest code.
        assert_eq!(table.entries()[0], 2);
    }

    #[test]
    fn value_classes_prefer_common_values() {
        // Mismatch counts: overwhelmingly 0 (Property 2).
        let mut hist = vec![0u64; 20];
        hist[0] = 9_000;
        hist[1] = 800;
        hist[2] = 150;
        hist[7] = 3;
        let t = tune_value_classes(&hist);
        assert_eq!(t.values[0], 0);
        assert!(t.values.contains(&1));
        let table = t.to_table().unwrap();
        assert_eq!(table.entries()[0], 0);
    }

    #[test]
    fn value_classes_cost_accounts_for_escape() {
        let mut hist = vec![0u64; 4];
        hist[0] = 10;
        hist[3] = 10;
        let t = tune_value_classes(&hist);
        // Either both get classes (10×1 + 10×2) or one escapes; the
        // tuner must pick the cheaper (both classes = 30 bits).
        assert_eq!(t.total_bits, 30);
        assert_eq!(t.values.len(), 2);
    }

    #[test]
    fn converges_with_large_epsilon() {
        // With a huge epsilon, the search stops after d=2 at the latest;
        // the result must still cover the max bit count.
        let hist = vec![10u64, 10, 10, 10, 10, 10, 10, 10, 10];
        let t = tune_bit_widths(&hist, 10.0);
        assert_eq!(*t.widths.last().unwrap(), 8);
        assert!(t.widths.len() <= 2);
    }
}
