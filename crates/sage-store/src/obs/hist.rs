//! The log-bucketed latency histogram shared by every drive report.

/// Sub-bucket resolution: 2^6 = 64 linear sub-buckets per octave,
/// bounding the relative quantization error of any representative
/// value to `1/(2·64)` ≈ 0.78%.
const SUB_BITS: u32 = 6;
const SUBS: usize = 1 << SUB_BITS;
/// Smallest tracked octave: `2^-40` s ≈ 0.9 ps — far below any
/// virtual latency the device models produce.
const MIN_EXP: i32 = -40;
/// Largest tracked octave: values up to `2^21` s ≈ 24 virtual days.
const MAX_EXP: i32 = 20;
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;

/// A log-bucketed histogram of non-negative samples (seconds).
///
/// Buckets are base-2 octaves split into 64 linear
/// sub-buckets, so any quantile is answered within ≈0.78% relative
/// error at O(1) memory regardless of sample count. `count`, `sum`,
/// `min`, and `max` are tracked **exactly** (the mean never
/// quantizes, and quantiles clamp into `[min, max]`). Quantization is
/// monotone: if `a ≤ b` then every quantile of a stream recording `a`
/// sorts no higher than one recording `b`.
///
/// This is the one latency distribution behind
/// [`LatencyStats`](crate::client::LatencyStats): every drive
/// records its latencies into one.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: Box<[u64]>,
    /// Samples in `[0, 2^MIN_EXP)` — effectively the zero bucket.
    underflow: u64,
    /// Samples at or above `2^(MAX_EXP+1)`.
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0u64; OCTAVES * SUBS].into_boxed_slice(),
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Bucket index of a positive finite sample, or `None` when it
    /// falls outside the tracked octave range.
    fn bucket_of(v: f64) -> Option<usize> {
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if !(MIN_EXP..=MAX_EXP).contains(&exp) {
            return None;
        }
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        Some((exp - MIN_EXP) as usize * SUBS + sub)
    }

    /// The midpoint value bucket `i` stands for.
    fn representative(i: usize) -> f64 {
        let exp = MIN_EXP + (i / SUBS) as i32;
        let sub = (i % SUBS) as f64;
        2f64.powi(exp) * (1.0 + (sub + 0.5) / SUBS as f64)
    }

    /// Records one sample. Non-finite samples are dropped; negative
    /// ones land in the underflow (zero) bucket.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        match Self::bucket_of(v) {
            Some(i) if v > 0.0 => self.counts[i] += 1,
            _ if v > 0.0 && v >= 2f64.powi(MAX_EXP + 1) => self.overflow += 1,
            _ => self.underflow += 1,
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Exact smallest sample (0 when empty).
    fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Nearest-rank quantile `p ∈ [0, 1]`, answered from the bucket
    /// representatives (≈0.78% relative error), clamped into the
    /// exact `[min, max]` envelope. 0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        let mut cum = self.underflow;
        if rank < cum {
            return self.min();
        }
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if rank < cum {
                return Self::representative(i).clamp(self.min(), self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    }

    #[test]
    fn histogram_tracks_exact_moments_and_tight_quantiles() {
        let mut h = LogHistogram::new();
        let vals: Vec<f64> = (1..=5000).map(|i| i as f64 * 1e-4).collect();
        for &v in &vals {
            h.record(v);
        }
        assert_eq!(h.count(), 5000);
        let exact_sum: f64 = vals.iter().sum();
        assert_eq!(h.sum, exact_sum); // same addition order: bitwise
        assert_eq!(h.max(), 0.5);
        assert_eq!(h.min(), 1e-4);
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let q = h.quantile(p);
            let e = exact_percentile(&vals, p);
            assert!(
                (q - e).abs() <= e * 0.01 + 1e-12,
                "p{p}: histogram {q} vs exact {e}"
            );
        }
        // Quantiles are monotone in p.
        let qs: Vec<f64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn histogram_handles_edges() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        h.record(0.0);
        h.record(f64::NAN); // dropped
        h.record(1e-300); // underflow octave
        h.record(1e12); // overflow octave
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 1e12);
        assert_eq!(h.quantile(1.0), 1e12);
        assert_eq!(h.quantile(0.0), 0.0);
    }

    #[test]
    fn quantization_is_monotone_across_histograms() {
        // a ≤ b pointwise ⇒ every quantile of a ≤ same quantile of b.
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 1..=500 {
            a.record(i as f64 * 1e-3);
            b.record(i as f64 * 1.37e-3);
        }
        for p in [0.5, 0.9, 0.99, 1.0] {
            assert!(a.quantile(p) <= b.quantile(p));
        }
    }
}
