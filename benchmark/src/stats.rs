//! Order statistics over the benchmark's samples.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice:
/// the smallest sample with at least `p` % of the samples at or below
/// it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // Multiply before dividing: 90 × 10 / 100 is exactly 9, 0.9 × 10 is not.
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns their nearest-rank median.
pub fn p50(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, 50.0)
}

/// Median of per-round values (the mean of the two middle values when
/// their count is even), with the smallest and largest beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no rounds");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    let median = if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    };
    Summary {
        median,
        min: v[0],
        max: v[v.len() - 1],
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The highest of a few standard percentiles that still has at least
/// ten samples beyond it, so the reported tail is never one outlier.
/// `None` below twenty samples, where only the median is supported.
pub fn tail_percentile(n_samples: usize) -> Option<f64> {
    // Per-mille integers: `100.0 * (1.0 - 0.9)` is not 10.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|permille| n_samples * (1000 - permille) / 1000 >= 10)
        .map(|permille| permille as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let mut unsorted = [9.0, 1.0, 5.0];
        assert_eq!(p50(&mut unsorted), 5.0);
    }

    #[test]
    fn median_of_rounds_on_known_vectors() {
        let odd = summarize(&[3.0, 9.0, 1.0, 7.0, 5.0, 11.0, 13.0]);
        assert_eq!((odd.median, odd.min, odd.max), (7.0, 1.0, 13.0));
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median, 2.5);
        assert_eq!(median(&[42.0]), 42.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
