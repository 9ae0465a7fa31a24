//! Pipelined-batch timing algebra.
//!
//! I/O, decompression, and analysis operate on batches in a pipelined
//! manner (§3.1, §7): when batch *i* is being decompressed, the mapper
//! analyzes batch *i−1*. Steady-state throughput equals the slowest
//! stage's; the other stages only contribute a one-batch fill/drain
//! latency.

/// One pipeline stage with a processing rate in units/second
/// (`f64::INFINITY` = instantaneous, e.g. an idealized decompressor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// Stage label (for reports).
    pub name: &'static str,
    /// Processing rate in units/second.
    pub rate: f64,
}

impl Stage {
    /// Creates a stage.
    pub fn new(name: &'static str, rate: f64) -> Stage {
        assert!(rate > 0.0, "stage rate must be positive");
        Stage { name, rate }
    }
}

/// The slowest stage (bottleneck) of a pipeline.
pub fn bottleneck(stages: &[Stage]) -> Stage {
    *stages
        .iter()
        .min_by(|a, b| a.rate.partial_cmp(&b.rate).expect("rates are not NaN"))
        .expect("at least one stage")
}

/// End-to-end time of `total_units` flowing through `stages` in
/// `n_batches` pipelined batches: steady-state time at the bottleneck
/// plus one batch of fill through every other stage.
pub fn pipeline_seconds(total_units: f64, stages: &[Stage], n_batches: usize) -> f64 {
    assert!(n_batches > 0, "need at least one batch");
    assert!(!stages.is_empty(), "need at least one stage");
    let slowest = bottleneck(stages).rate;
    if !slowest.is_finite() {
        return 0.0;
    }
    let steady = total_units / slowest;
    let batch = total_units / n_batches as f64;
    let fill: f64 = stages
        .iter()
        .map(|s| {
            if s.rate.is_finite() {
                batch / s.rate
            } else {
                0.0
            }
        })
        .sum::<f64>()
        - batch / slowest;
    steady + fill
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottleneck_is_min_rate() {
        let stages = [
            Stage::new("io", 100.0),
            Stage::new("prep", 10.0),
            Stage::new("map", 50.0),
        ];
        assert_eq!(bottleneck(&stages).name, "prep");
    }

    #[test]
    fn single_stage_time_is_total_over_rate() {
        let t = pipeline_seconds(1000.0, &[Stage::new("x", 10.0)], 10);
        assert!((t - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fill_latency_shrinks_with_more_batches() {
        let stages = [Stage::new("a", 10.0), Stage::new("b", 100.0)];
        let coarse = pipeline_seconds(1000.0, &stages, 2);
        let fine = pipeline_seconds(1000.0, &stages, 100);
        assert!(fine < coarse);
        // Both approach total/bottleneck = 100 s from above.
        assert!(fine >= 100.0);
    }

    #[test]
    fn infinite_stages_cost_nothing() {
        let stages = [
            Stage {
                name: "ideal",
                rate: f64::INFINITY,
            },
            Stage::new("map", 10.0),
        ];
        let t = pipeline_seconds(100.0, &stages, 10);
        assert!((t - 10.0).abs() < 1e-9);
    }

    #[test]
    fn faster_prep_never_slows_pipeline() {
        let slow = [Stage::new("prep", 5.0), Stage::new("map", 20.0)];
        let fast = [Stage::new("prep", 15.0), Stage::new("map", 20.0)];
        assert!(pipeline_seconds(1000.0, &fast, 50) < pipeline_seconds(1000.0, &slow, 50));
    }
}
