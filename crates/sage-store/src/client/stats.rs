//! Shared drive accounting: one recorder, one fold and one
//! histogram/percentile machinery for every load driver.
//!
//! Every drive — closed loop, open loop, each tenant of a multi-tenant
//! drive — reports through one [`QosReport`](super::workload::QosReport),
//! whose per-operation virtual latencies aggregate into a
//! [`LatencyStats`], a thin view over the observability layer's
//! log-bucketed [`LogHistogram`](crate::obs::LogHistogram): mean and
//! max are exact, percentiles are answered from the
//! histogram's buckets (≈0.78% relative quantization, monotone), and
//! every bench bin prints and asserts on this one implementation.
//! `DriveAccounting` is the recorder both drivers feed their
//! completions to.

use super::workload::OpKind;
use super::EngineCqe;
use crate::engine::OpValue;
use crate::obs::{LogHistogram, OpSpan, TraceBuffer};
use crate::Result;

/// Aggregated latency distribution of one drive (all milliseconds).
///
/// Built once from a drive's latency [`LogHistogram`]; every
/// percentile any bench prints comes out of this one extraction.
/// `mean_ms` and `max_ms` are exact; the percentile fields carry the
/// histogram's ≈0.78% bucket quantization.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Mean virtual latency, milliseconds.
    pub mean_ms: f64,
    /// Median virtual latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile virtual latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile virtual latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile virtual latency, milliseconds.
    pub p999_ms: f64,
    /// Worst observed virtual latency, milliseconds.
    pub max_ms: f64,
}

impl LatencyStats {
    /// The millisecond view over a latency histogram in seconds —
    /// the shared implementation every drive report resolves through.
    fn from_histogram(hist: &LogHistogram) -> LatencyStats {
        if hist.count() == 0 {
            return LatencyStats::default();
        }
        LatencyStats {
            mean_ms: hist.mean() * 1e3,
            p50_ms: hist.quantile(0.50) * 1e3,
            p95_ms: hist.quantile(0.95) * 1e3,
            p99_ms: hist.quantile(0.99) * 1e3,
            p999_ms: hist.quantile(0.999) * 1e3,
            max_ms: hist.max() * 1e3,
        }
    }

    /// Renders the stats as a JSON object fragment — the bench bins'
    /// shared serialization, so `BENCH_io.json`, `BENCH_qos.json`,
    /// `BENCH_tenant.json`, `BENCH_trace.json` and `BENCH_blame.json`
    /// all spell latency identically.
    pub fn json(&self) -> String {
        format!(
            "{{\"p50_ms\":{:.4},\"p95_ms\":{:.4},\"p99_ms\":{:.4},\"p999_ms\":{:.4},\"mean_ms\":{:.4},\"max_ms\":{:.4}}}",
            self.p50_ms, self.p95_ms, self.p99_ms, self.p999_ms, self.mean_ms, self.max_ms
        )
    }
}

/// What one drive (or one tenant of it) completed, recorded one
/// completion at a time and folded into report fields at the end —
/// the single accounting block behind every
/// [`QosReport`](super::workload::QosReport).
pub(super) struct DriveAccounting {
    latencies: Vec<f64>,
    /// Every latency, recorded in the order the driver hands
    /// completions over.
    hist: LogHistogram,
    reads_served: u64,
    bases_served: u64,
    makespan: f64,
}

/// [`DriveAccounting`] folded: the fields a drive report takes from
/// its completions.
pub(super) struct DriveFold {
    pub completed: u64,
    /// The latest completion instant.
    pub makespan: f64,
    /// Completions per virtual second of makespan.
    pub rate: f64,
    pub latency: LatencyStats,
    /// Every latency, seconds, ascending.
    pub latencies: Vec<f64>,
    /// Reads and bases returned by every op kind.
    pub reads_served: u64,
    pub bases_served: u64,
}

impl DriveAccounting {
    pub fn new() -> DriveAccounting {
        DriveAccounting {
            latencies: Vec::new(),
            hist: LogHistogram::new(),
            reads_served: 0,
            bases_served: 0,
            makespan: 0.0,
        }
    }

    /// Completions recorded so far.
    pub fn completed(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// Records one completion of a `kind` operation. On a tracing
    /// dataset (`trace_buf`) the operation also lands in the span
    /// buffer as `token` of `tenant` — observation only: the report is
    /// bit-identical either way.
    ///
    /// # Errors
    ///
    /// The operation's own error; nothing is recorded for it.
    pub fn record(
        &mut self,
        cqe: EngineCqe,
        kind: OpKind,
        tenant: usize,
        token: u64,
        trace_buf: Option<&TraceBuffer>,
    ) -> Result<()> {
        if let (Some(buf), Ok((_, trace))) = (trace_buf, &cqe.output) {
            buf.record(OpSpan::of_drive(&cqe, trace, token, kind.label(), tenant));
        }
        let (latency, completed_vt) = (cqe.latency(), cqe.completed_vt);
        let (value, _) = cqe.output?;
        self.hist.record(latency);
        if let OpValue::Reads(rs) = &value {
            self.reads_served += rs.len() as u64;
            self.bases_served += rs.total_bases() as u64;
        }
        self.latencies.push(latency);
        self.makespan = self.makespan.max(completed_vt);
        Ok(())
    }

    /// Folds the recording into report fields.
    pub fn fold(mut self) -> DriveFold {
        self.latencies
            .sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        let completed = self.completed();
        DriveFold {
            completed,
            makespan: self.makespan,
            rate: if self.makespan > 0.0 {
                completed as f64 / self.makespan
            } else {
                0.0
            },
            latency: LatencyStats::from_histogram(&self.hist),
            latencies: self.latencies,
            reads_served: self.reads_served,
            bases_served: self.bases_served,
        }
    }
}

/// Per-device utilization of `busy` seconds over a drive's own
/// makespan `window`; all zeros for a non-positive window.
pub(super) fn utilization_over(busy: &[f64], window: f64) -> Vec<f64> {
    if window <= 0.0 {
        return vec![0.0; busy.len()];
    }
    busy.iter().map(|b| b / window).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A histogram of `secs`, recorded in order.
    fn hist_of(secs: impl IntoIterator<Item = f64>) -> LogHistogram {
        let mut hist = LogHistogram::new();
        for v in secs {
            hist.record(v);
        }
        hist
    }

    #[test]
    fn stats_aggregate_in_milliseconds() {
        let s = LatencyStats::from_histogram(&hist_of((1..=1000).map(|i| i as f64 * 1e-3)));
        // Mean and max are exact; percentiles carry the histogram's
        // ≈0.78% bucket quantization.
        assert!((s.mean_ms - 500.5).abs() < 1e-9);
        assert!((s.p50_ms - 500.5).abs() < 500.5 * 0.01);
        assert!((s.p99_ms - 990.0).abs() < 990.0 * 0.01);
        assert!((s.p999_ms - 999.0).abs() < 999.0 * 0.01);
        assert_eq!(s.max_ms, 1000.0);
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms && s.p99_ms <= s.p999_ms);
    }

    #[test]
    fn empty_input_is_all_zero() {
        assert_eq!(
            LatencyStats::from_histogram(&LogHistogram::new()),
            LatencyStats::default()
        );
    }

    #[test]
    fn json_fragment_parses_shape() {
        let s = LatencyStats::from_histogram(&hist_of([1e-3, 2e-3]));
        let j = s.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in ["p50_ms", "p95_ms", "p99_ms", "p999_ms", "mean_ms", "max_ms"] {
            assert!(j.contains(key), "{j} missing {key}");
        }
    }
}
