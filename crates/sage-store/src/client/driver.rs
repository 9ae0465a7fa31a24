//! The shared closed-loop load driver.
//!
//! One machinery for every serving measurement: `clients` logical
//! clients each keep exactly one operation in flight against a
//! dedicated reactor, submitting their next operation at the virtual
//! instant the previous one completed. All reported numbers come from
//! the **virtual** device timeline — requests per virtual second
//! against the makespan, latency percentiles, per-device utilization
//! — so a sweep measures queueing and striping, not the host's load.
//! The drive's reactor runs one worker, so the timeline is fully
//! deterministic (dispatch order = submission order) on any host,
//! which is what lets benches assert monotonicity without flaking.
//!
//! The `io_sweep` and `fig15_multissd` benches and the pipeline's
//! store-served preparation scenario all drive this one loop.

use super::stats::{DriveAccounting, LatencyByKind, LatencyStats};
use super::workload::{OpKind, OpKindStats};
use super::Dataset;
use crate::engine::{EngineBackend, StoreOp};
use crate::Result;
use sage_io::{IoConfig, Reactor, SchedPolicyKind};
use std::sync::Arc;

/// Sizing of one closed-loop drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedLoopSpec {
    /// Logical clients, each keeping one operation in flight (this is
    /// the offered queue depth).
    pub clients: usize,
    /// Total operations to drive through the loop.
    pub requests: u64,
}

impl Default for ClosedLoopSpec {
    fn default() -> ClosedLoopSpec {
        ClosedLoopSpec {
            clients: 16,
            requests: 256,
        }
    }
}

/// What a closed-loop drive measured (virtual-time metrics).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Operations completed.
    pub completed: u64,
    /// Virtual makespan: the latest completion instant.
    pub makespan: f64,
    /// Operations per virtual second.
    pub req_per_s: f64,
    /// Aggregated latency distribution — the same percentile
    /// machinery ([`LatencyStats`]) the open-loop
    /// [`QosReport`](super::workload::QosReport) uses, produced by
    /// folding the per-kind histograms with
    /// [`LogHistogram::merge`](crate::obs::LogHistogram::merge).
    pub latency: LatencyStats,
    /// Latency distribution per op kind, from the same recording
    /// pass.
    pub latency_by_kind: LatencyByKind,
    /// Every per-operation virtual latency, seconds, ascending.
    pub latencies: Vec<f64>,
    /// Busy (service) seconds accumulated per device.
    pub device_busy: Vec<f64>,
    /// Per-device utilization over the makespan.
    pub utilization: Vec<f64>,
    /// Reads returned across all get/scan results.
    pub reads_served: u64,
    /// Bases returned across all get/scan results.
    pub bases_served: u64,
    /// Ranged-read outcomes — the same per-kind accounting
    /// ([`OpKindStats`]) the open-loop report carries.
    pub gets: OpKindStats,
    /// Full-walk scan outcomes.
    pub scans: OpKindStats,
    /// Append outcomes.
    pub appends: OpKindStats,
}

impl LoadReport {
    /// Bases served per virtual second (the store's sustained
    /// preparation rate).
    pub fn bases_per_sec(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.bases_served as f64 / self.makespan
    }
}

fn kind_of(op: &StoreOp) -> OpKind {
    match op {
        StoreOp::Get(_) => OpKind::Get,
        StoreOp::Scan(_) => OpKind::Scan,
        StoreOp::Append(_) => OpKind::Append,
    }
}

/// The harnesses' shared deterministic random-range stream: SplitMix64
/// over `(client, seq)` producing a start in `[0, total)` and a span
/// in `[1, span_max]` (clamped to the dataset end; a `span_max` of 0
/// counts as 1, and an empty dataset yields `0..0`). Every closed-loop
/// consumer — `io_sweep`, `fig15_multissd`, the pipeline's
/// store-served scenario — draws from this one stream, so their
/// measurements stay comparable by construction.
pub fn range_for(client: u64, seq: u64, total: u64, span_max: u64) -> std::ops::Range<u64> {
    if total == 0 {
        return 0..0;
    }
    let mut z = (client << 32 | seq).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let start = z % total;
    let end = (start + 1 + z % span_max.max(1)).min(total);
    start..end
}

impl Dataset {
    /// Drives `spec.requests` operations through a dedicated reactor
    /// in a closed loop: `spec.clients` logical clients each submit
    /// their next operation — produced by `workload(client, seq)` —
    /// at the virtual instant their previous one completed.
    ///
    /// The drive runs on its own single-worker reactor (and thus its
    /// own virtual clock starting at 0), so measurements are
    /// independent of any session traffic on the dataset and of the
    /// host's thread timing; the engine, cache, and device state are
    /// shared.
    ///
    /// # Errors
    ///
    /// The first operation error, if any operation fails.
    pub fn drive_closed_loop(
        &self,
        spec: &ClosedLoopSpec,
        mut workload: impl FnMut(u64, u64) -> StoreOp,
    ) -> Result<LoadReport> {
        let engine = Arc::clone(self.engine());
        let devices = engine.n_devices().max(1);
        // On a tracing dataset each completed op also lands in the
        // dataset's span buffer (observation-only: the timeline and
        // report are bit-identical either way).
        let trace_buf = self.trace();
        let reactor = Reactor::start(
            Arc::new(EngineBackend::new(engine)),
            IoConfig {
                workers: 1,
                queue_depth: spec.clients.max(1),
                devices,
                record_intervals: trace_buf.is_some(),
                policy: SchedPolicyKind::Fifo,
            },
        );
        let cq = reactor.completions();

        let clients = spec.clients.max(1) as u64;
        let mut next_seq = vec![1u64; clients as usize];
        // Each client's in-flight op kind, indexed by `user_data`, so
        // harvested completions attribute to the right OpKindStats.
        let mut in_flight_kind = vec![OpKind::Get; clients as usize];
        // Seed every client's first operation through one batched
        // ring-lock acquisition instead of one lock round per client.
        let seeds: Vec<_> = (0..clients.min(spec.requests))
            .map(|c| {
                let op = workload(c, 0);
                in_flight_kind[c as usize] = kind_of(&op);
                (op, c, 0.0)
            })
            .collect();
        let mut issued = seeds.len() as u64;
        reactor.submit_batch(seeds).expect("live reactor");
        let mut acc = DriveAccounting::new();
        while acc.completed() < spec.requests {
            let Some(cqe) = cq.wait_any() else {
                break;
            };
            let (c, completed_vt) = (cqe.user_data, cqe.completed_vt);
            // Spans are numbered in completion order.
            let token = acc.completed();
            acc.record(
                cqe,
                in_flight_kind[c as usize],
                0,
                token,
                trace_buf.as_deref(),
            )?;
            if issued < spec.requests {
                let i = next_seq[c as usize];
                next_seq[c as usize] += 1;
                let op = workload(c, i);
                in_flight_kind[c as usize] = kind_of(&op);
                // Closed loop: the client's next operation departs at
                // the virtual instant its previous one completed.
                reactor.submit(op, c, completed_vt).expect("live reactor");
                issued += 1;
            }
        }
        let snap = reactor.snapshot();
        reactor.shutdown();
        let fold = acc.fold();
        let [gets, scans, appends] = fold.kinds;
        Ok(LoadReport {
            completed: fold.completed,
            makespan: fold.makespan,
            req_per_s: fold.rate,
            latency: fold.latency,
            latency_by_kind: fold.latency_by_kind,
            utilization: snap.utilization_over(fold.makespan),
            device_busy: snap.device_busy,
            latencies: fold.latencies,
            reads_served: fold.reads_served.iter().sum(),
            bases_served: fold.bases_served.iter().sum(),
            gets,
            scans,
            appends,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DatasetBuilder;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};
    use sage_ssd::SsdConfig;

    fn fleet_dataset(devices: usize) -> crate::client::Dataset {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 33).reads;
        DatasetBuilder::new()
            .chunk_reads(16)
            .cache_chunks(0) // every op pays its device
            .ssd_fleet((0..devices).map(|_| SsdConfig::pcie()).collect())
            .encode(&reads)
            .expect("build")
    }

    #[test]
    fn range_for_tolerates_zero_sizes() {
        // An empty dataset has no range to draw; a zero span draws
        // one-read ranges, as `Pattern`'s spans do.
        assert_eq!(range_for(0, 0, 0, 8), 0..0);
        for seq in 0..64 {
            let r = range_for(3, seq, 100, 0);
            assert_eq!(r, range_for(3, seq, 100, 1));
            assert_eq!(r.end - r.start, 1);
            assert!(r.end <= 100);
        }
    }

    #[test]
    fn closed_loop_measures_the_virtual_timeline() {
        let dataset = fleet_dataset(2);
        let total = dataset.total_reads();
        let report = dataset
            .drive_closed_loop(
                &ClosedLoopSpec {
                    clients: 4,
                    requests: 64,
                },
                |c, i| StoreOp::Get(range_for(c, i, total, 16)),
            )
            .expect("drive");
        assert_eq!(report.completed, 64);
        assert_eq!(report.latencies.len(), 64);
        assert!(report.makespan > 0.0);
        assert!(report.req_per_s > 0.0);
        assert!(report.latency.p99_ms >= report.latency.p50_ms);
        assert!(report.latency.mean_ms > 0.0);
        assert_eq!(report.latency.count, 64);
        assert!(report.reads_served >= 64);
        assert!(report.bases_served > 0);
        assert!(report.bases_per_sec() > 0.0);
        assert_eq!(report.utilization.len(), 2);
        assert!(report.device_busy.iter().any(|b| *b > 0.0));
        assert_eq!(report.gets.ops, 64);
        assert_eq!(report.scans.ops, 0);
        assert_eq!(report.appends.ops, 0);
        // Per-kind latency view: all-gets drive means the gets
        // histogram IS the run total.
        assert_eq!(report.latency_by_kind.gets.count, 64);
        assert_eq!(report.latency_by_kind.scans.count, 0);
        assert_eq!(report.latency_by_kind.gets, report.latency);
        assert!(report.gets.chunk_hits + report.gets.chunk_misses > 0);
    }

    #[test]
    fn deeper_loops_trade_latency_for_throughput() {
        // The io_sweep claim in miniature: on one device, a deeper
        // closed loop cannot lower p99 latency.
        let mean_at = |clients: usize| {
            let dataset = fleet_dataset(1);
            let total = dataset.total_reads();
            dataset
                .drive_closed_loop(
                    &ClosedLoopSpec {
                        clients,
                        requests: 48,
                    },
                    |c, i| StoreOp::Get(range_for(c, i, total, 8)),
                )
                .expect("drive")
                .latency
                .mean_ms
        };
        let shallow = mean_at(1);
        let deep = mean_at(8);
        assert!(
            deep > shallow * 2.0,
            "depth-8 mean latency {deep} should far exceed depth-1 {shallow}"
        );
    }

    #[test]
    fn striping_scales_closed_loop_throughput() {
        let run = |devices: usize| {
            let dataset = fleet_dataset(devices);
            let total = dataset.total_reads();
            dataset
                .drive_closed_loop(
                    &ClosedLoopSpec {
                        clients: 8,
                        requests: 96,
                    },
                    |c, i| StoreOp::Get(range_for(c, i, total, 16)),
                )
                .expect("drive")
                .req_per_s
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four > one * 1.5,
            "striping 1→4 devices must scale req/s: {one} → {four}"
        );
    }

    #[test]
    fn failing_ops_surface_their_error() {
        let dataset = fleet_dataset(1);
        let total = dataset.total_reads();
        let err = dataset
            .drive_closed_loop(
                &ClosedLoopSpec {
                    clients: 2,
                    requests: 8,
                },
                |_, _| StoreOp::Get(0..total * 100),
            )
            .unwrap_err();
        assert!(matches!(err, crate::StoreError::RangeOutOfBounds { .. }));
    }
}
