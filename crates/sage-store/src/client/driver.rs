//! The shared closed-loop load driver, and the one step every
//! virtual-time drive takes.
//!
//! `clients` logical clients each keep exactly one operation in
//! flight, submitting their next operation at the virtual instant the
//! previous one completed. All reported numbers come from the
//! **virtual** device timeline — requests per virtual second against
//! the makespan, latency percentiles, per-device utilization — so a
//! sweep measures queueing and striping, not the host's load. The
//! drive reports through the open loop's
//! [`QosReport`](super::workload::QosReport).
//!
//! The drive starts no thread: [`VirtualDrive`] runs each op on the
//! caller's thread and places it on the drive's own
//! [`VirtualScheduler`], one op at a time in issue order. The timeline
//! is therefore a pure function of (dataset, spec, workload) on any
//! host, which is what lets benches assert monotonicity without
//! flaking. Only the engine's decode pool runs in parallel, and it
//! never changes what the cache holds.
//!
//! The `io_sweep` and `fig15_multissd` benches and the pipeline's
//! store-served preparation scenario all drive this one loop; the
//! open-loop [`Dataset::drive_tenants`] takes the same step.

use super::stats::DriveAccounting;
use super::tenant::qos_report;
use super::workload::{OpKind, QosReport};
use super::{Dataset, EngineCqe, OpOutput};
use crate::engine::{StoreEngine, StoreOp};
use crate::Result;
use sage_io::{Cqe, SchedPolicyKind, SchedTag, VirtualScheduler};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One virtual-time drive's engine and device timeline, run on the
/// caller's thread.
///
/// [`VirtualDrive::submit`] runs an op with [`StoreEngine::run_op`]
/// and places its charges: under [`SchedPolicyKind::Fifo`] with
/// [`VirtualScheduler::dispatch`], which completes it at once; under a
/// queued policy with [`VirtualScheduler::enqueue`], holding its
/// output until [`VirtualDrive::advance_to`] resolves it. The two
/// scheduler paths stay separate because they add a tenant's queue
/// delay in different orders.
pub(crate) struct VirtualDrive {
    engine: Arc<StoreEngine>,
    sched: VirtualScheduler,
    fifo: bool,
    record_intervals: bool,
    /// Outputs of executed ops whose charges are still pending, by
    /// enqueue handle.
    held: HashMap<u64, OpOutput>,
}

impl VirtualDrive {
    /// A drive over `engine` whose clock starts at 0, ordering pending
    /// charges by `policy`; `record_intervals` keeps each op's
    /// per-charge service windows (span tracing).
    pub(crate) fn new(
        engine: Arc<StoreEngine>,
        policy: SchedPolicyKind,
        record_intervals: bool,
    ) -> VirtualDrive {
        let devices = engine.n_devices().max(1);
        VirtualDrive {
            engine,
            sched: VirtualScheduler::with_policy(devices, policy),
            fifo: policy == SchedPolicyKind::Fifo,
            record_intervals,
            held: HashMap::new(),
        }
    }

    /// Runs `op` now and places it as submitted at `submit_vt` under
    /// `tag`. Returns its completion under FIFO; under a queued policy
    /// the completion comes from a later [`VirtualDrive::advance_to`].
    pub(crate) fn submit(
        &mut self,
        op: StoreOp,
        user_data: u64,
        submit_vt: f64,
        tag: SchedTag,
    ) -> Option<EngineCqe> {
        let output = self.engine.run_op(op);
        let charges = output.as_ref().map_or(&[][..], |(_, t)| &t.charges[..]);
        if self.fifo {
            let (dispatch, intervals) =
                self.sched
                    .dispatch(submit_vt, charges, tag.tenant, self.record_intervals);
            return Some(Cqe::from_dispatch(
                user_data, submit_vt, dispatch, intervals, output,
            ));
        }
        let handle = self.sched.enqueue(user_data, submit_vt, charges, tag);
        self.held.insert(handle, output);
        None
    }

    /// Resolves the pending picks that are final before `frontier`
    /// (every op arriving before it must already be submitted) and
    /// returns the ops that fully completed. Always empty under FIFO.
    pub(crate) fn advance_to(&mut self, frontier: f64) -> Vec<EngineCqe> {
        self.sched
            .advance_to(frontier)
            .into_iter()
            .map(|r| {
                let output = self.held.remove(&r.handle).expect("held output");
                let intervals = if self.record_intervals {
                    r.intervals
                } else {
                    Vec::new()
                };
                Cqe::from_dispatch(r.user_data, r.submit_vt, r.dispatch, intervals, output)
            })
            .collect()
    }

    /// The drive's device timeline.
    pub(crate) fn scheduler(&self) -> &VirtualScheduler {
        &self.sched
    }
}

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
    /// Drives `spec.requests` operations in a closed loop:
    /// `spec.clients` logical clients each submit their next operation
    /// — produced by `workload(client, seq)` — at the virtual instant
    /// their previous one completed.
    ///
    /// The drive runs every operation on the calling thread, in the
    /// order the clients issue them, against its own virtual clock
    /// starting at 0. Measurements are therefore independent of any
    /// session traffic on the dataset and of the host's thread timing;
    /// the engine, cache, and device state are shared. A panic in an
    /// operation (a scan predicate, say) unwinds the caller.
    ///
    /// The report counts the reads every op returned, scans' included.
    /// A closed loop offers exactly what it completes: `offered` is
    /// `completed`, nothing is shed, and `offered_rate` is
    /// `achieved_rate`.
    ///
    /// # Errors
    ///
    /// The first operation error, if any operation fails.
    pub fn drive_closed_loop(
        &self,
        spec: &ClosedLoopSpec,
        mut workload: impl FnMut(u64, u64) -> StoreOp,
    ) -> Result<QosReport> {
        // On a tracing dataset each completed op also lands in the
        // dataset's span buffer (observation-only: the timeline and
        // report are bit-identical either way).
        let trace_buf = self.trace();
        let mut drive = VirtualDrive::new(
            Arc::clone(self.engine()),
            SchedPolicyKind::Fifo,
            trace_buf.is_some(),
        );
        let clients = spec.clients.max(1) as u64;
        // Issued ops as `(op, client, seq, submit instant)`: every
        // client's first, then each client's next as its previous
        // completes. FIFO completes an op as it runs, so issue order
        // is completion order.
        let mut queue: VecDeque<_> = (0..clients.min(spec.requests))
            .map(|c| (workload(c, 0), c, 0, 0.0))
            .collect();
        let mut issued = queue.len() as u64;
        let mut acc = DriveAccounting::new();
        while let Some((op, c, seq, submit_vt)) = queue.pop_front() {
            let kind = OpKind::of(&op);
            let cqe = drive
                .submit(op, c, submit_vt, SchedTag::default())
                .expect("FIFO completes at once");
            let completed_vt = cqe.completed_vt;
            // Spans are numbered in completion order.
            let token = acc.completed();
            acc.record(cqe, kind, 0, token, trace_buf.as_deref())?;
            if issued < spec.requests {
                // Closed loop: the client's next operation departs at
                // the virtual instant its previous one completed.
                queue.push_back((workload(c, seq + 1), c, seq + 1, completed_vt));
                issued += 1;
            }
        }
        let fold = acc.fold();
        let (completed, rate) = (fold.completed, fold.rate);
        let device_busy = drive.scheduler().busy_seconds();
        Ok(qos_report(fold, completed, rate, Vec::new(), device_busy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DatasetBuilder;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};
    use sage_ssd::SsdConfig;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

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
        assert!(report.achieved_rate > 0.0);
        assert_eq!(report.offered, 64);
        assert_eq!(report.offered_rate, report.achieved_rate);
        assert!(report.latency.p99_ms >= report.latency.p50_ms);
        assert!(report.latency.mean_ms > 0.0);
        assert!(report.reads_served >= 64);
        assert!(report.bases_served > 0);
        assert!(report.bases_per_sec() > 0.0);
        assert_eq!(report.utilization.len(), 2);
        assert!(report.device_busy.iter().any(|b| *b > 0.0));
    }

    #[test]
    fn closed_loop_counts_scan_results_and_offers_what_it_completes() {
        let dataset = fleet_dataset(2);
        let total = dataset.total_reads();
        let spec = ClosedLoopSpec {
            clients: 3,
            requests: 9,
        };
        let report = dataset
            .drive_closed_loop(&spec, |_, _| StoreOp::Scan(Box::new(|_| true)))
            .expect("drive");
        assert_eq!(report.completed, 9);
        assert_eq!(report.reads_served, report.completed * total);
        assert!(report.bases_served > 0);
        assert_eq!(report.offered, report.completed);
        assert_eq!(report.shed, 0);
        assert!(report.shed_events.is_empty());
        assert_eq!(report.offered_rate, report.achieved_rate);
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
                .achieved_rate
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four > one * 1.5,
            "striping 1→4 devices must scale req/s: {one} → {four}"
        );
    }

    #[test]
    fn drives_run_on_the_callers_thread() {
        // A cold cache and several decode workers: every scan fetches
        // on the pool, and every predicate still runs right here.
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 33).reads;
        let dataset = DatasetBuilder::new()
            .chunk_reads(16)
            .cache_chunks(0)
            .decode_workers(4)
            .ssd(SsdConfig::pcie())
            .encode(&reads)
            .expect("build");
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let report = dataset
            .drive_closed_loop(
                &ClosedLoopSpec {
                    clients: 3,
                    requests: 6,
                },
                |_, _| {
                    let seen = Arc::clone(&seen);
                    StoreOp::Scan(Box::new(move |_| {
                        seen.lock().unwrap().insert(std::thread::current().id());
                        true
                    }))
                },
            )
            .expect("drive");
        assert_eq!(report.completed, 6);
        // Every chunk missed and was fetched from the device.
        assert!(report.device_busy[0] > 0.0);
        assert_eq!(
            *seen.lock().unwrap(),
            HashSet::from([std::thread::current().id()])
        );
    }

    #[test]
    fn a_panicking_op_unwinds_the_drive() {
        // The third op's predicate panics: the drive must unwind, not
        // return a report short of its requests.
        let dataset = fleet_dataset(1);
        let total = dataset.total_reads();
        let mut issued = 0;
        let drive = catch_unwind(AssertUnwindSafe(|| {
            dataset.drive_closed_loop(
                &ClosedLoopSpec {
                    clients: 2,
                    requests: 8,
                },
                |c, i| {
                    issued += 1;
                    if issued == 3 {
                        StoreOp::Scan(Box::new(|_| panic!("predicate bomb")))
                    } else {
                        StoreOp::Get(range_for(c, i, total, 8))
                    }
                },
            )
        }));
        assert!(drive.is_err(), "the drive returned {drive:?}");
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
