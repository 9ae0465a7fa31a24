//! The completion-queue reactor.
//!
//! io_uring in miniature: callers [`Reactor::submit`] operations into
//! a bounded submission ring and harvest [`Cqe`]s from a completion
//! queue; a small fixed worker set in between executes the
//! operations against an [`IoBackend`]. Any number of operations can
//! be in flight at once — the worker count bounds *execution*
//! parallelism (real CPU), while the ring capacity bounds *queued*
//! operations (the queue-depth knob), and neither bounds the number of
//! outstanding completions a consumer may leave unharvested.
//!
//! Like io_uring, an op that cannot block may skip the ring
//! ([`IoBackend::try_inline`]), and a backend may deliver completions
//! itself ([`IoBackend::complete`]); both hooks default to the queue.
//!
//! Every execution reports the device charges it incurred; the
//! reactor's [`VirtualScheduler`] turns those service times into
//! queued start/completion instants, so completions carry realistic
//! per-request latency even though the device models are analytical.

use crate::cqueue::{CompletionQueues, Cqe};
use crate::qos::{SchedPolicyKind, SchedTag};
use crate::ring::{RingCounters, SubmissionRing, SubmitError};
use crate::sched::{DeviceCharge, ResolvedOp, VirtualScheduler};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// What the reactor runs operations against.
///
/// `execute` does the actual work (decode, copy, predicate walk …) and
/// returns the operation's output together with the device charges the
/// work incurred — an empty charge list means the operation never
/// touched a device (e.g. it was served from a cache).
pub trait IoBackend: Send + Sync + 'static {
    /// Operation type submitted to the ring.
    type Op: Send + 'static;
    /// Result type delivered through the completion queue.
    type Output: Send + 'static;

    /// Executes one operation.
    fn execute(&self, op: Self::Op) -> (Self::Output, Vec<DeviceCharge>);

    /// Executes `op` on the submitting thread if that cannot block,
    /// else gives it back to be queued. Asked by every single-op
    /// submit under [`SchedPolicyKind::Fifo`] only (queued policies
    /// order by the ring). An inline op is stamped and counted like a
    /// worker's, and a full ring never sheds it. Default: give back.
    fn try_inline(&self, op: Self::Op) -> Result<(Self::Output, Vec<DeviceCharge>), Self::Op> {
        Err(op)
    }

    /// Takes a stamped completion on the thread that finished it and
    /// returns what to queue for [`Reactor::completions`] — `None` if
    /// the backend delivered it itself. Default: queue it.
    fn complete(&self, cqe: Cqe<Self::Output>) -> Option<Cqe<Self::Output>> {
        Some(cqe)
    }
}

/// One submission: the operation plus its identity and virtual
/// submit instant.
#[derive(Debug)]
pub struct Sqe<Op> {
    /// The operation.
    pub op: Op,
    /// Caller-chosen token, returned verbatim in the [`Cqe`].
    pub user_data: u64,
    /// Virtual submit instant. Closed-loop drivers advance this per
    /// client (next submit = previous completion); simple callers pass
    /// 0.0 and read only relative device accounting.
    pub submit_vt: f64,
    /// Scheduling attributes (tenant, priority, weight, deadline) —
    /// the default tag bills tenant 0 and schedules neutrally.
    pub tag: SchedTag,
}

/// Reactor sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoConfig {
    /// Worker threads executing operations (execution parallelism).
    pub workers: usize,
    /// Submission-ring capacity (queue depth).
    pub queue_depth: usize,
    /// Device count: one virtual clock each.
    pub devices: usize,
    /// Record per-charge service windows into [`Cqe::intervals`]
    /// (span tracing). Off by default: the untraced hot path neither
    /// allocates nor computes anything extra, and turning it on never
    /// moves a single virtual instant — both paths run the same
    /// scheduler arithmetic.
    pub record_intervals: bool,
    /// Device scheduling discipline. [`SchedPolicyKind::Fifo`] (the
    /// default) dispatches eagerly — bit-identical to the pre-QoS
    /// reactor. Any other policy routes charges through the
    /// scheduler's per-device pending queues: workers enqueue instead
    /// of placing, and completions post when the timeline resolves —
    /// via [`Reactor::advance_to`] as the arrival frontier moves, or
    /// at the end-of-stream flush after [`Reactor::close`].
    pub policy: SchedPolicyKind,
}

impl Default for IoConfig {
    fn default() -> IoConfig {
        IoConfig {
            workers: 4,
            queue_depth: 32,
            devices: 1,
            record_intervals: false,
            policy: SchedPolicyKind::Fifo,
        }
    }
}

/// Point-in-time reactor accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ReactorSnapshot {
    /// Operations accepted: queued into the ring or completed inline.
    pub submitted: u64,
    /// `try_submit_tagged` attempts shed because the ring was full.
    pub rejected: u64,
    /// Operations completed (stamped and handed to
    /// [`IoBackend::complete`]).
    pub completed: u64,
    /// Operations queued in the ring right now.
    pub queued: usize,
    /// Busy (service) seconds accumulated per device.
    pub device_busy: Vec<f64>,
    /// Virtual makespan: the latest instant any device is booked to.
    pub horizon: f64,
    /// Per-device utilization over the makespan.
    pub utilization: Vec<f64>,
    /// Busy seconds per tenant per device (`[tenant][device]`; rows
    /// exist for every tenant that dispatched). `device_busy` is the
    /// fold of these rows in tenant order, so the per-tenant split
    /// conserves the device totals *exactly*, not just within
    /// floating-point tolerance.
    pub tenant_busy: Vec<Vec<f64>>,
    /// Seconds charges spent waiting between submit and service
    /// start, per tenant.
    pub tenant_queue_delay: Vec<f64>,
}

impl ReactorSnapshot {
    /// Per-device utilization over a caller-chosen window — load
    /// drivers report utilization over *their* makespan (the latest
    /// completion they harvested), which can differ from the
    /// scheduler's global horizon when other traffic shares the
    /// reactor. All zeros for a non-positive window.
    pub fn utilization_over(&self, window: f64) -> Vec<f64> {
        if window <= 0.0 {
            return vec![0.0; self.device_busy.len()];
        }
        self.device_busy.iter().map(|b| b / window).collect()
    }

    /// Busy seconds summed across every device — the run's total
    /// service demand. The observability layer's windowed busy
    /// integrals and blame timelines are checked against this total.
    pub fn total_busy_seconds(&self) -> f64 {
        self.device_busy.iter().sum()
    }
}

/// Scheduler-side shared state: the virtual clocks plus, for the
/// queued dispatch path, the outputs of executed-but-unresolved
/// operations (keyed by the scheduler's enqueue handle), the count
/// of submissions fully processed (the [`Reactor::quiesce`] target),
/// and the completion counts (`inline` ops never entered the ring).
struct SchedState<T> {
    sched: VirtualScheduler,
    held: HashMap<u64, T>,
    processed: u64,
    inline: u64,
    completed: u64,
}

impl<T> fmt::Debug for SchedState<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchedState")
            .field("sched", &self.sched)
            .field("held", &self.held.len())
            .field("processed", &self.processed)
            .finish_non_exhaustive()
    }
}

/// Everything the workers and the submitting threads share.
struct Core<B: IoBackend> {
    backend: Arc<B>,
    ring: SubmissionRing<Sqe<B::Op>>,
    cq: Arc<CompletionQueues<B::Output>>,
    state: Mutex<SchedState<B::Output>>,
    /// Signals `processed` advances.
    processed_cv: Condvar,
    record_intervals: bool,
    policy: SchedPolicyKind,
}

impl<B: IoBackend> Core<B> {
    fn lock(&self) -> MutexGuard<'_, SchedState<B::Output>> {
        self.state.lock().expect("scheduler poisoned")
    }

    /// One worker's life: execute what the ring hands out until it is
    /// closed and drained.
    fn work(&self) {
        // Signalled on *every* exit path: a backend panic that unwinds
        // this thread must still count the poster down, or `wait_any`
        // consumers would block forever on a live_posters count that
        // can never reach zero.
        struct PosterGuard<'a, T>(&'a CompletionQueues<T>);
        impl<T> Drop for PosterGuard<'_, T> {
            fn drop(&mut self) {
                self.0.poster_done();
            }
        }
        let _guard = PosterGuard(&self.cq);
        while let Some(sqe) = self.ring.pop() {
            let done = self.backend.execute(sqe.op);
            if self.policy == SchedPolicyKind::Fifo {
                self.finish(sqe.user_data, sqe.submit_vt, sqe.tag, done, false);
            } else {
                let (output, charges) = done;
                // Queued dispatch: execution happens now (in
                // submission order), but the timeline placement waits
                // in the policy's pending queues; the completion posts
                // when the operation resolves.
                let mut state = self.lock();
                let handle = state
                    .sched
                    .enqueue(sqe.user_data, sqe.submit_vt, &charges, sqe.tag);
                state.held.insert(handle, output);
                state.processed += 1;
                drop(state);
                self.processed_cv.notify_all();
            }
        }
        if self.policy != SchedPolicyKind::Fifo {
            // End of stream: resolve everything still pending before
            // this poster counts down, so `wait_any` consumers drain
            // every completion. With several workers each flushes what
            // is pending at its own exit; the last one to leave sweeps
            // the remainder.
            self.post_resolved(VirtualScheduler::flush);
        }
    }

    /// The eager post step of a worker's op and an inline one alike:
    /// stamp it ([`VirtualScheduler::dispatch`], billed to its tenant)
    /// and count it completed — and submitted, if `inline` — under the
    /// scheduler lock; then post it and count it processed. Completed
    /// moves first, so whoever `complete` answers already sees it.
    fn finish(
        &self,
        user_data: u64,
        submit_vt: f64,
        tag: SchedTag,
        (output, charges): (B::Output, Vec<DeviceCharge>),
        inline: bool,
    ) {
        let (dispatch, intervals) = {
            let mut state = self.lock();
            state.inline += u64::from(inline);
            state.completed += 1;
            state
                .sched
                .dispatch(submit_vt, &charges, tag.tenant, self.record_intervals)
        };
        self.post(Cqe::from_dispatch(
            user_data, submit_vt, dispatch, intervals, output,
        ));
        self.lock().processed += 1;
        self.processed_cv.notify_all();
    }

    /// Hands one completion to the backend and queues what it returns.
    fn post(&self, cqe: Cqe<B::Output>) {
        if let Some(cqe) = self.backend.complete(cqe) {
            self.cq.post(cqe);
        }
    }

    /// Resolves queued operations with `resolve` (a frontier move or
    /// the end-of-stream flush), counts them completed and posts them,
    /// honoring the interval-recording knob. Returns how many posted.
    fn post_resolved(
        &self,
        resolve: impl FnOnce(&mut VirtualScheduler) -> Vec<ResolvedOp>,
    ) -> usize {
        let resolved: Vec<(ResolvedOp, B::Output)> = {
            let mut state = self.lock();
            let resolved = resolve(&mut state.sched);
            state.completed += resolved.len() as u64;
            resolved
                .into_iter()
                .map(|r| {
                    let output = state.held.remove(&r.handle).expect("held output");
                    (r, output)
                })
                .collect()
        };
        let n = resolved.len();
        for (r, output) in resolved {
            let intervals = if self.record_intervals {
                r.intervals
            } else {
                Vec::new()
            };
            self.post(Cqe::from_dispatch(
                r.user_data,
                r.submit_vt,
                r.dispatch,
                intervals,
                output,
            ));
        }
        n
    }
}

/// A running reactor over backend `B`.
pub struct Reactor<B: IoBackend> {
    core: Arc<Core<B>>,
    workers: Vec<JoinHandle<()>>,
}

impl<B: IoBackend> fmt::Debug for Reactor<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reactor")
            .field("workers", &self.workers.len())
            .field("state", &self.core.state)
            .finish_non_exhaustive()
    }
}

impl<B: IoBackend> Reactor<B> {
    /// Starts `cfg.workers` workers over `backend`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` or `cfg.queue_depth` is 0.
    pub fn start(backend: Arc<B>, cfg: IoConfig) -> Reactor<B> {
        assert!(cfg.workers > 0, "need at least one worker");
        let core = Arc::new(Core {
            backend,
            ring: SubmissionRing::new(cfg.queue_depth),
            cq: Arc::new(CompletionQueues::new(cfg.workers)),
            state: Mutex::new(SchedState {
                sched: VirtualScheduler::with_policy(cfg.devices, cfg.policy),
                held: HashMap::new(),
                processed: 0,
                inline: 0,
                completed: 0,
            }),
            processed_cv: Condvar::new(),
            record_intervals: cfg.record_intervals,
            policy: cfg.policy,
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || core.work())
            })
            .collect();
        Reactor { core, workers }
    }

    /// Moves the arrival frontier of the queued dispatch path to `vt`:
    /// resolves every pending pick whose decision instant lies
    /// strictly before `vt` and posts the completions of operations
    /// that fully resolved. Returns how many completions posted. A
    /// no-op (0) under the eager [`SchedPolicyKind::Fifo`].
    ///
    /// The caller owns the frontier contract: every submission with
    /// `submit_vt < vt` must already be processed (see
    /// [`Reactor::quiesce`]) — open-loop drivers submit in
    /// nondecreasing virtual time, quiesce, then advance.
    pub fn advance_to(&self, vt: f64) -> usize {
        self.core.post_resolved(|sched| sched.advance_to(vt))
    }

    /// Blocks until every submission accepted so far has been
    /// processed by a worker (executed and, under the eager policy,
    /// posted; under a queued policy, enqueued into the pending
    /// queues). The synchronization point open-loop drivers need
    /// between submitting an arrival and reading the timeline.
    ///
    /// Counts only accepted submissions (rejected `try_submit_tagged`s
    /// are not waited for). A worker lost to a backend panic never
    /// finishes its operation, so quiescing after one would block
    /// until another submission is processed.
    pub fn quiesce(&self) {
        let queued = self.core.ring.counters().submitted;
        let mut state = self.core.lock();
        while state.processed < queued + state.inline {
            state = self
                .core
                .processed_cv
                .wait(state)
                .expect("scheduler poisoned");
        }
    }

    /// Submits an operation, blocking while the ring is full
    /// (backpressure).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] when the reactor already shut down; the
    /// refused op comes back with it.
    pub fn submit(
        &self,
        op: B::Op,
        user_data: u64,
        submit_vt: f64,
    ) -> Result<(), (SubmitError, B::Op)> {
        self.enqueue(op, user_data, submit_vt, SchedTag::default(), true)
    }

    /// [`Reactor::submit`] with explicit scheduling attributes —
    /// tenant attribution under every policy, and the
    /// priority/weight/deadline the queued policies order by.
    ///
    /// # Errors
    ///
    /// Same as [`Reactor::submit`].
    pub fn submit_tagged(
        &self,
        op: B::Op,
        user_data: u64,
        submit_vt: f64,
        tag: SchedTag,
    ) -> Result<(), (SubmitError, B::Op)> {
        self.enqueue(op, user_data, submit_vt, tag, true)
    }

    /// Submits without blocking, with explicit scheduling attributes.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the ring is at capacity (the
    /// rejection is counted), [`SubmitError::Closed`] after shutdown;
    /// the refused op comes back either way.
    pub fn try_submit_tagged(
        &self,
        op: B::Op,
        user_data: u64,
        submit_vt: f64,
        tag: SchedTag,
    ) -> Result<(), (SubmitError, B::Op)> {
        self.enqueue(op, user_data, submit_vt, tag, false)
    }

    /// The single-op submit path. Under FIFO an op the backend answers
    /// inline ([`IoBackend::try_inline`]) completes right here; any
    /// other op is queued, waiting on a full ring when `block`.
    fn enqueue(
        &self,
        op: B::Op,
        user_data: u64,
        submit_vt: f64,
        tag: SchedTag,
        block: bool,
    ) -> Result<(), (SubmitError, B::Op)> {
        let (core, mut op) = (&*self.core, op);
        if core.policy == SchedPolicyKind::Fifo && !core.ring.is_closed() {
            match core.backend.try_inline(op) {
                Ok(done) => {
                    core.finish(user_data, submit_vt, tag, done, true);
                    return Ok(());
                }
                Err(back) => op = back,
            }
        }
        let push = if block {
            SubmissionRing::push
        } else {
            SubmissionRing::try_push
        };
        let sqe = Sqe {
            op,
            user_data,
            submit_vt,
            tag,
        };
        push(&core.ring, sqe).map_err(|(e, sqe)| (e, sqe.op))
    }

    /// Submits a batch of `(op, user_data, submit_vt)` entries in
    /// order with one ring-lock acquisition per capacity window
    /// instead of one per operation — the cheap way to seed a closed
    /// loop or inject an arrival burst. Blocks (backpressure) while
    /// the ring is full, exactly like [`Reactor::submit`]; a batch
    /// never goes inline.
    ///
    /// # Errors
    ///
    /// `Err((SubmitError::Closed, accepted))` when the reactor shut
    /// down mid-batch; `accepted` operations were already enqueued
    /// and will still be served by a graceful close.
    pub fn submit_batch(
        &self,
        ops: impl IntoIterator<Item = (B::Op, u64, f64)>,
    ) -> Result<usize, (SubmitError, usize)> {
        self.core
            .ring
            .push_batch(ops.into_iter().map(|(op, user_data, submit_vt)| Sqe {
                op,
                user_data,
                submit_vt,
                tag: SchedTag::default(),
            }))
    }

    /// The completion queue: every completion [`IoBackend::complete`]
    /// returns lands here — all of them under the default hook.
    /// Shareable: a consumer can hold its own handle and outlive the
    /// reactor's owner.
    pub fn completions(&self) -> Arc<CompletionQueues<B::Output>> {
        Arc::clone(&self.core.cq)
    }

    /// The queue-depth the reactor was started with.
    pub fn queue_depth(&self) -> usize {
        self.core.ring.capacity()
    }

    /// Reads the accumulated accounting.
    pub fn snapshot(&self) -> ReactorSnapshot {
        let RingCounters {
            submitted,
            rejected,
            queued,
        } = self.core.ring.counters();
        let state = self.core.lock();
        ReactorSnapshot {
            submitted: submitted + state.inline,
            rejected,
            completed: state.completed,
            queued,
            device_busy: state.sched.busy_seconds(),
            horizon: state.sched.horizon(),
            utilization: state.sched.utilization(),
            tenant_busy: state.sched.tenant_busy_seconds().to_vec(),
            tenant_queue_delay: state.sched.tenant_queue_delay().to_vec(),
        }
    }

    /// Closes the submission ring gracefully *without* joining the
    /// workers: new submissions are rejected and submitters blocked
    /// on a full ring wake with [`SubmitError::Closed`]; operations
    /// already queued are still served. Teardown
    /// ([`Reactor::shutdown`]/[`Reactor::abort`]/drop) remains the
    /// owner's job — this exists so a shared handle can unblock
    /// stuck submitters before the owner tears down.
    pub fn close(&self) {
        self.core.ring.close();
    }

    /// Closes the ring immediately, returning the unserved entries
    /// (as [`Reactor::abort`] would) without joining the workers;
    /// blocked submitters wake with [`SubmitError::Closed`].
    pub fn close_now(&self) -> Vec<Sqe<B::Op>> {
        self.core.ring.close_now()
    }

    /// Graceful shutdown: rejects new submissions, serves everything
    /// already queued, then joins the workers. Consumers see the end
    /// of stream once the last queued completion is harvested.
    pub fn shutdown(mut self) {
        self.stop_graceful();
    }

    /// Immediate shutdown: unserved queued submissions are returned to
    /// the caller (for explicit cancellation) instead of executed. The
    /// operation a worker is mid-way through still completes.
    pub fn abort(mut self) -> Vec<Sqe<B::Op>> {
        let unserved = self.core.ring.close_now();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        unserved
    }

    fn stop_graceful(&mut self) {
        self.core.ring.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<B: IoBackend> Drop for Reactor<B> {
    fn drop(&mut self) {
        self.stop_graceful();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles the input and charges `input % devices` for 1 ms.
    struct Doubler {
        devices: usize,
    }

    impl IoBackend for Doubler {
        type Op = u64;
        type Output = u64;
        fn execute(&self, op: u64) -> (u64, Vec<DeviceCharge>) {
            (
                op * 2,
                vec![DeviceCharge {
                    device: (op % self.devices as u64) as usize,
                    seconds: 1e-3,
                }],
            )
        }
    }

    #[test]
    fn completions_carry_outputs_and_tokens() {
        let r = Reactor::start(
            Arc::new(Doubler { devices: 2 }),
            IoConfig {
                workers: 2,
                queue_depth: 8,
                devices: 2,
                ..IoConfig::default()
            },
        );
        for i in 0..6u64 {
            r.submit(i, 100 + i, 0.0).unwrap();
        }
        let cq = r.completions();
        let mut seen = Vec::new();
        for _ in 0..6 {
            let cqe = cq.wait_any().expect("live reactor");
            assert_eq!(cqe.output, (cqe.user_data - 100) * 2);
            assert_eq!(cqe.device, ((cqe.user_data - 100) % 2) as usize);
            seen.push(cqe.user_data);
        }
        seen.sort_unstable();
        assert_eq!(seen, (100..106).collect::<Vec<_>>());
        let snap = r.snapshot();
        assert_eq!(snap.submitted, 6);
        assert_eq!(snap.completed, 6);
        // 3 ops per device × 1 ms.
        assert!((snap.device_busy[0] - 3e-3).abs() < 1e-12);
        assert!((snap.device_busy[1] - 3e-3).abs() < 1e-12);
        // Total service demand across the fleet: 6 ops × 1 ms.
        assert!((snap.total_busy_seconds() - 6e-3).abs() < 1e-12);
        assert_eq!(
            snap.total_busy_seconds(),
            snap.device_busy.iter().sum::<f64>()
        );
        r.shutdown();
    }

    #[test]
    fn record_intervals_decomposes_completions() {
        let r = Reactor::start(
            Arc::new(Doubler { devices: 2 }),
            IoConfig {
                workers: 1,
                queue_depth: 8,
                devices: 2,
                record_intervals: true,
                ..IoConfig::default()
            },
        );
        for i in 0..4u64 {
            r.submit(i, i, 0.0).unwrap();
        }
        let cq = r.completions();
        for _ in 0..4 {
            let cqe = cq.wait_any().expect("live reactor");
            // Doubler charges exactly one device per op; the interval
            // reconstructs the completion's instants and demand.
            assert_eq!(cqe.intervals.len(), 1);
            let iv = cqe.intervals[0];
            assert_eq!(iv.device, cqe.device);
            assert_eq!(iv.start_vt, cqe.started_vt);
            assert_eq!(iv.end_vt, cqe.completed_vt);
            assert_eq!(iv.seconds, cqe.device_seconds);
        }
        r.shutdown();
    }

    #[test]
    fn graceful_shutdown_serves_queued_work() {
        let r = Reactor::start(
            Arc::new(Doubler { devices: 1 }),
            IoConfig {
                workers: 1,
                queue_depth: 16,
                devices: 1,
                ..IoConfig::default()
            },
        );
        for i in 0..10u64 {
            r.submit(i, i, 0.0).unwrap();
        }
        let cq = r.completions();
        r.shutdown();
        let mut n = 0;
        while cq.wait_any().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn abort_returns_unserved_submissions() {
        // One worker blocked by a slow queue ensures entries pile up.
        let r = Reactor::start(
            Arc::new(Doubler { devices: 1 }),
            IoConfig {
                workers: 1,
                queue_depth: 64,
                devices: 1,
                ..IoConfig::default()
            },
        );
        for i in 0..50u64 {
            r.submit(i, i, 0.0).unwrap();
        }
        let cq = r.completions();
        let unserved = r.abort();
        let mut completed = 0;
        while cq.wait_any().is_some() {
            completed += 1;
        }
        assert_eq!(completed + unserved.len(), 50);
    }

    #[test]
    fn try_submit_sheds_load_when_full() {
        // Zero workers is forbidden, so stall the single worker with a
        // first op, then overfill the ring.
        struct Slow;
        impl IoBackend for Slow {
            type Op = ();
            type Output = ();
            fn execute(&self, _: ()) -> ((), Vec<DeviceCharge>) {
                std::thread::sleep(std::time::Duration::from_millis(30));
                ((), Vec::new())
            }
        }
        let r = Reactor::start(
            Arc::new(Slow),
            IoConfig {
                workers: 1,
                queue_depth: 2,
                devices: 1,
                ..IoConfig::default()
            },
        );
        // First submit may begin executing immediately; fill the ring
        // behind it and then overflow.
        r.submit((), 0, 0.0).unwrap();
        let mut rejected = 0;
        for i in 1..=8u64 {
            if r.try_submit_tagged((), i, 0.0, SchedTag::default()) == Err((SubmitError::Full, ()))
            {
                rejected += 1;
            }
        }
        assert!(rejected > 0);
        assert_eq!(r.snapshot().rejected, rejected);
        r.shutdown();
    }

    #[test]
    fn panicking_backend_does_not_hang_consumers() {
        // A panic unwinding out of execute() must still count the
        // worker down, or wait_any() would block forever.
        struct Bomb;
        impl IoBackend for Bomb {
            type Op = bool; // true ⇒ panic
            type Output = u32;
            fn execute(&self, explode: bool) -> (u32, Vec<DeviceCharge>) {
                assert!(!explode, "backend bomb");
                (7, Vec::new())
            }
        }
        let r = Reactor::start(
            Arc::new(Bomb),
            IoConfig {
                workers: 2,
                queue_depth: 8,
                devices: 1,
                ..IoConfig::default()
            },
        );
        let cq = r.completions();
        r.submit(true, 0, 0.0).unwrap(); // kills one worker
        r.submit(false, 1, 0.0).unwrap(); // the survivor serves this
        let mut served = 0;
        r.shutdown(); // joins the dead worker without deadlocking
        while let Some(cqe) = cq.wait_any() {
            assert_eq!(cqe.user_data, 1);
            assert_eq!(cqe.output, 7);
            served += 1;
        }
        // wait_any reached end-of-stream: the panicked worker's
        // guard ran. The panicked op produced no completion.
        assert_eq!(served, 1);
    }

    #[test]
    fn queued_policy_reorders_and_accounts_per_tenant() {
        // Two tenants through the reactor's queued path: with strict
        // priority the high-priority op submitted later completes
        // first, and the snapshot's per-tenant busy rows fold exactly
        // back to the device totals.
        let r = Reactor::start(
            Arc::new(Doubler { devices: 1 }),
            IoConfig {
                workers: 1,
                queue_depth: 16,
                devices: 1,
                policy: SchedPolicyKind::StrictPriority,
                ..IoConfig::default()
            },
        );
        let lo = SchedTag::default();
        let hi = SchedTag {
            tenant: 1,
            priority: 7,
            ..SchedTag::default()
        };
        // Arrivals 0.1 ms apart against a 1 ms service time: both
        // later ops queue behind the first.
        r.submit_tagged(0, 0, 0.0, lo).unwrap();
        r.submit_tagged(1, 1, 1e-4, lo).unwrap();
        r.submit_tagged(2, 2, 2e-4, hi).unwrap();
        r.quiesce();
        // Only the first decision instant (t=0) lies before the
        // frontier; the queued picks stay open.
        let posted = r.advance_to(2e-4);
        assert_eq!(posted, 1);
        let cq = r.completions();
        let first = cq.poll_any().expect("posted");
        assert_eq!(first.user_data, 0);
        // End of stream flushes the rest: the high-priority op jumps
        // the earlier low-priority one.
        r.shutdown();
        let order: Vec<u64> = std::iter::from_fn(|| cq.wait_any())
            .map(|c| c.user_data)
            .collect();
        assert_eq!(order, [2, 1]);
    }

    #[test]
    fn snapshot_folds_tenant_busy_exactly() {
        let r = Reactor::start(
            Arc::new(Doubler { devices: 2 }),
            IoConfig {
                workers: 1,
                queue_depth: 16,
                devices: 2,
                policy: SchedPolicyKind::WeightedFair,
                ..IoConfig::default()
            },
        );
        for i in 0..8u64 {
            r.submit_tagged(i, i, 0.0, SchedTag::for_tenant((i % 3) as usize))
                .unwrap();
        }
        r.quiesce();
        let posted = r.advance_to(f64::INFINITY);
        assert_eq!(posted, 8);
        let snap = r.snapshot();
        assert_eq!(snap.tenant_busy.len(), 3);
        assert_eq!(snap.tenant_queue_delay.len(), 3);
        for d in 0..2 {
            let fold: f64 = (0..3).fold(0.0, |acc, t| acc + snap.tenant_busy[t][d]);
            assert_eq!(
                fold.to_bits(),
                snap.device_busy[d].to_bits(),
                "per-tenant busy must conserve device busy exactly"
            );
        }
        // Later tenants on a contended device accrued queue delay.
        assert!(snap.tenant_queue_delay.iter().copied().sum::<f64>() > 0.0);
        let cq = r.completions();
        r.shutdown();
        let mut n = 0;
        while cq.wait_any().is_some() {
            n += 1;
        }
        assert_eq!(n, 8);
    }

    #[test]
    fn closed_loop_latency_grows_with_depth() {
        // The queue-depth knob in one test: same backend, same request
        // count, deeper closed loop ⇒ higher mean virtual latency.
        let run = |depth: u64| {
            let r = Reactor::start(
                Arc::new(Doubler { devices: 1 }),
                IoConfig {
                    workers: 2,
                    queue_depth: depth as usize,
                    devices: 1,
                    ..IoConfig::default()
                },
            );
            let cq = r.completions();
            for c in 0..depth {
                r.submit(c, c, 0.0).unwrap();
            }
            let mut latencies = Vec::new();
            let mut left = 64u64 - depth;
            while latencies.len() < 64 {
                let cqe = cq.wait_any().expect("live");
                latencies.push(cqe.latency());
                if left > 0 {
                    left -= 1;
                    r.submit(cqe.user_data, cqe.user_data, cqe.completed_vt)
                        .unwrap();
                }
            }
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        let shallow = run(1);
        let deep = run(8);
        assert!(
            deep > shallow * 2.0,
            "mean latency shallow {shallow} deep {deep}"
        );
    }
}
