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
//! reactor places them on one [`VirtualScheduler`] clock, billed to
//! tenant 0, so a [`Cqe`] carries start/completion instants. Serving
//! front ends that want per-device queueing, tenants or service
//! windows drive a scheduler of their own.

use crate::cqueue::{CompletionQueues, Cqe};
use crate::ring::{RingCounters, SubmissionRing, SubmitError};
use crate::sched::{DeviceCharge, VirtualScheduler};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
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
    /// else gives it back to be queued. Asked by every submit while
    /// the ring is open. An inline op is stamped and counted like a
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
    /// Virtual submit instant; simple callers pass 0.0 and read only
    /// relative device accounting.
    pub submit_vt: f64,
}

/// Reactor sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoConfig {
    /// Worker threads executing operations (execution parallelism).
    pub workers: usize,
    /// Submission-ring capacity (queue depth).
    pub queue_depth: usize,
}

impl Default for IoConfig {
    fn default() -> IoConfig {
        IoConfig {
            workers: 4,
            queue_depth: 32,
        }
    }
}

/// Point-in-time reactor accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReactorSnapshot {
    /// Operations accepted: queued into the ring or completed inline.
    pub submitted: u64,
    /// [`Reactor::try_submit`] attempts shed because the ring was full.
    pub rejected: u64,
    /// Operations completed (stamped and handed to
    /// [`IoBackend::complete`]).
    pub completed: u64,
    /// Operations queued in the ring right now.
    pub queued: usize,
}

/// Scheduler-side shared state: the virtual clock and the
/// completion counts (`inline` ops never entered the ring).
#[derive(Debug)]
struct SchedState {
    sched: VirtualScheduler,
    inline: u64,
    completed: u64,
}

/// Everything the workers and the submitting threads share.
struct Core<B: IoBackend> {
    backend: Arc<B>,
    ring: SubmissionRing<Sqe<B::Op>>,
    cq: Arc<CompletionQueues<B::Output>>,
    state: Mutex<SchedState>,
}

impl<B: IoBackend> Core<B> {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
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
            self.finish(sqe.user_data, sqe.submit_vt, done, false);
        }
    }

    /// The post step of a worker's op and an inline one alike: stamp
    /// it ([`VirtualScheduler::dispatch`]) and count it completed — and submitted, if `inline` — under the
    /// scheduler lock; then hand it to [`IoBackend::complete`] and
    /// queue what that returns. Completed moves first, so whoever
    /// `complete` answers already sees it.
    fn finish(
        &self,
        user_data: u64,
        submit_vt: f64,
        (output, charges): (B::Output, Vec<DeviceCharge>),
        inline: bool,
    ) {
        let (dispatch, intervals) = {
            let mut state = self.lock();
            state.inline += u64::from(inline);
            state.completed += 1;
            state.sched.dispatch(submit_vt, &charges, 0, false)
        };
        let cqe = Cqe::from_dispatch(user_data, submit_vt, dispatch, intervals, output);
        if let Some(cqe) = self.backend.complete(cqe) {
            self.cq.post(cqe);
        }
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
                sched: VirtualScheduler::new(1),
                inline: 0,
                completed: 0,
            }),
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || core.work())
            })
            .collect();
        Reactor { core, workers }
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
        self.enqueue(op, user_data, submit_vt, true)
    }

    /// Submits without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the ring is at capacity (the
    /// rejection is counted), [`SubmitError::Closed`] after shutdown;
    /// the refused op comes back either way.
    pub fn try_submit(
        &self,
        op: B::Op,
        user_data: u64,
        submit_vt: f64,
    ) -> Result<(), (SubmitError, B::Op)> {
        self.enqueue(op, user_data, submit_vt, false)
    }

    /// The submit path. An op the backend answers inline
    /// ([`IoBackend::try_inline`]) completes right here; any other op
    /// is queued, waiting on a full ring when `block`.
    fn enqueue(
        &self,
        op: B::Op,
        user_data: u64,
        submit_vt: f64,
        block: bool,
    ) -> Result<(), (SubmitError, B::Op)> {
        let (core, mut op) = (&*self.core, op);
        if !core.ring.is_closed() {
            match core.backend.try_inline(op) {
                Ok(done) => {
                    core.finish(user_data, submit_vt, done, true);
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
        };
        push(&core.ring, sqe).map_err(|(e, sqe)| (e, sqe.op))
    }

    /// The completion queue: every completion [`IoBackend::complete`]
    /// returns lands here — all of them under the default hook.
    /// Shareable: a consumer can hold its own handle and outlive the
    /// reactor's owner.
    pub fn completions(&self) -> Arc<CompletionQueues<B::Output>> {
        Arc::clone(&self.core.cq)
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

    /// Doubles the input and charges device 0 for 1 ms.
    struct Doubler;

    impl IoBackend for Doubler {
        type Op = u64;
        type Output = u64;
        fn execute(&self, op: u64) -> (u64, Vec<DeviceCharge>) {
            (
                op * 2,
                vec![DeviceCharge {
                    device: 0,
                    seconds: 1e-3,
                }],
            )
        }
    }

    #[test]
    fn completions_carry_outputs_and_tokens() {
        let r = Reactor::start(
            Arc::new(Doubler),
            IoConfig {
                workers: 2,
                queue_depth: 8,
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
            assert_eq!(cqe.device_seconds, 1e-3);
            assert!(cqe.intervals.is_empty());
            seen.push(cqe.user_data);
        }
        seen.sort_unstable();
        assert_eq!(seen, (100..106).collect::<Vec<_>>());
        let snap = r.snapshot();
        assert_eq!(snap.submitted, 6);
        assert_eq!(snap.completed, 6);
        r.shutdown();
    }

    #[test]
    fn graceful_shutdown_serves_queued_work() {
        let r = Reactor::start(
            Arc::new(Doubler),
            IoConfig {
                workers: 1,
                queue_depth: 16,
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
            Arc::new(Doubler),
            IoConfig {
                workers: 1,
                queue_depth: 64,
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
            },
        );
        // First submit may begin executing immediately; fill the ring
        // behind it and then overflow.
        r.submit((), 0, 0.0).unwrap();
        let mut rejected = 0;
        for i in 1..=8u64 {
            if r.try_submit((), i, 0.0) == Err((SubmitError::Full, ())) {
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
    fn closed_loop_latency_grows_with_depth() {
        // The queue-depth knob in one test: same backend, same request
        // count, deeper closed loop ⇒ higher mean virtual latency.
        let run = |depth: u64| {
            let r = Reactor::start(
                Arc::new(Doubler),
                IoConfig {
                    workers: 2,
                    queue_depth: depth as usize,
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
