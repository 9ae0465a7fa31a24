//! The completion queue.
//!
//! Every finished operation becomes a [`Cqe`] posted to one FIFO
//! (unless its backend delivered it itself, see
//! [`IoBackend::complete`](crate::IoBackend::complete)).
//! Consumers block for the next completion
//! ([`CompletionQueues::wait_any`]). The queue sits behind one mutex —
//! completion entries are tiny and the reactor's worker count bounds
//! the posting rate, so a finer-grained design would buy nothing but
//! subtlety.
//!
//! Completions drain in **post order**: the order the workers
//! finished them, which with several workers depends on the host.
//! The virtual instants a [`Cqe`] carries were stamped when it posted,
//! so harvesting order never moves them.

use crate::sched::{ChargeInterval, Dispatch};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// One completed operation.
#[derive(Debug, Clone)]
pub struct Cqe<T> {
    /// Caller-chosen token identifying the submission.
    pub user_data: u64,
    /// The device that finished the operation (the last charged
    /// device to complete); 0 when nothing was charged.
    pub device: usize,
    /// Virtual instant the operation was submitted.
    pub submitted_vt: f64,
    /// Virtual instant device service began.
    pub started_vt: f64,
    /// Virtual instant the operation completed.
    pub completed_vt: f64,
    /// Total device seconds the operation charged.
    pub device_seconds: f64,
    /// Per-charge service windows, in charge order. Empty unless the
    /// dispatch recorded them (a traced drive does; the reactor never
    /// does) — recording them is observation-only and never moves the
    /// instants above.
    pub intervals: Vec<ChargeInterval>,
    /// The operation's result.
    pub output: T,
}

impl<T> Cqe<T> {
    /// Submit-to-completion virtual latency.
    pub fn latency(&self) -> f64 {
        self.completed_vt - self.submitted_vt
    }

    /// The completion of `output`, submitted at `submitted_vt` and
    /// placed on the timeline by `d` (a [`VirtualScheduler`] dispatch
    /// or resolution).
    ///
    /// [`VirtualScheduler`]: crate::sched::VirtualScheduler
    pub fn from_dispatch(
        user_data: u64,
        submitted_vt: f64,
        d: Dispatch,
        intervals: Vec<ChargeInterval>,
        output: T,
    ) -> Cqe<T> {
        Cqe {
            user_data,
            device: d.device,
            submitted_vt,
            started_vt: d.started_vt,
            completed_vt: d.completed_vt,
            device_seconds: d.device_seconds,
            intervals,
            output,
        }
    }
}

#[derive(Debug)]
struct CqState<T> {
    /// Posted and not yet harvested, oldest first.
    queue: VecDeque<Cqe<T>>,
    /// Reactor workers still alive; 0 means no further completions can
    /// ever arrive.
    live_posters: usize,
}

/// The completion side of a reactor: one queue in post order.
#[derive(Debug)]
pub struct CompletionQueues<T> {
    state: Mutex<CqState<T>>,
    cv: Condvar,
}

impl<T> CompletionQueues<T> {
    /// An empty queue fed by `posters` workers.
    pub(crate) fn new(posters: usize) -> CompletionQueues<T> {
        CompletionQueues {
            state: Mutex::new(CqState {
                queue: VecDeque::new(),
                live_posters: posters,
            }),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn post(&self, cqe: Cqe<T>) {
        let mut state = self.state.lock().expect("cq poisoned");
        state.queue.push_back(cqe);
        drop(state);
        self.cv.notify_all();
    }

    /// Called by each worker exactly once on exit; the last one wakes
    /// every blocked consumer so they can observe the end of stream.
    pub(crate) fn poster_done(&self) {
        let mut state = self.state.lock().expect("cq poisoned");
        state.live_posters = state.live_posters.saturating_sub(1);
        if state.live_posters == 0 {
            drop(state);
            self.cv.notify_all();
        }
    }

    /// Blocks until a completion is available and pops the
    /// oldest-posted one; `None` when the reactor shut down and the
    /// queue is drained.
    pub fn wait_any(&self) -> Option<Cqe<T>> {
        let mut state = self.state.lock().expect("cq poisoned");
        loop {
            if let Some(cqe) = state.queue.pop_front() {
                return Some(cqe);
            }
            if state.live_posters == 0 {
                return None;
            }
            state = self.cv.wait(state).expect("cq poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Dispatch;

    fn cqe(user_data: u64, device: usize) -> Cqe<u32> {
        Cqe::from_dispatch(
            user_data,
            1.0,
            Dispatch {
                started_vt: 2.0,
                completed_vt: 3.5,
                device_seconds: 1.5,
                device,
            },
            Vec::new(),
            42,
        )
    }

    #[test]
    fn routes_to_per_device_queues() {
        // One queue: each entry keeps its finishing device and drains
        // in post order, whatever that device.
        let cq: CompletionQueues<u32> = CompletionQueues::new(1);
        cq.post(cqe(1, 0));
        cq.post(cqe(2, 1));
        cq.post(cqe(3, 7));
        cq.poster_done();
        let drained: Vec<(u64, usize)> = std::iter::from_fn(|| cq.wait_any())
            .map(|c| (c.user_data, c.device))
            .collect();
        assert_eq!(drained, [(1, 0), (2, 1), (3, 7)]);
    }

    #[test]
    fn latency_and_wait_derive_from_dispatch() {
        let e = cqe(9, 0);
        assert!((e.latency() - 2.5).abs() < 1e-12);
        assert!((e.started_vt - e.submitted_vt - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wait_any_ends_after_last_poster() {
        let cq: CompletionQueues<u32> = CompletionQueues::new(1);
        cq.post(cqe(5, 0));
        cq.poster_done();
        assert_eq!(cq.wait_any().unwrap().user_data, 5);
        assert!(cq.wait_any().is_none());
    }

    #[test]
    fn any_pops_follow_post_order_across_devices() {
        // Device-index priority would return 2 (device 0) first; post
        // order must return 1 (device 1).
        let cq: CompletionQueues<u32> = CompletionQueues::new(1);
        cq.post(cqe(1, 1));
        cq.post(cqe(2, 0));
        cq.post(cqe(3, 1));
        assert_eq!(cq.wait_any().unwrap().user_data, 1);
        assert_eq!(cq.wait_any().unwrap().user_data, 2);
        assert_eq!(cq.wait_any().unwrap().user_data, 3);
    }
}
