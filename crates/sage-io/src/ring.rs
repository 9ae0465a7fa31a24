//! The bounded submission ring.
//!
//! Clients enqueue submission entries; reactor workers dequeue them.
//! Capacity *is* the queue-depth knob: a full ring either blocks the
//! submitter ([`SubmissionRing::push`], backpressure) or rejects the
//! entry ([`SubmissionRing::try_push`], counted so a server can report
//! shed load). Closing the ring is graceful by default — queued entries
//! are still served — while [`SubmissionRing::close_now`] hands the
//! unserved tail back to the caller for explicit cancellation.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a submission was not enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The ring is at capacity (only [`SubmissionRing::try_push`]
    /// reports this; the blocking path waits instead).
    Full,
    /// The ring was closed; no further submissions are accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "submission ring full"),
            SubmitError::Closed => write!(f, "submission ring closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug)]
struct RingInner<T> {
    queue: VecDeque<T>,
    closed: bool,
    submitted: u64,
    rejected: u64,
}

/// Counters the ring maintains for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingCounters {
    /// Entries accepted into the ring.
    pub submitted: u64,
    /// `try_push` attempts refused because the ring was full.
    pub rejected: u64,
    /// Entries currently queued (accepted, not yet popped).
    pub queued: usize,
}

/// A bounded MPMC queue of submission entries.
#[derive(Debug)]
pub struct SubmissionRing<T> {
    inner: Mutex<RingInner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> SubmissionRing<T> {
    /// A ring accepting at most `capacity` queued entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 — a zero-depth ring could never move
    /// an entry.
    pub fn new(capacity: usize) -> SubmissionRing<T> {
        assert!(capacity > 0, "queue depth must be at least 1");
        SubmissionRing {
            inner: Mutex::new(RingInner {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
                submitted: 0,
                rejected: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the ring is at capacity (counted in
    /// [`RingCounters::rejected`]); [`SubmitError::Closed`] after
    /// close. Either way the refused entry comes back, as
    /// `SyncSender::try_send` hands back its value.
    pub fn try_push(&self, entry: T) -> Result<(), (SubmitError, T)> {
        let mut inner = self.inner.lock().expect("ring poisoned");
        if inner.closed {
            return Err((SubmitError::Closed, entry));
        }
        if inner.queue.len() >= self.capacity {
            inner.rejected += 1;
            return Err((SubmitError::Full, entry));
        }
        inner.queue.push_back(entry);
        inner.submitted += 1;
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues, blocking while the ring is full (backpressure).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] (with the entry) when the ring closed
    /// before the entry could be accepted.
    pub fn push(&self, entry: T) -> Result<(), (SubmitError, T)> {
        let mut inner = self.inner.lock().expect("ring poisoned");
        while inner.queue.len() >= self.capacity && !inner.closed {
            inner = self.not_full.wait(inner).expect("ring poisoned");
        }
        if inner.closed {
            return Err((SubmitError::Closed, entry));
        }
        inner.queue.push_back(entry);
        inner.submitted += 1;
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest entry, blocking while the ring is empty.
    /// Returns `None` only when the ring is closed *and* drained — a
    /// graceful close still serves everything already queued.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("ring poisoned");
        loop {
            if let Some(entry) = inner.queue.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(entry);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("ring poisoned");
        }
    }

    /// `true` once closed.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("ring poisoned").closed
    }

    /// Closes the ring gracefully: no new entries, queued entries are
    /// still served.
    pub fn close(&self) {
        self.inner.lock().expect("ring poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Closes the ring immediately, returning the unserved entries so
    /// the caller can cancel them explicitly.
    pub fn close_now(&self) -> Vec<T> {
        let mut inner = self.inner.lock().expect("ring poisoned");
        inner.closed = true;
        let drained = inner.queue.drain(..).collect();
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
        drained
    }

    /// Reads the counters.
    pub fn counters(&self) -> RingCounters {
        let inner = self.inner.lock().expect("ring poisoned");
        RingCounters {
            submitted: inner.submitted,
            rejected: inner.rejected,
            queued: inner.queue.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_counters() {
        let ring = SubmissionRing::new(4);
        ring.try_push(1).unwrap();
        ring.try_push(2).unwrap();
        assert_eq!(ring.pop(), Some(1));
        assert_eq!(ring.pop(), Some(2));
        let c = ring.counters();
        assert_eq!(c.submitted, 2);
        assert_eq!(c.rejected, 0);
        assert_eq!(c.queued, 0);
    }

    #[test]
    fn try_push_rejects_when_full() {
        let ring = SubmissionRing::new(2);
        ring.try_push(1).unwrap();
        ring.try_push(2).unwrap();
        assert_eq!(ring.try_push(3), Err((SubmitError::Full, 3)));
        assert_eq!(ring.counters().rejected, 1);
        // Draining one slot makes room again.
        assert_eq!(ring.pop(), Some(1));
        ring.try_push(3).unwrap();
    }

    #[test]
    fn graceful_close_serves_queued_entries() {
        let ring = SubmissionRing::new(4);
        ring.try_push(7).unwrap();
        ring.close();
        assert_eq!(ring.try_push(8), Err((SubmitError::Closed, 8)));
        assert_eq!(ring.pop(), Some(7));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn close_now_returns_unserved_tail() {
        let ring = SubmissionRing::new(4);
        ring.try_push(1).unwrap();
        ring.try_push(2).unwrap();
        assert_eq!(ring.close_now(), vec![1, 2]);
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn blocking_push_applies_backpressure() {
        let ring = Arc::new(SubmissionRing::new(1));
        ring.push(1).unwrap();
        let r2 = Arc::clone(&ring);
        let pusher = std::thread::spawn(move || r2.push(2));
        // The pusher blocks until the consumer makes room.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(ring.pop(), Some(1));
        pusher.join().unwrap().unwrap();
        assert_eq!(ring.pop(), Some(2));
    }

    #[test]
    fn close_wakes_blocked_pushers() {
        let ring = Arc::new(SubmissionRing::new(1));
        ring.push(1).unwrap();
        let r2 = Arc::clone(&ring);
        let pusher = std::thread::spawn(move || r2.push(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        ring.close();
        assert_eq!(pusher.join().unwrap(), Err((SubmitError::Closed, 2)));
    }
}
