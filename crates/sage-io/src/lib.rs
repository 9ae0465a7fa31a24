//! # sage-io — completion-queue async I/O with multi-SSD extent
//! sharding
//!
//! The chunk store's serving path needs to keep *thousands* of small
//! random chunk reads in flight across *many* SSDs — that is what the
//! paper's end-to-end win rests on. This crate is the I/O substrate
//! that makes both dimensions first-class:
//!
//! - [`ring`] — a bounded **submission ring**: capacity is the queue-
//!   depth knob; submitters either block (backpressure) or are
//!   rejected-and-counted (load shedding).
//! - [`reactor`] — the **completion-queue reactor**: a small fixed
//!   worker set drains the ring, runs each operation against an
//!   [`IoBackend`], and posts a [`Cqe`] to the completion queue.
//!   Arbitrarily many operations are in flight at once; workers bound
//!   only CPU parallelism. A backend may answer an op that cannot
//!   block on the submitting thread, and deliver completions itself.
//!   The reactor stamps each completion on one FIFO clock; a caller
//!   that wants per-device queueing, tenants or a queued [`qos`]
//!   policy drives a [`VirtualScheduler`] itself.
//! - [`sched`] — **virtual-time device scheduling**: per-device clocks
//!   turn the device models' service seconds into queued start/finish
//!   instants, so a drive's completions carry realistic latencies
//!   (queueing included) while staying deterministic for CI.
//! - [`qos`] — **multi-tenant scheduling policies**: FIFO, strict
//!   priority, weighted fair (SCFQ), and earliest-deadline-first picks
//!   over the scheduler's per-device pending queues, with per-tenant
//!   busy/queue-delay attribution.
//! - [`cqueue`] — the **completion queue**: one FIFO in post order
//!   that consumers block on.
//! - [`mod@file`] — the **real-bytes backend**: per-device container
//!   files served with positioned reads (`pread`) behind the same
//!   submit/complete shape, charging *zero* virtual seconds so the
//!   simulated timeline is untouched when real I/O is on.
//! - [`device`] — **multi-SSD extent sharding**: a [`DeviceMap`]
//!   stripes chunk extents across N [`sage_ssd::SsdModel`]s
//!   (round-robin), routes each fetch to its
//!   owning device, and aggregates per-device timing/utilization
//!   snapshots.
//!
//! ```text
//!   clients ──submit──▶ [ submission ring (≤ queue_depth) ]
//!                            │ pop (FIFO)
//!                  ┌─────────┼─────────┐
//!               worker     worker    worker      (fixed set)
//!                  │ execute(op) → output + device charges
//!                  ▼
//!         [ virtual scheduler: one FIFO clock ]
//!                  │ dispatch → start/completion instants
//!                  ▼
//!         [ completion queue (post order) ]  ◀──wait─── clients
//! ```

pub mod cqueue;
pub mod device;
pub mod file;
pub mod qos;
pub mod reactor;
pub mod ring;
pub mod sched;

pub use cqueue::{CompletionQueues, Cqe};
pub use device::{ChunkSlot, DeviceMap, DeviceSnapshot};
pub use file::{FileBackend, FileReadOp};
pub use qos::{SchedPolicyKind, SchedTag};
pub use reactor::{IoBackend, IoConfig, Reactor, ReactorSnapshot, Sqe};
pub use ring::{RingCounters, SubmissionRing, SubmitError};
pub use sched::{ChargeInterval, DeviceCharge, Dispatch, ResolvedOp, VirtualScheduler};
