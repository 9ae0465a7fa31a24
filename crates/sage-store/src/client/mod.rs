//! # The typed session API — the store's serving front end
//!
//! This module is the one entry point for serving a dataset: a
//! [`DatasetBuilder`] folds the codec, engine, and server knobs into
//! one validated configuration and produces a [`Dataset`] — an
//! encoded chunk store with a running completion-queue reactor in
//! front of it. [`Session`]s opened on the dataset submit operations
//! and get back **typed tickets**: [`Session::get`] and
//! [`Session::scan`] return a [`Ticket<ReadView>`](Ticket) — a
//! zero-copy view over the engine's cached chunks —
//! [`Session::append`] a `Ticket<u64>`, so a variant-mismatch between
//! request and response is unrepresentable — there is no enum to
//! pattern-match, unlike the removed `Request`/`Response` pair.
//! Views read records in place; [`ReadView::to_owned`] is the
//! explicit opt-in to a per-record copy.
//!
//! Every ticket resolves to a [`Completion`] carrying the engine's
//! [`OpTrace`]: the device charges the operation incurred and its
//! cache outcome (chunks touched, hits, misses). A served op reports
//! what the store measured and nothing else — it carries no virtual
//! instant. Queueing on the virtual timeline is what the drives below
//! measure.
//!
//! Whether a full queue blocks the submitter (backpressure) or fails
//! the submission (load shedding) is a per-session knob,
//! [`SubmitMode`], replacing the `submit`/`try_submit` method split.
//!
//! ```
//! use sage_store::client::DatasetBuilder;
//! use sage_genomics::sim::{simulate_dataset, DatasetProfile};
//!
//! # fn main() -> Result<(), sage_store::StoreError> {
//! let ds = simulate_dataset(&DatasetProfile::tiny_short(), 3);
//! let dataset = DatasetBuilder::new().chunk_reads(32).encode(&ds.reads)?;
//! let session = dataset.session();
//! let ticket = session.get(10..20)?;          // Ticket<ReadView>
//! let completion = ticket.wait()?;            // typed: no enum match
//! assert_eq!(completion.value.len(), 10);
//! assert_eq!(completion.report.chunks_touched, 1);
//! # Ok(())
//! # }
//! ```
//!
//! For load studies there is one driver per loop shape. Neither uses
//! the reactor: each runs its ops on the caller's thread against its
//! own virtual clock, so every report is a pure function of
//! (dataset, load) on any host. The **closed-loop driver**
//! ([`Dataset::drive_closed_loop`]): `clients` logical clients each
//! keep one operation in flight, submitting their next at the virtual
//! instant the previous completed — the `io_sweep` and
//! `fig15_multissd` benches and the pipeline's store-served scenario
//! all run on it. And the **open-loop driver**
//! ([`Dataset::drive_tenants`]): each tenant's seedable
//! [`TenantLoad`] injects requests at generated virtual instants
//! regardless of completions, the streams merge on the virtual
//! timeline, and arrivals that find the bounded virtual queue full are
//! shed — which is what measures latency–throughput curves to
//! saturation. [`Dataset::drive_open_loop`] (in [`workload`];
//! `qos_sweep`) is that driver with one default tenant under FIFO.
//! Both loops fold completions through one accounting block into one
//! report, [`QosReport`](workload::QosReport), with one
//! [`LatencyStats`] percentile machinery.

mod builder;
mod driver;
mod session;
mod stats;
mod tenant;
pub mod workload;

pub use builder::DatasetBuilder;
pub use driver::{range_for, ClosedLoopSpec};
pub use session::{Dataset, ServerStats, Session};
pub use stats::LatencyStats;
pub use tenant::{MultiQosReport, MultiTenantSpec, TenantId, TenantSpec};
pub use workload::TenantLoad;

use crate::engine::{OpTrace, OpValue};
use crate::view::ReadView;
use crate::{Result, StoreError};
use sage_io::Cqe;
use std::sync::mpsc::Receiver;

/// What a session does when the submission ring is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SubmitMode {
    /// Block until a slot frees up (backpressure). The default.
    #[default]
    Block,
    /// Fail the submission with [`StoreError::QueueFull`] instead of
    /// blocking (load shedding, counted in [`ServerStats`]). A get
    /// answered inline from the cache never waits, so is never shed.
    Fail,
}

/// A resolved operation: its typed value plus what the engine
/// measured serving it.
#[derive(Debug)]
pub struct Completion<T> {
    /// The operation's result (reads for get/scan, first read id for
    /// append).
    pub value: T,
    /// What serving it cost: device charges, chunks touched, cache
    /// outcome and, on a tracing dataset, the engine's events.
    pub report: OpTrace,
}

/// What [`StoreEngine::run_op`](crate::StoreEngine::run_op) returns,
/// and what a ticket receives.
pub(crate) type OpOutput = Result<(OpValue, OpTrace)>;

/// One engine operation placed on the virtual timeline.
pub(crate) type EngineCqe = Cqe<OpOutput>;

/// A pending typed operation; [`Ticket::wait`] blocks for its
/// [`Completion`].
///
/// Dropping a ticket abandons the answer without cancelling the
/// operation — the server still executes it and discards the result.
#[derive(Debug)]
pub struct Ticket<T> {
    rx: Receiver<OpOutput>,
    /// Static op→value pairing chosen at the submit site; `None` is
    /// unreachable because each `Session` method submits exactly the
    /// op variant its extractor matches.
    extract: fn(OpValue) -> Option<T>,
}

impl<T> Ticket<T> {
    pub(crate) fn new(rx: Receiver<OpOutput>, extract: fn(OpValue) -> Option<T>) -> Ticket<T> {
        Ticket { rx, extract }
    }

    /// Blocks until the operation resolves.
    ///
    /// # Errors
    ///
    /// The operation's own error; [`StoreError::Cancelled`] when the
    /// dataset shut down with the operation still queued; or
    /// [`StoreError::QueueClosed`] when the serving side vanished
    /// without resolving the ticket at all.
    pub fn wait(self) -> Result<Completion<T>> {
        let (value, report) = self.rx.recv().map_err(|_| StoreError::QueueClosed)??;
        Ok(Completion {
            value: (self.extract)(value).expect("session ops pair each op with its value kind"),
            report,
        })
    }

    /// Blocks for the value alone, discarding the report.
    ///
    /// # Errors
    ///
    /// Same as [`Ticket::wait`].
    pub fn join(self) -> Result<T> {
        self.wait().map(|c| c.value)
    }
}

pub(crate) fn extract_reads(v: OpValue) -> Option<ReadView> {
    match v {
        OpValue::Reads(view) => Some(view),
        OpValue::Appended(_) => None,
    }
}

pub(crate) fn extract_appended(v: OpValue) -> Option<u64> {
    match v {
        OpValue::Appended(first) => Some(first),
        OpValue::Reads(_) => None,
    }
}
