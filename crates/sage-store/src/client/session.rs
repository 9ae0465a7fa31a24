//! The serving core: [`Dataset`] (engine + reactor, whose workers or
//! submitters resolve tickets) and [`Session`] (typed submissions).

use super::{extract_appended, extract_reads, OpOutput, SubmitMode, Ticket};
use crate::engine::{OpValue, StoreEngine, StoreOp, TimingSnapshot};
use crate::lru::{CacheSnapshot, StripeSnapshot};
use crate::obs::analysis::BlameReport;
use crate::obs::{MetricsSnapshot, TraceBuffer};
use crate::view::ReadView;
use crate::{Result, StoreError};
use sage_genomics::{ReadRef, ReadSet};
use sage_io::{Cqe, DeviceCharge, DeviceSnapshot, IoBackend, IoConfig, Reactor, SubmitError};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, RwLock};

/// Point-in-time serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Operations accepted (queued, or answered inline).
    pub submitted: u64,
    /// Operations completed (answered or failed).
    pub completed: u64,
    /// [`SubmitMode::Fail`] submissions shed by a full ring.
    pub rejected: u64,
    /// Operations cancelled while queued, or unwound by a panic.
    pub cancelled: u64,
    /// Operations queued in the ring right now.
    pub queued: usize,
}

/// Where one op's answer goes: its ticket's sender. Dropped unsent —
/// the op was cancelled while queued, or its execution panicked — it
/// resolves the ticket as [`StoreError::Cancelled`] and counts it.
#[derive(Debug)]
struct Reply {
    tx: Option<SyncSender<OpOutput>>,
    cancelled: Arc<AtomicU64>,
}

impl Reply {
    fn send(mut self, payload: OpOutput) {
        if let Some(tx) = self.tx.take() {
            // A client that dropped its ticket is not an error; its
            // answer just goes nowhere.
            let _ = tx.send(payload);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            self.cancelled.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(Err(StoreError::Cancelled));
        }
    }
}

/// The serving backend: engine ops carrying their [`Reply`]. A get of
/// one cached chunk is answered inline; every other op completes its
/// ticket on the worker that ran it. Nothing reaches the completion
/// queue, and the reactor's instants are dropped: the ticket gets the
/// engine's output alone.
#[derive(Debug)]
struct SessionBackend {
    engine: Arc<StoreEngine>,
}

impl IoBackend for SessionBackend {
    type Op = (StoreOp, Reply);
    type Output = (OpOutput, Reply);

    fn execute(&self, (op, reply): Self::Op) -> (Self::Output, Vec<DeviceCharge>) {
        let output = self.engine.run_op(op);
        let charges = output
            .as_ref()
            .map_or_else(|_| Vec::new(), |(_, trace)| trace.charges.clone());
        ((output, reply), charges)
    }

    fn try_inline(
        &self,
        (op, reply): Self::Op,
    ) -> std::result::Result<(Self::Output, Vec<DeviceCharge>), Self::Op> {
        if let StoreOp::Get(range) = &op {
            if let Some(hit) = self.engine.try_get_hit(range) {
                let output = hit.map(|(view, trace)| (OpValue::Reads(view), trace));
                return Ok(((output, reply), Vec::new()));
            }
        }
        Err((op, reply))
    }

    fn complete(&self, cqe: Cqe<Self::Output>) -> Option<Cqe<Self::Output>> {
        let (output, reply) = cqe.output;
        reply.send(output);
        None
    }
}

/// The shared serving state behind [`Dataset`] and every [`Session`].
#[derive(Debug)]
pub(crate) struct ServeCore {
    engine: Arc<StoreEngine>,
    /// `None` after teardown; submissions then fail with
    /// [`StoreError::QueueClosed`]. Read-locked per submit (the
    /// reactor itself is `&self`-concurrent), write-locked once to
    /// take it down.
    reactor: RwLock<Option<Reactor<SessionBackend>>>,
    cancelled: Arc<AtomicU64>,
    /// The drives' span sink; `None` when tracing is off.
    trace: Option<Arc<TraceBuffer>>,
}

impl ServeCore {
    fn start(
        engine: Arc<StoreEngine>,
        workers: usize,
        queue_depth: usize,
        trace: Option<Arc<TraceBuffer>>,
    ) -> ServeCore {
        let reactor = Reactor::start(
            Arc::new(SessionBackend {
                engine: Arc::clone(&engine),
            }),
            IoConfig {
                workers,
                queue_depth,
            },
        );
        ServeCore {
            engine,
            reactor: RwLock::new(Some(reactor)),
            cancelled: Arc::new(AtomicU64::new(0)),
            trace,
        }
    }

    /// Submits one op, opening a ticket channel for its answer.
    pub(crate) fn submit(&self, op: StoreOp, mode: SubmitMode) -> Result<Receiver<OpOutput>> {
        let guard = self.reactor.read().expect("reactor lock poisoned");
        let Some(reactor) = guard.as_ref() else {
            return Err(StoreError::QueueClosed);
        };
        let (tx, rx) = sync_channel(1);
        let reply = Reply {
            tx: Some(tx),
            cancelled: Arc::clone(&self.cancelled),
        };
        let pushed = match mode {
            SubmitMode::Block => reactor.submit((op, reply), 0, 0.0),
            SubmitMode::Fail => reactor.try_submit((op, reply), 0, 0.0),
        };
        match pushed {
            Ok(()) => Ok(rx),
            Err((refused, (_, mut reply))) => {
                // Refused at the door, never accepted: not a
                // cancellation.
                reply.tx = None;
                Err(match refused {
                    SubmitError::Full => StoreError::QueueFull,
                    SubmitError::Closed => StoreError::QueueClosed,
                })
            }
        }
    }

    pub(crate) fn engine(&self) -> &Arc<StoreEngine> {
        &self.engine
    }

    pub(crate) fn trace(&self) -> Option<&Arc<TraceBuffer>> {
        self.trace.as_ref()
    }

    pub(crate) fn stats(&self) -> ServerStats {
        let snap = self
            .reactor
            .read()
            .expect("reactor lock poisoned")
            .as_ref()
            .map(Reactor::snapshot)
            .unwrap_or_default();
        ServerStats {
            submitted: snap.submitted,
            completed: snap.completed,
            rejected: snap.rejected,
            cancelled: self.cancelled.load(Ordering::Relaxed),
            queued: snap.queued,
        }
    }

    /// Idempotent teardown. Graceful serves everything queued;
    /// otherwise still-queued ops are dropped and their tickets
    /// resolve to [`StoreError::Cancelled`].
    pub(crate) fn stop(&self, graceful: bool) {
        // Phase 1 — close the ring through a *read* guard. A
        // Block-mode submitter stuck on a full ring is parked inside
        // `submit` while holding its own read guard, so reaching for
        // the write lock first would deadlock; closing wakes every
        // blocked submitter (their submissions fail `QueueClosed`)
        // and lets their guards go.
        {
            let guard = self.reactor.read().expect("reactor lock poisoned");
            if let Some(reactor) = guard.as_ref() {
                if graceful {
                    reactor.close();
                } else {
                    // Dropping the unserved ops drops their replies,
                    // which resolve their tickets as cancelled.
                    drop(reactor.close_now());
                }
            }
        }
        // Phase 2 — no submitter can block anymore; take the reactor
        // out and join its workers (close/close_now are idempotent).
        // Whatever a dead worker left in the ring goes with it.
        let reactor = self.reactor.write().expect("reactor lock poisoned").take();
        if let Some(reactor) = reactor {
            if graceful {
                reactor.shutdown();
            } else {
                drop(reactor.abort());
            }
        }
    }
}

impl Drop for ServeCore {
    fn drop(&mut self) {
        self.stop(true);
    }
}

/// A served dataset: the encoded chunk store, its query engine, and a
/// running reactor front end. Built by a
/// [`DatasetBuilder`](super::DatasetBuilder); open [`Session`]s on it
/// to submit operations.
///
/// Dropping the dataset (and every session on it) shuts serving down
/// gracefully: queued operations are still executed. Use
/// [`Dataset::abort`] to cancel queued work instead.
#[derive(Debug)]
pub struct Dataset {
    core: Arc<ServeCore>,
}

impl Dataset {
    /// Serves an open engine with `workers` reactor threads over a
    /// submission ring of `queue_depth` slots. With `tracing`, every
    /// operation a drive completes is recorded into the dataset's
    /// [`TraceBuffer`]. [`DatasetBuilder`](super::DatasetBuilder)
    /// validates every knob before calling this.
    pub(crate) fn start(
        engine: Arc<StoreEngine>,
        workers: usize,
        queue_depth: usize,
        tracing: bool,
    ) -> Dataset {
        let trace = tracing.then(|| Arc::new(TraceBuffer::new()));
        Dataset {
            core: Arc::new(ServeCore::start(engine, workers, queue_depth, trace)),
        }
    }

    /// Opens a session (cheap; any number may coexist).
    pub fn session(&self) -> Session {
        Session {
            core: Arc::clone(&self.core),
            mode: SubmitMode::Block,
        }
    }

    /// The engine behind the dataset.
    pub fn engine(&self) -> &Arc<StoreEngine> {
        self.core.engine()
    }

    /// Total reads currently stored.
    pub fn total_reads(&self) -> u64 {
        self.core.engine().total_reads()
    }

    /// Serving counters (accepted, completed, shed, cancelled).
    pub fn stats(&self) -> ServerStats {
        self.core.stats()
    }

    /// Decoded-chunk cache counters (aggregated across cache shards).
    pub fn cache_stats(&self) -> CacheSnapshot {
        self.core.engine().cache_stats()
    }

    /// Striped-cache shard occupancy and lock accounting.
    pub fn stripe_snapshot(&self) -> StripeSnapshot {
        self.core.engine().stripe_snapshot()
    }

    /// Aggregated device accounting.
    pub fn timing_snapshot(&self) -> TimingSnapshot {
        self.core.engine().timing_snapshot()
    }

    /// Per-device accounting.
    pub fn device_snapshots(&self) -> Vec<DeviceSnapshot> {
        self.core.engine().device_snapshots()
    }

    /// The span buffer the drives record into — `None` unless the
    /// dataset was built with
    /// [`DatasetBuilder::tracing`](super::DatasetBuilder::tracing).
    pub fn trace(&self) -> Option<Arc<TraceBuffer>> {
        self.core.trace().cloned()
    }

    /// One unified snapshot of the serving stack's counters: server
    /// submissions, cache outcome and lock time, device-model commands
    /// and seconds, and chunk decodes. Each metric is one typed field.
    ///
    /// ```
    /// use sage_store::client::DatasetBuilder;
    /// use sage_genomics::sim::{simulate_dataset, DatasetProfile};
    ///
    /// # fn main() -> Result<(), sage_store::StoreError> {
    /// let ds = simulate_dataset(&DatasetProfile::tiny_short(), 3);
    /// let dataset = DatasetBuilder::new().chunk_reads(32).encode(&ds.reads)?;
    /// dataset.session().get(0..8)?.join()?;
    /// let m = dataset.metrics();
    /// assert_eq!(m.completed, 1);
    /// assert_eq!(m.cache_misses, 1);  // cold get decoded one chunk
    /// assert_eq!(m.cache_hits, 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn metrics(&self) -> MetricsSnapshot {
        let server = self.stats();
        let cache = self.cache_stats();
        let stripes = self.stripe_snapshot();
        let timing = self.timing_snapshot();
        let decode = self.engine().decode_stats();
        MetricsSnapshot {
            submitted: server.submitted,
            completed: server.completed,
            rejected: server.rejected,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            lock_busy_seconds: stripes.lock_busy_seconds,
            device_reads: timing.reads,
            device_writes: timing.writes,
            device_read_seconds: timing.read_seconds,
            device_write_seconds: timing.write_seconds,
            chunks_decoded: decode.chunks_decoded,
            dedup_decodes: decode.dedup_decodes,
        }
    }

    /// Runs the analysis tier over the dataset's recorded spans:
    /// per-op latency blame, the windowed bottleneck timeline, and
    /// run totals (see [`analysis::analyze`](crate::obs::analysis::analyze)).
    /// Returns `None` when the dataset was served without tracing.
    /// Read-only: consumes a copy of the recorded spans and never
    /// touches the timeline.
    pub fn analyze(&self, spec: &crate::obs::analysis::AnalysisSpec) -> Option<BlameReport> {
        let trace = self.trace()?;
        let devices = self.engine().n_devices().max(1);
        Some(crate::obs::analysis::analyze(&trace.spans(), devices, spec))
    }

    /// Stops serving after the queue drains. Outstanding sessions
    /// then fail submissions with [`StoreError::QueueClosed`].
    pub fn shutdown(self) {
        self.core.stop(true);
    }

    /// Stops immediately: operations still queued are *not* executed —
    /// their tickets resolve to [`StoreError::Cancelled`].
    pub fn abort(self) {
        self.core.stop(false);
    }
}

/// A typed submission handle on a [`Dataset`].
///
/// Each operation returns a ticket typed by its result —
/// [`Session::get`] and [`Session::scan`] yield
/// [`Ticket<ReadView>`](Ticket) (a zero-copy view over the engine's
/// cached chunks), [`Session::append`] a `Ticket<u64>` — so
/// mismatching a request with the wrong response kind cannot compile.
/// Tickets resolve to [`Completion`](super::Completion)s carrying the
/// engine's [`OpTrace`](crate::OpTrace). Views read records in place;
/// [`ReadView::to_owned`] is the explicit opt-in to a per-record
/// copy.
///
/// ```
/// use sage_store::client::{DatasetBuilder, SubmitMode};
/// use sage_genomics::sim::{simulate_dataset, DatasetProfile};
///
/// # fn main() -> Result<(), sage_store::StoreError> {
/// let ds = simulate_dataset(&DatasetProfile::tiny_short(), 9);
/// let dataset = DatasetBuilder::new().chunk_reads(16).encode(&ds.reads)?;
/// let session = dataset.session().with_mode(SubmitMode::Block);
///
/// // Typed tickets: get → ReadView, append → u64. No enum matching.
/// let view = session.get(0..8)?.join()?;
/// assert_eq!(view.len(), 8);
/// let first = session.append(&view.to_owned())?.join()?;
/// assert_eq!(first, ds.reads.len() as u64);
///
/// // Every ticket also carries the operation's report.
/// let warm = session.get(0..8)?.wait()?;
/// assert_eq!(warm.report.cache_misses, 0); // chunk already decoded
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    core: Arc<ServeCore>,
    mode: SubmitMode,
}

impl Session {
    /// Returns this session with a different full-queue behavior.
    pub fn with_mode(mut self, mode: SubmitMode) -> Session {
        self.mode = mode;
        self
    }

    /// Submits a `Get` for reads `range` (dataset-global ids,
    /// half-open).
    ///
    /// # Errors
    ///
    /// [`StoreError::QueueFull`] (in [`SubmitMode::Fail`]) or
    /// [`StoreError::QueueClosed`]. The operation's own errors arrive
    /// through the ticket.
    pub fn get(&self, range: Range<u64>) -> Result<Ticket<ReadView>> {
        let rx = self.core.submit(StoreOp::Get(range), self.mode)?;
        Ok(Ticket::new(rx, extract_reads))
    }

    /// Submits a `Scan` returning every stored read matching
    /// `predicate`, which sees each read as a borrowed [`ReadRef`]
    /// into its cached chunk.
    ///
    /// # Errors
    ///
    /// Same as [`Session::get`].
    pub fn scan<F>(&self, predicate: F) -> Result<Ticket<ReadView>>
    where
        F: Fn(ReadRef<'_>) -> bool + Send + 'static,
    {
        let rx = self
            .core
            .submit(StoreOp::Scan(Box::new(predicate)), self.mode)?;
        Ok(Ticket::new(rx, extract_reads))
    }

    /// Submits an `Append`; the ticket resolves to the id of the
    /// first appended read.
    ///
    /// # Errors
    ///
    /// Same as [`Session::get`].
    pub fn append(&self, reads: &ReadSet) -> Result<Ticket<u64>> {
        let rx = self
            .core
            .submit(StoreOp::Append(reads.clone()), self.mode)?;
        Ok(Ticket::new(rx, extract_appended))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{DatasetBuilder, SubmitMode};
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};

    fn served(chunk: usize, cache: usize, workers: usize, depth: usize) -> (Dataset, ReadSet) {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 5).reads;
        let dataset = DatasetBuilder::new()
            .chunk_reads(chunk)
            .cache_chunks(cache)
            .server_workers(workers)
            .queue_depth(depth)
            .encode(&reads)
            .expect("build dataset");
        (dataset, reads)
    }

    #[test]
    fn session_answers_all_op_kinds_typed() {
        let (dataset, reads) = served(16, 8, 3, 8);
        let session = dataset.session();
        let got = session.get(0..4).unwrap().wait().unwrap();
        assert_eq!(got.value.len(), 4);
        assert_eq!(got.report.chunks_touched, 1);
        let all = session.scan(|_| true).unwrap().join().unwrap();
        assert_eq!(all.len(), reads.len());
        let extra = ReadSet::from_reads(reads.reads()[..3].to_vec());
        let first = session.append(&extra).unwrap().join().unwrap();
        assert_eq!(first, reads.len() as u64);
        assert_eq!(dataset.engine().requests_served(), 3);
        let stats = dataset.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.cancelled, 0);
        dataset.shutdown();
    }

    #[test]
    fn reports_carry_cache_outcomes() {
        let (dataset, _) = served(16, 8, 2, 8);
        let session = dataset.session();
        let cold = session.get(0..8).unwrap().wait().unwrap();
        assert_eq!(cold.report.cache_misses, 1);
        assert_eq!(cold.report.cache_hits, 0);
        let warm = session.get(0..8).unwrap().wait().unwrap();
        assert_eq!(warm.report.cache_misses, 0);
        assert_eq!(warm.report.cache_hits, 1);
        // Untimed engine: no charges either way.
        assert!(cold.report.charges.is_empty());
        assert_eq!(warm.report.device_seconds(), 0.0);
    }

    #[test]
    fn session_surfaces_request_errors_and_survives() {
        let (dataset, reads) = served(16, 8, 2, 4);
        let n = reads.len() as u64;
        let session = dataset.session();
        assert!(matches!(
            session.get(0..n * 10).unwrap().wait(),
            Err(StoreError::RangeOutOfBounds { .. })
        ));
        // The worker that answered the failing request still serves.
        assert!(session.get(0..1).unwrap().join().is_ok());
    }

    #[test]
    fn fail_mode_sheds_and_counts_rejections() {
        let (dataset, _) = served(16, 8, 1, 1);
        // One worker + depth-1 ring: a scan in flight plus one queued
        // operation saturate the server.
        let blocking = dataset.session();
        let shedding = dataset.session().with_mode(SubmitMode::Fail);
        let slow = blocking.scan(|_| true).expect("first submit");
        let mut tickets = Vec::new();
        let mut rejected = 0;
        for _ in 0..32 {
            // Two chunks: never answered inline, so always queued.
            match shedding.get(0..20) {
                Ok(t) => tickets.push(t),
                Err(StoreError::QueueFull) => rejected += 1,
                Err(other) => panic!("unexpected {other}"),
            }
        }
        assert!(rejected > 0, "ring never filled");
        assert_eq!(dataset.stats().rejected, rejected);
        // Accepted work still completes.
        assert!(slow.wait().is_ok());
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn abort_cancels_queued_ops_with_typed_error() {
        let (dataset, _) = served(16, 8, 1, 32);
        let session = dataset.session();
        // A deep backlog behind one worker guarantees queued-but-
        // unserved operations at abort time.
        let tickets: Vec<Ticket<ReadView>> =
            (0..24).map(|_| session.scan(|_| true).unwrap()).collect();
        dataset.abort();
        let mut answered = 0;
        let mut cancelled = 0;
        for t in tickets {
            match t.wait() {
                Ok(_) => answered += 1,
                Err(StoreError::Cancelled) => cancelled += 1,
                Err(other) => panic!("unexpected {other}"),
            }
        }
        assert!(cancelled > 0, "abort cancelled nothing");
        assert_eq!(answered + cancelled, 24);
        // The session outlives the dataset handle; submissions now
        // fail typed instead of hanging.
        assert!(matches!(session.get(0..1), Err(StoreError::QueueClosed)));
    }

    #[test]
    fn abort_unblocks_backpressured_submitters() {
        use std::sync::atomic::AtomicBool;
        let (dataset, _) = served(16, 8, 1, 1);
        let session = dataset.session();
        // Stall the only worker inside a scan (sleep once, on the
        // first read) so the ring stays full behind it.
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let slow = session
            .scan(move |_| {
                if !g.swap(true, Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                true
            })
            .unwrap();
        // Fill the depth-1 ring behind the busy worker…
        let queued = session.get(0..1).unwrap();
        // …and park a Block-mode submitter on the full ring.
        let blocked_session = dataset.session();
        let blocked = std::thread::spawn(move || blocked_session.get(0..2));
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Abort must not deadlock behind the parked submitter (it
        // used to: teardown wanted the write lock while the submitter
        // held a read guard inside the blocking push).
        dataset.abort();
        match blocked.join().expect("submitter thread finishes") {
            Err(StoreError::QueueClosed) => {}
            Ok(t) => {
                // Raced in before the close: it must still resolve.
                assert!(matches!(t.wait(), Ok(_) | Err(StoreError::Cancelled)));
            }
            Err(other) => panic!("unexpected {other}"),
        }
        // The in-flight scan finished; the queued get was cancelled.
        assert!(slow.wait().is_ok());
        assert!(matches!(queued.wait(), Err(StoreError::Cancelled)));
    }

    #[test]
    fn dropped_tickets_do_not_wedge_serving() {
        let (dataset, _) = served(16, 8, 2, 8);
        let session = dataset.session();
        for _ in 0..8 {
            drop(session.get(0..4).unwrap());
        }
        // The abandoned answers were executed and discarded; new work
        // still flows.
        assert!(session.get(0..2).unwrap().join().is_ok());
        dataset.shutdown();
    }

    #[test]
    fn graceful_shutdown_drains_the_queue() {
        let (dataset, _) = served(16, 8, 1, 16);
        let session = dataset.session();
        let tickets: Vec<Ticket<ReadView>> = (0..10).map(|_| session.get(0..4).unwrap()).collect();
        dataset.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok(), "graceful shutdown must serve queued work");
        }
    }

    #[test]
    fn panicking_op_does_not_wedge_serving() {
        let (dataset, _) = served(16, 8, 1, 4);
        let session = dataset.session();
        // The panicking predicate kills the only worker mid-execute.
        let t1 = session.scan(|_| panic!("predicate bomb")).unwrap();
        let t2 = session.get(0..1).unwrap();
        // Shutdown must join cleanly and resolve both tickets instead
        // of hanging their owners: the panicked op never completed,
        // and the queued one was never picked up.
        dataset.shutdown();
        assert!(matches!(t1.wait(), Err(StoreError::Cancelled)));
        assert!(matches!(t2.wait(), Err(StoreError::Cancelled)));
    }

    #[test]
    fn panicked_op_resolves_cancelled_while_serving_continues() {
        let (dataset, _) = served(16, 8, 2, 4);
        let session = dataset.session();
        let bomb = session.scan(|_| panic!("predicate bomb")).unwrap();
        // The dead worker's op resolves at once, not at shutdown: a
        // client waiting on it while holding the dataset must not
        // deadlock.
        let answer = bomb
            .rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the panicked op's ticket resolves");
        assert!(matches!(answer, Err(StoreError::Cancelled)));
        // The surviving worker still serves (two chunks: never inline).
        assert_eq!(session.get(0..20).unwrap().join().unwrap().len(), 20);
        assert_eq!(dataset.stats().cancelled, 1);
    }

    /// What [`ServeCore::stop`] does first on an abort.
    fn abort_phase_one(core: &ServeCore) {
        let guard = core.reactor.read().unwrap();
        drop(guard.as_ref().expect("serving").close_now());
    }

    /// Parks the only worker inside a scan (after the scan has filled
    /// the cache) until the returned sender fires.
    fn stall_worker(session: &Session) -> (Ticket<ReadView>, SyncSender<()>) {
        use std::sync::atomic::AtomicBool;
        let (entered_tx, entered_rx) = sync_channel(1);
        let (release_tx, release_rx) = sync_channel::<()>(1);
        let first = AtomicBool::new(true);
        let scan = session
            .scan(move |_| {
                if first.swap(false, Ordering::SeqCst) {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().ok();
                }
                true
            })
            .unwrap();
        entered_rx.recv().unwrap();
        (scan, release_tx)
    }

    #[test]
    fn counters_and_cancellations_conserve() {
        // Every joined get is counted completed before its answer
        // arrives, on the inline path and the worker path alike.
        let (dataset, reads) = served(16, 4, 2, 4);
        let session = dataset.session();
        let n = reads.len() as u64;
        for i in 0..1000u64 {
            let start = (i * 37) % (n - 8);
            session.get(start..start + 8).unwrap().join().unwrap();
            assert_eq!(dataset.stats().completed, i + 1);
        }
        let stats = dataset.stats();
        assert_eq!((stats.submitted, stats.cancelled), (1000, 0));

        // One stalled worker behind a full depth-1 ring.
        let (dataset, reads) = served(16, 4, 1, 1);
        let n = reads.len() as u64;
        let session = dataset.session();
        let shedding = dataset.session().with_mode(SubmitMode::Fail);
        let (scan, release) = stall_worker(&session);
        let queued = session.get(0..20).unwrap();
        // The scan left the last chunks cached and the first evicted:
        // a hit is still answered inline, a miss is shed.
        let hit = shedding.get(n - 1..n).unwrap().wait().unwrap();
        assert_eq!(hit.report.cache_hits, 1);
        assert!(matches!(shedding.get(0..1), Err(StoreError::QueueFull)));
        assert_eq!(dataset.stats().rejected, 1);
        assert_eq!(dataset.stats().cancelled, 0, "a shed op is not cancelled");
        // Block-mode submitters parked on the full ring: the abort
        // refuses them (`QueueClosed`), it does not cancel them.
        let more: Vec<_> = (0..3)
            .map(|_| {
                let s = session.clone();
                std::thread::spawn(move || s.get(0..20))
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Abort: cancel what is queued, then let the stalled scan end.
        let core = Arc::clone(&session.core);
        abort_phase_one(&core);
        drop(release);
        dataset.abort();
        let mut resolved_cancelled = 0;
        let tickets = more.into_iter().filter_map(|h| h.join().unwrap().ok());
        for t in tickets.chain([queued]) {
            match t.wait() {
                Ok(_) => {}
                Err(StoreError::Cancelled) => resolved_cancelled += 1,
                Err(other) => panic!("unexpected {other}"),
            }
        }
        assert!(scan.wait().is_ok(), "the in-flight op completes");
        assert!(resolved_cancelled > 0, "abort cancelled nothing");
        assert_eq!(core.stats().cancelled, resolved_cancelled);
        // A submit after teardown is refused, not cancelled.
        assert!(matches!(
            session.get(n - 1..n),
            Err(StoreError::QueueClosed)
        ));
        assert_eq!(core.stats().cancelled, resolved_cancelled);
    }

    #[test]
    fn stress_every_ticket_resolves_once_across_abort() {
        use std::sync::mpsc::RecvTimeoutError;
        let patience = std::time::Duration::from_secs(30);
        let (dataset, reads) = served(16, 4, 2, 8);
        let n = reads.len() as u64;
        let session = dataset.session();
        let core = Arc::clone(&session.core);
        let submitted = Arc::new(AtomicU64::new(0));
        let clients: Vec<_> = (0..4u64)
            .map(|seed| {
                let session = session.clone();
                let submitted = Arc::clone(&submitted);
                std::thread::spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15 ^ (seed + 1);
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    let (mut accepted, mut dropped) = (0u64, 0u64);
                    let (mut ok, mut cancelled) = (0u64, 0u64);
                    let mut inflight = std::collections::VecDeque::new();
                    let mut settle = |t: Ticket<ReadView>| {
                        let answer = t.rx.recv_timeout(patience).expect("no ticket hangs");
                        assert!(
                            matches!(
                                t.rx.recv_timeout(patience),
                                Err(RecvTimeoutError::Disconnected)
                            ),
                            "a ticket resolves exactly once"
                        );
                        match answer {
                            Ok(_) => ok += 1,
                            Err(StoreError::Cancelled) => cancelled += 1,
                            Err(other) => panic!("unexpected {other}"),
                        }
                    };
                    for _ in 0..2000 {
                        let roll = next() % 100;
                        let start = next() % (n - 40);
                        let ticket = match roll {
                            0..=1 => session.scan(|_| true),
                            2..=59 => session.get(start..start + 4),
                            _ => session.get(start..start + 40),
                        };
                        submitted.fetch_add(1, Ordering::Relaxed);
                        let Ok(ticket) = ticket else { continue };
                        accepted += 1;
                        if roll % 10 == 3 {
                            // Dropped: its answer goes nowhere.
                            dropped += 1;
                            continue;
                        }
                        inflight.push_back(ticket);
                        if inflight.len() > 6 {
                            settle(inflight.pop_front().unwrap());
                        }
                    }
                    inflight.into_iter().for_each(settle);
                    assert_eq!(accepted, ok + cancelled + dropped);
                    (accepted, cancelled, dropped)
                })
            })
            .collect();
        while submitted.load(Ordering::Relaxed) < 4000 && !clients.iter().all(|c| c.is_finished()) {
            std::thread::yield_now();
        }
        // Abort's first phase cancels the queued ops; stats stay
        // readable until the second joins the workers.
        abort_phase_one(&core);
        let (mut accepted, mut resolved_cancelled, mut dropped) = (0, 0, 0);
        for c in clients {
            let (a, x, d) = c.join().expect("client thread");
            accepted += a;
            resolved_cancelled += x;
            dropped += d;
        }
        // A dropped ticket's op may still be running on a worker.
        let deadline = std::time::Instant::now() + patience;
        let stats = loop {
            let stats = core.stats();
            if stats.submitted == stats.completed + stats.cancelled {
                break stats;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "ops never settled: {stats:?}"
            );
            std::thread::yield_now();
        };
        assert_eq!(stats.submitted, accepted);
        // Cancelled ops are the cancelled tickets plus dropped ones.
        assert!(stats.cancelled >= resolved_cancelled);
        assert!(stats.cancelled <= resolved_cancelled + dropped);
        dataset.abort();
    }
}
