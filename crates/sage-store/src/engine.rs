//! The concurrent query engine.
//!
//! [`StoreEngine`] is the shared-state core: an immutable-ish sharded
//! container behind a `RwLock` (appends take the write lock), an LRU
//! cache of decoded chunks ([`StripedCache`]), and optional
//! device timing — a [`DeviceMap`] striping chunk extents across a
//! fleet of SSD models (a single SSD is a fleet of one). Every method
//! takes `&self`, so one engine in an `Arc` serves any number of
//! client threads.
//!
//! All three operations run through **one path**: a typed [`StoreOp`]
//! goes into [`StoreEngine::run_op`] and comes back as an [`OpValue`]
//! plus an [`OpTrace`] — the device charges, chunk counts, and cache
//! outcome the operation incurred. The convenience methods
//! ([`StoreEngine::get`], [`scan`](StoreEngine::scan),
//! [`append`](StoreEngine::append)) are thin wrappers that drop the
//! trace; the serving layer ([`crate::client`]) hands it to the
//! caller as each served op's report.
//!
//! Cache misses are filled through one path too
//! (`StoreEngine::fetch_chunks`): probe the cache, read + decode the
//! missing chunks — in parallel over
//! [`EngineConfig::decode_workers`] pool threads when there are
//! several — then *commit* them (cache insert, eviction accounting)
//! on the operation's own thread in manifest order. Pool threads never
//! change what the cache holds, so cache contents, hit/miss outcomes,
//! device charges and the whole virtual timeline are independent of
//! which decode finishes first.
//!
//! The engine is served to concurrent clients by the typed session
//! API in [`crate::client`], which reports each op's charges as the
//! engine measured them; the virtual-time drives call
//! [`StoreEngine::run_op`] on their own thread and place the charges
//! on their own device timeline.

use crate::codec::{order_preserving_compressor, ShardedStore};
use crate::lru::{CachePolicy, CacheSnapshot, CacheStats, StripeSnapshot, StripedCache};
use crate::manifest::ChunkMeta;
use crate::obs::EngineEvent;
use crate::view::{ReadView, RecordSlice};
use crate::{ConfigError, Result, StoreError};
use sage_core::Extent;
use sage_genomics::{ChunkColumns, ReadRef, ReadSet};
use sage_io::{ChunkSlot, DeviceCharge, DeviceMap, DeviceSnapshot, FileBackend};
use sage_ssd::SsdConfig;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// Where chunk bytes physically live — and therefore which clock a
/// fetch moves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StoreBackend {
    /// Chunk bytes are served from the in-memory blob; devices are
    /// *models* and only the virtual timeline advances. The default,
    /// bit-identical to every release before real I/O existed.
    #[default]
    Simulated,
    /// Chunk bytes are persisted to per-device container files under
    /// the given directory and served with positioned reads
    /// ([`sage_io::FileBackend`]). Real wall-clock I/O; the virtual
    /// timeline is charged exactly as in simulated mode (the file
    /// backend itself charges zero virtual seconds), so switching
    /// backends never moves a virtual instant.
    File(PathBuf),
}

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Decoded chunks the (LRU) cache may pin.
    pub cache_chunks: usize,
    /// Cache stripes (shard = `chunk_id % n`, each shard its own lock
    /// and LRU). 1 — the default — is byte-for-byte the
    /// old single-lock cache; raise it so concurrent clients stop
    /// serializing on one mutex for every cache hit.
    pub cache_shards: usize,
    /// When set (and `ssds` is empty), chunk fetches and appends
    /// charge this one device model — a fleet of one.
    pub ssd: Option<SsdConfig>,
    /// When non-empty, chunk extents are striped across this fleet.
    /// Setting both `ssd` and `ssds` is a [`ConfigError::DeviceConflict`]
    /// — see [`EngineConfig::validate`].
    pub ssds: Vec<SsdConfig>,
    /// Worker threads compressing appended chunks (0 ⇒ available
    /// parallelism).
    pub append_workers: usize,
    /// When `true`, every operation's [`OpTrace`] additionally carries
    /// the engine-side [`EngineEvent`] stream (cache probes, decodes,
    /// device commands) for span tracing. Off by default — the
    /// untraced path allocates nothing for events, and tracing never
    /// changes what an operation computes or charges.
    pub tracing: bool,
    /// Where chunk bytes are served from: the in-memory blob
    /// (simulated, the default) or per-device container files
    /// ([`StoreBackend::File`]).
    pub backend: StoreBackend,
    /// Worker threads that read and decode a multi-chunk miss set
    /// (0 ⇒ available parallelism). Purely a wall-clock knob: the
    /// decoded chunks are committed to the cache by the operation's
    /// own thread in manifest order, so answers, cache contents and
    /// the virtual timeline are bit-identical for every value.
    pub decode_workers: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            cache_chunks: 16,
            cache_shards: 1,
            ssd: None,
            ssds: Vec::new(),
            append_workers: 0,
            tracing: false,
            backend: StoreBackend::Simulated,
            decode_workers: 0,
        }
    }
}

impl EngineConfig {
    /// Sets the cache capacity (in chunks).
    pub fn with_cache_chunks(mut self, n: usize) -> EngineConfig {
        self.cache_chunks = n;
        self
    }

    /// Stripes the decoded-chunk cache over `n` shards (shard =
    /// `chunk_id % n`, each with its own lock and LRU).
    /// `1` keeps the classic single-lock cache; must be ≥ 1. The
    /// effective count is clamped to `cache_chunks` so no shard ever
    /// has zero slots (see [`crate::lru::StripedCache::new`]).
    pub fn with_cache_shards(mut self, n: usize) -> EngineConfig {
        self.cache_shards = n;
        self
    }

    /// Enables SSD timing on one device (a fleet of one).
    pub fn with_ssd(mut self, cfg: SsdConfig) -> EngineConfig {
        self.ssd = Some(cfg);
        self
    }

    /// Enables multi-SSD timing: chunk extents striped across `fleet`.
    pub fn with_ssd_fleet(mut self, fleet: Vec<SsdConfig>) -> EngineConfig {
        self.ssds = fleet;
        self
    }

    /// Enables (or disables) engine-side event tracing: operations
    /// record their [`EngineEvent`] stream into [`OpTrace::events`].
    pub fn with_tracing(mut self, on: bool) -> EngineConfig {
        self.tracing = on;
        self
    }

    /// Selects where chunk bytes are served from (see
    /// [`StoreBackend`]).
    pub fn with_backend(mut self, backend: StoreBackend) -> EngineConfig {
        self.backend = backend;
        self
    }

    /// Sets the decode worker count for multi-chunk miss sets (0 ⇒
    /// available parallelism).
    pub fn with_decode_workers(mut self, n: usize) -> EngineConfig {
        self.decode_workers = n;
        self
    }

    /// Checks the configuration for conflicting knobs.
    ///
    /// Configuring both [`with_ssd`](EngineConfig::with_ssd) and
    /// [`with_ssd_fleet`](EngineConfig::with_ssd_fleet) used to
    /// silently let the fleet win; it is now a typed error.
    ///
    /// # Errors
    ///
    /// [`ConfigError::DeviceConflict`] when both a single SSD and a
    /// fleet are configured; [`ConfigError::ZeroCacheShards`] when the
    /// cache was striped over zero shards;
    /// [`ConfigError::EmptyBackendPath`] when a file backend was
    /// selected with an empty directory path.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        if self.ssd.is_some() && !self.ssds.is_empty() {
            return Err(ConfigError::DeviceConflict);
        }
        if self.cache_shards == 0 {
            return Err(ConfigError::ZeroCacheShards);
        }
        if let StoreBackend::File(dir) = &self.backend {
            if dir.as_os_str().is_empty() {
                return Err(ConfigError::EmptyBackendPath);
            }
        }
        Ok(())
    }
}

/// Accumulated device-time accounting for one store, aggregated
/// across its fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimingSnapshot {
    /// Device seconds spent serving chunk reads (cache misses).
    pub read_seconds: f64,
    /// Device seconds spent writing appended chunks.
    pub write_seconds: f64,
    /// Chunk-read commands issued.
    pub reads: u64,
    /// Chunk-write commands issued.
    pub writes: u64,
}

impl TimingSnapshot {
    /// Total device seconds.
    pub fn total_seconds(&self) -> f64 {
        self.read_seconds + self.write_seconds
    }
}

/// The device side of an engine: `None` when untimed, else the fleet
/// the chunk extents are striped over. A single SSD is a fleet of one:
/// chunks sit back to back in the blob from offset 0, so a one-device
/// map's local extents *are* the blob extents.
fn open_devices(cfg: &EngineConfig, store: &ShardedStore) -> Option<DeviceMap> {
    let fleet = match &cfg.ssd {
        Some(ssd) => std::slice::from_ref(ssd),
        None => &cfg.ssds[..],
    };
    if fleet.is_empty() {
        return None;
    }
    let lens: Vec<usize> = store.manifest.chunks.iter().map(|c| c.extent.len).collect();
    Some(DeviceMap::place(fleet, &lens))
}

/// The slot `map` placed chunk `id` in.
fn slot_of(map: &DeviceMap, id: u32) -> ChunkSlot {
    map.slot(id)
        .unwrap_or_else(|| panic!("chunk {id} not placed on any device"))
}

/// One store operation — the typed request vocabulary shared by
/// [`StoreEngine::run_op`], the session API in [`crate::client`], and
/// the virtual-time drives.
pub enum StoreOp {
    /// Fetch reads `range` (dataset-global ids, half-open).
    Get(Range<u64>),
    /// Return all reads matching the predicate (one [`ReadRef`] per read).
    Scan(Box<dyn Fn(ReadRef<'_>) -> bool + Send>),
    /// Append reads as new chunk(s) at the end of the dataset.
    Append(ReadSet),
}

impl std::fmt::Debug for StoreOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreOp::Get(r) => write!(f, "Get({r:?})"),
            StoreOp::Scan(_) => write!(f, "Scan(..)"),
            StoreOp::Append(rs) => write!(f, "Append({} reads)", rs.len()),
        }
    }
}

/// The value a [`StoreOp`] produces.
#[derive(Debug)]
pub enum OpValue {
    /// A zero-copy view over the cached chunks a `Get` or `Scan`
    /// touched. Resolving the view moves no payload bytes;
    /// [`ReadView::to_owned`] is the explicit opt-in to a copy.
    Reads(ReadView),
    /// First read id assigned by an `Append`.
    Appended(u64),
}

/// What serving one operation cost, as the engine measured it. A
/// session's [`Completion`](crate::client::Completion) carries it as
/// is; a drive adds the virtual-time instants its device scheduler
/// assigns.
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    /// Per-device charges the operation incurred, one per device
    /// command: a read per missed chunk, a write per appended chunk
    /// (empty when every touched chunk was cached or timing is off).
    pub charges: Vec<DeviceCharge>,
    /// Chunks the operation touched (decoded or served from cache;
    /// for appends: chunks written).
    pub chunks_touched: u64,
    /// Touched chunks served from the decoded-chunk cache.
    pub cache_hits: u64,
    /// Touched chunks that had to be fetched and decoded.
    pub cache_misses: u64,
    /// The engine-side event stream (cache probes, decodes, device
    /// commands, in deterministic chunk order). Empty unless the
    /// engine was opened with [`EngineConfig::with_tracing`] —
    /// recording events is observation-only and never changes what
    /// the operation computes or charges.
    pub events: Vec<EngineEvent>,
}

impl OpTrace {
    /// Total device service seconds across all charges, summed in
    /// charge order from +0.0 as the scheduler sums them.
    pub fn device_seconds(&self) -> f64 {
        self.charges.iter().fold(0.0, |sum, c| sum + c.seconds)
    }
}

/// One chunk fetched through the cache. Charging happens at the
/// operation level, after every fetch has committed, not here.
struct Fetched {
    reads: Arc<ChunkColumns>,
    /// `true` when the chunk was served from the cache.
    hit: bool,
}

/// Point-in-time decode-path accounting — the *wall-clock* half of
/// the fetch path (the virtual half lives in [`TimingSnapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecodeStats {
    /// Chunks actually decompressed (cache misses that did the work).
    pub chunks_decoded: u64,
    /// Decompressed payload bytes those decodes produced (bases plus
    /// quality bytes).
    pub bytes_decoded: u64,
    /// Wall-clock seconds spent parsing and decompressing chunks.
    pub decode_seconds: f64,
    /// Decodes avoided because a racing fetch of the same chunk had
    /// already produced it (single-flight dedup).
    pub dedup_decodes: u64,
}

/// A single-flight slot: the first fetch of a chunk decodes it and
/// publishes the decoded reads here; racing fetches of the same chunk
/// wait for that publication and are served from it. A waiter blocks
/// only until the *decode* finishes, never until the winner's
/// operation commits: two multi-chunk operations with overlapping miss
/// sets each hold flights the other waits on, and neither commits
/// before all of its own decodes are in.
#[derive(Debug, Default)]
struct Flight {
    /// `None` while the winner decodes, then its outcome (`Some(None)`
    /// when the winner failed).
    outcome: Mutex<Option<Option<Arc<ChunkColumns>>>>,
    cv: Condvar,
}

impl Flight {
    fn wait(&self) -> Option<Arc<ChunkColumns>> {
        let mut outcome = self.outcome.lock().expect("flight poisoned");
        loop {
            if let Some(decoded) = &*outcome {
                return decoded.clone();
            }
            outcome = self.cv.wait(outcome).expect("flight poisoned");
        }
    }

    /// Publishes the winner's outcome; the first call wins.
    fn finish(&self, decoded: Option<Arc<ChunkColumns>>) {
        self.outcome
            .lock()
            .expect("flight poisoned")
            .get_or_insert(decoded);
        self.cv.notify_all();
    }
}

/// A registered flight, held by its winner from registration until its
/// operation has committed the chunk (so a fetch arriving between the
/// decode and the commit is served by the flight instead of decoding
/// again). Dropping it deregisters the flight and wakes its waiters on
/// *every* exit path — a winner that fails before publishing can never
/// strand losers.
struct FlightGuard<'a> {
    engine: &'a StoreEngine,
    chunk_id: u32,
    flight: Arc<Flight>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.engine
            .inflight
            .lock()
            .expect("inflight poisoned")
            .remove(&self.chunk_id);
        self.flight.finish(None);
    }
}

/// What reading and decoding one missed chunk produced — everything
/// [`StoreEngine::commit_miss`] needs, and nothing that touched the
/// cache.
enum Miss<'a> {
    /// This fetch decoded the chunk; its flight stays registered until
    /// the commit.
    Decoded(Arc<ChunkColumns>, FlightGuard<'a>),
    /// A racing fetch of the same chunk produced it.
    Shared(Arc<ChunkColumns>),
}

/// The mutable store state (blob + manifest) behind the engine's lock.
#[derive(Debug)]
struct StoreState {
    store: ShardedStore,
}

/// The concurrent random-access query engine.
#[derive(Debug)]
pub struct StoreEngine {
    state: RwLock<StoreState>,
    cache: StripedCache<ChunkColumns>,
    stats: CacheStats,
    devices: Option<DeviceMap>,
    append_workers: usize,
    tracing: bool,
    requests_served: AtomicU64,
    /// Payload bytes memcpy'd on the serving read path (the extent
    /// copy a cache miss takes under the read guard). Cache-hit reads
    /// resolve as [`ReadView`]s and add **zero** here — the metric the
    /// zero-copy refactor is accountable to.
    bytes_copied: AtomicU64,
    /// The real-bytes backend, when [`StoreBackend::File`] is
    /// configured: fetches `pread` their extents from per-device
    /// container files and appends write through.
    file_store: Option<Arc<FileBackend>>,
    decode_workers: usize,
    /// Chunks with a decode currently in flight (single-flight dedup).
    inflight: Mutex<HashMap<u32, Arc<Flight>>>,
    chunks_decoded: AtomicU64,
    bytes_decoded: AtomicU64,
    decode_ns: AtomicU64,
    dedup_decodes: AtomicU64,
}

/// Assembles the per-device container images for a real-bytes
/// backend: one image per timed device holding its chunks at their
/// device-local extents, or one whole-blob image when the engine is
/// untimed.
fn device_images(store: &ShardedStore, devices: Option<&DeviceMap>) -> Vec<Vec<u8>> {
    let Some(map) = devices else {
        return vec![store.blob.clone()];
    };
    let mut images: Vec<Vec<u8>> = vec![Vec::new(); map.n_devices()];
    for meta in store.manifest.chunks.iter() {
        let slot = slot_of(map, meta.id);
        // Chunks are placed in id order, so each device's local
        // extents accumulate contiguously.
        debug_assert_eq!(images[slot.device].len(), slot.local.offset);
        images[slot.device].extend_from_slice(&store.blob[meta.extent.offset..meta.extent.end()]);
    }
    images
}

impl StoreEngine {
    /// Opens an engine over an encoded store, validating the
    /// configuration first.
    ///
    /// # Errors
    ///
    /// [`StoreError::Config`] when the configuration is invalid (e.g.
    /// both a single SSD and a fleet configured).
    pub fn try_open(store: ShardedStore, cfg: EngineConfig) -> Result<StoreEngine> {
        cfg.validate()?;
        let devices = open_devices(&cfg, &store);
        let file_store = match &cfg.backend {
            StoreBackend::Simulated => None,
            StoreBackend::File(dir) => {
                let images = device_images(&store, devices.as_ref());
                let backend = FileBackend::open_or_create(dir, &images)
                    .map_err(|e| StoreError::Backend(format!("opening {}: {e}", dir.display())))?;
                Some(Arc::new(backend))
            }
        };
        Ok(StoreEngine {
            cache: StripedCache::new(CachePolicy::Lru, cfg.cache_chunks, cfg.cache_shards),
            stats: CacheStats::default(),
            devices,
            append_workers: cfg.append_workers,
            tracing: cfg.tracing,
            requests_served: AtomicU64::new(0),
            bytes_copied: AtomicU64::new(0),
            file_store,
            decode_workers: cfg.decode_workers,
            inflight: Mutex::new(HashMap::new()),
            chunks_decoded: AtomicU64::new(0),
            bytes_decoded: AtomicU64::new(0),
            decode_ns: AtomicU64::new(0),
            dedup_decodes: AtomicU64::new(0),
            state: RwLock::new(StoreState { store }),
        })
    }

    /// Opens an engine over an encoded store.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid — use
    /// [`StoreEngine::try_open`] (or the
    /// [`DatasetBuilder`](crate::client::DatasetBuilder)) to get the
    /// conflict as a typed error instead.
    pub fn open(store: ShardedStore, cfg: EngineConfig) -> StoreEngine {
        StoreEngine::try_open(store, cfg).expect("invalid engine configuration")
    }

    /// Total reads currently stored.
    pub fn total_reads(&self) -> u64 {
        self.state
            .read()
            .expect("state poisoned")
            .store
            .total_reads()
    }

    /// Requests served so far (gets + scans + appends).
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Number of timed devices behind the engine (0 when timing is
    /// off, the fleet size otherwise).
    pub fn n_devices(&self) -> usize {
        self.devices.as_ref().map_or(0, DeviceMap::n_devices)
    }

    /// Cache counters (hits/misses/evictions aggregated across cache
    /// shards).
    pub fn cache_stats(&self) -> CacheSnapshot {
        self.stats.snapshot()
    }

    /// Shard occupancy and lock accounting of the striped cache.
    pub fn stripe_snapshot(&self) -> StripeSnapshot {
        self.cache.stripe_snapshot()
    }

    /// Cache shard count.
    pub fn cache_shards(&self) -> usize {
        self.cache.n_shards()
    }

    /// Payload bytes memcpy'd on the serving read path so far. A
    /// cache miss copies its chunk's extent out of the blob (under a
    /// short read guard, before decoding); cache-hit gets and scans
    /// copy **nothing** — results are [`ReadView`]s over the cached
    /// chunks.
    pub fn payload_bytes_copied(&self) -> u64 {
        self.bytes_copied.load(Ordering::Relaxed)
    }

    /// Decode-path wall-clock accounting (chunks/bytes decoded, decode
    /// seconds, single-flight dedups).
    pub fn decode_stats(&self) -> DecodeStats {
        DecodeStats {
            chunks_decoded: self.chunks_decoded.load(Ordering::Relaxed),
            bytes_decoded: self.bytes_decoded.load(Ordering::Relaxed),
            decode_seconds: self.decode_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            dedup_decodes: self.dedup_decodes.load(Ordering::Relaxed),
        }
    }

    /// The real-bytes backend behind the engine, when one is
    /// configured ([`StoreBackend::File`]).
    pub fn file_backend(&self) -> Option<&Arc<FileBackend>> {
        self.file_store.as_ref()
    }

    /// Accumulated device accounting, aggregated across the fleet
    /// (all zeros when timing is off).
    pub fn timing_snapshot(&self) -> TimingSnapshot {
        let mut agg = TimingSnapshot::default();
        for s in self.device_snapshots() {
            agg.reads += s.reads;
            agg.writes += s.writes;
            agg.read_seconds += s.read_seconds;
            agg.write_seconds += s.write_seconds;
        }
        agg
    }

    /// Per-device accounting (empty when timing is off).
    pub fn device_snapshots(&self) -> Vec<DeviceSnapshot> {
        self.devices
            .as_ref()
            .map_or_else(Vec::new, DeviceMap::snapshots)
    }

    /// Where the real-bytes backend keeps chunk `id`: its device's
    /// container and the offset in it. An untimed engine has one
    /// container holding the whole blob, where `blob_offset` is the
    /// chunk's place.
    fn container_home(&self, id: u32, blob_offset: usize) -> (usize, u64) {
        match &self.devices {
            Some(map) => {
                let slot = slot_of(map, id);
                (slot.device, slot.local.offset as u64)
            }
            None => (0, blob_offset as u64),
        }
    }

    /// Reads one chunk's compressed extent — out of the in-memory
    /// blob (simulated backend) or via `pread` from the owning
    /// device's container file (real-bytes backend). Either way the
    /// bytes are counted in [`StoreEngine::payload_bytes_copied`];
    /// virtual device charging happens at the operation level, never
    /// here.
    fn read_extent_bytes(&self, meta: &ChunkMeta) -> Result<Vec<u8>> {
        let chunk_id = meta.id;
        // Chunks are immutable once written (appends only add new
        // ones), so bytes read under — or, for the file backend,
        // after — a short read guard stay valid.
        let from_blob = {
            let state = self.state.read().expect("state poisoned");
            // Bounds are validated against the manifest/blob even in
            // file mode: the blob remains the appendable source of
            // truth the container files mirror.
            if meta.extent.end() > state.store.blob.len() {
                return Err(StoreError::CorruptChunk {
                    chunk_id,
                    cause: sage_core::error::SageError::Corrupt("chunk extent outside blob".into()),
                });
            }
            match &self.file_store {
                None => Some(state.store.blob[meta.extent.offset..meta.extent.end()].to_vec()),
                Some(_) => None,
            }
        };
        let bytes = match from_blob {
            Some(bytes) => bytes,
            None => {
                let backend = self.file_store.as_ref().expect("file backend configured");
                let (device, offset) = self.container_home(chunk_id, meta.extent.offset);
                backend
                    .read_extent(device, offset, meta.extent.len as u64)
                    .map_err(|e| {
                        StoreError::Backend(format!(
                            "chunk {chunk_id} read on device {device}: {e}"
                        ))
                    })?
            }
        };
        self.bytes_copied
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Parses and decodes one chunk's compressed bytes, timing the work
    /// into the wall-clock decode counters.
    fn decode_chunk_bytes(&self, meta: &ChunkMeta, bytes: &[u8]) -> Result<Arc<ChunkColumns>> {
        let started = Instant::now();
        let extent = Extent {
            offset: 0,
            len: bytes.len(),
        };
        let cols = crate::codec::decode_chunk(bytes, extent, meta)?;
        self.decode_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.chunks_decoded.fetch_add(1, Ordering::Relaxed);
        self.bytes_decoded
            .fetch_add(cols.payload_bytes() as u64, Ordering::Relaxed);
        Ok(Arc::new(cols))
    }

    /// Reads and decodes one chunk the cache probe missed, single-flight
    /// deduplicated: exactly one fetch decodes a given chunk at a time.
    /// The winner reads the extent and decodes outside every lock
    /// (concurrent misses on different chunks overlap, and a pending
    /// `append` only waits for the brief extent-bytes read); racing
    /// fetches of the same chunk wait on the winner's flight and take
    /// the decoded reads from it. If the winner fails, a waiter retries
    /// and may become the next winner. Safe to call from a pool worker:
    /// it never touches the cache's contents or the eviction counters —
    /// that is [`StoreEngine::commit_miss`]'s job, on the operation's
    /// own thread — and it allocates nothing but the decoded reads that
    /// outlives the call: `fresh`, the flight it registers if it wins,
    /// is the caller's.
    fn decode_miss(&self, meta: &ChunkMeta, fresh: &Arc<Flight>) -> Result<Miss<'_>> {
        let chunk_id = meta.id;
        loop {
            let racing = {
                let mut inflight = self.inflight.lock().expect("inflight poisoned");
                match inflight.entry(chunk_id) {
                    Entry::Occupied(o) => Some(Arc::clone(o.get())),
                    Entry::Vacant(v) => {
                        v.insert(Arc::clone(fresh));
                        None
                    }
                }
            };
            if let Some(racing) = racing {
                match racing.wait() {
                    Some(reads) => return Ok(Miss::Shared(reads)),
                    None => continue,
                }
            }
            let guard = FlightGuard {
                engine: self,
                chunk_id,
                flight: Arc::clone(fresh),
            };
            // The chunk may have been committed between the caller's
            // probe and our registration: no need to decode it again.
            if let Some(reads) = self.cache.get(chunk_id) {
                return Ok(Miss::Shared(reads));
            }
            let chunk_bytes = self.read_extent_bytes(meta)?;
            let reads = self.decode_chunk_bytes(meta, &chunk_bytes)?;
            guard.flight.finish(Some(Arc::clone(&reads)));
            return Ok(Miss::Decoded(reads, guard));
        }
    }

    /// Records one probed-and-found chunk.
    fn commit_hit(&self, reads: Arc<ChunkColumns>) -> Result<Fetched> {
        self.stats.hit();
        Ok(Fetched { reads, hit: true })
    }

    /// Commits one probed-and-missed chunk: the miss, the cache insert
    /// and its evictions. Runs on the operation's own thread, once per
    /// miss in manifest order, so cache contents — hence later
    /// hit/miss outcomes, device charges and the virtual timeline —
    /// never depend on which decode finished first.
    ///
    /// Charging happens at the operation level, one command per
    /// missed chunk in manifest order, and only for fetches that
    /// *succeed*: a chunk that fails validation charges
    /// nothing, so device counters, the traced charges, and a drive's
    /// virtual timeline all agree on exactly the successful fetch
    /// set. A chunk a racing fetch decoded is still the miss its
    /// probe was, and is charged like one: single-flight saves host
    /// work, and whether two operations happened to overlap in wall
    /// time must not move a virtual charge.
    fn commit_miss(&self, miss: Result<Miss<'_>>) -> Result<Fetched> {
        self.stats.miss();
        let reads = match miss? {
            Miss::Decoded(reads, guard) => {
                let evicted = self.cache.insert(guard.chunk_id, Arc::clone(&reads));
                self.stats.evicted(evicted);
                reads
            }
            Miss::Shared(reads) => {
                self.dedup_decodes.fetch_add(1, Ordering::Relaxed);
                reads
            }
        };
        Ok(Fetched { reads, hit: false })
    }

    /// Fetches an operation's chunks through the cache — the one
    /// miss-fill path: probe, read + decode the misses in parallel,
    /// commit them in manifest order.
    ///
    /// Cache hits are served first through the striped batch probe —
    /// one shard-lock acquisition per touched shard, not one per chunk.
    /// Two or more misses fan out over the codec worker pool
    /// ([`EngineConfig::decode_workers`] threads, each reading *and*
    /// decoding its chunk) so a wide cold `get`/`scan` does not decode
    /// one-chunk-at-a-time on the request thread; a lone miss is
    /// decoded in place, so a warm or single-chunk request never pays
    /// thread-spawn overhead.
    fn fetch_chunks(&self, metas: &[ChunkMeta]) -> Vec<Result<Fetched>> {
        // Single-chunk operations — the dominant warm-get shape —
        // skip the batch-probe machinery (and its allocations).
        if let [meta] = metas {
            return vec![match self.cache.get(meta.id) {
                Some(reads) => self.commit_hit(reads),
                None => self.commit_miss(self.decode_miss(meta, &Arc::default())),
            }];
        }
        let ids: Vec<u32> = metas.iter().map(|m| m.id).collect();
        let probed = self.cache.get_batch(&ids);
        let missing: Vec<&ChunkMeta> = metas
            .iter()
            .zip(&probed)
            .filter_map(|(meta, hit)| hit.is_none().then_some(meta))
            .collect();
        let mut decoded = match missing[..] {
            [] => Vec::new(),
            [meta] => vec![self.decode_miss(meta, &Arc::default())],
            _ => {
                let n = missing.len();
                // All `n` flights stay registered until the commit
                // below. Their table slots and the flights themselves
                // are allocated here, not by whichever pool job gets
                // there first: a pool thread's heap then holds decoded
                // reads only and is whole again once they are dropped.
                // Anything else a job left behind — a resized table, a
                // flight this thread frees later — would pin that heap,
                // and peak RSS would move with the jobs' timing.
                self.inflight.lock().expect("inflight poisoned").reserve(n);
                let flights: Vec<Arc<Flight>> = (0..n).map(|_| Arc::default()).collect();
                crate::codec::run_pool(n, self.decode_pool_workers(n), |j| {
                    self.decode_miss(missing[j], &flights[j])
                })
            }
        }
        .into_iter();
        probed
            .into_iter()
            .map(|hit| match hit {
                Some(reads) => self.commit_hit(reads),
                None => self.commit_miss(decoded.next().expect("one decode per miss")),
            })
            .collect()
    }

    /// Decode workers for an `n`-chunk miss set: the configured knob,
    /// or available parallelism when unset, never more than the work.
    fn decode_pool_workers(&self, n: usize) -> usize {
        let configured = if self.decode_workers > 0 {
            self.decode_workers
        } else {
            crate::codec::default_workers()
        };
        configured.clamp(1, n.max(1))
    }

    /// Resolves the charges and cache outcome of one read operation:
    /// records hits/misses per touched chunk and issues one device
    /// command per successfully fetched miss, in chunk order.
    fn trace_reads(&self, metas: &[ChunkMeta], fetched: &[Result<Fetched>]) -> OpTrace {
        let mut trace = OpTrace::default();
        for (meta, f) in metas.iter().zip(fetched) {
            let Ok(f) = f else { continue };
            trace.chunks_touched += 1;
            if self.tracing {
                trace.events.push(EngineEvent::CacheProbe {
                    chunk: meta.id,
                    hit: f.hit,
                });
            }
            if f.hit {
                trace.cache_hits += 1;
            } else {
                trace.cache_misses += 1;
                if self.tracing {
                    trace.events.push(EngineEvent::Decode { chunk: meta.id });
                }
                if let Some(map) = &self.devices {
                    trace.charges.push(map.charge_chunk_read(meta.id));
                }
            }
        }
        if self.tracing {
            trace
                .events
                .extend(trace.charges.iter().map(|c| EngineEvent::DeviceCommand {
                    device: c.device,
                    seconds: c.seconds,
                }));
        }
        trace
    }

    /// Runs one typed operation — the single serving path behind
    /// every public accessor, the session API, and the virtual-time
    /// drives.
    ///
    /// # Errors
    ///
    /// [`StoreError::RangeOutOfBounds`] when a `Get` reaches past the
    /// stored dataset; [`StoreError::CorruptChunk`] when a chunk fails
    /// validation; codec errors from an `Append`.
    pub fn run_op(&self, op: StoreOp) -> Result<(OpValue, OpTrace)> {
        match op {
            StoreOp::Get(range) => self
                .op_get(range)
                .map(|(view, trace)| (OpValue::Reads(view), trace)),
            StoreOp::Scan(pred) => self
                .op_scan(&*pred)
                .map(|(view, trace)| (OpValue::Reads(view), trace)),
            StoreOp::Append(reads) => self
                .op_append(&reads)
                .map(|(first, trace)| (OpValue::Appended(first), trace)),
        }
    }

    /// Returns reads `range` (dataset-global ids, half-open) as a
    /// zero-copy [`ReadView`] over the cached chunks, decoding only
    /// the chunks the range touches.
    ///
    /// # Errors
    ///
    /// [`StoreError::RangeOutOfBounds`] when the range reaches past
    /// the stored dataset; [`StoreError::CorruptChunk`] when a chunk
    /// fails validation.
    pub fn get_view(&self, range: Range<u64>) -> Result<ReadView> {
        self.op_get(range).map(|(view, _)| view)
    }

    /// Returns reads `range` as an **owned** [`ReadSet`] — the
    /// compatibility wrapper over [`StoreEngine::get_view`], paying
    /// one copy per record. Prefer the view on hot paths.
    ///
    /// # Errors
    ///
    /// Same as [`StoreEngine::get_view`].
    pub fn get(&self, range: Range<u64>) -> Result<ReadSet> {
        self.get_view(range).map(|view| view.to_owned())
    }

    /// Returns every stored read matching `predicate` as a zero-copy
    /// [`ReadView`], walking all chunks through the cache.
    ///
    /// # Errors
    ///
    /// [`StoreError::CorruptChunk`] when a chunk fails validation.
    pub fn scan_view<F: Fn(ReadRef<'_>) -> bool>(&self, predicate: F) -> Result<ReadView> {
        self.op_scan(&predicate).map(|(view, _)| view)
    }

    /// Returns every matching read as an **owned** [`ReadSet`] — the
    /// compatibility wrapper over [`StoreEngine::scan_view`].
    ///
    /// # Errors
    ///
    /// Same as [`StoreEngine::scan_view`].
    pub fn scan<F: Fn(ReadRef<'_>) -> bool>(&self, predicate: F) -> Result<ReadSet> {
        self.scan_view(predicate).map(|view| view.to_owned())
    }

    /// Appends reads as new chunk(s) at the end of the dataset,
    /// returning the id of the first appended read.
    ///
    /// Appended reads always form *new* chunks — an undersized tail
    /// chunk is never reopened (chunks are immutable, which is what
    /// lets readers run unlocked); repeated small appends therefore
    /// accumulate undersized chunks until a future compaction pass.
    ///
    /// # Errors
    ///
    /// Propagates codec failures from compressing the new chunks.
    pub fn append(&self, reads: &ReadSet) -> Result<u64> {
        self.op_append(reads).map(|(first, _)| first)
    }

    /// The `Get` path: an O(1) snapshot of the `Arc`'d chunk table
    /// under a short guard (no [`ChunkMeta`] is copied), then
    /// unlocked fetches resolving into a zero-copy [`ReadView`].
    fn op_get(&self, range: Range<u64>) -> Result<(ReadView, OpTrace)> {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        let (chunks, span) = self.chunk_span(&range)?;
        // The Arc snapshot stays valid unlocked: appends mutate the
        // table copy-on-write, never in place under readers.
        let metas = &chunks[span];
        let fetched = self.fetch_chunks(metas);
        self.get_answer(&range, metas, fetched)
    }

    /// Answers a `Get` from the cache alone, exactly as
    /// [`StoreEngine::run_op`] would, when `range` is in the store and
    /// inside one resident chunk; never decodes. `None` counts
    /// nothing — no request, hit or miss (a missed LRU probe only
    /// advances its clock, which never reorders eviction).
    pub fn try_get_hit(&self, range: &Range<u64>) -> Option<Result<(ReadView, OpTrace)>> {
        let (chunks, span) = self.chunk_span(range).ok()?;
        let [meta] = &chunks[span] else {
            return None;
        };
        let reads = self.cache.get(meta.id)?;
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        let fetched = vec![self.commit_hit(reads)];
        Some(self.get_answer(range, std::slice::from_ref(meta), fetched))
    }

    /// The chunk table and the span of chunks `range` touches.
    fn chunk_span(&self, range: &Range<u64>) -> Result<(Arc<Vec<ChunkMeta>>, Range<usize>)> {
        let state = self.state.read().expect("state poisoned");
        let total = state.store.total_reads();
        if range.end > total {
            return Err(StoreError::RangeOutOfBounds {
                start: range.start,
                end: range.end,
                total,
            });
        }
        let (lo_ix, hi_ix) = state.store.manifest.range_bounds(range.start, range.end);
        Ok((Arc::clone(&state.store.manifest.chunks), lo_ix..hi_ix))
    }

    /// A get's view (`range` sliced out of `metas`) and trace.
    fn get_answer(
        &self,
        range: &Range<u64>,
        metas: &[ChunkMeta],
        fetched: Vec<Result<Fetched>>,
    ) -> Result<(ReadView, OpTrace)> {
        let trace = self.trace_reads(metas, &fetched);
        let mut view = ReadView::new();
        for (meta, f) in metas.iter().zip(fetched) {
            let f = f?;
            let lo = range.start.saturating_sub(meta.first_read) as usize;
            let hi = (range.end.min(meta.end_read()) - meta.first_read) as usize;
            view.push(RecordSlice::range(f.reads, lo, hi));
        }
        Ok((view, trace))
    }

    /// Sparse scan matches are *compacted*: a slice keeping fewer
    /// than one record in this many alive would otherwise pin the
    /// whole decoded chunk for the view's lifetime.
    const SCAN_COMPACT_FACTOR: usize = 8;

    /// The `Scan` path: snapshots the `Arc`'d chunk table in O(1)
    /// (reads appended mid-scan are not part of this scan's view —
    /// and the per-scan clone of the whole chunk table is gone), then
    /// resolves matches as zero-copy slices.
    ///
    /// Per-chunk match representation, cheapest first: a contiguous
    /// match run (including the full-chunk `scan(|_| true)` shape)
    /// becomes an O(1) index *range* — no per-record index vector; a
    /// scattered match set becomes an index list. Either way the
    /// slice pins its decoded chunk, so **sparse** matches (fewer
    /// than 1 in [`Self::SCAN_COMPACT_FACTOR`] records) are compacted
    /// into a private copy instead — a long-lived scan result holds
    /// at most ~8× its matched records of decoded data, not the whole
    /// dataset the scan walked (the compaction copy is counted in
    /// [`StoreEngine::payload_bytes_copied`]).
    fn op_scan(&self, predicate: &dyn Fn(ReadRef<'_>) -> bool) -> Result<(ReadView, OpTrace)> {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        let chunks = {
            let state = self.state.read().expect("state poisoned");
            Arc::clone(&state.store.manifest.chunks)
        };
        let fetched = self.fetch_chunks(&chunks);
        let trace = self.trace_reads(&chunks, &fetched);
        let mut view = ReadView::new();
        for f in fetched {
            let f = f?;
            // Track the leading contiguous run `[lo, hi)`; spill to an
            // explicit index list only once contiguity breaks, so dense
            // scans never allocate per-record indices.
            let (mut lo, mut hi, mut spilled) = (0u32, 0u32, Vec::new());
            for (i, r) in (0u32..).zip(f.reads.iter()) {
                if !predicate(r) {
                    continue;
                }
                if hi == lo {
                    (lo, hi) = (i, i + 1);
                } else if spilled.is_empty() && i == hi {
                    hi += 1;
                } else {
                    if spilled.is_empty() {
                        spilled.extend(lo..hi);
                    }
                    spilled.push(i);
                }
            }
            let chunk_len = f.reads.len();
            let slice = match (hi > lo, spilled.is_empty()) {
                (false, _) => continue,
                (true, true) => RecordSlice::range(f.reads, lo as usize, hi as usize),
                (true, false) => RecordSlice::indices(f.reads, spilled),
            };
            if slice.len() * Self::SCAN_COMPACT_FACTOR <= chunk_len {
                let owned: ChunkColumns = slice.iter().collect();
                self.bytes_copied
                    .fetch_add(owned.payload_bytes() as u64, Ordering::Relaxed);
                let n = owned.len();
                view.push(RecordSlice::range(Arc::new(owned), 0, n));
            } else {
                view.push(slice);
            }
        }
        Ok((view, trace))
    }

    /// The `Append` path.
    ///
    /// The chunks are compressed *before* the state write lock is
    /// taken (in parallel over the codec's worker pool), so concurrent
    /// `get`/`scan` traffic only waits for the cheap blob/manifest
    /// splice. Concurrent appends serialize at the splice; their read
    /// ids are assigned there, in splice order.
    fn op_append(&self, reads: &ReadSet) -> Result<(u64, OpTrace)> {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        if reads.is_empty() {
            return Ok((self.total_reads(), OpTrace::default()));
        }
        // Chunk population never changes after encode, so reading it
        // outside the write lock is safe.
        let per_chunk = {
            let state = self.state.read().expect("state poisoned");
            state.store.manifest.reads_per_chunk.max(1) as usize
        };
        let chunks: Vec<&[sage_genomics::Read]> = reads.reads().chunks(per_chunk).collect();
        let workers = if self.append_workers > 0 {
            self.append_workers
        } else {
            crate::codec::default_workers()
        };
        // Encoding fails before splicing anything: an error must not
        // leave a partial append behind.
        let encoded =
            crate::codec::encode_chunks(&chunks, &order_preserving_compressor(), workers)?;

        let mut state = self.state.write().expect("state poisoned");
        let first_id = state.store.total_reads();
        let mut trace = OpTrace::default();
        for (chunk, bytes) in chunks.iter().zip(encoded) {
            let blob_offset = state.store.blob.len();
            state.store.splice_chunk(chunk.len() as u64, &bytes);
            trace.chunks_touched += 1;
            // Charging the append places the chunk on its device.
            trace
                .charges
                .extend(self.devices.as_ref().map(|m| m.append_chunk(bytes.len())));
            // Real-bytes backend: the appended chunk writes through to
            // its owning device's container (placed just above, so its
            // device-local slot exists by now). Appends serialize on
            // the state write lock, so container writes stay ordered
            // with the splices they mirror.
            if let Some(backend) = &self.file_store {
                let id = (state.store.n_chunks() - 1) as u32;
                let (device, offset) = self.container_home(id, blob_offset);
                backend.write_at(device, offset, &bytes).map_err(|e| {
                    StoreError::Backend(format!("append write on device {device}: {e}"))
                })?;
            }
        }
        if self.tracing {
            trace
                .events
                .extend(trace.charges.iter().map(|c| EngineEvent::DeviceCommand {
                    device: c.device,
                    seconds: c.seconds,
                }));
        }
        Ok((first_id, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_sharded;
    use crate::StoreOptions;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};

    fn engine(chunk: usize, cache: usize) -> (StoreEngine, ReadSet) {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 5).reads;
        let store = encode_sharded(&reads, &StoreOptions::new(chunk)).unwrap();
        (
            StoreEngine::open(store, EngineConfig::default().with_cache_chunks(cache)),
            reads,
        )
    }

    #[test]
    fn get_matches_source_reads() {
        let (engine, reads) = engine(16, 8);
        let n = reads.len() as u64;
        let got = engine.get(5..37).unwrap();
        assert_eq!(got.len(), 32);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.seq, reads.reads()[5 + i].seq);
            assert_eq!(r.qual, reads.reads()[5 + i].qual);
        }
        assert!(engine.get(0..n).is_ok());
        assert!(matches!(
            engine.get(0..n + 1),
            Err(StoreError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn conflicting_device_knobs_are_a_typed_error() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 5).reads;
        let store = encode_sharded(&reads, &StoreOptions::new(16)).unwrap();
        let cfg = EngineConfig::default()
            .with_ssd(SsdConfig::pcie())
            .with_ssd_fleet(vec![SsdConfig::pcie(), SsdConfig::pcie()]);
        assert_eq!(cfg.validate(), Err(ConfigError::DeviceConflict));
        match StoreEngine::try_open(store, cfg) {
            Err(StoreError::Config(ConfigError::DeviceConflict)) => {}
            other => panic!("expected DeviceConflict, got {other:?}"),
        }
    }

    #[test]
    fn repeated_gets_hit_the_cache() {
        let (engine, _) = engine(16, 8);
        engine.get(0..16).unwrap();
        let cold = engine.cache_stats();
        assert_eq!(cold.misses, 1);
        assert_eq!(cold.hits, 0);
        engine.get(0..16).unwrap();
        engine.get(4..12).unwrap();
        let warm = engine.cache_stats();
        assert_eq!(warm.misses, 1);
        assert_eq!(warm.hits, 2);
        assert!(warm.hit_rate() > 0.6);
    }

    #[test]
    fn scan_filters_across_all_chunks() {
        let (engine, reads) = engine(10, 4);
        let want = reads
            .iter()
            .filter(|r| r.seq.as_slice().first() == Some(&sage_genomics::Base::A))
            .count();
        let got = engine
            .scan(|r| r.seq.first() == Some(&sage_genomics::Base::A))
            .unwrap();
        assert_eq!(got.len(), want);
    }

    #[test]
    fn append_extends_the_dataset() {
        let (engine, reads) = engine(16, 8);
        let n = reads.len() as u64;
        let extra = ReadSet::from_reads(reads.reads()[..5].to_vec());
        let first = engine.append(&extra).unwrap();
        assert_eq!(first, n);
        assert_eq!(engine.total_reads(), n + 5);
        let got = engine.get(n..n + 5).unwrap();
        for (a, b) in got.iter().zip(extra.iter()) {
            assert_eq!(a.seq, b.seq);
        }
        // Empty appends are a no-op.
        assert_eq!(engine.append(&ReadSet::new()).unwrap(), n + 5);
        assert_eq!(engine.total_reads(), n + 5);
    }

    #[test]
    fn run_op_answers_all_op_kinds() {
        let (engine, reads) = engine(16, 8);
        match engine.run_op(StoreOp::Get(0..4)).unwrap() {
            (OpValue::Reads(rs), trace) => {
                assert_eq!(rs.len(), 4);
                assert_eq!(trace.chunks_touched, 1);
                assert_eq!(trace.cache_misses, 1);
            }
            other => panic!("wrong value {other:?}"),
        }
        match engine.run_op(StoreOp::Scan(Box::new(|_| true))).unwrap() {
            (OpValue::Reads(rs), trace) => {
                assert_eq!(rs.len(), reads.len());
                assert_eq!(trace.chunks_touched as usize, reads.len().div_ceil(16));
                // The scan re-touches the chunk the get decoded.
                assert_eq!(trace.cache_hits, 1);
            }
            other => panic!("wrong value {other:?}"),
        }
        let extra = ReadSet::from_reads(reads.reads()[..3].to_vec());
        match engine.run_op(StoreOp::Append(extra)).unwrap() {
            (OpValue::Appended(first), trace) => {
                assert_eq!(first, reads.len() as u64);
                assert_eq!(trace.chunks_touched, 1);
            }
            other => panic!("wrong value {other:?}"),
        }
        assert_eq!(engine.requests_served(), 3);
    }

    #[test]
    fn timed_engine_accounts_device_seconds() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 6).reads;
        let store = encode_sharded(&reads, &StoreOptions::new(8)).unwrap();
        let engine = StoreEngine::open(
            store,
            EngineConfig::default()
                .with_cache_chunks(2)
                .with_ssd(SsdConfig::pcie()),
        );
        engine.get(0..8).unwrap();
        let cold = engine.timing_snapshot();
        assert!(cold.read_seconds > 0.0);
        assert_eq!(cold.reads, 1);
        // A warm hit charges no further device time.
        engine.get(0..8).unwrap();
        let warm = engine.timing_snapshot();
        assert_eq!(warm.reads, 1);
        assert!((warm.read_seconds - cold.read_seconds).abs() < 1e-18);
    }

    #[test]
    fn single_ssd_is_a_fleet_of_one() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 6).reads;
        let store = encode_sharded(&reads, &StoreOptions::new(8)).unwrap();
        let extra = ReadSet::from_reads(reads.reads()[..20].to_vec());
        let observe = |cfg: EngineConfig| {
            let engine = StoreEngine::open(store.clone(), cfg.with_cache_chunks(2));
            let n = engine.total_reads();
            let charges: Vec<Vec<(usize, u64)>> = [
                StoreOp::Get(5..n - 5),
                StoreOp::Scan(Box::new(|_| true)),
                StoreOp::Append(extra.clone()),
                StoreOp::Get(n..n + 20),
            ]
            .into_iter()
            .map(|op| {
                let (_, trace) = engine.run_op(op).unwrap();
                trace
                    .charges
                    .iter()
                    .map(|c| (c.device, c.seconds.to_bits()))
                    .collect()
            })
            .collect();
            (charges, engine.device_snapshots(), engine.n_devices())
        };
        let single = observe(EngineConfig::default().with_ssd(SsdConfig::pcie()));
        let fleet = observe(EngineConfig::default().with_ssd_fleet(vec![SsdConfig::pcie()]));
        assert!(single.0.iter().all(|op| !op.is_empty()));
        assert_eq!(single, fleet);
        assert_eq!(single.2, 1);
    }

    #[test]
    fn fleet_engine_stripes_and_traces_charges() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 6).reads;
        let store = encode_sharded(&reads, &StoreOptions::new(8)).unwrap();
        let n_chunks = store.n_chunks();
        assert!(n_chunks >= 4, "need several chunks for striping");
        let engine = StoreEngine::open(
            store,
            EngineConfig::default()
                .with_cache_chunks(0) // every fetch charges
                .with_ssd_fleet(vec![SsdConfig::pcie(), SsdConfig::pcie()]),
        );
        assert_eq!(engine.n_devices(), 2);
        let n = engine.total_reads();
        let (value, trace) = engine.run_op(StoreOp::Get(0..n)).unwrap();
        assert!(matches!(value, OpValue::Reads(_)));
        assert_eq!(trace.charges.len(), n_chunks);
        assert_eq!(trace.chunks_touched as usize, n_chunks);
        assert_eq!(trace.cache_misses as usize, n_chunks);
        assert_eq!(trace.cache_hits, 0);
        // Round-robin: consecutive chunks alternate devices.
        let on_dev0 = trace.charges.iter().filter(|c| c.device == 0).count();
        let on_dev1 = trace.charges.iter().filter(|c| c.device == 1).count();
        assert!(on_dev0 > 0 && on_dev1 > 0);
        assert_eq!(on_dev0 + on_dev1, n_chunks);
        assert!(trace.charges.iter().all(|c| c.seconds > 0.0));
        assert!(
            (trace.device_seconds() - trace.charges.iter().map(|c| c.seconds).sum::<f64>()).abs()
                < 1e-18
        );
        let snaps = engine.device_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].reads as usize, on_dev0);
        assert_eq!(snaps[1].reads as usize, on_dev1);
        // The aggregate matches the per-device sum.
        let agg = engine.timing_snapshot();
        assert_eq!(agg.reads as usize, n_chunks);
        let sum: f64 = snaps.iter().map(|s| s.read_seconds).sum();
        assert!((agg.read_seconds - sum).abs() < 1e-15);
    }

    #[test]
    fn striped_cache_answers_identically_and_aggregates_stats() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 5).reads;
        let store = encode_sharded(&reads, &StoreOptions::new(8)).unwrap();
        let reference =
            StoreEngine::open(store.clone(), EngineConfig::default().with_cache_chunks(6));
        let striped = StoreEngine::open(
            store,
            EngineConfig::default()
                .with_cache_chunks(6)
                .with_cache_shards(4),
        );
        assert_eq!(striped.cache_shards(), 4);
        for range in [0..16u64, 8..40, 3..29, 0..reads.len() as u64] {
            let a = reference.get(range.clone()).unwrap();
            let b = striped.get(range).unwrap();
            assert_eq!(a, b);
        }
        // The aggregate counters still reconcile: every touched chunk
        // is either a hit or a miss, summed across shards.
        let stats = striped.cache_stats();
        assert!(stats.hits > 0);
        assert!(stats.misses > 0);
        let stripe = striped.stripe_snapshot();
        assert_eq!(stripe.shards, 4);
        assert_eq!(stripe.capacity, 6);
        assert!(stripe.len <= 6);
        assert!(stripe.lock_acquisitions > 0);
        assert!(stripe.lock_busy_seconds >= stripe.max_shard_busy_seconds);
    }

    #[test]
    fn zero_shard_cache_is_a_typed_error() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 5).reads;
        let store = encode_sharded(&reads, &StoreOptions::new(16)).unwrap();
        let cfg = EngineConfig::default().with_cache_shards(0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroCacheShards));
        assert!(matches!(
            StoreEngine::try_open(store, cfg),
            Err(StoreError::Config(ConfigError::ZeroCacheShards))
        ));
    }

    #[test]
    fn cold_scan_issues_one_command_per_missed_chunk() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 6).reads;
        let store = encode_sharded(&reads, &StoreOptions::new(8)).unwrap();
        let n_chunks = store.n_chunks() as u64;
        assert!(n_chunks >= 4);
        for fleet in [vec![SsdConfig::pcie()], vec![SsdConfig::pcie(); 3]] {
            let devices = fleet.len();
            let engine = StoreEngine::open(
                store.clone(),
                EngineConfig::default()
                    .with_cache_chunks(0)
                    .with_ssd_fleet(fleet),
            );
            let (value, trace) = engine.run_op(StoreOp::Scan(Box::new(|_| true))).unwrap();
            let OpValue::Reads(view) = value else {
                panic!("scan answers reads");
            };
            assert_eq!(view.len(), reads.len());
            // Every chunk missed, and each miss is its own `SAGe_Read`
            // on the chunk's round-robin device.
            assert_eq!(trace.chunks_touched, n_chunks);
            assert_eq!(trace.cache_misses, n_chunks);
            assert_eq!(trace.charges.len() as u64, trace.cache_misses);
            for (id, c) in trace.charges.iter().enumerate() {
                assert_eq!(c.device, id % devices, "{devices} devices");
                assert!(c.seconds > 0.0);
            }
            assert_eq!(engine.timing_snapshot().reads, n_chunks);
            let snaps = engine.device_snapshots();
            assert_eq!(snaps.iter().map(|s| s.reads).sum::<u64>(), n_chunks);
            assert!(snaps.iter().all(|s| s.reads > 0));
        }
    }

    #[test]
    fn cache_hit_reads_copy_no_payload_bytes() {
        let (engine, reads) = engine(16, 8);
        assert_eq!(engine.payload_bytes_copied(), 0);
        engine.get(0..16).unwrap(); // cold: one chunk's extent copied
        let after_cold = engine.payload_bytes_copied();
        assert!(after_cold > 0);
        // Warm traffic — gets and scans — moves zero payload bytes.
        engine.get(0..16).unwrap();
        engine.get(4..12).unwrap();
        let (value, _) = engine.run_op(StoreOp::Get(0..16)).unwrap();
        assert_eq!(engine.payload_bytes_copied(), after_cold);
        // And the answer is a genuine view over the cached chunk.
        let OpValue::Reads(view) = value else {
            panic!("get answers reads");
        };
        assert_eq!(view.len(), 16);
        assert_eq!(view.n_slices(), 1);
        for (i, r) in view.iter().enumerate() {
            assert_eq!(r.seq, reads.reads()[i].seq);
        }
    }

    #[test]
    fn scan_matches_stay_zero_copy_when_dense_and_compact_when_sparse() {
        let (engine, reads) = engine(16, 64); // cache holds everything
        engine.scan(|_| false).unwrap(); // warm every chunk
        let warm = engine.payload_bytes_copied();
        // Dense matches — the full-match scan — resolve as views over
        // the cached chunks: zero payload bytes move.
        let all = engine.scan_view(|_| true).unwrap();
        assert_eq!(all.len(), reads.len());
        assert_eq!(engine.payload_bytes_copied(), warm);
        // Sparse matches compact into private slices instead of
        // pinning every decoded chunk for the view's lifetime: the
        // copy is real (counted), but bounded by the matched records.
        let needle = reads.reads()[3].seq.clone();
        let sparse = engine.scan_view(move |r| r.seq == needle).unwrap();
        assert!(!sparse.is_empty());
        assert!(sparse.len() * StoreEngine::SCAN_COMPACT_FACTOR <= reads.len());
        let copied = engine.payload_bytes_copied() - warm;
        assert!(copied > 0, "sparse matches must compact (a counted copy)");
        assert!(
            copied <= (sparse.len() * 2 * reads.reads()[3].len()) as u64 + 64,
            "compaction copies only the matched records, got {copied} bytes"
        );
        for r in sparse.iter() {
            assert_eq!(r.seq, reads.reads()[3].seq);
        }
    }

    #[test]
    fn racing_misses_decode_once() {
        let (engine, _) = engine(16, 8);
        let engine = Arc::new(engine);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let engine = Arc::clone(&engine);
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    engine.get(0..16).unwrap();
                });
            }
        });
        let stats = engine.decode_stats();
        assert_eq!(stats.chunks_decoded, 1, "single-flight: exactly one decode");
        assert!(stats.bytes_decoded > 0);
        assert!(stats.decode_seconds > 0.0);
        // The three losers were served without decoding: each either
        // hit the cache outright or waited out the winner's flight.
        assert_eq!(stats.dedup_decodes + engine.cache_stats().hits, 3);
    }

    #[test]
    fn file_backend_serves_identical_bytes() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 5).reads;
        let store = encode_sharded(&reads, &StoreOptions::new(16)).unwrap();
        let dir = std::env::temp_dir().join(format!("sage_engine_file_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let simulated = StoreEngine::open(store.clone(), EngineConfig::default());
        let real = StoreEngine::open(
            store,
            EngineConfig::default().with_backend(StoreBackend::File(dir.clone())),
        );
        let n = simulated.total_reads();
        for range in [0..16u64, 8..40, 0..n] {
            assert_eq!(
                simulated.get(range.clone()).unwrap(),
                real.get(range).unwrap()
            );
        }
        // Every missed chunk is one positioned read and one decode.
        let backend = real.file_backend().expect("file backend configured");
        let missed = real.cache_stats().misses;
        assert!(missed > 0);
        assert_eq!(backend.reads(), missed);
        assert_eq!(real.decode_stats().chunks_decoded, missed);
        assert!(backend.bytes_read() > 0);
        // And an append writes through: new reads come back from disk.
        let extra = ReadSet::from_reads(reads.reads()[..5].to_vec());
        let first = real.append(&extra).unwrap();
        let got = real.get(first..first + 5).unwrap();
        for (a, b) in got.iter().zip(extra.iter()) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.qual, b.qual);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn waiters_are_served_by_the_flight_not_the_cache() {
        // Cache off: nothing a winner inserts survives for a waiter to
        // find, so the flight itself must carry the decoded chunk.
        let (engine, reads) = engine(16, 0);
        let chunk: Arc<ChunkColumns> =
            Arc::new(reads.reads()[..16].iter().map(ReadRef::from).collect());
        let flight = Arc::new(Flight::default());
        engine
            .inflight
            .lock()
            .unwrap()
            .insert(0, Arc::clone(&flight));
        let winner = FlightGuard {
            engine: &engine,
            chunk_id: 0,
            flight,
        };
        let (value, trace) = std::thread::scope(|s| {
            let getter = s.spawn(|| engine.run_op(StoreOp::Get(0..16)).unwrap());
            winner.flight.finish(Some(Arc::clone(&chunk)));
            getter.join().unwrap()
        });
        drop(winner);
        let OpValue::Reads(view) = value else {
            panic!("get answers reads");
        };
        assert!(view.iter().eq(chunk.iter()));
        // Still the miss its probe was — sharing the decode saves host
        // work, it does not turn a device fetch into a cache hit.
        assert_eq!((trace.cache_misses, trace.cache_hits), (1, 0));
        let stats = engine.decode_stats();
        assert_eq!(stats.chunks_decoded, 0, "the waiter must not decode");
        assert_eq!(stats.dedup_decodes, 1);
        assert!(engine.inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn decode_workers_never_move_cache_state_or_charges() {
        // Nine full chunks and a one-read final chunk: on two or more
        // cores a pool decodes that final chunk faster than the full one
        // started beside it, so a commit that followed decode order
        // would leave the LRU order — and the hits after it — changed.
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 5).reads;
        let reads = ReadSet::from_reads(reads.reads()[..32 * 9 + 1].to_vec());
        let store = encode_sharded(&reads, &StoreOptions::new(32)).unwrap();
        let n_chunks = store.n_chunks() as u64;
        assert_eq!(n_chunks, 10);
        // What one engine observably did: per-op charge bits, cache
        // counters after the ops, and which chunks ended up resident.
        let observe = |decode_workers: usize| {
            let engine = StoreEngine::open(
                store.clone(),
                EngineConfig::default()
                    .with_cache_chunks(4)
                    .with_ssd(SsdConfig::pcie())
                    .with_decode_workers(decode_workers),
            );
            let n = engine.total_reads();
            let mut charges: Vec<Vec<(usize, u64)>> = Vec::new();
            for op in [
                StoreOp::Scan(Box::new(|_| true)),
                // Three misses evict the three least recent chunks; the
                // get after it hits only if the final chunk was
                // committed last.
                StoreOp::Get(0..3 * 32),
                StoreOp::Get(n - 1..n),
                StoreOp::Get(3..n - 3),
                StoreOp::Scan(Box::new(|_| true)),
            ] {
                let (_, trace) = engine.run_op(op).unwrap();
                if charges.is_empty() {
                    assert_eq!(engine.decode_stats().chunks_decoded, n_chunks);
                }
                charges.push(
                    trace
                        .charges
                        .iter()
                        .map(|c| (c.device, c.seconds.to_bits()))
                        .collect(),
                );
            }
            let stats = engine.cache_stats();
            let resident: Vec<bool> = (0..n_chunks as u32)
                .map(|c| engine.cache.get(c).is_some())
                .collect();
            (charges, stats, resident)
        };
        let reference = observe(1);
        assert!(reference.1.evictions > 0);
        assert!(
            reference.0[2].is_empty(),
            "the final chunk was committed last"
        );
        for decode_workers in [2, 3, 4, 8] {
            assert_eq!(
                observe(decode_workers),
                reference,
                "{decode_workers} workers"
            );
        }
    }

    #[test]
    fn empty_backend_path_is_a_typed_error() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 5).reads;
        let store = encode_sharded(&reads, &StoreOptions::new(16)).unwrap();
        let cfg = EngineConfig::default().with_backend(StoreBackend::File(PathBuf::new()));
        assert_eq!(cfg.validate(), Err(ConfigError::EmptyBackendPath));
        assert!(matches!(
            StoreEngine::try_open(store, cfg),
            Err(StoreError::Config(ConfigError::EmptyBackendPath))
        ));
    }

    #[test]
    fn fleet_appends_land_on_devices() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 6).reads;
        let store = encode_sharded(&reads, &StoreOptions::new(8)).unwrap();
        let engine = StoreEngine::open(
            store,
            EngineConfig::default()
                .with_cache_chunks(4)
                .with_ssd_fleet(vec![SsdConfig::pcie(), SsdConfig::sata()]),
        );
        let extra = ReadSet::from_reads(reads.reads()[..20].to_vec());
        let (value, trace) = engine.run_op(StoreOp::Append(extra.clone())).unwrap();
        let OpValue::Appended(first) = value else {
            panic!("wrong value kind");
        };
        assert_eq!(first, reads.len() as u64);
        // 20 reads / 8 per chunk = 3 chunks appended, each charged.
        assert_eq!(trace.charges.len(), 3);
        assert_eq!(trace.chunks_touched, 3);
        let agg = engine.timing_snapshot();
        assert_eq!(agg.writes, 3);
        // Appended reads come back bit-identical.
        let got = engine.get(first..first + 20).unwrap();
        for (a, b) in got.iter().zip(extra.iter()) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.qual, b.qual);
        }
    }
}
