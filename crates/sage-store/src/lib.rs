//! # sage-store — sharded chunk-container store with concurrent
//! random access
//!
//! The monolithic [`sage_core`] codec compresses a read set into one
//! `.sage` archive that must be decoded end-to-end. That is the right
//! shape for archival and for streaming whole-dataset analysis, but
//! the paper's SSD layout (§5.3) exists to serve *random* access from
//! many clients at once — and this crate is the software half of that
//! promise:
//!
//! - [`codec`] — datasets are encoded into fixed-population **chunk
//!   containers** (each an independently decodable [`SageArchive`](sage_core::SageArchive)
//!   holding N reads) laid out back-to-back in one blob, compressed
//!   and decompressed by a `std::thread` worker pool pulling from a
//!   shared job queue;
//! - [`manifest`] — a serialized index mapping read-id ranges →
//!   chunk → byte [`Extent`](sage_core::Extent), so any read range can be answered by
//!   decoding only the chunks it touches;
//! - [`engine`] — [`StoreEngine`] answers concurrent operations
//!   behind an N-shard **striped LRU cache** of decoded chunks
//!   ([`StripedCache`] in [`lru`]; hit/miss statistics and per-shard
//!   lock accounting exported). All three operation kinds run through
//!   one typed path
//!   ([`engine::StoreOp`] → [`StoreEngine::run_op`] →
//!   [`engine::OpValue`] + [`engine::OpTrace`]); gets and scans
//!   resolve to **zero-copy** [`ReadView`]s ([`view`]) over the
//!   cached chunks. Device timing is one shape: chunk extents
//!   striped round-robin over a fleet of SSD models via
//!   [`sage_io::DeviceMap`] ([`EngineConfig::with_ssd_fleet`]; a
//!   single SSD, [`EngineConfig::with_ssd`], is a fleet of one), each
//!   cache miss charging its device one [`sage_ssd::SsdModel`] extent
//!   read with per-device accounting, so the store doubles as an
//!   end-to-end storage scenario;
//! - [`client`] — **the serving front end**: a [`DatasetBuilder`]
//!   folds codec, engine, and server knobs into one validated
//!   configuration and produces a [`Dataset`]; [`Session`]s on it
//!   return *typed tickets* resolving to completions that carry the
//!   engine's [`OpTrace`], with blocking vs. load-shedding submission
//!   a per-session [`SubmitMode`] and a shared closed-loop driver for
//!   load studies;
//! - [`client::workload`] — open-loop workload generation and QoS
//!   measurement: seedable arrival processes (fixed/Poisson/bursty)
//!   and access patterns (uniform/Zipf) make up a
//!   [`TenantLoad`] fed to [`Dataset::drive_open_loop`], whose
//!   [`QosReport`] carries latency–throughput curves to saturation
//!   (the closed loop reports through the same struct);
//! - [`obs`] — virtual-time observability: per-operation span tracing
//!   into a [`TraceBuffer`] (Chrome/Perfetto-exportable, with the
//!   hard invariant that tracing never perturbs the timeline), the
//!   unified [`MetricsSnapshot`] of typed fields behind
//!   [`Dataset::metrics`], windowed [`MetricsRecorder`] sampling for
//!   utilization / queue-depth / hit-rate curves, and the
//!   [`obs::analysis`] tier — bitwise-conserving per-op latency blame
//!   ([`obs::analysis::LatencyBlame`]), windowed bottleneck timelines
//!   ([`obs::analysis::BlameReport`]), tail forensics, and
//!   deterministic SLO burn-rate monitors
//!   ([`obs::analysis::SloSpec`]).
//!
//! ## Quickstart
//!
//! ```
//! use sage_store::client::DatasetBuilder;
//! use sage_genomics::sim::{simulate_dataset, DatasetProfile};
//!
//! # fn main() -> Result<(), sage_store::StoreError> {
//! let ds = simulate_dataset(&DatasetProfile::tiny_short(), 3);
//! let dataset = DatasetBuilder::new().chunk_reads(64).encode(&ds.reads)?;
//! let session = dataset.session();
//! let some = session.get(10..20)?.join()?;   // Ticket<ReadView>: zero-copy
//! assert_eq!(some.len(), 10);
//! assert_eq!(some.get(0).unwrap().seq, ds.reads.reads()[10].seq);
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod codec;
pub mod engine;
pub mod lru;
pub mod manifest;
pub mod obs;
pub mod view;

pub use client::workload::{QosReport, ShedEvent};
pub use client::{
    ClosedLoopSpec, Completion, Dataset, DatasetBuilder, LatencyStats, MultiQosReport,
    MultiTenantSpec, ServerStats, Session, SubmitMode, TenantId, TenantLoad, TenantSpec, Ticket,
};
pub use codec::{decode_all, encode_sharded, ShardedStore, StoreOptions};
pub use engine::{
    DecodeStats, EngineConfig, OpTrace, OpValue, StoreBackend, StoreEngine, StoreOp, TimingSnapshot,
};
pub use lru::{CachePolicy, CacheSnapshot, CacheStats, LruCache, StripeSnapshot, StripedCache};
pub use manifest::{ChunkMeta, StoreManifest};
pub use obs::{
    EngineEvent, LogHistogram, MetricsRecorder, MetricsSnapshot, OpSpan, Replay, TraceBuffer,
    WindowSeries,
};
pub use view::{ReadView, RecordSlice};

// The store's multi-device and queueing vocabulary comes from the I/O
// substrate; re-exported so store users need not name sage-io.
pub use sage_io::{ChargeInterval, DeviceCharge, DeviceSnapshot};

use sage_core::error::SageError;

/// An invalid engine/server configuration, detected before anything
/// is built. Produced by [`DatasetBuilder`] and
/// [`StoreEngine::try_open`] — conflicting knobs are a typed error
/// instead of silent last-wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Both a single SSD and an SSD fleet were configured; a store is
    /// timed by exactly one device model.
    DeviceConflict,
    /// An SSD fleet was configured but holds no devices.
    EmptyFleet,
    /// The serving layer was sized with zero worker threads.
    ZeroServerWorkers,
    /// The submission ring was sized with zero capacity.
    ZeroQueueDepth,
    /// Chunks were sized to hold zero reads.
    ZeroChunkReads,
    /// The decoded-chunk cache was striped over zero shards.
    ZeroCacheShards,
    /// A workload rate, duration, or Zipf skew is not a positive
    /// finite number.
    NonPositiveRate,
    /// An access pattern was configured with zero-read ranges.
    ZeroSpan,
    /// An op mix with negative, non-finite, or all-zero weights.
    DegenerateOpMix,
    /// A tenant spec with a non-positive or non-finite weight or SLO,
    /// or a multi-tenant drive with no tenants.
    BadTenant,
    /// A file backend was selected with an empty directory path.
    EmptyBackendPath,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::DeviceConflict => write!(
                f,
                "conflicting device knobs: both a single SSD and an SSD fleet were configured"
            ),
            ConfigError::EmptyFleet => write!(f, "the configured SSD fleet holds no devices"),
            ConfigError::ZeroServerWorkers => write!(f, "the server needs at least one worker"),
            ConfigError::ZeroQueueDepth => write!(f, "the submission ring needs capacity ≥ 1"),
            ConfigError::ZeroChunkReads => write!(f, "chunks must hold at least one read"),
            ConfigError::ZeroCacheShards => {
                write!(f, "the striped cache needs at least one shard")
            }
            ConfigError::NonPositiveRate => write!(
                f,
                "workload rates, durations, and shape parameters must be positive and finite"
            ),
            ConfigError::ZeroSpan => write!(f, "access-pattern ranges must span at least one read"),
            ConfigError::DegenerateOpMix => write!(
                f,
                "op-mix weights must be non-negative, finite, and not all zero"
            ),
            ConfigError::BadTenant => write!(
                f,
                "tenant specs need a positive finite weight, a positive finite SLO \
                 if any, and at least one tenant"
            ),
            ConfigError::EmptyBackendPath => {
                write!(f, "the file backend needs a non-empty directory path")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors produced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// The configuration is invalid (conflicting or degenerate knobs).
    Config(ConfigError),
    /// A chunk failed to encode or decode; typed header errors
    /// ([`SageError::BadMagic`] etc.) identify *how* a chunk is bad.
    Codec(SageError),
    /// A corrupt chunk was detected at `chunk_id` (wraps the codec's
    /// typed validation error).
    CorruptChunk {
        /// Index of the offending chunk.
        chunk_id: u32,
        /// What the codec reported.
        cause: SageError,
    },
    /// The manifest bytes are malformed.
    Manifest(String),
    /// A requested read range reaches past the stored dataset.
    RangeOutOfBounds {
        /// Requested range start.
        start: u64,
        /// Requested range end (exclusive).
        end: u64,
        /// Reads actually stored.
        total: u64,
    },
    /// The request queue was closed before the request completed.
    QueueClosed,
    /// The request queue was full and the request was rejected (only
    /// [`SubmitMode::Fail`] sessions shed load this way; the blocking
    /// submit mode applies backpressure instead).
    QueueFull,
    /// The server shut down while the request was still queued; it was
    /// never executed.
    Cancelled,
    /// The real-bytes backend failed an I/O operation (container
    /// open, extent read, or append write-through).
    Backend(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Config(e) => write!(f, "invalid configuration: {e}"),
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::CorruptChunk { chunk_id, cause } => {
                write!(f, "corrupt chunk {chunk_id}: {cause}")
            }
            StoreError::Manifest(m) => write!(f, "bad manifest: {m}"),
            StoreError::RangeOutOfBounds { start, end, total } => {
                write!(
                    f,
                    "range {start}..{end} out of bounds (dataset holds {total} reads)"
                )
            }
            StoreError::QueueClosed => write!(f, "store request queue closed"),
            StoreError::QueueFull => write!(f, "store request queue full"),
            StoreError::Cancelled => {
                write!(f, "request cancelled: server shut down while it was queued")
            }
            StoreError::Backend(e) => write!(f, "backend I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Codec(e) | StoreError::CorruptChunk { cause: e, .. } => Some(e),
            StoreError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SageError> for StoreError {
    fn from(e: SageError) -> StoreError {
        StoreError::Codec(e)
    }
}

impl From<ConfigError> for StoreError {
    fn from(e: ConfigError) -> StoreError {
        StoreError::Config(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, StoreError>;
