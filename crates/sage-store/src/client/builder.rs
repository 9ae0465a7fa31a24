//! [`DatasetBuilder`]: one validated entry point folding the codec
//! ([`StoreOptions`]), engine ([`EngineConfig`]), and serving knobs.

use super::Dataset;
use crate::codec::{encode_sharded, ShardedStore, StoreOptions};
use crate::engine::{EngineConfig, StoreBackend, StoreEngine};
use crate::{ConfigError, Result};
use sage_genomics::ReadSet;
use sage_ssd::SsdConfig;
use std::sync::Arc;

/// The one fluent entry point onto the serving path.
///
/// Folds what used to be three hand-wired configurations —
/// [`StoreOptions`] (chunking), [`EngineConfig`] (cache +
/// devices), and the server sizing passed to the old
/// `StoreServer::start` — into a single builder that **validates knob
/// conflicts** instead of letting the last write win: configuring
/// both [`ssd`](DatasetBuilder::ssd) and
/// [`ssd_fleet`](DatasetBuilder::ssd_fleet) is a typed
/// [`ConfigError::DeviceConflict`], and degenerate sizings are caught
/// before any thread starts.
///
/// ```
/// use sage_store::client::DatasetBuilder;
/// use sage_ssd::SsdConfig;
/// use sage_genomics::sim::{simulate_dataset, DatasetProfile};
///
/// # fn main() -> Result<(), sage_store::StoreError> {
/// let ds = simulate_dataset(&DatasetProfile::tiny_short(), 7);
/// let dataset = DatasetBuilder::new()
///     .chunk_reads(32)                          // codec knob
///     .cache_chunks(8)                          // engine knob
///     .ssd_fleet(vec![SsdConfig::pcie(), SsdConfig::pcie()])
///     .server_workers(2)                        // serving knob
///     .queue_depth(8)                           // serving knob
///     .encode(&ds.reads)?;
/// assert_eq!(dataset.total_reads(), ds.reads.len() as u64);
/// # Ok(())
/// # }
/// ```
///
/// Conflicting device knobs fail typed, not silently:
///
/// ```
/// use sage_store::client::DatasetBuilder;
/// use sage_store::{ConfigError, StoreError};
/// use sage_ssd::SsdConfig;
/// use sage_genomics::ReadSet;
///
/// let err = DatasetBuilder::new()
///     .ssd(SsdConfig::pcie())
///     .ssd_fleet(vec![SsdConfig::pcie()])
///     .encode(&ReadSet::new())
///     .unwrap_err();
/// assert!(matches!(err, StoreError::Config(ConfigError::DeviceConflict)));
/// ```
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    reads_per_chunk: usize,
    cache_chunks: usize,
    cache_shards: usize,
    ssd: Option<SsdConfig>,
    fleet: Option<Vec<SsdConfig>>,
    server_workers: usize,
    queue_depth: usize,
    tracing: bool,
    backend: StoreBackend,
    decode_workers: usize,
}

impl Default for DatasetBuilder {
    fn default() -> DatasetBuilder {
        DatasetBuilder {
            reads_per_chunk: 256,
            cache_chunks: 16,
            cache_shards: 1,
            ssd: None,
            fleet: None,
            server_workers: 4,
            queue_depth: 32,
            tracing: false,
            backend: StoreBackend::default(),
            decode_workers: 0,
        }
    }
}

impl DatasetBuilder {
    /// A builder with the defaults: 256-read chunks, a 16-chunk LRU
    /// cache, no device timing, 4 serving workers over a 32-deep
    /// ring.
    pub fn new() -> DatasetBuilder {
        DatasetBuilder::default()
    }

    /// Reads per chunk — the random-access granularity (the final
    /// chunk may hold fewer).
    pub fn chunk_reads(mut self, n: usize) -> DatasetBuilder {
        self.reads_per_chunk = n;
        self
    }

    /// Decoded chunks the LRU cache may pin (0 disables caching).
    pub fn cache_chunks(mut self, n: usize) -> DatasetBuilder {
        self.cache_chunks = n;
        self
    }

    /// Stripes the decoded-chunk cache over `n` shards (shard =
    /// `chunk_id % n`, each shard its own lock + LRU) so
    /// concurrent sessions stop serializing on one cache mutex. `1`
    /// (the default) is the classic single-lock cache; `0` is a typed
    /// [`ConfigError::ZeroCacheShards`]. The effective count is
    /// clamped to [`cache_chunks`](DatasetBuilder::cache_chunks) so
    /// no shard ever has zero slots.
    pub fn cache_shards(mut self, n: usize) -> DatasetBuilder {
        self.cache_shards = n;
        self
    }

    /// SSD timing on one device — a fleet of one. Conflicts with
    /// [`ssd_fleet`](DatasetBuilder::ssd_fleet).
    pub fn ssd(mut self, cfg: SsdConfig) -> DatasetBuilder {
        self.ssd = Some(cfg);
        self
    }

    /// Multi-SSD timing: chunk extents striped across `fleet`.
    /// Conflicts with [`ssd`](DatasetBuilder::ssd).
    pub fn ssd_fleet(mut self, fleet: Vec<SsdConfig>) -> DatasetBuilder {
        self.fleet = Some(fleet);
        self
    }

    /// Selects the byte backend: [`StoreBackend::Simulated`] (the
    /// default — chunk bytes served from the in-memory blob, devices
    /// purely virtual) or [`StoreBackend::File`] (chunk containers
    /// persisted to one file per device under the given directory and
    /// served with positioned reads). The real backend charges *zero*
    /// virtual seconds, so the virtual timeline is bit-identical
    /// either way; an empty path is a typed
    /// [`ConfigError::EmptyBackendPath`].
    pub fn backend(mut self, backend: StoreBackend) -> DatasetBuilder {
        self.backend = backend;
        self
    }

    /// Worker threads decoding missed chunks on multi-chunk fetches
    /// (0 ⇒ available parallelism).
    pub fn decode_workers(mut self, n: usize) -> DatasetBuilder {
        self.decode_workers = n;
        self
    }

    /// Reactor worker threads executing operations.
    pub fn server_workers(mut self, n: usize) -> DatasetBuilder {
        self.server_workers = n;
        self
    }

    /// Submission-ring capacity (the queue-depth knob).
    pub fn queue_depth(mut self, n: usize) -> DatasetBuilder {
        self.queue_depth = n;
        self
    }

    /// Enables tracing, off by default. The engine then records its
    /// [`EngineEvent`](crate::obs::EngineEvent)s (cache probes,
    /// decodes, device commands) into every operation's
    /// [`OpTrace`](crate::OpTrace), which each served op returns in
    /// its [`Completion`](super::Completion). And every operation a
    /// drive completes is recorded as an
    /// [`OpSpan`](crate::obs::OpSpan) — its virtual-time instants,
    /// per-device service intervals, and those events — into the
    /// dataset's [`TraceBuffer`](crate::obs::TraceBuffer), readable
    /// via [`Dataset::trace`](super::Dataset::trace) and exportable
    /// as a Perfetto-loadable Chrome trace. Served ops record no
    /// span. Tracing is observation-only: a traced drive's virtual
    /// timeline is **bit-identical** to an untraced one
    /// (property-tested).
    pub fn tracing(mut self, on: bool) -> DatasetBuilder {
        self.tracing = on;
        self
    }

    /// Validates the folded configuration and returns the engine's
    /// share of it.
    fn validate(&self) -> std::result::Result<EngineConfig, ConfigError> {
        if self.reads_per_chunk == 0 {
            return Err(ConfigError::ZeroChunkReads);
        }
        if self.server_workers == 0 {
            return Err(ConfigError::ZeroServerWorkers);
        }
        if self.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if self.ssd.is_some() && self.fleet.is_some() {
            return Err(ConfigError::DeviceConflict);
        }
        if let Some(fleet) = &self.fleet {
            if fleet.is_empty() {
                return Err(ConfigError::EmptyFleet);
            }
        }
        if self.cache_shards == 0 {
            return Err(ConfigError::ZeroCacheShards);
        }
        if let StoreBackend::File(dir) = &self.backend {
            if dir.as_os_str().is_empty() {
                return Err(ConfigError::EmptyBackendPath);
            }
        }
        let mut engine_cfg = EngineConfig::default()
            .with_cache_chunks(self.cache_chunks)
            .with_cache_shards(self.cache_shards)
            .with_tracing(self.tracing)
            .with_backend(self.backend.clone())
            .with_decode_workers(self.decode_workers);
        if let Some(ssd) = &self.ssd {
            engine_cfg = engine_cfg.with_ssd(ssd.clone());
        }
        if let Some(fleet) = &self.fleet {
            engine_cfg = engine_cfg.with_ssd_fleet(fleet.clone());
        }
        debug_assert!(engine_cfg.validate().is_ok(), "builder pre-validates");
        Ok(engine_cfg)
    }

    /// Encodes `reads` into a sharded chunk store and serves it.
    ///
    /// # Errors
    ///
    /// [`crate::StoreError::Config`] for invalid knob combinations;
    /// codec errors from the encode.
    pub fn encode(&self, reads: &ReadSet) -> Result<Dataset> {
        let engine_cfg = self.validate()?;
        let sharded = encode_sharded(reads, &StoreOptions::new(self.reads_per_chunk))?;
        self.serve_engine(sharded, engine_cfg)
    }

    /// Serves an already-encoded sharded store (the builder's chunk
    /// size is ignored; the store was encoded elsewhere).
    ///
    /// # Errors
    ///
    /// [`crate::StoreError::Config`] for invalid knob combinations.
    pub fn open(&self, sharded: ShardedStore) -> Result<Dataset> {
        let engine_cfg = self.validate()?;
        self.serve_engine(sharded, engine_cfg)
    }

    fn serve_engine(&self, sharded: ShardedStore, engine_cfg: EngineConfig) -> Result<Dataset> {
        let engine = Arc::new(StoreEngine::try_open(sharded, engine_cfg)?);
        Ok(Dataset::start(
            engine,
            self.server_workers,
            self.queue_depth,
            self.tracing,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreError;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};

    fn reads() -> ReadSet {
        simulate_dataset(&DatasetProfile::tiny_short(), 5).reads
    }

    fn expect_config(err: StoreError, want: ConfigError) {
        match err {
            StoreError::Config(got) => assert_eq!(got, want),
            other => panic!("expected Config({want:?}), got {other:?}"),
        }
    }

    #[test]
    fn single_ssd_and_fleet_conflict_is_typed() {
        let err = DatasetBuilder::new()
            .ssd(SsdConfig::pcie())
            .ssd_fleet(vec![SsdConfig::pcie(), SsdConfig::pcie()])
            .encode(&reads())
            .unwrap_err();
        expect_config(err, ConfigError::DeviceConflict);
        // Order does not matter — there is no last-wins.
        let err = DatasetBuilder::new()
            .ssd_fleet(vec![SsdConfig::pcie()])
            .ssd(SsdConfig::pcie())
            .encode(&reads())
            .unwrap_err();
        expect_config(err, ConfigError::DeviceConflict);
    }

    #[test]
    fn degenerate_knobs_are_typed_errors() {
        let rs = reads();
        expect_config(
            DatasetBuilder::new()
                .chunk_reads(0)
                .encode(&rs)
                .unwrap_err(),
            ConfigError::ZeroChunkReads,
        );
        expect_config(
            DatasetBuilder::new()
                .server_workers(0)
                .encode(&rs)
                .unwrap_err(),
            ConfigError::ZeroServerWorkers,
        );
        expect_config(
            DatasetBuilder::new()
                .queue_depth(0)
                .encode(&rs)
                .unwrap_err(),
            ConfigError::ZeroQueueDepth,
        );
        expect_config(
            DatasetBuilder::new()
                .ssd_fleet(Vec::new())
                .encode(&rs)
                .unwrap_err(),
            ConfigError::EmptyFleet,
        );
    }

    #[test]
    fn valid_fleet_build_serves() {
        let rs = reads();
        let dataset = DatasetBuilder::new()
            .chunk_reads(16)
            .cache_chunks(4)
            .ssd_fleet(vec![SsdConfig::pcie(), SsdConfig::sata()])
            .server_workers(2)
            .queue_depth(4)
            .encode(&rs)
            .expect("valid build");
        assert_eq!(dataset.engine().n_devices(), 2);
        let got = dataset.session().get(0..8).unwrap().join().unwrap();
        assert_eq!(got.len(), 8);
        for (a, b) in got.iter().zip(rs.iter()) {
            assert_eq!(a.seq, b.seq);
        }
    }

    #[test]
    fn tracing_reaches_served_reports_and_drive_spans() {
        use crate::client::workload::{Arrivals, TenantLoad};
        let rs = reads();
        let dataset = DatasetBuilder::new()
            .chunk_reads(16)
            .ssd(SsdConfig::pcie())
            .tracing(true)
            .encode(&rs)
            .expect("traced build");
        let buf = dataset.trace().expect("a tracing dataset has a buffer");
        let session = dataset.session();
        // A miss, an inline hit, and a two-chunk worker op.
        for range in [0..8, 0..8, 8..40] {
            let c = session.get(range).unwrap().wait().unwrap();
            assert!(
                !c.report.events.is_empty(),
                "engine tracing must emit cache/device events"
            );
        }
        // Served ops record no span.
        assert!(buf.is_empty());
        // A drive on the same dataset records one span per completion.
        let mut load = TenantLoad::new(Arrivals::Poisson { rate: 100.0 });
        load.requests = 16;
        let report = dataset.drive_open_loop(&load, 16).expect("drive");
        let spans = buf.spans();
        assert_eq!(spans.len() as u64, report.completed);
        assert!(spans
            .iter()
            .all(|s| s.kind == "get" && !s.events.is_empty()));
    }

    #[test]
    fn untraced_dataset_has_no_buffer_and_empty_intervals() {
        let rs = reads();
        let dataset = DatasetBuilder::new()
            .chunk_reads(16)
            .ssd(SsdConfig::pcie())
            .encode(&rs)
            .unwrap();
        assert!(dataset.trace().is_none());
        let c = dataset.session().get(0..4).unwrap().wait().unwrap();
        assert!(!c.report.charges.is_empty());
        assert!(c.report.events.is_empty());
    }

    #[test]
    fn file_backend_knob_serves_real_bytes() {
        let rs = reads();
        let dir = std::env::temp_dir().join(format!("sage_builder_file_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dataset = DatasetBuilder::new()
            .chunk_reads(16)
            .ssd(SsdConfig::pcie())
            .backend(StoreBackend::File(dir.clone()))
            .decode_workers(2)
            .encode(&rs)
            .expect("file-backed build");
        assert!(dataset.engine().file_backend().is_some());
        let got = dataset.session().get(0..8).unwrap().join().unwrap();
        for (a, b) in got.iter().zip(rs.iter()) {
            assert_eq!(a.seq, b.seq);
        }
        assert!(dataset.engine().file_backend().unwrap().reads() > 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        // An empty path is caught before anything starts.
        expect_config(
            DatasetBuilder::new()
                .backend(StoreBackend::File(std::path::PathBuf::new()))
                .encode(&reads())
                .unwrap_err(),
            ConfigError::EmptyBackendPath,
        );
    }

    #[test]
    fn open_serves_a_preencoded_store() {
        let rs = reads();
        let sharded = encode_sharded(&rs, &StoreOptions::new(8)).unwrap();
        let n_chunks = sharded.n_chunks();
        let dataset = DatasetBuilder::new()
            .cache_chunks(0)
            .ssd(SsdConfig::pcie())
            .open(sharded)
            .expect("open");
        let c = dataset.session().get(0..4).unwrap().wait().unwrap();
        assert_eq!(c.value.len(), 4);
        assert_eq!(c.report.charges.len(), 1);
        assert!(c.report.device_seconds() > 0.0);
        assert!(n_chunks > 1);
    }
}
