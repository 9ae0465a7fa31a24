//! The four workloads, and the set-up that turns one into a served
//! dataset: simulate → encode → open → warm.

use crate::client::Source;
use crate::gen::{OpStream, Pattern};
use crate::proc::Stopwatch;
use crate::sizes::*;
use sage_genomics::sim::{simulate_dataset, DatasetProfile};
use sage_genomics::ReadSet;
use sage_ssd::SsdConfig;
use sage_store::{
    encode_sharded, Dataset, DatasetBuilder, ShardedStore, StoreBackend, StoreManifest,
    StoreOptions,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Decoded-chunk cache size of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    Chunks(usize),
    /// As many chunks as the store has: everything stays cached.
    WholeStore,
}

/// One workload: its data, the store's configuration, and the
/// client's shape. Fields are public so the tests can run the same
/// code on tiny profiles.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub profile: DatasetProfile,
    pub chunk_reads: usize,
    pub cache: Cache,
    /// Serve chunk bytes from real files (`StoreBackend::File`).
    pub file_backend: bool,
    /// Reads the store starts with; `None` stores the whole source.
    pub initial_reads: Option<usize>,
    pub pattern: Pattern,
    /// Tickets the client keeps in flight.
    pub in_flight: usize,
    /// Units of work per timed round (scan passes, gets, or ingest
    /// cycles, by pattern).
    pub units_per_round: usize,
    /// Units of the same stream the traced run replays engine-direct.
    pub replay_units: usize,
}

impl Spec {
    /// The benchmark's workloads, in `BENCHMARK.json` order.
    pub fn all() -> [Spec; 4] {
        [
            Spec {
                name: "scan-short",
                why: "Stream the whole short-read set, cache off (the paper's primary use): sage-core \
                      decode and the engine's multi-chunk fan-out do the work; cache hits, file I/O \
                      and the reactor almost none.",
                profile: DatasetProfile::rs2().scaled(SCAN_SCALE),
                chunk_reads: SHORT_CHUNK_READS,
                cache: Cache::Chunks(0),
                file_backend: false,
                initial_reads: None,
                pattern: Pattern::Scan,
                in_flight: 1,
                units_per_round: SCAN_PASSES_PER_ROUND,
                replay_units: REPLAY_SCAN_PASSES,
            },
            Spec {
                name: "get-warm",
                why: "Zipf random gets over the same set, fully cached: reactor ring, workers, \
                      dispatcher, tickets and the LRU probe do the work and the codec none, so a \
                      decode change must leave it flat.",
                profile: DatasetProfile::rs2().scaled(SCAN_SCALE),
                chunk_reads: SHORT_CHUNK_READS,
                cache: Cache::WholeStore,
                file_backend: false,
                initial_reads: None,
                pattern: Pattern::Zipf {
                    span: GET_SPAN,
                    theta: WARM_ZIPF_THETA,
                },
                in_flight: WARM_IN_FLIGHT,
                units_per_round: WARM_GETS_PER_ROUND,
                replay_units: REPLAY_WARM_GETS,
            },
            Spec {
                name: "get-cold-long",
                why: "Uniform gets over long reads from real files, cache a sixth of the working set: \
                      single-chunk misses, preads, eviction, single-flight, and the long-read codec \
                      paths no other workload touches.",
                profile: DatasetProfile::rs4(),
                chunk_reads: COLD_CHUNK_READS,
                cache: Cache::Chunks(COLD_CACHE_CHUNKS),
                file_backend: true,
                initial_reads: None,
                pattern: Pattern::Uniform { span: COLD_SPAN },
                in_flight: COLD_IN_FLIGHT,
                units_per_round: COLD_GETS_PER_ROUND,
                replay_units: REPLAY_COLD_GETS,
            },
            Spec {
                name: "ingest-mixed",
                why: "Appends beside gets on a file-backed store: the encoder, write_at, the \
                      manifest splice and read-your-writes; a decode win paid for by a slower \
                      encoder or a worse ratio shows here only.",
                profile: DatasetProfile::rs1().scaled(INGEST_POOL_SCALE),
                chunk_reads: SHORT_CHUNK_READS,
                cache: Cache::Chunks(16),
                file_backend: true,
                initial_reads: Some(INGEST_WINDOW_READS),
                pattern: Pattern::Ingest {
                    batch: INGEST_BATCH_READS,
                    gets: INGEST_GETS_PER_CYCLE,
                    span: GET_SPAN,
                    window: INGEST_WINDOW_READS as u64,
                },
                in_flight: INGEST_GETS_PER_CYCLE,
                units_per_round: INGEST_CYCLES_PER_ROUND,
                replay_units: REPLAY_INGEST_CYCLES,
            },
        ]
    }

    /// The span of this workload's gets (the short-read default for
    /// the scan workload, whose ladder still probes gets).
    pub fn get_span(&self) -> u64 {
        match self.pattern {
            Pattern::Scan => GET_SPAN.min(self.chunk_reads as u64),
            Pattern::Zipf { span, .. }
            | Pattern::Uniform { span }
            | Pattern::Ingest { span, .. } => span,
        }
    }

    /// The builder every dataset of this workload is opened with. The
    /// serving side keeps the builder's defaults (4 workers, ring
    /// depth 32); every workload charges the same virtual PCIe SSD, so
    /// the device counters exist everywhere.
    pub fn builder(&self, n_chunks: usize, backend_dir: Option<&Path>) -> DatasetBuilder {
        let cache = match self.cache {
            Cache::Chunks(n) => n,
            Cache::WholeStore => n_chunks,
        };
        let builder = DatasetBuilder::new()
            .chunk_reads(self.chunk_reads)
            .cache_chunks(cache)
            .ssd(SsdConfig::pcie());
        match backend_dir {
            Some(dir) => builder.backend(StoreBackend::File(dir.to_path_buf())),
            None => builder,
        }
    }

    /// `true` when the workload's ops grow the store.
    pub fn appends(&self) -> bool {
        matches!(self.pattern, Pattern::Ingest { .. })
    }

    /// A fresh op stream. A workload that appends takes a new one for
    /// every `round`, since every round starts from the store as set
    /// up; the others draw every round from stream 0. The traced run
    /// replays stream 0.
    pub fn op_stream(&self, stored: u64, seed: u64, round: u64) -> OpStream {
        // Decorrelates the ops from the simulator, which is seeded
        // with `seed` itself, and the rounds from each other.
        let salted = (seed ^ 0x5A6E_0B5E_ED00_0001).wrapping_add(round << 32);
        OpStream::new(self.pattern, stored, salted)
    }
}

/// Where the benchmark writes: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under `out/tmp/`, removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir()
            .join("tmp")
            .join(format!("{}-{n}-{tag}", std::process::id()));
        // A stale directory of a recycled pid would let FileBackend
        // reuse containers that are not ours.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seconds each stage of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub simulate_s: f64,
    pub encode_s: f64,
    pub total_s: f64,
    /// The share of the machine's CPU time the hypervisor gave to other
    /// guests during the set-up.
    pub steal_share: f64,
}

/// A dataset opened on a workload's encoded store and warmed.
#[derive(Debug)]
pub struct Opened {
    pub dataset: Dataset,
    // Dropped last: the dataset above holds the container files open.
    _backend_dir: Option<TempDir>,
}

/// A workload set up and ready to be measured.
#[derive(Debug)]
pub struct Served {
    pub dataset: Dataset,
    pub source: Source,
    /// Reads the store holds.
    pub stored: u64,
    pub n_chunks: usize,
    /// The encoded store as opened, kept for the traced run's
    /// engine-direct replays and for [`open_and_warm`]ing it again.
    pub sharded: ShardedStore,
    pub times: SetupTimes,
    // Dropped last: the dataset above holds the container files open.
    _backend_dir: Option<TempDir>,
}

/// Serialized size of a manifest indexing `n_chunks` chunks (the size
/// depends on the count alone).
pub fn manifest_bytes(n_chunks: usize) -> u64 {
    let mut manifest = StoreManifest::default();
    for _ in 0..n_chunks {
        manifest.push_chunk(0, sage_core::Extent { offset: 0, len: 0 });
    }
    manifest.to_bytes().len() as u64
}

/// Opens a dataset on `sharded` as `spec` configures it, then warms
/// it: fills what the workload expects full, and runs each path once so
/// lazy work (page faults, allocator growth) is not timed.
pub fn open_and_warm(spec: &Spec, sharded: &ShardedStore, seed: u64) -> Opened {
    let (stored, n_chunks) = (sharded.total_reads(), sharded.n_chunks());
    let backend_dir = spec.file_backend.then(|| TempDir::new(spec.name));
    let dataset = spec
        .builder(n_chunks, backend_dir.as_ref().map(TempDir::path))
        .open(sharded.clone())
        .expect("open the workload's dataset");

    let session = dataset.session();
    let warm = |ticket: sage_store::Result<sage_store::Ticket<sage_store::ReadView>>| {
        ticket.and_then(|t| t.join()).expect("warm-up op");
    };
    if spec.cache == Cache::WholeStore || spec.pattern == Pattern::Scan {
        warm(session.scan(|_| true));
    } else {
        let span = spec.get_span();
        let mut stream = OpStream::new(Pattern::Uniform { span }, stored, seed);
        for op in stream.next_ops(32) {
            let crate::gen::Op::Get(range) = op else {
                unreachable!("uniform gets")
            };
            warm(session.get(range));
        }
    }
    if spec.cache == Cache::WholeStore {
        assert_eq!(
            dataset.stripe_snapshot().len,
            n_chunks,
            "{}: the warm-up scan must leave every chunk cached",
            spec.name
        );
    }
    Opened {
        dataset,
        _backend_dir: backend_dir,
    }
}

/// Simulate → encode → open → warm, timed from the first to the last.
pub fn set_up(spec: &Spec, seed: u64) -> Served {
    let watch = Stopwatch::start();
    let reads = simulate_dataset(&spec.profile, seed).reads;
    let simulate_s = watch.read().wall_s;

    let initial: ReadSet = match spec.initial_reads {
        Some(n) => reads.reads()[..n.min(reads.len())]
            .iter()
            .cloned()
            .collect(),
        None => reads.clone(),
    };
    let encode_started = Instant::now();
    let sharded = encode_sharded(&initial, &StoreOptions::new(spec.chunk_reads))
        .expect("encode the workload's store");
    let encode_s = encode_started.elapsed().as_secs_f64();

    let Opened {
        dataset,
        _backend_dir,
    } = open_and_warm(spec, &sharded, seed);
    let total = watch.read();
    Served {
        dataset,
        source: Source::new(reads),
        stored: sharded.total_reads(),
        n_chunks: sharded.n_chunks(),
        sharded,
        times: SetupTimes {
            simulate_s,
            encode_s,
            total_s: total.wall_s,
            steal_share: total.steal_share,
        },
        _backend_dir,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_why_fits_benchmark_json() {
        for spec in Spec::all() {
            assert!(
                spec.why.len() <= 200,
                "{}: {} chars",
                spec.name,
                spec.why.len()
            );
            assert!(!spec.why.contains('\n'));
        }
    }

    #[test]
    fn spans_divide_chunks_so_slots_never_straddle() {
        for spec in Spec::all() {
            assert_eq!(
                spec.chunk_reads as u64 % spec.get_span(),
                0,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn manifest_size_depends_on_the_chunk_count_alone() {
        assert!(manifest_bytes(0) > 0);
        assert_eq!(
            manifest_bytes(10) - manifest_bytes(0),
            10 * (manifest_bytes(1) - manifest_bytes(0))
        );
    }
}
