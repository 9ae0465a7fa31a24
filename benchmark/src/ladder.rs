//! The traced run: the same op streams, with every layer timed **from
//! outside** — by calling the layers' public functions from the
//! benchmark's own files, or by reading their public counters before
//! and after — and a span recorded around each call.
//!
//! Per workload: front-door rounds (plain and span-recording ones
//! alternating); then the first ops of the same stream replayed
//! engine-direct on a serial engine, the ladder run under each op for
//! exactly the chunks that op decoded (`io.read_extent` → `core.parse`
//! → `core.decode`, by the benchmark itself on its own mirror of the
//! store); then a fixed engine-direct sequence and the standalone
//! probes of `probes.rs`, which every workload runs on its own data.

use crate::client::{view_matches, Source};
use crate::gen::{Op, OpStream, Pattern};
use crate::metrics::Values;
use crate::probes::{
    cache_and_manifest_probes, codec_sample, formats_and_baselines, front_door_warm, reactor_probe,
    store_compressor, timed, Tally, LANE_LADDER,
};
use crate::run::{timed_phase, Counters, Options, Phase, MIB};
use crate::sizes::*;
use crate::spans::{Recorder, SpanId};
use crate::stats::{median, p50, percentile, tail_percentile};
use crate::workload::{out_dir, set_up, Cache, Served, Spec, TempDir};
use sage_core::{Extent, OutputFormat, SageArchive, SageCompressor, SageDecompressor};
use sage_genomics::ReadSet;
use sage_io::FileBackend;
use sage_ssd::SsdConfig;
use sage_store::{
    decode_all, EngineConfig, EngineEvent, OpValue, ShardedStore, StoreBackend, StoreEngine,
    StoreManifest, StoreOp,
};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Duration;

/// Trace-viewer row of the engine-direct calls.
const LANE_ENGINE: u32 = 2;

/// One workload's traced run.
#[derive(Debug)]
pub struct TraceResult {
    pub workload: &'static str,
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Workload pre-conditions that did not hold, in words.
    pub broken: Vec<String>,
    /// Samples behind `store.client.op_tail_us`.
    pub tail_samples: usize,
    pub trace_path: PathBuf,
    pub spans: usize,
}

impl TraceResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }
}

/// The benchmark's own copy of a store — manifest plus one container
/// file — kept in step with the replay engine, chunk id for chunk id,
/// by encoding and writing every appended chunk itself. It is what
/// lets the ladder read, parse and decode any chunk from outside the
/// engine.
struct Mirror {
    manifest: StoreManifest,
    file: FileBackend,
    compressor: SageCompressor,
    chunk_reads: usize,
    write_s: Vec<f64>,
    _dir: TempDir,
}

impl Mirror {
    fn new(sharded: &ShardedStore, chunk_reads: usize) -> Mirror {
        let dir = TempDir::new("mirror");
        let file = FileBackend::open_or_create(dir.path(), std::slice::from_ref(&sharded.blob))
            .expect("create the mirror's container");
        Mirror {
            manifest: sharded.manifest.clone(),
            file,
            compressor: store_compressor(),
            chunk_reads,
            write_s: Vec::new(),
            _dir: dir,
        }
    }

    /// Encodes `batch` chunk by chunk and writes each chunk through,
    /// as the engine's append does; returns the seconds encoding took.
    fn append(&mut self, batch: &ReadSet, rec: &mut Recorder, parent: SpanId, op: u64) -> f64 {
        let mut encode_s = 0.0;
        for chunk in batch.reads().chunks(self.chunk_reads) {
            let span = rec.begin("core.encode", Some(parent), op, LANE_LADDER);
            let bytes = self
                .compressor
                .compress(&ReadSet::from_reads(chunk.to_vec()))
                .expect("encode an appended chunk")
                .to_bytes();
            encode_s += rec.end(span);
            let offset = self.manifest.total_bytes();
            let span = rec.begin("io.write_at", Some(parent), op, LANE_LADDER);
            self.file
                .write_at(0, offset as u64, &bytes)
                .expect("write an appended chunk");
            self.write_s.push(rec.end(span));
            self.manifest.push_chunk(
                chunk.len() as u64,
                Extent {
                    offset,
                    len: bytes.len(),
                },
            );
        }
        encode_s
    }
}

/// Seconds the ladder spent on chunks, rung by rung, and their sizes.
#[derive(Debug, Clone, Copy, Default)]
struct Rungs {
    chunks: u64,
    read_s: f64,
    parse_s: f64,
    decode_s: f64,
    extent_bytes: u64,
    user_bytes: u64,
}

impl Rungs {
    fn add(&mut self, other: &Rungs) {
        self.chunks += other.chunks;
        self.read_s += other.read_s;
        self.parse_s += other.parse_s;
        self.decode_s += other.decode_s;
        self.extent_bytes += other.extent_bytes;
        self.user_bytes += other.user_bytes;
    }

    fn total_s(&self) -> f64 {
        self.read_s + self.parse_s + self.decode_s
    }
}

/// The state one engine-direct replay carries: the serial engine, the
/// mirror in step with it, and what has been measured so far.
struct Replay<'a> {
    engine: StoreEngine,
    mirror: Mirror,
    source: &'a Source,
    rec: Recorder,
    tally: Tally,
    /// Every ladder run so far, summed.
    rungs: Rungs,
    /// Per op that decoded anything: the ladder's parse + decode
    /// seconds for its chunks ÷ the engine's own decode seconds.
    agreement: Vec<f64>,
    append_s: Vec<f64>,
    append_encode_s: f64,
}

impl Replay<'_> {
    /// `io.read_extent` → `core.parse` → `core.decode` for one chunk of
    /// the mirror, each under its own span, the reads checked against
    /// the source.
    fn ladder_chunk(&mut self, chunk: u32, op: u64, parent: SpanId) -> Rungs {
        let rec = &mut self.rec;
        let meta = self.mirror.manifest.chunks[chunk as usize];
        let root = rec.begin("ladder.chunk", Some(parent), op, LANE_LADDER);
        let span = rec.begin("io.read_extent", Some(root), op, LANE_LADDER);
        let bytes = self
            .mirror
            .file
            .read_extent(0, meta.extent.offset as u64, meta.extent.len as u64)
            .expect("read a mirrored extent");
        let read_s = rec.end(span);
        let span = rec.begin("core.parse", Some(root), op, LANE_LADDER);
        let archive = SageArchive::from_extent(
            &bytes,
            Extent {
                offset: 0,
                len: bytes.len(),
            },
        );
        let parse_s = rec.end(span);
        let span = rec.begin("core.decode", Some(root), op, LANE_LADDER);
        let reads = archive.as_ref().ok().and_then(|a| {
            SageDecompressor::new(OutputFormat::Ascii)
                .decompress(a)
                .ok()
        });
        let decode_s = rec.end(span);
        rec.end(root);
        let want = meta.first_read..meta.end_read();
        self.tally.check(reads.as_ref().is_some_and(|got| {
            got.len() as u64 == meta.n_reads
                && got.iter().zip(want.clone()).all(|(r, g)| {
                    let w = self.source.read(g);
                    r.seq == w.seq && r.qual == w.qual
                })
        }));
        let rungs = Rungs {
            chunks: 1,
            read_s,
            parse_s,
            decode_s,
            extent_bytes: bytes.len() as u64,
            user_bytes: self.source.user_bytes(want),
        };
        self.rungs.add(&rungs);
        rungs
    }

    /// Runs one op engine-direct under a span and checks its answer.
    /// For a get or scan, the ladder then runs under that span for
    /// exactly the chunks the engine says it decoded, straight away, so
    /// the engine's clock and ours time the same work within the same
    /// fraction of a second. For an append, the mirror appends first.
    fn op(&mut self, op: &Op, index: u64) {
        let (name, store_op, first, n) = match op {
            Op::Append { first, n } => {
                let batch = self.source.batch(*first..*first + *n as u64);
                let ladder = self.rec.begin("ladder.append", None, index, LANE_LADDER);
                self.append_encode_s += self.mirror.append(&batch, &mut self.rec, ladder, index);
                self.rec.end(ladder);
                let span = self.rec.begin("engine.append", None, index, LANE_ENGINE);
                let answer = self.engine.run_op(StoreOp::Append(batch));
                self.append_s.push(self.rec.end(span));
                self.tally
                    .check(matches!(answer, Ok((OpValue::Appended(id), _)) if id == *first));
                return;
            }
            Op::Get(r) => (
                "engine.get",
                StoreOp::Get(r.clone()),
                r.start,
                r.end - r.start,
            ),
            Op::Scan => (
                "engine.scan",
                StoreOp::Scan(Box::new(|_| true)),
                0,
                self.engine.total_reads(),
            ),
        };
        let before = self.engine.decode_stats().decode_seconds;
        let span = self.rec.begin(name, None, index, LANE_ENGINE);
        let answer = self.engine.run_op(store_op);
        self.rec.end(span);
        let engine_s = self.engine.decode_stats().decode_seconds - before;
        let Ok((OpValue::Reads(view), trace)) = answer else {
            self.tally.check(false);
            return;
        };
        self.tally.check(view_matches(&view, first, n, self.source));
        let mut ladder_s = 0.0;
        for event in &trace.events {
            if let EngineEvent::Decode { chunk } = event {
                let r = self.ladder_chunk(*chunk, index, span);
                ladder_s += r.parse_s + r.decode_s;
            }
        }
        if engine_s > 0.0 && ladder_s > 0.0 {
            self.agreement.push(ladder_s / engine_s);
        }
    }

    /// A fixed engine-direct sequence on the workload's store, the same
    /// for every workload: cold scans with one and with the default
    /// decode workers, single-chunk cold gets, fully cached gets, and a
    /// whole-store view walked and copied. Returns the nanoseconds of
    /// one fully cached engine-direct get.
    fn fixed_sequence(
        &mut self,
        spec: &Spec,
        served: &Served,
        opts: &Options,
        next_op: &mut u64,
        v: &mut Values,
    ) -> f64 {
        let q = |n: usize| opts.scaled(n);
        let sharded = &served.sharded;
        let initial_mib = self.source.user_bytes(0..served.stored) as f64 / MIB;
        // Cold engines read real files, so a chunk costs them what the
        // ladder's three rungs cost plus the engine's own time; each
        // serial scan is paired with a ladder pass over the same chunks,
        // run straight after it.
        let cold_dir = TempDir::new("cold");
        let cold = |workers: usize| {
            StoreEngine::try_open(
                sharded.clone(),
                engine_config(0, StoreBackend::File(cold_dir.path().to_path_buf()))
                    .with_decode_workers(workers),
            )
            .expect("open a cold engine")
        };
        let (serial, parallel) = (cold(1), cold(0));
        let (mut serial_ms, mut parallel_ms, mut self_us) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..q(LADDER_SCAN_REPS) {
            for (engine, name, ms) in [
                (&serial, "engine.scan_serial", &mut serial_ms),
                (&parallel, "engine.scan_parallel", &mut parallel_ms),
            ] {
                let span = self.rec.begin(name, None, *next_op, LANE_ENGINE);
                let view = engine.scan_view(|_| true);
                let scan_s = self.rec.end(span);
                ms.push(scan_s * 1e3);
                self.tally.check(
                    view.is_ok_and(|view| view_matches(&view, 0, served.stored, self.source)),
                );
                if name == "engine.scan_serial" {
                    let mut pass = Rungs::default();
                    for chunk in 0..served.n_chunks as u32 {
                        pass.add(&self.ladder_chunk(chunk, *next_op, span));
                    }
                    self_us.push((scan_s - pass.total_s()) * 1e6 / served.n_chunks as f64);
                }
                *next_op += 1;
            }
        }
        let (serial_ms, parallel_ms) = (median(&serial_ms), median(&parallel_ms));
        v.set("store.engine.scan_serial_ms", serial_ms);
        v.set("store.engine.scan_parallel_ms", parallel_ms);
        v.set("store.engine.parallel_speedup", serial_ms / parallel_ms);
        v.set("store.engine.self_us_per_chunk", median(&self_us));

        let span_reads = spec.get_span();
        let gets = |n: usize, salt: u64| {
            OpStream::new(
                Pattern::Uniform { span: span_reads },
                served.stored,
                opts.seed ^ salt,
            )
            .next_ops(n)
        };
        let mut cold_us = Vec::new();
        for op in gets(q(LADDER_COLD_GETS), 1) {
            let Op::Get(range) = op else {
                unreachable!("uniform gets")
            };
            let (view, s) = timed(|| serial.get_view(range.clone()));
            cold_us.push(s * 1e6);
            self.tally.check(
                view.is_ok_and(|view| view_matches(&view, range.start, span_reads, self.source)),
            );
        }
        v.set("store.engine.get_cold_us", p50(&mut cold_us));

        let warm = StoreEngine::try_open(
            sharded.clone(),
            engine_config(served.n_chunks, StoreBackend::Simulated),
        )
        .expect("open a warm engine");
        let whole = warm
            .scan_view(|_| true)
            .expect("fill the warm engine's cache");
        let mut warm_ns = Vec::new();
        for batch in gets(q(LADDER_WARM_GETS), 2).chunks(LADDER_WARM_BATCH) {
            let (_, s) = timed(|| {
                for op in batch {
                    let Op::Get(range) = op else {
                        unreachable!("uniform gets")
                    };
                    black_box(warm.get_view(range.clone()).expect("warm get"));
                }
            });
            warm_ns.push(s * 1e9 / batch.len() as f64);
        }
        let engine_warm_ns = median(&warm_ns);
        v.set("store.engine.get_warm_ns", engine_warm_ns);
        // Flat by construction: a cached get decodes nothing.
        self.tally
            .check(warm.decode_stats().chunks_decoded == served.n_chunks as u64);

        let (bases, iter_s) = timed(|| whole.iter().map(|r| r.seq.len()).sum::<usize>());
        v.set(
            "store.view.iter_ns_per_read",
            iter_s * 1e9 / whole.len() as f64,
        );
        let (owned, owned_s) = timed(|| whole.to_owned());
        self.tally
            .check(owned.total_bases() == bases && owned.len() as u64 == served.stored);
        v.set("store.view.to_owned_mib_per_s", initial_mib / owned_s);

        engine_warm_ns
    }
}

fn engine_config(cache_chunks: usize, backend: StoreBackend) -> EngineConfig {
    EngineConfig::default()
        .with_cache_chunks(cache_chunks)
        .with_ssd(SsdConfig::pcie())
        .with_backend(backend)
}

/// The layer metrics that are read off the front-door rounds: the
/// program's counters across them (per round), and the client's own
/// latencies. Returns the sample count behind the tail latency.
fn front_door_layers(phase: &Phase, v: &mut Values) -> usize {
    let rounds = phase.rounds.len() as f64;
    let sum =
        |f: &dyn Fn(&Counters) -> f64| -> f64 { phase.rounds.iter().map(|r| f(&r.counters)).sum() };
    let per_round = |f: &dyn Fn(&Counters) -> f64| sum(f) / rounds;
    let wall_s: f64 = phase.rounds.iter().map(|r| r.round.wall_s).sum();

    let probes = sum(&|c| (c.cache_hits + c.cache_misses) as f64);
    v.set(
        "store.lru.hit_ratio",
        if probes > 0.0 {
            sum(&|c| c.cache_hits as f64) / probes
        } else {
            0.0
        },
    );
    v.set(
        "store.lru.evictions",
        per_round(&|c| c.cache_evictions as f64),
    );
    v.set("store.lru.lock_busy_s", per_round(&|c| c.lock_busy_s));
    v.set("ssd.virtual_read_s", per_round(&|c| c.ssd_read_s));
    v.set("ssd.virtual_write_s", per_round(&|c| c.ssd_write_s));
    v.set(
        "ssd.commands",
        per_round(&|c| (c.ssd_reads + c.ssd_writes) as f64),
    );
    v.set(
        "ssd.virtual_over_wall",
        sum(&|c| c.ssd_read_s + c.ssd_write_s) / wall_s,
    );
    v.set("io.file_reads", per_round(&|c| c.file_reads as f64));
    v.set(
        "io.file_bytes_read",
        per_round(&|c| c.file_bytes_read as f64),
    );
    v.set("store.client.submitted", per_round(&|c| c.submitted as f64));
    v.set("store.client.completed", per_round(&|c| c.completed as f64));
    v.set("store.client.rejected", per_round(&|c| c.rejected as f64));

    let pooled = |f: fn(&crate::client::Round) -> &Vec<f64>| -> Vec<f64> {
        phase
            .rounds
            .iter()
            .flat_map(|r| f(&r.round).iter().copied())
            .collect()
    };
    let mut op_us = pooled(|r| &r.op_us);
    op_us.sort_by(f64::total_cmp);
    let tail = tail_percentile(op_us.len()).unwrap_or(50.0);
    v.set("store.client.op_tail_pct", tail);
    v.set("store.client.op_tail_us", percentile(&op_us, tail));

    let mut append_ms = pooled(|r| &r.append_ms);
    let appended: u64 = phase.rounds.iter().map(|r| r.round.appended_bytes).sum();
    let append_s: f64 = append_ms.iter().sum::<f64>() / 1e3;
    let any = !append_ms.is_empty();
    v.set(
        "store.client.append_p50_ms",
        if any { p50(&mut append_ms) } else { 0.0 },
    );
    v.set(
        "store.client.ingest_mib_per_s",
        if any {
            appended as f64 / MIB / append_s
        } else {
            0.0
        },
    );

    // Rounds alternate plain, span-recording, plain, …: each pair's
    // ratio, then the median of the pairs.
    let rps = |r: &crate::run::MeasuredRound| r.round.reads as f64 / r.round.wall_s;
    let pairs: Vec<f64> = phase
        .rounds
        .chunks_exact(2)
        .map(|pair| rps(&pair[1]) / rps(&pair[0]))
        .collect();
    v.set("trace.overhead", median(&pairs));
    op_us.len()
}

/// The traced run of one workload.
pub fn trace_workload(spec: &Spec, opts: &Options) -> TraceResult {
    let q = |n: usize| opts.scaled(n);
    let mut v = Values::default();

    let served = set_up(spec, opts.seed);
    let source = &served.source;
    let sharded = &served.sharded;
    let initial_mib = source.user_bytes(0..served.stored) as f64 / MIB;
    v.set("genomics.simulate_s", served.times.simulate_s);
    v.set(
        "store.codec.encode_sharded_mib_per_s",
        initial_mib / served.times.encode_s,
    );

    // Front door: half the measuring time, plain and span-recording
    // rounds alternating. End-to-end metrics are the untraced run's to
    // report; here the rounds feed the layer metrics only.
    let mut rec = Recorder::default();
    let phase = timed_phase(
        spec,
        &served,
        opts,
        Duration::from_secs(opts.seconds) / 2,
        2,
        Some(&mut rec),
    );
    let tail_samples = front_door_layers(&phase, &mut v);

    // Engine-direct replay of the same stream's first ops: one thread,
    // one decode worker, one append worker, the workload's own cache
    // size and backend, and the engine's event tracing on so that each
    // op says which chunks it decoded.
    let replay_dir = spec.file_backend.then(|| TempDir::new("replay"));
    let backend = replay_dir.as_ref().map_or(StoreBackend::Simulated, |d| {
        StoreBackend::File(d.path().to_path_buf())
    });
    let cache = match spec.cache {
        Cache::Chunks(n) => n,
        Cache::WholeStore => served.n_chunks,
    };
    let mut cfg = engine_config(cache, backend)
        .with_decode_workers(1)
        .with_tracing(true);
    cfg.append_workers = 1;
    let mut replay = Replay {
        engine: StoreEngine::try_open(sharded.clone(), cfg).expect("open the replay engine"),
        mirror: Mirror::new(sharded, spec.chunk_reads),
        source,
        rec,
        tally: Tally {
            attempted: phase.attempted(),
            failed: phase.failed(),
        },
        rungs: Rungs::default(),
        agreement: Vec::new(),
        append_s: Vec::new(),
        append_encode_s: 0.0,
    };
    let mut next_op = 0u64;
    let mut ops = Vec::new();
    if spec.cache == Cache::WholeStore {
        // The same warm-up the front door got.
        ops.push(Op::Scan);
    }
    ops.extend(
        spec.op_stream(served.stored, opts.seed, 0)
            .next_ops(q(spec.replay_units)),
    );
    for op in &ops {
        replay.op(op, next_op);
        next_op += 1;
    }
    let decode = replay.engine.decode_stats();
    v.set("store.engine.chunks_decoded", decode.chunks_decoded as f64);
    v.set("store.engine.decode_busy_s", decode.decode_seconds);
    v.set("store.engine.dedup_decodes", decode.dedup_decodes as f64);
    v.set(
        "store.engine.payload_bytes_copied",
        replay.engine.payload_bytes_copied() as f64,
    );
    // Two clocks on one piece of work: ours around the public parse and
    // decode calls, the engine's own around the same calls inside it.
    v.set(
        "trace.decode_agreement",
        if replay.agreement.is_empty() {
            0.0
        } else {
            median(&replay.agreement)
        },
    );

    // Two-chunk append batches on the replay engine and its mirror.
    for _ in 0..q(LADDER_APPEND_BATCHES) {
        let op = Op::Append {
            first: replay.engine.total_reads(),
            n: 2 * spec.chunk_reads,
        };
        replay.op(&op, next_op);
        next_op += 1;
    }
    v.set(
        "store.engine.append_ms_per_batch",
        median(&replay.append_s) * 1e3,
    );
    v.set(
        "store.engine.append_encode_share",
        replay.append_encode_s / replay.append_s.iter().sum::<f64>(),
    );
    v.set(
        "io.file_write_us_per_chunk",
        median(&replay.mirror.write_s) * 1e6,
    );

    let engine_warm_ns = replay.fixed_sequence(spec, &served, opts, &mut next_op, &mut v);
    let span_reads = spec.get_span();

    // The ladder's rungs, per chunk, over every ladder run above.
    let rungs = replay.rungs;
    let n = rungs.chunks as f64;
    v.set("io.file_read_us_per_extent", rungs.read_s * 1e6 / n);
    v.set(
        "io.file_read_mib_per_s",
        rungs.extent_bytes as f64 / MIB / rungs.read_s,
    );
    v.set("core.parse_us_per_chunk", rungs.parse_s * 1e6 / n);
    v.set("core.decode_us_per_chunk", rungs.decode_s * 1e6 / n);
    let core_decode_mib_per_s = rungs.user_bytes as f64 / MIB / rungs.decode_s;
    v.set("core.decode_mib_per_s", core_decode_mib_per_s);

    let (mut dna, mut quality) = (0usize, 0usize);
    for meta in sharded.manifest.chunks.iter() {
        let archive =
            SageArchive::from_extent(&sharded.blob, meta.extent).expect("parse a stored chunk");
        dna += archive.dna_bytes();
        quality += archive.quality_bytes();
    }
    v.set("core.stored_dna_bytes", dna as f64);
    v.set("core.stored_quality_bytes", quality as f64);

    let Replay {
        mut rec, mut tally, ..
    } = replay;
    codec_sample(sharded, source, q(LADDER_CODEC_CHUNKS), &mut rec, &mut v);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut decode_all_s = Vec::new();
    for _ in 0..q(LADDER_SCAN_REPS) {
        let (all, s) = timed(|| decode_all(sharded, workers));
        decode_all_s.push(s);
        tally.check(all.is_ok_and(|rs| rs.len() as u64 == served.stored));
    }
    v.set(
        "store.codec.decode_all_mib_per_s",
        initial_mib / median(&decode_all_s),
    );

    let gzip_mib_per_s = formats_and_baselines(source, q(LADDER_SAMPLE_BYTES), &mut tally, &mut v);
    v.set(
        "core.decode_vs_gzip_like",
        core_decode_mib_per_s / gzip_mib_per_s,
    );
    reactor_probe(q(LADDER_REACTOR_OPS), &mut v);
    cache_and_manifest_probes(sharded, span_reads, q(LADDER_MICRO_OPS), opts.seed, &mut v);
    front_door_warm(
        spec,
        &served,
        q(LADDER_FRONT_DOOR_GETS),
        opts.seed ^ 3,
        engine_warm_ns,
        &mut tally,
        &mut v,
    );

    let trace_path = out_dir().join(format!("trace_{}.json", spec.name));
    rec.write_chrome_file(&trace_path).expect("write the trace");
    TraceResult {
        workload: spec.name,
        values: v,
        attempted: tally.attempted,
        failed: tally.failed,
        broken: phase.broken,
        tail_samples,
        trace_path,
        spans: rec.len(),
    }
}
