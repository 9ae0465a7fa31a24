//! The traced run's standalone probes: layers measured by themselves,
//! from outside, on the workload's own data — the codec on re-encoded
//! chunks, the format converters and baseline codecs, a reactor over a
//! no-op backend, a bare striped cache, the manifest, and the front
//! door of a fully cached dataset.
//!
//! The host is not quiet, so nothing here trusts one shot: timings are
//! medians of repetitions, and two things set against each other are
//! measured in alternation and compared pair by pair.

use crate::client::{drive, user_bytes, Source};
use crate::gen::{OpStream, Pattern, SplitMix64};
use crate::metrics::Values;
use crate::run::MIB;
use crate::sizes::WARM_IN_FLIGHT;
use crate::spans::{Recorder, SpanId};
use crate::stats::{median, p50};
use crate::workload::{Cache, Served, Spec};
use sage_baselines::{GzipLike, SpringLike};
use sage_core::quality::decompress_qualities;
use sage_core::{CompressOptions, OutputFormat, SageCompressor, SageDecompressor};
use sage_genomics::fastq::read_set_to_fastq;
use sage_genomics::packed::Packed2;
use sage_genomics::ReadSet;
use sage_io::{DeviceCharge, IoBackend, IoConfig, Reactor};
use sage_store::{CachePolicy, ShardedStore, StripedCache};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Trace-viewer row of everything the benchmark runs itself.
pub const LANE_LADDER: u32 = 3;

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Median seconds of `n` runs of `f`.
fn median_of(n: usize, f: &mut dyn FnMut()) -> f64 {
    median(&(0..n).map(|_| timed(&mut *f).1).collect::<Vec<f64>>())
}

/// Checks made by the traced run beyond the client's own.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The chunk codec as the store configures it: the defaults plus the
/// stored read order. (The encoder's output still varies by a few
/// bytes from call to call — it iterates `HashMap`s — so chunks encoded
/// here hold the store's reads, not necessarily its exact bytes.)
pub fn store_compressor() -> SageCompressor {
    SageCompressor::with_options(CompressOptions {
        store_order: true,
        ..CompressOptions::default()
    })
}

/// Median seconds of three runs of `f`, each under a `name` span.
fn thrice(
    rec: &mut Recorder,
    name: &'static str,
    parent: SpanId,
    op: u64,
    f: &mut dyn FnMut(),
) -> f64 {
    median_of(3, &mut || {
        let span = rec.begin(name, Some(parent), op, LANE_LADDER);
        f();
        rec.end(span);
    })
}

/// The codec timed on `n` evenly spaced chunks by re-encoding them
/// here: a full encode, a full decode, a decode of the same reads
/// stored without qualities, and the quality stream decoded alone.
pub fn codec_sample(
    sharded: &ShardedStore,
    source: &Source,
    n: usize,
    rec: &mut Recorder,
    v: &mut Values,
) {
    let chunks = &sharded.manifest.chunks;
    let step = (chunks.len() / n.max(1)).max(1);
    let with_quality = store_compressor();
    let bases_only = store_compressor().with_quality(false);
    let decoder = SageDecompressor::new(OutputFormat::Ascii);
    let (mut encode_s, mut decode_s, mut bases_s, mut quality_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut sampled, mut bytes) = (0usize, 0u64);
    for meta in chunks.iter().step_by(step).take(n) {
        let op = u64::from(meta.id);
        let reads = source.batch(meta.first_read..meta.end_read());
        let archive = with_quality
            .compress(&reads)
            .expect("encode a sampled chunk");
        let without = bases_only
            .compress(&reads)
            .expect("encode without qualities");
        // The quality stream is in storage order; so must the lengths be.
        let lens: Vec<usize> = decoder
            .stream(&archive)
            .expect("open a sampled chunk")
            .map(|r| r.expect("stream a sampled chunk").seq.len())
            .collect();
        let root = rec.begin("ladder.codec", None, op, LANE_LADDER);
        encode_s += thrice(rec, "core.encode", root, op, &mut || {
            black_box(with_quality.compress(&reads).expect("encode").to_bytes());
        });
        decode_s += thrice(rec, "core.decode", root, op, &mut || {
            black_box(decoder.decompress(&archive).expect("decode"));
        });
        bases_s += thrice(rec, "core.decode_bases", root, op, &mut || {
            black_box(
                decoder
                    .decompress(&without)
                    .expect("decode without qualities"),
            );
        });
        quality_s += thrice(rec, "core.decode_quality", root, op, &mut || {
            black_box(
                decompress_qualities(&archive.streams.qual, &lens).expect("decode qualities"),
            );
        });
        rec.end(root);
        sampled += 1;
        bytes += source.user_bytes(meta.first_read..meta.end_read());
    }
    let per_chunk_us = |s: f64| s * 1e6 / sampled as f64;
    v.set("core.encode_us_per_chunk", per_chunk_us(encode_s));
    v.set("core.encode_mib_per_s", bytes as f64 / MIB / encode_s);
    v.set("core.decode_bases_us_per_chunk", per_chunk_us(bases_s));
    v.set("core.decode_quality_us_per_chunk", per_chunk_us(quality_s));
    v.set("core.decode_quality_share", quality_s / decode_s);
}

/// Converters and baseline codecs over `sample_bytes` of the delivered
/// reads; returns the gzip-like decode rate, the yardstick the codec's
/// own is held against. All rates are in MiB of bases + qualities.
pub fn formats_and_baselines(
    source: &Source,
    sample_bytes: usize,
    tally: &mut Tally,
    v: &mut Values,
) -> f64 {
    let mut sample = ReadSet::new();
    let mut bytes = 0u64;
    for g in 0..source.len() as u64 {
        if bytes >= sample_bytes as u64 {
            break;
        }
        bytes += user_bytes(source.read(g));
        sample.push(source.read(g).clone());
    }
    let user_mib = bytes as f64 / MIB;

    let fastq = read_set_to_fastq(&sample);
    v.set(
        "genomics.fastq_mib_per_s",
        user_mib / median_of(9, &mut || drop(black_box(read_set_to_fastq(&sample)))),
    );
    let pack_s = median_of(9, &mut || {
        for r in sample.iter() {
            black_box(Packed2::pack(r.seq.as_slice()));
        }
    });
    v.set(
        "genomics.pack2_mib_per_s",
        sample.total_bases() as f64 / MIB / pack_s,
    );

    let gz = GzipLike::new();
    let gz_bytes = gz.compress(&fastq);
    tally.check(gz.decompress(&gz_bytes).is_ok_and(|back| back == fastq));
    let gzip_mib_per_s = user_mib / median_of(5, &mut || drop(black_box(gz.decompress(&gz_bytes))));
    v.set("baselines.gzip_like_decode_mib_per_s", gzip_mib_per_s);

    let spring = SpringLike::new();
    let spring_archive = spring.compress(&sample);
    tally.check(spring.decompress(&spring_archive).is_ok_and(|back| {
        back.len() == sample.len() && back.total_bases() == sample.total_bases()
    }));
    v.set(
        "baselines.spring_like_decode_mib_per_s",
        user_mib
            / median_of(5, &mut || {
                drop(black_box(spring.decompress(&spring_archive)))
            }),
    );
    gzip_mib_per_s
}

/// A backend that does nothing: what is left is the reactor.
struct Noop;

impl IoBackend for Noop {
    type Op = ();
    type Output = ();

    fn execute(&self, _op: ()) -> ((), Vec<DeviceCharge>) {
        ((), Vec::new())
    }
}

/// Round trips through a reactor over [`Noop`], eight in flight from
/// this one thread: submit → worker → completion queue → here.
pub fn reactor_probe(ops: usize, v: &mut Values) {
    let reactor = Reactor::start(Arc::new(Noop), IoConfig::default());
    let completions = reactor.completions();
    let mut submitted_at = vec![Instant::now(); ops];
    let mut us = Vec::with_capacity(ops);
    let cpu_before = crate::proc::cpu_seconds();
    let mut harvest = |submitted_at: &[Instant]| {
        let cqe = completions.wait_any().expect("the reactor is running");
        us.push(submitted_at[cqe.user_data as usize].elapsed().as_secs_f64() * 1e6);
    };
    for i in 0..ops {
        if i >= WARM_IN_FLIGHT {
            harvest(&submitted_at);
        }
        submitted_at[i] = Instant::now();
        reactor
            .submit((), i as u64, 0.0)
            .expect("submit to a running reactor");
    }
    for _ in 0..ops.min(WARM_IN_FLIGHT) {
        harvest(&submitted_at);
    }
    let cpu_s = crate::proc::cpu_seconds() - cpu_before;
    reactor.shutdown();
    v.set("io.reactor_roundtrip_us", p50(&mut us));
    v.set("io.reactor_cpu_us_per_op", cpu_s * 1e6 / ops as f64);
}

/// A standalone striped cache filled and probed directly, and the
/// manifest's range lookup.
pub fn cache_and_manifest_probes(
    sharded: &ShardedStore,
    span: u64,
    ops: usize,
    seed: u64,
    v: &mut Values,
) {
    let capacity = sharded.n_chunks().max(1);
    let cache = StripedCache::new(CachePolicy::default(), capacity, 1);
    let chunk = Arc::new(ReadSet::new());
    let mut rng = SplitMix64::new(seed);
    // Twice the capacity in ids, so about half the inserts evict.
    let ids: Vec<u32> = (0..ops)
        .map(|_| rng.below(2 * capacity as u64) as u32)
        .collect();
    let (_, insert_s) = timed(|| {
        for &id in &ids {
            black_box(cache.insert(id, Arc::clone(&chunk)));
        }
    });
    let (_, probe_s) = timed(|| {
        for &id in &ids {
            black_box(cache.get(id));
        }
    });
    v.set("store.lru.insert_ns", insert_s * 1e9 / ops as f64);
    v.set("store.lru.probe_ns", probe_s * 1e9 / ops as f64);

    let total = sharded.total_reads();
    let starts: Vec<u64> = (0..ops).map(|_| rng.below(total / span) * span).collect();
    let (_, lookup_s) = timed(|| {
        for &start in &starts {
            black_box(sharded.manifest.chunks_for_range(start, start + span).len());
        }
    });
    v.set("store.manifest.lookup_ns", lookup_s * 1e9 / ops as f64);
    v.set(
        "store.manifest.bytes",
        sharded.manifest.to_bytes().len() as f64,
    );
}

/// Warm gets through the front door of a fully cached dataset, with
/// the program's own tracing off and on: two datasets, short segments
/// of the same gets alternating between them, compared pair by pair.
pub fn front_door_warm(
    spec: &Spec,
    served: &Served,
    gets: usize,
    seed: u64,
    engine_warm_ns: f64,
    tally: &mut Tally,
    v: &mut Values,
) {
    const SEGMENTS: usize = 20;
    let ops = OpStream::new(
        Pattern::Uniform {
            span: spec.get_span(),
        },
        served.stored,
        seed,
    )
    .next_ops(gets);
    let open = |tracing: bool| {
        let dataset = Spec {
            cache: Cache::WholeStore,
            ..spec.clone()
        }
        .builder(served.n_chunks, None)
        .tracing(tracing)
        .open(served.sharded.clone())
        .expect("open a fully cached dataset");
        dataset
            .session()
            .scan(|_| true)
            .and_then(|t| t.join())
            .expect("fill the cache");
        dataset
    };
    let (plain, traced) = (open(false), open(true));
    let mut segment_round = |dataset: &sage_store::Dataset, segment: &[crate::gen::Op]| {
        let mut stored = served.stored;
        let round = drive(
            &dataset.session(),
            segment,
            WARM_IN_FLIGHT,
            &served.source,
            &mut stored,
            0,
            None,
        );
        tally.attempted += round.ops;
        tally.failed += round.failed;
        round
    };
    let mut plain_us = Vec::with_capacity(gets);
    let mut overhead = Vec::with_capacity(SEGMENTS);
    for segment in ops.chunks(gets.div_ceil(SEGMENTS)) {
        let off = segment_round(&plain, segment);
        let on = segment_round(&traced, segment);
        overhead.push(on.wall_s / off.wall_s);
        plain_us.extend(off.op_us);
    }
    v.set(
        "store.client.roundtrip_us",
        p50(&mut plain_us) - engine_warm_ns / 1e3,
    );
    v.set("store.obs.tracing_overhead", median(&overhead));
    let (_, snapshot_s) = timed(|| {
        for _ in 0..200 {
            black_box(plain.metrics());
        }
    });
    v.set("store.obs.metrics_snapshot_us", snapshot_s * 1e6 / 200.0);
}
