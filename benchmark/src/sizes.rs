//! Every size the benchmark fixes, in one place.
//!
//! Op counts are constants, not durations: the work in one round is
//! identical on every commit, so per-round counters repeat exactly and
//! per-round timings are comparable. `--seconds` only decides how many
//! such rounds a run measures.
//!
//! A round is sized to 60–90 ms on the sizing host (2 cores), the
//! shortest a round of every workload can be (one `scan-short` pass is
//! 90 ms). That host is a guest whose hypervisor takes its CPUs away in
//! bursts; the shorter a round, the likelier it fits between two
//! bursts, and only such rounds are measured (see [`STEAL_LIMIT`]). Of
//! 8 s runs in one loud hour, 14 in 18 had rounds of 50 ms that no
//! stolen tick fell into; cut into rounds of 300 ms, 2 in 18 had.

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2026;
/// The documented held-out seed: a claim made on the default seed must
/// also hold here.
pub const HELD_OUT_SEED: u64 = 7919;
/// Measuring time when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 20;

/// Set-ups per run; `setup_s` is the median of the calm ones.
pub const SETUP_REPEATS: usize = 5;
/// A run measures at least this many rounds, however short `--seconds`.
pub const MIN_ROUNDS: usize = 3;
/// A round or set-up is calm, and is measured, when the hypervisor gave
/// no more than this share of the machine's CPU time (wall time × CPUs)
/// to other guests while it ran. `/proc/stat` counts stolen time in
/// 10 ms ticks, so for a round of 63–125 ms on two CPUs this reads "at
/// most one tick". (A tick costs such a round 7–8 % and a `get-warm`
/// round 20 %; admitting none left most runs of a loud hour with three
/// rounds to take a median of, and spread twice as wide.)
pub const STEAL_LIMIT: f64 = 0.08;
/// … but the calmest this many are measured whatever their share, so a
/// run on a host that is never calm still reports.
pub const MIN_CALM: usize = 3;
/// `--quick` divides every per-round op count by this.
pub const QUICK_DIVISOR: usize = 10;

/// Reads per get on the short-read workloads; divides
/// [`SHORT_CHUNK_READS`], so a slot never straddles a chunk.
pub const GET_SPAN: u64 = 32;
/// Reads per chunk on the short-read workloads (the builder default).
pub const SHORT_CHUNK_READS: usize = 256;

/// `scan-short`: genome scale of `DatasetProfile::rs2()`.
pub const SCAN_SCALE: f64 = 0.25;
/// `scan-short`: whole-dataset scan passes per round.
pub const SCAN_PASSES_PER_ROUND: usize = 1;

/// `get-warm`: tickets the client keeps in flight. One in flight swung
/// 1.1 k–4.8 k ops/s between identical runs on the sizing host (every
/// op pays a thread wake-up), which is why the client pipelines.
pub const WARM_IN_FLIGHT: usize = 8;
/// `get-warm`: gets per round.
pub const WARM_GETS_PER_ROUND: usize = 4_000;
/// `get-warm`: Zipf skew over the chunk-aligned slots.
pub const WARM_ZIPF_THETA: f64 = 0.9;

/// `get-cold-long`: reads per chunk (long reads are ≈ 5 kb each).
pub const COLD_CHUNK_READS: usize = 8;
/// `get-cold-long`: cache capacity, ≈ 16 % of the ≈ 99-chunk working set.
pub const COLD_CACHE_CHUNKS: usize = 16;
/// `get-cold-long`: tickets in flight.
pub const COLD_IN_FLIGHT: usize = 4;
/// `get-cold-long`: reads per get; divides [`COLD_CHUNK_READS`].
pub const COLD_SPAN: u64 = 4;
/// `get-cold-long`: gets per round.
pub const COLD_GETS_PER_ROUND: usize = 40;

/// `ingest-mixed`: genome scale of `DatasetProfile::rs1()` (the pool
/// appends draw from, wrapping).
pub const INGEST_POOL_SCALE: f64 = 2.0;
/// `ingest-mixed`: reads per append (two chunks).
pub const INGEST_BATCH_READS: usize = 512;
/// `ingest-mixed`: gets submitted together after each append; the
/// first reads back the range just appended.
pub const INGEST_GETS_PER_CYCLE: usize = 16;
/// `ingest-mixed`: append-then-gets cycles per round. Every round
/// starts from the store as set up, reopened, so every round of every
/// run appends to the same sequence of store sizes.
pub const INGEST_CYCLES_PER_ROUND: usize = 3;
/// `ingest-mixed`: the uniform gets range over the most recent this
/// many committed reads (64 chunks against the default 16-chunk
/// cache). The store starts at exactly this size.
pub const INGEST_WINDOW_READS: usize = 16_384;

/// Traced run: ops of the workload's own stream replayed engine-direct
/// (scan passes / gets / ingest cycles).
pub const REPLAY_SCAN_PASSES: usize = 6;
pub const REPLAY_WARM_GETS: usize = 20_000;
pub const REPLAY_COLD_GETS: usize = 200;
pub const REPLAY_INGEST_CYCLES: usize = 8;

/// Traced run, fixed engine-direct sequence run on every workload's
/// own store: repetitions of the serial and the parallel cold scan
/// (median reported).
pub const LADDER_SCAN_REPS: usize = 3;
/// … single-chunk cold gets on the serial engine.
pub const LADDER_COLD_GETS: usize = 200;
/// … warm gets on a fully cached engine, timed in batches of
/// [`LADDER_WARM_BATCH`].
pub const LADDER_WARM_GETS: usize = 50_000;
pub const LADDER_WARM_BATCH: usize = 1_000;
/// … two-chunk append batches.
pub const LADDER_APPEND_BATCHES: usize = 8;
/// … chunks re-encoded for the bases-only / quality-only / encode
/// timings (evenly spaced over the store).
pub const LADDER_CODEC_CHUNKS: usize = 12;
/// … user bytes of delivered reads handed to the format converters and
/// the baseline codecs.
pub const LADDER_SAMPLE_BYTES: usize = 1 << 20;
/// … front-door warm gets behind `store.client.roundtrip_us` and
/// `store.obs.tracing_overhead`.
pub const LADDER_FRONT_DOOR_GETS: usize = 20_000;
/// … round trips through a reactor over a no-op backend.
pub const LADDER_REACTOR_OPS: usize = 50_000;
/// … probes / inserts on a standalone striped cache, and manifest
/// lookups.
pub const LADDER_MICRO_OPS: usize = 200_000;
