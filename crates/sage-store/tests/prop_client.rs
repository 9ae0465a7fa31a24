//! Property tests: the serving layer must be an access-path detail,
//! never a data-path difference — a [`Session`]'s `get`/`scan`/
//! `append` must return bit-identical results to direct
//! [`StoreEngine`] calls across chunk sizes, cache sizes, cache
//! shard counts, and fleet shapes; the zero-copy
//! [`ReadView`] path must equal the owned path record for record; and
//! the ticket lifecycle (drop, queue-full, cancel) must never corrupt
//! subsequent answers.

use proptest::prelude::*;
use sage_genomics::sim::{simulate_dataset, DatasetProfile};
use sage_genomics::{ReadRef, ReadSet};
use sage_ssd::SsdConfig;
use sage_store::client::{DatasetBuilder, SubmitMode};
use sage_store::{
    encode_sharded, EngineConfig, OpTrace, OpValue, ReadView, StoreEngine, StoreError, StoreOp,
    StoreOptions,
};

/// The device shapes under test: untimed, one SSD, a homogeneous
/// fleet, and a mixed fleet.
fn apply_devices(shape: u8, cfg: EngineConfig) -> EngineConfig {
    match shape {
        0 => cfg,
        1 => cfg.with_ssd(SsdConfig::pcie()),
        2 => cfg.with_ssd_fleet(vec![SsdConfig::pcie(), SsdConfig::pcie()]),
        _ => cfg.with_ssd_fleet(vec![
            SsdConfig::pcie(),
            SsdConfig::sata(),
            SsdConfig::pcie(),
        ]),
    }
}

fn apply_devices_builder(shape: u8, b: DatasetBuilder) -> DatasetBuilder {
    match shape {
        0 => b,
        1 => b.ssd(SsdConfig::pcie()),
        2 => b.ssd_fleet(vec![SsdConfig::pcie(), SsdConfig::pcie()]),
        _ => b.ssd_fleet(vec![
            SsdConfig::pcie(),
            SsdConfig::sata(),
            SsdConfig::pcie(),
        ]),
    }
}

/// Bit-identical record comparison between any two read sequences.
fn assert_same_reads<'a, 'b>(
    a: impl ExactSizeIterator<Item = ReadRef<'a>>,
    b: impl ExactSizeIterator<Item = ReadRef<'b>>,
    what: &str,
) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (x, y) in a.zip(b) {
        assert_eq!(x.seq, y.seq, "{what}: base mismatch");
        assert_eq!(x.qual, y.qual, "{what}: quality mismatch");
    }
}

fn view_equals_owned(view: &ReadView, owned: &ReadSet, what: &str) {
    assert_same_reads(
        view.iter().collect::<Vec<_>>().into_iter(),
        owned.iter().map(ReadRef::from),
        what,
    );
    // And the explicit copy is the same ReadSet, field for field.
    assert_eq!(&view.to_owned(), owned, "{what}: to_owned mismatch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One configuration point: same sharded store served two ways —
    /// directly via `StoreEngine` and through a `Session` — must
    /// answer get, scan, and append bit-identically.
    #[test]
    fn session_equals_direct_engine(
        seed in 0u64..1000,
        chunk_ix in 0usize..4,
        shape in 0u8..4,
        cache_chunks in 0usize..6,
        cache_shards in 1usize..4,
    ) {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), seed).reads;
        let n = reads.len() as u64;
        // Chunk sizes: single-read, a prime that never divides
        // evenly, a power of two, and one chunk larger than the set.
        let chunk = [1usize, 7, 16, reads.len() + 5][chunk_ix];
        let sharded = encode_sharded(&reads, &StoreOptions::new(chunk)).unwrap();

        let engine = StoreEngine::open(
            sharded.clone(),
            apply_devices(shape, EngineConfig::default().with_cache_chunks(cache_chunks)),
        );
        let dataset = apply_devices_builder(
            shape,
            DatasetBuilder::new()
                .cache_chunks(cache_chunks)
                .cache_shards(cache_shards)
                .server_workers(2)
                .queue_depth(4),
        )
        .open(sharded)
        .unwrap();
        let session = dataset.session();

        // Gets: a few deterministic windows derived from the seed.
        for k in 0..4u64 {
            let start = (seed.wrapping_mul(31).wrapping_add(k * 17)) % n;
            let span = 1 + (seed.wrapping_add(k * 7)) % 40;
            let range = start..(start + span).min(n);
            let direct = engine.get(range.clone()).unwrap();
            let served = session.get(range.clone()).unwrap().join().unwrap();
            view_equals_owned(&served, &direct, "get");
            // Both equal the source, read for read.
            for (i, r) in direct.iter().enumerate() {
                prop_assert_eq!(&r.seq, &reads.reads()[range.start as usize + i].seq);
            }
        }

        // Scan: a content predicate over every chunk.
        let cut = 1 + (seed % 50) as usize;
        let direct = engine.scan(move |r| r.len() > cut).unwrap();
        let served = session.scan(move |r| r.len() > cut).unwrap().join().unwrap();
        view_equals_owned(&served, &direct, "scan");

        // Append: both stores extend identically (ids and content).
        let extra = ReadSet::from_reads(reads.reads()[..(seed % 9 + 1) as usize].to_vec());
        let direct_first = engine.append(&extra).unwrap();
        let served_first = session.append(&extra).unwrap().join().unwrap();
        prop_assert_eq!(direct_first, served_first);
        prop_assert_eq!(direct_first, n);
        let tail = direct_first..direct_first + extra.len() as u64;
        view_equals_owned(
            &session.get(tail.clone()).unwrap().join().unwrap(),
            &engine.get(tail).unwrap(),
            "post-append get",
        );
        dataset.shutdown();
    }

    /// The zero-copy hot path is a representation change, never a
    /// semantics change: for any shard count × fleet shape, `run_op`'s
    /// [`ReadView`]s are bit-identical to the reference owned path
    /// (shards = 1), the per-op cache outcome is preserved at equal
    /// capacity, and a timed engine issues one device command per
    /// missed chunk.
    #[test]
    fn view_path_equals_owned_path(
        seed in 0u64..1000,
        shape in 0u8..4,
        cache_shards in 1usize..9,
    ) {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), seed).reads;
        let n = reads.len() as u64;
        let sharded = encode_sharded(&reads, &StoreOptions::new(8)).unwrap();
        let n_chunks = sharded.n_chunks() as u64;

        // Reference: the pre-refactor shape — one cache lock, one
        // device command per missed chunk, owned results.
        let reference = StoreEngine::open(
            sharded.clone(),
            apply_devices(shape, EngineConfig::default().with_cache_chunks(4)),
        );
        let hot = StoreEngine::open(
            sharded,
            apply_devices(
                shape,
                EngineConfig::default()
                    .with_cache_chunks(4)
                    .with_cache_shards(cache_shards),
            ),
        );
        // Shard count clamps to capacity (4) so no shard is ever
        // zero-slot.
        prop_assert_eq!(hot.cache_shards(), cache_shards.min(4));

        for k in 0..6u64 {
            let start = (seed.wrapping_mul(13).wrapping_add(k * 29)) % n;
            let range = start..(start + 1 + (seed + k) % 30).min(n);
            let owned = reference.get(range.clone()).unwrap();
            let (value, trace) = hot.run_op(StoreOp::Get(range)).unwrap();
            let sage_store::OpValue::Reads(view) = value else {
                panic!("get must answer reads");
            };
            view_equals_owned(&view, &owned, "hot get");
            // One command per missed chunk on a timed engine, none
            // on an untimed one.
            let commands = if shape == 0 { 0 } else { trace.cache_misses };
            prop_assert_eq!(trace.charges.len() as u64, commands);
        }

        // A full sequential scan.
        let owned = reference.scan(|r| !r.len().is_multiple_of(3)).unwrap();
        let (value, trace) = hot
            .run_op(StoreOp::Scan(Box::new(|r: ReadRef<'_>| !r.len().is_multiple_of(3))))
            .unwrap();
        let sage_store::OpValue::Reads(view) = value else {
            panic!("scan must answer reads");
        };
        view_equals_owned(&view, &owned, "hot scan");
        prop_assert_eq!(trace.chunks_touched, n_chunks);
        let commands = if shape == 0 { 0 } else { trace.cache_misses };
        prop_assert_eq!(trace.charges.len() as u64, commands);
        // Same capacity ⇒ at shard count 1 the cache outcome sequence
        // is exactly the reference's.
        if cache_shards == 1 {
            let a = reference.cache_stats();
            let b = hot.cache_stats();
            prop_assert_eq!(a.hits, b.hits);
            prop_assert_eq!(a.misses, b.misses);
            prop_assert_eq!(a.evictions, b.evictions);
        }
        // Payload equality regardless of sharding: total bytes served
        // match the reference.
        prop_assert_eq!(view.total_bases(), owned.total_bases());
    }
}

/// Dropped tickets (abandoned answers) must not corrupt or stall the
/// answers of later operations.
#[test]
fn dropped_tickets_never_corrupt_later_answers() {
    let reads = simulate_dataset(&DatasetProfile::tiny_short(), 77).reads;
    let dataset = DatasetBuilder::new()
        .chunk_reads(16)
        .cache_chunks(2)
        .server_workers(2)
        .queue_depth(4)
        .encode(&reads)
        .unwrap();
    let session = dataset.session();
    for i in 0..12u64 {
        // Every third ticket is dropped unharvested.
        let t = session.get(i..i + 8).unwrap();
        if i % 3 == 0 {
            drop(t);
        } else {
            let got = t.join().unwrap();
            for (k, r) in got.iter().enumerate() {
                assert_eq!(r.seq, reads.reads()[i as usize + k].seq);
            }
        }
    }
    dataset.shutdown();
}

/// The queue-full path: `Fail` mode sheds typed errors, and shed
/// submissions leave no pending-state residue (subsequent operations
/// still answer).
#[test]
fn queue_full_sheds_cleanly() {
    let reads = simulate_dataset(&DatasetProfile::tiny_short(), 78).reads;
    let dataset = DatasetBuilder::new()
        .chunk_reads(16)
        .server_workers(1)
        .queue_depth(1)
        .encode(&reads)
        .unwrap();
    let slow = dataset.session().scan(|_| true).unwrap();
    let shedding = dataset.session().with_mode(SubmitMode::Fail);
    let mut rejected = 0u64;
    for _ in 0..24 {
        match shedding.get(0..1) {
            Ok(t) => {
                t.join().ok();
            }
            Err(StoreError::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected {other}"),
        }
    }
    assert!(rejected > 0, "ring never filled");
    assert_eq!(dataset.stats().rejected, rejected);
    assert!(slow.join().is_ok());
    // After the storm: a clean answer, and no cancelled leftovers.
    let got = dataset.session().get(0..4).unwrap().join().unwrap();
    assert_eq!(got.len(), 4);
    dataset.shutdown();
}

/// The cancelled path: tickets still queued at abort resolve with
/// `StoreError::Cancelled`, never with wrong data or a hang.
#[test]
fn cancelled_tickets_resolve_typed() {
    let reads = simulate_dataset(&DatasetProfile::tiny_short(), 79).reads;
    let dataset = DatasetBuilder::new()
        .chunk_reads(16)
        .server_workers(1)
        .queue_depth(32)
        .encode(&reads)
        .unwrap();
    let session = dataset.session();
    let tickets: Vec<_> = (0..20).map(|_| session.scan(|_| true).unwrap()).collect();
    let expected = reads.len();
    dataset.abort();
    let mut cancelled = 0;
    for t in tickets {
        match t.join() {
            Ok(rs) => assert_eq!(rs.len(), expected, "served answer must be complete"),
            Err(StoreError::Cancelled) => cancelled += 1,
            Err(other) => panic!("unexpected {other}"),
        }
    }
    assert!(cancelled > 0, "abort cancelled nothing");
}

/// An answer inline or from a worker is the answer the engine gives:
/// one session, one op at a time, on a timed dataset whose cache is
/// smaller than the store, against a fresh engine replayed through
/// `run_op` — values, charges and cache outcome.
#[test]
fn inline_and_worker_answers_equal_the_engine_replay() {
    let reads = simulate_dataset(&DatasetProfile::tiny_short(), 80).reads;
    let n = reads.len() as u64;
    let build = || {
        DatasetBuilder::new()
            .chunk_reads(16)
            .cache_chunks(3)
            .ssd(SsdConfig::pcie())
            .server_workers(2)
            .encode(&reads)
            .unwrap()
    };
    let served = build();
    let session = served.session();
    let replay = build();
    let engine = replay.engine();

    enum Step {
        Get(std::ops::Range<u64>),
        Scan,
        Append(ReadSet),
    }
    let extra = ReadSet::from_reads(reads.reads()[..20].to_vec());
    let steps = [
        Step::Get(0..4),   // miss
        Step::Get(4..9),   // hit, inline
        Step::Get(0..16),  // hit, inline
        Step::Get(40..44), // miss
        Step::Get(10..40), // two hits and a miss
        Step::Get(41..42), // hit, inline
        Step::Get(n - 3..n + 5),
        Step::Scan,
        Step::Get(n - 1..n), // hit after the scan, inline
        Step::Get(2..3),     // evicted by the scan: miss
        Step::Append(extra.clone()),
        Step::Get(n..n + 20),
        Step::Get(n + 4..n + 8),
    ];
    let mut inline_hits = 0;
    for (i, step) in steps.iter().enumerate() {
        let (got, op): (Result<(OpValue, OpTrace), StoreError>, StoreOp) = match step {
            Step::Get(r) => (
                session
                    .get(r.clone())
                    .unwrap()
                    .wait()
                    .map(|c| (OpValue::Reads(c.value), c.report)),
                StoreOp::Get(r.clone()),
            ),
            Step::Scan => (
                session
                    .scan(|r| r.len().is_multiple_of(2))
                    .unwrap()
                    .wait()
                    .map(|c| (OpValue::Reads(c.value), c.report)),
                StoreOp::Scan(Box::new(|r: ReadRef<'_>| r.len().is_multiple_of(2))),
            ),
            Step::Append(rs) => (
                session
                    .append(rs)
                    .unwrap()
                    .wait()
                    .map(|c| (OpValue::Appended(c.value), c.report)),
                StoreOp::Append(rs.clone()),
            ),
        };
        let want = engine.run_op(op);
        let (got, want) = match (got, want) {
            (Ok(got), Ok(want)) => (got, want),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "step {i}");
                continue;
            }
            (a, b) => panic!("step {i}: served {:?} vs engine {:?}", a.err(), b.err()),
        };
        let ((value, report), (want_value, trace)) = (got, want);
        match (value, want_value) {
            (OpValue::Reads(a), OpValue::Reads(b)) => {
                assert_eq!(a.to_owned(), b.to_owned(), "step {i}: reads")
            }
            (OpValue::Appended(a), OpValue::Appended(b)) => assert_eq!(a, b, "step {i}"),
            _ => panic!("step {i}: value kinds differ"),
        }
        assert_eq!(report.charges, trace.charges, "step {i}: charges");
        assert_eq!(report.cache_hits, trace.cache_hits, "step {i}: hits");
        assert_eq!(report.cache_misses, trace.cache_misses, "step {i}: misses");
        if report.cache_hits == 1 && report.cache_misses == 0 {
            inline_hits += 1;
        }
    }
    assert!(
        inline_hits >= 4,
        "the sequence must exercise the inline path"
    );
    let (a, b) = (served.cache_stats(), replay.cache_stats());
    assert_eq!(
        (a.hits, a.misses, a.evictions),
        (b.hits, b.misses, b.evictions)
    );
    assert_eq!(served.engine().requests_served(), engine.requests_served());
    let stats = served.stats();
    assert_eq!(
        (stats.submitted, stats.completed),
        (steps.len() as u64, steps.len() as u64)
    );
    served.shutdown();
}
