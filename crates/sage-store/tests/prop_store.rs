//! Property tests: the sharded store must be an access-path detail,
//! never a data-path difference — `encode_sharded` → `Get` must return
//! byte-identical reads to the monolithic codec for any read set and
//! any chunk size, under any concurrency.

use proptest::prelude::*;
use sage_core::{OutputFormat, SageCompressor, SageDecompressor};
use sage_genomics::{Base, DnaSeq, Read, ReadSet};
use sage_ssd::SsdConfig;
use sage_store::{encode_sharded, EngineConfig, StoreEngine, StoreOptions};
use std::sync::Arc;

fn base_strategy() -> impl Strategy<Value = Base> {
    prop_oneof![
        40 => Just(Base::A),
        40 => Just(Base::C),
        40 => Just(Base::G),
        40 => Just(Base::T),
        2 => Just(Base::N),
    ]
}

/// Reads sampled from a shared genome with point mutations, plus the
/// occasional unmappable junk read (raw path) — the same adversarial
/// mix as the core codec's property suite.
fn read_set_strategy(max_reads: usize) -> impl Strategy<Value = ReadSet> {
    let genome = prop::collection::vec(base_strategy(), 200..800);
    (genome, 1..max_reads).prop_flat_map(|(genome, n_reads)| {
        let g = genome.clone();
        prop::collection::vec(
            (
                0usize..genome.len().saturating_sub(50).max(1),
                30usize..50,
                any::<u8>(),
                prop::bool::weighted(0.1), // junk read
            ),
            1..=n_reads,
        )
        .prop_map(move |specs| {
            let reads = specs
                .iter()
                .map(|&(start, len, seed, junk)| {
                    let mut bases: Vec<Base> = if junk {
                        (0..len)
                            .map(|i| Base::ACGT[(i * 3 + seed as usize) % 4])
                            .collect()
                    } else {
                        let end = (start + len).min(g.len());
                        g[start..end].to_vec()
                    };
                    if bases.is_empty() {
                        bases.push(Base::C);
                    }
                    let m = seed as usize % bases.len();
                    bases[m] = bases[m].complement();
                    let seq = DnaSeq::from_bases(bases);
                    let qual = (0..seq.len())
                        .map(|i| b'!' + ((i as u8).wrapping_add(seed) % 70))
                        .collect();
                    Read {
                        id: None,
                        seq,
                        qual: Some(qual),
                    }
                })
                .collect();
            ReadSet::from_reads(reads)
        })
    })
}

/// The monolithic reference path: compress + decompress with original
/// order preserved (the store always preserves order — read ids *are*
/// dataset positions).
fn monolithic_roundtrip(reads: &ReadSet) -> ReadSet {
    let archive = SageCompressor::new()
        .with_store_order(true)
        .compress(reads)
        .expect("monolithic compress");
    SageDecompressor::new(OutputFormat::Ascii)
        .decompress(&archive)
        .expect("monolithic decompress")
}

fn content(rs: &ReadSet) -> Vec<(String, Option<Vec<u8>>)> {
    rs.iter()
        .map(|r| (r.seq.to_string(), r.qual.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunked_get_equals_monolithic_codec(rs in read_set_strategy(20)) {
        let reference = monolithic_roundtrip(&rs);
        let n = rs.len();
        // Chunk sizes the issue calls out: single-read chunks, a prime
        // that never divides evenly, an exact multiple, and one chunk
        // larger than the dataset.
        for chunk in [1usize, 7, n.max(1), n + 3] {
            let store = encode_sharded(&rs, &StoreOptions::new(chunk)).expect("encode");
            let engine = StoreEngine::open(store, EngineConfig::default());
            // The full range…
            let all = engine.get(0..n as u64).expect("get all");
            prop_assert_eq!(content(&all), content(&reference));
            // …and every sub-range of a sliding window.
            for start in 0..n.min(6) {
                for end in start..=n.min(start + 5) {
                    let got = engine.get(start as u64..end as u64).expect("get range");
                    prop_assert_eq!(
                        content(&got).as_slice(),
                        &content(&reference)[start..end]
                    );
                }
            }
        }
    }

    #[test]
    fn multi_ssd_get_equals_single_ssd(rs in read_set_strategy(18)) {
        // Striping chunk extents across a fleet is a *timing* detail:
        // for any read set, chunking and fleet size, `Get` must return
        // bit-identical ReadSets to the single-SSD engine.
        let n = rs.len() as u64;
        for chunk in [1usize, 5, rs.len().max(1)] {
            let store = encode_sharded(&rs, &StoreOptions::new(chunk)).expect("encode");
            let single = StoreEngine::open(
                store.clone(),
                EngineConfig::default().with_ssd(SsdConfig::pcie()),
            );
            for n_devices in [1usize, 3, 4] {
                let fleet = StoreEngine::open(
                    store.clone(),
                    EngineConfig::default().with_ssd_fleet(vec![SsdConfig::pcie(); n_devices]),
                );
                let a = single.get(0..n).expect("single get");
                let b = fleet.get(0..n).expect("fleet get");
                prop_assert_eq!(content(&a), content(&b));
                // A handful of sub-ranges, including chunk-interior
                // starts.
                for start in [0, n / 3, n.saturating_sub(2)] {
                    let end = (start + 4).min(n);
                    let a = single.get(start..end).expect("single sub");
                    let b = fleet.get(start..end).expect("fleet sub");
                    prop_assert_eq!(content(&a), content(&b));
                }
                // And the fleet actually charged its devices.
                prop_assert!(fleet.timing_snapshot().read_seconds > 0.0);
            }
        }
    }

    #[test]
    fn decode_all_equals_monolithic_codec(rs in read_set_strategy(16)) {
        let reference = monolithic_roundtrip(&rs);
        let store = encode_sharded(&rs, &StoreOptions::new(5)).expect("encode");
        let back = sage_store::decode_all(&store, 4).expect("decode_all");
        prop_assert_eq!(content(&back), content(&reference));
    }
}

#[test]
fn empty_dataset_round_trips() {
    let store = encode_sharded(&ReadSet::new(), &StoreOptions::new(4)).unwrap();
    let engine = StoreEngine::open(store, EngineConfig::default());
    assert_eq!(engine.total_reads(), 0);
    assert_eq!(engine.get(0..0).unwrap().len(), 0);
    assert!(engine.get(0..1).is_err());
}

#[test]
fn single_read_round_trips() {
    let read = Read {
        id: None,
        seq: "ACGTNACGT".parse().unwrap(),
        qual: Some(b"IIIIIIIII".to_vec()),
    };
    let rs = ReadSet::from_reads(vec![read.clone()]);
    for chunk in [1usize, 7] {
        let store = encode_sharded(&rs, &StoreOptions::new(chunk)).unwrap();
        let engine = StoreEngine::open(store, EngineConfig::default());
        let got = engine.get(0..1).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got.reads()[0].seq, read.seq);
        assert_eq!(got.reads()[0].qual, read.qual);
    }
}

#[test]
fn concurrent_gets_from_many_threads_agree() {
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};
    let reads = simulate_dataset(&DatasetProfile::tiny_short(), 21).reads;
    let n = reads.len() as u64;
    let store = encode_sharded(&reads, &StoreOptions::new(16)).unwrap();
    // A cache smaller than the chunk count forces eviction churn under
    // concurrency.
    let engine = Arc::new(StoreEngine::open(
        store,
        EngineConfig::default().with_cache_chunks(2),
    ));
    let reads = Arc::new(reads);
    std::thread::scope(|s| {
        for t in 0..6 {
            let engine = Arc::clone(&engine);
            let reads = Arc::clone(&reads);
            s.spawn(move || {
                for i in 0..40u64 {
                    let start = (t * 13 + i * 7) % n;
                    let end = (start + 1 + (i % 24)).min(n);
                    let got = engine.get(start..end).unwrap();
                    assert_eq!(got.len() as u64, end - start);
                    for (k, r) in got.iter().enumerate() {
                        let want = &reads.reads()[(start as usize) + k];
                        assert_eq!(r.seq, want.seq, "thread {t} range {start}..{end}");
                        assert_eq!(r.qual, want.qual);
                    }
                }
            });
        }
    });
    let stats = engine.cache_stats();
    // 240 non-empty gets happened; every one resolved through the
    // cache, and the tiny capacity guarantees real churn.
    assert_eq!(engine.requests_served(), 240);
    assert!(stats.hits + stats.misses >= 240, "{stats:?}");
    assert!(stats.misses > 0 && stats.evictions > 0, "{stats:?}");
}
