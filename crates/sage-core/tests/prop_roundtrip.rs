//! Property-based tests: the SAGe codec must be lossless for *any*
//! read set, including adversarial ones the simulator would never
//! produce — reads full of `N`, unmappable junk, duplicated reads,
//! zero-length corner cases.

use proptest::prelude::*;
use sage_core::quality::{compress_qualities, decompress_qualities};
use sage_core::{OutputFormat, SageCompressor, SageDecompressor};
use sage_genomics::{Base, DnaSeq, Read, ReadSet};

/// Strategy: one DNA base, occasionally `N`.
fn base_strategy() -> impl Strategy<Value = Base> {
    prop_oneof![
        40 => Just(Base::A),
        40 => Just(Base::C),
        40 => Just(Base::G),
        40 => Just(Base::T),
        3 => Just(Base::N),
    ]
}

/// Strategy: a "genome" plus reads sampled from it with edits, mixed
/// with pure-junk reads (which must survive via the raw path).
fn read_set_strategy(max_reads: usize) -> impl Strategy<Value = ReadSet> {
    let genome = prop::collection::vec(base_strategy(), 300..1200);
    (genome, 1..max_reads).prop_flat_map(|(genome, n_reads)| {
        let g = genome.clone();
        prop::collection::vec(
            (
                0usize..genome.len().saturating_sub(60).max(1),
                40usize..60,
                any::<bool>(),              // reverse strand
                any::<u8>(),                // mutation seed
                prop::bool::weighted(0.15), // junk read
            ),
            1..=n_reads,
        )
        .prop_map(move |specs| {
            let reads = specs
                .iter()
                .map(|&(start, len, rev, seed, junk)| {
                    let mut bases: Vec<Base> = if junk {
                        // Junk: deterministic pseudo-random unmappable read.
                        (0..len)
                            .map(|i| Base::ACGT[(i * 7 + seed as usize) % 4])
                            .collect()
                    } else {
                        let end = (start + len).min(g.len());
                        g[start..end].to_vec()
                    };
                    if bases.is_empty() {
                        bases.push(Base::A);
                    }
                    // Sprinkle a couple of mutations.
                    let m = seed as usize % bases.len();
                    bases[m] = bases[m].complement();
                    let mut seq = DnaSeq::from_bases(bases);
                    if rev {
                        seq = seq.reverse_complement();
                    }
                    let qual = (0..seq.len())
                        .map(|i| b'#' + ((i as u8).wrapping_mul(seed) % 60))
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

/// Strategy: quality strings over an alphabet of exactly `k` byte
/// values — the sizes where the stream changes shape (no body below
/// two symbols, a deeper tree past each power of two plus one, the
/// full byte range) and anything in between — scattered over all 256
/// byte values, not only Phred+33. The first string holds the whole
/// alphabet, so `k` is exact; empty strings occur throughout.
fn quality_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let k = prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(2usize),
        Just(3usize),
        Just(255usize),
        Just(256usize),
        4usize..255,
    ];
    (k, any::<u8>(), 0usize..128).prop_flat_map(|(k, offset, stride)| {
        // An odd stride walks all 256 byte values before repeating.
        let symbol = move |i: usize| offset.wrapping_add((i * (2 * stride + 1)) as u8);
        let reads = prop::collection::vec(prop::collection::vec(0..k.max(1), 0..200), 0..20);
        reads.prop_map(move |reads| {
            let mut quals: Vec<Vec<u8>> = vec![(0..k).map(symbol).collect()];
            if k > 0 {
                quals.extend(
                    reads
                        .into_iter()
                        .map(|r| r.into_iter().map(symbol).collect()),
                );
            }
            quals
        })
    })
}

fn sorted_content(rs: &ReadSet) -> Vec<(String, Option<Vec<u8>>)> {
    let mut v: Vec<_> = rs
        .iter()
        .map(|r| (r.seq.to_string(), r.qual.clone()))
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn codec_is_lossless_for_arbitrary_read_sets(rs in read_set_strategy(24)) {
        let archive = SageCompressor::new().compress(&rs).expect("compress");
        let bytes = archive.to_bytes();
        let out = SageDecompressor::new(OutputFormat::Ascii)
            .decompress_bytes(&bytes)
            .expect("decompress");
        prop_assert_eq!(sorted_content(&rs), sorted_content(&out));
    }

    #[test]
    fn store_order_restores_exact_order(rs in read_set_strategy(16)) {
        let archive = SageCompressor::new()
            .with_store_order(true)
            .compress(&rs)
            .expect("compress");
        let out = SageDecompressor::default().decompress(&archive).expect("decompress");
        prop_assert_eq!(rs.len(), out.len());
        for (a, b) in rs.iter().zip(out.iter()) {
            prop_assert_eq!(&a.seq, &b.seq);
            prop_assert_eq!(&a.qual, &b.qual);
        }
    }

    #[test]
    fn quality_codec_round_trips_over_any_alphabet(quals in quality_strategy()) {
        let packed = compress_qualities(quals.iter().map(|q| q.as_slice()));
        let mut distinct: Vec<u8> = quals.concat();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(usize::from(u16::from_le_bytes([packed[0], packed[1]])), distinct.len());
        let lens: Vec<usize> = quals.iter().map(|q| q.len()).collect();
        let back = decompress_qualities(&packed, &lens).expect("decode");
        prop_assert_eq!(&quals, &back);
        // A cut stream is an error, never quietly different bytes.
        if lens.iter().any(|&l| l > 0) {
            for cut in [0, 1, packed.len() / 2, packed.len() - 1] {
                prop_assert!(decompress_qualities(&packed[..cut], &lens).is_err(), "cut at {}", cut);
            }
        }
    }

    #[test]
    fn stream_equals_bulk_decompress(rs in read_set_strategy(16)) {
        let archive = SageCompressor::new().compress(&rs).expect("compress");
        let dec = SageDecompressor::default();
        let bulk = dec.decompress(&archive).expect("decompress");
        let streamed: Vec<Read> = dec
            .stream(&archive)
            .expect("open stream")
            .collect::<Result<_, _>>()
            .expect("stream");
        prop_assert!(streamed.iter().all(|r| r.qual.is_some()));
        prop_assert_eq!(bulk.reads(), streamed.as_slice());
    }

    #[test]
    fn prepared_packed3_matches_ascii(rs in read_set_strategy(10)) {
        let archive = SageCompressor::new().compress(&rs).expect("compress");
        // The parser adopts the packed consensus bytes (`Packed2::from_raw`)
        // where the encoder packed bases, and the decoder unpacks them
        // by table: same value, same bases as `get`.
        let parsed = sage_core::SageArchive::from_bytes(&archive.to_bytes()).expect("parse");
        prop_assert_eq!(&parsed.consensus, &archive.consensus);
        for (i, &b) in parsed.consensus.unpack().iter().enumerate() {
            prop_assert_eq!(b, archive.consensus.get(i));
        }
        let dec = SageDecompressor::new(OutputFormat::Packed3);
        let reads = dec.decompress(&archive).expect("decompress");
        match dec.prepare(&archive).expect("prepare") {
            sage_core::PreparedBatch::Packed3(packed) => {
                for (r, p) in reads.iter().zip(&packed) {
                    prop_assert_eq!(&p.unpack(), &r.seq);
                }
            }
            _ => prop_assert!(false, "wrong variant"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitio_round_trips(values in prop::collection::vec((any::<u64>(), 0u32..=64), 0..200)) {
        use sage_core::bitio::{BitReader, BitWriter};
        let mut w = BitWriter::new();
        let masked: Vec<(u64, u32)> = values
            .iter()
            .map(|&(v, n)| (if n == 64 { v } else { v & ((1u64 << n) - 1) }, n))
            .collect();
        for &(v, n) in &masked {
            w.write_bits(v, n);
        }
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        for &(v, n) in &masked {
            prop_assert_eq!(r.read_bits(n).unwrap(), v);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn tuning_never_beats_entropy_and_never_loses_to_single_class(
        hist in prop::collection::vec(0u64..5000, 1..20)
    ) {
        use sage_core::tuning::tune_bit_widths;
        let tuned = tune_bit_widths(&hist, 0.0);
        let total: u64 = hist.iter().sum();
        if total > 0 {
            let max_bits = hist.iter().rposition(|&c| c > 0).unwrap() as u64;
            // Single class: every value stored with max_bits + 1 guide bit.
            let single = total * (max_bits + 1);
            prop_assert!(tuned.total_bits <= single,
                "tuned {} worse than single-class {}", tuned.total_bits, single);
            // And the boundary set must cover the maximum.
            prop_assert_eq!(u64::from(*tuned.widths.last().unwrap()), max_bits);
        }
    }
}
