//! Adversarial edge cases for the codec: inputs no simulator would
//! produce but a production tool must survive.

use sage_core::bitio::BitWriter;
use sage_core::container::{Stream, Streams};
use sage_core::mapper::minimizer::splitmix64;
use sage_core::prefix::{AssociationTable, WidthTable};
use sage_core::{
    ArchiveHeader, OutputFormat, SageArchive, SageCompressor, SageDecompressor, SageError,
};
use sage_genomics::packed::Packed2;
use sage_genomics::sim::{simulate_dataset, DatasetProfile};
use sage_genomics::{Base, DnaSeq, Read, ReadRef, ReadSet};

fn round_trip(rs: &ReadSet) -> ReadSet {
    let archive = SageCompressor::new()
        .with_store_order(true)
        .compress(rs)
        .expect("compress");
    let bytes = archive.to_bytes();
    SageDecompressor::new(OutputFormat::Ascii)
        .decompress_bytes(&bytes)
        .expect("decompress")
}

fn assert_exact(rs: &ReadSet) {
    let out = round_trip(rs);
    assert_eq!(rs.len(), out.len());
    for (a, b) in rs.iter().zip(out.iter()) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.qual, b.qual);
    }
}

fn read(seq: &str) -> Read {
    let seq: DnaSeq = seq.parse().unwrap();
    let qual = vec![b'I'; seq.len()];
    Read {
        id: None,
        seq,
        qual: Some(qual),
    }
}

#[test]
fn single_read() {
    assert_exact(&ReadSet::from_reads(vec![read("ACGTACGTACGTACGTACGT")]));
}

#[test]
fn single_base_reads() {
    assert_exact(&ReadSet::from_reads(vec![
        read("A"),
        read("C"),
        read("G"),
        read("T"),
        read("N"),
    ]));
}

#[test]
fn zero_length_read() {
    let rs = ReadSet::from_reads(vec![
        Read {
            id: None,
            seq: DnaSeq::default(),
            qual: Some(vec![]),
        },
        read("ACGTACGTACGTACGT"),
    ]);
    assert_exact(&rs);
}

#[test]
fn all_n_read() {
    assert_exact(&ReadSet::from_reads(vec![
        read(&"N".repeat(120)),
        read(&"ACGT".repeat(30)),
    ]));
}

#[test]
fn homopolymer_reads() {
    // Minimizer degeneracy: every k-mer of a homopolymer is identical.
    assert_exact(&ReadSet::from_reads(vec![
        read(&"A".repeat(200)),
        read(&"A".repeat(200)),
        read(&"T".repeat(150)),
    ]));
}

#[test]
fn identical_reads_many_times() {
    // Reads must be long enough for two non-overlapping k=15 anchors
    // (shorter reads legitimately fall back to raw storage).
    let seq = "ACGGTTAACCGGATCGGATTACAGGCATGAGCCACCGC".repeat(3);
    let rs: ReadSet = (0..100).map(|_| read(&seq)).collect();
    assert_exact(&rs);
    // And they should compress extremely well (one consensus copy).
    let (_, stats) = SageCompressor::new()
        .compress_detailed(&rs)
        .expect("compress");
    assert_eq!(stats.n_unmapped, 0);
    assert!(stats.dna_ratio() > 8.0, "ratio {}", stats.dna_ratio());
}

#[test]
fn n_at_read_boundaries() {
    assert_exact(&ReadSet::from_reads(vec![
        read("NNNNACGTACGTACGTACGTACGTACGTACGT"),
        read("ACGTACGTACGTACGTACGTACGTACGTNNNN"),
        read("NACGTACGTACGTACGTACGTACGTACGTACN"),
    ]));
}

#[test]
fn read_shorter_than_kmer() {
    assert_exact(&ReadSet::from_reads(vec![
        read("ACGTAC"),
        read("ACGTACGTACGTACGTACGTACGTACGT"),
    ]));
}

#[test]
fn mixed_lengths_trigger_length_stream() {
    let rs = ReadSet::from_reads(vec![
        read(&"ACGT".repeat(10)),
        read(&"ACGT".repeat(100)),
        read("ACGT"),
    ]);
    let archive = SageCompressor::new().compress(&rs).expect("compress");
    assert!(archive.header.fixed_len.is_none());
    assert_exact(&rs);
}

#[test]
fn mixed_quality_presence_drops_quality() {
    let mut rs = ReadSet::from_reads(vec![read("ACGTACGT"), read("TTTTAAAA")]);
    rs.reads_mut()[1].qual = None;
    let archive = SageCompressor::new().compress(&rs).expect("compress");
    assert!(!archive.header.has_quality);
    let out = SageDecompressor::default()
        .decompress(&archive)
        .expect("decompress");
    assert!(out.iter().all(|r| r.qual.is_none()));
}

/// The byte range of every region of a serialized archive, in file
/// order: header and tables, consensus, the ten bit streams (each with
/// its two length fields), quality.
fn regions(a: &SageArchive, total: usize) -> Vec<(&'static str, std::ops::Range<usize>)> {
    let s = &a.streams;
    let sized = [
        ("consensus", 8 + a.consensus.byte_len()),
        ("mpga", 16 + s.mpga.byte_len()),
        ("mpa", 16 + s.mpa.byte_len()),
        ("mmpga", 16 + s.mmpga.byte_len()),
        ("mmpa", 16 + s.mmpa.byte_len()),
        ("mbta", 16 + s.mbta.byte_len()),
        ("corner", 16 + s.corner.byte_len()),
        ("lenga", 16 + s.lenga.byte_len()),
        ("lena", 16 + s.lena.byte_len()),
        ("raw", 16 + s.raw.byte_len()),
        ("order", 16 + s.order.byte_len()),
        ("quality", 8 + s.qual.len()),
    ];
    let header = total - sized.iter().map(|&(_, n)| n).sum::<usize>();
    let mut out = vec![("header", 0..header)];
    let mut at = header;
    for (name, n) in sized {
        out.push((name, at..at + n));
        at += n;
    }
    assert_eq!(at, total);
    out
}

/// Where the last region of `a`'s `total` serialized bytes starts: the
/// quality stream's length field, then the stream.
fn quality_region(a: &SageArchive, total: usize) -> usize {
    total - 8 - a.streams.qual.len()
}

/// Parses and decodes `bytes` into columns and into a read set. Both
/// decoders must refuse it, or both return the same reads; without a
/// stored order the per-read stream must agree too. An `Ok` must be a
/// whole read set: the header's read count, no read longer than the
/// header allows, a quality string exactly as long as its read (or none
/// at all).
fn decode_or_error(bytes: &[u8]) -> Result<(), SageError> {
    let archive = SageArchive::from_bytes(bytes)?;
    let dec = SageDecompressor::default();
    let (cols, reads) = match (dec.decode_chunk(&archive), dec.decompress(&archive)) {
        (Ok(cols), Ok(reads)) => (cols, reads),
        (Err(e), Err(_)) => return Err(e),
        (cols, reads) => panic!("decoders disagree: {:?} vs {:?}", cols.err(), reads.err()),
    };
    assert!(cols.iter().eq(reads.iter().map(ReadRef::from)));
    let h = &archive.header;
    if !h.store_order {
        let streamed: Vec<Read> = dec.stream(&archive)?.collect::<Result<_, _>>()?;
        assert_eq!(streamed, reads.reads());
    }
    assert_eq!(reads.len() as u64, h.n_reads);
    for r in reads.iter() {
        assert!(r.seq.len() <= h.max_read_len as usize);
        match &r.qual {
            Some(q) => assert!(h.has_quality && q.len() == r.seq.len()),
            None => assert!(!h.has_quality),
        }
    }
    Ok(())
}

/// Reads with `N` runs (inside and at both ends), empty reads, and
/// copies of one read with a substitution, an insertion and a deletion.
fn hand_made_reads() -> ReadSet {
    let base = "ACGTTGCAAGCTTACGGATCCGATTACAGGCATGCCATGACTGACT";
    let mut seqs = vec![
        base.to_string(),
        base.replacen("GATC", "GTTC", 1),
        base.replacen("GATC", "GATTTC", 1),
        base.replacen("GATC", "GC", 1),
        format!("NNN{}NNNNN{}NN", &base[..12], &base[20..]),
        String::new(),
        "N".repeat(30),
        String::new(),
    ];
    seqs.extend((0..8).map(|i| base[i..i + 30].to_string()));
    seqs.iter().map(|s| read(s)).collect()
}

#[test]
fn the_column_decode_is_the_decode() {
    // Short and long sets (reverse strands, `N`s, clips, chimeras,
    // unmapped reads) plus the hand-made edge cases, with and without
    // quality and stored order: the columns hold what `decompress`
    // returns, read for read; with a stored order that is the input,
    // and without one the stream's storage order.
    let mut sets: Vec<ReadSet> = [
        DatasetProfile::tiny_short(),
        DatasetProfile::tiny_long(),
        DatasetProfile::rs1().scaled(0.02),
        DatasetProfile::rs2().scaled(0.02),
        DatasetProfile::rs3().scaled(0.02),
        DatasetProfile::rs4().scaled(0.02),
    ]
    .iter()
    .map(|p| simulate_dataset(p, 61).reads)
    .collect();
    sets.push(hand_made_reads());
    let dec = SageDecompressor::default();
    for rs in &sets {
        for (store_order, quality) in [(false, true), (true, true), (false, false), (true, false)] {
            let archive = SageCompressor::new()
                .with_store_order(store_order)
                .with_quality(quality)
                .compress(rs)
                .expect("compress");
            let cols = dec.decode_chunk(&archive).expect("decode_chunk");
            let reads = dec.decompress(&archive).expect("decompress");
            assert_eq!(cols.len(), rs.len());
            assert!(cols.iter().eq(reads.iter().map(ReadRef::from)));
            if store_order {
                for (got, want) in cols.iter().zip(rs.iter()) {
                    assert!(got.seq == want.seq);
                    assert!(got.qual == if quality { want.qual.clone() } else { None });
                }
            } else {
                let streamed: Vec<Read> =
                    dec.stream(&archive).unwrap().map(Result::unwrap).collect();
                assert!(cols.iter().eq(streamed.iter().map(ReadRef::from)));
            }
        }
    }
}

#[test]
fn columns_are_sized_exactly_once() {
    // A fixed-length chunk sizes its columns by `fixed_len × n`, a
    // variable-length one by a pre-pass over the length streams: either
    // way no column grows, so none holds spare capacity.
    for (profile, fixed) in [
        (DatasetProfile::tiny_short(), true),
        (DatasetProfile::tiny_long(), false),
    ] {
        let ds = simulate_dataset(&profile, 62);
        let archive = SageCompressor::new().compress(&ds.reads).expect("compress");
        assert_eq!(archive.header.fixed_len.is_some(), fixed);
        let cols = SageDecompressor::default().decode_chunk(&archive).unwrap();
        let qual = cols.qual.as_ref().expect("qualities");
        assert_eq!(cols.bases.len(), ds.reads.total_bases());
        assert_eq!(cols.bases.capacity(), cols.bases.len());
        assert_eq!(
            (qual.capacity(), qual.len()),
            (cols.bases.len(), cols.bases.len())
        );
        assert_eq!(cols.spans.capacity(), cols.spans.len());
    }
}

#[test]
fn corruption_sweep_errors_never_panics() {
    // Short and long reads — reverse strands, `N`s, unmapped reads, and
    // on the long side chimeric multi-segment reads, clips and the
    // length stream — with and without stored order and quality. Each
    // archive takes seeded single- and multi-byte mutations in every
    // region; one short and one long archive are also cut at every
    // length. The decoder must return an error or a whole read set,
    // never panic, in the dev profile (overflow panics) and in release
    // (overflow wraps) alike — and a mutation confined to the quality
    // body (what follows the alphabet) must be an error: whatever such
    // a body decodes to, it does not leave the rANS lanes at rest with
    // every word consumed. (The container-v2 decoder, whose only body
    // checks were a rank outside the alphabet and running past the
    // end, took 88 of 10 000 such mutations of these four archives as
    // `Ok`, 85 of them with wrong qualities.)
    let mut seed = 0x5a6e_2026u64;
    let mut next = move |below: usize| {
        seed = splitmix64(seed);
        (seed % below as u64) as usize
    };
    let mut mutations = 0usize;
    let mut survived = 0usize;
    let mut body_mutations = 0usize;
    for (pi, profile) in [DatasetProfile::tiny_short(), DatasetProfile::tiny_long()]
        .iter()
        .enumerate()
    {
        let ds = simulate_dataset(profile, 40 + pi as u64);
        for (store_order, quality) in [(false, true), (true, true), (false, false), (true, false)] {
            let (archive, stats) = SageCompressor::new()
                .with_store_order(store_order)
                .with_quality(quality)
                .compress_detailed(&ds.reads)
                .expect("compress");
            assert!(stats.n_corner > 0 && stats.n_unmapped < ds.reads.len() as u64);
            if pi == 1 {
                assert!(stats.n_chimeric > 0 && archive.header.fixed_len.is_none());
            }
            let bytes = archive.to_bytes();
            decode_or_error(&bytes).expect("the untouched archive decodes");
            // Past the region's length field, the symbol count and the
            // alphabet (no quality stream: past the end).
            let alphabet = (archive.streams.qual.first_chunk())
                .map_or(0, |k| 2 + usize::from(u16::from_le_bytes(*k)));
            let quality_body = quality_region(&archive, bytes.len()) + 8 + alphabet;
            for (name, range) in regions(&archive, bytes.len()) {
                for k in 0..22 {
                    let mut bad = bytes.clone();
                    let at = range.start + next(range.len());
                    if k % 2 == 0 {
                        bad[at] ^= 1 << next(8);
                    } else {
                        let n = (2 + next(7)).min(bytes.len() - at);
                        for b in &mut bad[at..at + n] {
                            *b = next(256) as u8;
                        }
                    }
                    mutations += 1;
                    let outcome = std::panic::catch_unwind(|| decode_or_error(&bad))
                        .unwrap_or_else(|_| panic!("{name}: mutation {k} at byte {at} panicked"));
                    if outcome.is_ok() {
                        survived += 1;
                        assert!(
                            at < quality_body || bad == bytes,
                            "quality body: mutation {k} at byte {at} decoded"
                        );
                    }
                    body_mutations += usize::from(at >= quality_body);
                }
            }
            if !store_order && quality {
                for cut in 0..bytes.len() {
                    assert!(decode_or_error(&bytes[..cut]).is_err(), "prefix {cut}");
                }
            }
        }
    }
    assert!(mutations >= 2_000, "{mutations} mutations");
    assert!(body_mutations >= 60, "{body_mutations} in a quality body");
    // Not every flipped bit is detectable (a substituted base, a quality
    // alphabet byte), but a sweep in which most decodes survive is not reaching
    // the decoder's checks.
    assert!(
        survived < mutations / 2,
        "{survived} of {mutations} decoded"
    );
}

/// A hand-built archive of one forward read of `len` bases at
/// consensus position 0 (`max_read_len == len`) whose segment opens
/// with one corner record per entry of `n_counts`, each announcing that
/// many `N` positions (all 0) and, with `clips`, those clip lengths.
fn corner_record_archive(len: u32, n_counts: &[u16], clips: Option<(u16, u16)>) -> SageArchive {
    let consensus: DnaSeq = "ACGTACGT".parse().unwrap();
    let header = ArchiveHeader {
        n_reads: 1,
        n_mapped: 1,
        fixed_len: Some(len),
        max_read_len: len,
        consensus_len: consensus.len() as u64,
        has_quality: false,
        store_order: false,
        // One zero-width class each: every delta is 0 and costs only
        // its one guide bit.
        mp_table: WidthTable::new(vec![0]).unwrap(),
        mmp_table: WidthTable::new(vec![0]).unwrap(),
        len_table: None,
        count_table: AssociationTable::new(vec![0]).unwrap(),
    };
    let (mut mpga, mut mmpga, mut mmpa) = (BitWriter::new(), BitWriter::new(), BitWriter::new());
    let (mut mbta, mut corner) = (BitWriter::new(), BitWriter::new());
    mpga.write_bit(true); // mapped
    header.mp_table.encode_index(&mut mpga, 0); // position delta 0
    mpga.write_bit(false); // forward
    mpga.write_bits(0, 2); // one segment
    header.count_table.encode_escape(&mut mmpga);
    mmpa.write_bits(n_counts.len() as u64, 16);
    for &n in n_counts {
        header.mmp_table.encode_index(&mut mmpga, 0); // offset 0 …
        mbta.write_bit(true); // … and the corner marker
        corner.write_bit(true); // has N
        corner.write_bit(clips.is_some());
        corner.write_bits(u64::from(n), 16);
        // Position 0, `n` times over (no bits at all when `len == 0`).
        for _ in 0..u32::from(n) * header.len_bits().min(1) {
            corner.write_bits(0, header.len_bits());
        }
        if let Some((start, end)) = clips {
            corner.write_bits(u64::from(start), 16);
            corner.write_bits(u64::from(end), 16);
            corner.write_bits(0, 2 * (u32::from(start) + u32::from(end)).min(32));
        }
    }
    SageArchive {
        header,
        consensus: Packed2::pack(&consensus),
        streams: Streams {
            mpga: Stream::from_writer(mpga),
            mmpga: Stream::from_writer(mmpga),
            mmpa: Stream::from_writer(mmpa),
            mbta: Stream::from_writer(mbta),
            corner: Stream::from_writer(corner),
            ..Streams::default()
        },
    }
}

#[test]
fn hostile_corner_records_are_corrupt_not_amplified() {
    let decode = |len, n_counts: &[u16], clips| {
        SageDecompressor::default()
            .decompress(&corner_record_archive(len, n_counts, clips))
            .map(|reads| reads.reads()[0].seq.to_string())
    };
    let corrupt = |r: Result<String, SageError>, what: &str| match r {
        Err(SageError::Corrupt(m)) if m.contains(what) => {}
        other => panic!("expected Corrupt({what}), got {other:?}"),
    };
    // The hand-built archive is a valid one: these decode.
    assert_eq!(decode(8, &[1], None).unwrap(), "NCGTACGT");
    assert_eq!(decode(8, &[1], Some((2, 1))).unwrap(), "NAACGTAA");
    assert_eq!(decode(0, &[0], None).unwrap(), "");
    // A read has one corner record, no more `N`s than bases, clips no
    // longer than itself.
    corrupt(decode(8, &[1, 1], None), "second corner record");
    corrupt(decode(0, &[0, 0], None), "second corner record");
    corrupt(decode(8, &[9], None), "more N positions than bases");
    corrupt(decode(0, &[1], None), "more N positions than bases");
    corrupt(decode(8, &[1], Some((5, 4))), "clip lengths exceed read");
    // The amplifier: with `max_read_len == 0` a position costs no bits,
    // so 65 535 records of 65 535 positions each fit in 160 KB of
    // streams and used to grow one vector towards 4 × 10⁹ entries
    // before any check ran. It is refused at the first count.
    let bomb = corner_record_archive(0, &[u16::MAX; u16::MAX as usize], None);
    assert!(bomb.to_bytes().len() < 170_000);
    corrupt(
        SageDecompressor::default()
            .decompress_bytes(&bomb.to_bytes())
            .map(|_| String::new()),
        "more N positions than bases",
    );
}

/// Reads that take every path of the DNA decoder, over a 400-base
/// reference: forward and reverse strands, substitutions, an insertion
/// and a deletion block, `N`s (corner record), a read too short to
/// anchor (raw stream), a chimeric two-segment read, and one with
/// unalignable ends (clips).
fn golden_reads() -> (DnaSeq, ReadSet) {
    let mut x = 2026u64;
    let mut bases = |n: usize| -> Vec<Base> {
        (0..n)
            .map(|_| {
                x = splitmix64(x);
                Base::ACGT[(x % 4) as usize]
            })
            .collect()
    };
    let g = bases(400);
    let mut reads: Vec<Vec<Base>> = vec![g[..150].to_vec(), g[200..350].to_vec()];
    let mut r = DnaSeq::from_bases(g[30..180].to_vec())
        .reverse_complement()
        .into_bases();
    r[40] = r[40].complement();
    reads.push(r);
    let mut r = g[60..210].to_vec();
    r[3] = Base::N;
    r[77] = Base::N;
    reads.push(r);
    reads.push([&g[120..200], &bases(8)[..], &g[200..270]].concat());
    reads.push([&g[10..90], &g[95..170]].concat());
    let mut r = bases(12);
    r[11] = Base::N;
    reads.push(r);
    reads.push([&g[0..120], &g[260..380]].concat());
    reads.push([&bases(60)[..], &g[100..250], &bases(50)[..]].concat());
    let reads = ReadSet::from_reads(
        reads
            .into_iter()
            .enumerate()
            .map(|(i, seq)| Read {
                id: None,
                qual: Some(vec![b'#' + (i % 4) as u8; seq.len()]),
                seq: DnaSeq::from_bases(seq),
            })
            .collect(),
    );
    (DnaSeq::from_bases(g), reads)
}

/// `golden_reads()` as the commit before the one-pass decoder wrote
/// them (`with_reference(g).with_store_order(true)`, container v2).
const GOLDEN_ARCHIVE_V2_HEX: &str = concat!(
    "5341474502000e00090000000000000008000000000000000000000004010000",
    "9001000000000000030500070302070303080409050000000001000000030000",
    "0002000000070000009001000000000000dbed060e96301d81c5ce3a64be766b",
    "c1b924a7902cacd8609c26ed07030d02d57216d3f91560cf264e36a80e60fa25",
    "72e0a6086f1f831c0da1a5923bb416463ef7a33a1f7b951bae9d39722c919b93",
    "580ea7887247a5a8e21edc671c7db9e5225601adbf3000000000000000060000",
    "0000000000c32494700807340000000000000007000000000000006cf029ea51",
    "140a360000000000000007000000000000003c42abd49165164b000000000000",
    "000a000000000000008c1eb306da0c738004073a000000000000000800000000",
    "0000001718982565261a033601000000000000270000000000000009000c6822",
    "0f000fc0a24c264a2307394cea4ed1b904953dad85dd5b5d165745b62bf3013c",
    "8a280c0000000000000002000000000000006004450000000000000009000000",
    "0000000096f09b9696043d2d1932000000000000000700000000000000030016",
    "54304f0024000000000000000500000000000000702583140659000000000000",
    "0004002326242500000000022dcf23f3bb441f6895a58360a67856cc44370542",
    "f38a2f1d8a179f86d9795779b67f7a7e2693da9270a6f787b220a883486881c1",
    "2e209fdd3dbc3d6fb917d6c2109adf5863d020b7968d755f0563",
);

/// The same archive as this format generation writes it (container
/// v3): the DNA side byte for byte the one above, the quality stream
/// in its static-table layout.
const GOLDEN_ARCHIVE_HEX: &str = concat!(
    "5341474503000e00090000000000000008000000000000000000000004010000",
    "9001000000000000030500070302070303080409050000000001000000030000",
    "0002000000070000009001000000000000dbed060e96301d81c5ce3a64be766b",
    "c1b924a7902cacd8609c26ed07030d02d57216d3f91560cf264e36a80e60fa25",
    "72e0a6086f1f831c0da1a5923bb416463ef7a33a1f7b951bae9d39722c919b93",
    "580ea7887247a5a8e21edc671c7db9e5225601adbf3000000000000000060000",
    "0000000000c32494700807340000000000000007000000000000006cf029ea51",
    "140a360000000000000007000000000000003c42abd49165164b000000000000",
    "000a000000000000008c1eb306da0c738004073a000000000000000800000000",
    "0000001718982565261a033601000000000000270000000000000009000c6822",
    "0f000fc0a24c264a2307394cea4ed1b904953dad85dd5b5d165745b62bf3013c",
    "8a280c0000000000000002000000000000006004450000000000000009000000",
    "0000000096f09b9696043d2d1932000000000000000700000000000000030016",
    "54304f00240000000000000005000000000000007025831406f7000000000000",
    "000400232624253d000000a383d716003e55e38cc3e8d09d05008c0e5e5b00f8",
    "548d330ea323d71600303a786d01e05335ce388cbe9c5b00c0e8e0b505804fd5",
    "38e3303a726d01000e3533007474651224548e0074746512debd32b8855c855c",
    "b70c06bdf5b8f5b894a19c19558855881ba593692dc02dc04bfb6fa202ce02ce",
    "899ae59d35fb35fba78ee35eff9dff9dd0ce2f66a1c2a1c2ac5f97cb5e2b5e2b",
    "817360bf733b733bf71f58f773f373f344b7f6dbcbcfcbcf91bf83ebed37ed37",
    "994798e3e839e8396c0c99141f341f347a014d604ac04ac0694ac67e57dec67e",
    "e16e945a9f669f66801e825eb6e2b6e2b67adc36ab62ab62",
);

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn archive_written_by_the_previous_decoder_generation_decodes_unchanged() {
    // A version-2 archive is refused whole: no decoder for its quality
    // stream is kept.
    assert!(matches!(
        SageDecompressor::default().decompress_bytes(&unhex(GOLDEN_ARCHIVE_V2_HEX)),
        Err(SageError::BadVersion {
            found: 2,
            expected: 3
        })
    ));
    let golden = unhex(GOLDEN_ARCHIVE_HEX);
    let (reference, reads) = golden_reads();
    // Committed bytes, this decoder: the same reads, in the stored
    // order.
    let out = SageDecompressor::default()
        .decompress_bytes(&golden)
        .expect("decompress");
    assert_eq!(out.len(), reads.len());
    for (a, b) in reads.iter().zip(out.iter()) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.qual, b.qual);
    }
    // And the other way round: what this build writes is, byte for
    // byte, what the committed bytes' decoder was written against.
    let (archive, stats) = SageCompressor::new()
        .with_reference(reference)
        .with_store_order(true)
        .compress_detailed(&reads)
        .expect("compress");
    assert_eq!(
        (stats.n_unmapped, stats.n_chimeric, stats.n_corner),
        (1, 1, 2)
    );
    let written = archive.to_bytes();
    assert!(written == golden, "stored bytes changed");
    // Between the two generations only the version field and the
    // quality region differ.
    let v2 = unhex(GOLDEN_ARCHIVE_V2_HEX);
    let dna_end = quality_region(&archive, written.len());
    assert_eq!(written[..4], v2[..4]);
    assert_eq!(written[6..dna_end], v2[6..dna_end]);
}

#[test]
fn long_insert_blocks_round_trip() {
    // A read whose middle 700 bases are junk relative to the other
    // reads: forces >255-base insert blocks (block splitting).
    let core = "ACGGTTAACCGGATCGGATTACAGGCATGAGCCACCGC".repeat(4);
    let junk: String = (0..700)
        .map(|i| ['A', 'C', 'G', 'T'][(i * 13 + 7) % 4])
        .collect();
    let chimera = format!("{}{}{}", &core[..100], junk, &core[50..150]);
    let mut reads: Vec<Read> = (0..20).map(|_| read(&core)).collect();
    reads.push(read(&chimera));
    assert_exact(&ReadSet::from_reads(reads));
}

#[test]
fn empty_quality_strings() {
    let rs = ReadSet::from_reads(vec![
        Read {
            id: None,
            seq: DnaSeq::default(),
            qual: Some(vec![]),
        },
        Read {
            id: None,
            seq: DnaSeq::default(),
            qual: Some(vec![]),
        },
    ]);
    assert_exact(&rs);
}

#[test]
fn encoder_is_deterministic_call_to_call() {
    // Overlap votes tie all the time in the de-novo consensus; the
    // winner must not depend on a hash map's iteration order.
    let ds = simulate_dataset(&DatasetProfile::tiny_short(), 31);
    let encode = || {
        SageCompressor::new()
            .compress(&ds.reads)
            .unwrap()
            .to_bytes()
    };
    let first = encode();
    assert!(first == encode() && first == encode());
}

#[test]
fn truncated_quality_stream_is_corrupt_not_garbage() {
    let rs: ReadSet = (0..40usize)
        .map(|i| {
            let mut r = read("ACGGTTAACCGGATCGGATTACAGGCATGAGCCACCGCGTAAGGC");
            let q = r.qual.as_mut().unwrap();
            q[i % 45] = b'#';
            q[(i * 7) % 45] = b'F';
            r
        })
        .collect();
    let archive = SageCompressor::new().compress(&rs).expect("compress");
    let dec = SageDecompressor::default();
    assert!(dec.decompress(&archive).is_ok());
    for cut in 0..archive.streams.qual.len() {
        let mut short = archive.clone();
        short.streams.qual.truncate(cut);
        assert!(
            matches!(dec.decompress(&short), Err(SageError::Corrupt(_))),
            "decompress with {cut} quality bytes"
        );
        // The streaming decoder fails at open (bad table) or on the
        // read whose qualities run out, and ends there.
        if let Ok(stream) = dec.stream(&short) {
            let items: Vec<_> = stream.collect();
            assert!(items.last().is_some_and(|r| r.is_err()), "stream, {cut}");
            assert_eq!(items.iter().filter(|r| r.is_err()).count(), 1);
        }
    }
}

/// FNV-1a (64-bit) continued over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The fold of `a`'s serialized bytes without the two regions a
/// quality-format change moves: the header's version field and the
/// trailing quality region (its length field and body).
fn dna_side_fold(h: u64, a: &SageArchive) -> u64 {
    let bytes = a.to_bytes();
    let dna_end = quality_region(a, bytes.len());
    fnv1a(fnv1a(h, &bytes[..4]), &bytes[6..dna_end])
}

#[test]
fn stored_bytes_are_pinned() {
    // Every byte the encoder stores, folded per data set: the whole
    // archive, its DNA side alone (`dna_side_fold`), and the DNA side
    // of the same set encoded `with_quality(false)`. The DNA-side
    // constants were recorded from the last container-v2 encoder, as
    // it stood after the ingest-path rewrite (one sampling pass per
    // read, flat overlap index, DP early returns); the whole-archive
    // ones from the first container-v3 encoder (static quality tables
    // over interleaved rANS), which left the DNA side where it was. The
    // `rs1` row, the profile the ingest benchmark appends (nearly every
    // read seeds a contig of its own), was recorded from the v3 encoder
    // before one-read contigs joined the consensus index from their
    // seed's minimizers. An
    // encoder change that moves one of them changed what the format
    // holds and needs a `container::VERSION` bump, not a re-pin — and
    // a bump for the quality stream's sake leaves the two DNA-side
    // columns alone.
    let folds = |archives: &[SageArchive], plain: &[SageArchive]| {
        [
            archives
                .iter()
                .fold(FNV_OFFSET, |h, a| fnv1a(h, &a.to_bytes())),
            archives.iter().fold(FNV_OFFSET, dna_side_fold),
            plain.iter().fold(FNV_OFFSET, dna_side_fold),
        ]
    };
    let whole = |profile: &DatasetProfile, store_order: bool| {
        let ds = simulate_dataset(profile, 2026);
        let encode = |quality: bool| {
            SageCompressor::new()
                .with_store_order(store_order)
                .with_quality(quality)
                .compress(&ds.reads)
                .unwrap()
        };
        folds(&[encode(true)], &[encode(false)])
    };
    // The benchmark's two chunk shapes: 256 short reads, 8 long reads.
    let chunked = |profile: &DatasetProfile, n_reads: usize, per_chunk: usize| {
        let mut reads = simulate_dataset(profile, 2026).reads;
        reads.reads_mut().truncate(n_reads);
        assert_eq!(reads.len(), n_reads);
        let encode = |quality: bool| {
            SageCompressor::new()
                .with_store_order(true)
                .with_quality(quality)
                .compress_chunked(&reads, per_chunk)
                .unwrap()
        };
        folds(&encode(true), &encode(false))
    };
    let got = [
        ("tiny_short", whole(&DatasetProfile::tiny_short(), false)),
        (
            "tiny_short+order",
            whole(&DatasetProfile::tiny_short(), true),
        ),
        ("tiny_long", whole(&DatasetProfile::tiny_long(), false)),
        ("tiny_long+order", whole(&DatasetProfile::tiny_long(), true)),
        (
            "rs1x2.0, 8 chunks of 256",
            chunked(&DatasetProfile::rs1().scaled(2.0), 2_048, 256),
        ),
        (
            "rs2x0.25, 8 chunks of 256",
            chunked(&DatasetProfile::rs2().scaled(0.25), 2_048, 256),
        ),
        (
            "rs4, 16 chunks of 8",
            chunked(&DatasetProfile::rs4(), 16 * 8, 8),
        ),
    ];
    // (whole archive, DNA side, DNA side `with_quality(false)`).
    let pinned: [(&str, [u64; 3]); 7] = [
        (
            "tiny_short",
            [
                0x6ad8_1dcf_4f22_8e5d,
                0x00c4_fee7_c91f_411b,
                0xff51_65b1_3bc4_ff9d,
            ],
        ),
        (
            "tiny_short+order",
            [
                0x97e9_b53f_2855_214c,
                0xb375_6eb2_cd45_961e,
                0xa6de_1911_d02c_87ac,
            ],
        ),
        (
            "tiny_long",
            [
                0x886a_a377_67ba_45cb,
                0xc698_5fa7_6114_c13d,
                0x60bd_57b3_cbf6_bef7,
            ],
        ),
        (
            "tiny_long+order",
            [
                0xffff_0934_8e3f_fbb2,
                0x40f2_5f66_3bfa_ac94,
                0xe5ef_af8b_2ab9_c376,
            ],
        ),
        (
            "rs1x2.0, 8 chunks of 256",
            [
                0x345e_0128_8d21_4ab7,
                0x2e73_0982_3eba_ef46,
                0xf7f5_11d9_c3f0_32c6,
            ],
        ),
        (
            "rs2x0.25, 8 chunks of 256",
            [
                0xd1ea_42d3_ecd8_48b9,
                0x3974_9b51_93ed_5770,
                0x7f9d_fa6b_e2ec_5308,
            ],
        ),
        (
            "rs4, 16 chunks of 8",
            [
                0x3c6b_0990_be15_c0b4,
                0xc989_9635_f15e_bf53,
                0xa86d_6a8c_aee2_6f33,
            ],
        ),
    ];
    let hex = |(name, f): (&'static str, [u64; 3])| (name, f.map(|h| format!("{h:016x}")));
    assert_eq!(got.map(hex), pinned.map(hex));
}
