//! Adversarial edge cases for the codec: inputs no simulator would
//! produce but a production tool must survive.

use sage_core::{OutputFormat, SageArchive, SageCompressor, SageDecompressor, SageError};
use sage_genomics::sim::{simulate_dataset, DatasetProfile};
use sage_genomics::{DnaSeq, Read, ReadSet};

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
            seq: DnaSeq::new(),
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

#[test]
fn per_stream_corruption_never_panics() {
    // Corrupt each archive region in several places; the decoder must
    // return an error or garbage, never panic or hang.
    let rs: ReadSet = (0..50)
        .map(|i| {
            let mut s = "ACGGTTAACCGGATCGGATTACAGGCATGAGCCACCGCGTAAGGC".to_string();
            if i % 7 == 0 {
                s.push('N');
            }
            read(&s)
        })
        .collect();
    let archive = SageCompressor::new().compress(&rs).expect("compress");
    let bytes = archive.to_bytes();
    for step in [3usize, 17, 61] {
        for start in [
            0usize,
            bytes.len() / 4,
            bytes.len() / 2,
            bytes.len() * 3 / 4,
        ] {
            let mut corrupted = bytes.clone();
            let mut i = start;
            while i < corrupted.len() {
                corrupted[i] ^= 0xA5;
                i += step * 97;
            }
            if let Ok(archive) = SageArchive::from_bytes(&corrupted) {
                let _ = SageDecompressor::default().decompress(&archive);
            }
        }
    }
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
            seq: DnaSeq::new(),
            qual: Some(vec![]),
        },
        Read {
            id: None,
            seq: DnaSeq::new(),
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
