//! Where one chunk decode spends its time, and what it gave back.
//!
//! ```sh
//! cargo run --release -p sage-core --example decode_stages -- rs4   # tiny | rs1 | rs2 | rs4
//! ```
//!
//! Encodes a data set chunk by chunk the way the store does
//! (`with_store_order(true)`, the benchmark's chunk sizes and seed),
//! then prints, per chunk, the median and quartiles of
//!
//! - `parse`: `SageArchive::from_bytes` on the stored bytes;
//! - `decode_chunk`: `SageDecompressor::decode_chunk`, bases and
//!   qualities — what a store miss pays after the parse;
//! - `quality`: `decompress_qualities` on the chunk's quality stream
//!   alone, the host-side share of `decode_chunk`;
//!
//! each the fastest of three runs, then the FNV-1a fold of every decoded
//! base and quality byte, chunk by chunk in dataset order. Run it at two
//! commits: the fold says whether a decoded byte moved, the split says
//! where the time went.

use sage_core::container::SageArchive;
use sage_core::quality::decompress_qualities;
use sage_core::{OutputFormat, SageCompressor, SageDecompressor};
use sage_genomics::sim::{simulate_dataset, DatasetProfile};
use sage_genomics::ReadSet;
use std::hint::black_box;
use std::time::Instant;

/// The benchmark's default seed.
const SEED: u64 = 2026;
/// Runs of each stage per chunk; the fastest is kept.
const RUNS: usize = 3;

fn fnv1a(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `[q1, median, q3]` of `xs`, in µs.
fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| xs[(xs.len() - 1) * q / 4] * 1e6)
}

/// The fastest of [`RUNS`] calls of `f`, in seconds.
fn fastest<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let set = std::env::args().nth(1).unwrap_or_else(|| "tiny".into());
    let (profile, per_chunk) = match set.as_str() {
        "tiny" => (DatasetProfile::tiny_short(), 256),
        "rs1" => (DatasetProfile::rs1().scaled(2.0), 256),
        "rs2" => (DatasetProfile::rs2().scaled(0.25), 256),
        "rs4" => (DatasetProfile::rs4(), 8),
        other => {
            eprintln!("unknown set {other:?}: expected tiny | rs1 | rs2 | rs4");
            std::process::exit(2);
        }
    };
    let reads = simulate_dataset(&profile, SEED).reads;
    let compressor = SageCompressor::new().with_store_order(true);
    let decoder = SageDecompressor::new(OutputFormat::Ascii);

    let mut stages: [Vec<f64>; 3] = Default::default();
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    let (mut symbols, mut quality_bytes) = (0usize, 0usize);
    for chunk in reads.reads().chunks(per_chunk) {
        let chunk = ReadSet::from_reads(chunk.to_vec());
        let bytes = compressor.compress(&chunk).expect("compress").to_bytes();
        let archive = SageArchive::from_bytes(&bytes).expect("parse");
        // The quality stream is in storage order; so must the lengths be.
        let lens: Vec<usize> = (decoder.stream(&archive).expect("open"))
            .map(|r| r.expect("stream").seq.len())
            .collect();
        symbols += lens.iter().sum::<usize>();
        quality_bytes += archive.streams.qual.len();

        let parse_s = fastest(|| SageArchive::from_bytes(&bytes).expect("parse"));
        let decode_s = fastest(|| decoder.decode_chunk(&archive).expect("decode"));
        let quality_s = fastest(|| {
            decompress_qualities(&archive.streams.qual, &lens).expect("decode qualities")
        });
        for (stage, secs) in stages.iter_mut().zip([parse_s, decode_s, quality_s]) {
            stage.push(secs);
        }

        let cols = decoder.decode_chunk(&archive).expect("decode");
        for read in cols.iter() {
            fold = fnv1a(fold, read.seq.iter().map(|&b| u8::from(b)));
            fold = fnv1a(fold, read.qual.0.unwrap_or_default().iter().copied());
        }
    }

    println!(
        "{set}: {} reads, {} chunks of {per_chunk}, {symbols} quality symbols in {quality_bytes} bytes",
        reads.len(),
        stages[0].len()
    );
    println!("per chunk, us          median   [   q1 ..    q3]");
    for (name, stage) in ["parse", "decode_chunk", "quality"]
        .iter()
        .zip(stages.iter_mut())
    {
        let [q1, med, q3] = quartiles(stage);
        println!("  {name:<18} {med:>8.1}   [{q1:>6.1} .. {q3:>6.1}]");
    }
    println!("fnv1a(decoded bases and qualities) = {fold:016x}");
}
