//! Quickstart: compress a read set with SAGe, decompress it, check
//! losslessness and the compression ratio — then serve the same reads
//! with random access through the typed client API (`sage::client`).
//!
//! Run with: `cargo run --release --example quickstart`

use sage::client::DatasetBuilder;
use sage::core::{OutputFormat, SageCompressor, SageDecompressor};
use sage::genomics::sim::{simulate_dataset, DatasetProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize a short-read dataset (stand-in for a FASTQ file).
    let ds = simulate_dataset(&DatasetProfile::rs1().scaled(0.25), 42);
    println!(
        "dataset: {} reads, {} bases, {} quality bytes",
        ds.reads.len(),
        ds.reads.total_bases(),
        ds.reads.total_quality_bytes()
    );

    // 2. Compress. `store_order` keeps the original read order so we
    //    can compare read-for-read below (costs a few bits per read;
    //    leave it off for archival use, like Spring's reorder mode).
    let compressor = SageCompressor::new().with_store_order(true);
    let (archive, stats) = compressor.compress_detailed(&ds.reads)?;
    println!(
        "compressed: DNA {:.2}x, quality {:.2}x ({} -> {} bytes total)",
        stats.dna_ratio(),
        stats.quality_ratio(),
        stats.uncompressed_dna_bytes + stats.uncompressed_quality_bytes,
        archive.total_bytes()
    );
    println!(
        "mapping: {} unmapped, {} chimeric, {} corner-case reads",
        stats.n_unmapped, stats.n_chimeric, stats.n_corner
    );

    // 3. Serialize and decompress (what a `SAGe_Read` would stream).
    let bytes = archive.to_bytes();
    let restored = SageDecompressor::new(OutputFormat::Ascii).decompress_bytes(&bytes)?;

    // 4. Verify losslessness.
    assert_eq!(restored.len(), ds.reads.len());
    for (a, b) in ds.reads.iter().zip(restored.iter()) {
        assert_eq!(a.seq, b.seq, "base-level mismatch");
        assert_eq!(a.qual, b.qual, "quality mismatch");
    }
    println!("round trip verified: every base and quality value restored");

    // 5. Whole-archive decode is the archival path. For *serving*,
    //    encode into the sharded chunk store instead and open a
    //    session: gets return typed tickets and decode only the
    //    chunks they touch.
    let dataset = DatasetBuilder::new().chunk_reads(256).encode(&ds.reads)?;
    let session = dataset.session();
    let window = session.get(100..150)?.wait()?;
    assert_eq!(window.value.len(), 50);
    for (a, b) in window.value.iter().zip(&ds.reads.reads()[100..150]) {
        assert_eq!(a.seq, b.seq, "served read mismatch");
    }
    println!(
        "served a 50-read random window: {} chunk decoded, {} cache hits",
        window.report.cache_misses, window.report.cache_hits
    );
    Ok(())
}
