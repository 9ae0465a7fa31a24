//! Dataset explorer: synthesize a read set, map it, and print the
//! statistical properties SAGe's encodings exploit — the same analyses
//! behind the paper's Fig. 7 and Fig. 10 — plus the per-optimization
//! size breakdown (Fig. 17) for this dataset.
//!
//! Run with: `cargo run --release --example dataset_explorer -- [short|long]`

use sage::client::DatasetBuilder;
use sage::core::ablation::{ablation_breakdowns, OptLevel};
use sage::core::SageCompressor;
use sage::genomics::sim::{simulate_dataset, DatasetProfile};
use sage::genomics::stats::{
    chimeric_mismatch_base_fraction, matching_position_bits_histogram, mismatch_count_histogram,
    mismatch_position_bits_histogram,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = std::env::args().nth(1).unwrap_or_else(|| "long".into());
    let profile = match kind.as_str() {
        "short" => DatasetProfile::rs2().scaled(0.25),
        _ => DatasetProfile::rs4().scaled(0.25),
    };
    let ds = simulate_dataset(&profile, 11);
    println!(
        "{}: {} reads, {} bases",
        profile.name,
        ds.reads.len(),
        ds.reads.total_bases()
    );

    let (consensus, alignments) = SageCompressor::new().analyze(&ds.reads)?;
    println!(
        "consensus: {} bases ({}x smaller than the reads)",
        consensus.seq.len(),
        ds.reads.total_bases() / consensus.seq.len().max(1)
    );
    let unmapped = alignments.iter().filter(|a| a.is_unmapped()).count();
    println!(
        "mapped {}/{} reads ({} chimeric), {:.1}% of mismatch bases in chimeric reads",
        ds.reads.len() - unmapped,
        ds.reads.len(),
        alignments.iter().filter(|a| a.segments.len() > 1).count(),
        chimeric_mismatch_base_fraction(&alignments) * 100.0,
    );

    println!("\nmismatch-position delta bits (Property 1):");
    for (bits, f) in mismatch_position_bits_histogram(&alignments)
        .fractions()
        .iter()
        .enumerate()
    {
        if *f > 0.002 {
            println!("  {bits:>2} bits {:>5.1}%", f * 100.0);
        }
    }
    println!("matching-position delta bits after reorder (Property 6):");
    for (bits, f) in matching_position_bits_histogram(&alignments)
        .fractions()
        .iter()
        .enumerate()
    {
        if *f > 0.002 {
            println!("  {bits:>2} bits {:>5.1}%", f * 100.0);
        }
    }
    let counts = mismatch_count_histogram(&alignments);
    println!(
        "reads with zero mismatches (Property 2): {:.1}%",
        counts.fractions().first().copied().unwrap_or(0.0) * 100.0
    );

    let n_counts: Vec<usize> = ds.reads.iter().map(|r| r.seq.n_positions().len()).collect();
    let bds = ablation_breakdowns(&ds.reads, &alignments, &n_counts, 0.01);
    let no = bds[0].1.total_bits() as f64;
    println!("\ncumulative optimization effect (Fig. 17 style):");
    for (level, b) in &bds {
        println!(
            "  {:>2}: {:>6.1}% of raw mismatch-information size",
            level.label(),
            b.total_bits() as f64 / no * 100.0
        );
    }
    let o4 = bds
        .iter()
        .find(|(l, _)| *l == OptLevel::O4)
        .expect("O4 present");
    println!(
        "SAGe's tuned encoding stores the mismatch information in {:.1}x less space",
        no / o4.1.total_bits() as f64
    );

    // Finally, the access-path view: serve the same dataset through
    // the typed client API and pull one random window — the report
    // shows how few chunks a windowed get actually decodes.
    let chunk_reads = (ds.reads.len() / 16).max(4);
    let dataset = DatasetBuilder::new()
        .chunk_reads(chunk_reads)
        .cache_chunks(8)
        .encode(&ds.reads)?;
    let mid = dataset.total_reads() / 2;
    let span = (2 * chunk_reads as u64).min(dataset.total_reads() - mid);
    let window = dataset.session().get(mid..mid + span)?.wait()?;
    println!(
        "\nrandom access: a {span}-read window at id {mid} decoded {} of {} chunks",
        window.report.chunks_touched,
        ds.reads.len().div_ceil(chunk_reads),
    );
    Ok(())
}
