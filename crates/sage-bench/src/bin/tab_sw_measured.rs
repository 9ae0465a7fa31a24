//! Measured software throughput of *our implementations* (single
//! thread, this machine) — the empirical companion to Table 3's
//! modeled column and the basis for the SAGeSW configuration. With
//! quality included, both genomic decoders spend most of their time in
//! the (shared) quality codec; the DNA-only column isolates SAGe's
//! streaming base reconstruction, which is what the hardware implements.

use sage_baselines::{GzipLike, SpringLike};
use sage_bench::{banner, dataset, row};
use sage_core::{OutputFormat, SageCompressor, SageDecompressor};
use sage_genomics::fastq::read_set_to_fastq;
use sage_genomics::sim::DatasetProfile;
use std::time::Instant;

fn time<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    // One warm-up, then the best of `reps` (steady-state throughput).
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    banner("Measured single-thread decompression throughput (MB of bases /s)");
    let widths = [6, 12, 14, 12, 14];
    println!(
        "{}",
        row(
            &[
                "set".into(),
                "pigz-like".into(),
                "spring-like".into(),
                "SAGeSW".into(),
                "SAGeSW(DNA)".into(),
            ],
            &widths
        )
    );
    for profile in [
        DatasetProfile::rs1().scaled(0.5),
        DatasetProfile::rs4().scaled(0.5),
    ] {
        let ds = dataset(&profile);
        let bases = ds.reads.total_bases() as f64;
        let fastq = read_set_to_fastq(&ds.reads);

        let gz = GzipLike::new();
        let gz_archive = gz.compress(&fastq);
        let gz_t = time(|| drop(gz.decompress(&gz_archive).unwrap()), 3);

        let spring = SpringLike::new();
        let spring_archive = spring.compress(&ds.reads);
        let spring_t = time(|| drop(spring.decompress(&spring_archive).unwrap()), 3);

        let sage_archive = SageCompressor::new().compress(&ds.reads).unwrap();
        let dec = SageDecompressor::new(OutputFormat::Ascii);
        let sage_t = time(|| drop(dec.decompress(&sage_archive).unwrap()), 3);

        let dna_archive = SageCompressor::new()
            .with_quality(false)
            .compress(&ds.reads)
            .unwrap();
        let dna_t = time(|| drop(dec.decompress(&dna_archive).unwrap()), 3);

        println!(
            "{}",
            row(
                &[
                    profile.name.clone(),
                    format!("{:.1}", fastq.len() as f64 / gz_t / 1e6),
                    format!("{:.1}", bases / spring_t / 1e6),
                    format!("{:.1}", bases / sage_t / 1e6),
                    format!("{:.1}", bases / dna_t / 1e6),
                ],
                &widths
            )
        );
    }
    println!("\n(both genomic decoders include quality decompression; the");
    println!(" pigz-like row decompresses the whole FASTQ text)");
}
