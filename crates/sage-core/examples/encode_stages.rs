//! Where one chunk encode spends its time, and what it stored.
//!
//! ```sh
//! cargo run --release -p sage-core --example encode_stages -- rs1   # tiny | rs1 | rs2 | rs4
//! ```
//!
//! Encodes a data set chunk by chunk the way the store does
//! (`with_store_order(true)`, the benchmark's chunk sizes and seed) and
//! prints, per chunk, the median and quartiles of
//!
//! - `sample`: masking, reverse-complementing and sampling the
//!   minimizers of every read in both orientations (`mask_n`,
//!   `revcomp`, `minimizers_into`), which the compressor does once per
//!   read before either half below;
//! - `consensus` and `map`: the two halves of finding mismatches, each
//!   run on its own through the public API (`build_consensus`, then
//!   `Mapper::map` on every masked read);
//! - `find` and `streams+quality`: the same split as the compressor
//!   itself reports it (`CompressionStats::find_mismatch_secs` /
//!   `encode_secs`) — `find` is below `consensus + map` by what the
//!   compressor saves sharing each read's minimizers between the two;
//! - `quality`: `compress_qualities` over the chunk's quality strings,
//!   the part of `streams+quality` that codes them;
//! - `total`: one `compress_detailed` call;
//!
//! then the FNV-1a fold of every chunk's `to_bytes()`, in order. Run it
//! at two commits: the fold says whether a stored byte moved, the split
//! says where the time went.

use sage_core::consensus::{build_consensus, ConsensusConfig, ConsensusMode};
use sage_core::mapper::minimizer::minimizers_into;
use sage_core::mapper::{mask_n, revcomp};
use sage_core::quality::compress_qualities;
use sage_core::{Mapper, MapperConfig, SageCompressor};
use sage_genomics::sim::{simulate_dataset, DatasetProfile};
use sage_genomics::ReadSet;
use std::time::Instant;

/// The benchmark's default seed.
const SEED: u64 = 2026;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `[q1, median, q3]` of `xs`, in µs.
fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| xs[(xs.len() - 1) * q / 4] * 1e6)
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
    let mapper_cfg = MapperConfig::default();
    let ccfg = ConsensusConfig {
        k: mapper_cfg.k,
        w: mapper_cfg.w,
        ..ConsensusConfig::default()
    };

    let mut stages: [Vec<f64>; 7] = Default::default();
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    let mut stored = 0usize;
    for chunk in reads.reads().chunks(per_chunk) {
        let chunk = ReadSet::from_reads(chunk.to_vec());

        let t = Instant::now();
        let mut mins = Vec::new();
        for read in chunk.iter() {
            let fwd = mask_n(read.seq.as_slice());
            minimizers_into(&fwd, mapper_cfg.k, mapper_cfg.w, &mut mins);
            minimizers_into(&revcomp(&fwd), mapper_cfg.k, mapper_cfg.w, &mut mins);
        }
        let sample_s = t.elapsed().as_secs_f64();
        std::hint::black_box(mins);

        let t = Instant::now();
        let consensus = build_consensus(&chunk, &ConsensusMode::DeNovo, &ccfg);
        let consensus_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mapper = Mapper::new(
            consensus.seq.as_slice(),
            &consensus.index,
            mapper_cfg.clone(),
        );
        let mapped = chunk
            .iter()
            .filter(|r| !mapper.map(&mask_n(r.seq.as_slice())).is_unmapped())
            .count();
        let map_s = t.elapsed().as_secs_f64();
        std::hint::black_box(mapped);

        let t = Instant::now();
        let quality = compress_qualities(chunk.iter().map(|r| r.qual.as_deref().unwrap_or(&[])));
        let quality_s = t.elapsed().as_secs_f64();
        std::hint::black_box(quality);

        let t = Instant::now();
        let (archive, stats) = compressor.compress_detailed(&chunk).expect("compress");
        let total_s = t.elapsed().as_secs_f64();

        let bytes = archive.to_bytes();
        stored += bytes.len();
        fold = fnv1a(fold, &bytes);
        for (stage, secs) in stages.iter_mut().zip([
            sample_s,
            consensus_s,
            map_s,
            stats.find_mismatch_secs,
            quality_s,
            stats.encode_secs,
            total_s,
        ]) {
            stage.push(secs);
        }
    }

    println!(
        "{set}: {} reads, {} chunks of {per_chunk}, {stored} bytes stored",
        reads.len(),
        stages[0].len()
    );
    println!("per chunk, us          median   [   q1 ..    q3]");
    let names = [
        "sample",
        "consensus",
        "map",
        "find",
        "quality",
        "streams+quality",
        "total",
    ];
    for (name, stage) in names.iter().zip(stages.iter_mut()) {
        let [q1, med, q3] = quartiles(stage);
        println!("  {name:<18} {med:>8.0}   [{q1:>5.0} .. {q3:>5.0}]");
    }
    println!("fnv1a(stored bytes) = {fold:016x}");
}
