//! Cross-crate system tests: the evaluation model must reproduce the
//! paper's qualitative results when fed *measured* compression ratios
//! from the real codecs.

use sage::core::OutputFormat;
use sage::core::SageCompressor;
use sage::genomics::sim::{simulate_dataset, DatasetProfile};
use sage::hw::{HwCost, IntegrationMode, ThroughputModel};
use sage::pipeline::{run_experiment, AnalysisKind, DatasetModel, PrepKind, SystemConfig};
use sage::ssd::{SsdCommand, SsdConfig, SsdModel};
use sage_baselines::SpringLike;

fn measured_model(profile: &DatasetProfile, seed: u64) -> DatasetModel {
    let ds = simulate_dataset(profile, seed);
    let (_, spring) = SpringLike::new().compress_detailed(&ds.reads);
    let (_, sage) = SageCompressor::new()
        .compress_detailed(&ds.reads)
        .expect("compress");
    DatasetModel {
        name: profile.name.clone(),
        total_bases: ds.reads.total_bases() as f64,
        n_reads: ds.reads.len() as f64,
        ratio_pigz: 4.0,
        ratio_spring: spring.dna_ratio(),
        ratio_sage: sage.dna_ratio(),
        isf_filter_fraction: profile.isf_filter_fraction,
    }
}

#[test]
fn measured_ratios_keep_sage_near_ideal() {
    let model = measured_model(&DatasetProfile::tiny_short(), 201);
    // Measured SAGe ratio must be close to the Spring-class ratio
    // (paper: within ~5%; we accept 25% on tiny sets).
    assert!(model.ratio_sage > 0.75 * model.ratio_spring);
    let sys = SystemConfig::pcie();
    let sage = run_experiment(PrepKind::SageHw, AnalysisKind::Gem, &model, &sys);
    let ideal = run_experiment(PrepKind::ZeroTimeDec, AnalysisKind::Gem, &model, &sys);
    assert!((sage.seconds / ideal.seconds - 1.0).abs() < 0.05);
    // And both are analysis-bound: preparation is no longer the
    // bottleneck (the paper's headline claim).
    assert_eq!(sage.bottleneck, "analysis");
}

#[test]
fn end_to_end_speedups_hold_with_measured_ratios() {
    let model = measured_model(&DatasetProfile::tiny_short(), 202);
    let sys = SystemConfig::pcie();
    let secs = |p: PrepKind| run_experiment(p, AnalysisKind::Gem, &model, &sys).seconds;
    let sage = secs(PrepKind::SageHw);
    assert!(secs(PrepKind::Pigz) / sage > 4.0);
    assert!(secs(PrepKind::NSpr) / sage > 2.0);
    assert!(secs(PrepKind::NSprAc) / sage > 1.5);
    assert!(secs(PrepKind::SageSw) / sage > 1.2);
}

#[test]
fn hw_decompression_outpaces_gem_consumption() {
    // The decompression hardware must never starve the mapper: its
    // NAND-bound output exceeds GEM's 6.9 Gbases/s for all measured
    // ratios above ~1.5.
    let model = measured_model(&DatasetProfile::tiny_long(), 203);
    let hw = ThroughputModel::default_8ch();
    assert!(hw.output_bandwidth(model.ratio_sage) > 6.92e9);
}

#[test]
fn in_ssd_integration_budget_is_tiny() {
    let hw = HwCost::new(SsdConfig::pcie().channels, IntegrationMode::InSsd);
    assert!(hw.fraction_of_ssd_controller_cores() < 0.01);
    assert!(hw.total_power_mw() < 1.0);
}

#[test]
fn storage_path_sustains_model_bandwidth() {
    // The SSD model's SAGe_Read bandwidth must match what the pipeline
    // model assumes for in-SSD preparation.
    let ssd = SsdModel::new(SsdConfig::pcie());
    let bytes = 1 << 28;
    let r = ssd.execute(SsdCommand::SageRead {
        bytes,
        format: OutputFormat::Packed2,
    });
    let measured_bw = bytes as f64 / r.seconds;
    let assumed = ssd.config().internal_read_bw(true);
    assert!((measured_bw / assumed - 1.0).abs() < 0.05);
}

#[test]
fn energy_shape_matches_paper() {
    let model = measured_model(&DatasetProfile::tiny_short(), 204);
    let sys = SystemConfig::pcie();
    let energy = |p: PrepKind| run_experiment(p, AnalysisKind::Gem, &model, &sys).energy_joules;
    let sage = energy(PrepKind::SageHw);
    // Paper: 34.0x / 16.9x / 13.0x over pigz / (N)Spr / (N)SprAC.
    // Accept the same ordering and >5x magnitudes.
    let pigz = energy(PrepKind::Pigz) / sage;
    let spr = energy(PrepKind::NSpr) / sage;
    let ac = energy(PrepKind::NSprAc) / sage;
    assert!(pigz > spr && spr > ac && ac > 3.0, "{pigz} {spr} {ac}");
}

#[test]
fn faster_prep_never_hurts_any_dataset() {
    // Pipeline monotonicity across both tiny profiles and systems.
    for profile in [DatasetProfile::tiny_short(), DatasetProfile::tiny_long()] {
        let model = measured_model(&profile, 205);
        for sys in [SystemConfig::pcie(), SystemConfig::sata()] {
            let ordered = [
                PrepKind::Pigz,
                PrepKind::NSpr,
                PrepKind::NSprAc,
                PrepKind::SageSw,
            ];
            let mut last = f64::INFINITY;
            for p in ordered {
                let t = run_experiment(p, AnalysisKind::Gem, &model, &sys).seconds;
                assert!(
                    t <= last * 1.0001,
                    "{} slower than its slower predecessor on {}",
                    p.label(),
                    sys.ssd.name
                );
                last = t;
            }
        }
    }
}

#[test]
fn hardware_cycle_model_consumes_real_archive() {
    use sage::core::{SageCompressor, SageDecompressor};
    use sage::hw::{CycleModel, DecodeWorkload};

    let ds = simulate_dataset(&DatasetProfile::tiny_long(), 206);
    let archive = SageCompressor::new().compress(&ds.reads).expect("compress");
    let (reads, stats) = SageDecompressor::default()
        .decompress_with_stats(&archive)
        .expect("decompress");
    assert_eq!(stats.reads, reads.len() as u64);
    assert_eq!(stats.bases, reads.total_bases() as u64);
    assert!(stats.mismatch_records > 0);

    let w = DecodeWorkload::from_decode_stats(&archive, &stats);
    let model = CycleModel::default();
    let secs_8ch = model.decode_seconds(&w, 8);
    // Decoding an MB-scale archive must take the hardware well under a
    // millisecond — and the implied bandwidth must exceed GEM's rate.
    assert!(secs_8ch < 1e-3, "took {secs_8ch}s");
    let bandwidth = stats.bases as f64 / secs_8ch;
    assert!(bandwidth > 6.92e9, "logic bandwidth {bandwidth} too low");
}
