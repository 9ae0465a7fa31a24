//! The end-to-end experiment runner.
//!
//! Builds the pipelined stage set for a (preparation, analysis,
//! dataset, system) combination, times it, and accounts energy. This is
//! the engine behind Figs. 1, 4, 13, 14, 15 and 16.

use crate::analysis::AnalysisKind;
use crate::energy::{energy_joules, EnergyInputs, HostPower};
use crate::prep::PrepKind;
use crate::stage::{bottleneck, pipeline_seconds, Stage};
use sage_hw::{CycleModel, IntegrationMode};
use sage_ssd::SsdConfig;

/// Bytes per base when reads cross an interface in SAGe's 2-bit packed
/// format (the `SAGe_Read` format parameter, §5.4).
pub const PACKED_BYTES_PER_BASE: f64 = 0.25;

/// What the pipeline needs to know about a dataset. Ratios come from
/// *actual* compression runs (the figure harnesses measure them with
/// the real codecs).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetModel {
    /// Label (e.g. `"RS2"`).
    pub name: String,
    /// Total bases in the read set.
    pub total_bases: f64,
    /// Number of reads.
    pub n_reads: f64,
    /// pigz DNA+quality compression ratio.
    pub ratio_pigz: f64,
    /// Spring/NanoSpring ratio.
    pub ratio_spring: f64,
    /// SAGe ratio.
    pub ratio_sage: f64,
    /// Fraction of reads GenStore's ISF filters for this dataset.
    pub isf_filter_fraction: f64,
}

impl DatasetModel {
    /// A representative short-read dataset using the paper's average
    /// ratios (pigz 5.4, genomic 16.9, SAGe 15.8).
    pub fn example_short() -> DatasetModel {
        DatasetModel {
            name: "example-short".into(),
            total_bases: 1e11,
            n_reads: 1e9,
            ratio_pigz: 5.4,
            ratio_spring: 16.9,
            ratio_sage: 15.8,
            isf_filter_fraction: 0.35,
        }
    }

    /// The compression ratio governing a preparation config's I/O.
    pub fn ratio_for(&self, prep: PrepKind) -> f64 {
        match prep {
            PrepKind::Pigz => self.ratio_pigz,
            PrepKind::NSpr | PrepKind::NSprAc | PrepKind::ZeroTimeDec => self.ratio_spring,
            PrepKind::SageSw | PrepKind::SageStore | PrepKind::SageHw | PrepKind::SageSsd => {
                self.ratio_sage
            }
        }
    }
}

/// The evaluated system: SSD(s) + host + SAGe hardware parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// SSD device model.
    pub ssd: SsdConfig,
    /// Number of SSDs (data disjointly partitioned, §8.1 "Multiple
    /// SSDs").
    pub n_ssds: usize,
    /// Host CPU threads available to software decompressors.
    pub host_threads: usize,
    /// Host power model.
    pub host_power: HostPower,
    /// Pipeline batch count.
    pub batches: usize,
}

impl SystemConfig {
    /// High-end server with one performance PCIe SSD (§7).
    pub fn pcie() -> SystemConfig {
        SystemConfig {
            ssd: SsdConfig::pcie(),
            n_ssds: 1,
            host_threads: 128,
            host_power: HostPower::default(),
            batches: 128,
        }
    }

    /// Same server with one cost-optimized SATA SSD.
    pub fn sata() -> SystemConfig {
        SystemConfig {
            ssd: SsdConfig::sata(),
            ..SystemConfig::pcie()
        }
    }

    /// Returns a copy with a different SSD count.
    pub fn with_ssds(mut self, n: usize) -> SystemConfig {
        assert!(n > 0, "need at least one SSD");
        self.n_ssds = n;
        self
    }

    /// The per-device configurations of the fleet: `n_ssds` copies of
    /// the system's SSD, individually named. This is what flows into
    /// multi-SSD chunk placement (`sage_io::DeviceMap`), so the
    /// Fig. 15 device-count sweep and the store path agree on the
    /// hardware.
    pub fn device_configs(&self) -> Vec<SsdConfig> {
        (0..self.n_ssds)
            .map(|i| {
                let mut cfg = self.ssd.clone();
                cfg.name = format!("{} #{i}", self.ssd.name);
                cfg
            })
            .collect()
    }
}

/// Result of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// End-to-end wall time (s).
    pub seconds: f64,
    /// End-to-end throughput in reads/second.
    pub reads_per_sec: f64,
    /// Preparation-stage rate in original bases/second (Fig. 14).
    pub prep_rate: f64,
    /// I/O-stage rate in original bases/second.
    pub io_rate: f64,
    /// Which stage bound the pipeline.
    pub bottleneck: &'static str,
    /// End-to-end energy (J).
    pub energy_joules: f64,
}

/// Runs one experiment.
///
/// # Panics
///
/// Panics if [`AnalysisKind::GenStoreIsf`] is combined with a
/// preparation config other than [`PrepKind::SageSsd`]: the in-storage
/// filter requires in-SSD data preparation (§7 — that is the point of
/// the case study).
pub fn run_experiment(
    prep: PrepKind,
    analysis: AnalysisKind,
    ds: &DatasetModel,
    sys: &SystemConfig,
) -> Outcome {
    if analysis.filters_in_storage() {
        assert!(
            prep == PrepKind::SageSsd,
            "GenStore's ISF requires in-SSD data preparation (SAGeSSD)"
        );
    }
    let ratio = ds.ratio_for(prep);
    let host_if = sys.ssd.host_bytes_per_sec * sys.n_ssds as f64;
    let logic_bw =
        CycleModel::default().logic_bandwidth_bases_per_sec(sys.ssd.channels) * sys.n_ssds as f64;

    let mut stages: Vec<Stage> = Vec::with_capacity(3);
    let prep_rate;
    let io_rate;
    match prep {
        PrepKind::Pigz
        | PrepKind::NSpr
        | PrepKind::NSprAc
        | PrepKind::SageSw
        | PrepKind::SageStore => {
            // Compressed data crosses the interface; the host inflates.
            io_rate = host_if * ratio;
            stages.push(Stage::new("io", io_rate));
            let model = prep.host_model().expect("host config");
            prep_rate = model.rate(sys.host_threads);
            stages.push(Stage::new("prep", prep_rate));
        }
        PrepKind::ZeroTimeDec => {
            io_rate = host_if * ratio;
            stages.push(Stage::new("io", io_rate));
            prep_rate = f64::INFINITY;
            stages.push(Stage {
                name: "prep",
                rate: prep_rate,
            });
        }
        PrepKind::SageHw => {
            // Mode 1: compressed over the host interface into the SAGe
            // device; decompression at logic bandwidth.
            io_rate = host_if * ratio;
            stages.push(Stage::new("io", io_rate));
            prep_rate = logic_bw;
            stages.push(Stage::new("prep", prep_rate));
        }
        PrepKind::SageSsd => {
            // Mode 3: decompression inside the SSD at internal NAND
            // bandwidth; prepared (2-bit packed) reads cross the host
            // interface, scaled down by any in-storage filtering.
            let internal = sys.ssd.internal_read_bw(true) * ratio * sys.n_ssds as f64;
            prep_rate = internal.min(logic_bw);
            stages.push(Stage::new("prep", prep_rate));
            let traffic = analysis.host_traffic_fraction();
            io_rate = if traffic <= 0.0 {
                f64::INFINITY
            } else {
                host_if / PACKED_BYTES_PER_BASE / traffic
            };
            stages.push(Stage {
                name: "io",
                rate: io_rate,
            });
        }
    }
    if analysis.filters_in_storage() {
        stages.push(Stage::new(
            "isf",
            crate::analysis::ISF_BASES_PER_SEC_PER_SSD * sys.n_ssds as f64,
        ));
    }
    stages.push(Stage::new(
        "analysis",
        analysis.mapper_rate_original_bases(),
    ));

    let seconds = pipeline_seconds(ds.total_bases, &stages, sys.batches);
    let energy = energy_joules(
        &sys.host_power,
        &EnergyInputs {
            seconds,
            host_cpu_active: prep.uses_host_cpu(),
            n_ssds: sys.n_ssds,
            ssd_active_w: sys.ssd.active_power_w,
            sage_hw: match prep {
                PrepKind::SageHw => Some(IntegrationMode::Pcie),
                PrepKind::SageSsd => Some(IntegrationMode::InSsd),
                _ => None,
            },
            sage_channels: sys.ssd.channels,
        },
    );
    Outcome {
        seconds,
        reads_per_sec: ds.n_reads / seconds,
        prep_rate,
        io_rate,
        bottleneck: bottleneck(&stages).name,
        energy_joules: energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> DatasetModel {
        DatasetModel::example_short()
    }

    fn run(prep: PrepKind, sys: &SystemConfig) -> Outcome {
        run_experiment(prep, AnalysisKind::Gem, &ds(), sys)
    }

    #[test]
    fn sage_matches_zero_time_dec_on_pcie() {
        let sys = SystemConfig::pcie();
        let sage = run(PrepKind::SageHw, &sys);
        let ideal = run(PrepKind::ZeroTimeDec, &sys);
        let ratio = sage.seconds / ideal.seconds;
        assert!(
            (ratio - 1.0).abs() < 0.02,
            "SAGe {} vs 0TimeDec {}",
            sage.seconds,
            ideal.seconds
        );
        assert_eq!(sage.bottleneck, "analysis");
    }

    #[test]
    fn prep_ordering_matches_paper() {
        let sys = SystemConfig::pcie();
        let t = |k| run(k, &sys).seconds;
        assert!(t(PrepKind::Pigz) > t(PrepKind::NSpr));
        assert!(t(PrepKind::NSpr) > t(PrepKind::NSprAc));
        assert!(t(PrepKind::NSprAc) > t(PrepKind::SageSw));
        assert!(t(PrepKind::SageSw) > t(PrepKind::SageHw));
    }

    #[test]
    fn speedup_magnitudes_are_paper_scale() {
        // Paper (PCIe): 12.3x over pigz, 3.9x over (N)Spr, 3.0x over
        // (N)SprAC. Accept the same order of magnitude.
        let sys = SystemConfig::pcie();
        let sage = run(PrepKind::SageHw, &sys);
        let speedup = |k: PrepKind| run(k, &sys).seconds / sage.seconds;
        let s_pigz = speedup(PrepKind::Pigz);
        let s_spr = speedup(PrepKind::NSpr);
        let s_ac = speedup(PrepKind::NSprAc);
        assert!(s_pigz > 4.0 && s_pigz < 30.0, "pigz speedup {s_pigz}");
        assert!(s_spr > 2.0 && s_spr < 25.0, "spr speedup {s_spr}");
        assert!(s_ac > 1.5 && s_ac < 15.0, "sprac speedup {s_ac}");
        assert!(s_pigz > s_spr && s_spr > s_ac);
    }

    #[test]
    fn device_configs_name_each_fleet_member() {
        let sys = SystemConfig::pcie().with_ssds(3);
        let fleet = sys.device_configs();
        assert_eq!(fleet.len(), 3);
        for (i, cfg) in fleet.iter().enumerate() {
            assert_eq!(cfg.channels, sys.ssd.channels);
            assert!(cfg.name.ends_with(&format!("#{i}")), "{}", cfg.name);
        }
        assert_eq!(SystemConfig::sata().device_configs().len(), 1);
    }

    #[test]
    fn isf_beats_plain_sage_on_pcie() {
        let sys = SystemConfig::pcie();
        let sage = run(PrepKind::SageHw, &sys);
        let isf = run_experiment(
            PrepKind::SageSsd,
            AnalysisKind::GenStoreIsf {
                filter_fraction: ds().isf_filter_fraction,
            },
            &ds(),
            &sys,
        );
        assert!(isf.seconds < sage.seconds);
    }

    #[test]
    fn low_filter_on_sata_prefers_external_sage() {
        // §8.1 observation 4: when the ISF filters little and the SSD's
        // external bandwidth binds, decompressing outside the SSD wins.
        let sys = SystemConfig::sata();
        let sage = run(PrepKind::SageHw, &sys);
        let isf = run_experiment(
            PrepKind::SageSsd,
            AnalysisKind::GenStoreIsf {
                filter_fraction: 0.2,
            },
            &ds(),
            &sys,
        );
        assert!(
            sage.seconds < isf.seconds,
            "SAGe {} vs SAGeSSD+ISF {}",
            sage.seconds,
            isf.seconds
        );
    }

    #[test]
    fn high_filter_on_sata_prefers_in_ssd() {
        let sys = SystemConfig::sata();
        let sage = run(PrepKind::SageHw, &sys);
        let isf = run_experiment(
            PrepKind::SageSsd,
            AnalysisKind::GenStoreIsf {
                filter_fraction: 0.92,
            },
            &ds(),
            &sys,
        );
        assert!(isf.seconds < sage.seconds);
    }

    #[test]
    fn energy_reduction_is_large() {
        let sys = SystemConfig::pcie();
        let sage = run(PrepKind::SageHw, &sys);
        let pigz = run(PrepKind::Pigz, &sys);
        let reduction = pigz.energy_joules / sage.energy_joules;
        assert!(reduction > 10.0, "energy reduction {reduction}");
    }

    #[test]
    fn more_ssds_help_isf_bound_configs() {
        let ds = DatasetModel {
            isf_filter_fraction: 0.85,
            ..DatasetModel::example_short()
        };
        let run_n = |n: usize| {
            run_experiment(
                PrepKind::SageSsd,
                AnalysisKind::GenStoreIsf {
                    filter_fraction: ds.isf_filter_fraction,
                },
                &ds,
                &SystemConfig::sata().with_ssds(n),
            )
        };
        assert!(run_n(4).seconds < run_n(1).seconds);
    }

    #[test]
    #[should_panic(expected = "requires in-SSD")]
    fn isf_requires_in_ssd_prep() {
        run_experiment(
            PrepKind::ZeroTimeDec,
            AnalysisKind::GenStoreIsf {
                filter_fraction: 0.5,
            },
            &ds(),
            &SystemConfig::pcie(),
        );
    }

    #[test]
    fn multiple_ssds_never_hurt() {
        let sys1 = SystemConfig::pcie();
        let sys4 = SystemConfig::pcie().with_ssds(4);
        for prep in PrepKind::all() {
            if prep == PrepKind::SageSsd {
                continue;
            }
            let t1 = run(prep, &sys1).seconds;
            let t4 = run(prep, &sys4).seconds;
            assert!(t4 <= t1 * 1.0001, "{}: {t1} -> {t4}", prep.label());
        }
    }
}
