//! Dataset profiles mirroring the paper's evaluation read sets.
//!
//! Table 2 of the paper evaluates three short-read sets (RS1 cacao,
//! RS2 deep human, RS3 diverse human) and two long-read sets (RS4 human
//! nanopore, RS5 banana nanopore) ranging from 8 GB to 176 GB
//! uncompressed. We reproduce their *mix of characteristics* — depth,
//! divergence from the consensus, error profile, quality-score entropy —
//! at megabyte scale so every experiment reruns in seconds. The
//! [`scaled`](DatasetProfile::scaled) method shrinks or grows a profile
//! uniformly.

use crate::sim::long::LongReadConfig;
use crate::sim::short::ShortReadConfig;

/// Sequencing technology of a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadTech {
    /// Illumina-like: short, fixed-length, accurate,
    /// substitution-dominated.
    Short,
    /// Nanopore-like: long, variable-length, indel-dominated, chimeric
    /// reads and clips.
    Long,
}

/// Everything needed to synthesize one evaluation dataset.
#[derive(Debug, Clone)]
pub struct DatasetProfile {
    /// Dataset label (e.g. `"RS2"`).
    pub name: String,
    /// Sequencing technology.
    pub tech: ReadTech,
    /// Reference genome length in bases.
    pub genome_len: usize,
    /// Average sequencing depth (total read bases / genome length).
    pub coverage: f64,
    /// Donor-vs-consensus divergence (per-base variant rate outside
    /// hotspots). Higher divergence = worse genomic compression, like
    /// the paper's RS3.
    pub divergence: f64,
    /// Fraction of the reference generated by repeat copying.
    pub repeat_fraction: f64,
    /// Fixed read length (short-read profiles).
    pub short_read_len: usize,
    /// Per-base substitution error rate.
    pub sub_error_rate: f64,
    /// Long-read length bounds.
    pub long_len_range: (usize, usize),
    /// Long-read total error rate.
    pub long_error_rate: f64,
    /// Long-read chimera probability (Property 4 driver).
    pub chimera_prob: f64,
    /// Number of distinct quality symbols (drives quality-stream
    /// entropy, hence Table 2's quality ratios).
    pub quality_levels: u8,
    /// Fraction of reads the GenStore in-storage filter discards for
    /// this dataset's analysis task (drives the SAGeSSD+ISF results).
    pub isf_filter_fraction: f64,
}

impl DatasetProfile {
    /// RS1 analogue: plant (cacao) short reads, moderate depth.
    pub fn rs1() -> DatasetProfile {
        DatasetProfile {
            name: "RS1".into(),
            tech: ReadTech::Short,
            genome_len: 200_000,
            coverage: 12.0,
            divergence: 1.2e-3,
            repeat_fraction: 0.10,
            short_read_len: 100,
            sub_error_rate: 1e-3,
            long_len_range: (500, 25_000),
            long_error_rate: 0.01,
            chimera_prob: 0.0,
            quality_levels: 8,
            isf_filter_fraction: 0.25,
        }
    }

    /// RS2 analogue: deep, low-divergence human short reads — the
    /// best-compressing set (paper: Spring ratio 40×).
    pub fn rs2() -> DatasetProfile {
        DatasetProfile {
            name: "RS2".into(),
            tech: ReadTech::Short,
            genome_len: 400_000,
            coverage: 25.0,
            divergence: 6e-4,
            repeat_fraction: 0.12,
            short_read_len: 150,
            sub_error_rate: 8e-4,
            long_len_range: (500, 25_000),
            long_error_rate: 0.01,
            chimera_prob: 0.0,
            quality_levels: 6,
            isf_filter_fraction: 0.35,
        }
    }

    /// RS3 analogue: diverse human short reads — the worst-compressing
    /// short set (paper: Spring ratio 7.2×) but with very compressible
    /// quality scores.
    pub fn rs3() -> DatasetProfile {
        DatasetProfile {
            name: "RS3".into(),
            tech: ReadTech::Short,
            genome_len: 200_000,
            coverage: 10.0,
            divergence: 9e-3,
            repeat_fraction: 0.08,
            short_read_len: 100,
            sub_error_rate: 4e-3,
            long_len_range: (500, 25_000),
            long_error_rate: 0.01,
            chimera_prob: 0.0,
            quality_levels: 3,
            isf_filter_fraction: 0.85,
        }
    }

    /// RS4 analogue: human nanopore long reads (paper: NanoSpring 4.8×).
    pub fn rs4() -> DatasetProfile {
        DatasetProfile {
            name: "RS4".into(),
            tech: ReadTech::Long,
            genome_len: 300_000,
            coverage: 14.0,
            divergence: 1.5e-3,
            repeat_fraction: 0.10,
            short_read_len: 100,
            sub_error_rate: 1e-3,
            long_len_range: (500, 20_000),
            long_error_rate: 1.2e-2,
            chimera_prob: 0.08,
            quality_levels: 16,
            isf_filter_fraction: 0.30,
        }
    }

    /// RS5 analogue: banana nanopore long reads, deeper and slightly
    /// cleaner than RS4 (paper: NanoSpring 7.6×).
    pub fn rs5() -> DatasetProfile {
        DatasetProfile {
            name: "RS5".into(),
            tech: ReadTech::Long,
            genome_len: 400_000,
            coverage: 18.0,
            divergence: 1e-3,
            repeat_fraction: 0.10,
            short_read_len: 100,
            sub_error_rate: 1e-3,
            long_len_range: (500, 15_000),
            long_error_rate: 7e-3,
            chimera_prob: 0.05,
            quality_levels: 24,
            isf_filter_fraction: 0.80,
        }
    }

    /// All five paper-analogue profiles, in order.
    pub fn all_paper_profiles() -> Vec<DatasetProfile> {
        vec![
            DatasetProfile::rs1(),
            DatasetProfile::rs2(),
            DatasetProfile::rs3(),
            DatasetProfile::rs4(),
            DatasetProfile::rs5(),
        ]
    }

    /// A very small short-read profile for unit tests and doc examples.
    pub fn tiny_short() -> DatasetProfile {
        DatasetProfile {
            name: "tiny-short".into(),
            genome_len: 8_000,
            coverage: 6.0,
            ..DatasetProfile::rs1()
        }
    }

    /// A very small long-read profile for unit tests and doc examples.
    pub fn tiny_long() -> DatasetProfile {
        DatasetProfile {
            name: "tiny-long".into(),
            genome_len: 12_000,
            coverage: 5.0,
            long_len_range: (500, 2_500),
            ..DatasetProfile::rs4()
        }
    }

    /// Returns a copy with the genome (and thus total data volume)
    /// scaled by `factor`. Used by benches to trade fidelity for speed.
    pub fn scaled(&self, factor: f64) -> DatasetProfile {
        let mut p = self.clone();
        p.genome_len = ((self.genome_len as f64 * factor) as usize).max(4_000);
        let (lo, hi) = p.long_len_range;
        p.long_len_range = (lo.min(p.genome_len / 4).max(100), hi.min(p.genome_len / 2));
        p
    }

    /// Short-read simulator configuration for this profile.
    pub fn short_config(&self) -> ShortReadConfig {
        ShortReadConfig {
            read_len: self.short_read_len,
            sub_error_rate: self.sub_error_rate,
            quality_levels: self.quality_levels,
            ..ShortReadConfig::default()
        }
    }

    /// Long-read simulator configuration for this profile.
    pub fn long_config(&self) -> LongReadConfig {
        LongReadConfig {
            len_min: self.long_len_range.0,
            len_max: self.long_len_range.1,
            error_rate: self.long_error_rate,
            chimera_prob: self.chimera_prob,
            quality_levels: self.quality_levels,
            ..LongReadConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_paper_profiles_cover_both_techs() {
        let all = DatasetProfile::all_paper_profiles();
        assert_eq!(all.len(), 5);
        assert_eq!(all.iter().filter(|p| p.tech == ReadTech::Short).count(), 3);
        assert_eq!(all.iter().filter(|p| p.tech == ReadTech::Long).count(), 2);
    }

    #[test]
    fn scaling_shrinks_genome() {
        let p = DatasetProfile::rs2().scaled(0.25);
        assert_eq!(p.genome_len, 100_000);
        assert_eq!(p.name, "RS2");
    }

    #[test]
    fn scaling_keeps_long_reads_shorter_than_genome() {
        let p = DatasetProfile::rs4().scaled(0.05);
        assert!(p.long_len_range.1 <= p.genome_len / 2);
        assert!(p.long_len_range.0 <= p.long_len_range.1);
    }

    #[test]
    fn rs3_is_most_diverse_short_set() {
        let all = DatasetProfile::all_paper_profiles();
        let rs3 = &all[2];
        for other in all.iter().filter(|p| p.name != "RS3") {
            assert!(rs3.divergence > other.divergence);
        }
    }
}
