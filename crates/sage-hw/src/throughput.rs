//! End-to-end decompression throughput (§8.2, Table 3).
//!
//! SAGe's accelerator throughput is bottlenecked by NAND flash read
//! bandwidth, not by the 1 GHz logic: output bandwidth is (compressed
//! delivery rate × compression ratio), capped by the RCU's copy rate.
//! At 8 channels × 0.6 GB/s NAND and a ratio of ~15.8 this lands at the
//! paper's 75.4 GB/s.

use crate::units::CycleModel;

/// Decompression throughput model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputModel {
    /// Per-channel sustained NAND read bandwidth (compressed
    /// bytes/second) with SAGe's aligned multi-plane layout.
    pub nand_bytes_per_sec_per_channel: f64,
    /// Channel count.
    pub channels: usize,
    /// Logic cycle model.
    pub cycles: CycleModel,
}

impl ThroughputModel {
    /// Model for an 8-channel SSD with 0.6 GB/s per-channel NAND reads
    /// (the configuration behind Table 3's SAGe row).
    pub fn default_8ch() -> ThroughputModel {
        ThroughputModel {
            nand_bytes_per_sec_per_channel: 0.6e9,
            channels: 8,
            cycles: CycleModel::default(),
        }
    }

    /// Aggregate compressed delivery rate (bytes/s).
    pub fn compressed_bandwidth(&self) -> f64 {
        self.nand_bytes_per_sec_per_channel * self.channels as f64
    }

    /// Decompressed output bandwidth in bytes/s for a dataset with the
    /// given DNA compression ratio. One output byte per base.
    pub fn output_bandwidth(&self, compression_ratio: f64) -> f64 {
        assert!(compression_ratio > 0.0, "ratio must be positive");
        let nand_limited = self.compressed_bandwidth() * compression_ratio;
        let logic_limited = self.cycles.logic_bandwidth_bases_per_sec(self.channels);
        nand_limited.min(logic_limited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_throughput_reproduced() {
        // Ratio 15.8 → ~75.8 GB/s (paper reports 75.4 GB/s).
        let m = ThroughputModel::default_8ch();
        let out = m.output_bandwidth(15.8);
        assert!((out / 1e9 - 75.8).abs() < 1.0, "got {} GB/s", out / 1e9);
    }

    #[test]
    fn nand_bound_for_realistic_ratios() {
        let m = ThroughputModel::default_8ch();
        // Even at ratio 25 the logic (128 GB/s) is not the limiter.
        assert!(m.output_bandwidth(25.0) < m.cycles.logic_bandwidth_bases_per_sec(8));
    }

    #[test]
    fn logic_caps_extreme_ratios() {
        let m = ThroughputModel::default_8ch();
        let out = m.output_bandwidth(1e6);
        assert_eq!(out, m.cycles.logic_bandwidth_bases_per_sec(8));
    }
}
