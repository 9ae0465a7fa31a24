//! Cycle model of the SU/RCU pipeline (§5.2.2).
//!
//! The SU and RCU operate concurrently: the SU decodes one guide/array
//! field per cycle; the RCU copies consensus bases into the read
//! register several bases per cycle and applies mismatches as the SU
//! delivers them. Decompression time per channel is the maximum of the
//! two engines' cycle counts (they stream in lockstep), and the CU adds
//! a small per-read coordination overhead.

use sage_core::SageArchive;

/// Work required to decode one read set (derived from an archive or
/// given analytically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeWorkload {
    /// Total output bases.
    pub total_bases: u64,
    /// Total mismatch records (SU decode events).
    pub total_records: u64,
    /// Number of reads (CU per-read coordination).
    pub n_reads: u64,
    /// Compressed DNA bytes that must be streamed in.
    pub compressed_bytes: u64,
}

impl DecodeWorkload {
    /// Builds the workload from the *exact* counters a software decode
    /// gathered ([`sage_core::DecodeStats`]) — the precise input for
    /// cycle estimation on a real archive.
    pub fn from_decode_stats(archive: &SageArchive, stats: &sage_core::DecodeStats) -> Self {
        DecodeWorkload {
            total_bases: stats.bases,
            total_records: stats.mismatch_records,
            n_reads: stats.reads,
            compressed_bytes: archive.dna_bytes() as u64,
        }
    }
}

/// The SU/RCU cycle model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleModel {
    /// Clock frequency in GHz (the paper synthesizes at 1 GHz).
    pub clock_ghz: f64,
    /// RCU consensus-copy width (bases per cycle). The RCU's read
    /// register is 150 bases (§5.2.1); a modest copy width keeps it
    /// comfortably ahead of NAND delivery.
    pub rcu_bases_per_cycle: u64,
    /// SU decode rate (records per cycle).
    pub su_records_per_cycle: u64,
    /// CU overhead cycles per read (register swaps, format select).
    pub cu_cycles_per_read: u64,
}

impl Default for CycleModel {
    fn default() -> CycleModel {
        CycleModel {
            clock_ghz: 1.0,
            rcu_bases_per_cycle: 16,
            su_records_per_cycle: 1,
            cu_cycles_per_read: 4,
        }
    }
}

impl CycleModel {
    /// Cycles one channel needs to decode `w` (logic only, no NAND).
    pub fn decode_cycles(&self, w: &DecodeWorkload) -> u64 {
        let rcu = w.total_bases.div_ceil(self.rcu_bases_per_cycle);
        let su = w.total_records.div_ceil(self.su_records_per_cycle);
        rcu.max(su) + w.n_reads * self.cu_cycles_per_read
    }

    /// Logic-only decode time in seconds for `channels` channels
    /// (work is striped uniformly by the data layout, §5.3).
    pub fn decode_seconds(&self, w: &DecodeWorkload, channels: usize) -> f64 {
        assert!(channels > 0, "need at least one channel");
        let per_channel = DecodeWorkload {
            total_bases: w.total_bases.div_ceil(channels as u64),
            total_records: w.total_records.div_ceil(channels as u64),
            n_reads: w.n_reads.div_ceil(channels as u64),
            compressed_bytes: w.compressed_bytes.div_ceil(channels as u64),
        };
        self.decode_cycles(&per_channel) as f64 / (self.clock_ghz * 1e9)
    }

    /// Logic-only output bandwidth in bases/second.
    pub fn logic_bandwidth_bases_per_sec(&self, channels: usize) -> f64 {
        self.rcu_bases_per_cycle as f64 * self.clock_ghz * 1e9 * channels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> DecodeWorkload {
        DecodeWorkload {
            total_bases: 1_000_000,
            total_records: 20_000,
            n_reads: 10_000,
            compressed_bytes: 80_000,
        }
    }

    #[test]
    fn rcu_bound_when_few_records() {
        let m = CycleModel::default();
        let w = workload();
        let cycles = m.decode_cycles(&w);
        // 1e6 bases / 16 per cycle = 62_500 plus CU overhead.
        assert_eq!(cycles, 62_500 + 40_000);
    }

    #[test]
    fn su_bound_when_many_records() {
        let m = CycleModel::default();
        let w = DecodeWorkload {
            total_records: 10_000_000,
            ..workload()
        };
        assert!(m.decode_cycles(&w) >= 10_000_000);
    }

    #[test]
    fn channels_divide_work() {
        let m = CycleModel::default();
        let w = workload();
        let t1 = m.decode_seconds(&w, 1);
        let t8 = m.decode_seconds(&w, 8);
        assert!(t8 < t1 / 7.0, "t1={t1} t8={t8}");
    }

    #[test]
    fn logic_bandwidth_far_exceeds_nand() {
        // §8.2: logic is not the bottleneck. 8 channels at 16 bases/
        // cycle, 1 GHz = 128 Gbases/s, far above NAND delivery.
        let m = CycleModel::default();
        assert!(m.logic_bandwidth_bases_per_sec(8) > 1e11);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        CycleModel::default().decode_seconds(&workload(), 0);
    }
}
