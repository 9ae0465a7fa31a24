//! SSD device configurations.
//!
//! The paper evaluates with a performance-optimized PCIe SSD (Samsung
//! PM1735-like) and a cost-optimized SATA SSD (870 EVO-like), both with
//! a small single-channel internal DRAM whose capacity is almost
//! entirely consumed by mapping metadata (§3.2).

/// Static device parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// Human-readable name.
    pub name: String,
    /// NAND channel count.
    pub channels: usize,
    /// Dies per channel.
    pub dies_per_channel: usize,
    /// Planes per die.
    pub planes_per_die: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Pages per block.
    pub pages_per_block: usize,
    /// Blocks per plane.
    pub blocks_per_plane: usize,
    /// Array read latency (tR) in microseconds.
    pub t_read_us: f64,
    /// Program latency in microseconds.
    pub t_prog_us: f64,
    /// Per-channel bus bandwidth in bytes/second.
    pub channel_bytes_per_sec: f64,
    /// Host interface bandwidth in bytes/second (PCIe or SATA).
    pub host_bytes_per_sec: f64,
    /// Internal DRAM bandwidth (single channel, §3.2) in bytes/second.
    pub dram_bytes_per_sec: f64,
    /// Internal DRAM capacity in bytes (mostly mapping metadata).
    pub dram_capacity_bytes: u64,
    /// Fraction of internal DRAM free for non-FTL use (<5 %, §3.2).
    pub dram_free_fraction: f64,
    /// Active power in watts.
    pub active_power_w: f64,
    /// Idle power in watts.
    pub idle_power_w: f64,
}

impl SsdConfig {
    /// Performance-optimized PCIe SSD (PM1735-like: ~8 GB/s host
    /// interface, 8 channels).
    pub fn pcie() -> SsdConfig {
        SsdConfig {
            name: "PCIe (PM1735-like)".into(),
            channels: 8,
            dies_per_channel: 4,
            planes_per_die: 4,
            page_bytes: 16 * 1024,
            pages_per_block: 256,
            blocks_per_plane: 1024,
            t_read_us: 60.0,
            t_prog_us: 600.0,
            channel_bytes_per_sec: 1.2e9,
            host_bytes_per_sec: 8.0e9,
            dram_bytes_per_sec: 3.2e9,
            dram_capacity_bytes: 4 << 30,
            dram_free_fraction: 0.05,
            active_power_w: 18.0,
            idle_power_w: 5.5,
        }
    }

    /// Cost-optimized SATA SSD (870 EVO-like: ~0.55 GB/s host
    /// interface, 8 channels).
    pub fn sata() -> SsdConfig {
        SsdConfig {
            name: "SATA (870 EVO-like)".into(),
            channels: 8,
            dies_per_channel: 2,
            planes_per_die: 2,
            page_bytes: 16 * 1024,
            pages_per_block: 256,
            blocks_per_plane: 1024,
            t_read_us: 60.0,
            t_prog_us: 600.0,
            channel_bytes_per_sec: 0.8e9,
            host_bytes_per_sec: 0.55e9,
            dram_bytes_per_sec: 3.2e9,
            dram_capacity_bytes: 4 << 30,
            dram_free_fraction: 0.05,
            active_power_w: 4.5,
            idle_power_w: 0.3,
        }
    }

    /// Sustained per-channel NAND read bandwidth with the SAGe layout
    /// (multi-plane reads keep the bus saturated; tR pipelined behind
    /// transfers). Without aligned offsets, multi-plane reads degrade
    /// and tR serializes with transfers.
    pub fn channel_read_bw(&self, aligned_layout: bool) -> f64 {
        let page_transfer_s = self.page_bytes as f64 / self.channel_bytes_per_sec;
        if aligned_layout {
            // Plane-pipelined: bus-bound as long as tR/planes fits in
            // one transfer slot per plane.
            let t_read_s = self.t_read_us * 1e-6;
            let planes = (self.planes_per_die * self.dies_per_channel) as f64;
            let per_page = page_transfer_s.max(t_read_s / planes);
            self.page_bytes as f64 / per_page
        } else {
            // Serialized tR + transfer per page.
            let per_page = self.t_read_us * 1e-6 + page_transfer_s;
            self.page_bytes as f64 / per_page
        }
    }

    /// Aggregate internal read bandwidth across all channels.
    pub fn internal_read_bw(&self, aligned_layout: bool) -> f64 {
        self.channel_read_bw(aligned_layout) * self.channels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_is_faster_than_sata() {
        let p = SsdConfig::pcie();
        let s = SsdConfig::sata();
        assert!(p.host_bytes_per_sec > s.host_bytes_per_sec);
        assert!(p.internal_read_bw(true) > s.internal_read_bw(true));
    }

    #[test]
    fn aligned_layout_improves_bandwidth() {
        let cfg = SsdConfig::pcie();
        assert!(cfg.internal_read_bw(true) > 1.5 * cfg.internal_read_bw(false));
    }

    #[test]
    fn internal_bandwidth_near_paper_scale() {
        // Paper's Table 3 SAGe row implies ~4.8 GB/s compressed
        // delivery (0.6 GB/s × 8 channels). Our PCIe preset should be
        // in that ballpark (same order of magnitude).
        let cfg = SsdConfig::pcie();
        let bw = cfg.internal_read_bw(true);
        assert!(bw > 3e9 && bw < 12e9, "bw {bw}");
    }

    #[test]
    fn usable_dram_is_small() {
        // §3.2: mapping metadata leaves at most 5 % of the DRAM free.
        for cfg in [SsdConfig::pcie(), SsdConfig::sata()] {
            assert!(cfg.dram_free_fraction <= 0.05, "{}", cfg.name);
        }
    }
}
