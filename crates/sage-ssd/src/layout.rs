//! SAGe's data layout (§5.3).
//!
//! When writing a compressed genomic dataset, SAGe partitions it
//! uniformly across SSD channels — each consensus partition together
//! with the mismatch data of the reads mapped to it — and writes pages
//! round-robin so that the active blocks of all channels share the same
//! page offset. That alignment is what enables multi-plane reads across
//! all channels at once, i.e. the device's full internal bandwidth.

use crate::config::SsdConfig;
use crate::nand::PageAddr;

/// Number of layout pages a byte extent `offset..offset + bytes`
/// spans, counting the partially-covered first and last pages.
pub fn extent_page_span(cfg: &SsdConfig, offset: usize, bytes: usize) -> usize {
    if bytes == 0 {
        return 0;
    }
    let first = offset / cfg.page_bytes;
    let last = (offset + bytes - 1) / cfg.page_bytes;
    last - first + 1
}

/// A placed genomic dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SageLayout {
    /// Page placements in logical order.
    pub pages: Vec<PageAddr>,
    /// Dataset size in bytes.
    pub bytes: usize,
    /// Page size used.
    pub page_bytes: usize,
}

impl SageLayout {
    /// Places `bytes` of compressed genomic data round-robin across
    /// channels starting at block `start_block`, page offset 0.
    pub fn place(cfg: &SsdConfig, bytes: usize, start_block: u32) -> SageLayout {
        let mut layout = SageLayout {
            pages: Vec::new(),
            bytes: 0,
            page_bytes: cfg.page_bytes,
        };
        layout.extend_to(cfg, bytes, start_block);
        layout
    }

    /// Grows the placement to cover `bytes` total, appending only the
    /// new pages (an O(new pages) append, not a rebuild).
    ///
    /// `start_block` must match the value the layout was placed with.
    /// Shrinking is not supported; a smaller `bytes` is a no-op.
    pub fn extend_to(&mut self, cfg: &SsdConfig, bytes: usize, start_block: u32) {
        let n_pages = bytes.div_ceil(cfg.page_bytes);
        let channels = cfg.channels as u32;
        let planes = (cfg.dies_per_channel * cfg.planes_per_die) as u32;
        for i in self.pages.len() as u32..n_pages as u32 {
            // Round-robin: channel fastest, then plane (die-major), then
            // page offset — every channel's active block is at the same
            // page offset at any instant.
            let channel = i % channels;
            let unit = (i / channels) % planes;
            let page_seq = i / (channels * planes);
            self.pages.push(PageAddr {
                channel,
                die: unit / cfg.planes_per_die as u32,
                plane: unit % cfg.planes_per_die as u32,
                block: start_block + page_seq / cfg.pages_per_block as u32,
                page: page_seq % cfg.pages_per_block as u32,
            });
        }
        self.bytes = self.bytes.max(bytes);
    }

    /// Number of pages.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// Checks the multi-plane invariant: within any stripe of
    /// `channels × planes` consecutive pages, all placements share one
    /// (block, page) offset.
    pub fn is_aligned(&self, cfg: &SsdConfig) -> bool {
        let stripe = cfg.channels * cfg.dies_per_channel * cfg.planes_per_die;
        self.pages.chunks(stripe).all(|chunk| {
            chunk
                .iter()
                .all(|p| (p.block, p.page) == (chunk[0].block, chunk[0].page))
        })
    }

    /// Per-channel page counts (uniform partitioning check).
    pub fn pages_per_channel(&self, cfg: &SsdConfig) -> Vec<usize> {
        let mut counts = vec![0usize; cfg.channels];
        for p in &self.pages {
            counts[p.channel as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_aligned_and_uniform() {
        let cfg = SsdConfig::pcie();
        let layout = SageLayout::place(&cfg, 100 * 1024 * 1024, 0);
        assert!(layout.is_aligned(&cfg));
        let counts = layout.pages_per_channel(&cfg);
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "imbalanced: {counts:?}");
    }

    #[test]
    fn page_count_covers_bytes() {
        let cfg = SsdConfig::pcie();
        let layout = SageLayout::place(&cfg, cfg.page_bytes * 10 + 1, 0);
        assert_eq!(layout.n_pages(), 11);
    }

    #[test]
    fn consecutive_pages_hit_different_channels() {
        let cfg = SsdConfig::pcie();
        let layout = SageLayout::place(&cfg, cfg.page_bytes * 64, 0);
        for w in layout.pages.windows(2) {
            assert_ne!(w[0].channel, w[1].channel);
        }
    }

    #[test]
    fn blocks_advance_after_filling_pages() {
        let cfg = SsdConfig::pcie();
        let stripe = cfg.channels * cfg.dies_per_channel * cfg.planes_per_die;
        let pages_needed = stripe * cfg.pages_per_block + stripe;
        let layout = SageLayout::place(&cfg, pages_needed * cfg.page_bytes, 5);
        assert_eq!(layout.pages[0].block, 5);
        assert_eq!(layout.pages.last().unwrap().block, 6);
        assert!(layout.is_aligned(&cfg));
    }

    #[test]
    fn extending_matches_fresh_placement() {
        let cfg = SsdConfig::pcie();
        let mut grown = SageLayout::place(&cfg, cfg.page_bytes * 7 + 3, 2);
        grown.extend_to(&cfg, cfg.page_bytes * 300 + 11, 2);
        let fresh = SageLayout::place(&cfg, cfg.page_bytes * 300 + 11, 2);
        assert_eq!(grown, fresh);
        // Shrinking is a no-op.
        grown.extend_to(&cfg, 5, 2);
        assert_eq!(grown, fresh);
    }

    #[test]
    fn extent_pages_cover_partial_boundaries() {
        let cfg = SsdConfig::pcie();
        // An extent straddling a page boundary needs both pages.
        assert_eq!(extent_page_span(&cfg, cfg.page_bytes - 1, 2), 2);
        // Zero-length extents touch nothing.
        assert_eq!(extent_page_span(&cfg, 17, 0), 0);
        // A one-page extent exactly aligned touches one page.
        assert_eq!(
            extent_page_span(&cfg, cfg.page_bytes * 3, cfg.page_bytes),
            1
        );
    }

    #[test]
    fn empty_dataset() {
        let cfg = SsdConfig::sata();
        let layout = SageLayout::place(&cfg, 0, 0);
        assert_eq!(layout.n_pages(), 0);
        assert!(layout.is_aligned(&cfg));
    }
}
