//! Flash translation layer with SAGe's extensions (§5.3).
//!
//! SAGe requires only simple FTL changes: blocks are tagged genomic or
//! non-genomic; genomic data is written with a *globally aligned* write
//! pointer (same block index and page offset active in every parallel
//! unit), and garbage collection selects victims as whole parallel-unit
//! *groups*, rewriting valid data in logical order so the alignment —
//! and with it full-bandwidth multi-plane reads — survives GC. All
//! other data uses a conventional greedy per-block policy.

use crate::config::SsdConfig;
use crate::nand::PageAddr;
use std::collections::{BTreeSet, HashMap};

/// One physical block's state (allocated lazily on first write).
#[derive(Debug, Clone)]
struct Block {
    /// `pages[i]` = logical page stored at offset `i` (None = free or
    /// invalidated).
    pages: Vec<Option<u64>>,
    /// Next free page offset.
    write_ptr: usize,
    /// Whether this block holds genomic data.
    genomic: bool,
}

impl Block {
    fn new(pages_per_block: usize, genomic: bool) -> Block {
        Block {
            pages: vec![None; pages_per_block],
            write_ptr: 0,
            genomic,
        }
    }

    fn valid_count(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    fn is_full(&self) -> bool {
        self.write_ptr >= self.pages.len()
    }
}

/// One parallel unit (channel × die × plane).
#[derive(Debug, Clone, Default)]
struct UnitState {
    /// Allocated blocks by index.
    blocks: HashMap<u32, Block>,
    /// Indices in use.
    used: BTreeSet<u32>,
    /// Active block for non-genomic writes.
    active_normal: Option<u32>,
}

/// Result of one garbage-collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Valid pages relocated.
    pub moved_pages: usize,
    /// Blocks erased.
    pub erased_blocks: usize,
    /// Whether the genomic alignment invariant holds afterwards.
    pub alignment_preserved: bool,
}

/// The FTL.
#[derive(Debug, Clone)]
pub struct Ftl {
    cfg: SsdConfig,
    units: Vec<UnitState>,
    l2p: HashMap<u64, PageAddr>,
    /// Genomic write pointer: (block index, unit cursor, page offset).
    genomic_ptr: Option<(u32, usize, u32)>,
}

impl Ftl {
    /// Creates an FTL over the device geometry.
    pub fn new(cfg: SsdConfig) -> Ftl {
        let n_units = cfg.channels * cfg.dies_per_channel * cfg.planes_per_die;
        Ftl {
            units: (0..n_units).map(|_| UnitState::default()).collect(),
            cfg,
            l2p: HashMap::new(),
            genomic_ptr: None,
        }
    }

    fn n_units(&self) -> usize {
        self.units.len()
    }

    fn unit_addr(&self, unit: usize, block: u32, page: u32) -> PageAddr {
        let planes = self.cfg.planes_per_die;
        let dies = self.cfg.dies_per_channel;
        let per_channel = dies * planes;
        PageAddr {
            channel: (unit / per_channel) as u32,
            die: ((unit % per_channel) / planes) as u32,
            plane: (unit % planes) as u32,
            block,
            page,
        }
    }

    fn addr_unit(&self, a: &PageAddr) -> usize {
        let planes = self.cfg.planes_per_die;
        let per_channel = self.cfg.dies_per_channel * planes;
        a.channel as usize * per_channel + a.die as usize * planes + a.plane as usize
    }

    /// Allocates a block index that is free in *every* unit (required
    /// for the aligned genomic write pointer). Returns `None` when the
    /// device is too fragmented.
    fn alloc_aligned_block(&mut self) -> Option<u32> {
        let candidate = (0..self.cfg.blocks_per_plane as u32)
            .find(|b| self.units.iter().all(|u| !u.used.contains(b)))?;
        let ppb = self.cfg.pages_per_block;
        for u in &mut self.units {
            u.used.insert(candidate);
            u.blocks.insert(candidate, Block::new(ppb, true));
        }
        Some(candidate)
    }

    /// Writes one genomic logical page at the aligned write pointer.
    ///
    /// Returns the physical address, or `None` if space ran out.
    pub fn write_genomic(&mut self, lpn: u64) -> Option<PageAddr> {
        if self.genomic_ptr.is_none() {
            let block = self.alloc_aligned_block()?;
            self.genomic_ptr = Some((block, 0, 0));
        }
        let (block, unit, page) = self.genomic_ptr.expect("just set");
        self.invalidate(lpn);
        let addr = self.unit_addr(unit, block, page);
        let blk = self.units[unit]
            .blocks
            .get_mut(&block)
            .expect("aligned block allocated");
        blk.pages[page as usize] = Some(lpn);
        blk.write_ptr = page as usize + 1;
        self.l2p.insert(lpn, addr);
        // Advance: units round-robin, then page offset, then new block.
        let next_unit = (unit + 1) % self.n_units();
        if next_unit != 0 {
            self.genomic_ptr = Some((block, next_unit, page));
        } else if ((page + 1) as usize) < self.cfg.pages_per_block {
            self.genomic_ptr = Some((block, 0, page + 1));
        } else {
            self.genomic_ptr = None;
        }
        Some(addr)
    }

    /// Writes one non-genomic logical page (conventional greedy
    /// allocation, vendor policy untouched — §5.3).
    pub fn write_normal(&mut self, lpn: u64, unit_hint: usize) -> Option<PageAddr> {
        let unit = unit_hint % self.n_units();
        self.invalidate(lpn);
        let ustate = &mut self.units[unit];
        let block = match ustate.active_normal {
            Some(b) if !ustate.blocks[&b].is_full() => b,
            _ => {
                let b = (0..self.cfg.blocks_per_plane as u32).find(|b| !ustate.used.contains(b))?;
                ustate.used.insert(b);
                ustate
                    .blocks
                    .insert(b, Block::new(self.cfg.pages_per_block, false));
                ustate.active_normal = Some(b);
                b
            }
        };
        let blk = self.units[unit].blocks.get_mut(&block).expect("allocated");
        let page = blk.write_ptr as u32;
        blk.pages[page as usize] = Some(lpn);
        blk.write_ptr += 1;
        let addr = self.unit_addr(unit, block, page);
        self.l2p.insert(lpn, addr);
        Some(addr)
    }

    /// Translates a logical page.
    pub fn translate(&self, lpn: u64) -> Option<PageAddr> {
        self.l2p.get(&lpn).copied()
    }

    /// Invalidates a logical page's old mapping (on overwrite/trim).
    pub fn invalidate(&mut self, lpn: u64) {
        if let Some(old) = self.l2p.remove(&lpn) {
            let unit = self.addr_unit(&old);
            if let Some(blk) = self.units[unit].blocks.get_mut(&old.block) {
                blk.pages[old.page as usize] = None;
            }
        }
    }

    /// The multi-plane alignment invariant (§5.3): every genomic block
    /// group exists in *all* parallel units and the units' write
    /// pointers within the group differ by at most one page (the
    /// round-robin frontier).
    pub fn genomic_alignment_holds(&self) -> bool {
        let mut genomic_blocks: BTreeSet<u32> = BTreeSet::new();
        for u in &self.units {
            for (&b, blk) in &u.blocks {
                if blk.genomic {
                    genomic_blocks.insert(b);
                }
            }
        }
        for b in genomic_blocks {
            let mut ptrs = Vec::with_capacity(self.n_units());
            for u in &self.units {
                match u.blocks.get(&b) {
                    Some(blk) if blk.genomic => ptrs.push(blk.write_ptr),
                    _ => return false, // group incomplete
                }
            }
            let min = ptrs.iter().min().expect("non-empty");
            let max = ptrs.iter().max().expect("non-empty");
            if max - min > 1 {
                return false;
            }
        }
        true
    }

    /// Grouped genomic GC: selects every unit's block at `block_idx`
    /// as one victim group and rewrites the surviving pages, in
    /// logical-address order, through the aligned genomic write path.
    pub fn gc_genomic(&mut self, block_idx: u32) -> GcReport {
        // Collect survivors in logical order and drop stale mappings.
        let mut survivors: Vec<u64> = Vec::new();
        let mut erased = 0usize;
        for u in 0..self.n_units() {
            let Some(blk) = self.units[u].blocks.get(&block_idx) else {
                continue;
            };
            if !blk.genomic {
                continue;
            }
            survivors.extend(blk.pages.iter().flatten().copied());
            let stale: Vec<(u64, PageAddr)> = self.units[u].blocks[&block_idx]
                .pages
                .iter()
                .enumerate()
                .filter_map(|(p, slot)| {
                    slot.map(|lpn| (lpn, self.unit_addr(u, block_idx, p as u32)))
                })
                .collect();
            for (lpn, addr) in stale {
                if self.l2p.get(&lpn) == Some(&addr) {
                    self.l2p.remove(&lpn);
                }
            }
            self.units[u].blocks.remove(&block_idx);
            self.units[u].used.remove(&block_idx);
            erased += 1;
        }
        survivors.sort_unstable();
        // Reset the genomic pointer if it was inside the victim group.
        if matches!(self.genomic_ptr, Some((b, _, _)) if b == block_idx) {
            self.genomic_ptr = None;
        }
        // Rewrite in logical order through the aligned path.
        let moved = survivors.len();
        for lpn in survivors {
            self.write_genomic(lpn);
        }
        GcReport {
            moved_pages: moved,
            erased_blocks: erased,
            alignment_preserved: self.genomic_alignment_holds(),
        }
    }

    /// Greedy non-genomic GC: picks the full block with the fewest
    /// valid pages in one unit and relocates them.
    pub fn gc_normal(&mut self, unit: usize) -> GcReport {
        let unit = unit % self.n_units();
        let victim = self.units[unit]
            .blocks
            .iter()
            .filter(|(_, blk)| !blk.genomic && blk.is_full())
            .min_by_key(|(_, blk)| blk.valid_count())
            .map(|(&b, _)| b);
        let Some(victim) = victim else {
            return GcReport {
                moved_pages: 0,
                erased_blocks: 0,
                alignment_preserved: self.genomic_alignment_holds(),
            };
        };
        let survivors: Vec<u64> = self.units[unit].blocks[&victim]
            .pages
            .iter()
            .flatten()
            .copied()
            .collect();
        let stale: Vec<(u64, PageAddr)> = self.units[unit].blocks[&victim]
            .pages
            .iter()
            .enumerate()
            .filter_map(|(p, slot)| slot.map(|lpn| (lpn, self.unit_addr(unit, victim, p as u32))))
            .collect();
        for (lpn, addr) in stale {
            if self.l2p.get(&lpn) == Some(&addr) {
                self.l2p.remove(&lpn);
            }
        }
        self.units[unit].blocks.remove(&victim);
        self.units[unit].used.remove(&victim);
        if self.units[unit].active_normal == Some(victim) {
            self.units[unit].active_normal = None;
        }
        let moved = survivors.len();
        for lpn in survivors {
            self.write_normal(lpn, unit);
        }
        GcReport {
            moved_pages: moved,
            erased_blocks: 1,
            alignment_preserved: self.genomic_alignment_holds(),
        }
    }

    /// Number of mapped logical pages.
    pub fn mapped_pages(&self) -> usize {
        self.l2p.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SsdConfig {
        SsdConfig {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 2,
            pages_per_block: 4,
            blocks_per_plane: 8,
            ..SsdConfig::pcie()
        }
    }

    #[test]
    fn genomic_writes_are_aligned() {
        let mut ftl = Ftl::new(small_cfg());
        for lpn in 0..40u64 {
            assert!(ftl.write_genomic(lpn).is_some());
        }
        assert!(ftl.genomic_alignment_holds());
        assert_eq!(ftl.mapped_pages(), 40);
    }

    #[test]
    fn translate_round_trip() {
        let mut ftl = Ftl::new(small_cfg());
        let addr = ftl.write_genomic(7).unwrap();
        assert_eq!(ftl.translate(7), Some(addr));
        assert_eq!(ftl.translate(8), None);
    }

    #[test]
    fn gc_preserves_alignment() {
        let mut ftl = Ftl::new(small_cfg());
        for lpn in 0..32u64 {
            ftl.write_genomic(lpn);
        }
        for lpn in [1u64, 5, 9, 13, 14] {
            ftl.invalidate(lpn);
        }
        let report = ftl.gc_genomic(0);
        assert!(report.alignment_preserved, "alignment lost after GC");
        assert!(report.erased_blocks > 0);
        assert!(ftl.translate(0).is_some());
        assert_eq!(ftl.translate(1), None);
    }

    #[test]
    fn gc_relocations_remain_readable() {
        let mut ftl = Ftl::new(small_cfg());
        for lpn in 0..16u64 {
            ftl.write_genomic(lpn);
        }
        for lpn in (0..16u64).step_by(3) {
            ftl.invalidate(lpn);
        }
        ftl.gc_genomic(0);
        for lpn in 0..16u64 {
            let expect_mapped = lpn % 3 != 0;
            assert_eq!(ftl.translate(lpn).is_some(), expect_mapped, "lpn {lpn}");
        }
    }

    #[test]
    fn normal_writes_do_not_touch_genomic_blocks() {
        let mut ftl = Ftl::new(small_cfg());
        for lpn in 0..16u64 {
            ftl.write_genomic(lpn);
        }
        for lpn in 100..120u64 {
            assert!(ftl.write_normal(lpn, (lpn % 4) as usize).is_some());
        }
        assert!(ftl.genomic_alignment_holds());
        assert_eq!(ftl.mapped_pages(), 36);
    }

    #[test]
    fn normal_gc_reclaims_space() {
        let mut ftl = Ftl::new(small_cfg());
        for lpn in 0..8u64 {
            ftl.write_normal(lpn, 0);
        }
        for lpn in 0..6u64 {
            ftl.invalidate(lpn);
        }
        let report = ftl.gc_normal(0);
        assert_eq!(report.erased_blocks, 1);
        assert!(report.moved_pages <= 2);
    }

    #[test]
    fn overwrite_invalidates_old_location() {
        let mut ftl = Ftl::new(small_cfg());
        let a1 = ftl.write_genomic(3).unwrap();
        let a2 = ftl.write_genomic(3).unwrap();
        assert_ne!(a1, a2);
        assert_eq!(ftl.translate(3), Some(a2));
        assert_eq!(ftl.mapped_pages(), 1);
    }

    #[test]
    fn allocation_exhaustion_is_graceful() {
        let mut ftl = Ftl::new(SsdConfig {
            blocks_per_plane: 1,
            ..small_cfg()
        });
        // 1 block/unit × 4 units × 4 pages = 16 genomic pages max.
        let mut written = 0;
        for lpn in 0..64u64 {
            if ftl.write_genomic(lpn).is_some() {
                written += 1;
            }
        }
        assert_eq!(written, 16);
    }

    #[test]
    fn sage_write_maintains_alignment() {
        // 8 MiB of genomic pages on the PCIe geometry.
        let cfg = SsdConfig::pcie();
        let pages = (8 << 20) / cfg.page_bytes as u64;
        let mut ftl = Ftl::new(cfg);
        for lpn in 0..pages {
            assert!(ftl.write_genomic(lpn).is_some());
        }
        assert!(ftl.genomic_alignment_holds());
    }

    #[test]
    fn mixed_traffic_keeps_genomic_alignment() {
        // 1 MiB genomic, 1 MiB conventional (unit `lpn % 7`), 1 MiB
        // genomic, on the PCIe geometry.
        let cfg = SsdConfig::pcie();
        let pages = (1 << 20) / cfg.page_bytes as u64;
        let mut ftl = Ftl::new(cfg);
        for lpn in 0..pages {
            assert!(ftl.write_genomic(lpn).is_some());
        }
        for lpn in pages..2 * pages {
            assert!(ftl.write_normal(lpn, (lpn % 7) as usize).is_some());
        }
        for lpn in 2 * pages..3 * pages {
            assert!(ftl.write_genomic(lpn).is_some());
        }
        assert!(ftl.genomic_alignment_holds());
    }
}
