//! Multi-SSD extent sharding.
//!
//! A [`DeviceMap`] owns N device models and assigns every chunk of a
//! sharded container to exactly one of them, translating the chunk's
//! global byte extent into a device-local extent on that device's
//! aligned layout. Chunks — not pages — are the striping unit: a chunk
//! is the atom of random access (it decodes independently), so
//! splitting one across devices would couple two device queues to a
//! single fetch.
//!
//! Chunks are placed round-robin: chunk *i* lands on device `i mod N`, so
//! each device's chunks sit back to back in its local space.

use crate::sched::DeviceCharge;
use sage_core::{Extent, OutputFormat};
use sage_ssd::{SsdCommand, SsdConfig, SsdModel};
use std::sync::Mutex;

/// One chunk's home: which device and where on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSlot {
    /// Owning device index.
    pub device: usize,
    /// Device-local byte extent of the chunk.
    pub local: Extent,
}

/// Point-in-time accounting for one device of the fleet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceSnapshot {
    /// Device index.
    pub device: usize,
    /// Device name (from its [`SsdConfig`]).
    pub name: String,
    /// Chunks resident on the device.
    pub chunks: usize,
    /// Compressed bytes placed on the device.
    pub placed_bytes: usize,
    /// Chunk-read commands served.
    pub reads: u64,
    /// Chunk-write (append) commands served.
    pub writes: u64,
    /// Device seconds spent on chunk reads.
    pub read_seconds: f64,
    /// Device seconds spent on appends.
    pub write_seconds: f64,
}

#[derive(Debug)]
struct DeviceState {
    model: SsdModel,
    /// Compressed bytes placed; the layout's pages are
    /// `placed_bytes.div_ceil(page_bytes)`.
    placed_bytes: usize,
    chunks: usize,
    reads: u64,
    writes: u64,
    read_seconds: f64,
    write_seconds: f64,
}

#[derive(Debug)]
struct SlotTable {
    slots: Vec<ChunkSlot>,
    /// Per-device placement cursors (bytes assigned, mirrors
    /// `DeviceState::placed_bytes` but lives with the table so
    /// placement never needs a device lock).
    cursors: Vec<usize>,
}

/// N device models with chunk-granularity extent striping.
#[derive(Debug)]
pub struct DeviceMap {
    table: Mutex<SlotTable>,
    devices: Vec<Mutex<DeviceState>>,
}

impl DeviceMap {
    /// Builds a fleet and places `chunk_lens` (the byte length of each
    /// chunk, in chunk-id order) round-robin across it. The initial
    /// dataset write is neither charged nor counted in the serving
    /// snapshot: each device starts with its placed bytes.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn place(configs: &[SsdConfig], chunk_lens: &[usize]) -> DeviceMap {
        assert!(
            !configs.is_empty(),
            "a device map needs at least one device"
        );
        let mut map = DeviceMap {
            table: Mutex::new(SlotTable {
                slots: Vec::with_capacity(chunk_lens.len()),
                cursors: vec![0; configs.len()],
            }),
            devices: Vec::new(),
        };
        // Place every chunk first, then open each device over its
        // final byte count.
        let mut chunks_per_device = vec![0usize; configs.len()];
        for &len in chunk_lens {
            chunks_per_device[map.assign(len).device] += 1;
        }
        let cursors: Vec<usize> = map.table.lock().expect("table poisoned").cursors.clone();
        map.devices = configs
            .iter()
            .zip(&cursors)
            .zip(&chunks_per_device)
            .map(|((cfg, &bytes), &chunks)| {
                Mutex::new(DeviceState {
                    model: SsdModel::new(cfg.clone()),
                    placed_bytes: bytes,
                    chunks,
                    reads: 0,
                    writes: 0,
                    read_seconds: 0.0,
                    write_seconds: 0.0,
                })
            })
            .collect();
        map
    }

    /// Assigns the next chunk to a device and returns its slot (table
    /// bookkeeping only — device state is untouched).
    fn assign(&self, len: usize) -> ChunkSlot {
        let mut table = self.table.lock().expect("table poisoned");
        let device = table.slots.len() % table.cursors.len();
        let slot = ChunkSlot {
            device,
            local: Extent {
                offset: table.cursors[device],
                len,
            },
        };
        table.cursors[device] += len;
        table.slots.push(slot);
        slot
    }

    /// Device count.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// The slot a chunk was placed in, if the chunk exists.
    pub fn slot(&self, chunk_id: u32) -> Option<ChunkSlot> {
        self.table
            .lock()
            .expect("table poisoned")
            .slots
            .get(chunk_id as usize)
            .copied()
    }

    /// Charges one chunk fetch against its owning device and returns
    /// the device + service seconds (for virtual-time scheduling).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_id` was never placed — the store's manifest
    /// and the device map must agree on the chunk table.
    pub fn charge_chunk_read(&self, chunk_id: u32) -> DeviceCharge {
        let ChunkSlot { device, local } = self
            .slot(chunk_id)
            .unwrap_or_else(|| panic!("chunk {chunk_id} not placed on any device"));
        let mut dev = self.devices[device].lock().expect("device poisoned");
        let r = dev.model.execute(SsdCommand::SageReadExtent {
            offset: local.offset,
            bytes: local.len,
            format: OutputFormat::Ascii,
        });
        dev.reads += 1;
        dev.read_seconds += r.seconds;
        DeviceCharge {
            device,
            seconds: r.seconds,
        }
    }

    /// Places one appended chunk and charges its owning device for the
    /// pages the device's layout grows by (page-accurate, like the read
    /// path: a sub-page chunk landing inside the current
    /// partially-filled page charges nothing — the page was already
    /// written).
    pub fn append_chunk(&self, len: usize) -> DeviceCharge {
        let slot = self.assign(len);
        let mut dev = self.devices[slot.device].lock().expect("device poisoned");
        let page_bytes = dev.model.config().page_bytes;
        let old = dev.placed_bytes;
        // Placed bytes only grow, whatever order racing appends take
        // the device lock in.
        let new = old.max(slot.local.end());
        let grown = new.div_ceil(page_bytes) - old.div_ceil(page_bytes);
        let r = dev.model.execute(SsdCommand::SageWrite {
            bytes: grown * page_bytes,
        });
        dev.placed_bytes = new;
        dev.chunks += 1;
        dev.writes += 1;
        dev.write_seconds += r.seconds;
        DeviceCharge {
            device: slot.device,
            seconds: r.seconds,
        }
    }

    /// Per-device accounting.
    pub fn snapshots(&self) -> Vec<DeviceSnapshot> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, dev)| {
                let dev = dev.lock().expect("device poisoned");
                DeviceSnapshot {
                    device: i,
                    name: dev.model.config().name.clone(),
                    chunks: dev.chunks,
                    placed_bytes: dev.placed_bytes,
                    reads: dev.reads,
                    writes: dev.writes,
                    read_seconds: dev.read_seconds,
                    write_seconds: dev.write_seconds,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pages a placed chunk touches on its device's layout.
    fn pages_for_chunk(map: &DeviceMap, chunk_id: u32) -> usize {
        let slot = map.slot(chunk_id).expect("placed chunk");
        let dev = map.devices[slot.device].lock().expect("device poisoned");
        sage_ssd::extent_page_span(dev.model.config(), slot.local.offset, slot.local.len)
    }

    fn fleet(n: usize) -> Vec<SsdConfig> {
        (0..n)
            .map(|i| {
                let mut cfg = SsdConfig::pcie();
                cfg.name = format!("pcie #{i}");
                cfg
            })
            .collect()
    }

    #[test]
    fn round_robin_stripes_chunks() {
        let lens = vec![100, 200, 300, 400, 500];
        let map = DeviceMap::place(&fleet(2), &lens);
        assert_eq!(map.n_devices(), 2);
        assert!(map.slot(5).is_none());
        for (i, &len) in lens.iter().enumerate() {
            let slot = map.slot(i as u32).unwrap();
            assert_eq!(slot.device, i % 2);
            assert_eq!(slot.local.len, len);
        }
        // Device-local extents are contiguous per device.
        assert_eq!(map.slot(0).unwrap().local.offset, 0);
        assert_eq!(map.slot(2).unwrap().local.offset, 100);
        assert_eq!(map.slot(4).unwrap().local.offset, 400);
        assert_eq!(map.slot(1).unwrap().local.offset, 0);
        assert_eq!(map.slot(3).unwrap().local.offset, 200);
    }

    #[test]
    fn reads_charge_the_owning_device_only() {
        let map = DeviceMap::place(&fleet(3), &[4096, 4096, 4096]);
        let c = map.charge_chunk_read(1);
        assert_eq!(c.device, 1);
        assert!(c.seconds > 0.0);
        let snaps = map.snapshots();
        assert_eq!(snaps[1].reads, 1);
        assert!(snaps[1].read_seconds > 0.0);
        assert_eq!(snaps[0].reads, 0);
        assert_eq!(snaps[2].reads, 0);
    }

    #[test]
    fn appends_extend_one_device_layout() {
        let cfg = fleet(2);
        let page = cfg[0].page_bytes;
        let map = DeviceMap::place(&cfg, &[page, page]);
        // Next chunk (id 2) round-robins onto device 0 and grows its
        // layout by exactly its pages.
        let c = map.append_chunk(page * 2);
        assert_eq!(c.device, 0);
        assert!(c.seconds > 0.0);
        assert_eq!(pages_for_chunk(&map, 2), 2);
        let snaps = map.snapshots();
        assert_eq!(snaps[0].chunks, 2);
        assert_eq!(snaps[0].writes, 1);
        assert_eq!(snaps[1].writes, 0);
        assert_eq!(snaps[0].placed_bytes, page * 3);
    }

    #[test]
    fn sub_page_appends_charge_only_grown_pages() {
        let cfg = fleet(1);
        let page = cfg[0].page_bytes;
        let map = DeviceMap::place(&cfg, &[page / 2]);
        // Grows the device's bytes within the already-programmed first
        // page: a write op is recorded but no new page is charged.
        let inside = map.append_chunk(page / 2 - 10);
        assert_eq!(inside.seconds, 0.0);
        // Crossing into a fresh page charges exactly that page.
        let crossing = map.append_chunk(20);
        assert!(crossing.seconds > 0.0);
        let snap = &map.snapshots()[0];
        assert_eq!((snap.writes, snap.chunks), (2, 3));
        assert_eq!(snap.placed_bytes, page + 10);
        assert_eq!(snap.write_seconds, crossing.seconds);
    }

    #[test]
    fn appends_charge_the_pages_they_grow() {
        // Seeded xorshift: chunks of 0–3 pages with odd byte lengths.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 3] {
            let cfg = fleet(n);
            let page = cfg[0].page_bytes;
            let seed_lens = [page + 7, 5, 2 * page - 1];
            let map = DeviceMap::place(&cfg, &seed_lens);
            let mut placed = vec![0usize; n];
            for (i, &len) in seed_lens.iter().enumerate() {
                placed[i % n] += len;
            }
            for i in seed_lens.len()..seed_lens.len() + 200 {
                let len = (next() % (3 * page as u64)) as usize | 1;
                let device = i % n;
                let before = placed[device];
                placed[device] += len;
                let grown = placed[device].div_ceil(page) - before.div_ceil(page);
                let c = map.append_chunk(len);
                assert_eq!(c.device, device);
                assert_eq!(
                    c.seconds,
                    sage_ssd::nand::striped_write_seconds(&cfg[device], grown),
                    "chunk {i}: {len} bytes after {before}"
                );
            }
            let snaps: Vec<usize> = map.snapshots().iter().map(|s| s.placed_bytes).collect();
            assert_eq!(snaps, placed);
        }
    }

    #[test]
    fn zero_length_extent_is_free_but_counted() {
        let cfg = fleet(1);
        // Chunk 1 is the zero-length extent at offset 64.
        let map = DeviceMap::place(&cfg, &[64, 0]);
        let nothing = map.charge_chunk_read(1);
        assert_eq!(nothing.seconds, 0.0);
        // The command was issued (and counted) even though it touched
        // no pages and cost no device time.
        let snap = &map.snapshots()[0];
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.read_seconds, 0.0);
    }

    #[test]
    fn missing_chunks_are_absent() {
        let map = DeviceMap::place(&fleet(2), &[64]);
        assert!(map.slot(1).is_none());
    }
}
