//! Chunk caches (LRU, segmented LRU, CLOCK and 2Q) with exported
//! hit/miss statistics.
//!
//! Decoding a chunk costs a mapper-scale amount of CPU (and, in the
//! SSD timing mode, a device read); the engine keeps the most recently
//! used decoded chunks pinned in memory. Capacity is counted in
//! chunks: chunk population is fixed at encode time, so chunk count is
//! a faithful proxy for memory.
//!
//! Four eviction policies implement the [`ChunkCache`] trait (the
//! `cache_ablation` bench compares them):
//!
//! - [`LruCache`] — plain least-recently-used.
//! - [`SegmentedLruCache`] — SLRU: new chunks enter a *probationary*
//!   segment; only a second touch promotes them into the *protected*
//!   segment. One-shot scans churn probation and leave the hot set
//!   alone, which plain LRU cannot do.
//! - [`ClockCache`] — CLOCK (second-chance): a circular buffer of
//!   slots with one reference bit each; the hand sweeps past recently
//!   touched slots, clearing their bit, and evicts the first
//!   untouched one. LRU-like behavior at O(1) amortized bookkeeping —
//!   the classic buffer-pool policy, here as an ablation point.
//! - [`TwoQCache`] — 2Q: new chunks enter a small FIFO (**A1in**);
//!   evicted A1in ids are remembered in a data-free ghost list
//!   (**A1out**), and only a chunk that misses *while ghosted* is
//!   admitted to the LRU main area (**Am**). One-shot scans churn the
//!   FIFO and the ghosts without ever entering Am — the strongest
//!   scan resistance of the four, at the cost of a second fetch
//!   before a chunk earns main-area residency.

use sage_genomics::ReadSet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The engine's cache interface: any eviction policy over decoded
/// chunks keyed by chunk id.
pub trait ChunkCache: Send + std::fmt::Debug {
    /// Looks up a chunk, refreshing its recency on hit.
    fn get(&mut self, chunk_id: u32) -> Option<Arc<ReadSet>>;

    /// Inserts a decoded chunk, returning how many entries were
    /// evicted to make room.
    fn insert(&mut self, chunk_id: u32, reads: Arc<ReadSet>) -> u64;

    /// Resident chunk count.
    fn len(&self) -> usize;

    /// Capacity in chunks.
    fn capacity(&self) -> usize;

    /// `true` when nothing is cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which [`ChunkCache`] implementation an engine uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Plain least-recently-used.
    #[default]
    Lru,
    /// Segmented LRU (probationary + protected segments).
    SegmentedLru,
    /// CLOCK / second-chance (reference bits swept by a hand).
    Clock,
    /// 2Q (A1in FIFO + A1out ghosts + Am main LRU).
    TwoQ,
}

impl CachePolicy {
    /// Builds a cache of `capacity` chunks under this policy.
    pub fn build(self, capacity: usize) -> Box<dyn ChunkCache> {
        match self {
            CachePolicy::Lru => Box::new(LruCache::new(capacity)),
            CachePolicy::SegmentedLru => Box::new(SegmentedLruCache::new(capacity)),
            CachePolicy::Clock => Box::new(ClockCache::new(capacity)),
            CachePolicy::TwoQ => Box::new(TwoQCache::new(capacity)),
        }
    }

    /// All policies, for ablation sweeps.
    pub fn all() -> [CachePolicy; 4] {
        [
            CachePolicy::Lru,
            CachePolicy::SegmentedLru,
            CachePolicy::Clock,
            CachePolicy::TwoQ,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicy::Lru => "lru",
            CachePolicy::SegmentedLru => "slru",
            CachePolicy::Clock => "clock",
            CachePolicy::TwoQ => "2q",
        }
    }
}

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to decode.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheSnapshot {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Shared, thread-safe counters (updated outside the cache lock).
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheStats {
    /// Records a hit.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a miss.
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` evictions.
    pub fn evicted(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads the counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A least-recently-used cache keyed by chunk id.
///
/// Recency is tracked with a monotone tick per entry; eviction scans
/// for the minimum. With the few dozen to few hundred resident chunks
/// a store realistically pins, the O(capacity) scan is cheaper than
/// maintaining an intrusive list — and it keeps the structure
/// trivially correct under the engine's lock.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<u32, (u64, Arc<ReadSet>)>,
}

impl LruCache {
    /// A cache holding at most `capacity` decoded chunks.
    pub fn new(capacity: usize) -> LruCache {
        LruCache {
            capacity,
            tick: 0,
            entries: HashMap::with_capacity(capacity.min(1 << 16)),
        }
    }

    /// Capacity in chunks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident chunk count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a chunk, refreshing its recency on hit.
    pub fn get(&mut self, chunk_id: u32) -> Option<Arc<ReadSet>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&chunk_id).map(|(t, rs)| {
            *t = tick;
            Arc::clone(rs)
        })
    }

    /// Inserts a decoded chunk, evicting the least recently used entry
    /// if the cache is full. Returns the number of evictions (0 or 1;
    /// 0-capacity caches store nothing and evict nothing).
    pub fn insert(&mut self, chunk_id: u32, reads: Arc<ReadSet>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        self.tick += 1;
        let mut evicted = 0;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&chunk_id) {
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
                evicted = 1;
            }
        }
        self.entries.insert(chunk_id, (self.tick, reads));
        evicted
    }
}

impl ChunkCache for LruCache {
    fn get(&mut self, chunk_id: u32) -> Option<Arc<ReadSet>> {
        LruCache::get(self, chunk_id)
    }

    fn insert(&mut self, chunk_id: u32, reads: Arc<ReadSet>) -> u64 {
        LruCache::insert(self, chunk_id, reads)
    }

    fn len(&self) -> usize {
        LruCache::len(self)
    }

    fn capacity(&self) -> usize {
        LruCache::capacity(self)
    }
}

/// One recency-ordered segment of a [`SegmentedLruCache`] (the same
/// tick-scan structure as [`LruCache`]; see there for why a scan beats
/// an intrusive list at chunk-store scale).
#[derive(Debug, Default)]
struct Segment {
    entries: HashMap<u32, (u64, Arc<ReadSet>)>,
}

impl Segment {
    fn touch(&mut self, chunk_id: u32, tick: u64) -> Option<Arc<ReadSet>> {
        self.entries.get_mut(&chunk_id).map(|(t, rs)| {
            *t = tick;
            Arc::clone(rs)
        })
    }

    /// Removes and returns the least recently used entry.
    fn pop_lru(&mut self) -> Option<(u32, Arc<ReadSet>)> {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, (t, _))| *t)
            .map(|(&k, _)| k)?;
        let (_, rs) = self.entries.remove(&victim).expect("victim resident");
        Some((victim, rs))
    }
}

/// A segmented-LRU (SLRU) cache keyed by chunk id.
///
/// New chunks enter the **probationary** segment; a hit there promotes
/// the chunk into the **protected** segment (demoting the protected
/// LRU back to probation when full — a demotion, not an eviction).
/// Only probationary entries are ever evicted from the cache, so a
/// burst of one-shot chunks — a cold scan walking the whole dataset —
/// cannot flush the twice-touched hot set.
#[derive(Debug)]
pub struct SegmentedLruCache {
    capacity: usize,
    protected_capacity: usize,
    tick: u64,
    probation: Segment,
    protected: Segment,
}

impl SegmentedLruCache {
    /// Default protected share of the capacity.
    pub const PROTECTED_FRACTION: f64 = 0.5;

    /// A cache of `capacity` chunks with the default protected share.
    pub fn new(capacity: usize) -> SegmentedLruCache {
        SegmentedLruCache::with_protected_fraction(capacity, Self::PROTECTED_FRACTION)
    }

    /// A cache of `capacity` chunks reserving `fraction` of it for the
    /// protected segment (clamped to `[0, 1]`; at least one slot stays
    /// probationary whenever `capacity > 0`, because every chunk must
    /// pass through probation to be admitted at all).
    pub fn with_protected_fraction(capacity: usize, fraction: f64) -> SegmentedLruCache {
        let protected_capacity = if capacity == 0 {
            0
        } else {
            (((capacity as f64) * fraction.clamp(0.0, 1.0)).round() as usize).min(capacity - 1)
        };
        SegmentedLruCache {
            capacity,
            protected_capacity,
            tick: 0,
            probation: Segment::default(),
            protected: Segment::default(),
        }
    }

    /// Chunks currently in the protected segment.
    pub fn protected_len(&self) -> usize {
        self.protected.entries.len()
    }

    /// Chunks currently in the probationary segment.
    pub fn probation_len(&self) -> usize {
        self.probation.entries.len()
    }
}

impl ChunkCache for SegmentedLruCache {
    fn get(&mut self, chunk_id: u32) -> Option<Arc<ReadSet>> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(rs) = self.protected.touch(chunk_id, tick) {
            return Some(rs);
        }
        let (_, rs) = self.probation.entries.remove(&chunk_id)?;
        // Second touch: promote. The displaced protected LRU goes back
        // to probation (most recent there), not out of the cache.
        if self.protected_capacity == 0 {
            self.probation
                .entries
                .insert(chunk_id, (tick, Arc::clone(&rs)));
            return Some(rs);
        }
        if self.protected.entries.len() >= self.protected_capacity {
            if let Some((demoted, demoted_rs)) = self.protected.pop_lru() {
                self.probation.entries.insert(demoted, (tick, demoted_rs));
            }
        }
        self.tick += 1;
        self.protected
            .entries
            .insert(chunk_id, (self.tick, Arc::clone(&rs)));
        Some(rs)
    }

    fn insert(&mut self, chunk_id: u32, reads: Arc<ReadSet>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        self.tick += 1;
        let tick = self.tick;
        // A resident chunk just gets its value refreshed in place.
        if let Some(slot) = self.protected.entries.get_mut(&chunk_id) {
            *slot = (tick, reads);
            return 0;
        }
        if let Some(slot) = self.probation.entries.get_mut(&chunk_id) {
            *slot = (tick, reads);
            return 0;
        }
        let mut evicted = 0;
        if self.len() >= self.capacity {
            // Only probation evicts; demotions keep it non-empty
            // whenever the cache is full.
            if self.probation.pop_lru().is_some() {
                evicted = 1;
            }
        }
        self.probation.entries.insert(chunk_id, (tick, reads));
        evicted
    }

    fn len(&self) -> usize {
        self.probation.entries.len() + self.protected.entries.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One slot of a [`ClockCache`]: an entry plus its reference bit.
#[derive(Debug)]
struct ClockSlot {
    chunk_id: u32,
    referenced: bool,
    reads: Arc<ReadSet>,
}

/// A CLOCK (second-chance) cache keyed by chunk id.
///
/// Entries live in a fixed circular buffer; each carries a reference
/// bit set on every touch. On eviction a hand sweeps the ring: slots
/// with the bit set get a second chance (bit cleared, hand moves on),
/// and the first slot found with the bit clear is the victim. The
/// sweep is O(1) amortized — each pass clears bits that took O(1) each
/// to set — which is why buffer pools prefer CLOCK to exact LRU at
/// scale.
#[derive(Debug)]
pub struct ClockCache {
    capacity: usize,
    hand: usize,
    slots: Vec<Option<ClockSlot>>,
    /// chunk id → slot index.
    index: HashMap<u32, usize>,
}

impl ClockCache {
    /// A cache holding at most `capacity` decoded chunks. The slot
    /// ring grows lazily with the resident set, so a huge capacity
    /// costs nothing until it is actually used.
    pub fn new(capacity: usize) -> ClockCache {
        ClockCache {
            capacity,
            hand: 0,
            slots: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Advances the hand one position (wrapping).
    fn advance(&mut self) {
        self.hand = (self.hand + 1) % self.slots.len().max(1);
    }

    /// Sweeps the hand to a victim slot, granting second chances, and
    /// evicts it. Only called when every slot is occupied, so the
    /// sweep terminates within two revolutions.
    fn evict_one(&mut self) {
        loop {
            let slot = self.slots[self.hand]
                .as_mut()
                .expect("evict_one only runs on a full ring");
            if slot.referenced {
                slot.referenced = false;
                self.advance();
                continue;
            }
            let victim = self.slots[self.hand].take().expect("occupied");
            self.index.remove(&victim.chunk_id);
            // The freed slot is where the next insert lands; leave the
            // hand pointing at it.
            return;
        }
    }
}

impl ChunkCache for ClockCache {
    fn get(&mut self, chunk_id: u32) -> Option<Arc<ReadSet>> {
        let &i = self.index.get(&chunk_id)?;
        let slot = self.slots[i].as_mut().expect("indexed slot occupied");
        slot.referenced = true;
        Some(Arc::clone(&slot.reads))
    }

    fn insert(&mut self, chunk_id: u32, reads: Arc<ReadSet>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        // A resident chunk gets its value refreshed in place.
        if let Some(&i) = self.index.get(&chunk_id) {
            let slot = self.slots[i].as_mut().expect("indexed slot occupied");
            slot.referenced = true;
            slot.reads = reads;
            return 0;
        }
        let mut evicted = 0;
        if self.slots.len() < self.capacity {
            // Warm-up: grow the ring to the full configured capacity
            // instead of evicting.
            self.slots.push(None);
        } else if self.index.len() >= self.slots.len() {
            self.evict_one();
            evicted = 1;
        }
        // Find the free slot (the hand sits on one after eviction;
        // scan during warm-up).
        let free = if self.slots[self.hand].is_none() {
            self.hand
        } else {
            (0..self.slots.len())
                .find(|&i| self.slots[i].is_none())
                .expect("a slot is free after eviction")
        };
        self.slots[free] = Some(ClockSlot {
            chunk_id,
            // A fresh entry starts *unreferenced*: only a real touch
            // after admission earns the second chance. This is what
            // lets a one-shot burst recycle its own slots instead of
            // forcing touched entries out.
            referenced: false,
            reads,
        });
        self.index.insert(chunk_id, free);
        evicted
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A 2Q cache keyed by chunk id.
///
/// Three areas, per the classic simplified-2Q algorithm:
///
/// - **A1in** — a small FIFO (a quarter of the capacity) that every
///   first-seen chunk enters. Hits in A1in serve the data but do not
///   reorder it; a one-shot burst flows through and falls out the far
///   end.
/// - **A1out** — a data-free *ghost* list (half the capacity, ids
///   only) remembering what recently fell out of A1in.
/// - **Am** — the main LRU area. A chunk is admitted here only when it
///   is inserted *while its id is ghosted* — i.e. it missed again
///   shortly after leaving the FIFO, which is 2Q's evidence of real
///   reuse. Scans never produce that evidence, so they never displace
///   the main area: when the cache is full, eviction drains A1in
///   first and touches Am only once the FIFO is below its quota.
#[derive(Debug)]
pub struct TwoQCache {
    capacity: usize,
    /// FIFO quota: evictions drain A1in while it holds at least this
    /// many chunks.
    a1in_capacity: usize,
    /// Ghost-list bound (ids only; no data retained).
    ghost_capacity: usize,
    tick: u64,
    a1in: Segment,
    am: Segment,
    /// Ghosted id → expiry order (oldest trimmed first).
    ghost: HashMap<u32, u64>,
}

impl TwoQCache {
    /// A1in's share of the capacity (Kin in the 2Q paper).
    pub const A1IN_FRACTION: f64 = 0.25;
    /// A1out's share of the capacity (Kout in the 2Q paper).
    pub const GHOST_FRACTION: f64 = 0.5;

    /// A cache holding at most `capacity` decoded chunks (plus up to
    /// `capacity/2` data-free ghost ids).
    pub fn new(capacity: usize) -> TwoQCache {
        TwoQCache {
            capacity,
            a1in_capacity: ((capacity as f64 * Self::A1IN_FRACTION) as usize).max(1),
            ghost_capacity: (capacity as f64 * Self::GHOST_FRACTION) as usize,
            tick: 0,
            a1in: Segment::default(),
            am: Segment::default(),
            ghost: HashMap::new(),
        }
    }

    /// Chunks currently in the main (Am) area.
    pub fn main_len(&self) -> usize {
        self.am.entries.len()
    }

    /// Chunks currently in the A1in FIFO.
    pub fn fifo_len(&self) -> usize {
        self.a1in.entries.len()
    }

    /// Ids currently ghosted (no data retained).
    pub fn ghost_len(&self) -> usize {
        self.ghost.len()
    }

    /// Remembers an id in the ghost list, trimming the oldest ghosts
    /// past the bound.
    fn remember_ghost(&mut self, chunk_id: u32) {
        if self.ghost_capacity == 0 {
            return;
        }
        self.tick += 1;
        self.ghost.insert(chunk_id, self.tick);
        while self.ghost.len() > self.ghost_capacity {
            let oldest = self
                .ghost
                .iter()
                .min_by_key(|(_, t)| **t)
                .map(|(&k, _)| k)
                .expect("non-empty ghost list");
            self.ghost.remove(&oldest);
        }
    }

    /// Frees one resident slot: drains the A1in FIFO (ghosting the
    /// victim) while it is at quota, otherwise evicts the Am LRU
    /// (unghosted — Am residents already proved reuse once).
    fn evict_one(&mut self) {
        if self.a1in.entries.len() >= self.a1in_capacity {
            if let Some((victim, _)) = self.a1in.pop_lru() {
                self.remember_ghost(victim);
                return;
            }
        }
        if self.am.pop_lru().is_none() {
            // Degenerate split: everything resident sits in an
            // under-quota A1in (e.g. capacity 1). Drain it anyway.
            if let Some((victim, _)) = self.a1in.pop_lru() {
                self.remember_ghost(victim);
            }
        }
    }
}

impl ChunkCache for TwoQCache {
    fn get(&mut self, chunk_id: u32) -> Option<Arc<ReadSet>> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(rs) = self.am.touch(chunk_id, tick) {
            return Some(rs);
        }
        // A1in hits serve the data but keep FIFO order: recency inside
        // the admission queue is deliberately ignored.
        self.a1in
            .entries
            .get(&chunk_id)
            .map(|(_, rs)| Arc::clone(rs))
    }

    fn insert(&mut self, chunk_id: u32, reads: Arc<ReadSet>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        self.tick += 1;
        let tick = self.tick;
        // A resident chunk just gets its value refreshed in place
        // (A1in keeps its original FIFO position).
        if let Some(slot) = self.am.entries.get_mut(&chunk_id) {
            *slot = (tick, reads);
            return 0;
        }
        if let Some((_, slot)) = self.a1in.entries.get_mut(&chunk_id) {
            *slot = reads;
            return 0;
        }
        let mut evicted = 0;
        if self.len() >= self.capacity {
            self.evict_one();
            evicted = 1;
        }
        if self.ghost.remove(&chunk_id).is_some() {
            // Missed again while ghosted: proven reuse, admit to Am.
            self.am.entries.insert(chunk_id, (tick, reads));
        } else {
            self.a1in.entries.insert(chunk_id, (tick, reads));
        }
        evicted
    }

    fn len(&self) -> usize {
        self.a1in.entries.len() + self.am.entries.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One shard of a [`StripedCache`]: a policy instance behind its own
/// lock, plus lock-occupancy accounting.
#[derive(Debug)]
struct CacheShard {
    cache: Mutex<Box<dyn ChunkCache>>,
    /// Nanoseconds the shard lock was *held* (critical-section time).
    busy_ns: AtomicU64,
    /// Times the shard lock was taken.
    acquisitions: AtomicU64,
}

impl CacheShard {
    /// Runs `f` under the shard lock, accounting the hold time.
    ///
    /// The accounting costs two monotonic-clock reads plus two
    /// relaxed counter bumps per access — the accepted price of the
    /// cache's built-in observability, mirroring the device models'
    /// per-charge accounting. Note the hold time is *wall* time: on
    /// an oversubscribed host a thread preempted mid-hold accrues
    /// scheduler quanta into its shard's busy count, so busy-seconds
    /// comparisons are only meaningful on a quiet machine — the
    /// acquisition *counts* are exact and deterministic regardless.
    fn with<T>(&self, f: impl FnOnce(&mut dyn ChunkCache) -> T) -> T {
        let mut guard = self.cache.lock().expect("cache shard poisoned");
        let held = Instant::now();
        let out = f(guard.as_mut());
        drop(guard);
        self.busy_ns
            .fetch_add(held.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// A point-in-time view of a [`StripedCache`]'s shard occupancy and
/// lock accounting, aggregated across shards.
///
/// Two serialization lenses, with different trust levels:
///
/// - `shard_acquisitions` / `max_shard_acquisitions` — **exact and
///   deterministic**: how many critical sections each shard lock
///   executed. The busiest shard's count is the number of cache
///   operations that serialize behind one lock; striping divides it.
///   Same access stream ⇒ same counts, on any machine under any load.
/// - `shard_busy_seconds` / `max_shard_busy_seconds` — measured
///   *wall-clock* hold time, the striped analogue of the device
///   models' busy-seconds. Meaningful on a quiet host; on an
///   oversubscribed one, preemption mid-hold inflates it (and
///   inflates it *more* the more locks are concurrently held), so
///   prefer the acquisition counts for assertions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StripeSnapshot {
    /// Shard count.
    pub shards: usize,
    /// Resident chunks summed across shards.
    pub len: usize,
    /// Capacity summed across shards (the configured total).
    pub capacity: usize,
    /// Lock acquisitions summed across shards.
    pub lock_acquisitions: u64,
    /// The most-loaded shard's lock acquisitions — the exact count of
    /// cache operations serialized behind one lock.
    pub max_shard_acquisitions: u64,
    /// Per-shard lock acquisitions.
    pub shard_acquisitions: Vec<u64>,
    /// Lock hold seconds summed across shards (wall-clock measured).
    pub lock_busy_seconds: f64,
    /// The most-loaded shard's lock hold seconds (wall-clock
    /// measured).
    pub max_shard_busy_seconds: f64,
    /// Per-shard lock hold seconds (wall-clock measured).
    pub shard_busy_seconds: Vec<f64>,
}

/// An N-shard striped chunk cache: shard = `chunk_id % N`, each shard
/// its own lock and its own [`CachePolicy`] instance.
///
/// The single global cache mutex used to serialize *every* request on
/// the serving hot path — cache hits included. Striping spreads that
/// critical section over N independent locks while preserving the
/// eviction policy per shard: with `n_shards == 1` the striped cache
/// is byte-for-byte the old single-lock cache (same policy instance,
/// same capacity, same probe order), which is what keeps the default
/// configuration's virtual timeline bit-identical.
///
/// Capacity is split as evenly as chunk counts allow (the first
/// `capacity % N` shards get one extra slot), so the configured total
/// is always exactly honored.
#[derive(Debug)]
pub struct StripedCache {
    shards: Vec<CacheShard>,
    capacity: usize,
}

impl StripedCache {
    /// A striped cache of `capacity` total chunks over `n_shards`
    /// instances of `policy`.
    ///
    /// The effective shard count is clamped to `capacity` (and to at
    /// least 1): more shards than capacity would leave some shards
    /// with **zero** slots, silently making every chunk id mapping to
    /// them permanently uncacheable. Clamping keeps every id class
    /// cacheable and the configured total capacity exactly honored —
    /// [`StripedCache::n_shards`] reports the effective count.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is 0.
    pub fn new(policy: CachePolicy, capacity: usize, n_shards: usize) -> StripedCache {
        assert!(n_shards > 0, "a striped cache needs at least one shard");
        let n_shards = n_shards.min(capacity).max(1);
        let shards = (0..n_shards)
            .map(|i| {
                let cap = capacity / n_shards + usize::from(i < capacity % n_shards);
                CacheShard {
                    cache: Mutex::new(policy.build(cap)),
                    busy_ns: AtomicU64::new(0),
                    acquisitions: AtomicU64::new(0),
                }
            })
            .collect();
        StripedCache { shards, capacity }
    }

    /// Shard count.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity in chunks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident chunks summed across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.with(|c| c.len())).sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, chunk_id: u32) -> &CacheShard {
        &self.shards[chunk_id as usize % self.shards.len()]
    }

    /// Looks up a chunk in its shard, refreshing recency on hit.
    pub fn get(&self, chunk_id: u32) -> Option<Arc<ReadSet>> {
        self.shard(chunk_id).with(|c| c.get(chunk_id))
    }

    /// Inserts a decoded chunk into its shard, returning how many
    /// entries that shard evicted to make room.
    pub fn insert(&self, chunk_id: u32, reads: Arc<ReadSet>) -> u64 {
        self.shard(chunk_id).with(|c| c.insert(chunk_id, reads))
    }

    /// Probes a batch of chunk ids, taking each touched shard's lock
    /// **once** (in first-touch order) instead of once per id. Within
    /// a shard, ids are probed in their `ids` order, so a one-shard
    /// cache probes in exactly the order the old global-lock batch
    /// probe did.
    pub fn get_batch(&self, ids: &[u32]) -> Vec<Option<Arc<ReadSet>>> {
        // Single-id probes — the dominant warm-get shape — skip the
        // grouping machinery entirely.
        if let [id] = ids {
            return vec![self.get(*id)];
        }
        let n = self.shards.len();
        let mut out: Vec<Option<Arc<ReadSet>>> = vec![None; ids.len()];
        // Group positions by shard in first-touch order. A batch
        // touches few distinct shards, so the linear group lookup is
        // cheaper than allocating a shard-count-sized bucket table on
        // every call.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let s = *id as usize % n;
            match groups.iter_mut().find(|(g, _)| *g == s) {
                Some((_, positions)) => positions.push(i),
                None => groups.push((s, vec![i])),
            }
        }
        for (s, positions) in groups {
            self.shards[s].with(|c| {
                for &i in &positions {
                    out[i] = c.get(ids[i]);
                }
            });
        }
        out
    }

    /// Aggregated shard occupancy and lock accounting.
    pub fn stripe_snapshot(&self) -> StripeSnapshot {
        let mut snap = StripeSnapshot {
            shards: self.shards.len(),
            capacity: self.capacity,
            ..StripeSnapshot::default()
        };
        for s in &self.shards {
            snap.len += s.with(|c| c.len());
            let acq = s.acquisitions.load(Ordering::Relaxed);
            snap.lock_acquisitions += acq;
            snap.max_shard_acquisitions = snap.max_shard_acquisitions.max(acq);
            snap.shard_acquisitions.push(acq);
            let busy = s.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9;
            snap.lock_busy_seconds += busy;
            snap.max_shard_busy_seconds = snap.max_shard_busy_seconds.max(busy);
            snap.shard_busy_seconds.push(busy);
        }
        // The snapshot reads above took the locks too; exclude nothing
        // — they are part of the measured serving traffic only in a
        // negligible way, and consumers difference snapshots anyway.
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(n: usize) -> Arc<ReadSet> {
        let mut set = ReadSet::new();
        for _ in 0..n {
            set.push(sage_genomics::Read::from_seq("ACGT".parse().unwrap()));
        }
        Arc::new(set)
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(0, rs(1));
        c.insert(1, rs(2));
        assert!(c.get(0).is_some()); // 0 is now fresher than 1
        assert_eq!(c.insert(2, rs(3)), 1); // evicts 1
        assert!(c.get(1).is_none());
        assert!(c.get(0).is_some());
        assert!(c.get(2).is_some());
    }

    #[test]
    fn reinserting_resident_chunk_evicts_nothing() {
        let mut c = LruCache::new(2);
        c.insert(0, rs(1));
        c.insert(1, rs(1));
        assert_eq!(c.insert(1, rs(2)), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1).unwrap().len(), 2);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = LruCache::new(0);
        assert_eq!(c.insert(5, rs(1)), 0);
        assert!(c.get(5).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn slru_promotes_on_second_touch() {
        let mut c = SegmentedLruCache::new(4); // 2 probation + 2 protected
        c.insert(0, rs(1));
        c.insert(1, rs(1));
        assert_eq!(c.probation_len(), 2);
        assert_eq!(c.protected_len(), 0);
        // Second touch moves chunk 0 into the protected segment.
        assert!(ChunkCache::get(&mut c, 0).is_some());
        assert_eq!(c.probation_len(), 1);
        assert_eq!(c.protected_len(), 1);
    }

    #[test]
    fn slru_scan_burst_cannot_flush_the_hot_set() {
        let mut c = SegmentedLruCache::new(4);
        // Build a hot set of two protected chunks.
        for id in [0, 1] {
            c.insert(id, rs(1));
            assert!(ChunkCache::get(&mut c, id).is_some());
        }
        assert_eq!(c.protected_len(), 2);
        // A one-shot scan over 20 cold chunks churns probation only.
        for id in 100..120 {
            c.insert(id, rs(1));
        }
        assert!(ChunkCache::get(&mut c, 0).is_some(), "hot chunk survived");
        assert!(ChunkCache::get(&mut c, 1).is_some(), "hot chunk survived");
        // Plain LRU at the same capacity loses the hot set entirely.
        let mut lru = LruCache::new(4);
        for id in [0, 1] {
            lru.insert(id, rs(1));
            assert!(LruCache::get(&mut lru, id).is_some());
        }
        for id in 100..120 {
            LruCache::insert(&mut lru, id, rs(1));
        }
        assert!(LruCache::get(&mut lru, 0).is_none());
        assert!(LruCache::get(&mut lru, 1).is_none());
    }

    #[test]
    fn slru_demotion_is_not_eviction() {
        let mut c = SegmentedLruCache::new(4); // protected capacity 2
        for id in 0..3 {
            c.insert(id, rs(1));
            assert!(ChunkCache::get(&mut c, id).is_some());
        }
        // Promoting chunk 2 demoted chunk 0 back to probation — still
        // resident, still a hit.
        assert_eq!(c.protected_len(), 2);
        assert_eq!(c.len(), 3);
        assert!(ChunkCache::get(&mut c, 0).is_some());
    }

    #[test]
    fn slru_respects_capacity_and_counts_evictions() {
        let mut c = SegmentedLruCache::new(2);
        assert_eq!(c.insert(0, rs(1)), 0);
        assert_eq!(c.insert(1, rs(1)), 0);
        assert_eq!(c.insert(2, rs(1)), 1);
        assert_eq!(c.len(), 2);
        // Re-inserting a resident chunk evicts nothing.
        assert_eq!(c.insert(2, rs(2)), 0);
        assert_eq!(ChunkCache::get(&mut c, 2).unwrap().len(), 2);
    }

    #[test]
    fn slru_zero_and_one_capacity_degenerate_cleanly() {
        let mut zero = SegmentedLruCache::new(0);
        assert_eq!(zero.insert(5, rs(1)), 0);
        assert!(ChunkCache::get(&mut zero, 5).is_none());
        assert!(ChunkCache::is_empty(&zero));
        // Capacity 1 has no protected room: behaves like LRU(1).
        let mut one = SegmentedLruCache::new(1);
        one.insert(0, rs(1));
        assert!(ChunkCache::get(&mut one, 0).is_some());
        assert_eq!(one.protected_len(), 0);
        assert_eq!(one.insert(1, rs(1)), 1);
        assert!(ChunkCache::get(&mut one, 0).is_none());
    }

    #[test]
    fn policy_builds_the_right_cache() {
        for policy in CachePolicy::all() {
            let mut c = policy.build(3);
            c.insert(1, rs(1));
            assert_eq!(c.capacity(), 3, "{}", policy.label());
            assert!(c.get(1).is_some(), "{}", policy.label());
        }
    }

    #[test]
    fn clock_gives_touched_entries_a_second_chance() {
        let mut c = ClockCache::new(3);
        for id in 0..3 {
            c.insert(id, rs(1));
        }
        // Touch 0 and 1; 2's reference bit decays as the hand sweeps.
        assert!(ChunkCache::get(&mut c, 0).is_some());
        assert!(ChunkCache::get(&mut c, 1).is_some());
        // Full ring: inserting 3 must evict *something*, and the
        // recently touched 0 and 1 must survive the sweep.
        assert_eq!(c.insert(3, rs(1)), 1);
        assert_eq!(c.len(), 3);
        assert!(
            ChunkCache::get(&mut c, 0).is_some(),
            "touched entry evicted"
        );
        assert!(
            ChunkCache::get(&mut c, 1).is_some(),
            "touched entry evicted"
        );
        assert!(ChunkCache::get(&mut c, 3).is_some(), "fresh entry evicted");
        assert!(
            ChunkCache::get(&mut c, 2).is_none(),
            "victim still resident"
        );
    }

    #[test]
    fn clock_reinsert_refreshes_in_place() {
        let mut c = ClockCache::new(2);
        c.insert(0, rs(1));
        c.insert(1, rs(1));
        assert_eq!(c.insert(1, rs(2)), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(ChunkCache::get(&mut c, 1).unwrap().len(), 2);
    }

    #[test]
    fn clock_respects_capacity_under_churn() {
        let mut c = ClockCache::new(4);
        let mut evictions = 0;
        for id in 0..64 {
            evictions += c.insert(id, rs(1));
        }
        assert_eq!(c.len(), 4);
        assert_eq!(evictions, 60);
        // The survivors are real, resident entries.
        let resident = (0..64)
            .filter(|&id| ChunkCache::get(&mut c, id).is_some())
            .count();
        assert_eq!(resident, 4);
    }

    #[test]
    fn clock_honors_capacities_past_the_old_slot_cap() {
        // The slot ring used to be silently capped at 2^16 entries;
        // a larger configured capacity must really be usable.
        let cap = (1 << 16) + 50;
        let mut c = ClockCache::new(cap);
        let shared = rs(1);
        let mut evictions = 0;
        for id in 0..(cap as u32 + 10) {
            evictions += c.insert(id, Arc::clone(&shared));
        }
        assert_eq!(c.len(), cap);
        assert_eq!(evictions, 10);
        assert_eq!(c.capacity(), cap);
    }

    #[test]
    fn clock_zero_capacity_caches_nothing() {
        let mut c = ClockCache::new(0);
        assert_eq!(c.insert(5, rs(1)), 0);
        assert!(ChunkCache::get(&mut c, 5).is_none());
        assert!(ChunkCache::is_empty(&c));
    }

    /// Cycles `id` through A1in and the ghost list into Am: insert →
    /// force a FIFO eviction → reinsert while ghosted.
    fn promote_to_main(c: &mut TwoQCache, id: u32, filler: &mut u32) {
        c.insert(id, rs(1));
        while !c.ghost.contains_key(&id) {
            *filler += 1;
            c.insert(1_000_000 + *filler, rs(1));
        }
        c.insert(id, rs(1));
        assert!(c.am.entries.contains_key(&id), "{id} should be in Am");
    }

    #[test]
    fn twoq_admits_to_main_only_via_ghosts() {
        let mut c = TwoQCache::new(4); // a1in quota 1, ghosts 2
        c.insert(0, rs(1));
        assert_eq!(c.fifo_len(), 1);
        assert_eq!(c.main_len(), 0);
        // An A1in hit serves the data without promoting.
        assert!(ChunkCache::get(&mut c, 0).is_some());
        assert_eq!(c.main_len(), 0);
        // Push 0 out of the FIFO: its data is gone, its id ghosted.
        for id in [1, 2, 3, 4] {
            c.insert(id, rs(1));
        }
        assert!(ChunkCache::get(&mut c, 0).is_none(), "ghosts hold no data");
        assert!(c.ghost_len() > 0);
        // The re-miss insert lands in Am.
        c.insert(0, rs(1));
        assert_eq!(c.main_len(), 1);
        assert!(ChunkCache::get(&mut c, 0).is_some());
    }

    #[test]
    fn twoq_scan_burst_cannot_flush_the_main_area() {
        let mut c = TwoQCache::new(4);
        let mut filler = 0;
        promote_to_main(&mut c, 0, &mut filler);
        assert_eq!(c.main_len(), 1);
        // A one-shot scan over 20 cold chunks churns the FIFO and the
        // ghosts only.
        for id in 100..120 {
            c.insert(id, rs(1));
        }
        assert!(
            ChunkCache::get(&mut c, 0).is_some(),
            "main-area chunk survived the scan"
        );
        assert_eq!(c.main_len(), 1);
        // Plain LRU at the same capacity loses the hot chunk entirely.
        let mut lru = LruCache::new(4);
        lru.insert(0, rs(1));
        assert!(LruCache::get(&mut lru, 0).is_some());
        for id in 100..120 {
            LruCache::insert(&mut lru, id, rs(1));
        }
        assert!(LruCache::get(&mut lru, 0).is_none());
    }

    #[test]
    fn twoq_reinsert_refreshes_in_place() {
        let mut c = TwoQCache::new(4);
        c.insert(0, rs(1));
        assert_eq!(c.insert(0, rs(2)), 0);
        assert_eq!(c.len(), 1);
        assert_eq!(ChunkCache::get(&mut c, 0).unwrap().len(), 2);
        // Same for an Am resident.
        let mut filler = 0;
        promote_to_main(&mut c, 7, &mut filler);
        assert_eq!(c.insert(7, rs(3)), 0);
        assert_eq!(ChunkCache::get(&mut c, 7).unwrap().len(), 3);
    }

    #[test]
    fn twoq_respects_capacity_under_churn() {
        let mut c = TwoQCache::new(4);
        let mut evictions = 0;
        for id in 0..64 {
            evictions += c.insert(id, rs(1));
        }
        assert_eq!(c.len(), 4);
        assert_eq!(evictions, 60);
        assert!(c.ghost_len() <= 2, "ghost list bounded at capacity/2");
        let resident = (0..64)
            .filter(|&id| ChunkCache::get(&mut c, id).is_some())
            .count();
        assert_eq!(resident, 4);
    }

    #[test]
    fn twoq_zero_capacity_caches_nothing() {
        let mut c = TwoQCache::new(0);
        assert_eq!(c.insert(5, rs(1)), 0);
        assert!(ChunkCache::get(&mut c, 5).is_none());
        assert!(ChunkCache::is_empty(&c));
        assert_eq!(c.ghost_len(), 0);
    }

    #[test]
    fn twoq_capacity_one_degenerates_to_fifo() {
        let mut c = TwoQCache::new(1); // no ghost room, quota 1
        c.insert(0, rs(1));
        assert!(ChunkCache::get(&mut c, 0).is_some());
        assert_eq!(c.insert(1, rs(1)), 1);
        assert!(ChunkCache::get(&mut c, 0).is_none());
        assert!(ChunkCache::get(&mut c, 1).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn hit_rate_math() {
        let stats = CacheStats::default();
        stats.hit();
        stats.hit();
        stats.hit();
        stats.miss();
        let snap = stats.snapshot();
        assert_eq!(snap.hits, 3);
        assert_eq!(snap.misses, 1);
        assert!((snap.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn one_shard_stripe_matches_the_raw_policy() {
        // At shard count 1 the striped cache must behave exactly like
        // the bare policy instance — same hits, same misses, same
        // residency — for every policy.
        let seq: Vec<(bool, u32)> = (0..64u32)
            .map(|i| ((i * 7 + 3) % 3 != 0, (i * 13 + 5) % 9))
            .collect();
        for policy in CachePolicy::all() {
            let striped = StripedCache::new(policy, 4, 1);
            let mut raw = policy.build(4);
            let mut striped_hits = Vec::new();
            let mut raw_hits = Vec::new();
            for &(is_get, id) in &seq {
                if is_get {
                    striped_hits.push(striped.get(id).is_some());
                    raw_hits.push(raw.get(id).is_some());
                } else {
                    striped.insert(id, rs(1));
                    raw.insert(id, rs(1));
                }
            }
            assert_eq!(striped_hits, raw_hits, "{}", policy.label());
            assert_eq!(striped.len(), raw.len(), "{}", policy.label());
        }
    }

    #[test]
    fn stripes_route_by_chunk_id_and_split_capacity() {
        let c = StripedCache::new(CachePolicy::Lru, 10, 4);
        assert_eq!(c.n_shards(), 4);
        assert_eq!(c.capacity(), 10);
        // 10 over 4 shards: 3 + 3 + 2 + 2.
        let caps: Vec<usize> = c
            .shards
            .iter()
            .map(|s| s.with(|cc| cc.capacity()))
            .collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
        assert_eq!(caps.iter().sum::<usize>(), 10);
        // Ids land on id % 4; same-shard ids compete, others don't.
        for id in 0..8u32 {
            c.insert(id, rs(1));
        }
        assert_eq!(c.len(), 8);
        assert!(c.get(3).is_some());
        assert!(c.get(7).is_some());
    }

    #[test]
    fn stripe_snapshot_aggregates_across_shards() {
        let c = StripedCache::new(CachePolicy::Lru, 8, 4);
        // Fill shards unevenly: shard 0 gets ids 0,4; shard 1 id 1.
        for id in [0u32, 4, 1] {
            c.insert(id, rs(1));
        }
        for id in [0u32, 0, 4, 1, 2] {
            let _ = c.get(id); // id 2 misses
        }
        let snap = c.stripe_snapshot();
        assert_eq!(snap.shards, 4);
        assert_eq!(snap.capacity, 8);
        assert_eq!(snap.len, 3);
        assert_eq!(snap.shard_busy_seconds.len(), 4);
        // 3 inserts + 5 gets = 8 accounted acquisitions at minimum
        // (the snapshot's own len probes add more).
        assert!(snap.lock_acquisitions >= 8);
        assert_eq!(snap.shard_acquisitions.len(), 4);
        assert_eq!(
            snap.shard_acquisitions.iter().sum::<u64>(),
            snap.lock_acquisitions
        );
        assert_eq!(
            snap.max_shard_acquisitions,
            snap.shard_acquisitions.iter().copied().max().unwrap()
        );
        // Shard 0 saw ids 0 and 4 (2 inserts + 3 gets + snapshot len
        // probe) — deterministically the busiest.
        assert_eq!(snap.max_shard_acquisitions, snap.shard_acquisitions[0]);
        assert!(snap.lock_busy_seconds > 0.0);
        assert!(snap.max_shard_busy_seconds <= snap.lock_busy_seconds);
        assert!(snap
            .shard_busy_seconds
            .iter()
            .all(|b| *b <= snap.max_shard_busy_seconds));
        let sum: f64 = snap.shard_busy_seconds.iter().sum();
        assert!((sum - snap.lock_busy_seconds).abs() < 1e-12);
    }

    #[test]
    fn stripe_eviction_counts_sum_like_a_single_cache() {
        // Hammer more distinct ids than capacity through every shard:
        // evictions reported per insert must sum to inserts - capacity
        // (each shard is exactly full at the end).
        let c = StripedCache::new(CachePolicy::Lru, 8, 4);
        let mut evicted = 0;
        for id in 0..64u32 {
            evicted += c.insert(id, rs(1));
        }
        assert_eq!(c.len(), 8);
        assert_eq!(evicted, 64 - 8);
    }

    #[test]
    fn batch_probe_matches_individual_probes() {
        let c = StripedCache::new(CachePolicy::SegmentedLru, 6, 3);
        for id in [0u32, 1, 2, 3, 7] {
            c.insert(id, rs(1));
        }
        let probe = StripedCache::new(CachePolicy::SegmentedLru, 6, 3);
        for id in [0u32, 1, 2, 3, 7] {
            probe.insert(id, rs(1));
        }
        let ids = [0u32, 5, 7, 2, 9, 1];
        let batch = c.get_batch(&ids);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(batch[i].is_some(), probe.get(*id).is_some(), "id {id}");
        }
    }

    #[test]
    fn zero_capacity_stripes_cache_nothing() {
        let c = StripedCache::new(CachePolicy::TwoQ, 0, 4);
        assert_eq!(c.insert(5, rs(1)), 0);
        assert!(c.get(5).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn shard_count_clamps_to_capacity() {
        // 8 shards over 4 slots would leave shards 4..8 with zero
        // capacity — chunk ids mapping there could never be cached.
        // The clamp keeps every id class cacheable.
        let c = StripedCache::new(CachePolicy::Lru, 4, 8);
        assert_eq!(c.n_shards(), 4);
        assert_eq!(c.capacity(), 4);
        for id in 0..8u32 {
            c.insert(id, rs(1));
            assert!(c.get(id).is_some(), "id {id} must be cacheable");
        }
        // Degenerate: zero capacity still yields one (empty) shard.
        assert_eq!(StripedCache::new(CachePolicy::Lru, 0, 8).n_shards(), 1);
    }
}
