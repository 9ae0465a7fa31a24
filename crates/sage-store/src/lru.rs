//! The decoded-chunk cache: least-recently-used eviction, striped over
//! N locks, with exported hit/miss statistics.
//!
//! Decoding a chunk costs a mapper-scale amount of CPU (and, in the
//! SSD timing mode, a device read); the engine keeps the most recently
//! used decoded chunks pinned in memory. Capacity is counted in
//! chunks: chunk population is fixed at encode time, so chunk count is
//! a faithful proxy for memory.
//!
//! LRU is the one eviction policy ([`LruCache`]); [`StripedCache`]
//! spreads it over per-shard locks. A scan-resistant policy would keep
//! a skewed get stream's hot set through one-shot scans, but no served
//! workload mixes the two, so none is carried.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The cache's eviction policy. LRU is the only one; the enum stays
/// because [`StripedCache::new`] takes it, and the `benchmark/`
/// package calls `StripedCache::new(CachePolicy::default(), capacity, 1)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Plain least-recently-used.
    #[default]
    Lru,
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

/// A least-recently-used cache of `Arc<T>` chunks keyed by chunk id.
///
/// Recency is tracked with a monotone tick per entry; eviction scans
/// for the minimum. With the few dozen to few hundred resident chunks
/// a store realistically pins, the O(capacity) scan is cheaper than
/// maintaining an intrusive list — and it keeps the structure
/// trivially correct under the engine's lock.
#[derive(Debug)]
pub struct LruCache<T> {
    capacity: usize,
    tick: u64,
    entries: HashMap<u32, (u64, Arc<T>)>,
}

impl<T> LruCache<T> {
    /// A cache holding at most `capacity` decoded chunks.
    pub fn new(capacity: usize) -> LruCache<T> {
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
    pub fn get(&mut self, chunk_id: u32) -> Option<Arc<T>> {
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
    pub fn insert(&mut self, chunk_id: u32, reads: Arc<T>) -> u64 {
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

/// One shard of a [`StripedCache`]: an [`LruCache`] behind its own
/// lock, plus lock-occupancy accounting.
#[derive(Debug)]
struct CacheShard<T> {
    cache: Mutex<LruCache<T>>,
    /// Nanoseconds the shard lock was *held* (critical-section time).
    busy_ns: AtomicU64,
    /// Times the shard lock was taken.
    acquisitions: AtomicU64,
}

impl<T> CacheShard<T> {
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
    fn with<R>(&self, f: impl FnOnce(&mut LruCache<T>) -> R) -> R {
        let mut guard = self.cache.lock().expect("cache shard poisoned");
        let held = Instant::now();
        let out = f(&mut guard);
        drop(guard);
        self.busy_ns
            .fetch_add(held.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Resident chunks, read outside the lock accounting so that
    /// observing the cache never changes its counters.
    fn len(&self) -> usize {
        self.cache.lock().expect("cache shard poisoned").len()
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
/// its own lock and its own [`LruCache`].
///
/// The single global cache mutex used to serialize *every* request on
/// the serving hot path — cache hits included. Striping spreads that
/// critical section over N independent locks with LRU eviction per
/// shard: with `n_shards == 1` the striped cache is byte-for-byte the
/// old single-lock cache (one LRU, same capacity, same probe order),
/// which is what keeps the default configuration's virtual timeline
/// bit-identical.
///
/// Capacity is split as evenly as chunk counts allow (the first
/// `capacity % N` shards get one extra slot), so the configured total
/// is always exactly honored.
#[derive(Debug)]
pub struct StripedCache<T> {
    shards: Vec<CacheShard<T>>,
    capacity: usize,
}

impl<T> StripedCache<T> {
    /// A striped cache of `capacity` total chunks over `n_shards`
    /// LRU shards (`policy` has the one value, [`CachePolicy::Lru`]).
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
    pub fn new(_policy: CachePolicy, capacity: usize, n_shards: usize) -> StripedCache<T> {
        assert!(n_shards > 0, "a striped cache needs at least one shard");
        let n_shards = n_shards.min(capacity).max(1);
        let shards = (0..n_shards)
            .map(|i| {
                let cap = capacity / n_shards + usize::from(i < capacity % n_shards);
                CacheShard {
                    cache: Mutex::new(LruCache::new(cap)),
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
        self.shards.iter().map(CacheShard::len).sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, chunk_id: u32) -> &CacheShard<T> {
        &self.shards[chunk_id as usize % self.shards.len()]
    }

    /// Looks up a chunk in its shard, refreshing recency on hit.
    pub fn get(&self, chunk_id: u32) -> Option<Arc<T>> {
        self.shard(chunk_id).with(|c| c.get(chunk_id))
    }

    /// Inserts a decoded chunk into its shard, returning how many
    /// entries that shard evicted to make room.
    pub fn insert(&self, chunk_id: u32, reads: Arc<T>) -> u64 {
        self.shard(chunk_id).with(|c| c.insert(chunk_id, reads))
    }

    /// Probes a batch of chunk ids, taking each touched shard's lock
    /// **once** (in first-touch order) instead of once per id. Within
    /// a shard, ids are probed in their `ids` order, so a one-shard
    /// cache probes in exactly the order the old global-lock batch
    /// probe did.
    pub fn get_batch(&self, ids: &[u32]) -> Vec<Option<Arc<T>>> {
        // Single-id probes — the dominant warm-get shape — skip the
        // grouping machinery entirely.
        if let [id] = ids {
            return vec![self.get(*id)];
        }
        let n = self.shards.len();
        let mut out: Vec<Option<Arc<T>>> = vec![None; ids.len()];
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
            snap.len += s.len();
            let acq = s.acquisitions.load(Ordering::Relaxed);
            snap.lock_acquisitions += acq;
            snap.max_shard_acquisitions = snap.max_shard_acquisitions.max(acq);
            snap.shard_acquisitions.push(acq);
            let busy = s.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9;
            snap.lock_busy_seconds += busy;
            snap.max_shard_busy_seconds = snap.max_shard_busy_seconds.max(busy);
            snap.shard_busy_seconds.push(busy);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::ReadSet;

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
        // a bare LRU — same hits, same misses, same residency.
        let seq: Vec<(bool, u32)> = (0..64u32)
            .map(|i| ((i * 7 + 3) % 3 != 0, (i * 13 + 5) % 9))
            .collect();
        let striped = StripedCache::new(CachePolicy::Lru, 4, 1);
        let mut raw = LruCache::new(4);
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
        assert_eq!(striped_hits, raw_hits);
        assert_eq!(striped.len(), raw.len());
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
            .map(|s| s.cache.lock().unwrap().capacity())
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
        // 3 inserts + 5 gets = 8 accounted acquisitions; reading the
        // snapshot adds none.
        assert_eq!(snap.lock_acquisitions, 8);
        assert_eq!(snap.shard_acquisitions.len(), 4);
        assert_eq!(
            snap.shard_acquisitions.iter().sum::<u64>(),
            snap.lock_acquisitions
        );
        assert_eq!(
            snap.max_shard_acquisitions,
            snap.shard_acquisitions.iter().copied().max().unwrap()
        );
        // Shard 0 saw ids 0 and 4 (2 inserts + 3 gets) —
        // deterministically the busiest.
        assert_eq!(snap.shard_acquisitions, vec![5, 2, 1, 0]);
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
    fn reading_a_stripe_snapshot_changes_no_counter() {
        let c = StripedCache::new(CachePolicy::Lru, 8, 4);
        for id in 0..6u32 {
            c.insert(id, rs(1));
            let _ = c.get(id);
        }
        let first = c.stripe_snapshot();
        assert_eq!(c.len(), 6);
        let second = c.stripe_snapshot();
        assert_eq!(first.lock_acquisitions, second.lock_acquisitions);
        assert_eq!(first.shard_acquisitions, second.shard_acquisitions);
        assert_eq!(first.lock_busy_seconds, second.lock_busy_seconds);
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
        let c = StripedCache::new(CachePolicy::Lru, 6, 3);
        for id in [0u32, 1, 2, 3, 7] {
            c.insert(id, rs(1));
        }
        let probe = StripedCache::new(CachePolicy::Lru, 6, 3);
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
        let c = StripedCache::new(CachePolicy::Lru, 0, 4);
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
        assert_eq!(
            StripedCache::<ReadSet>::new(CachePolicy::Lru, 0, 8).n_shards(),
            1
        );
    }
}
