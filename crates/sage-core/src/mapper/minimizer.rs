//! Minimizer extraction and indexing.
//!
//! During compression, SAGe (like Spring/NanoSpring) finds each read's
//! matching position by mapping it to the consensus. We use the
//! standard minimizer scheme: the smallest (by an invertible hash)
//! k-mer in every w-long window is sampled, giving a sparse set of
//! anchors that still guarantees windows of agreement are found.
//!
//! The tie rule: when several k-mers of a window share the smallest
//! hash, the **rightmost** is the window's minimizer. Every consumer
//! (the read-overlap index, the consensus index, the mapper's anchors)
//! sees positions chosen by that rule, so it is part of what the
//! encoder stores; [`minimizers_into`] documents how the one-pass
//! sampler keeps it. The sampler holds nothing between calls — callers
//! that sample many sequences pass their own output buffer — and the
//! index maps keyed by these hashes do not run them through SipHash a
//! second time (`PremixedMap`): [`splitmix64`] has already mixed every
//! bit.

use sage_genomics::Base;
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{BuildHasher, Hasher};

/// Default k-mer length.
pub const DEFAULT_K: usize = 15;
/// Default minimizer window.
pub const DEFAULT_W: usize = 8;

/// 64-bit finalizer (splitmix64) used as an invertible k-mer hash so
/// minimizer sampling is not biased by the DNA alphabet encoding.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `BuildHasher` for maps keyed by a minimizer hash. The key is a
/// [`splitmix64`] output, every bit of it already mixed, so hashing it
/// again with SipHash buys nothing for honest input. [`splitmix64`] is
/// invertible, though, and reads come from outside: to keep crafted
/// k-mers from piling into one bucket, the key is multiplied by an odd
/// number drawn per map (multiply-shift hashing) — a multiplication, not
/// a second hash.
#[derive(Debug, Clone)]
pub(crate) struct PremixedState {
    multiplier: u64,
}

impl Default for PremixedState {
    fn default() -> PremixedState {
        PremixedState {
            multiplier: RandomState::new().hash_one(0u8) | 1,
        }
    }
}

impl BuildHasher for PremixedState {
    type Hasher = PremixedHasher;

    fn build_hasher(&self) -> PremixedHasher {
        PremixedHasher {
            multiplier: self.multiplier,
            hash: 0,
        }
    }
}

/// See [`PremixedState`].
#[derive(Debug)]
pub(crate) struct PremixedHasher {
    multiplier: u64,
    hash: u64,
}

impl Hasher for PremixedHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("keys are minimizer hashes (u64)");
    }

    fn write_u64(&mut self, key: u64) {
        // The product's high half is the well-distributed one; the map
        // takes its bucket from the low bits.
        let product = key.wrapping_mul(self.multiplier);
        self.hash = product ^ (product >> 32);
    }
}

/// A map keyed by minimizer hash. Only ever probed by key: its layout,
/// which differs from map to map, cannot reach the encoder's output.
pub(crate) type PremixedMap<V> = HashMap<u64, V, PremixedState>;

/// A sampled minimizer: hash plus position of the k-mer's first base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Minimizer {
    /// Hash of the k-mer.
    pub hash: u64,
    /// 0-based position of the k-mer in the sequence.
    pub pos: u32,
}

/// Extracts the minimizers of `seq` (`N` is treated as `A`, consistent
/// with SAGe's 2-bit masking).
///
/// Returns an empty vector when `seq.len() < k`.
pub fn minimizers(seq: &[Base], k: usize, w: usize) -> Vec<Minimizer> {
    let mut out = Vec::new();
    minimizers_into(seq, k, w, &mut out);
    out
}

/// Appends the minimizers of `seq` to `out` — [`minimizers`] for callers
/// that sample many sequences and keep one buffer.
///
/// One pass: the k-mer and its hash roll forward a base at a time, and
/// the last `w` hashes sit in a ring. The window minimum is carried
/// from one window to the next and the ring is rescanned only when the
/// minimum has left the window. Among equal hashes the **rightmost**
/// wins, in the carried comparison (`<=`) and in the rescan alike.
/// A window is emitted once it is `w` k-mers wide — or, for a sequence
/// of fewer than `w` k-mers, once, at its end — and a minimizer that
/// stays the minimum of consecutive windows is emitted once.
pub fn minimizers_into(seq: &[Base], k: usize, w: usize, out: &mut Vec<Minimizer>) {
    assert!((4..=31).contains(&k), "k must be in 4..=31");
    assert!(w >= 1, "window must be at least 1");
    if seq.len() < k {
        return;
    }
    let mask = (1u64 << (2 * k)) - 1;
    let n_kmers = seq.len() - k + 1;
    out.reserve(n_kmers / w * 2 + 2);
    let first = out.len();
    // Windows are at most 64 k-mers wide almost everywhere (the default
    // is 8): keep the ring off the heap then.
    let mut stack_ring = [0u64; 64];
    let mut heap_ring = Vec::new();
    let ring: &mut [u64] = if w <= stack_ring.len() {
        &mut stack_ring[..w]
    } else {
        heap_ring.resize(w, 0);
        &mut heap_ring
    };
    let mut kmer = 0u64;
    for &b in &seq[..k - 1] {
        kmer = (kmer << 2) | u64::from(b.code2());
    }
    // The window minimum: k-mer index and hash.
    let (mut min_i, mut min_hash) = (0usize, u64::MAX);
    // `slot == i % w`, without the division.
    let mut slot = 0usize;
    for (i, &b) in seq[k - 1..].iter().enumerate() {
        kmer = ((kmer << 2) | u64::from(b.code2())) & mask;
        let hash = splitmix64(kmer);
        ring[slot] = hash;
        slot = if slot + 1 == w { 0 } else { slot + 1 };
        if hash <= min_hash {
            (min_i, min_hash) = (i, hash);
        } else if min_i + w <= i {
            // The minimum fell out of [i + 1 - w, i]: rescan it, oldest
            // first, so that of equal hashes the newest is kept.
            min_hash = u64::MAX;
            let mut s = slot;
            for j in i + 1 - w..=i {
                if ring[s] <= min_hash {
                    (min_i, min_hash) = (j, ring[s]);
                }
                s = if s + 1 == w { 0 } else { s + 1 };
            }
        }
        if (i + 1 >= w || i + 1 == n_kmers)
            && out[first..].last().is_none_or(|m| m.pos != min_i as u32)
        {
            out.push(Minimizer {
                hash: min_hash,
                pos: min_i as u32,
            });
        }
    }
}

/// A hash → positions index over the consensus, supporting incremental
/// extension (used by the de-novo consensus builder).
#[derive(Debug, Clone)]
pub struct MinimizerIndex {
    k: usize,
    w: usize,
    /// Positions per minimizer hash; lists longer than `max_occ` are
    /// frozen (overly repetitive seeds are useless for anchoring).
    /// Only ever probed by key, never iterated, so the map's hash order
    /// cannot reach the encoder's output.
    map: PremixedMap<Positions>,
    max_occ: usize,
    /// Sequence length already indexed.
    indexed_len: usize,
}

/// The ascending positions of one hash. Nearly every hash of a
/// consensus occurs once, and that one position lives in the map entry
/// itself; only a repeated hash gets a heap list.
#[derive(Debug, Clone)]
enum Positions {
    One(u32),
    Many(Vec<u32>),
}

impl Positions {
    fn as_slice(&self) -> &[u32] {
        match self {
            Positions::One(p) => std::slice::from_ref(p),
            Positions::Many(list) => list,
        }
    }
}

impl MinimizerIndex {
    /// Creates an empty index.
    pub fn new(k: usize, w: usize) -> MinimizerIndex {
        MinimizerIndex {
            k,
            w,
            map: PremixedMap::default(),
            max_occ: 128,
            indexed_len: 0,
        }
    }

    /// Builds an index over a full sequence.
    pub fn build(seq: &[Base], k: usize, w: usize) -> MinimizerIndex {
        let mut idx = MinimizerIndex::new(k, w);
        idx.extend(seq);
        idx
    }

    /// Indexes the yet-unindexed suffix of `seq` (which must extend the
    /// previously indexed sequence).
    ///
    /// The rule: `seq` is sampled again from `k + w` bases before the
    /// old end (`indexed_len`), so that the windows spanning the junction
    /// are decided on the whole sequence, and of what that sampling
    /// selects only positions `>= indexed_len - k + 1` are recorded —
    /// k-mers that span the junction or lie past it. An old k-mer that
    /// only a window across the junction selects is *not* recorded, so
    /// an index grown piece by piece can lack hashes (and positions)
    /// that [`build`](Self::build) over the finished sequence holds. A
    /// `seq` shorter than `k` is not indexed, and leaves `indexed_len`
    /// where it was.
    pub fn extend(&mut self, seq: &[Base]) {
        assert!(
            seq.len() >= self.indexed_len,
            "sequence shrank under the index"
        );
        if seq.len() < self.k {
            return;
        }
        let scan_from = self.indexed_len.saturating_sub(self.k + self.w);
        let new_from = self.indexed_len.saturating_sub(self.k - 1);
        for m in minimizers(&seq[scan_from..], self.k, self.w) {
            let pos = m.pos as usize + scan_from;
            if pos >= new_from {
                self.record(m.hash, pos as u32);
            }
        }
        self.indexed_len = seq.len();
    }

    /// [`extend`](Self::extend) for a `seq` whose appended part
    /// `seq[from..]` the caller has sampled already: `appended_mins` are
    /// its minimizers, positions relative to `from`. Records exactly
    /// what `extend` records; only the windows that hold a k-mer
    /// starting before `from` are sampled again. Falls back to `extend`
    /// unless `from` is the indexed length and the appended part has at
    /// least `w` k-mers (its windows are then windows of `seq`).
    pub(crate) fn extend_appended(
        &mut self,
        seq: &[Base],
        from: usize,
        appended_mins: &[Minimizer],
    ) {
        let (k, w) = (self.k, self.w);
        if from != self.indexed_len || seq.len() < from + k + w - 1 {
            return self.extend(seq);
        }
        // A window of `seq` either ends at a k-mer before `from + w - 1`
        // and holds a k-mer starting before `from`, or lies wholly in
        // the appended part, where `appended_mins` has its minimizer.
        // The first kind is sampled from where `extend` starts. A
        // minimizer of both kinds of window is recorded once:
        // `record` keeps a list's positions ascending.
        if from > 0 {
            let scan_from = from.saturating_sub(k + w);
            let new_from = from.saturating_sub(k - 1);
            let mut junction = Vec::new();
            minimizers_into(&seq[scan_from..from + w + k - 2], k, w, &mut junction);
            for m in junction {
                let pos = m.pos as usize + scan_from;
                if pos >= new_from {
                    self.record(m.hash, pos as u32);
                }
            }
        }
        for m in appended_mins {
            self.record(m.hash, (m.pos as usize + from) as u32);
        }
        self.indexed_len = seq.len();
    }

    /// Adds `pos` to `hash`'s list, unless the list is full or already
    /// holds `pos` or a later position.
    fn record(&mut self, hash: u64, pos: u32) {
        match self.map.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(Positions::One(pos));
            }
            Entry::Occupied(mut slot) => match slot.get_mut() {
                Positions::One(first) if *first < pos => {
                    *slot.get_mut() = Positions::Many(vec![*first, pos]);
                }
                Positions::Many(list)
                    if list.len() < self.max_occ && list.last().is_some_and(|&p| p < pos) =>
                {
                    list.push(pos);
                }
                _ => {}
            },
        }
    }

    /// Looks up the consensus positions of a minimizer hash.
    pub fn lookup(&self, hash: u64) -> &[u32] {
        self.map.get(&hash).map_or(&[], Positions::as_slice)
    }

    /// `true` when nothing has been indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::DnaSeq;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn random_seq(len: usize, seed: u64) -> DnaSeq {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = splitmix64(x);
                Base::ACGT[(x % 4) as usize]
            })
            .collect()
    }

    /// The sampler this module had before the rolling one: every hash
    /// in a vector, a monotone deque over it. Kept as the oracle.
    fn minimizers_by_deque(seq: &[Base], k: usize, w: usize) -> Vec<Minimizer> {
        if seq.len() < k {
            return Vec::new();
        }
        let mask = (1u64 << (2 * k)) - 1;
        let mut hashes = Vec::new();
        let mut kmer = 0u64;
        for (i, &b) in seq.iter().enumerate() {
            kmer = ((kmer << 2) | u64::from(b.code2())) & mask;
            if i + 1 >= k {
                hashes.push(splitmix64(kmer));
            }
        }
        let mut out: Vec<Minimizer> = Vec::new();
        let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for i in 0..hashes.len() {
            while deque.back().is_some_and(|&j| hashes[j] >= hashes[i]) {
                deque.pop_back();
            }
            deque.push_back(i);
            let win_start = (i + 1).saturating_sub(w);
            while deque.front().is_some_and(|&j| j < win_start) {
                deque.pop_front();
            }
            if i + 1 >= w || i + 1 == hashes.len() {
                let &j = deque.front().expect("window never empty");
                if out.last().is_none_or(|m| m.pos != j as u32) {
                    out.push(Minimizer {
                        hash: hashes[j],
                        pos: j as u32,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn rolling_sampler_equals_the_deque_sampler() {
        // Every (k, w), lengths around each boundary (`len < k`,
        // `len < k + w`) and up to 400, on random sequences and on
        // low-complexity ones, where k-mers repeat inside a window and
        // the rightmost-smallest rule decides.
        let mut x = 0x5a6e_u64;
        let mut next = |bound: usize| {
            x = splitmix64(x);
            (x % bound as u64) as usize
        };
        let mut buf = vec![Minimizer { hash: 7, pos: 7 }];
        for k in 4..=31usize {
            for w in 1..=40usize {
                let mut lens = vec![0, k - 1, k, k + 1, k + w - 2, k + w - 1, k + w, 399];
                lens.extend((0..4).map(|_| next(400)));
                for len in lens {
                    let unit = 1 + next(4);
                    let seqs: [Vec<Base>; 4] = [
                        (0..len).map(|_| Base::ACGT[next(4)]).collect(),
                        vec![Base::ACGT[next(4)]; len],
                        // Short tandem repeat of period 1..=4.
                        (0..len).map(|i| Base::ACGT[i % unit]).collect(),
                        // Two letters: repeated k-mers at small k.
                        (0..len).map(|_| Base::ACGT[next(2)]).collect(),
                    ];
                    for seq in &seqs {
                        let want = minimizers_by_deque(seq, k, w);
                        assert_eq!(minimizers(seq, k, w), want, "k {k} w {w} len {len}");
                        // Appending leaves what the buffer held alone,
                        // and de-duplicates against this call's own
                        // output only.
                        buf.truncate(1);
                        minimizers_into(seq, k, w, &mut buf);
                        assert_eq!(buf[0], Minimizer { hash: 7, pos: 7 });
                        assert_eq!(buf[1..], want[..], "k {k} w {w} len {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn short_sequence_yields_nothing() {
        let s = seq("ACGT");
        assert!(minimizers(&s, 15, 8).is_empty());
    }

    #[test]
    fn minimizers_are_deterministic_and_sorted() {
        let s = random_seq(2_000, 7);
        let a = minimizers(&s, 15, 8);
        let b = minimizers(&s, 15, 8);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].pos < w[1].pos));
        assert!(!a.is_empty());
    }

    #[test]
    fn density_is_roughly_two_over_w_plus_one() {
        let s = random_seq(50_000, 11);
        let mins = minimizers(&s, 15, 8);
        let density = mins.len() as f64 / (s.len() - 14) as f64;
        assert!(
            density > 0.15 && density < 0.35,
            "density {density} outside expected range"
        );
    }

    #[test]
    fn identical_windows_share_minimizers() {
        // A sequence containing a repeated 100-mer must produce the same
        // minimizer hashes inside both copies.
        let core = random_seq(100, 3);
        let mut s = random_seq(500, 4);
        let start1 = s.len();
        s.extend_from_seq(&core);
        s.extend_from_seq(&random_seq(300, 5));
        let start2 = s.len();
        s.extend_from_seq(&core);
        let mins = minimizers(&s, 15, 8);
        let h1: Vec<u64> = mins
            .iter()
            .filter(|m| (m.pos as usize) >= start1 + 20 && (m.pos as usize) < start1 + 60)
            .map(|m| m.hash)
            .collect();
        let h2: Vec<u64> = mins
            .iter()
            .filter(|m| (m.pos as usize) >= start2 + 20 && (m.pos as usize) < start2 + 60)
            .map(|m| m.hash)
            .collect();
        assert!(!h1.is_empty());
        assert_eq!(h1, h2);
    }

    #[test]
    fn incremental_extension_matches_full_build() {
        let s = random_seq(5_000, 21);
        let full = MinimizerIndex::build(&s, 15, 8);
        let mut inc = MinimizerIndex::new(15, 8);
        inc.extend(&s.as_slice()[..2_000]);
        inc.extend(&s.as_slice()[..3_500]);
        inc.extend(&s);
        // On this sequence and these two junctions every hash of the
        // full build is in the incremental index with the same
        // positions. That does not hold in general: `extend`'s doc
        // states which k-mers near a junction a grown index can lack,
        // and `extension_lacks_only_junction_kmers_of_the_full_build`
        // checks that rule on many sequences.
        for m in minimizers(&s, 15, 8) {
            let positions = inc.lookup(m.hash);
            assert!(
                positions.contains(&m.pos),
                "position {} of hash {:x} missing after incremental build",
                m.pos,
                m.hash
            );
        }
        assert_eq!(full.indexed_len, inc.indexed_len);
    }

    /// Every `(hash, position)` pair an index holds.
    fn pairs(idx: &MinimizerIndex) -> std::collections::BTreeSet<(u64, u32)> {
        idx.map
            .iter()
            .flat_map(|(&h, ps)| ps.as_slice().iter().map(move |&p| (h, p)))
            .collect()
    }

    #[test]
    fn extension_lacks_only_junction_kmers_of_the_full_build() {
        // A sequence grown by `extend` at 1–4 cuts holds a subset of
        // what `build` over the whole sequence holds, and every pair it
        // lacks is an old k-mer that only a window across a junction
        // `J` selects: it starts in `[J - k - w + 2, J - k]`.
        let (k, w) = (15, 8);
        let mut x = 0x6a11_u64;
        let mut next = |bound: usize| {
            x = splitmix64(x);
            (x % bound as u64) as usize
        };
        for trial in 0..400 {
            let s = random_seq(200 + next(4_001), splitmix64(trial));
            // Cuts at least `k + w - 1` apart, and from either end.
            let mut cuts = Vec::new();
            let mut at = 0;
            for _ in 0..1 + next(4) {
                let room = s.len().saturating_sub(at + 2 * (k + w - 1));
                if room == 0 {
                    break;
                }
                at += k + w - 1 + next(room.min(2_000));
                cuts.push(at);
            }
            let mut grown = MinimizerIndex::new(k, w);
            for &cut in &cuts {
                grown.extend(&s.as_slice()[..cut]);
            }
            grown.extend(&s);
            let (grown, full) = (pairs(&grown), pairs(&MinimizerIndex::build(&s, k, w)));
            assert!(grown.is_subset(&full), "trial {trial}, cuts {cuts:?}");
            for &(hash, pos) in full.difference(&grown) {
                let pos = pos as usize;
                assert!(
                    cuts.iter().any(|&j| pos + k + w >= j + 2 && pos + k <= j),
                    "trial {trial}, cuts {cuts:?}: hash {hash:x} at {pos} lies near no junction"
                );
            }
        }
    }

    #[test]
    fn extending_with_the_appended_list_equals_extend() {
        // A prefix P, then reads appended one by one, each with its own
        // list: every k-mer hash of the grown sequence must look up the
        // same positions as in an index grown by `extend` alone.
        let (k, w) = (15, 8);
        let mut x = 0x0e11_u64;
        let mut next = |bound: usize| {
            x = splitmix64(x);
            (x % bound as u64) as usize
        };
        let unit: Vec<Base> = (0..23).map(|i| Base::ACGT[(i * 7 + i / 3) % 4]).collect();
        let mut past_max_occ = false;
        for trial in 0..300 {
            let p_len = [0, 5, k - 1, k, k + w - 1, k + w, k + w + 1, 40, 300][trial % 9];
            let mut seq: Vec<Base> = match trial % 4 {
                // A tandem repeat: its hashes fill their lists to
                // `max_occ` and stop there.
                3 => unit.iter().copied().cycle().take(p_len * 12).collect(),
                _ => (0..p_len).map(|_| Base::ACGT[next(4)]).collect(),
            };
            let mut by_extend = MinimizerIndex::new(k, w);
            let mut by_list = MinimizerIndex::new(k, w);
            by_extend.extend(&seq);
            by_list.extend(&seq);
            for _ in 0..6 {
                let r_len = [1, k - 1, k, k + w - 2, k + w - 1, k + w, 100, 150][next(8)];
                let mut read: Vec<Base> = (0..r_len)
                    .map(|_| match next(10) {
                        // A masked `N` is an `A`; runs of them too.
                        0 => Base::N,
                        _ => Base::ACGT[next(4)],
                    })
                    .collect();
                if next(3) == 0 {
                    let at = next(r_len);
                    read[at..].fill(Base::N);
                }
                if trial % 4 == 3 {
                    let at = next(r_len);
                    for (b, &u) in read[at..].iter_mut().zip(unit.iter().cycle()) {
                        *b = u;
                    }
                }
                let read = crate::mapper::mask_n(&read);
                let mut read_mins = Vec::new();
                minimizers_into(&read, k, w, &mut read_mins);
                let from = seq.len();
                seq.extend_from_slice(&read);
                by_extend.extend(&seq);
                by_list.extend_appended(&seq, from, &read_mins);
                assert_eq!(by_list.map.len(), by_extend.map.len(), "trial {trial}");
                assert_eq!(by_list.indexed_len, by_extend.indexed_len);
                let mut kmer = 0u64;
                for (i, &b) in seq.iter().enumerate() {
                    kmer = ((kmer << 2) | u64::from(b.code2())) & ((1 << (2 * k)) - 1);
                    if i + 1 >= k {
                        let hash = splitmix64(kmer);
                        assert_eq!(
                            by_list.lookup(hash),
                            by_extend.lookup(hash),
                            "trial {trial}"
                        );
                        past_max_occ |= by_extend.lookup(hash).len() == by_extend.max_occ;
                    }
                }
            }
        }
        assert!(past_max_occ);
    }

    #[test]
    fn lookup_unknown_hash_is_empty() {
        let idx = MinimizerIndex::new(15, 8);
        assert!(idx.lookup(12345).is_empty());
        assert!(idx.is_empty());
    }
}
