//! Minimizer extraction and indexing.
//!
//! During compression, SAGe (like Spring/NanoSpring) finds each read's
//! matching position by mapping it to the consensus. We use the
//! standard minimizer scheme: the smallest (by an invertible hash)
//! k-mer in every w-long window is sampled, giving a sparse set of
//! anchors that still guarantees windows of agreement are found.

use sage_genomics::Base;
use std::collections::HashMap;

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
    assert!((4..=31).contains(&k), "k must be in 4..=31");
    assert!(w >= 1, "window must be at least 1");
    if seq.len() < k {
        return Vec::new();
    }
    let mask = (1u64 << (2 * k)) - 1;
    let n_kmers = seq.len() - k + 1;
    let mut hashes = Vec::with_capacity(n_kmers);
    let mut kmer = 0u64;
    for (i, &b) in seq.iter().enumerate() {
        kmer = ((kmer << 2) | u64::from(b.code2())) & mask;
        if i + 1 >= k {
            hashes.push(splitmix64(kmer));
        }
    }
    // Monotone deque over windows of size w.
    let mut out: Vec<Minimizer> = Vec::with_capacity(n_kmers / w * 2 + 2);
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
    map: HashMap<u64, Vec<u32>>,
    max_occ: usize,
    /// Sequence length already indexed.
    indexed_len: usize,
}

impl MinimizerIndex {
    /// Creates an empty index.
    pub fn new(k: usize, w: usize) -> MinimizerIndex {
        MinimizerIndex {
            k,
            w,
            map: HashMap::new(),
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

    /// k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Minimizer window.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Length of the sequence prefix already indexed.
    pub fn indexed_len(&self) -> usize {
        self.indexed_len
    }

    /// Indexes the yet-unindexed suffix of `seq` (which must extend the
    /// previously indexed sequence).
    pub fn extend(&mut self, seq: &[Base]) {
        assert!(
            seq.len() >= self.indexed_len,
            "sequence shrank under the index"
        );
        if seq.len() < self.k {
            return;
        }
        // Re-scan a little before the boundary so window decisions near
        // the old end are recomputed; only record new positions.
        let scan_from = self.indexed_len.saturating_sub(self.k + self.w);
        let new_from = self.indexed_len.saturating_sub(self.k - 1);
        for m in minimizers(&seq[scan_from..], self.k, self.w) {
            let pos = m.pos as usize + scan_from;
            if pos < new_from {
                continue;
            }
            let list = self.map.entry(m.hash).or_default();
            if list.len() < self.max_occ && list.last().is_none_or(|&p| (p as usize) < pos) {
                list.push(pos as u32);
            }
        }
        self.indexed_len = seq.len();
    }

    /// Looks up the consensus positions of a minimizer hash.
    pub fn lookup(&self, hash: u64) -> &[u32] {
        self.map.get(&hash).map_or(&[], |v| v.as_slice())
    }

    /// Number of distinct minimizer hashes.
    pub fn len(&self) -> usize {
        self.map.len()
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
        // Every hash found by the full build must be in the incremental
        // index with the same positions.
        for m in minimizers(&s, 15, 8) {
            let positions = inc.lookup(m.hash);
            assert!(
                positions.contains(&m.pos),
                "position {} of hash {:x} missing after incremental build",
                m.pos,
                m.hash
            );
        }
        assert_eq!(full.indexed_len(), inc.indexed_len());
    }

    #[test]
    fn lookup_unknown_hash_is_empty() {
        let idx = MinimizerIndex::new(15, 8);
        assert!(idx.lookup(12345).is_empty());
        assert!(idx.is_empty());
    }
}
