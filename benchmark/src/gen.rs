//! The benchmark's own generators. The program under test only ever
//! sees the ops generated here; the same seed gives the same stream.

use std::ops::Range;

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, and good enough
/// to pick slots.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` must be non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(θ) over `n` slots by inverse CDF. Rank `r` (0 = hottest) has
/// weight `1 / (r + 1)^θ`; ranks map to slots through a seeded
/// shuffle, so the hot slots are scattered over the dataset instead of
/// all sitting in its first chunk.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    slot_of_rank: Vec<u64>,
}

impl Zipf {
    pub fn new(n: u64, theta: f64, rng: &mut SplitMix64) -> Zipf {
        assert!(n > 0, "Zipf over no slots");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut slot_of_rank: Vec<u64> = (0..n).collect();
        for i in (1..n as usize).rev() {
            slot_of_rank.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Zipf { cdf, slot_of_rank }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u);
        self.slot_of_rank[rank.min(self.slot_of_rank.len() - 1)]
    }
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Scan the whole store with an always-true predicate.
    Scan,
    /// Get reads `range` (store-global ids).
    Get(Range<u64>),
    /// Append the `n` reads that follow read id `first` in the source
    /// (which wraps); the store must answer `first`.
    Append { first: u64, n: usize },
}

/// How a workload's client picks its ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Whole-store scans.
    Scan,
    /// `span`-read gets over Zipf(θ)-ranked aligned slots.
    Zipf { span: u64, theta: f64 },
    /// `span`-read gets over uniformly chosen aligned slots.
    Uniform { span: u64 },
    /// Cycles of one `batch`-read append, then `gets` gets of `span`
    /// reads: the first reads back the start of the range just
    /// appended, the rest are uniform over the aligned slots of the
    /// most recent `window` committed reads.
    Ingest {
        batch: usize,
        gets: usize,
        span: u64,
        window: u64,
    },
}

/// A workload's op stream: deterministic in `(pattern, stored, seed)`.
#[derive(Debug, Clone)]
pub struct OpStream {
    pattern: Pattern,
    rng: SplitMix64,
    zipf: Option<Zipf>,
    /// Reads committed so far (grows with generated appends; the
    /// client waits for each append before the gets that follow it).
    committed: u64,
}

impl OpStream {
    /// A stream over a store that holds `stored` reads.
    pub fn new(pattern: Pattern, stored: u64, seed: u64) -> OpStream {
        let mut rng = SplitMix64::new(seed);
        let zipf = match pattern {
            Pattern::Zipf { span, theta } => Some(Zipf::new(stored / span, theta, &mut rng)),
            _ => None,
        };
        if let Pattern::Ingest { window, .. } = pattern {
            assert!(stored >= window, "the store starts at least one window big");
        }
        OpStream {
            pattern,
            rng,
            zipf,
            committed: stored,
        }
    }

    /// The next `units` units of work: scan passes, gets, or ingest
    /// cycles, by pattern.
    pub fn next_ops(&mut self, units: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        for _ in 0..units {
            match self.pattern {
                Pattern::Scan => ops.push(Op::Scan),
                Pattern::Zipf { span, .. } => {
                    let zipf = self.zipf.as_ref().expect("built with the stream");
                    let slot = zipf.sample(&mut self.rng);
                    ops.push(Op::Get(slot * span..(slot + 1) * span));
                }
                Pattern::Uniform { span } => {
                    let slot = self.rng.below(self.committed / span);
                    ops.push(Op::Get(slot * span..(slot + 1) * span));
                }
                Pattern::Ingest {
                    batch,
                    gets,
                    span,
                    window,
                } => {
                    let first = self.committed;
                    ops.push(Op::Append { first, n: batch });
                    self.committed += batch as u64;
                    ops.push(Op::Get(first..first + span));
                    let base = self.committed - window;
                    for _ in 1..gets {
                        let slot = self.rng.below(window / span);
                        ops.push(Op::Get(base + slot * span..base + (slot + 1) * span));
                    }
                }
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATTERNS: [Pattern; 4] = [
        Pattern::Scan,
        Pattern::Zipf {
            span: 32,
            theta: 0.9,
        },
        Pattern::Uniform { span: 4 },
        Pattern::Ingest {
            batch: 512,
            gets: 16,
            span: 32,
            window: 4096,
        },
    ];

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for pattern in PATTERNS {
            let ops = |seed| OpStream::new(pattern, 16_666, seed).next_ops(200);
            assert_eq!(ops(2026), ops(2026), "{pattern:?}");
            if pattern != Pattern::Scan {
                assert_ne!(ops(2026), ops(7919), "{pattern:?}");
            }
        }
        // Rounds continue one stream; they do not restart it.
        let mut s = OpStream::new(PATTERNS[2], 800, 1);
        assert_ne!(s.next_ops(50), s.next_ops(50));
    }

    #[test]
    fn slots_never_straddle_a_chunk_or_the_end_of_the_store() {
        let (stored, chunk) = (16_666u64, 256u64);
        for pattern in [PATTERNS[1], Pattern::Uniform { span: 32 }] {
            for op in OpStream::new(pattern, stored, 5).next_ops(5_000) {
                let Op::Get(r) = op else { panic!("gets only") };
                assert_eq!(r.end - r.start, 32);
                assert_eq!(r.start % 32, 0);
                assert_eq!(r.start / chunk, (r.end - 1) / chunk, "{r:?} straddles");
                assert!(r.end <= stored);
            }
        }
    }

    #[test]
    fn zipf_is_skewed_and_covers_only_valid_slots() {
        let mut rng = SplitMix64::new(3);
        let zipf = Zipf::new(100, 0.9, &mut rng);
        let mut counts = [0u32; 100];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        let coldest = *counts.iter().min().unwrap();
        assert!(hottest > 20 * coldest.max(1), "{hottest} vs {coldest}");
        assert!(coldest > 0, "every slot is reachable");
    }

    #[test]
    fn ingest_cycles_read_their_own_writes_inside_a_sliding_window() {
        let (batch, window) = (512u64, 4096u64);
        let mut s = OpStream::new(PATTERNS[3], window, 9);
        let mut committed = window;
        for cycle in s.next_ops(30).chunks(17) {
            assert_eq!(
                cycle[0],
                Op::Append {
                    first: committed,
                    n: batch as usize
                }
            );
            assert_eq!(cycle[1], Op::Get(committed..committed + 32));
            committed += batch;
            for op in &cycle[2..] {
                let Op::Get(r) = op else {
                    panic!("gets follow the append")
                };
                assert!(r.start >= committed - window && r.end <= committed);
                assert_eq!(r.start % 32, 0);
            }
        }
    }
}
