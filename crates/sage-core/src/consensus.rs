//! Consensus sequence construction (§2.2).
//!
//! A consensus sequence is an approximation of the sample's genome
//! against which every read is stored as mismatches. It can be either a
//! user-provided reference (RENANO-style) or a de-duplicated string
//! derived from the reads themselves (the Spring/NanoSpring/PgRC
//! approach, and SAGe's default).
//!
//! The de-novo builder is a greedy minimizer-overlap assembler, the
//! moral equivalent of NanoSpring's "approximate assembly": seed a
//! contig with an unplaced read, repeatedly extend it to the right with
//! reads whose prefixes overlap the contig tail (either orientation),
//! and skip reads already contained in the consensus built so far.
//! Contigs are concatenated into one consensus string. The result is
//! approximate — it inherits sequencing errors from the reads that
//! built it — which is fine: reads are stored as *mismatches against
//! it*, so any imperfection only costs a few extra mismatch records.
//!
//! What is kept, and for how long. The builder works from the
//! mapper's `SampledReads`: every read masked, in both orientations,
//! each orientation's minimizers sampled once. From those lists it builds
//! the read-overlap index (flat: one vector grouped by a bucket
//! directory, see `OverlapIndex`), tests containment against the
//! consensus index with both of a read's lists, and starts each contig's
//! tail from its seed read's own list — the tail of a one-read contig
//! *is* that read, and of its minimizers only those another minimizer
//! may share are probed. Only a contig that grew is sampled again, for
//! its tail and for the consensus index alike: a contig that is still
//! its seed read enters the index from the read's forward list
//! (`MinimizerIndex::extend_appended`), and only the windows across the
//! junction with the consensus before it are sampled. In a chunk of
//! low coverage, such as the 256 `rs1` reads an ingest appends, nearly
//! every contig is one read. The compressor passes the same
//! `SampledReads` on to the mapper, so no read is sampled twice in one
//! orientation during one encode.
//!
//! Ties. Every choice the builder makes is a function of the reads and
//! their order, never of a hash map's layout or a sort's stability by
//! luck: a probe of the overlap index lists a hash's hits in the order
//! the reads produced them (read by read, forward before reverse, by
//! position) and serves the first `MAX_OCC`; extension candidates are
//! tried by descending vote count and then by the full
//! `(read, rev, offset / 8)` key; the first candidate that verifies
//! wins.

use crate::mapper::minimizer::{minimizers_into, Minimizer, MinimizerIndex};
use crate::mapper::{mask_n, SampledRead, SampledReads};
use sage_genomics::{Base, DnaSeq, ReadSet};
use std::cmp::Reverse;

/// How the consensus is obtained.
#[derive(Debug, Clone, Default)]
pub enum ConsensusMode {
    /// Derive a pseudo-genome from the reads (reference-free).
    #[default]
    DeNovo,
    /// Use the given reference sequence.
    Reference(DnaSeq),
}

/// Configuration for consensus construction.
#[derive(Debug, Clone)]
pub struct ConsensusConfig {
    /// Minimizer k-mer length (must match the mapper's).
    pub k: usize,
    /// Minimizer window (must match the mapper's).
    pub w: usize,
    /// A read is considered *contained* in the consensus built so far
    /// (and thus skipped as a contig seed) when at least this fraction
    /// of its minimizers hit the consensus index.
    pub min_hit_fraction: f64,
    /// Minimum overlap (bases) to accept a right-extension candidate.
    pub min_overlap: usize,
    /// Minimum shared minimizers to trust an overlap.
    pub min_shared_minimizers: usize,
}

impl Default for ConsensusConfig {
    fn default() -> ConsensusConfig {
        ConsensusConfig {
            k: crate::mapper::minimizer::DEFAULT_K,
            w: crate::mapper::minimizer::DEFAULT_W,
            min_hit_fraction: 0.5,
            min_overlap: 24,
            min_shared_minimizers: 2,
        }
    }
}

/// A built consensus plus its minimizer index, ready for mapping.
#[derive(Debug)]
pub struct Consensus {
    /// The consensus bases (strictly `ACGT`).
    pub seq: DnaSeq,
    /// Minimizer index over [`Self::seq`].
    pub index: MinimizerIndex,
}

/// Builds the consensus according to `mode`.
pub fn build_consensus(reads: &ReadSet, mode: &ConsensusMode, cfg: &ConsensusConfig) -> Consensus {
    match mode {
        ConsensusMode::Reference(reference) => reference_consensus(reference, cfg),
        ConsensusMode::DeNovo => build_denovo(reads, cfg),
    }
}

/// The given reference, `N`-masked and indexed.
pub(crate) fn reference_consensus(reference: &DnaSeq, cfg: &ConsensusConfig) -> Consensus {
    let masked = DnaSeq::from_bases(mask_n(reference.as_slice()));
    let index = MinimizerIndex::build(masked.as_slice(), cfg.k, cfg.w);
    Consensus { seq: masked, index }
}

/// Greedy pseudo-genome assembly from the reads.
pub fn build_denovo(reads: &ReadSet, cfg: &ConsensusConfig) -> Consensus {
    denovo_consensus(&SampledReads::from_reads(reads.reads(), cfg.k, cfg.w), cfg)
}

/// [`build_denovo`] over reads that are already masked and sampled
/// (with `cfg.k` / `cfg.w`): the compressor samples once and hands the
/// same lists to the mapper afterwards.
pub(crate) fn denovo_consensus(reads: &SampledReads, cfg: &ConsensusConfig) -> Consensus {
    let mut asm = Assembler::new(reads, cfg);
    let mut consensus: Vec<Base> = Vec::new();
    let mut index = MinimizerIndex::new(cfg.k, cfg.w);
    // A contig in its two orientations, kept from seed to seed.
    let (mut contig, mut flipped) = (Vec::new(), Vec::new());
    for seed in 0..reads.len() {
        let read = reads.get(seed);
        if asm.used[seed] || read.fwd.len() < cfg.k {
            continue;
        }
        asm.used[seed] = true;
        // Contained in the consensus built so far? Skip (dedup).
        if is_contained(read, &index, cfg) {
            continue;
        }
        // Seed a contig and extend it greedily in both directions.
        contig.clear();
        contig.extend_from_slice(read.fwd);
        let grew_right = asm.extend_right(&mut contig, Some((seed, false)));
        // Leftward: extend the reverse complement rightwards, then flip
        // back (reuses the same tail machinery). A contig that is still
        // the seed read flips into the read's other orientation, whose
        // minimizers are at hand too.
        flipped.clear();
        flipped.extend(contig.iter().rev().map(|b| b.complement()));
        let grew_left = asm.extend_right(&mut flipped, (!grew_right).then_some((seed, true)));
        let from = consensus.len();
        if grew_right || grew_left {
            consensus.extend(flipped.iter().rev().map(|b| b.complement()));
            index.extend(&consensus);
        } else {
            // Still the seed read: the index takes the read's own list.
            consensus.extend_from_slice(read.fwd);
            index.extend_appended(&consensus, from, read.fwd_mins);
        }
    }
    Consensus {
        seq: DnaSeq::from_bases(consensus),
        index,
    }
}

/// Checks whether enough of a read's minimizers — in the better of its
/// two orientations — hit the consensus index (containment/duplication
/// test). A list is probed only until its count is decided either way.
fn is_contained(read: SampledRead<'_>, index: &MinimizerIndex, cfg: &ConsensusConfig) -> bool {
    if index.is_empty() || read.fwd_mins.is_empty() {
        return false;
    }
    let need = cfg.min_hit_fraction * read.fwd_mins.len() as f64;
    let reaches = |mins: &[Minimizer]| {
        let (mut hits, mut left) = (0usize, mins.len());
        for m in mins {
            if hits as f64 >= need || ((hits + left) as f64) < need {
                break;
            }
            left -= 1;
            hits += usize::from(!index.lookup(m.hash).is_empty());
        }
        hits as f64 >= need
    };
    reaches(read.fwd_mins) || reaches(read.rc_mins)
}

/// One entry of the read-overlap index: which read, which orientation,
/// and the minimizer's position in the oriented read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ReadHit {
    read: u32,
    rev: bool,
    pos: u32,
}

/// Minimizer hash → the reads (either orientation) that carry it, flat:
/// a vector of hashes and one of hits beside it, grouped by the hash's
/// top bits, and a directory from those bits to where their bucket
/// starts. Inside a bucket the entries keep generation order — read by
/// read, forward list then reverse list, each by position — so a hash's
/// hits come oldest first without a sort. Hashes are uniform, so a bucket holds
/// about one entry and a probe is one directory read plus a scan of a
/// few entries; building is a counting sort, linear in the number of
/// minimizers.
///
/// Most hashes of a chunk belong to one minimizer alone, and probing one
/// of those from its own read finds nothing but that read. `shared`
/// tells them apart without a probe.
struct OverlapIndex {
    /// `hits[i]` carries `hashes[i]`.
    hashes: Vec<u64>,
    hits: Vec<ReadHit>,
    /// `bucket_starts[b]..bucket_starts[b + 1]` are the entries whose
    /// hash starts with the bits `b`.
    bucket_starts: Vec<u32>,
    /// `hash >> shift` is the hash's bucket.
    shift: u32,
    /// Per minimizer, in generation order (`SampledReads::list_start`):
    /// whether another minimizer may carry its hash. `false` is certain;
    /// `true` is, but for the entries of a crowded bucket, which are
    /// not compared and count as shared.
    shared: Vec<bool>,
}

impl OverlapIndex {
    /// Hits served per hash (overly repetitive seeds say nothing about
    /// overlap).
    const MAX_OCC: usize = 64;
    /// Buckets past this many entries are not searched for equal hashes.
    const CROWDED: usize = 16;

    fn build(reads: &SampledReads) -> OverlapIndex {
        let n = reads.n_minimizers();
        assert!(u32::try_from(n).is_ok(), "more than 2^32 minimizers");
        let bits = n.next_power_of_two().trailing_zeros().max(1);
        let shift = 64 - bits;
        // Count per bucket, turn counts into starts, then place every
        // entry, in generation order, at its bucket's next free slot —
        // which keeps that order inside a bucket.
        let mut bucket_starts = vec![0u32; (1usize << bits) + 1];
        for mz in reads.minimizers() {
            bucket_starts[(mz.hash >> shift) as usize + 1] += 1;
        }
        for b in 1..bucket_starts.len() {
            bucket_starts[b] += bucket_starts[b - 1];
        }
        let mut next = bucket_starts.clone();
        let mut hashes = vec![0u64; n];
        let mut hits = vec![ReadHit::default(); n];
        // Where each minimizer, in generation order, was placed.
        let mut slot_of = Vec::with_capacity(n);
        for i in 0..reads.len() {
            let read = reads.get(i);
            for rev in [false, true] {
                for mz in read.oriented_mins(rev) {
                    let slot = &mut next[(mz.hash >> shift) as usize];
                    hashes[*slot as usize] = mz.hash;
                    hits[*slot as usize] = ReadHit {
                        read: i as u32,
                        rev,
                        pos: mz.pos,
                    };
                    slot_of.push(*slot);
                    *slot += 1;
                }
            }
        }
        // Equal hashes share a bucket. Neighbours are compared first —
        // in a bucket of two that settles it — and a bucket of three or
        // more has its other pairs compared, unless it is crowded.
        let mut dup = vec![false; n];
        for (slot, pair) in hashes.windows(2).enumerate() {
            let equal = pair[0] == pair[1];
            dup[slot] |= equal;
            dup[slot + 1] = equal;
        }
        for b in bucket_starts.windows(2) {
            let (lo, hi) = (b[0] as usize, b[1] as usize);
            if hi - lo > Self::CROWDED {
                dup[lo..hi].fill(true);
            } else if hi - lo > 2 {
                for i in lo + 2..hi {
                    for j in lo..i - 1 {
                        if hashes[i] == hashes[j] {
                            (dup[i], dup[j]) = (true, true);
                        }
                    }
                }
            }
        }
        OverlapIndex {
            hashes,
            hits,
            bucket_starts,
            shift,
            shared: slot_of.iter().map(|&slot| dup[slot as usize]).collect(),
        }
    }

    /// The first [`Self::MAX_OCC`] hits of `hash`, in generation order.
    fn lookup(&self, hash: u64) -> impl Iterator<Item = ReadHit> + '_ {
        let b = (hash >> self.shift) as usize;
        let bucket = self.bucket_starts[b] as usize..self.bucket_starts[b + 1] as usize;
        self.hashes[bucket.clone()]
            .iter()
            .zip(&self.hits[bucket])
            .filter(move |&(&h, _)| h == hash)
            .take(Self::MAX_OCC)
            .map(|(_, &hit)| hit)
    }
}

/// A vote's key: `(read, rev, offset / 8)`, where the offset is where
/// the oriented read would start in contig coordinates.
type Diagonal = (u32, bool, i64);

/// Contig extension over one read set: the overlap index, which reads
/// are placed, and buffers that live as long as the assembly so that
/// the ~2 extension attempts per read allocate nothing.
struct Assembler<'a> {
    reads: &'a SampledReads,
    cfg: &'a ConsensusConfig,
    overlaps: OverlapIndex,
    /// How much of a contig's end is searched for overlaps.
    tail_len: usize,
    /// Reads already placed (as a seed, an extension, or contained).
    used: Vec<bool>,
    /// Minimizers of the current contig's tail, positions relative to
    /// the tail's start.
    tail_mins: Vec<Minimizer>,
    votes: Vec<Diagonal>,
    candidates: Vec<(Reverse<usize>, Diagonal)>,
}

impl<'a> Assembler<'a> {
    fn new(reads: &'a SampledReads, cfg: &'a ConsensusConfig) -> Assembler<'a> {
        let tail_window = 2 * reads.max_len().min(30_000);
        Assembler {
            reads,
            cfg,
            overlaps: OverlapIndex::build(reads),
            tail_len: tail_window.max(4 * cfg.min_overlap),
            used: vec![false; reads.len()],
            tail_mins: Vec::new(),
            votes: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Extends `contig` to the right with unused reads whose (oriented)
    /// prefixes overlap its tail, until none does; returns whether it
    /// grew. `seed` is `(read, rev)` when `contig` is still that used
    /// read in that orientation: a tail that is the whole contig is then
    /// not sampled again, and of the read's own minimizers only those
    /// some other minimizer may share are probed — a hash of its own
    /// finds only the read itself.
    fn extend_right(&mut self, contig: &mut Vec<Base>, seed: Option<(usize, bool)>) -> bool {
        let mut tail_start = contig.len().saturating_sub(self.tail_len);
        match seed {
            Some((read, rev)) if tail_start == 0 => {
                let mins = self.reads.get(read).oriented_mins(rev);
                let at = self.reads.list_start(read, rev);
                let shared = &self.overlaps.shared[at..at + mins.len()];
                self.tail_mins.clear();
                self.tail_mins.extend(
                    mins.iter()
                        .zip(shared)
                        .filter(|&(_, &shared)| shared)
                        .map(|(mz, _)| *mz),
                );
            }
            _ => self.sample_tail(contig, tail_start),
        }
        let mut grew = false;
        while let Some((read, rev, overlap)) = self.best_extension(contig, tail_start) {
            self.used[read as usize] = true;
            let oriented = self.reads.get(read as usize).oriented(rev);
            if overlap >= oriented.len() {
                continue; // contained read: consumed, no growth, same tail
            }
            contig.extend_from_slice(&oriented[overlap..]);
            grew = true;
            tail_start = contig.len().saturating_sub(self.tail_len);
            self.sample_tail(contig, tail_start);
        }
        grew
    }

    fn sample_tail(&mut self, contig: &[Base], tail_start: usize) {
        self.tail_mins.clear();
        minimizers_into(
            &contig[tail_start..],
            self.cfg.k,
            self.cfg.w,
            &mut self.tail_mins,
        );
    }

    /// Finds the unused read whose (oriented) prefix best overlaps the
    /// contig tail (sampled in `tail_mins`), returning
    /// `(read, rev, overlap_len)`.
    fn best_extension(&mut self, contig: &[Base], tail_start: usize) -> Option<(u32, bool, usize)> {
        let cfg = self.cfg;
        // Vote per (read, rev, offset): offset = where the oriented
        // read would start in contig coords.
        self.votes.clear();
        for mz in &self.tail_mins {
            let abs_pos = tail_start as i64 + i64::from(mz.pos);
            for h in self.overlaps.lookup(mz.hash) {
                if self.used[h.read as usize] {
                    continue;
                }
                let offset = abs_pos - i64::from(h.pos);
                // Quantize the offset so indel drift still buckets
                // votes together.
                self.votes.push((h.read, h.rev, offset / 8));
            }
        }
        // Count by sorting: equal keys become runs.
        self.votes.sort_unstable();
        self.candidates.clear();
        for run in self.votes.chunk_by(|a, b| a == b) {
            if run.len() >= cfg.min_shared_minimizers {
                self.candidates.push((Reverse(run.len()), run[0]));
            }
        }
        // Examine candidates by descending vote count; accept the first
        // whose overlap *verifies* (≥ 80 % base identity at the best exact
        // offset near the voted diagonal).
        // The full key makes the order — and with it the consensus and
        // every stored byte — a function of the reads alone: equal vote
        // counts are common, and the first verified wins.
        self.candidates.sort_unstable();
        for &(_, (read, rev, qoffset)) in &self.candidates {
            let oriented = self.reads.get(read as usize).oriented(rev);
            let read_len = oriented.len();
            // Search the exact junction around the quantized diagonal.
            let center = qoffset * 8;
            let mut best_off: Option<(usize, usize, usize)> = None; // (off, matches, cmp_len)
            for off in (center - 9)..=(center + 9) {
                if off < 0 || off as usize + cfg.min_overlap > contig.len() {
                    continue;
                }
                let off = off as usize;
                let overlap = contig.len() - off;
                let cmp_len = overlap.min(read_len);
                let matches = contig[off..off + cmp_len]
                    .iter()
                    .zip(&oriented[..cmp_len])
                    .filter(|(a, b)| a == b)
                    .count();
                if best_off.is_none_or(|(_, m, _)| matches > m) {
                    best_off = Some((off, matches, cmp_len));
                }
            }
            if let Some((off, matches, cmp_len)) = best_off {
                if cmp_len >= cfg.min_overlap && matches * 5 >= cmp_len * 4 {
                    let overlap = (contig.len() - off).min(read_len);
                    return Some((read, rev, overlap));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};
    use sage_genomics::Read;
    use std::collections::BTreeMap;

    #[test]
    fn overlap_index_serves_first_hits_in_generation_order() {
        // Extension candidates tie often, and the first one that
        // verifies wins: which hits a probe serves, and in what order,
        // reaches the consensus. The reference lists every hash's hits
        // read by read, forward list before reverse, by position.
        let chunk = |profile: &DatasetProfile| {
            simulate_dataset(profile, 2026).reads.reads()[..256].to_vec()
        };
        let mut tiny = chunk(&DatasetProfile::tiny_short());
        // 70 copies of one read: each of its hashes has over 64 hits.
        tiny.extend(std::iter::repeat_n(tiny[3].clone(), 70));
        let mut past_max_occ = 0;
        for reads in [tiny, chunk(&DatasetProfile::rs1().scaled(2.0))] {
            let sampled = SampledReads::from_reads(&reads, 15, 8);
            let index = OverlapIndex::build(&sampled);
            let mut want: BTreeMap<u64, Vec<ReadHit>> = BTreeMap::new();
            for i in 0..sampled.len() {
                let read = sampled.get(i);
                for (mins, rev) in [(read.fwd_mins, false), (read.rc_mins, true)] {
                    for mz in mins {
                        want.entry(mz.hash).or_default().push(ReadHit {
                            read: i as u32,
                            rev,
                            pos: mz.pos,
                        });
                    }
                }
            }
            for (&hash, hits) in &want {
                past_max_occ += usize::from(hits.len() > OverlapIndex::MAX_OCC);
                let got: Vec<ReadHit> = index.lookup(hash).collect();
                assert_eq!(
                    got,
                    hits[..hits.len().min(OverlapIndex::MAX_OCC)],
                    "hash {hash:x}"
                );
            }
            // Hashes no read carries, in buckets that hold others.
            for &hash in want.keys().take(100) {
                for probe in [hash ^ 1, hash.wrapping_add(1), hash.wrapping_sub(1)] {
                    if !want.contains_key(&probe) {
                        assert_eq!(index.lookup(probe).next(), None);
                    }
                }
            }
        }
        assert!(past_max_occ > 0);
    }

    #[test]
    fn shared_marks_exactly_the_hashes_of_several_minimizers() {
        // A minimizer not marked shared is skipped as a probe from its own
        // read, so `false` must be certain; outside crowded buckets the
        // mark is exact. The copies make hashes shared and buckets
        // crowded.
        let mut reads = simulate_dataset(&DatasetProfile::tiny_short(), 2026)
            .reads
            .reads()[..256]
            .to_vec();
        reads.extend(std::iter::repeat_n(reads[5].clone(), 3));
        reads.extend(std::iter::repeat_n(reads[9].clone(), 40));
        let sampled = SampledReads::from_reads(&reads, 15, 8);
        let index = OverlapIndex::build(&sampled);
        let mut count: BTreeMap<u64, usize> = BTreeMap::new();
        for mz in sampled.minimizers() {
            *count.entry(mz.hash).or_default() += 1;
        }
        let (mut shared, mut crowded) = (0, 0);
        for (g, mz) in sampled.minimizers().iter().enumerate() {
            let b = (mz.hash >> index.shift) as usize;
            let bucket = index.bucket_starts[b + 1] - index.bucket_starts[b];
            if bucket as usize > OverlapIndex::CROWDED {
                crowded += 1;
                assert!(index.shared[g]);
            } else {
                assert_eq!(index.shared[g], count[&mz.hash] > 1, "minimizer {g}");
                shared += usize::from(index.shared[g]);
            }
        }
        assert!(shared > 0 && crowded > 0);
        assert_eq!(
            sampled.list_start(9, true),
            sampled.list_start(9, false) + sampled.get(9).fwd_mins.len()
        );
    }

    #[test]
    fn reference_mode_masks_and_indexes() {
        let reference: DnaSeq = "ACGTNACGTACGTACGTACGTACGTACGT".parse().unwrap();
        let cons = build_consensus(
            &ReadSet::new(),
            &ConsensusMode::Reference(reference),
            &ConsensusConfig::default(),
        );
        assert!(cons.seq.n_positions().is_empty());
        assert_eq!(cons.seq.len(), 29);
        assert!(!cons.index.is_empty());
    }

    #[test]
    fn denovo_consensus_approaches_genome_size() {
        // Deep coverage: assembled contigs should approach the genome
        // size — close to it from below (coverage gaps) and without
        // massive duplication from above.
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 11);
        let cons = build_denovo(&ds.reads, &ConsensusConfig::default());
        let genome = ds.profile.genome_len;
        assert!(
            cons.seq.len() < genome * 2,
            "consensus {} should not blow up vs genome {genome}",
            cons.seq.len()
        );
        assert!(cons.seq.len() >= genome / 2);
        assert!(cons.seq.len() * 2 < ds.reads.total_bases());
    }

    #[test]
    fn denovo_extends_contigs_at_non_default_k() {
        // The contig tail used to be sampled with a hard-coded k = 15,
        // w = 8 while the overlap index was built with the configured
        // values: at any other k no tail hash ever met the index, no
        // contig grew, and the consensus came out as the de-duplicated
        // reads laid end to end (11 607 bases at k = 13 and 12 239 at
        // k = 17 for this 8 000-base genome; 8 017 at k = 15).
        use crate::{CompressOptions, MapperConfig, SageCompressor, SageDecompressor};
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 11);
        let genome = ds.profile.genome_len;
        for k in [13, 17] {
            let cfg = ConsensusConfig {
                k,
                ..ConsensusConfig::default()
            };
            let cons = build_denovo(&ds.reads, &cfg);
            assert!(
                cons.seq.len() * 4 <= genome * 5,
                "k = {k}: consensus {} vs genome {genome}",
                cons.seq.len()
            );
            let opts = CompressOptions {
                mapper: MapperConfig {
                    k,
                    ..MapperConfig::default()
                },
                store_order: true,
                ..CompressOptions::default()
            };
            let archive = SageCompressor::with_options(opts)
                .compress(&ds.reads)
                .unwrap();
            assert_eq!(archive.header.consensus_len as usize, cons.seq.len());
            let back = SageDecompressor::default().decompress(&archive).unwrap();
            assert!(
                back.len() == ds.reads.len()
                    && back
                        .iter()
                        .zip(ds.reads.iter())
                        .all(|(a, b)| a.seq == b.seq && a.qual == b.qual),
                "k = {k}: round trip"
            );
        }
    }

    #[test]
    fn overlapping_reads_assemble_into_one_contig() {
        // Tile a fixed genome with overlapping 60-mers in scrambled
        // order; the assembler must reconstruct ~one contig of genome
        // length, not a concatenation of all reads.
        let mut x = 9u64;
        let genome: Vec<Base> = (0..600)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                Base::ACGT[((x >> 33) % 4) as usize]
            })
            .collect();
        let mut reads: Vec<Read> = (0..=(genome.len() - 60) / 20)
            .map(|i| {
                let s = i * 20;
                Read::from_seq(DnaSeq::from_bases(genome[s..s + 60].to_vec()))
            })
            .collect();
        // Scramble deterministically.
        reads.reverse();
        reads.rotate_left(7);
        let total: usize = reads.iter().map(|r| r.len()).sum();
        let cons = build_denovo(&ReadSet::from_reads(reads), &ConsensusConfig::default());
        assert!(
            cons.seq.len() <= genome.len() + 80,
            "consensus {} vs genome {} (reads total {total})",
            cons.seq.len(),
            genome.len()
        );
        assert!(cons.seq.len() >= genome.len() - 80);
    }

    #[test]
    fn reverse_complement_reads_extend_contigs() {
        let mut x = 10u64;
        let genome: Vec<Base> = (0..400)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                Base::ACGT[((x >> 33) % 4) as usize]
            })
            .collect();
        let fwd = Read::from_seq(DnaSeq::from_bases(genome[0..160].to_vec()));
        let rev =
            Read::from_seq(DnaSeq::from_bases(genome[120..300].to_vec()).reverse_complement());
        let cons = build_denovo(
            &ReadSet::from_reads(vec![fwd, rev]),
            &ConsensusConfig::default(),
        );
        // One contig of ~300 bases, not 160 + 180.
        assert!(cons.seq.len() <= 310, "consensus {}", cons.seq.len());
        assert!(cons.seq.len() >= 290);
    }

    #[test]
    fn duplicate_reads_do_not_grow_consensus() {
        let read: DnaSeq = "ACGTTGCAACGGTTAACCGGTTAACGTTGCAACGGTTAACCGGTTAA"
            .parse()
            .unwrap();
        let reads: ReadSet = (0..50).map(|_| Read::from_seq(read.clone())).collect();
        let cons = build_denovo(&reads, &ConsensusConfig::default());
        assert_eq!(cons.seq.len(), read.len());
    }

    #[test]
    fn empty_read_set_yields_empty_consensus() {
        let cons = build_denovo(&ReadSet::new(), &ConsensusConfig::default());
        assert!(cons.seq.is_empty());
        assert!(cons.index.is_empty());
    }

    #[test]
    fn long_read_consensus_covers_genome() {
        let ds = simulate_dataset(&DatasetProfile::tiny_long(), 13);
        let cons = build_denovo(&ds.reads, &ConsensusConfig::default());
        assert!(cons.seq.len() >= ds.profile.genome_len / 2);
        assert!(cons.seq.len() < ds.reads.total_bases());
    }
}
