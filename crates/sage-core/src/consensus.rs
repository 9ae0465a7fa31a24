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

use crate::mapper::minimizer::{minimizers, Minimizer, MinimizerIndex};
use crate::mapper::{mask_n, revcomp};
use sage_genomics::{Base, DnaSeq, ReadSet};
use std::collections::HashMap;

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
        ConsensusMode::Reference(reference) => {
            let masked = DnaSeq::from_bases(mask_n(reference.as_slice()));
            let index = MinimizerIndex::build(masked.as_slice(), cfg.k, cfg.w);
            Consensus { seq: masked, index }
        }
        ConsensusMode::DeNovo => build_denovo(reads, cfg),
    }
}

/// One entry of the read-overlap index: which read, which orientation,
/// and the minimizer's position in the oriented read.
#[derive(Debug, Clone, Copy)]
struct ReadHit {
    read: u32,
    rev: bool,
    pos: u32,
}

/// Greedy pseudo-genome assembly from the reads.
pub fn build_denovo(reads: &ReadSet, cfg: &ConsensusConfig) -> Consensus {
    let n = reads.len();
    // Oriented (masked) reads are materialized lazily; minimizers of
    // both orientations go into the overlap index up-front.
    let masked: Vec<Vec<Base>> = reads.iter().map(|r| mask_n(r.seq.as_slice())).collect();
    let mut read_index: HashMap<u64, Vec<ReadHit>> = HashMap::new();
    const MAX_OCC: usize = 64;
    let mut fwd_mins: Vec<Vec<Minimizer>> = Vec::with_capacity(n);
    for (i, m) in masked.iter().enumerate() {
        let fwd = minimizers(m, cfg.k, cfg.w);
        let rc = revcomp(m);
        for (mins, rev) in [(&fwd, false), (&minimizers(&rc, cfg.k, cfg.w), true)] {
            for mz in mins.iter() {
                let list = read_index.entry(mz.hash).or_default();
                if list.len() < MAX_OCC {
                    list.push(ReadHit {
                        read: i as u32,
                        rev,
                        pos: mz.pos,
                    });
                }
            }
        }
        fwd_mins.push(fwd);
    }

    let mut consensus: Vec<Base> = Vec::new();
    let mut index = MinimizerIndex::new(cfg.k, cfg.w);
    let mut used = vec![false; n];
    for seed in 0..n {
        if used[seed] || masked[seed].len() < cfg.k {
            continue;
        }
        // Contained in the consensus built so far? Skip (dedup).
        if is_contained(&fwd_mins[seed], &masked[seed], &index, cfg) {
            used[seed] = true;
            continue;
        }
        // Seed a contig and extend it greedily in both directions.
        let mut contig: Vec<Base> = masked[seed].clone();
        used[seed] = true;
        while let Some((read, rev, overlap)) =
            best_extension(&contig, &read_index, &masked, &used, cfg)
        {
            used[read as usize] = true;
            let oriented = if rev {
                revcomp(&masked[read as usize])
            } else {
                masked[read as usize].clone()
            };
            if overlap >= oriented.len() {
                continue; // contained read: consumed, no growth
            }
            contig.extend_from_slice(&oriented[overlap..]);
        }
        // Leftward: extend the reverse complement rightwards, then flip
        // back (reuses the same tail machinery).
        let mut flipped = revcomp(&contig);
        while let Some((read, rev, overlap)) =
            best_extension(&flipped, &read_index, &masked, &used, cfg)
        {
            used[read as usize] = true;
            // The hit's orientation is already relative to the
            // sequence being extended (the flipped contig).
            let oriented = if rev {
                revcomp(&masked[read as usize])
            } else {
                masked[read as usize].clone()
            };
            if overlap >= oriented.len() {
                continue;
            }
            flipped.extend_from_slice(&oriented[overlap..]);
        }
        let contig = revcomp(&flipped);
        consensus.extend_from_slice(&contig);
        index.extend(&consensus);
    }
    Consensus {
        seq: DnaSeq::from_bases(consensus),
        index,
    }
}

/// Checks whether enough of a read's minimizers hit the consensus
/// index (containment/duplication test).
fn is_contained(
    mins: &[Minimizer],
    read: &[Base],
    index: &MinimizerIndex,
    cfg: &ConsensusConfig,
) -> bool {
    if index.is_empty() || mins.is_empty() {
        return false;
    }
    let fwd_hits = mins
        .iter()
        .filter(|m| !index.lookup(m.hash).is_empty())
        .count();
    let rc = revcomp(read);
    let rev_hits = minimizers(&rc, index.k(), index.w())
        .iter()
        .filter(|m| !index.lookup(m.hash).is_empty())
        .count();
    let best = fwd_hits.max(rev_hits) as f64;
    best >= cfg.min_hit_fraction * mins.len().max(1) as f64
}

/// Finds the unused read whose (oriented) prefix best overlaps the
/// contig tail, returning `(read, rev, overlap_len)`.
fn best_extension(
    contig: &[Base],
    read_index: &HashMap<u64, Vec<ReadHit>>,
    masked: &[Vec<Base>],
    used: &[bool],
    cfg: &ConsensusConfig,
) -> Option<(u32, bool, usize)> {
    // Scan the tail for minimizers and vote per (read, rev, offset):
    // offset = where the oriented read would start in contig coords.
    let tail_window = 2 * masked
        .iter()
        .map(|m| m.len())
        .max()
        .unwrap_or(0)
        .min(30_000);
    let tail_start = contig
        .len()
        .saturating_sub(tail_window.max(4 * cfg.min_overlap));
    let tail = &contig[tail_start..];
    let mut votes: HashMap<(u32, bool, i64), usize> = HashMap::new();
    for mz in minimizers(tail, 15.min(tail.len().max(4)), 8) {
        let abs_pos = tail_start as i64 + i64::from(mz.pos);
        if let Some(hits) = read_index.get(&mz.hash) {
            for h in hits {
                if used[h.read as usize] {
                    continue;
                }
                let offset = abs_pos - i64::from(h.pos);
                // Quantize the offset so indel drift still buckets
                // votes together.
                *votes.entry((h.read, h.rev, offset / 8)).or_default() += 1;
            }
        }
    }
    // Examine candidates by descending vote count; accept the first
    // whose overlap *verifies* (≥ 80 % base identity at the best exact
    // offset near the voted diagonal).
    // The full key makes the order — and with it the consensus and
    // every stored byte — independent of `HashMap` iteration order:
    // equal vote counts are common, and the first verified wins.
    let mut candidates: Vec<((u32, bool, i64), usize)> = votes.into_iter().collect();
    candidates.sort_unstable_by_key(|&(key, votes)| (std::cmp::Reverse(votes), key));
    for ((read, rev, qoffset), v) in candidates {
        if v < cfg.min_shared_minimizers {
            break; // sorted: the rest have fewer votes
        }
        let read_len = masked[read as usize].len();
        let oriented = if rev {
            revcomp(&masked[read as usize])
        } else {
            masked[read as usize].clone()
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};
    use sage_genomics::Read;

    #[test]
    fn reference_mode_masks_and_indexes() {
        let reference: DnaSeq = "ACGTNACGTACGTACGTACGTACGTACGT".parse().unwrap();
        let cons = build_consensus(
            &ReadSet::new(),
            &ConsensusMode::Reference(reference),
            &ConsensusConfig::default(),
        );
        assert!(!cons.seq.contains_n());
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
