//! Short-read (Illumina-like) simulation.
//!
//! Short-read sequencers produce fixed-length, highly accurate reads
//! (75–300 bp, ~99.9 % per-base accuracy) whose errors are almost all
//! substitutions (§2.1, Property 5). Most reads therefore carry zero or
//! very few mismatches relative to a consensus (Property 2).

use crate::base::Base;
use crate::read::{Read, ReadSet};
use crate::seq::DnaSeq;
use crate::sim::reference::mutate_base;
use rand::Rng;

/// Configuration for the short-read simulator.
#[derive(Debug, Clone)]
pub struct ShortReadConfig {
    /// Fixed read length in bases.
    pub read_len: usize,
    /// Per-base substitution error probability (~1e-3 for Illumina).
    pub sub_error_rate: f64,
    /// Per-base indel error probability (very rare on Illumina).
    pub indel_error_rate: f64,
    /// Probability that a read contains a short run of `N` bases.
    pub n_read_prob: f64,
    /// Probability a read is sampled from the reverse strand.
    pub rev_prob: f64,
    /// Number of distinct quality symbols (modern Illumina bins
    /// qualities coarsely, e.g. 4–8 levels).
    pub quality_levels: u8,
}

impl Default for ShortReadConfig {
    fn default() -> ShortReadConfig {
        ShortReadConfig {
            read_len: 100,
            sub_error_rate: 1e-3,
            indel_error_rate: 1e-5,
            n_read_prob: 2e-3,
            rev_prob: 0.5,
            quality_levels: 4,
        }
    }
}

/// Simulates `count` short reads sampled uniformly from `donor`.
///
/// Every read gets a quality string: high baseline quality with a mild
/// 3'-end decay and sharply lower quality at error positions — the
/// pattern real basecallers produce, which is what makes the separate
/// quality stream compressible.
pub fn simulate_short_reads<R: Rng>(
    donor: &DnaSeq,
    count: usize,
    cfg: &ShortReadConfig,
    rng: &mut R,
) -> ReadSet {
    assert!(donor.len() > cfg.read_len, "donor shorter than read length");
    let mut reads = Vec::with_capacity(count);
    for idx in 0..count {
        let start = rng.gen_range(0..donor.len() - cfg.read_len);
        let mut seq = donor.subseq(start, cfg.read_len);
        if rng.gen_bool(cfg.rev_prob) {
            seq = seq.reverse_complement();
        }
        let (seq, error_mask) = apply_short_errors(seq, cfg, rng);
        let qual = synth_quality(&seq, &error_mask, cfg.quality_levels, rng);
        reads.push(Read {
            id: Some(format!("sim.short.{idx}")),
            seq,
            qual: Some(qual),
        });
    }
    ReadSet::from_reads(reads)
}

/// Applies the short-read error model; returns the erroneous sequence
/// and a per-base mask of error positions (used to lower quality).
fn apply_short_errors<R: Rng>(
    seq: DnaSeq,
    cfg: &ShortReadConfig,
    rng: &mut R,
) -> (DnaSeq, Vec<bool>) {
    let mut bases: Vec<Base> = seq.into_bases();
    let mut mask = vec![false; bases.len()];
    for i in 0..bases.len() {
        if rng.gen_bool(cfg.sub_error_rate) {
            bases[i] = mutate_base(bases[i], rng);
            mask[i] = true;
        }
    }
    // Rare single-base indels; keep the read length fixed by trimming or
    // duplicating at the end, as aligners see for real short reads.
    if rng.gen_bool(cfg.indel_error_rate * bases.len() as f64) {
        let pos = rng.gen_range(0..bases.len());
        if rng.gen_bool(0.5) {
            let b = Base::ACGT[rng.gen_range(0..4)];
            bases.insert(pos, b);
            bases.pop();
        } else if bases.len() > 1 {
            bases.remove(pos);
            let b = Base::ACGT[rng.gen_range(0..4)];
            bases.push(b);
        }
        if pos < mask.len() {
            mask[pos] = true;
        }
    }
    // Occasional N run (failed basecalls).
    if rng.gen_bool(cfg.n_read_prob) {
        let run = rng.gen_range(1..=4).min(bases.len());
        let pos = rng.gen_range(0..=bases.len() - run);
        for b in &mut bases[pos..pos + run] {
            *b = Base::N;
        }
        for m in &mut mask[pos..pos + run] {
            *m = true;
        }
    }
    (DnaSeq::from_bases(bases), mask)
}

/// Synthesizes a binned Phred+33 quality string with `levels` distinct
/// symbols (2–40). Level 0 is the best quality (`I`, Phred 40); the
/// worst level maps to `#` (Phred 2). More levels → higher entropy →
/// lower quality-stream compression ratio, which is how the dataset
/// profiles reproduce Table 2's per-set quality ratios.
pub(crate) fn synth_quality<R: Rng>(
    seq: &DnaSeq,
    error_mask: &[bool],
    levels: u8,
    rng: &mut R,
) -> Vec<u8> {
    let levels = usize::from(levels).clamp(2, 40);
    let symbol = |level: usize| -> u8 {
        // Spread levels evenly over Phred 40 (b'I') down to Phred 2 (b'#').
        let span = usize::from(b'I' - b'#');
        b'I' - (level * span / (levels - 1)) as u8
    };
    let len = seq.len();
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        // Level 0 is best; decay towards the 3' end plus noise. With
        // many levels (long reads), add per-base jitter so the stream
        // has realistic nanopore-like entropy.
        let decay = (i * (levels - 1)) / (3 * len.max(1));
        let mut noise = if rng.gen_bool(0.08) { 1 } else { 0 };
        if levels > 8 {
            noise += rng.gen_range(0..levels / 3);
        }
        let mut level = (decay + noise).min(levels - 1);
        if error_mask.get(i).copied().unwrap_or(false) || seq[i].is_n() {
            level = levels - 1;
        }
        out.push(symbol(level));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn donor() -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(99);
        (0..5_000)
            .map(|_| Base::ACGT[rng.gen_range(0..4)])
            .collect()
    }

    #[test]
    fn reads_have_fixed_length_and_quality() {
        let mut rng = StdRng::seed_from_u64(1);
        let rs = simulate_short_reads(&donor(), 50, &ShortReadConfig::default(), &mut rng);
        assert_eq!(rs.len(), 50);
        assert!(rs.is_fixed_length());
        for r in &rs {
            assert_eq!(r.qual.as_ref().unwrap().len(), r.len());
        }
    }

    #[test]
    fn low_error_rate_keeps_most_reads_clean() {
        // Property 2: most short reads have no sequencing errors.
        let d = donor();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = ShortReadConfig {
            rev_prob: 0.0,
            n_read_prob: 0.0,
            ..ShortReadConfig::default()
        };
        let rs = simulate_short_reads(&d, 200, &cfg, &mut rng);
        // A read is "clean" if it appears verbatim in the donor.
        let text = d.to_string();
        let clean = rs
            .iter()
            .filter(|r| text.contains(&r.seq.to_string()))
            .count();
        assert!(clean > 150, "only {clean}/200 reads are error-free");
    }

    #[test]
    fn quality_symbols_are_binned() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ShortReadConfig {
            quality_levels: 4,
            ..ShortReadConfig::default()
        };
        let rs = simulate_short_reads(&donor(), 30, &cfg, &mut rng);
        let mut symbols = std::collections::BTreeSet::new();
        for r in &rs {
            symbols.extend(r.qual.as_ref().unwrap().iter().copied());
        }
        assert!(symbols.len() <= 4, "too many quality symbols: {symbols:?}");
    }

    #[test]
    fn n_runs_appear_when_requested() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = ShortReadConfig {
            n_read_prob: 1.0,
            ..ShortReadConfig::default()
        };
        let rs = simulate_short_reads(&donor(), 10, &cfg, &mut rng);
        assert!(rs.iter().all(|r| r.seq.contains(&Base::N)));
    }
}
