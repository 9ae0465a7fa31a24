//! Reference genome synthesis and donor derivation.

use crate::base::Base;
use crate::seq::DnaSeq;
use rand::Rng;

/// A synthetic reference genome with mutation hotspots.
///
/// Hotspots model the clustering of genetic variation (Property 1,
/// §5.1.1): variants are far more likely inside hotspot intervals than
/// elsewhere, which makes delta-encoded mismatch positions small.
#[derive(Debug, Clone)]
pub struct ReferenceGenome {
    /// The bases (always `ACGT`, no `N`).
    pub seq: DnaSeq,
    /// Half-open hotspot intervals `[start, end)`.
    pub hotspots: Vec<(usize, usize)>,
}

impl ReferenceGenome {
    /// `true` if position `pos` falls in any hotspot interval.
    pub fn in_hotspot(&self, pos: usize) -> bool {
        // Hotspots are sorted and sparse; a binary search over starts
        // suffices.
        match self.hotspots.binary_search_by(|&(s, _)| s.cmp(&pos)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => pos < self.hotspots[i - 1].1,
        }
    }
}

/// Generates a reference genome of `len` bases.
///
/// `repeat_fraction` of the genome is produced by re-pasting earlier
/// segments, giving general-purpose (LZ-style) compressors realistic
/// medium-range redundancy to find while leaving plenty of unique
/// sequence (genomic data's long-range similarity is across *reads*,
/// not within the genome).
pub fn generate_reference<R: Rng>(
    len: usize,
    repeat_fraction: f64,
    rng: &mut R,
) -> ReferenceGenome {
    let mut seq = DnaSeq::with_capacity(len);
    while seq.len() < len {
        let remaining = len - seq.len();
        if seq.len() > 1_000 && rng.gen_bool(repeat_fraction) {
            // Paste a repeat of an earlier region.
            let rep_len = rng.gen_range(200..=2_000).min(remaining);
            let src = rng.gen_range(0..seq.len().saturating_sub(rep_len).max(1));
            let copy: Vec<Base> = seq.as_slice()[src..src + rep_len.min(seq.len() - src)].to_vec();
            seq.extend_from_slice(&copy);
        } else {
            let fresh = rng.gen_range(500..=5_000).min(remaining);
            for _ in 0..fresh {
                seq.push(Base::ACGT[rng.gen_range(0..4)]);
            }
        }
    }

    // Sparse hotspot intervals covering ~5% of the genome.
    let mut hotspots = Vec::new();
    let mut pos = rng.gen_range(0..2_000.min(len.max(1)));
    while pos < len {
        let hs_len = rng.gen_range(100..=1_500).min(len - pos);
        hotspots.push((pos, pos + hs_len));
        pos += hs_len + rng.gen_range(5_000..=40_000);
    }
    ReferenceGenome { seq, hotspots }
}

/// Derives a donor genome from the reference by applying variants.
///
/// `divergence` is the average per-base variant rate *outside*
/// hotspots; inside hotspots the rate is 15× higher. Variants are 85 %
/// SNPs and 15 % short indels, matching the substitution-dominated
/// profile of real genomes.
pub fn derive_donor<R: Rng>(reference: &ReferenceGenome, divergence: f64, rng: &mut R) -> DnaSeq {
    let src = reference.seq.as_slice();
    let mut out = DnaSeq::with_capacity(src.len());
    let mut i = 0;
    while i < src.len() {
        let rate = if reference.in_hotspot(i) {
            (divergence * 15.0).min(0.5)
        } else {
            divergence
        };
        if rng.gen_bool(rate) {
            let kind = rng.gen_range(0..100);
            if kind < 85 {
                // SNP: substitute with a different base.
                out.push(mutate_base(src[i], rng));
                i += 1;
            } else if kind < 93 {
                // Short insertion.
                let ins_len = rng.gen_range(1..=3);
                for _ in 0..ins_len {
                    out.push(Base::ACGT[rng.gen_range(0..4)]);
                }
                out.push(src[i]);
                i += 1;
            } else {
                // Short deletion.
                let del_len = rng.gen_range(1..=3);
                i += del_len;
            }
        } else {
            out.push(src[i]);
            i += 1;
        }
    }
    out
}

/// Substitutes `b` with a uniformly-chosen *different* concrete base.
pub fn mutate_base<R: Rng>(b: Base, rng: &mut R) -> Base {
    loop {
        let cand = Base::ACGT[rng.gen_range(0..4)];
        if cand != b {
            return cand;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reference_has_requested_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = generate_reference(10_000, 0.1, &mut rng);
        assert_eq!(r.seq.len(), 10_000);
        assert!(!r.seq.contains(&Base::N));
    }

    #[test]
    fn hotspot_lookup_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = generate_reference(50_000, 0.1, &mut rng);
        for pos in (0..r.seq.len()).step_by(997) {
            let linear = r.hotspots.iter().any(|&(s, e)| pos >= s && pos < e);
            assert_eq!(r.in_hotspot(pos), linear, "pos {pos}");
        }
    }

    #[test]
    fn donor_is_similar_but_not_identical() {
        let mut rng = StdRng::seed_from_u64(3);
        let r = generate_reference(20_000, 0.1, &mut rng);
        let donor = derive_donor(&r, 0.002, &mut rng);
        assert!(donor.len() > 19_000 && donor.len() < 21_000);
        // Alignment-free similarity: most reference 21-mers survive in
        // the donor (indels shift frames, so positional identity is not
        // a valid check).
        let donor_text = donor.to_string();
        let ref_text = r.seq.to_string();
        let sampled: Vec<&str> = (0..ref_text.len() - 21)
            .step_by(211)
            .map(|i| &ref_text[i..i + 21])
            .collect();
        let shared = sampled.iter().filter(|km| donor_text.contains(*km)).count();
        assert!(
            shared * 10 > sampled.len() * 8,
            "only {shared}/{} sampled 21-mers survive",
            sampled.len()
        );
        assert_ne!(r.seq, donor);
    }

    #[test]
    fn zero_divergence_reproduces_reference() {
        let mut rng = StdRng::seed_from_u64(4);
        let r = generate_reference(5_000, 0.1, &mut rng);
        let donor = derive_donor(&r, 0.0, &mut rng);
        assert_eq!(r.seq, donor);
    }

    #[test]
    fn mutate_base_never_returns_input() {
        let mut rng = StdRng::seed_from_u64(5);
        for &b in &Base::ACGT {
            for _ in 0..32 {
                assert_ne!(mutate_base(b, &mut rng), b);
            }
        }
    }
}
