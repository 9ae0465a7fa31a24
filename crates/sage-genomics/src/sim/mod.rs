//! Sequencing simulator.
//!
//! The paper evaluates on five real read sets (RS1–RS5, Table 2) that we
//! cannot ship. This module synthesizes read sets that reproduce the
//! *statistical properties* the SAGe co-design exploits:
//!
//! - **Property 1** — mismatch positions cluster (mutation hotspots in
//!   the genome, regional quality degradation in reads), so delta-encoded
//!   mismatch positions need few bits.
//! - **Property 2** — most short reads have zero or few mismatches.
//! - **Property 3** — most indel blocks have length 1, but long blocks
//!   hold most indel bases.
//! - **Property 4** — a large fraction of long-read mismatch bases come
//!   from chimeric reads.
//! - **Property 5** — substitutions dominate short-read mismatches.
//! - **Property 6** — deep sequencing makes consecutive (re-ordered)
//!   reads map close together.
//!
//! The profile constructors ([`DatasetProfile::rs1`] … [`rs5`]) mirror
//! the paper's dataset mix (three short-read sets, two long-read sets,
//! different species-like divergence) at megabyte scale.
//!
//! [`rs5`]: DatasetProfile::rs5

mod long;
mod profiles;
mod reference;
mod short;

pub use long::{simulate_long_reads, LongReadConfig};
pub use profiles::{DatasetProfile, ReadTech};
pub use reference::{derive_donor, generate_reference, ReferenceGenome};
pub use short::{simulate_short_reads, ShortReadConfig};

use crate::read::ReadSet;
use crate::seq::DnaSeq;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A synthesized dataset: the reference it was drawn from plus the reads.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Profile used to generate the dataset.
    pub profile: DatasetProfile,
    /// The reference genome (available to reference-based compression).
    pub reference: DnaSeq,
    /// The simulated read set.
    pub reads: ReadSet,
}

/// Synthesizes a dataset from a profile, deterministically in `seed`.
///
/// # Example
///
/// ```
/// use sage_genomics::sim::{simulate_dataset, DatasetProfile};
///
/// let a = simulate_dataset(&DatasetProfile::tiny_short(), 1);
/// let b = simulate_dataset(&DatasetProfile::tiny_short(), 1);
/// assert_eq!(a.reads, b.reads); // fully deterministic
/// ```
pub fn simulate_dataset(profile: &DatasetProfile, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let reference = generate_reference(profile.genome_len, profile.repeat_fraction, &mut rng);
    let donor = derive_donor(&reference, profile.divergence, &mut rng);
    let total_bases = (profile.genome_len as f64 * profile.coverage) as usize;
    let reads: ReadSet = match profile.tech {
        ReadTech::Short => {
            let cfg = profile.short_config();
            let count = total_bases / cfg.read_len.max(1);
            simulate_short_reads(&donor, count, &cfg, &mut rng)
        }
        ReadTech::Long => {
            let cfg = profile.long_config();
            simulate_long_reads(&donor, total_bases, &cfg, &mut rng)
        }
    };
    Dataset {
        profile: profile.clone(),
        reference: reference.seq,
        reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_dataset_has_expected_shape() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 3);
        assert!(ds.reads.len() > 10);
        assert!(ds.reads.is_fixed_length());
        assert!(ds.reads.iter().all(|r| r.qual.is_some()));
    }

    #[test]
    fn long_dataset_has_variable_lengths() {
        let ds = simulate_dataset(&DatasetProfile::tiny_long(), 3);
        assert!(!ds.reads.is_fixed_length());
        assert!(ds.reads.max_read_len() >= 500);
    }

    #[test]
    fn different_seeds_differ() {
        let a = simulate_dataset(&DatasetProfile::tiny_short(), 1);
        let b = simulate_dataset(&DatasetProfile::tiny_short(), 2);
        assert_ne!(a.reads, b.reads);
    }
}
