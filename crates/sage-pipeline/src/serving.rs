//! Store-served data preparation: the pipeline scenario behind
//! [`PrepKind::SageStore`], routed through a real
//! [`sage_store::client::Session`].
//!
//! [`crate::run_experiment`] models every preparation configuration
//! analytically — including `SageStore`, whose host-decode plateau is
//! calibrated, not measured. This module is the *measured* route: a
//! [`StoreServing`] encodes the actual reads into the sharded chunk
//! store via the typed client API, serves them through a session, and
//! derives the preparation rate by driving the store's closed loop
//! on its virtual device timeline. The pipeline scenario and
//! the store benches thus share one serving machinery instead of each
//! re-wiring the stack.

use crate::analysis::AnalysisKind;
use crate::endtoend::{DatasetModel, Outcome, SystemConfig};
use crate::energy::{energy_joules, EnergyInputs};
use crate::prep::PrepKind;
use crate::stage::{bottleneck, pipeline_seconds, Stage};
use sage_genomics::ReadSet;
use sage_store::client::{range_for, ClosedLoopSpec, Dataset, DatasetBuilder};
use sage_store::{Result as StoreResult, StoreOp};

/// A dataset served through the chunk store for pipeline experiments:
/// the reads are really encoded, really striped across the system's
/// SSD fleet, and really decoded per request.
#[derive(Debug)]
pub struct StoreServing {
    dataset: Dataset,
    reads_per_chunk: usize,
}

impl StoreServing {
    /// Encodes `reads` into a chunk store striped across the
    /// system's SSD fleet ([`SystemConfig::device_configs`]) and
    /// starts serving. The decoded-chunk cache is disabled so every
    /// request pays its device — preparation rate measurements must
    /// not be flattered by cache hits.
    ///
    /// # Errors
    ///
    /// Store configuration or codec errors.
    pub fn build(
        reads: &ReadSet,
        sys: &SystemConfig,
        reads_per_chunk: usize,
    ) -> StoreResult<StoreServing> {
        let dataset = DatasetBuilder::new()
            .chunk_reads(reads_per_chunk)
            .cache_chunks(0)
            .ssd_fleet(sys.device_configs())
            .server_workers(4)
            .queue_depth(32)
            .encode(reads)?;
        Ok(StoreServing {
            dataset,
            reads_per_chunk,
        })
    }

    /// Measures the preparation rate (original bases per second) the
    /// store sustains, by driving `requests` random chunk-sized gets
    /// through the store's closed loop with `clients` clients and
    /// reading bases-served over the virtual makespan.
    ///
    /// # Errors
    ///
    /// Propagates the first failed operation.
    pub fn measured_prep_rate(&self, clients: usize, requests: u64) -> StoreResult<f64> {
        let total = self.dataset.total_reads();
        let span = self.reads_per_chunk as u64;
        let report = self
            .dataset
            .drive_closed_loop(&ClosedLoopSpec { clients, requests }, |c, i| {
                StoreOp::Get(range_for(c, i, total, span))
            })?;
        Ok(report.bases_per_sec())
    }
}

/// Runs the store-served experiment: like
/// [`crate::run_experiment`] with [`PrepKind::SageStore`], but the
/// preparation stage's rate is `prep_rate_bases_per_sec` — a rate
/// *measured* through a [`StoreServing`] session instead of the
/// analytical host-decode plateau.
pub fn run_store_experiment(
    analysis: AnalysisKind,
    ds: &DatasetModel,
    sys: &SystemConfig,
    prep_rate_bases_per_sec: f64,
) -> Outcome {
    assert!(
        prep_rate_bases_per_sec > 0.0,
        "measured preparation rate must be positive"
    );
    let prep = PrepKind::SageStore;
    let ratio = ds.ratio_for(prep);
    let host_if = sys.ssd.host_bytes_per_sec * sys.n_ssds as f64;
    // Compressed chunks cross the interface; the host decodes them
    // chunk-parallel at the measured store rate.
    let io_rate = host_if * ratio;
    let stages = [
        Stage::new("io", io_rate),
        Stage::new("prep", prep_rate_bases_per_sec),
        Stage::new("analysis", analysis.mapper_rate_original_bases()),
    ];
    let seconds = pipeline_seconds(ds.total_bases, &stages, sys.batches);
    let energy = energy_joules(
        &sys.host_power,
        &EnergyInputs {
            seconds,
            host_cpu_active: prep.uses_host_cpu(),
            n_ssds: sys.n_ssds,
            ssd_active_w: sys.ssd.active_power_w,
            sage_hw: None,
            sage_channels: sys.ssd.channels,
        },
    );
    Outcome {
        seconds,
        reads_per_sec: ds.n_reads / seconds,
        prep_rate: prep_rate_bases_per_sec,
        io_rate,
        bottleneck: bottleneck(&stages).name,
        energy_joules: energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};

    #[test]
    fn store_served_prep_measures_and_runs() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 17);
        let sys = SystemConfig::pcie().with_ssds(2);
        let serving = StoreServing::build(&ds.reads, &sys, 16).expect("build serving");
        assert_eq!(serving.dataset.engine().n_devices(), 2);

        // The session is the ordinary typed front end.
        let got = serving.dataset.session().get(0..8).unwrap().join().unwrap();
        for (a, b) in got.iter().zip(ds.reads.iter()) {
            assert_eq!(a.seq, b.seq);
        }

        let rate = serving.measured_prep_rate(8, 64).expect("measure");
        assert!(rate > 0.0, "store must sustain a positive rate");

        let model = DatasetModel {
            name: ds.profile.name.clone(),
            total_bases: ds.reads.total_bases() as f64,
            n_reads: ds.reads.len() as f64,
            ratio_pigz: 4.0,
            ratio_spring: 16.0,
            ratio_sage: 15.0,
            isf_filter_fraction: 0.3,
        };
        let outcome = run_store_experiment(AnalysisKind::Gem, &model, &sys, rate);
        assert!(outcome.seconds.is_finite() && outcome.seconds > 0.0);
        assert!(outcome.reads_per_sec > 0.0);
        assert!(["io", "prep", "analysis"].contains(&outcome.bottleneck));
        // The measured rate flows through verbatim.
        assert_eq!(outcome.prep_rate, rate);
    }

    #[test]
    fn more_ssds_never_slow_store_served_prep() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 18);
        let rate_at = |n: usize| {
            let sys = SystemConfig::pcie().with_ssds(n);
            StoreServing::build(&ds.reads, &sys, 16)
                .expect("build")
                .measured_prep_rate(8, 96)
                .expect("measure")
        };
        let one = rate_at(1);
        let four = rate_at(4);
        assert!(
            four > one,
            "striping across 4 SSDs must raise the served rate: {one} → {four}"
        );
    }
}
