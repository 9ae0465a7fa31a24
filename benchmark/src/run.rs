//! The untraced run: set-ups, then timed rounds through the front
//! door, giving the end-to-end metrics.

use crate::client::{drive, Round, Source};
use crate::metrics::Values;
use crate::sizes::*;
use crate::spans::Recorder;
use crate::stats::{summarize, Summary};
use crate::workload::{manifest_bytes, open_and_warm, set_up, Cache, Opened, Served, Spec};
use sage_store::Dataset;
use std::time::{Duration, Instant};

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long the timed phase measures; rounds are started until it
    /// has passed.
    pub seconds: u64,
    /// One set-up, one round, a tenth of the ops: a smoke run.
    pub quick: bool,
}

impl Options {
    /// A full-size count as this run uses it: `--quick` divides every
    /// op count by [`QUICK_DIVISOR`].
    pub fn scaled(&self, n: usize) -> usize {
        if self.quick {
            (n / QUICK_DIVISOR).max(1)
        } else {
            n
        }
    }
}

/// The program's public counters at one instant; rounds report deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub lock_busy_s: f64,
    pub chunks_decoded: u64,
    pub ssd_reads: u64,
    pub ssd_writes: u64,
    pub ssd_read_s: f64,
    pub ssd_write_s: f64,
    pub file_reads: u64,
    pub file_bytes_read: u64,
    pub dedup_decodes: u64,
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
}

impl Counters {
    pub fn read(dataset: &Dataset) -> Counters {
        let m = dataset.metrics();
        let file = dataset.engine().file_backend();
        Counters {
            cache_hits: m.cache_hits,
            cache_misses: m.cache_misses,
            cache_evictions: m.cache_evictions,
            lock_busy_s: m.lock_busy_seconds,
            chunks_decoded: m.chunks_decoded,
            ssd_reads: m.device_reads,
            ssd_writes: m.device_writes,
            ssd_read_s: m.device_read_seconds,
            ssd_write_s: m.device_write_seconds,
            file_reads: file.map_or(0, |f| f.reads()),
            file_bytes_read: file.map_or(0, |f| f.bytes_read()),
            dedup_decodes: m.dedup_decodes,
            submitted: m.submitted,
            completed: m.completed,
            rejected: m.rejected,
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_evictions: self.cache_evictions - before.cache_evictions,
            lock_busy_s: self.lock_busy_s - before.lock_busy_s,
            chunks_decoded: self.chunks_decoded - before.chunks_decoded,
            ssd_reads: self.ssd_reads - before.ssd_reads,
            ssd_writes: self.ssd_writes - before.ssd_writes,
            ssd_read_s: self.ssd_read_s - before.ssd_read_s,
            ssd_write_s: self.ssd_write_s - before.ssd_write_s,
            file_reads: self.file_reads - before.file_reads,
            file_bytes_read: self.file_bytes_read - before.file_bytes_read,
            dedup_decodes: self.dedup_decodes - before.dedup_decodes,
            submitted: self.submitted - before.submitted,
            completed: self.completed - before.completed,
            rejected: self.rejected - before.rejected,
        }
    }
}

/// One timed round and what the program's counters did across it.
#[derive(Debug, Clone)]
pub struct MeasuredRound {
    pub round: Round,
    pub counters: Counters,
    /// Whether the benchmark recorded a span per op in this round.
    pub traced: bool,
}

/// The timed phase of one workload: rounds of identical work until
/// `seconds` have passed.
#[derive(Debug)]
pub struct Phase {
    pub rounds: Vec<MeasuredRound>,
    /// User bytes ÷ stored bytes, read after the first round (not at
    /// the end: it must not depend on how many rounds `--seconds` gave).
    pub compression_ratio: f64,
    /// Workload pre-conditions that did not hold, in words.
    pub broken: Vec<String>,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.round.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.round.failed).sum()
    }
}

/// Bases plus quality bytes the store holds ÷ bytes it occupies (the
/// container blob as placed on the device, plus the manifest).
fn compression_ratio(dataset: &Dataset, source: &Source, stored: u64) -> f64 {
    let device = &dataset.device_snapshots()[0];
    let stored_bytes = device.placed_bytes as u64 + manifest_bytes(device.chunks);
    source.user_bytes(0..stored) as f64 / stored_bytes as f64
}

/// Runs rounds of `spec` on `served` until `budget` has passed (and
/// at least `min_rounds`). With a recorder, every second round records
/// a span per op and the round count is kept even, so the traced run
/// can set traced rounds against plain ones measured alongside them.
///
/// A workload that appends starts every round on a fresh dataset,
/// opened and warmed (untimed) on the store as set up: a round is then
/// the same work on the same store sizes whichever round it is, and
/// the store, its files and the process's memory do not grow with
/// `--seconds` or with the speed of the program.
pub fn timed_phase(
    spec: &Spec,
    served: &Served,
    opts: &Options,
    budget: Duration,
    min_rounds: usize,
    mut recorder: Option<&mut Recorder>,
) -> Phase {
    let units = opts.scaled(spec.units_per_round);
    let mut stream = spec.op_stream(served.stored, opts.seed, 0);
    let mut reopened: Option<Opened> = None;
    let mut next_op = 0u64;
    let mut rounds: Vec<MeasuredRound> = Vec::new();
    let mut ratio = 0.0;
    let started = Instant::now();
    loop {
        if spec.appends() {
            // One dataset alive at a time.
            drop(reopened.take());
            reopened = Some(open_and_warm(spec, &served.sharded, opts.seed));
            stream = spec.op_stream(served.stored, opts.seed, rounds.len() as u64);
        }
        let dataset = reopened.as_ref().map_or(&served.dataset, |o| &o.dataset);
        let mut stored = served.stored;
        let ops = stream.next_ops(units);
        let traced = recorder.is_some() && rounds.len() % 2 == 1;
        let before = Counters::read(dataset);
        let mut round = drive(
            &dataset.session(),
            &ops,
            spec.in_flight,
            &served.source,
            &mut stored,
            next_op,
            recorder.as_deref_mut().filter(|_| traced),
        );
        let counters = Counters::read(dataset).since(&before);
        next_op += ops.len() as u64;
        if recorder.is_none() {
            // Only the traced run pools latencies across rounds (for
            // the tail); kept here, they would make peak memory grow
            // with the number of rounds.
            round.op_us = Vec::new();
        }
        if rounds.is_empty() {
            ratio = compression_ratio(dataset, &served.source, stored);
        }
        rounds.push(MeasuredRound {
            round,
            counters,
            traced,
        });
        let paired = recorder.is_none() || rounds.len().is_multiple_of(2);
        if rounds.len() >= min_rounds && paired && (opts.quick || started.elapsed() >= budget) {
            break;
        }
    }

    let total = |f: fn(&Counters) -> u64| rounds.iter().map(|r| f(&r.counters)).sum::<u64>();
    let mut broken = Vec::new();
    if spec.cache == Cache::Chunks(0) && total(|c| c.cache_hits) != 0 {
        broken.push(format!(
            "cache is off but {} probes hit",
            total(|c| c.cache_hits)
        ));
    }
    if spec.cache == Cache::WholeStore && total(|c| c.chunks_decoded) != 0 {
        broken.push(format!(
            "store is fully cached but {} chunks were decoded",
            total(|c| c.chunks_decoded)
        ));
    }
    // Every miss is either a real pread or a wait on another ticket's
    // pread of the same chunk (single-flight).
    let (misses, preads, waits) = (
        total(|c| c.cache_misses),
        total(|c| c.file_reads),
        total(|c| c.dedup_decodes),
    );
    if spec.file_backend && preads + waits < misses {
        broken.push(format!(
            "{misses} misses but only {preads} file reads + {waits} single-flight waits"
        ));
    }
    Phase {
        rounds,
        compression_ratio: ratio,
        broken,
    }
}

/// One end-to-end metric of one run.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub name: &'static str,
    /// What the run reports: the median over the calm samples, with
    /// the smallest and largest of them.
    pub calm: Summary,
    /// The median over every sample, calm or not, for comparison.
    pub all_median: f64,
}

/// One workload's untraced run.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub measured: Vec<Measured>,
    /// Rounds the end-to-end rates were taken over, and the steal share
    /// up to which a round counted.
    pub calm_rounds: usize,
    pub calm_limit: f64,
    /// Every set-up: seconds, steal share.
    pub setups: Vec<(f64, f64)>,
    pub phase: Phase,
}

impl RunResult {
    pub fn values(&self) -> Values {
        let mut values = Values::default();
        for m in &self.measured {
            values.set(m.name, m.calm.median);
        }
        values
    }

    pub fn correct(&self) -> bool {
        self.phase.failed() == 0 && self.phase.broken.is_empty()
    }
}

/// The steal share up to which a sample is calm: [`STEAL_LIMIT`], or
/// that of the [`MIN_CALM`]-th calmest sample where fewer stay under
/// the limit.
///
/// The sizing host is a guest on a shared machine, and its hypervisor
/// gives its CPUs to other guests in bursts ("steal"). Identical
/// `get-warm` rounds took 0.070–0.079 s with no stolen tick and
/// 0.4–0.8 s (median) with a quarter of the machine's CPU time stolen,
/// and in some 20 s runs three rounds in four were like that — the
/// median over every round then measures the neighbours, and moved
/// 0.11–0.74 s between five runs of the same code. The kernel counts
/// stolen time, so each sample knows whether the machine was there
/// while it ran. The test is on that count, never on the sample's own
/// outcome, and on a host that steals nothing every sample passes it.
pub fn calm_limit(steal_shares: impl Iterator<Item = f64>) -> f64 {
    let mut shares: Vec<f64> = steal_shares.collect();
    shares.sort_by(f64::total_cmp);
    shares[MIN_CALM.min(shares.len()) - 1].max(STEAL_LIMIT)
}

/// Summarizes `values` (one per sample, beside its steal share): over
/// the calm samples, and the median over all of them.
fn measure(name: &'static str, samples: &[(f64, f64)], limit: f64) -> Measured {
    let of = |keep: &dyn Fn(f64) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|(_, steal)| keep(*steal))
            .map(|(v, _)| *v)
            .collect()
    };
    Measured {
        name,
        calm: summarize(&of(&|steal| steal <= limit)),
        all_median: summarize(&of(&|_| true)).median,
    }
}

/// The end-to-end throughput and latency metrics of a phase, each per
/// round, over the untraced rounds; and how many of them were calm,
/// under which limit.
pub fn end_to_end_rates(phase: &Phase) -> (Vec<Measured>, usize, f64) {
    let plain: Vec<&Round> = phase
        .rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| &r.round)
        .collect();
    let limit = calm_limit(plain.iter().map(|r| r.steal_share));
    let per_round = |name, f: &dyn Fn(&Round) -> f64| {
        let samples: Vec<(f64, f64)> = plain.iter().map(|r| (f(r), r.steal_share)).collect();
        measure(name, &samples, limit)
    };
    let measured = vec![
        per_round("reads_per_s", &|r| r.reads as f64 / r.wall_s),
        per_round("prepared_mib_per_s", &|r| {
            r.user_bytes as f64 / MIB / r.wall_s
        }),
        per_round("op_p50_us", &|r| r.op_p50_us),
        per_round("cpu_us_per_op", &|r| r.cpu_s * 1e6 / r.ops as f64),
    ];
    let calm = plain.iter().filter(|r| r.steal_share <= limit).count();
    (measured, calm, limit)
}

pub const MIB: f64 = (1u64 << 20) as f64;

/// Sets `spec` up, measures it for `opts.seconds`, and summarizes
/// every end-to-end metric. Peak memory is read then: one set-up and
/// the timed phase, what a serving process holds. Only after that is
/// the set-up repeated, for `setup_s` alone (the median of the calm
/// ones) — the allocator keeps what each repeat frees, and identical
/// runs that repeated first reported peaks anywhere in 62–70 MiB where
/// the first set-up alone read 34.6–34.9 every time.
pub fn run_workload(spec: &Spec, opts: &Options) -> RunResult {
    crate::proc::reset_peak_rss();
    let served = set_up(spec, opts.seed);
    let mut setups = vec![(served.times.total_s, served.times.steal_share)];
    let min_rounds = if opts.quick { 1 } else { MIN_ROUNDS };
    let phase = timed_phase(
        spec,
        &served,
        opts,
        Duration::from_secs(opts.seconds),
        min_rounds,
        None,
    );
    let peak_rss_mib = crate::proc::peak_rss_mib();
    drop(served);
    let repeats = if opts.quick { 1 } else { SETUP_REPEATS };
    for _ in 1..repeats {
        let times = set_up(spec, opts.seed).times;
        setups.push((times.total_s, times.steal_share));
    }

    let single = |name, v: f64| measure(name, &[(v, 0.0)], STEAL_LIMIT);
    let (mut measured, calm_rounds, limit) = end_to_end_rates(&phase);
    measured.push(single("compression_ratio", phase.compression_ratio));
    measured.push(single("peak_rss_mib", peak_rss_mib));
    measured.push(measure(
        "setup_s",
        &setups,
        calm_limit(setups.iter().map(|s| s.1)),
    ));
    RunResult {
        workload: spec.name,
        measured,
        calm_rounds,
        calm_limit: limit,
        setups,
        phase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_is_under_the_limit_or_else_the_calmest_few() {
        // Enough samples under the limit: the limit stands.
        let quiet = [0.0, 0.01, 0.3, 0.0, 0.018, 0.5];
        assert_eq!(calm_limit(quiet.into_iter()), STEAL_LIMIT);
        // A host that steals nothing: every sample is calm.
        assert_eq!(calm_limit([0.0; 4].into_iter()), STEAL_LIMIT);
        // Too few under it: the MIN_CALM-th calmest sets it.
        let loud = [0.4, 0.0, 0.2, 0.3, 0.25];
        assert_eq!(MIN_CALM, 3);
        assert_eq!(calm_limit(loud.into_iter()), 0.25);
        // Fewer samples than MIN_CALM: all of them.
        assert_eq!(calm_limit([0.4, 0.1].into_iter()), 0.4);
    }

    #[test]
    fn a_metric_is_the_median_of_its_calm_samples_only() {
        let samples = [
            (10.0, 0.0),
            (50.0, 0.4),
            (12.0, 0.01),
            (11.0, 0.0),
            (60.0, 0.5),
        ];
        let m = measure("x", &samples, STEAL_LIMIT);
        assert_eq!((m.calm.median, m.calm.min, m.calm.max), (11.0, 10.0, 12.0));
        assert_eq!(m.all_median, 12.0);
    }
}
