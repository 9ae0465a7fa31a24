//! Open-loop workload generation, and the one report every
//! virtual-time drive returns.
//!
//! The closed-loop driver ([`Dataset::drive_closed_loop`]) can only
//! measure operating points where offered load equals service rate —
//! each client waits for its previous operation before submitting the
//! next, so the system is never pushed past saturation. This module
//! supplies the other half of the classic storage-QoS picture: a
//! **deterministic, seedable open-loop driver** that injects requests
//! at generated *arrival instants* on the virtual timeline regardless
//! of completions, which is what makes latency–throughput curves to
//! saturation (and past it) measurable.
//!
//! Four composable pieces:
//!
//! - **Arrival processes** — [`Arrivals`] yields interarrival gaps in
//!   virtual seconds: `Fixed` (constant rate), `Poisson` (exponential
//!   gaps), and `Bursty` (MMPP-style on/off: Poisson bursts separated
//!   by silences).
//! - **Access patterns** — [`Pattern`] yields read ranges: `Uniform`
//!   and `Zipf` (Zipf(θ) over span-sized slots). An [`OpMix`] turns
//!   ranges into a typed [`StoreOp`] stream (get/scan/append
//!   fractions) via [`OpStream`].
//! - **The load spec** — a [`TenantLoad`] names one stream's arrival
//!   process, pattern, mix, request count and seed; every open-loop
//!   drive takes one per tenant.
//! - **The open-loop driver** — [`Dataset::drive_open_loop`] is the
//!   multi-tenant driver ([`Dataset::drive_tenants`]) run with one
//!   default tenant under FIFO: it walks the arrival timeline, sheds
//!   arrivals that find the virtual queue at capacity (open-loop
//!   overload drops load instead of slowing the arrival process — the
//!   deterministic analogue of
//!   [`SubmitMode::Fail`](super::SubmitMode::Fail) load shedding), and
//!   aggregates each operation's virtual instants and served reads
//!   into a [`QosReport`]: achieved vs offered throughput, shed counts, a
//!   shared [`LatencyStats`] percentile block and per-device
//!   utilization. The closed loop reports through the same struct.
//!
//! Everything is driven by one [`WorkloadRng`] (SplitMix64) seeded
//! from the load's seed, so a fixed `(load, queue depth)` replays
//! bit-identical arrival instants and operation streams. On an
//! identically-prepared dataset (same encode, cold cache) the whole
//! [`QosReport`] is reproduced exactly — the property the QoS benches
//! assert on.

use super::stats::LatencyStats;
use super::tenant::{MultiTenantSpec, TenantSpec};
use super::Dataset;
use crate::engine::StoreOp;
use crate::{ConfigError, Result};
use sage_genomics::ReadSet;
use sage_io::SchedPolicyKind;
use std::ops::Range;

/// Decorrelates the arrival-instant stream from the op stream: both
/// derive from the one spec seed without sharing draws.
pub(crate) const ARRIVAL_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;
pub(crate) const OP_STREAM: u64 = 0xbf58_476d_1ce4_e5b9;
/// Dedicated stream for attributing *shed* arrivals an op kind: shed
/// arrivals must not consume draws from the admitted op stream (that
/// would change every admitted op after the first shed and break
/// bit-compatibility with earlier releases), so their kinds come from
/// this separate, identically-weighted stream.
pub(crate) const SHED_STREAM: u64 = 0x94d0_49bb_1331_11eb;

/// The workload generators' deterministic random source (SplitMix64).
///
/// Small, seedable, and stable across platforms — every arrival
/// process and access pattern draws from one of these, which is what
/// makes a drive replayable from its spec alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadRng {
    state: u64,
}

impl WorkloadRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> WorkloadRng {
        WorkloadRng { state: seed }
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, n)` (0 when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }

    /// Exponential draw with mean `1/rate` (an interarrival gap of a
    /// Poisson process at `rate` events per second).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

// ---------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------

/// Arrival-process configuration — what a [`TenantLoad`] carries.
/// Each variant yields interarrival gaps in virtual seconds; the draws
/// come from the drive's [`WorkloadRng`], so streams replay from the
/// seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Constant-rate arrivals: every gap is exactly `1/rate`.
    Fixed {
        /// Arrivals per virtual second.
        rate: f64,
    },
    /// Poisson arrivals: exponential gaps with mean `1/rate`.
    Poisson {
        /// Mean arrivals per virtual second.
        rate: f64,
    },
    /// Bursty (on/off, MMPP-style) arrivals: exponentially-distributed
    /// ON phases (mean `mean_on` seconds) during which arrivals are
    /// Poisson at `on_rate`, separated by exponentially-distributed
    /// silent OFF phases (mean `mean_off` seconds). The long-run mean
    /// rate is `on_rate · mean_on / (mean_on + mean_off)`.
    Bursty {
        /// Arrivals per virtual second while a burst is on.
        on_rate: f64,
        /// Mean ON-phase duration, virtual seconds.
        mean_on: f64,
        /// Mean OFF-phase duration, virtual seconds.
        mean_off: f64,
    },
}

impl Arrivals {
    /// Long-run mean arrival rate (per virtual second).
    pub fn mean_rate(&self) -> f64 {
        match *self {
            Arrivals::Fixed { rate } | Arrivals::Poisson { rate } => rate,
            Arrivals::Bursty {
                on_rate,
                mean_on,
                mean_off,
            } => on_rate * mean_on / (mean_on + mean_off),
        }
    }

    /// Checks the configured rates and durations.
    ///
    /// # Errors
    ///
    /// [`ConfigError::NonPositiveRate`] when any rate or phase
    /// duration is not a positive finite number.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        let ok = |v: f64| v.is_finite() && v > 0.0;
        let valid = match *self {
            Arrivals::Fixed { rate } | Arrivals::Poisson { rate } => ok(rate),
            Arrivals::Bursty {
                on_rate,
                mean_on,
                mean_off,
            } => ok(on_rate) && ok(mean_on) && ok(mean_off),
        };
        if valid {
            Ok(())
        } else {
            Err(ConfigError::NonPositiveRate)
        }
    }
}

/// One stream's live arrival process: the configuration plus the
/// bursty phase (unused by the memoryless variants).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrivalGen {
    arrivals: Arrivals,
    /// Virtual seconds left in the current phase.
    phase_left: f64,
    /// `true` while in an ON phase.
    on: bool,
}

impl ArrivalGen {
    /// A generator starting at the beginning of an ON phase.
    pub(crate) fn new(arrivals: Arrivals) -> ArrivalGen {
        ArrivalGen {
            arrivals,
            phase_left: 0.0,
            on: false,
        }
    }

    /// Virtual seconds until the next arrival (≥ 0 and finite for a
    /// valid configuration).
    pub(crate) fn next_gap(&mut self, rng: &mut WorkloadRng) -> f64 {
        let (on_rate, mean_on, mean_off) = match self.arrivals {
            Arrivals::Fixed { rate } => return 1.0 / rate,
            Arrivals::Poisson { rate } => return rng.exp(rate),
            Arrivals::Bursty {
                on_rate,
                mean_on,
                mean_off,
            } => (on_rate, mean_on, mean_off),
        };
        let mut gap = 0.0;
        loop {
            if self.on {
                let dt = rng.exp(on_rate);
                if dt <= self.phase_left {
                    self.phase_left -= dt;
                    return gap + dt;
                }
            }
            // The phase ends before the next arrival: spend the rest of
            // it, then switch (a burst goes silent, a silence bursts).
            gap += self.phase_left;
            self.on = !self.on;
            self.phase_left = rng.exp(1.0 / if self.on { mean_on } else { mean_off });
        }
    }
}

// ---------------------------------------------------------------------
// Access patterns
// ---------------------------------------------------------------------

/// Access-pattern configuration — what a [`TenantLoad`] carries.
/// Each variant yields read ranges over the dataset, never empty for
/// a non-empty dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Uniformly random `span`-read ranges.
    Uniform {
        /// Reads per range.
        span: u64,
    },
    /// Zipf(`theta`)-skewed range starts over `span`-read slots: slot
    /// `i` (0-based) is drawn with probability ∝ `1/(i+1)^θ`, so a
    /// small set of hot slots absorbs most of the traffic. The slot
    /// CDF is built once per stream and sampled by inverse-CDF binary
    /// search.
    Zipf {
        /// Skew exponent (θ ≈ 1 is the classic heavy skew).
        theta: f64,
        /// Reads per range.
        span: u64,
    },
}

impl Pattern {
    /// Checks the configured span and skew.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroSpan`] when ranges are sized to zero reads;
    /// [`ConfigError::NonPositiveRate`] when Zipf's θ is not a
    /// positive finite number.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        let span = match *self {
            Pattern::Uniform { span } => span,
            Pattern::Zipf { theta, span } => {
                if !(theta.is_finite() && theta > 0.0) {
                    return Err(ConfigError::NonPositiveRate);
                }
                span
            }
        };
        if span == 0 {
            return Err(ConfigError::ZeroSpan);
        }
        Ok(())
    }
}

/// Clamps a drawn start to a valid `[start, start+span)` range.
fn clamp_range(start: u64, span: u64, total: u64) -> Range<u64> {
    if total == 0 {
        return 0..0;
    }
    let start = start.min(total - 1);
    start..(start + span.max(1)).min(total)
}

/// One stream's live access pattern over a `total`-read dataset: the
/// configuration plus the Zipf slot CDF (empty under `Uniform`).
#[derive(Debug, Clone)]
pub(crate) struct RangeGen {
    pattern: Pattern,
    total: u64,
    /// Cumulative normalized Zipf slot weights, ascending to 1.0.
    cdf: Vec<f64>,
}

impl RangeGen {
    pub(crate) fn new(pattern: &Pattern, total: u64) -> RangeGen {
        let mut cdf = Vec::new();
        if let Pattern::Zipf { theta, span } = *pattern {
            let slots = (total.max(1)).div_ceil(span.max(1)).max(1) as usize;
            cdf.reserve_exact(slots);
            let mut sum = 0.0;
            for i in 0..slots {
                sum += 1.0 / ((i + 1) as f64).powf(theta);
                cdf.push(sum);
            }
            for w in &mut cdf {
                *w /= sum;
            }
        }
        RangeGen {
            pattern: *pattern,
            total,
            cdf,
        }
    }

    /// The next read range (within `0..total`).
    pub(crate) fn next_range(&self, rng: &mut WorkloadRng) -> Range<u64> {
        let total = self.total;
        match self.pattern {
            Pattern::Uniform { span } => clamp_range(rng.below(total.max(1)), span, total),
            Pattern::Zipf { span, .. } => {
                let u = rng.next_f64();
                let slot = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
                clamp_range(slot as u64 * span, span, total)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Op mix
// ---------------------------------------------------------------------

/// Which operation kind a generated request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A ranged read ([`StoreOp::Get`]).
    Get,
    /// A full chunk-walk ([`StoreOp::Scan`]).
    Scan,
    /// An append of template reads ([`StoreOp::Append`]).
    Append,
}

impl OpKind {
    /// The kind of `op`.
    pub(crate) fn of(op: &StoreOp) -> OpKind {
        match op {
            StoreOp::Get(_) => OpKind::Get,
            StoreOp::Scan(_) => OpKind::Scan,
            StoreOp::Append(_) => OpKind::Append,
        }
    }

    /// Display label (the span kind in trace exports).
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Scan => "scan",
            OpKind::Append => "append",
        }
    }
}

/// Relative operation-kind weights of a generated stream (they need
/// not sum to 1; only the ratios matter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Weight of ranged `Get`s.
    pub get: f64,
    /// Weight of full-walk `Scan`s.
    pub scan: f64,
    /// Weight of `Append`s.
    pub append: f64,
}

impl Default for OpMix {
    fn default() -> OpMix {
        OpMix::gets()
    }
}

impl OpMix {
    /// A pure ranged-read stream (the default).
    pub fn gets() -> OpMix {
        OpMix {
            get: 1.0,
            scan: 0.0,
            append: 0.0,
        }
    }

    /// Checks the weights.
    ///
    /// # Errors
    ///
    /// [`ConfigError::DegenerateOpMix`] when any weight is negative or
    /// non-finite, or all are zero.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        if ok(self.get)
            && ok(self.scan)
            && ok(self.append)
            && self.get + self.scan + self.append > 0.0
        {
            Ok(())
        } else {
            Err(ConfigError::DegenerateOpMix)
        }
    }

    /// Draws one op kind by weight.
    pub(crate) fn pick(&self, rng: &mut WorkloadRng) -> OpKind {
        let total = self.get + self.scan + self.append;
        let u = rng.next_f64() * total;
        if u < self.get {
            OpKind::Get
        } else if u < self.get + self.scan {
            OpKind::Scan
        } else {
            OpKind::Append
        }
    }
}

/// A deterministic stream of typed [`StoreOp`]s: a [`Pattern`]
/// supplying ranges, an [`OpMix`] choosing kinds, one seeded
/// [`WorkloadRng`] driving both. Scans walk every chunk with an
/// all-rejecting predicate (serving cost without result assembly);
/// appends clone the template reads.
pub struct OpStream {
    rng: WorkloadRng,
    pattern: RangeGen,
    mix: OpMix,
    append_template: ReadSet,
}

impl std::fmt::Debug for OpStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OpStream(mix: {:?})", self.mix)
    }
}

impl OpStream {
    /// A stream over a `total`-read dataset. `append_template` is the
    /// read set cloned into every generated `Append` (pass an empty
    /// set when the mix has no appends).
    pub fn new(
        pattern: &Pattern,
        mix: OpMix,
        seed: u64,
        total: u64,
        append_template: ReadSet,
    ) -> OpStream {
        OpStream {
            rng: WorkloadRng::new(seed),
            pattern: RangeGen::new(pattern, total),
            mix,
            append_template,
        }
    }

    /// The next operation and its kind.
    pub fn next_op(&mut self) -> (StoreOp, OpKind) {
        match self.mix.pick(&mut self.rng) {
            OpKind::Get => (
                StoreOp::Get(self.pattern.next_range(&mut self.rng)),
                OpKind::Get,
            ),
            OpKind::Scan => (StoreOp::Scan(Box::new(|_| false)), OpKind::Scan),
            OpKind::Append => (
                StoreOp::Append(self.append_template.clone()),
                OpKind::Append,
            ),
        }
    }
}

// ---------------------------------------------------------------------
// The load spec and the drive report
// ---------------------------------------------------------------------

/// One stream's offered open-loop load: its arrival process, access
/// pattern, op mix, request count, and seed. A multi-tenant drive
/// takes one per tenant ([`MultiTenantSpec`]); the single-stream
/// [`Dataset::drive_open_loop`] takes one beside its queue bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantLoad {
    /// The arrival process injecting this stream's requests.
    pub arrivals: Arrivals,
    /// The access pattern generating its read ranges.
    pub pattern: Pattern,
    /// Its operation-kind weights.
    pub mix: OpMix,
    /// Arrivals to generate (sheds included).
    pub requests: u64,
    /// Seed deriving the stream's arrival and op streams.
    pub seed: u64,
}

impl TenantLoad {
    /// A load with the open-loop defaults: `arrivals` over uniform
    /// 16-read gets, 256 requests, seed `0x5a6e`.
    pub fn new(arrivals: Arrivals) -> TenantLoad {
        TenantLoad {
            arrivals,
            pattern: Pattern::Uniform { span: 16 },
            mix: OpMix::gets(),
            requests: 256,
            seed: 0x5a6e,
        }
    }

    /// Checks the load's generators.
    ///
    /// # Errors
    ///
    /// The first failing knob's [`ConfigError`].
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        self.arrivals.validate()?;
        self.pattern.validate()?;
        self.mix.validate()
    }
}

/// One shed arrival, attributable per op mix: the kind the arrival
/// would have submitted and the virtual instant it arrived.
///
/// The kind is drawn from a dedicated rng stream (`SHED_STREAM`) with
/// the spec's own [`OpMix`] weights, so attribution is statistically
/// faithful to the mix while the *admitted* op stream consumes
/// exactly the draws it always did — shed accounting never changes
/// which operations run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedEvent {
    /// Op kind the shed arrival would have submitted.
    pub kind: OpKind,
    /// Virtual arrival instant at which it was shed.
    pub arrival_vt: f64,
    /// Tenant whose arrival was turned away (0 is the default tenant;
    /// single-tenant drives only ever shed tenant 0).
    pub tenant: usize,
}

/// What a virtual-time drive measured: an open-loop drive, one tenant
/// of a multi-tenant drive, or a closed loop.
///
/// A closed loop offers exactly what it completes, so its `offered`
/// equals `completed`, it sheds nothing, and its `offered_rate` is its
/// `achieved_rate`.
#[derive(Debug, Clone, PartialEq)]
pub struct QosReport {
    /// Arrivals generated (completed + shed).
    pub offered: u64,
    /// Operations admitted and completed.
    pub completed: u64,
    /// Arrivals shed because the virtual queue was at capacity.
    pub shed: u64,
    /// One [`ShedEvent`] per shed arrival, in arrival order (always
    /// `shed` entries): the kind the arrival would have carried and
    /// the instant it was turned away.
    pub shed_events: Vec<ShedEvent>,
    /// Measured offered rate: arrivals per virtual second over the
    /// arrival span.
    pub offered_rate: f64,
    /// Achieved throughput: completions per virtual second of makespan.
    pub achieved_rate: f64,
    /// Virtual makespan: the latest completion instant.
    pub makespan: f64,
    /// Aggregated latency distribution (shared percentile machinery).
    pub latency: LatencyStats,
    /// Every per-operation virtual latency, seconds, ascending.
    pub latencies: Vec<f64>,
    /// Busy (service) seconds accumulated per device.
    pub device_busy: Vec<f64>,
    /// Per-device utilization over the makespan.
    pub utilization: Vec<f64>,
    /// Reads returned by every completed op (get and scan results).
    pub reads_served: u64,
    /// Bases returned by every completed op.
    pub bases_served: u64,
}

impl QosReport {
    /// Shed fraction of the offered load in `[0, 1]`.
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }

    /// Bases served per virtual second of makespan (the store's
    /// sustained preparation rate).
    pub fn bases_per_sec(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.bases_served as f64 / self.makespan
    }

    /// Mean device-service seconds per completed operation (0 when
    /// nothing completed or nothing was charged).
    fn mean_service_secs(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.device_busy.iter().sum::<f64>() / self.completed as f64
    }

    /// The fleet capacity this drive implies: operations per virtual
    /// second that `devices` parallel devices can absorb at this op
    /// stream's mean service demand. Meaningful when the drive ran
    /// far below saturation (a trickle-rate calibration run) — the
    /// `qos_sweep` bench anchors its offered-rate grid on it.
    pub fn capacity_estimate(&self, devices: usize) -> f64 {
        let mean = self.mean_service_secs();
        if mean <= 0.0 {
            return 0.0;
        }
        devices as f64 / mean
    }

    /// Shed arrivals per op kind: `(gets, scans, appends)`.
    pub fn shed_by_kind(&self) -> (u64, u64, u64) {
        let mut n = (0u64, 0u64, 0u64);
        for e in &self.shed_events {
            match e.kind {
                OpKind::Get => n.0 += 1,
                OpKind::Scan => n.1 += 1,
                OpKind::Append => n.2 += 1,
            }
        }
        n
    }
}

impl Dataset {
    /// Drives an **open loop** against the dataset: requests are
    /// injected at arrival instants generated by `load.arrivals` on
    /// the virtual timeline *regardless of completions* — unlike
    /// [`Dataset::drive_closed_loop`], offered load does not slow down
    /// when the store saturates, which is what makes
    /// latency–throughput curves to saturation measurable. An arrival
    /// that finds `queue_depth` admitted operations still incomplete
    /// at its instant is **shed** and counted, the deterministic
    /// open-loop analogue of
    /// [`SubmitMode::Fail`](super::SubmitMode::Fail) load shedding.
    ///
    /// This is [`Dataset::drive_tenants`] with `load` as its one
    /// default tenant under [`SchedPolicyKind::Fifo`]: every op runs
    /// on the calling thread at its arrival, against the drive's own
    /// virtual clock starting at 0, so a fixed `(load, queue_depth)`
    /// on an identically-prepared dataset (same encode, cold cache)
    /// reproduces the [`QosReport`] bit-for-bit on any host. On a
    /// tracing dataset the spans' `token`s are arrival ordinals: shed
    /// arrivals leave gaps.
    ///
    /// ```
    /// use sage_store::client::DatasetBuilder;
    /// use sage_store::client::workload::{Arrivals, TenantLoad};
    /// use sage_genomics::sim::{simulate_dataset, DatasetProfile};
    /// use sage_ssd::SsdConfig;
    ///
    /// # fn main() -> Result<(), sage_store::StoreError> {
    /// let ds = simulate_dataset(&DatasetProfile::tiny_short(), 11);
    /// let dataset = DatasetBuilder::new()
    ///     .chunk_reads(16)
    ///     .cache_chunks(0)              // every op pays its device
    ///     .ssd(SsdConfig::pcie())
    ///     .encode(&ds.reads)?;
    ///
    /// let mut load = TenantLoad::new(Arrivals::Poisson { rate: 50.0 });
    /// load.requests = 64;
    /// let report = dataset.drive_open_loop(&load, 64)?;
    /// assert_eq!(report.offered, 64);
    /// assert_eq!(report.completed + report.shed, 64);
    /// assert!(report.latency.p99_ms >= report.latency.p50_ms);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`crate::StoreError::Config`] for a zero `queue_depth` or an
    /// invalid load, checked in [`MultiTenantSpec::validate`]'s order;
    /// otherwise the first operation error in arrival order, returned
    /// once the whole drive has run.
    pub fn drive_open_loop(&self, load: &TenantLoad, queue_depth: usize) -> Result<QosReport> {
        let mut multi =
            MultiTenantSpec::new(SchedPolicyKind::Fifo).tenant(TenantSpec::default(), *load);
        multi.queue_depth = queue_depth;
        let mut report = self.drive_tenants(&multi)?;
        Ok(report.tenants.swap_remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DatasetBuilder;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};
    use sage_ssd::SsdConfig;

    fn fleet_dataset(devices: usize) -> Dataset {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 77).reads;
        DatasetBuilder::new()
            .chunk_reads(16)
            .cache_chunks(0)
            .ssd_fleet((0..devices).map(|_| SsdConfig::pcie()).collect())
            .encode(&reads)
            .expect("build")
    }

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = WorkloadRng::new(42);
        let mut b = WorkloadRng::new(42);
        let draws: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        assert_eq!(draws, (0..64).map(|_| b.next_u64()).collect::<Vec<_>>());
        let mut c = WorkloadRng::new(7);
        let fs: Vec<f64> = (0..4096).map(|_| c.next_f64()).collect();
        assert!(fs.iter().all(|f| (0.0..1.0).contains(f)));
        let m = mean(&fs);
        assert!((m - 0.5).abs() < 0.05, "mean {m} far from 0.5");
        assert!(c.below(0) == 0 && c.below(1) == 0);
    }

    #[test]
    fn poisson_gaps_have_the_configured_mean() {
        let mut rng = WorkloadRng::new(3);
        let mut p = ArrivalGen::new(Arrivals::Poisson { rate: 200.0 });
        let gaps: Vec<f64> = (0..8192).map(|_| p.next_gap(&mut rng)).collect();
        assert!(gaps.iter().all(|g| *g >= 0.0 && g.is_finite()));
        let m = mean(&gaps);
        assert!((m - 1.0 / 200.0).abs() < 0.1 / 200.0, "mean gap {m}");
        // Fixed arrivals: every gap exactly 1/rate.
        let mut f = ArrivalGen::new(Arrivals::Fixed { rate: 50.0 });
        assert_eq!(f.next_gap(&mut rng), 0.02);
        assert_eq!(f.next_gap(&mut rng), 0.02);
    }

    #[test]
    fn bursty_long_run_rate_is_duty_cycled() {
        let cfg = Arrivals::Bursty {
            on_rate: 1000.0,
            mean_on: 0.05,
            mean_off: 0.15,
        };
        assert!((cfg.mean_rate() - 250.0).abs() < 1e-9);
        let mut rng = WorkloadRng::new(9);
        let mut p = ArrivalGen::new(cfg);
        let n = 20_000;
        let span: f64 = (0..n).map(|_| p.next_gap(&mut rng)).sum();
        let measured = n as f64 / span;
        assert!(
            (measured - 250.0).abs() < 25.0,
            "long-run bursty rate {measured} far from 250"
        );
    }

    #[test]
    fn zipf_concentrates_on_hot_slots() {
        let total = 10_000u64;
        let span = 100u64;
        let z = RangeGen::new(&Pattern::Zipf { theta: 1.1, span }, total);
        assert_eq!(z.cdf.len(), 100);
        let mut rng = WorkloadRng::new(5);
        let mut hot = 0usize;
        let n = 4096;
        for _ in 0..n {
            let r = z.next_range(&mut rng);
            assert!(r.end <= total && r.start < r.end);
            if r.start / span < 5 {
                hot += 1;
            }
        }
        // Under uniform the first 5 of 100 slots would get ~5%.
        assert!(
            hot as f64 / n as f64 > 0.35,
            "zipf hot share {}",
            hot as f64 / n as f64
        );
    }

    #[test]
    fn op_mix_picks_by_weight() {
        let mix = OpMix {
            get: 0.5,
            scan: 0.25,
            append: 0.25,
        };
        let mut stream =
            OpStream::new(&Pattern::Uniform { span: 4 }, mix, 17, 1000, ReadSet::new());
        let mut counts = [0usize; 3];
        for _ in 0..4096 {
            match stream.next_op().1 {
                OpKind::Get => counts[0] += 1,
                OpKind::Scan => counts[1] += 1,
                OpKind::Append => counts[2] += 1,
            }
        }
        assert!((counts[0] as f64 / 4096.0 - 0.5).abs() < 0.05);
        assert!((counts[1] as f64 / 4096.0 - 0.25).abs() < 0.05);
        assert!((counts[2] as f64 / 4096.0 - 0.25).abs() < 0.05);
    }

    #[test]
    fn spec_validation_rejects_degenerate_knobs() {
        let good = TenantLoad::new(Arrivals::Poisson { rate: 100.0 });
        assert!(good.validate().is_ok());
        let mut bad = good;
        bad.arrivals = Arrivals::Fixed { rate: 0.0 };
        assert_eq!(bad.validate(), Err(ConfigError::NonPositiveRate));
        let mut bad = good;
        bad.pattern = Pattern::Uniform { span: 0 };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroSpan));
        let mut bad = good;
        bad.mix = OpMix {
            get: 0.0,
            scan: 0.0,
            append: 0.0,
        };
        assert_eq!(bad.validate(), Err(ConfigError::DegenerateOpMix));
        // An invalid load or queue bound surfaces as a typed
        // StoreError; a zero depth is reported before a bad knob.
        let dataset = fleet_dataset(1);
        let mut load = TenantLoad::new(Arrivals::Poisson { rate: -1.0 });
        load.requests = 4;
        assert!(matches!(
            dataset.drive_open_loop(&load, 64),
            Err(crate::StoreError::Config(ConfigError::NonPositiveRate))
        ));
        assert!(matches!(
            dataset.drive_open_loop(&good, 0),
            Err(crate::StoreError::Config(ConfigError::ZeroQueueDepth))
        ));
        assert!(matches!(
            dataset.drive_open_loop(&load, 0),
            Err(crate::StoreError::Config(ConfigError::ZeroQueueDepth))
        ));
    }

    #[test]
    fn open_loop_measures_the_virtual_timeline() {
        let dataset = fleet_dataset(2);
        let mut load = TenantLoad::new(Arrivals::Poisson { rate: 100.0 });
        load.requests = 64;
        let report = dataset.drive_open_loop(&load, 64).expect("drive");
        assert_eq!(report.offered, 64);
        assert_eq!(report.completed + report.shed, 64);
        assert_eq!(report.latencies.len() as u64, report.completed);
        assert!(report.makespan > 0.0);
        assert!(report.achieved_rate > 0.0);
        assert!(report.offered_rate > 0.0);
        assert!(report.latency.p99_ms >= report.latency.p50_ms);
        assert!(report.reads_served > 0 && report.bases_served > 0);
        assert_eq!(report.utilization.len(), 2);
        assert!(report.device_busy.iter().any(|b| *b > 0.0));
    }

    #[test]
    fn overload_sheds_and_saturates() {
        // An absurd arrival rate against one device must shed most of
        // the offered load once the virtual queue fills.
        let run = |rate: f64, depth: usize| {
            let dataset = fleet_dataset(1);
            let mut load = TenantLoad::new(Arrivals::Fixed { rate });
            load.requests = 128;
            dataset.drive_open_loop(&load, depth).expect("drive")
        };
        let overloaded = run(1e7, 8);
        assert!(overloaded.shed > 0, "overload must shed");
        assert!(overloaded.shed_fraction() > 0.5);
        assert!(overloaded.achieved_rate < overloaded.offered_rate);
        // Every shed arrival carries its context: would-be kind and
        // arrival instant, in nondecreasing arrival order.
        assert_eq!(overloaded.shed_events.len() as u64, overloaded.shed);
        let (sg, ss, sa) = overloaded.shed_by_kind();
        assert_eq!(sg + ss + sa, overloaded.shed);
        assert_eq!(sg, overloaded.shed, "a pure-get mix sheds only gets");
        assert!(overloaded
            .shed_events
            .windows(2)
            .all(|w| w[0].arrival_vt <= w[1].arrival_vt));
        assert!(overloaded
            .shed_events
            .iter()
            .all(|e| e.arrival_vt.is_finite() && e.arrival_vt >= 0.0));
        // A gentle rate through the same machinery sheds nothing.
        let calm = run(10.0, 8);
        assert_eq!(calm.shed, 0);
        assert_eq!(calm.completed, 128);
        // Overload latency (bounded by the queue) still exceeds calm.
        assert!(overloaded.latency.p99_ms > calm.latency.p99_ms);
    }

    #[test]
    fn same_seed_same_spec_is_bit_identical() {
        let run = || {
            let dataset = fleet_dataset(2);
            let mut load = TenantLoad::new(Arrivals::Bursty {
                on_rate: 4000.0,
                mean_on: 0.01,
                mean_off: 0.01,
            });
            load.pattern = Pattern::Zipf {
                theta: 1.0,
                span: 16,
            };
            load.requests = 96;
            load.seed = 0xfeed;
            dataset.drive_open_loop(&load, 16).expect("drive")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical seed+load must reproduce the QosReport");
        assert!(a.completed > 0);
    }

    #[test]
    fn mixed_streams_report_per_kind_outcomes() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 78).reads;
        let dataset = DatasetBuilder::new()
            .chunk_reads(16)
            .cache_chunks(4)
            .tracing(true)
            .encode(&reads)
            .expect("build");
        let before = dataset.total_reads();
        let mut load = TenantLoad::new(Arrivals::Poisson { rate: 500.0 });
        load.mix = OpMix {
            get: 0.8,
            scan: 0.1,
            append: 0.1,
        };
        load.requests = 80;
        let report = dataset.drive_open_loop(&load, 64).expect("drive");
        // Each completed op's span carries its kind and cache outcome.
        let spans = dataset.trace().expect("tracing dataset").spans();
        assert_eq!(spans.len() as u64, report.completed);
        let of_kind = |kind: &'static str| spans.iter().filter(move |s| s.kind == kind);
        for kind in ["get", "scan", "append"] {
            assert!(of_kind(kind).count() > 0, "no {kind} completed");
        }
        // Appends really landed.
        assert!(dataset.total_reads() > before);
        // Scans walk chunks; with a warm cache some touches hit.
        assert!(of_kind("scan").all(|s| s.chunks_touched > 0));
        assert!(spans.iter().map(|s| s.cache_hits).sum::<u64>() > 0);
    }

    #[test]
    fn shed_attribution_follows_the_mix() {
        // Overload a mixed stream: shed kinds come from a dedicated
        // stream with the mix's own weights, so a weight-0 kind never
        // appears and the dominant kind dominates.
        let dataset = fleet_dataset(1);
        let mut load = TenantLoad::new(Arrivals::Fixed { rate: 1e7 });
        load.mix = OpMix {
            get: 0.9,
            scan: 0.1,
            append: 0.0,
        };
        load.requests = 256;
        let report = dataset.drive_open_loop(&load, 4).expect("drive");
        assert!(report.shed > 100, "deep overload expected");
        let (sg, ss, sa) = report.shed_by_kind();
        assert_eq!(sa, 0, "weight-0 appends must never be attributed");
        assert_eq!(sg + ss, report.shed);
        assert!(
            sg > ss,
            "gets dominate the mix so they dominate sheds: {sg} vs {ss}"
        );
        for e in &report.shed_events {
            assert!(matches!(e.kind, OpKind::Get | OpKind::Scan));
            assert_eq!(e.kind.label() == "get", e.kind == OpKind::Get);
        }
    }

    #[test]
    fn traced_open_loop_records_replayable_spans() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 77).reads;
        let traced_ds = DatasetBuilder::new()
            .chunk_reads(16)
            .cache_chunks(0)
            .ssd_fleet(vec![SsdConfig::pcie(), SsdConfig::pcie()])
            .tracing(true)
            .encode(&reads)
            .expect("build");
        let mut load = TenantLoad::new(Arrivals::Poisson { rate: 100.0 });
        load.requests = 64;
        let traced = traced_ds.drive_open_loop(&load, 64).expect("traced drive");
        // Bit-identical to the untraced fixture dataset (same reads,
        // same encode, same load): tracing observes, never perturbs.
        let plain = fleet_dataset(2).drive_open_loop(&load, 64).expect("drive");
        assert_eq!(plain, traced);

        let buf = traced_ds.trace().expect("tracing dataset has a buffer");
        let spans = buf.spans();
        assert_eq!(spans.len() as u64, traced.completed);
        assert!(spans.iter().all(|s| !s.intervals.is_empty()));
        let replay = crate::obs::replay(&spans, 2);
        assert!(replay.exact(), "{} mismatches", replay.mismatches);
        let mut busy = vec![0.0f64; 2];
        for iv in spans.iter().flat_map(|s| &s.intervals) {
            busy[iv.device] += iv.seconds;
        }
        assert_eq!(busy, traced.device_busy);
    }
}
