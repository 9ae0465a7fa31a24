//! Multi-tenant QoS: tenant identities, per-tenant service specs, and
//! the multi-tenant open-loop driver.
//!
//! A [`TenantSpec`] declares how one tenant's operations are treated
//! by the serving stack: its scheduling `priority` (strict-priority
//! policy), fair-share `weight` (weighted-fair policy), and per-op
//! deadline derived from its `slo` (deadline policy). Every tenant
//! sheds under the one global queue bound,
//! [`MultiTenantSpec::queue_depth`]. Tenants are listed in a
//! [`MultiTenantSpec`] in order; their index is their [`TenantId`].
//! Sessions have no tenant: a served op reports what the engine
//! measured, and only a drive attributes device time to tenants.
//!
//! [`Dataset::drive_tenants`] is the one open-loop driver: each tenant
//! offers an independent seeded open-loop stream ([`TenantLoad`]), the
//! streams are merged on the virtual timeline by arrival instant, and
//! the device scheduler orders the pending work by the configured
//! [`SchedPolicyKind`]. The drive runs every op on the caller's thread
//! in arrival order, so it is bit-deterministic on any host;
//! [`Dataset::drive_open_loop`] is this driver with a single default
//! tenant under the `Fifo` policy (its reports are pinned cell by cell
//! in `tests/prop_qos.rs`).

use super::driver::VirtualDrive;
use super::stats::{utilization_over, DriveAccounting, DriveFold};
use super::workload::{
    ArrivalGen, OpKind, OpStream, QosReport, ShedEvent, TenantLoad, WorkloadRng, ARRIVAL_STREAM,
    OP_STREAM, SHED_STREAM,
};
use super::{Dataset, EngineCqe};
use crate::{ConfigError, Result};
use sage_genomics::ReadSet;
use sage_io::{SchedPolicyKind, SchedTag};
use std::sync::Arc;

/// A tenant's identity in a drive: its position in the
/// [`MultiTenantSpec`]. The first listed tenant is `TenantId(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub usize);

impl TenantId {
    /// The tenant's position in its drive's spec.
    pub fn index(self) -> usize {
        self.0
    }
}

/// How the serving stack treats one tenant's operations.
///
/// Each field feeds a different scheduling policy, so one spec
/// describes the tenant under every policy the sweep compares:
///
/// | field       | consumed by                        |
/// |-------------|------------------------------------|
/// | `priority`  | [`SchedPolicyKind::StrictPriority`] |
/// | `weight`    | [`SchedPolicyKind::WeightedFair`]  |
/// | `slo`       | [`SchedPolicyKind::Deadline`] (per-op deadline = submit + slo) |
///
/// ```
/// use sage_store::client::TenantSpec;
///
/// // A latency-sensitive foreground tenant: high priority, 4× the
/// // fair share, and a 50 ms SLO.
/// let fg = TenantSpec::named("frontend")
///     .with_priority(200)
///     .with_weight(4.0)
///     .with_slo(0.050);
/// assert_eq!(fg.priority, 200);
/// assert_eq!(fg.slo, Some(0.050));
///
/// // A best-effort batch tenant with the default fair share.
/// let bg = TenantSpec::named("batch");
/// assert!(fg.validate().is_ok() && bg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Display label for sweep tables and bench JSON.
    pub name: &'static str,
    /// Strict-priority rank: higher is served first (255 is the
    /// highest).
    pub priority: u8,
    /// Weighted-fair share of device time relative to other tenants.
    pub weight: f64,
    /// Latency objective in virtual seconds; under the deadline
    /// policy each op's deadline is its submit instant plus this.
    /// `None` means no deadline (served after every deadlined op).
    pub slo: Option<f64>,
}

impl Default for TenantSpec {
    fn default() -> TenantSpec {
        TenantSpec {
            name: "default",
            priority: 0,
            weight: 1.0,
            slo: None,
        }
    }
}

impl TenantSpec {
    /// The default spec (priority 0, weight 1, no SLO) under `name`.
    pub fn named(name: &'static str) -> TenantSpec {
        TenantSpec {
            name,
            ..TenantSpec::default()
        }
    }

    /// Returns the spec with a strict-priority rank.
    pub fn with_priority(mut self, priority: u8) -> TenantSpec {
        self.priority = priority;
        self
    }

    /// Returns the spec with a weighted-fair share.
    pub fn with_weight(mut self, weight: f64) -> TenantSpec {
        self.weight = weight;
        self
    }

    /// Returns the spec with a latency SLO (virtual seconds).
    pub fn with_slo(mut self, slo: f64) -> TenantSpec {
        self.slo = Some(slo);
        self
    }

    /// The scheduling tag for one operation of this tenant, submitted
    /// at `submit_vt`.
    pub fn tag(&self, tenant: TenantId, submit_vt: f64) -> SchedTag {
        SchedTag {
            tenant: tenant.index(),
            priority: self.priority,
            weight: self.weight,
            deadline_vt: self.slo.map_or(f64::INFINITY, |s| submit_vt + s),
        }
    }

    /// Checks the spec's knobs.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadTenant`] when the weight or SLO is not a
    /// positive finite number.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return Err(ConfigError::BadTenant);
        }
        if let Some(slo) = self.slo {
            if !(slo.is_finite() && slo > 0.0) {
                return Err(ConfigError::BadTenant);
            }
        }
        Ok(())
    }
}

/// Sizing of one multi-tenant open-loop drive: the scheduling policy
/// under test, the shared serving knobs, and one `(TenantSpec,
/// TenantLoad)` pair per tenant (list order is [`TenantId`] order).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantSpec {
    /// Device scheduling policy ordering the pending work.
    pub policy: SchedPolicyKind,
    /// Global virtual queue bound: an arrival that finds this many
    /// operations occupying the virtual queue is shed, whichever
    /// tenant it belongs to.
    pub queue_depth: usize,
    /// The tenants, in [`TenantId`] order.
    pub tenants: Vec<(TenantSpec, TenantLoad)>,
}

impl MultiTenantSpec {
    /// A spec under `policy` with a 64-deep queue and no tenants yet
    /// (add them with [`MultiTenantSpec::tenant`]).
    pub fn new(policy: SchedPolicyKind) -> MultiTenantSpec {
        MultiTenantSpec {
            policy,
            queue_depth: 64,
            tenants: Vec::new(),
        }
    }

    /// Appends one tenant; its [`TenantId`] is its position.
    pub fn tenant(mut self, spec: TenantSpec, load: TenantLoad) -> MultiTenantSpec {
        self.tenants.push((spec, load));
        self
    }

    /// Checks every knob.
    ///
    /// # Errors
    ///
    /// The first failing knob's [`ConfigError`];
    /// [`ConfigError::BadTenant`] when no tenants are configured.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        if self.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if self.tenants.is_empty() {
            return Err(ConfigError::BadTenant);
        }
        for (spec, load) in &self.tenants {
            spec.validate()?;
            load.validate()?;
        }
        Ok(())
    }
}

/// What a multi-tenant drive measured: one full [`QosReport`] per
/// tenant plus each tenant's queue delay.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiQosReport {
    /// Per-tenant reports, in [`TenantId`] order. Each tenant's
    /// `device_busy` is its *own* attributed service seconds (its row
    /// of [`VirtualScheduler::tenant_busy_seconds`](sage_io::VirtualScheduler::tenant_busy_seconds)),
    /// its rates and utilization are over its own makespan.
    pub tenants: Vec<QosReport>,
    /// Virtual seconds each tenant's charges spent queued before
    /// service.
    pub tenant_queue_delay: Vec<f64>,
}

impl MultiQosReport {
    /// Shed arrivals per tenant, in [`TenantId`] order.
    pub fn shed_by_tenant(&self) -> Vec<u64> {
        self.tenants.iter().map(|t| t.shed).collect()
    }
}

/// One tenant's live generator state during a drive.
struct TenantStream {
    arrivals: ArrivalGen,
    arrival_rng: WorkloadRng,
    ops: OpStream,
    shed_rng: WorkloadRng,
    /// Next arrival instant (valid while `remaining > 0`).
    next_at: f64,
    /// Arrivals left to generate.
    remaining: u64,
    /// Instant of the last generated arrival (the tenant's offered
    /// span).
    last_at: f64,
    shed_events: Vec<ShedEvent>,
}

impl Dataset {
    /// Drives several tenants' open-loop streams under a chosen
    /// scheduling policy, merged on the virtual timeline by arrival
    /// instant (ties go to the lower [`TenantId`]).
    ///
    /// Admitted operations *queue* at the device scheduler, and the
    /// policy decides service order: a high-priority arrival can
    /// start before an earlier-submitted low-priority one. An arrival
    /// that finds the virtual queue holding at least `queue_depth`
    /// incomplete operations is shed with tenant attribution.
    ///
    /// Each admitted operation runs on the calling thread at its
    /// arrival, against the drive's own virtual clock starting at 0,
    /// so the report is a pure function of the dataset's state and the
    /// spec on any host, and a panic in an operation unwinds the
    /// caller. [`Dataset::drive_open_loop`] is this drive with a single
    /// default tenant under [`SchedPolicyKind::Fifo`].
    ///
    /// On a tracing dataset each completed op also lands in the
    /// dataset's span buffer with its per-charge service windows, in
    /// admission order once the drive has run (the buffer keeps every
    /// span for the dataset's life, so drive a fresh dataset to keep
    /// runs separable).
    /// A span's `token` is its **arrival ordinal** in the merged
    /// stream — shed arrivals leave gaps — and recording is
    /// observation-only: the timeline and report are bit-identical
    /// either way.
    ///
    /// # Errors
    ///
    /// [`crate::StoreError::Config`] for an invalid spec; otherwise
    /// the first operation error in admission order, returned after
    /// the whole drive has run (operations admitted after the failed
    /// one still execute).
    pub fn drive_tenants(&self, spec: &MultiTenantSpec) -> Result<MultiQosReport> {
        spec.validate().map_err(crate::StoreError::Config)?;
        let engine = self.engine();
        let total = engine.total_reads();
        let devices = engine.n_devices().max(1);
        let n_tenants = spec.tenants.len();

        // When appends are in a tenant's mix, its template is sampled
        // before the drive's clock starts (warming the chunks it
        // touches).
        let mut streams: Vec<TenantStream> = Vec::with_capacity(n_tenants);
        for (_, load) in &spec.tenants {
            let template = if load.mix.append > 0.0 && total > 0 {
                engine.get(0..total.min(4))?
            } else {
                ReadSet::new()
            };
            let mut arrivals = ArrivalGen::new(load.arrivals);
            let mut arrival_rng = WorkloadRng::new(load.seed ^ ARRIVAL_STREAM);
            let first = if load.requests > 0 {
                arrivals.next_gap(&mut arrival_rng).max(0.0)
            } else {
                0.0
            };
            streams.push(TenantStream {
                arrivals,
                arrival_rng,
                ops: OpStream::new(
                    &load.pattern,
                    load.mix,
                    load.seed ^ OP_STREAM,
                    total,
                    template,
                ),
                shed_rng: WorkloadRng::new(load.seed ^ SHED_STREAM),
                next_at: first,
                remaining: load.requests,
                last_at: 0.0,
                shed_events: Vec::new(),
            });
        }

        let trace_buf = self.trace();
        let mut drive = VirtualDrive::new(Arc::clone(engine), spec.policy, trace_buf.is_some());

        // Completion instants of *resolved* admitted ops; entries ≤
        // the current arrival instant have drained from the virtual
        // queue. Ops still pending at the scheduler necessarily
        // complete after the arrival frontier, so they always count
        // toward occupancy.
        let mut inflight: Vec<f64> = Vec::with_capacity(spec.queue_depth);
        let mut arrived = 0u64;
        // Tenant, kind and arrival ordinal per admission token (its
        // index), for end-of-run accounting.
        let mut token_meta: Vec<(usize, OpKind, u64)> = Vec::new();
        let mut done: Vec<EngineCqe> = Vec::new();

        // Merge arrivals across tenants: serve the earliest pending
        // instant each round; ties go to the lower tenant id.
        while let Some(t) = (0..n_tenants)
            .filter(|&t| streams[t].remaining > 0)
            .min_by(|&a, &b| {
                streams[a]
                    .next_at
                    .partial_cmp(&streams[b].next_at)
                    .expect("finite arrival instants")
            })
        {
            let at = streams[t].next_at;
            let ordinal = arrived;
            arrived += 1;
            streams[t].last_at = at;
            streams[t].remaining -= 1;
            if streams[t].remaining > 0 {
                let gap = {
                    let s = &mut streams[t];
                    s.arrivals.next_gap(&mut s.arrival_rng).max(0.0)
                };
                streams[t].next_at = at + gap;
            }

            // Resolve the timeline up to this arrival, so occupancy is
            // exact.
            for cqe in drive.advance_to(at) {
                inflight.push(cqe.completed_vt);
                done.push(cqe);
            }
            inflight.retain(|done_at| *done_at > at);
            let unresolved = token_meta.len() - done.len();
            if unresolved + inflight.len() >= spec.queue_depth {
                let s = &mut streams[t];
                let kind = spec.tenants[t].1.mix.pick(&mut s.shed_rng);
                s.shed_events.push(ShedEvent {
                    kind,
                    arrival_vt: at,
                    tenant: t,
                });
                continue;
            }
            let tag = spec.tenants[t].0.tag(TenantId(t), at);
            let (op, kind) = streams[t].ops.next_op();
            let token = token_meta.len() as u64;
            token_meta.push((t, kind, ordinal));
            if let Some(cqe) = drive.submit(op, token, at, tag) {
                inflight.push(cqe.completed_vt);
                done.push(cqe);
            }
        }

        // Flush the tail: everything admitted resolves below an
        // infinite frontier.
        done.extend(drive.advance_to(f64::INFINITY));
        debug_assert_eq!(done.len(), token_meta.len(), "flushed drive drains fully");
        let sched = drive.scheduler();

        // Account in admission order, whatever order the policy
        // served in: each tenant's histogram folds (and their means'
        // addition order) depend on the streams alone.
        done.sort_by_key(|c| c.user_data);
        let mut acc: Vec<DriveAccounting> =
            (0..n_tenants).map(|_| DriveAccounting::new()).collect();
        for cqe in done {
            let (t, kind, ordinal) = token_meta[cqe.user_data as usize];
            acc[t].record(cqe, kind, t, ordinal, trace_buf.as_deref())?;
        }

        // Scheduler rows exist only for tenants that dispatched; pad
        // so every registered tenant has a row.
        let mut tenant_busy = sched.tenant_busy_seconds().to_vec();
        tenant_busy.resize(n_tenants, vec![0.0; devices]);
        let mut tenant_queue_delay = sched.tenant_queue_delay().to_vec();
        tenant_queue_delay.resize(n_tenants, 0.0);

        let mut tenants_out = Vec::with_capacity(n_tenants);
        for (t, ((a, s), busy)) in acc.into_iter().zip(streams).zip(tenant_busy).enumerate() {
            let fold = a.fold();
            let load = &spec.tenants[t].1;
            let offered_rate = if s.last_at > 0.0 {
                load.requests as f64 / s.last_at
            } else {
                load.arrivals.mean_rate()
            };
            tenants_out.push(qos_report(
                fold,
                load.requests,
                offered_rate,
                s.shed_events,
                busy,
            ));
        }
        Ok(MultiQosReport {
            tenants: tenants_out,
            tenant_queue_delay,
        })
    }
}

/// The one [`QosReport`] constructor every drive builds through: its
/// folded completions, what it offered (`offered` arrivals at
/// `offered_rate`), its sheds, and its busy seconds per device.
pub(super) fn qos_report(
    fold: DriveFold,
    offered: u64,
    offered_rate: f64,
    shed_events: Vec<ShedEvent>,
    device_busy: Vec<f64>,
) -> QosReport {
    QosReport {
        offered,
        completed: fold.completed,
        shed: shed_events.len() as u64,
        shed_events,
        offered_rate,
        achieved_rate: fold.rate,
        makespan: fold.makespan,
        latency: fold.latency,
        latencies: fold.latencies,
        utilization: utilization_over(&device_busy, fold.makespan),
        device_busy,
        reads_served: fold.reads_served,
        bases_served: fold.bases_served,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::workload::Arrivals;
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

    #[test]
    fn tenant_spec_validation_is_typed() {
        assert!(TenantSpec::default().validate().is_ok());
        assert_eq!(
            TenantSpec::default().with_weight(0.0).validate(),
            Err(ConfigError::BadTenant)
        );
        assert_eq!(
            TenantSpec::default().with_weight(f64::NAN).validate(),
            Err(ConfigError::BadTenant)
        );
        assert_eq!(
            TenantSpec::default().with_slo(-1.0).validate(),
            Err(ConfigError::BadTenant)
        );
        let empty = MultiTenantSpec::new(SchedPolicyKind::Fifo);
        assert_eq!(empty.validate(), Err(ConfigError::BadTenant));
    }

    #[test]
    fn tag_derives_deadline_from_slo() {
        let spec = TenantSpec::named("fg").with_priority(9).with_slo(0.25);
        let tag = spec.tag(TenantId(3), 1.0);
        assert_eq!(tag.tenant, 3);
        assert_eq!(tag.priority, 9);
        assert_eq!(tag.deadline_vt, 1.25);
        let open = TenantSpec::default().tag(TenantId(0), 1.0);
        assert_eq!(open.deadline_vt, f64::INFINITY);
    }

    #[test]
    fn multi_tenant_drive_reports_per_tenant() {
        let dataset = fleet_dataset(2);
        let mut fg = TenantLoad::new(Arrivals::Poisson { rate: 120.0 });
        fg.requests = 48;
        fg.seed = 0x11;
        let mut bg = TenantLoad::new(Arrivals::Poisson { rate: 60.0 });
        bg.requests = 24;
        bg.seed = 0x22;
        let spec = MultiTenantSpec::new(SchedPolicyKind::WeightedFair)
            .tenant(TenantSpec::named("fg").with_weight(4.0), fg)
            .tenant(TenantSpec::named("bg"), bg);
        let report = dataset.drive_tenants(&spec).expect("drive");
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenant_queue_delay.len(), 2);
        let fg_r = &report.tenants[0];
        let bg_r = &report.tenants[1];
        assert_eq!(fg_r.completed + fg_r.shed, 48);
        assert_eq!(bg_r.completed + bg_r.shed, 24);
        assert!(fg_r.latency.p99_ms >= fg_r.latency.p50_ms);
        assert_eq!(fg_r.device_busy.len(), 2);
        assert_eq!(bg_r.device_busy.len(), 2);
    }

    #[test]
    fn same_spec_same_seeds_reproduce_the_multi_report() {
        let run = |policy| {
            let dataset = fleet_dataset(2);
            let mut fg = TenantLoad::new(Arrivals::Bursty {
                on_rate: 2000.0,
                mean_on: 0.01,
                mean_off: 0.01,
            });
            fg.requests = 40;
            fg.seed = 0xfeed;
            let mut bg = TenantLoad::new(Arrivals::Poisson { rate: 400.0 });
            bg.requests = 40;
            bg.seed = 0xbeef;
            let spec = MultiTenantSpec::new(policy)
                .tenant(TenantSpec::named("fg").with_priority(200), fg)
                .tenant(TenantSpec::named("bg"), bg);
            dataset.drive_tenants(&spec).expect("drive")
        };
        for policy in SchedPolicyKind::ALL {
            let a = run(policy);
            let b = run(policy);
            assert_eq!(a, b, "policy {policy:?} must be bit-deterministic");
            assert!(a.tenants[0].completed > 0);
        }
    }

    #[test]
    fn global_bound_sheds_every_tenant_with_attribution() {
        // Two tenants overload one device behind a 4-deep queue: the
        // one global bound sheds both, and every shed is billed to the
        // tenant whose arrival it turned away.
        let dataset = fleet_dataset(1);
        let mut fg = TenantLoad::new(Arrivals::Fixed { rate: 20_000.0 });
        fg.requests = 64;
        fg.seed = 0x1;
        let mut bg = TenantLoad::new(Arrivals::Fixed { rate: 50_000.0 });
        bg.requests = 256;
        bg.seed = 0x2;
        let mut spec = MultiTenantSpec::new(SchedPolicyKind::Fifo)
            .tenant(TenantSpec::named("fg"), fg)
            .tenant(TenantSpec::named("bg"), bg);
        spec.queue_depth = 4;
        let report = dataset.drive_tenants(&spec).expect("drive");
        let sheds = report.shed_by_tenant();
        assert!(sheds.iter().all(|&s| s > 0), "both tenants shed: {sheds:?}");
        for (t, (r, load)) in report.tenants.iter().zip([fg, bg]).enumerate() {
            assert!(r.shed_events.iter().all(|e| e.tenant == t));
            assert_eq!(r.shed_events.len() as u64, r.shed);
            assert_eq!(r.completed + r.shed, load.requests);
        }
    }
}
