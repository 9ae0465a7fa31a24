//! # Virtual-time observability: span tracing, unified metrics,
//! Perfetto export, and the analysis tier
//!
//! The serving stack explains itself through this one substrate
//! instead of a scatter of one-off structs:
//!
//! - **Span tracing** — every completed operation becomes an
//!   [`OpSpan`] on the *virtual* timeline: its submit / service-start
//!   / completion instants, the per-device [`ChargeInterval`]s the
//!   scheduler actually booked, and the engine-side [`EngineEvent`]s
//!   (cache probes, decodes, device commands). Spans are recorded
//!   into a lock-cheap [`TraceBuffer`] behind the
//!   [`DatasetBuilder::tracing`](crate::client::DatasetBuilder::tracing)
//!   knob, with the hard invariant that **tracing never perturbs the
//!   timeline**: a traced run is bit-identical to an untraced one
//!   (the traced and untraced scheduler paths share one arithmetic —
//!   see [`sage_io::VirtualScheduler::dispatch`] — and the
//!   property test `tracing_is_zero_perturbation` holds it).
//! - **Unified metrics** — [`MetricsSnapshot`] gathers the serving
//!   counters, cache outcomes, lock accounting, and device busy
//!   seconds behind one
//!   [`Dataset::metrics()`](crate::client::Dataset::metrics) call,
//!   one typed field per figure; [`LogHistogram`] is the shared log-bucketed latency
//!   distribution every drive report aggregates through.
//! - **Windowed sampling** — [`MetricsRecorder::sample_every`] slices
//!   a span stream into fixed virtual-time windows and produces the
//!   queue-depth / utilization / hit-rate curves ([`WindowSeries`])
//!   the paper's figure-level evidence is built from. Window busy
//!   seconds integrate back to the scheduler's per-device busy
//!   totals by construction.
//! - **Analysis** — [`analysis`] turns span streams into answers:
//!   per-op latency blame that sums bitwise to the op's latency
//!   ([`analysis::LatencyBlame`]), windowed bottleneck labels in a
//!   run-level [`analysis::BlameReport`], top-k tail forensics per op
//!   kind, and deterministic SLO burn-rate monitors
//!   ([`analysis::SloSpec`]). Analysis is strictly read-only: it
//!   consumes recorded spans and never touches the timeline.
//! - **Export** — [`TraceBuffer::to_chrome_trace`] renders any run's
//!   span buffer as Chrome trace-event JSON loadable in Perfetto
//!   (<https://ui.perfetto.dev>), and [`replay`] re-dispatches a span
//!   stream through a fresh [`VirtualScheduler`] to prove the trace
//!   reconstructs every operation's instants exactly.

use crate::engine::OpTrace;
use sage_io::{ChargeInterval, Cqe, DeviceCharge, VirtualScheduler};
use std::sync::Mutex;

pub mod analysis;
mod hist;
mod metrics;

pub use hist::LogHistogram;
pub use metrics::{MetricsRecorder, MetricsSnapshot, WindowSeries};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One engine-side event serving an operation — the child events of
/// an [`OpSpan`]. Emitted by the engine only when tracing is on
/// ([`EngineConfig::with_tracing`](crate::engine::EngineConfig::with_tracing)),
/// in deterministic chunk order, so the tracing-off path allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineEvent {
    /// The decoded-chunk cache was probed for `chunk`.
    CacheProbe {
        /// Chunk id probed.
        chunk: u32,
        /// Whether the probe hit.
        hit: bool,
    },
    /// `chunk` missed and was fetched + decoded.
    Decode {
        /// Chunk id decoded.
        chunk: u32,
    },
    /// One device command was issued: one per missed chunk, or per
    /// appended chunk.
    DeviceCommand {
        /// Device the command went to.
        device: usize,
        /// Service seconds charged.
        seconds: f64,
    },
}

impl EngineEvent {
    /// Display label (the Chrome-trace event name).
    pub fn label(&self) -> &'static str {
        match self {
            EngineEvent::CacheProbe { hit: true, .. } => "cache_hit",
            EngineEvent::CacheProbe { hit: false, .. } => "cache_miss",
            EngineEvent::Decode { .. } => "decode",
            EngineEvent::DeviceCommand { .. } => "device_command",
        }
    }
}

/// One driven operation on the virtual timeline: the structured span
/// a tracing dataset's drives record per completed op.
///
/// The span carries everything needed to reconstruct the operation's
/// place on the drive's timeline exactly — the three instants, the
/// per-charge service windows as the scheduler booked them, and the
/// engine's cache outcome — which is what [`replay`] and the
/// `trace_explorer` bench assert.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSpan {
    /// Submission token: the op's completion ordinal in a closed
    /// loop, its arrival ordinal in an open-loop drive.
    pub token: u64,
    /// Tenant the operation was submitted for (0 is the default
    /// tenant; see [`TenantSpec`](crate::client::TenantSpec)).
    pub tenant: usize,
    /// Operation kind label (`"get"`, `"scan"`, `"append"`).
    pub kind: &'static str,
    /// Virtual instant the operation was submitted.
    pub submitted_vt: f64,
    /// Virtual instant device service began.
    pub started_vt: f64,
    /// Virtual instant the operation completed.
    pub completed_vt: f64,
    /// Completion queue (device) the operation finished on.
    pub device: usize,
    /// Total device seconds charged.
    pub device_seconds: f64,
    /// Per-charge service windows in charge order — the per-device
    /// decomposition of the op's place on the timeline.
    pub intervals: Vec<ChargeInterval>,
    /// Chunks the operation touched.
    pub chunks_touched: u64,
    /// Touched chunks served from the cache.
    pub cache_hits: u64,
    /// Touched chunks fetched and decoded.
    pub cache_misses: u64,
    /// Device commands issued (the length of the op's charge list).
    pub device_ops: u64,
    /// Engine-side child events (empty unless engine tracing is on).
    pub events: Vec<EngineEvent>,
}

impl OpSpan {
    /// The span of one drive completion `cqe` whose engine trace is
    /// `trace`, tagged with its submission `token`, kind label and
    /// `tenant` (0 is the default tenant).
    pub(crate) fn of_drive<T>(
        cqe: &Cqe<T>,
        trace: &OpTrace,
        token: u64,
        kind: &'static str,
        tenant: usize,
    ) -> OpSpan {
        OpSpan {
            token,
            tenant,
            kind,
            submitted_vt: cqe.submitted_vt,
            started_vt: cqe.started_vt,
            completed_vt: cqe.completed_vt,
            device: cqe.device,
            device_seconds: cqe.device_seconds,
            intervals: cqe.intervals.clone(),
            chunks_touched: trace.chunks_touched,
            cache_hits: trace.cache_hits,
            cache_misses: trace.cache_misses,
            device_ops: trace.charges.len() as u64,
            events: trace.events.clone(),
        }
    }

    /// Submit-to-completion virtual latency.
    pub fn latency(&self) -> f64 {
        self.completed_vt - self.submitted_vt
    }

    /// Virtual seconds spent queued before service began.
    pub fn queue_wait(&self) -> f64 {
        self.started_vt - self.submitted_vt
    }

    /// The operation's device charges, recovered from its service
    /// intervals — feed these back through a fresh scheduler (see
    /// [`replay`]) to reproduce the span's instants bit-for-bit.
    pub fn charges(&self) -> Vec<DeviceCharge> {
        self.intervals
            .iter()
            .map(|iv| DeviceCharge {
                device: iv.device,
                seconds: iv.seconds,
            })
            .collect()
    }
}

/// The per-dataset span sink: a mutex over an append-only list that
/// keeps every span.
///
/// Recording is one short lock hold per completed op — observation
/// only, never on the virtual timeline (the scheduler's clocks are
/// advanced before anything is recorded, through arithmetic shared
/// with the untraced path).
///
/// ```
/// use sage_store::obs::{OpSpan, TraceBuffer};
///
/// let buf = TraceBuffer::new();
/// buf.record(OpSpan {
///     token: 0,
///     tenant: 0,
///     kind: "get",
///     submitted_vt: 0.0,
///     started_vt: 0.001,
///     completed_vt: 0.003,
///     device: 0,
///     device_seconds: 0.002,
///     intervals: Vec::new(),
///     chunks_touched: 1,
///     cache_hits: 0,
///     cache_misses: 1,
///     device_ops: 1,
///     events: Vec::new(),
/// });
/// assert_eq!(buf.len(), 1);
/// let json = buf.to_chrome_trace();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// assert!(json.contains("\"ph\":\"X\"") && json.contains("\"dur\":"));
/// // Load the written file in https://ui.perfetto.dev ("Open trace").
/// ```
#[derive(Debug, Default)]
pub struct TraceBuffer {
    spans: Mutex<Vec<OpSpan>>,
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> TraceBuffer {
        TraceBuffer::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<OpSpan>> {
        self.spans.lock().expect("trace buffer poisoned")
    }

    /// Appends one span.
    pub fn record(&self, span: OpSpan) {
        self.lock().push(span);
    }

    /// Spans held right now.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the held spans, in recording order. For the
    /// open-loop and closed-loop drives under FIFO recording order
    /// equals dispatch order, which is what [`replay`] requires.
    pub fn spans(&self) -> Vec<OpSpan> {
        self.lock().clone()
    }

    /// Renders the buffer as Chrome trace-event JSON — load the
    /// string (written to a `.json` file) in Perfetto
    /// (<https://ui.perfetto.dev>) or `chrome://tracing`.
    ///
    /// Track layout: each tenant gets its own process of op lanes —
    /// the default tenant 0 is pid 1 ("ops"), tenant `t ≥ 1` is pid
    /// `10 + t` ("tenant{t}") — holding one `"X"` complete event per
    /// operation, packed onto overlap-free lanes (tids) greedily by
    /// submit instant, with the engine's child events as `"i"`
    /// instants on the op's lane; pid 2 ("devices") holds one `"X"`
    /// event per [`ChargeInterval`] on the owning device's tid —
    /// per-device service is non-overlapping by scheduler
    /// construction, so every track is well-nested. A single-tenant
    /// trace has pids 1 and 2 only. Timestamps are virtual
    /// microseconds.
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(&self.spans())
    }
}

/// Renders a span slice as Chrome trace-event JSON (the layout
/// [`TraceBuffer::to_chrome_trace`] describes).
fn chrome_trace(spans: &[OpSpan]) -> String {
    let us = |vt: f64| vt * 1e6;
    let tenant_pid = |t: usize| if t == 0 { 1 } else { 10 + t };
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        spans[a]
            .submitted_vt
            .partial_cmp(&spans[b].submitted_vt)
            .expect("finite instants")
            .then(spans[a].token.cmp(&spans[b].token))
    });
    // Greedy lane packing per tenant process: an op takes the first
    // lane of its tenant free at its submit instant, so events on one
    // lane never overlap.
    let mut tenant_lanes: std::collections::BTreeMap<usize, Vec<f64>> =
        std::collections::BTreeMap::new();
    let mut events: Vec<String> = Vec::with_capacity(spans.len() * 2 + 2);
    events.push(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"ops\"}}".into(),
    );
    events.push(
        "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"devices\"}}".into(),
    );
    let mut named: Vec<usize> = Vec::new();
    for &ix in &order {
        let s = &spans[ix];
        let pid = tenant_pid(s.tenant);
        if s.tenant != 0 && !named.contains(&s.tenant) {
            named.push(s.tenant);
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"tenant{}\"}}}}",
                s.tenant,
            ));
        }
        let lane_free = tenant_lanes.entry(s.tenant).or_default();
        let lane = match lane_free.iter().position(|&f| f <= s.submitted_vt) {
            Some(l) => l,
            None => {
                lane_free.push(0.0);
                lane_free.len() - 1
            }
        };
        lane_free[lane] = s.completed_vt;
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{lane},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"token\":{},\"tenant\":{},\"device\":{},\"device_seconds\":{:.9},\"queue_wait_us\":{:.3},\
             \"chunks\":{},\"cache_hits\":{},\"cache_misses\":{},\"device_ops\":{}}}}}",
            s.kind,
            us(s.submitted_vt),
            us(s.latency()).max(0.0),
            s.token,
            s.tenant,
            s.device,
            s.device_seconds,
            us(s.queue_wait()).max(0.0),
            s.chunks_touched,
            s.cache_hits,
            s.cache_misses,
            s.device_ops,
        ));
        for ev in &s.events {
            events.push(format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{lane},\"name\":\"{}\",\"ts\":{:.3},\"s\":\"t\"}}",
                ev.label(),
                us(s.started_vt),
            ));
        }
        for iv in &s.intervals {
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":2,\"tid\":{},\"name\":\"service\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"token\":{},\"seconds\":{:.9}}}}}",
                iv.device,
                us(iv.start_vt),
                us(iv.seconds),
                s.token,
                iv.seconds,
            ));
        }
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// Outcome of [`replay`]: how a span stream re-dispatched through a
/// fresh scheduler compares to what the trace recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Spans replayed.
    pub ops: usize,
    /// Spans whose replayed instants differed (0 for a faithful
    /// dispatch-order trace).
    pub mismatches: usize,
}

impl Replay {
    /// Whether every span's instants were reproduced bit-for-bit.
    pub fn exact(&self) -> bool {
        self.mismatches == 0
    }
}

/// Re-dispatches `spans` (in slice order, which must be dispatch
/// order) through a fresh [`VirtualScheduler`] over `devices`
/// devices, comparing every operation's replayed submit → start →
/// complete instants, total device seconds, and finishing device to
/// what the trace recorded — **bitwise**. A faithful trace replays
/// exactly because the replay runs the very arithmetic the original
/// dispatch ran.
pub fn replay(spans: &[OpSpan], devices: usize) -> Replay {
    let mut sched = VirtualScheduler::new(devices.max(1));
    let mut mismatches = 0usize;
    for s in spans {
        let charges = s.charges();
        let (d, _) = sched.dispatch(s.submitted_vt, &charges, 0, false);
        let exact = d.started_vt == s.started_vt
            && d.completed_vt == s.completed_vt
            && d.device_seconds == s.device_seconds
            && d.device == s.device;
        if !exact {
            mismatches += 1;
        }
    }
    Replay {
        ops: spans.len(),
        mismatches,
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    pub(crate) fn span(token: u64, submit: f64, intervals: Vec<ChargeInterval>) -> OpSpan {
        let started = intervals
            .iter()
            .map(|i| i.start_vt)
            .fold(f64::INFINITY, f64::min);
        let completed = intervals.iter().map(|i| i.end_vt).fold(submit, f64::max);
        let seconds: f64 = intervals.iter().map(|i| i.seconds).sum();
        let device = intervals
            .iter()
            .max_by(|a, b| a.end_vt.partial_cmp(&b.end_vt).unwrap())
            .map(|i| i.device)
            .unwrap_or(0);
        OpSpan {
            token,
            tenant: 0,
            kind: "get",
            submitted_vt: submit,
            started_vt: if started.is_finite() { started } else { submit },
            completed_vt: completed,
            device,
            device_seconds: seconds,
            intervals,
            chunks_touched: 1,
            cache_hits: 0,
            cache_misses: 1,
            device_ops: 1,
            events: Vec::new(),
        }
    }

    /// Spans dispatched through a real scheduler so instants are
    /// exactly what a drive would record.
    pub(crate) fn scheduled_spans(n: u64, devices: usize) -> Vec<OpSpan> {
        let mut sched = VirtualScheduler::new(devices);
        (0..n)
            .map(|i| {
                let submit = i as f64 * 0.01;
                let charges = [
                    DeviceCharge {
                        device: i as usize % devices,
                        seconds: 0.004 + i as f64 * 1e-4,
                    },
                    DeviceCharge {
                        device: (i as usize + 1) % devices,
                        seconds: 0.002,
                    },
                ];
                let (d, intervals) = sched.dispatch(submit, &charges, 0, true);
                let mut s = span(i, submit, intervals);
                s.started_vt = d.started_vt;
                s.completed_vt = d.completed_vt;
                s.device_seconds = d.device_seconds;
                s.device = d.device;
                s
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{scheduled_spans, span};
    use super::*;

    #[test]
    fn replay_reproduces_scheduled_instants_bitwise() {
        let spans = scheduled_spans(32, 3);
        let r = replay(&spans, 3);
        assert!(r.exact(), "{} of {} spans mismatched", r.mismatches, r.ops);
        assert_eq!(r.ops, 32);
        // Perturbing one instant is detected.
        let mut bad = spans;
        bad[7].completed_vt += 1e-9;
        assert!(!replay(&bad, 3).exact());
    }

    #[test]
    fn chrome_trace_packs_ops_onto_nonoverlapping_lanes() {
        let spans = scheduled_spans(24, 2);
        let json = chrome_trace(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        // One X event per op plus one per charge interval.
        let n_intervals: usize = spans.iter().map(|s| s.intervals.len()).sum();
        let xs = json.matches("\"ph\":\"X\"").count();
        assert_eq!(xs, spans.len() + n_intervals);
        assert!(json.contains("\"name\":\"service\""));
        assert!(json.contains("\"name\":\"get\""));
        // Required trace-event fields are present on complete events.
        assert!(json.contains("\"ts\":") && json.contains("\"dur\":"));
    }

    #[test]
    fn chrome_trace_groups_lanes_per_tenant() {
        // Two tenants' ops interleave on the timeline; each tenant's
        // spans land on its own process, and only non-default tenants
        // get extra pids.
        let mut spans = scheduled_spans(12, 2);
        for (i, s) in spans.iter_mut().enumerate() {
            s.tenant = i % 3; // tenants 0, 1, 2
        }
        let json = chrome_trace(&spans);
        // Default tenant stays pid 1; tenants 1 and 2 get pids 11, 12
        // with process metadata.
        assert!(json.contains("\"pid\":11"));
        assert!(json.contains("\"pid\":12"));
        assert!(json.contains("\"name\":\"tenant1\""));
        assert!(json.contains("\"name\":\"tenant2\""));
        // Every op X event carries its tenant in args.
        assert_eq!(json.matches("\"tenant\":").count(), spans.len());
        // A single-tenant trace renders exactly as before the tenant
        // field existed: pids 1 and 2 only, no tenant metadata.
        let single = chrome_trace(&scheduled_spans(12, 2));
        assert!(!single.contains("\"pid\":11"));
        assert!(!single.contains("\"name\":\"tenant"));
    }

    #[test]
    fn unbounded_buffer_never_drops() {
        let buf = TraceBuffer::new();
        for s in scheduled_spans(100, 2) {
            buf.record(s);
        }
        assert_eq!(buf.len(), 100);
        // Recording order is preserved exactly.
        let spans = buf.spans();
        assert!(spans.windows(2).all(|w| w[0].token < w[1].token));
    }

    #[test]
    fn span_helper_round_trips_charges() {
        let mut sched = VirtualScheduler::new(2);
        let (_, intervals) = sched.dispatch(
            0.5,
            &[
                DeviceCharge {
                    device: 0,
                    seconds: 0.25,
                },
                DeviceCharge {
                    device: 1,
                    seconds: 0.125,
                },
            ],
            0,
            true,
        );
        let s = span(0, 0.5, intervals);
        let charges = s.charges();
        assert_eq!(charges.len(), 2);
        assert_eq!(charges[0].seconds, 0.25);
        assert_eq!(s.latency(), s.completed_vt - s.submitted_vt);
    }
}
