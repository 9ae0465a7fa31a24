//! The analysis tier over span streams: latency blame, bottleneck
//! timelines, tail forensics, and SLO burn-rate monitors.
//!
//! Everything here is **read-only**: analysis consumes [`OpSpan`]s
//! already recorded by a drive and never touches the virtual timeline
//! (the `analysis_is_read_only` property test holds a run with
//! analysis enabled bit-identical to one without). The central
//! invariant is **blame conservation**: every operation's
//! [`LatencyBlame`] components fold back to the span's
//! submit-to-completion latency *bit-for-bit* —
//! `blame.total().to_bits() == span.latency().to_bits()` — so a blame
//! table can be summed, sliced, and diffed without ever drifting from
//! the latencies the drive reported.
//!
//! ## Blame taxonomy
//!
//! | component | meaning |
//! |-----------|---------|
//! | `queue`   | submit → first device service start (scheduler queueing) |
//! | `service` | union measure of the op's device service windows |
//! | `stall`   | residual inside the service envelope: same-device serialization gaps between the op's own charges, plus f64 rounding of the fold |
//!
//! Host decode and cache-probe time are not components: the virtual
//! cost model charges devices only, so both would be `0.0` by
//! construction. The *count* of decodes is carried and drives the
//! decode-bound classifier via [`AnalysisSpec::decode_secs_per_chunk`].

use super::{MetricsRecorder, OpSpan, WindowSeries};

// ---------------------------------------------------------------------
// Per-op latency blame
// ---------------------------------------------------------------------

/// Returns `r` such that `partial + r` reproduces `target`
/// **bitwise**. Starts from the floating-point difference and walks
/// by ulps — `target` and `partial` agree to within a few ulps here
/// (the service union lives inside the latency envelope), so the walk
/// terminates in a handful of steps; it is bounded regardless.
fn exact_residual(target: f64, partial: f64) -> f64 {
    let mut r = target - partial;
    for _ in 0..128 {
        let got = partial + r;
        if got.to_bits() == target.to_bits() {
            return r;
        }
        r = if got < target {
            r.next_up()
        } else {
            r.next_down()
        };
    }
    r
}

/// The measure of the union of the op's service windows: overlapping
/// windows (charges to distinct devices run in parallel) count once.
fn service_union(span: &OpSpan) -> f64 {
    let mut windows: Vec<(f64, f64)> = span
        .intervals
        .iter()
        .filter(|iv| iv.end_vt > iv.start_vt)
        .map(|iv| (iv.start_vt, iv.end_vt))
        .collect();
    if windows.is_empty() {
        return 0.0;
    }
    windows.sort_by(|a, b| a.partial_cmp(b).expect("finite instants"));
    let mut total = 0.0;
    let (mut cur_start, mut cur_end) = windows[0];
    for &(s, e) in &windows[1..] {
        if s <= cur_end {
            cur_end = cur_end.max(e);
        } else {
            total += cur_end - cur_start;
            (cur_start, cur_end) = (s, e);
        }
    }
    total + (cur_end - cur_start)
}

/// One operation's latency split into blame components.
///
/// Conservation invariant: [`total()`](LatencyBlame::total) — the
/// left fold `queue + service + stall` — equals
/// [`OpSpan::latency`] **bitwise**. `stall` is constructed as the
/// exact residual making that hold (it is physically the
/// same-device serialization gap between the op's own charges, and
/// numerically it also absorbs the sub-ulp rounding of the fold), so
/// the invariant holds by construction for every span, on every
/// platform.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBlame {
    /// Submission token of the blamed op.
    pub token: u64,
    /// The span's submit-to-completion latency.
    pub latency: f64,
    /// Seconds queued before any device began service.
    pub queue: f64,
    /// Union measure of the op's device service windows.
    pub service: f64,
    /// Residual inside the service envelope (see type docs).
    pub stall: f64,
    /// Chunks decoded (cache misses) — drives the decode-bound
    /// classifier.
    pub decodes: u64,
}

impl LatencyBlame {
    /// Decomposes one span.
    pub fn of(span: &OpSpan) -> LatencyBlame {
        let latency = span.latency();
        let queue = span.queue_wait();
        let service = service_union(span);
        let stall = exact_residual(latency, queue + service);
        LatencyBlame {
            token: span.token,
            latency,
            queue,
            service,
            stall,
            decodes: span.cache_misses,
        }
    }

    /// The conservation fold: `queue + service + stall`, left to
    /// right — reproduces the span's latency bitwise.
    pub fn total(&self) -> f64 {
        (self.queue + self.service) + self.stall
    }
}

// ---------------------------------------------------------------------
// Bottleneck timeline
// ---------------------------------------------------------------------

/// What analysis should assume about the run — all knobs are
/// analysis-side only and never touch the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisSpec {
    /// Window width for the bottleneck timeline, virtual seconds.
    pub window_secs: f64,
    /// Estimated host seconds to decode one chunk — feeds the
    /// decode-bound classifier (`0.0`, the default, matches the
    /// device-only virtual cost model and makes decode-bound
    /// unreachable).
    pub decode_secs_per_chunk: f64,
}

/// A window with no completions whose peak device utilization is at
/// or below this fraction is labeled idle.
const IDLE_UTILIZATION: f64 = 0.01;

impl Default for AnalysisSpec {
    fn default() -> AnalysisSpec {
        AnalysisSpec {
            window_secs: 0.05,
            decode_secs_per_chunk: 0.0,
        }
    }
}

impl AnalysisSpec {
    /// The default spec with a different window width.
    pub fn with_window(window_secs: f64) -> AnalysisSpec {
        AnalysisSpec {
            window_secs,
            ..AnalysisSpec::default()
        }
    }
}

/// The label the windowed classifier assigns each window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Nothing completed and no device was meaningfully busy.
    Idle,
    /// Service dominates: ops were mostly *being served*.
    DeviceBound,
    /// Queueing dominates: ops mostly waited for devices.
    QueueBound,
    /// Estimated decode cost exceeds both queue and service blame.
    DecodeBound,
}

impl Bottleneck {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Bottleneck::Idle => "idle",
            Bottleneck::DeviceBound => "device_bound",
            Bottleneck::QueueBound => "queue_bound",
            Bottleneck::DecodeBound => "decode_bound",
        }
    }
}

/// The run-level answer [`analyze`] produces: per-op blame and the
/// windowed bottleneck timeline — everything needed to say *why* a
/// run's latency is what it is (run-level sums are
/// [`BlameReport::shares`]).
///
/// The timeline's busy integrals come from the same
/// [`MetricsRecorder`] sampling the rest of the stack uses, so
/// [`BlameReport::device_busy`] sums back to the scheduler's
/// per-device busy seconds.
///
/// ```
/// use sage_store::obs::analysis::{analyze, AnalysisSpec};
/// use sage_store::obs::OpSpan;
///
/// let spans = vec![OpSpan {
///     token: 0,
///     tenant: 0,
///     kind: "get",
///     submitted_vt: 0.0,
///     started_vt: 0.010,
///     completed_vt: 0.010, // fully cached: pure queue wait
///     device: 0,
///     device_seconds: 0.0,
///     intervals: Vec::new(),
///     chunks_touched: 2,
///     cache_hits: 2,
///     cache_misses: 0,
///     device_ops: 0,
///     events: Vec::new(),
/// }];
/// let report = analyze(&spans, 1, &AnalysisSpec::default());
/// assert_eq!(report.ops, 1);
/// // Conservation: blame components fold back to the latency bitwise.
/// let b = &report.blames[0];
/// assert_eq!(b.total().to_bits(), spans[0].latency().to_bits());
/// assert_eq!(b.queue, 0.010);
/// assert_eq!(b.service, 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlameReport {
    /// Operations analyzed.
    pub ops: usize,
    /// Per-op blame, in span order.
    pub blames: Vec<LatencyBlame>,
    /// The windowed curves backing the timeline (busy, queue depth,
    /// completions, hit rate).
    pub series: WindowSeries,
    /// The bottleneck timeline, one label per window: the blame of
    /// the ops completing in it, classified.
    pub windows: Vec<Bottleneck>,
}

impl BlameReport {
    /// Window counts per label, indexed `[idle, device_bound,
    /// queue_bound, decode_bound]`.
    pub fn label_counts(&self) -> [usize; 4] {
        let mut out = [0usize; 4];
        for w in &self.windows {
            let i = match w {
                Bottleneck::Idle => 0,
                Bottleneck::DeviceBound => 1,
                Bottleneck::QueueBound => 2,
                Bottleneck::DecodeBound => 3,
            };
            out[i] += 1;
        }
        out
    }

    /// The most common non-idle window label (falls back to idle when
    /// every window is idle). Ties break toward the earlier label in
    /// `[device_bound, queue_bound, decode_bound]` order.
    pub fn dominant(&self) -> Bottleneck {
        let c = self.label_counts();
        let labels = [
            Bottleneck::DeviceBound,
            Bottleneck::QueueBound,
            Bottleneck::DecodeBound,
        ];
        let mut best = Bottleneck::Idle;
        let mut best_n = 0usize;
        for (i, &l) in labels.iter().enumerate() {
            if c[i + 1] > best_n {
                best = l;
                best_n = c[i + 1];
            }
        }
        best
    }

    /// Per-device busy seconds integrated from the windowed series —
    /// agrees with the scheduler's busy totals.
    pub fn device_busy(&self) -> Vec<f64> {
        self.series.total_busy()
    }

    /// The whole run's blame aggregated into one [`BlameShares`] —
    /// the "where did the time go" answer as fractions.
    pub fn shares(&self) -> BlameShares {
        let mut shares = BlameShares::default();
        for b in &self.blames {
            shares.add(b);
        }
        shares
    }
}

/// Analyzes a span stream: per-op blame and the windowed bottleneck
/// timeline.
///
/// The windowed busy/completions curves are produced by the same
/// [`MetricsRecorder::sample`] the rest of the stack uses, so the
/// report's busy integrals agree with the scheduler by construction.
/// Each op's blame is attributed to the window its completion instant
/// falls in.
pub fn analyze(spans: &[OpSpan], devices: usize, spec: &AnalysisSpec) -> BlameReport {
    let devices = devices.max(1);
    let blames: Vec<LatencyBlame> = spans.iter().map(LatencyBlame::of).collect();
    let recorder = MetricsRecorder::sample_every(spec.window_secs);
    let series = recorder.sample(spans, devices);
    let nw = series.windows();
    let dt = series.dt;
    let w_of = |vt: f64| ((vt / dt) as usize).min(nw - 1);
    let mut queue = vec![0.0f64; nw];
    let mut service = vec![0.0f64; nw];
    let mut decodes = vec![0u64; nw];
    for (s, b) in spans.iter().zip(&blames) {
        let w = w_of(s.completed_vt);
        queue[w] += b.queue + b.stall;
        service[w] += b.service;
        decodes[w] += b.decodes;
    }
    let windows = (0..nw)
        .map(|w| {
            let decode_est = decodes[w] as f64 * spec.decode_secs_per_chunk;
            let peak_busy = series.busy[w].iter().copied().fold(0.0f64, f64::max);
            if series.completions[w] == 0 && peak_busy / dt <= IDLE_UTILIZATION {
                Bottleneck::Idle
            } else if decode_est > queue[w].max(service[w]) {
                Bottleneck::DecodeBound
            } else if queue[w] > service[w] {
                Bottleneck::QueueBound
            } else {
                Bottleneck::DeviceBound
            }
        })
        .collect();
    BlameReport {
        ops: spans.len(),
        blames,
        series,
        windows,
    }
}

// ---------------------------------------------------------------------
// Tail forensics
// ---------------------------------------------------------------------

/// Aggregated blame over a set of ops, with share accessors — the
/// body-vs-tail comparison unit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlameShares {
    /// Ops aggregated.
    pub ops: usize,
    /// Summed queue blame.
    pub queue: f64,
    /// Summed service blame.
    pub service: f64,
    /// Summed stall blame.
    pub stall: f64,
}

impl BlameShares {
    fn add(&mut self, b: &LatencyBlame) {
        self.ops += 1;
        self.queue += b.queue;
        self.service += b.service;
        self.stall += b.stall;
    }

    fn total(&self) -> f64 {
        self.queue + self.service + self.stall
    }

    /// Queue fraction of the aggregated blame (0 when empty).
    pub fn queue_share(&self) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            self.queue / t
        }
    }

    /// Service fraction of the aggregated blame (0 when empty).
    pub fn service_share(&self) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            self.service / t
        }
    }

    /// Stall fraction of the aggregated blame (0 when empty).
    pub fn stall_share(&self) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            self.stall / t
        }
    }
}

/// Tail forensics for one op kind: the worst exemplars plus a
/// median-vs-p99 blame diff saying *why* the tail differs from the
/// body.
#[derive(Debug, Clone, PartialEq)]
pub struct TailReport {
    /// Op kind the report covers.
    pub kind: &'static str,
    /// The top-k worst ops by latency (descending; token breaks
    /// ties), full blame attached.
    pub exemplars: Vec<LatencyBlame>,
    /// Aggregated blame of the body: ops at or below the median
    /// latency.
    pub body: BlameShares,
    /// Aggregated blame of the tail: ops at or above the p99 latency.
    pub tail: BlameShares,
    /// Why the tail differs: the component whose blame share grew
    /// most from body to tail, as a formatted sentence.
    pub verdict: String,
}

fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Runs tail forensics per op kind over a span stream.
///
/// Kinds are reported in fixed `get`, `scan`, `append` order (then
/// any other labels in first-appearance order), each with its top-`k`
/// worst exemplars and the body-vs-tail blame diff. Fully
/// deterministic: same spans, same report.
pub fn tail_forensics(spans: &[OpSpan], k: usize) -> Vec<TailReport> {
    let mut kinds: Vec<&'static str> = Vec::new();
    for known in ["get", "scan", "append"] {
        if spans.iter().any(|s| s.kind == known) {
            kinds.push(known);
        }
    }
    for s in spans {
        if !kinds.contains(&s.kind) {
            kinds.push(s.kind);
        }
    }
    kinds
        .into_iter()
        .map(|kind| {
            let blames: Vec<LatencyBlame> = spans
                .iter()
                .filter(|s| s.kind == kind)
                .map(LatencyBlame::of)
                .collect();
            let mut lat: Vec<f64> = blames.iter().map(|b| b.latency).collect();
            lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            let p50 = nearest_rank(&lat, 0.50);
            let p99 = nearest_rank(&lat, 0.99);
            let mut body = BlameShares::default();
            let mut tail = BlameShares::default();
            for b in &blames {
                if b.latency <= p50 {
                    body.add(b);
                }
                if b.latency >= p99 {
                    tail.add(b);
                }
            }
            let mut exemplars = blames;
            exemplars.sort_by(|a, b| {
                b.latency
                    .partial_cmp(&a.latency)
                    .expect("finite latencies")
                    .then(a.token.cmp(&b.token))
            });
            exemplars.truncate(k);
            let verdict = verdict_for(kind, &body, &tail);
            TailReport {
                kind,
                exemplars,
                body,
                tail,
                verdict,
            }
        })
        .collect()
}

impl TailReport {
    /// Renders the report as one JSON object (exemplars carry token,
    /// latency, and the blame split).
    pub fn to_json(&self) -> String {
        let exemplars = self
            .exemplars
            .iter()
            .map(|b| {
                format!(
                    "{{\"token\":{},\"latency\":{:.9},\"queue\":{:.9},\
                     \"service\":{:.9},\"stall\":{:.9}}}",
                    b.token, b.latency, b.queue, b.service, b.stall
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let shares = |s: &BlameShares| {
            format!(
                "{{\"ops\":{},\"queue_share\":{:.6},\"service_share\":{:.6},\
                 \"stall_share\":{:.6}}}",
                s.ops,
                s.queue_share(),
                s.service_share(),
                s.stall_share()
            )
        };
        format!(
            "{{\"kind\":\"{}\",\"exemplars\":[{}],\"body\":{},\"tail\":{},\
             \"verdict\":\"{}\"}}",
            self.kind,
            exemplars,
            shares(&self.body),
            shares(&self.tail),
            self.verdict.replace('"', "'"),
        )
    }
}

fn verdict_for(kind: &str, body: &BlameShares, tail: &BlameShares) -> String {
    let deltas = [
        ("queue", tail.queue_share() - body.queue_share()),
        ("service", tail.service_share() - body.service_share()),
        ("stall", tail.stall_share() - body.stall_share()),
    ];
    let (name, delta) = deltas
        .iter()
        .fold(deltas[0], |best, &d| if d.1 > best.1 { d } else { best });
    let (b_share, t_share) = match name {
        "queue" => (body.queue_share(), tail.queue_share()),
        "service" => (body.service_share(), tail.service_share()),
        _ => (body.stall_share(), tail.stall_share()),
    };
    if delta <= 0.0 {
        format!(
            "{kind}: tail blame mix matches the body (no component's share grew); \
             the tail is simply more of the same work"
        )
    } else {
        format!(
            "{kind}: tail is {name}-driven — {name} share {:.1}% at p99+ vs {:.1}% \
             at the median (+{:.1} pts)",
            t_share * 100.0,
            b_share * 100.0,
            delta * 100.0,
        )
    }
}

// ---------------------------------------------------------------------
// SLO burn-rate monitors
// ---------------------------------------------------------------------

/// A latency SLO: "`objective` of ops complete within
/// `target_secs`", monitored as windowed burn-rate alerts on the
/// virtual timeline.
///
/// Burn rate is the window's error rate over the allowed error rate
/// (`1 - objective`): burn 1.0 consumes the error budget exactly at
/// the sustainable pace, burn ≥ [`fast_burn`](SloSpec::fast_burn)
/// pages, burn ≥ [`slow_burn`](SloSpec::slow_burn) warns. Evaluation
/// is a pure function of the span stream — same spans, same spec ⇒
/// bit-identical alert sequence.
///
/// ```
/// use sage_store::obs::analysis::{SloSeverity, SloSpec};
/// use sage_store::obs::OpSpan;
///
/// let mk = |token, completed_vt| OpSpan {
///     token,
///     tenant: 0,
///     kind: "get",
///     submitted_vt: 0.0,
///     started_vt: 0.0,
///     completed_vt,
///     device: 0,
///     device_seconds: 0.0,
///     intervals: Vec::new(),
///     chunks_touched: 1,
///     cache_hits: 1,
///     cache_misses: 0,
///     device_ops: 0,
///     events: Vec::new(),
/// };
/// // Target 5 ms at 95%: one of two ops violating burns at 10x.
/// let spec = SloSpec::new(0.005, 0.95);
/// let report = spec.evaluate(&[mk(0, 0.001), mk(1, 0.040)]);
/// assert_eq!(report.evaluated, 2);
/// assert_eq!(report.violations, 1);
/// assert_eq!(report.compliance, 0.5);
/// assert_eq!(report.alerts.len(), 1);
/// assert_eq!(report.alerts[0].severity, SloSeverity::Warn);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Latency target, virtual seconds.
    pub target_secs: f64,
    /// Fraction of ops that must meet the target, in `(0, 1)`.
    pub objective: f64,
    /// Alert evaluation window, virtual seconds.
    pub window_secs: f64,
    /// Burn rate at or above which a window pages.
    pub fast_burn: f64,
    /// Burn rate at or above which a window warns.
    pub slow_burn: f64,
}

impl SloSpec {
    /// An SLO with the conventional multi-window burn thresholds
    /// (fast 14.4×, slow 6×) and a 50 ms evaluation window.
    pub fn new(target_secs: f64, objective: f64) -> SloSpec {
        SloSpec {
            target_secs,
            objective,
            window_secs: 0.05,
            fast_burn: 14.4,
            slow_burn: 6.0,
        }
    }

    /// The same spec with a different evaluation window.
    pub fn with_window(self, window_secs: f64) -> SloSpec {
        SloSpec {
            window_secs,
            ..self
        }
    }

    /// The same spec with different burn thresholds.
    pub fn with_burns(self, fast_burn: f64, slow_burn: f64) -> SloSpec {
        SloSpec {
            fast_burn,
            slow_burn,
            ..self
        }
    }

    /// Evaluates the SLO over a span stream, producing the
    /// deterministic alert sequence of the windows whose burn rate
    /// crossed a threshold.
    ///
    /// # Panics
    ///
    /// Panics when the spec is malformed: non-positive/non-finite
    /// target or window, objective outside `(0, 1)`, or burn
    /// thresholds that are non-positive or inverted
    /// (`fast_burn < slow_burn`).
    pub fn evaluate(&self, spans: &[OpSpan]) -> SloReport {
        assert!(
            self.target_secs.is_finite() && self.target_secs > 0.0,
            "SLO target must be positive and finite"
        );
        assert!(
            self.objective > 0.0 && self.objective < 1.0,
            "SLO objective must lie strictly between 0 and 1"
        );
        assert!(
            self.window_secs.is_finite() && self.window_secs > 0.0,
            "SLO window must be positive and finite"
        );
        assert!(
            self.slow_burn > 0.0 && self.fast_burn >= self.slow_burn,
            "burn thresholds must be positive with fast >= slow"
        );
        let horizon = spans.iter().map(|s| s.completed_vt).fold(0.0f64, f64::max);
        let nw = ((horizon / self.window_secs).ceil() as usize).max(1);
        let w_of = |vt: f64| ((vt / self.window_secs) as usize).min(nw - 1);
        let mut completions = vec![0u64; nw];
        let mut violations_w = vec![0u64; nw];
        let mut violations = 0u64;
        for s in spans {
            let w = w_of(s.completed_vt);
            completions[w] += 1;
            if s.latency() > self.target_secs {
                violations_w[w] += 1;
                violations += 1;
            }
        }
        let allowed = 1.0 - self.objective;
        let mut alerts = Vec::new();
        for w in 0..nw {
            let rate = if completions[w] == 0 {
                0.0
            } else {
                violations_w[w] as f64 / completions[w] as f64
            };
            let b = rate / allowed;
            if b >= self.slow_burn {
                alerts.push(SloAlert {
                    window: w,
                    start_vt: w as f64 * self.window_secs,
                    burn_rate: b,
                    severity: if b >= self.fast_burn {
                        SloSeverity::Page
                    } else {
                        SloSeverity::Warn
                    },
                });
            }
        }
        let evaluated = spans.len();
        let compliance = if evaluated == 0 {
            1.0
        } else {
            1.0 - violations as f64 / evaluated as f64
        };
        let budget_consumed = if evaluated == 0 {
            0.0
        } else {
            (violations as f64 / evaluated as f64) / allowed
        };
        SloReport {
            spec: *self,
            evaluated,
            violations,
            compliance,
            budget_consumed,
            alerts,
        }
    }
}

/// Alert severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloSeverity {
    /// Burn at or above the slow threshold.
    Warn,
    /// Burn at or above the fast threshold.
    Page,
}

impl SloSeverity {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SloSeverity::Warn => "warn",
            SloSeverity::Page => "page",
        }
    }
}

/// One window whose burn rate crossed an alert threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAlert {
    /// Window index.
    pub window: usize,
    /// Window start instant, virtual seconds.
    pub start_vt: f64,
    /// The window's burn rate.
    pub burn_rate: f64,
    /// Crossed threshold.
    pub severity: SloSeverity,
}

/// Outcome of [`SloSpec::evaluate`] over one span stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The evaluated spec.
    pub spec: SloSpec,
    /// Ops evaluated.
    pub evaluated: usize,
    /// Ops whose latency exceeded the target.
    pub violations: u64,
    /// Fraction of ops meeting the target (1.0 when nothing ran).
    pub compliance: f64,
    /// Fraction of the run's error budget consumed (1.0 = exactly at
    /// the objective).
    pub budget_consumed: f64,
    /// Windows that crossed an alert threshold, in timeline order.
    pub alerts: Vec<SloAlert>,
}

impl SloReport {
    /// Whether the run met the objective overall.
    pub fn met(&self) -> bool {
        self.compliance >= self.spec.objective
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let alerts = self
            .alerts
            .iter()
            .map(|a| {
                format!(
                    "{{\"window\":{},\"start_vt\":{:.9},\"burn_rate\":{:.6},\
                     \"severity\":\"{}\"}}",
                    a.window,
                    a.start_vt,
                    a.burn_rate,
                    a.severity.label()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"target_secs\":{:.9},\"objective\":{:.6},\"window_secs\":{:.9},\
             \"evaluated\":{},\"violations\":{},\"compliance\":{:.6},\
             \"budget_consumed\":{:.6},\"met\":{},\"alerts\":[{}]}}",
            self.spec.target_secs,
            self.spec.objective,
            self.spec.window_secs,
            self.evaluated,
            self.violations,
            self.compliance,
            self.budget_consumed,
            self.met(),
            alerts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::scheduled_spans;
    use super::*;
    use sage_io::{DeviceCharge, VirtualScheduler};

    #[test]
    fn blame_conserves_latency_bitwise_on_scheduled_spans() {
        let spans = scheduled_spans(64, 3);
        for s in &spans {
            let b = LatencyBlame::of(s);
            assert_eq!(
                b.total().to_bits(),
                s.latency().to_bits(),
                "op {}: blame {:?} does not fold to latency {}",
                s.token,
                b,
                s.latency()
            );
            assert!(b.queue >= 0.0 && b.service >= 0.0);
        }
    }

    #[test]
    fn exact_residual_survives_adversarial_rounding() {
        // Values engineered so target - partial rounds away from the
        // exact residual; the ulp walk must still converge.
        let cases = [
            (0.1 + 0.2, 0.3),
            (1.0 / 3.0, 0.333_333_333_333),
            (1e-9, 1e-9 - 1e-25),
            (7.3, 7.3),
            (5e-3, 0.0),
            (1.0000000000000002, 1.0),
        ];
        for (target, partial) in cases {
            let r = exact_residual(target, partial);
            assert_eq!(
                (partial + r).to_bits(),
                target.to_bits(),
                "target {target} partial {partial}"
            );
        }
    }

    #[test]
    fn service_union_counts_overlap_once() {
        // Two parallel charges on distinct devices: the union is one
        // window, not the sum of both.
        let mut sched = VirtualScheduler::new(2);
        let (d, intervals) = sched.dispatch(
            0.0,
            &[
                DeviceCharge {
                    device: 0,
                    seconds: 0.4,
                },
                DeviceCharge {
                    device: 1,
                    seconds: 0.3,
                },
            ],
            0,
            true,
        );
        let s = super::super::test_support::span(0, 0.0, intervals);
        assert_eq!(d.device_seconds, 0.7);
        assert_eq!(service_union(&s), 0.4); // parallel: union = max
        let b = LatencyBlame::of(&s);
        assert_eq!(b.total().to_bits(), s.latency().to_bits());
    }

    #[test]
    fn stall_captures_same_device_serialization_gaps() {
        // One op, two charges on the same device: they serialize, so
        // the union covers both back-to-back and stall stays ~0; but
        // an op whose charges are split by another op's service shows
        // the gap as stall.
        let mut sched = VirtualScheduler::new(1);
        let (_, iv_a1) = sched.dispatch(
            0.0,
            &[DeviceCharge {
                device: 0,
                seconds: 0.1,
            }],
            0,
            true,
        );
        // Op B submits now but its charge queues behind A's second
        // charge issued below? Build instead: op with two charges
        // recorded around a foreign charge.
        let (_, iv_other) = sched.dispatch(
            0.0,
            &[DeviceCharge {
                device: 0,
                seconds: 0.2,
            }],
            0,
            true,
        );
        let (_, iv_a2) = sched.dispatch(
            0.0,
            &[DeviceCharge {
                device: 0,
                seconds: 0.1,
            }],
            0,
            true,
        );
        let _ = iv_other;
        let mut intervals = iv_a1;
        intervals.extend(iv_a2);
        // Span submitted at 0, served 0.0-0.1 and 0.3-0.4: latency
        // 0.4, queue 0, service union 0.2, stall = the 0.2 gap.
        let mut s = super::super::test_support::span(0, 0.0, intervals);
        s.started_vt = 0.0;
        s.completed_vt = 0.4;
        let b = LatencyBlame::of(&s);
        assert_eq!(b.queue, 0.0);
        assert!((b.service - 0.2).abs() < 1e-12);
        assert!((b.stall - 0.2).abs() < 1e-12);
        assert_eq!(b.total().to_bits(), s.latency().to_bits());
    }

    #[test]
    fn analyze_builds_consistent_timeline() {
        let spans = scheduled_spans(48, 2);
        let spec = AnalysisSpec::with_window(0.0137);
        let report = analyze(&spans, 2, &spec);
        assert_eq!(report.ops, 48);
        assert_eq!(report.windows.len(), report.series.windows());
        assert_eq!(
            report.label_counts().iter().sum::<usize>(),
            report.windows.len()
        );
        // Busy integrals agree with a fresh scheduler run.
        let mut sched = VirtualScheduler::new(2);
        for s in &spans {
            sched.dispatch(s.submitted_vt, &s.charges(), 0, false);
        }
        for (d, b) in sched.busy_seconds().iter().enumerate() {
            let got = report.device_busy()[d];
            assert!((got - b).abs() <= b.abs() * 1e-12 + 1e-15);
        }
        // Shares are the fold of per-op blame.
        let q: f64 = report.blames.iter().map(|b| b.queue).sum();
        assert_eq!(report.shares().queue, q);
    }

    #[test]
    fn idle_windows_are_labeled_idle() {
        // Two bursts separated by a long quiet gap.
        let mut sched = VirtualScheduler::new(1);
        let mut spans = Vec::new();
        for (i, submit) in [0.0, 0.001, 10.0, 10.001].iter().enumerate() {
            let (d, intervals) = sched.dispatch(
                *submit,
                &[DeviceCharge {
                    device: 0,
                    seconds: 0.002,
                }],
                0,
                true,
            );
            let mut s = super::super::test_support::span(i as u64, *submit, intervals);
            s.started_vt = d.started_vt;
            s.completed_vt = d.completed_vt;
            spans.push(s);
        }
        let report = analyze(&spans, 1, &AnalysisSpec::with_window(0.5));
        let c = report.label_counts();
        assert!(c[0] >= 15, "expected a long idle stretch, got {c:?}");
        assert_ne!(report.windows[0], Bottleneck::Idle);
    }

    #[test]
    fn decode_bound_requires_a_decode_cost_model() {
        let spans = scheduled_spans(32, 2);
        let base = analyze(&spans, 2, &AnalysisSpec::with_window(0.02));
        // Default model: decode cost 0 — decode-bound unreachable.
        assert_eq!(base.label_counts()[3], 0);
        // A huge per-chunk decode estimate flips busy windows.
        let spec = AnalysisSpec {
            window_secs: 0.02,
            decode_secs_per_chunk: 10.0,
        };
        let heavy = analyze(&spans, 2, &spec);
        assert!(heavy.label_counts()[3] > 0);
        assert_eq!(heavy.dominant(), Bottleneck::DecodeBound);
    }

    #[test]
    fn tail_forensics_ranks_exemplars_and_issues_verdict() {
        let spans = scheduled_spans(64, 2);
        let reports = tail_forensics(&spans, 5);
        assert_eq!(reports.len(), 1); // helper spans are all "get"
        let r = &reports[0];
        assert_eq!(r.kind, "get");
        assert_eq!(r.exemplars.len(), 5);
        assert!(r.exemplars.windows(2).all(|w| w[0].latency >= w[1].latency));
        assert!(r.body.ops > 0 && r.tail.ops > 0);
        assert!(!r.verdict.is_empty());
        // Determinism: same spans, same report.
        assert_eq!(tail_forensics(&spans, 5), reports);
    }

    #[test]
    fn slo_alerts_fire_deterministically() {
        let spans = scheduled_spans(64, 1); // 1 device: heavy queueing
        let spec = SloSpec::new(0.01, 0.95)
            .with_window(0.05)
            .with_burns(10.0, 2.0);
        let a = spec.evaluate(&spans);
        let b = spec.evaluate(&spans);
        assert_eq!(a, b); // bit-reproducible
        assert!(a.violations > 0);
        assert!(!a.alerts.is_empty());
        assert!(a.compliance < 1.0);
        assert!(a.alerts.windows(2).all(|w| w[0].window < w[1].window));
        // A generous target produces a clean report.
        let clean = SloSpec::new(100.0, 0.95).evaluate(&spans);
        assert_eq!(clean.violations, 0);
        assert!(clean.met() && clean.alerts.is_empty());
        assert_eq!(clean.compliance, 1.0);
        let json = a.to_json();
        assert!(json.contains("\"alerts\"") && json.contains("\"burn_rate\""));
    }

    #[test]
    fn slo_empty_stream_is_vacuously_met() {
        let r = SloSpec::new(0.01, 0.99).evaluate(&[]);
        assert_eq!(r.evaluated, 0);
        assert_eq!(r.compliance, 1.0);
        assert!(r.met() && r.alerts.is_empty());
    }
}
