//! blame_explorer: runs the shared qos scenario with tracing on and
//! turns the span stream into the analysis tier's full output —
//! per-op latency blame, the windowed bottleneck timeline, tail
//! forensics, and SLO burn-rate alerts — then writes the
//! `BENCH_blame.json` artifact the CI perf-regression gate diffs
//! against its committed baseline.
//!
//! Four cells: {1, 2} SSDs × {0.5×, 2×} of the calibrated capacity,
//! each driven once with the tracer on. Per cell, asserted on the
//! deterministic virtual timeline:
//!
//! - **conservation**: every span's blame components fold back to its
//!   latency bit-for-bit
//!   ([`sage_store::obs::analysis::LatencyBlame::total`]);
//! - **busy agreement**: the bottleneck timeline's busy integrals
//!   recover the drive's per-device busy seconds to 1e-9 relative;
//! - **blame shifts with load**: the overloaded cell's queue share
//!   exceeds the underloaded cell's, and its dominant non-idle label
//!   is queue-bound;
//! - **SLO monotonicity**: the overloaded cell burns error budget
//!   faster — alerts fire there, compliance drops — and evaluating
//!   the same stream twice yields bit-identical reports.
//!
//! The decode cost model (`DECODE_SECS_PER_CHUNK`) is an
//! analysis-side estimate only — it feeds the decode-bound classifier
//! and never touches the timeline.
//!
//! Run with: `cargo run --release --bin blame_explorer`
//! (`SAGE_SCALE` scales the dataset like every other harness).

use sage_bench::scenario::QosScenario;
use sage_bench::{banner, row};
use sage_store::client::workload::{Arrivals, QosReport};
use sage_store::obs::analysis::{tail_forensics, AnalysisSpec, BlameReport, SloSeverity, SloSpec};
use sage_store::ShardedStore;

/// The explorer's load shape: arrivals per cell and virtual queue
/// bound.
fn scenario() -> QosScenario {
    QosScenario::new(400, 32)
}

/// Offered-load fractions of the calibrated capacity: one
/// under-loaded cell, one overloaded (queue-bound) cell.
const LOAD_FRACTIONS: [f64; 2] = [0.5, 2.0];

/// Windows per makespan for the bottleneck timeline.
const WINDOWS: f64 = 24.0;

/// Analysis-side estimate of host seconds to decode one chunk (~20 µs
/// for a 48-read chunk: the classifier's decode blame, not a timeline
/// cost).
const DECODE_SECS_PER_CHUNK: f64 = 20e-6;

/// Worst-op exemplars per op kind in the tail forensics.
const TAIL_K: usize = 3;

/// SLO target as a multiple of the cell's mean per-op service time:
/// generous enough that the underloaded cell meets it, tight enough
/// that queueing at 2× blows through it.
const SLO_TARGET_X_SERVICE: f64 = 8.0;

/// One analyzed cell.
struct Cell {
    devices: usize,
    fraction: f64,
    offered_rate: f64,
    report: QosReport,
    blame: BlameReport,
    queue_share: f64,
    service_share: f64,
    dominant: &'static str,
    slo_json: String,
    slo_met: bool,
    slo_alerts: usize,
    slo_pages: usize,
    slo_compliance: f64,
    tails_json: String,
}

fn run_cell(sharded: &ShardedStore, devices: usize, fraction: f64, capacity: f64) -> Cell {
    let sc = scenario();
    let rate = fraction * capacity;
    let dataset = sc.open_fleet(sharded, devices, true);
    let report = dataset
        .drive_open_loop(&sc.load_at(Arrivals::Poisson { rate }), sc.queue_depth)
        .expect("traced drive");
    let spans = dataset.trace().expect("tracing buffer").spans();
    assert_eq!(spans.len() as u64, report.completed);

    let mut spec = AnalysisSpec::with_window((report.makespan / WINDOWS).max(1e-9));
    spec.decode_secs_per_chunk = DECODE_SECS_PER_CHUNK;
    let blame = dataset.analyze(&spec).expect("tracing dataset analyzes");

    // Conservation: every op's blame folds back to its latency
    // bit-for-bit.
    for (b, s) in blame.blames.iter().zip(spans.iter()) {
        assert_eq!(
            b.total().to_bits(),
            s.latency().to_bits(),
            "{devices} SSDs @ {fraction}x: blame of token {} must conserve its latency",
            s.token
        );
    }

    // Busy agreement: the timeline's integrals recover the drive's
    // busy seconds.
    let busy = blame.device_busy();
    let err = report
        .device_busy
        .iter()
        .zip(&busy)
        .map(|(a, b)| (a - b).abs() / a.max(1e-12))
        .fold(0.0f64, f64::max);
    assert!(
        err < 1e-9,
        "{devices} SSDs @ {fraction}x: windowed busy must integrate to drive busy \
         (max relative error {err:e})"
    );
    assert_eq!(
        blame.label_counts().iter().sum::<usize>(),
        blame.windows.len()
    );

    // SLO: target pinned to this cell's own mean service time, so the
    // monitor measures *queueing*, not absolute device speed.
    let shares = blame.shares();
    let mean_service = shares.service / blame.ops.max(1) as f64;
    let slo = SloSpec::new(SLO_TARGET_X_SERVICE * mean_service, 0.95)
        .with_window(spec.window_secs)
        .with_burns(10.0, 2.0);
    let slo_report = slo.evaluate(&spans);
    // Determinism: the same stream evaluates to the same report, bit
    // for bit, alerts included.
    assert_eq!(
        slo_report,
        slo.evaluate(&spans),
        "{devices} SSDs @ {fraction}x: SLO evaluation must be bit-reproducible"
    );

    let tails = tail_forensics(&spans, TAIL_K);
    let tails_json = format!(
        "[{}]",
        tails
            .iter()
            .map(|t| t.to_json())
            .collect::<Vec<_>>()
            .join(",")
    );
    Cell {
        devices,
        fraction,
        offered_rate: rate,
        queue_share: shares.queue_share(),
        service_share: shares.service_share(),
        dominant: blame.dominant().label(),
        slo_json: slo_report.to_json(),
        slo_met: slo_report.met(),
        slo_alerts: slo_report.alerts.len(),
        slo_pages: slo_report
            .alerts
            .iter()
            .filter(|a| a.severity == SloSeverity::Page)
            .count(),
        slo_compliance: slo_report.compliance,
        tails_json,
        report,
        blame,
    }
}

impl Cell {
    fn json(&self) -> String {
        format!(
            "{{\"devices\":{},\"fraction\":{},\"offered_rps\":{:.1},\"achieved_rps\":{:.1},\
             \"completed\":{},\"shed\":{},\"latency\":{},\
             \"queue_share\":{:.6},\"service_share\":{:.6},\"stall_share\":{:.6},\
             \"dominant\":\"{}\",\"label_counts\":{{\"idle\":{},\"device\":{},\"queue\":{},\"decode\":{}}},\
             \"slo_pages\":{},\"slo\":{},\"tails\":{}}}",
            self.devices,
            self.fraction,
            self.offered_rate,
            self.report.achieved_rate,
            self.report.completed,
            self.report.shed,
            self.report.latency.json(),
            self.queue_share,
            self.service_share,
            self.blame.shares().stall_share(),
            self.dominant,
            self.blame.label_counts()[0],
            self.blame.label_counts()[1],
            self.blame.label_counts()[2],
            self.blame.label_counts()[3],
            self.slo_pages,
            self.slo_json,
            self.tails_json,
        )
    }
}

fn main() {
    banner("blame_explorer: latency blame, bottleneck timeline, and SLO burn rates");
    let sc = scenario();
    let sharded = sc.encode_store();
    println!(
        "dataset: {} reads in {} chunks of ≤{} reads; {} Poisson arrivals per cell, \
         virtual queue depth {}",
        sharded.total_reads(),
        sharded.n_chunks(),
        sc.reads_per_chunk,
        sc.requests,
        sc.queue_depth,
    );

    let widths = [5, 5, 10, 11, 8, 8, 13, 7, 7, 6];
    println!(
        "{}",
        row(
            &[
                "ssds".into(),
                "load".into(),
                "offered/s".into(),
                "achieved/s".into(),
                "queue%".into(),
                "serve%".into(),
                "dominant".into(),
                "slo".into(),
                "alerts".into(),
                "p99ms".into(),
            ],
            &widths
        )
    );
    let mut cells: Vec<Cell> = Vec::new();
    for devices in [1usize, 2] {
        let capacity = sc.calibrate_capacity(&sharded, devices);
        for f in LOAD_FRACTIONS {
            let cell = run_cell(&sharded, devices, f, capacity);
            println!(
                "{}",
                row(
                    &[
                        format!("{}", cell.devices),
                        format!("{}x", cell.fraction),
                        format!("{:.0}", cell.offered_rate),
                        format!("{:.0}", cell.report.achieved_rate),
                        format!("{:.1}%", cell.queue_share * 100.0),
                        format!("{:.1}%", cell.service_share * 100.0),
                        cell.dominant.into(),
                        if cell.slo_met {
                            "met".into()
                        } else {
                            "MISS".into()
                        },
                        format!("{}", cell.slo_alerts),
                        format!("{:.3}", cell.report.latency.p99_ms),
                    ],
                    &widths
                )
            );
            cells.push(cell);
        }
    }

    // Blame shifts with load: per fleet shape, overload must push the
    // queue share up, turn the dominant label queue-bound, fire SLO
    // alerts, and burn compliance below the underloaded cell's.
    for pair in cells.chunks(2) {
        let (under, over) = (&pair[0], &pair[1]);
        assert!(
            over.queue_share > under.queue_share,
            "{} SSDs: overload must raise the queue share ({:.3} -> {:.3})",
            under.devices,
            under.queue_share,
            over.queue_share
        );
        assert_eq!(
            over.dominant, "queue_bound",
            "{} SSDs: the overloaded cell must be queue-bound",
            under.devices
        );
        assert!(
            over.slo_alerts > 0,
            "{} SSDs: overload must fire SLO alerts",
            under.devices
        );
        assert!(
            !over.slo_met && under.slo_met,
            "{} SSDs: SLO must hold at 0.5x and miss at 2x \
             (under compliance {:.4}, over compliance {:.4})",
            under.devices,
            under.slo_compliance,
            over.slo_compliance
        );
        assert!(
            over.slo_compliance < under.slo_compliance,
            "{} SSDs: overload must burn compliance",
            under.devices
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"blame_explorer\",\n  \"reads\": {},\n  \"chunks\": {},\
         \n  \"requests_per_cell\": {},\n  \"queue_depth\": {},\n  \"load_fractions\": [{}],\
         \n  \"windows\": {},\n  \"decode_secs_per_chunk\": {},\n  \"cells\": [{}]\n}}\n",
        sharded.total_reads(),
        sharded.n_chunks(),
        sc.requests,
        sc.queue_depth,
        LOAD_FRACTIONS
            .iter()
            .map(|f| format!("{f}"))
            .collect::<Vec<_>>()
            .join(","),
        WINDOWS,
        DECODE_SECS_PER_CHUNK,
        cells.iter().map(Cell::json).collect::<Vec<_>>().join(","),
    );
    std::fs::write("BENCH_blame.json", &json).expect("write BENCH_blame.json");
    println!(
        "\nwrote BENCH_blame.json ({} cells, {} spans total)",
        cells.len(),
        cells.iter().map(|c| c.blame.ops).sum::<usize>()
    );
}
