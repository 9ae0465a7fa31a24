//! trace_explorer: replays a qos-sweep scenario with the span tracer
//! on and proves the observability layer's two hard claims on the
//! deterministic virtual timeline.
//!
//! Two open-loop cells per fleet shape — one below the calibrated
//! capacity, one at 2× (overloaded, shedding) — each driven **twice**
//! on identically-prepared datasets: once untraced, once with
//! [`sage_store::client::DatasetBuilder::tracing`] on. Asserted, per
//! cell:
//!
//! - **zero perturbation**: the traced drive's `QosReport` equals the
//!   untraced one bit-for-bit (tracing observes the timeline, never
//!   moves it);
//! - **exact reconstruction**: re-dispatching the recorded spans
//!   through a fresh scheduler ([`obs::replay`]) reproduces every
//!   op's submit → start → complete instants and finishing device
//!   bitwise, and summing each span's service intervals per device
//!   recovers the drive's `device_busy` exactly;
//! - **windowed integration**: slicing the spans into fixed windows
//!   ([`MetricsRecorder::sample_every`]) and integrating the windowed
//!   busy seconds recovers the scheduler's per-device busy totals to
//!   1e-9 relative;
//! - **shed attribution**: every shed arrival carries its would-be op
//!   kind and arrival instant (`shed_events`), and the per-kind
//!   counts sum back to the shed total.
//!
//! The serving stack (dataset, encoding, fleet, calibration) is the
//! shared [`QosScenario`] fixture, so the cells here replay exactly
//! the sweep's scenario.
//!
//! Artifacts: `BENCH_trace.json` (cells, replay verdicts, windowed
//! curves, shed attribution) and `BENCH_trace_perfetto.json` — the
//! overloaded 2-SSD cell's Chrome trace-event stream, loadable
//! directly in Perfetto (<https://ui.perfetto.dev>).
//!
//! Run with: `cargo run --release --bin trace_explorer`
//! (`SAGE_SCALE` scales the dataset like every other harness).

use sage_bench::scenario::QosScenario;
use sage_bench::{banner, row};
use sage_store::client::workload::{Arrivals, QosReport};
use sage_store::obs::{self, MetricsRecorder};
use sage_store::ShardedStore;

/// The explorer's load shape: arrivals per cell and virtual queue
/// bound.
fn scenario() -> QosScenario {
    QosScenario::new(400, 32)
}

/// Offered-load fractions of the calibrated capacity: one
/// under-loaded cell, one overloaded (shedding) cell.
const LOAD_FRACTIONS: [f64; 2] = [0.5, 2.0];

/// Windows per makespan for the sampled curves.
const WINDOWS: f64 = 24.0;

/// One verified cell: the traced report plus everything the span
/// stream proved about it.
struct Cell {
    devices: usize,
    offered_rate: f64,
    report: QosReport,
    spans: usize,
    replay_mismatches: usize,
    /// max over devices of |windowed busy − scheduler busy| / busy.
    integration_err: f64,
    windows_json: String,
    perfetto: String,
}

fn run_cell(sharded: &ShardedStore, devices: usize, rate: f64) -> Cell {
    let sc = scenario();
    // Identically-prepared datasets, the only difference the tracer.
    let plain = sc
        .open_fleet(sharded, devices, false)
        .drive_open_loop(&sc.load_at(Arrivals::Poisson { rate }), sc.queue_depth)
        .expect("untraced drive");
    let traced_ds = sc.open_fleet(sharded, devices, true);
    let report = traced_ds
        .drive_open_loop(&sc.load_at(Arrivals::Poisson { rate }), sc.queue_depth)
        .expect("traced drive");

    // Zero perturbation: the whole report, bit for bit.
    assert_eq!(
        plain, report,
        "{devices} SSDs @ {rate:.0}/s: tracing must not perturb the drive"
    );

    let buf = traced_ds.trace().expect("tracing dataset has a buffer");
    let spans = buf.spans();
    assert_eq!(spans.len() as u64, report.completed);

    // Exact reconstruction: replay reproduces every instant bitwise…
    let replay = obs::replay(&spans, devices);
    assert!(
        replay.exact(),
        "{devices} SSDs @ {rate:.0}/s: {} of {} spans replayed differently",
        replay.mismatches,
        replay.ops
    );
    // …and the spans' per-device service seconds are the drive's
    // busy accounting, exactly.
    let mut busy = vec![0.0f64; devices];
    for s in &spans {
        for iv in &s.intervals {
            busy[iv.device] += iv.seconds;
        }
    }
    assert_eq!(
        busy, report.device_busy,
        "{devices} SSDs @ {rate:.0}/s: span intervals must recover device busy seconds"
    );

    // Windowed integration: the sampled busy curves integrate back to
    // the scheduler's totals.
    let recorder = MetricsRecorder::sample_every((report.makespan / WINDOWS).max(1e-9));
    let series = recorder.sample(&spans, devices);
    let total = series.total_busy();
    let integration_err = report
        .device_busy
        .iter()
        .zip(&total)
        .map(|(a, b)| (a - b).abs() / a.max(1e-12))
        .fold(0.0f64, f64::max);
    assert!(
        integration_err < 1e-9,
        "{devices} SSDs @ {rate:.0}/s: windowed busy must integrate to scheduler busy \
         (max relative error {integration_err:e})"
    );

    // Shed attribution: every shed arrival is accounted, by kind.
    assert_eq!(report.shed_events.len() as u64, report.shed);
    let (sg, ss, sa) = report.shed_by_kind();
    assert_eq!(sg + ss + sa, report.shed);

    Cell {
        devices,
        offered_rate: rate,
        spans: spans.len(),
        replay_mismatches: replay.mismatches,
        integration_err,
        windows_json: series.to_json(),
        perfetto: buf.to_chrome_trace(),
        report,
    }
}

impl Cell {
    fn json(&self) -> String {
        let (sg, ss, sa) = self.report.shed_by_kind();
        format!(
            "{{\"devices\":{},\"offered_rps\":{:.1},\"achieved_rps\":{:.1},\"completed\":{},\
             \"shed\":{},\"shed_by_kind\":{{\"get\":{sg},\"scan\":{ss},\"append\":{sa}}},\
             \"spans\":{},\"replay_mismatches\":{},\"integration_err\":{:e},\
             \"latency\":{},\"windows\":{}}}",
            self.devices,
            self.offered_rate,
            self.report.achieved_rate,
            self.report.completed,
            self.report.shed,
            self.spans,
            self.replay_mismatches,
            self.integration_err,
            self.report.latency.json(),
            self.windows_json,
        )
    }
}

fn main() {
    banner("trace_explorer: span tracing replay of the qos-sweep scenario");
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

    let widths = [5, 10, 11, 6, 6, 7, 9, 11];
    println!(
        "{}",
        row(
            &[
                "ssds".into(),
                "offered/s".into(),
                "achieved/s".into(),
                "shed".into(),
                "spans".into(),
                "replay".into(),
                "integ".into(),
                "p99 ms".into(),
            ],
            &widths
        )
    );
    let mut cells: Vec<Cell> = Vec::new();
    for devices in [1usize, 2] {
        let capacity = sc.calibrate_capacity(&sharded, devices);
        for f in LOAD_FRACTIONS {
            let cell = run_cell(&sharded, devices, f * capacity);
            println!(
                "{}",
                row(
                    &[
                        format!("{}", cell.devices),
                        format!("{:.0}", cell.offered_rate),
                        format!("{:.0}", cell.report.achieved_rate),
                        format!("{}", cell.report.shed),
                        format!("{}", cell.spans),
                        if cell.replay_mismatches == 0 {
                            "exact".into()
                        } else {
                            format!("{} off", cell.replay_mismatches)
                        },
                        format!("{:.1e}", cell.integration_err),
                        format!("{:.3}", cell.report.latency.p99_ms),
                    ],
                    &widths
                )
            );
            cells.push(cell);
        }
    }

    // The overloaded cells must actually shed, or the attribution
    // invariants above ran vacuously.
    assert!(
        cells.iter().any(|c| c.report.shed > 0),
        "the 2x-capacity cells must shed load"
    );

    // The Perfetto export: the overloaded widest-fleet cell (the most
    // interesting picture — queue waits stretch, both device lanes
    // stay busy).
    let showcase = cells.last().expect("cells");
    std::fs::write("BENCH_trace_perfetto.json", &showcase.perfetto)
        .expect("write BENCH_trace_perfetto.json");

    let json = format!(
        "{{\n  \"bench\": \"trace_explorer\",\n  \"reads\": {},\n  \"chunks\": {},\
         \n  \"requests_per_cell\": {},\n  \"queue_depth\": {},\n  \"load_fractions\": [{}],\
         \n  \"cells\": [{}]\n}}\n",
        sharded.total_reads(),
        sharded.n_chunks(),
        sc.requests,
        sc.queue_depth,
        LOAD_FRACTIONS
            .iter()
            .map(|f| format!("{f}"))
            .collect::<Vec<_>>()
            .join(","),
        cells.iter().map(Cell::json).collect::<Vec<_>>().join(","),
    );
    std::fs::write("BENCH_trace.json", &json).expect("write BENCH_trace.json");
    println!(
        "\nwrote BENCH_trace.json and BENCH_trace_perfetto.json ({} spans in the showcase trace)",
        showcase.spans
    );
}
