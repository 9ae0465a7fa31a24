//! qos_sweep: the open-loop arrival-rate sweep to saturation — the
//! classic storage QoS picture (latency–throughput curves) the
//! closed-loop benches cannot draw.
//!
//! A closed loop can only measure operating points where offered load
//! equals service rate; this sweep instead drives
//! [`sage_store::client::Dataset::drive_open_loop`]: Poisson arrivals
//! injected on the virtual timeline *regardless of completions*, with
//! arrivals that find the bounded virtual queue full counted as shed.
//! The serving stack (dataset, encoding, fleet, calibration) is the
//! shared [`QosScenario`] fixture; per device count the sweep first
//! calibrates the service capacity (a trickle-rate run measuring mean
//! device seconds per operation), then offers fractions 0.25×…3× of
//! it and records achieved vs offered throughput, the shared latency
//! percentile block, shed fractions, and per-device utilization — all
//! on the deterministic virtual timeline, so the asserted shape
//! cannot flake on CI load.
//!
//! Expected shape, asserted:
//!
//! - p99 latency is monotone (within tolerance) in offered load and
//!   grows ≥5× from the lowest offered rate to the highest;
//! - achieved throughput plateaus past saturation (the two overloaded
//!   rates agree within 12%) while shed counts climb;
//! - the saturation knee (max achieved throughput) at 4 SSDs is ≥1.5×
//!   the 1-SSD knee — striping moves the knee, not just the mean.
//!
//! Results land in `BENCH_qos.json`.
//!
//! Run with: `cargo run --release --bin qos_sweep`
//! (`SAGE_SCALE` scales the dataset like every other harness).

use sage_bench::scenario::QosScenario;
use sage_bench::{banner, row};
use sage_store::client::workload::{Arrivals, QosReport};
use sage_store::ShardedStore;

/// The sweep's load shape: arrivals per cell and virtual queue bound.
fn scenario() -> QosScenario {
    QosScenario::new(600, 64)
}

/// Offered-load fractions of the calibrated capacity.
const LOAD_FRACTIONS: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.25, 3.0];

/// One sweep cell: what was offered, what came back.
struct Cell {
    offered_rate: f64,
    report: QosReport,
}

impl Cell {
    fn json(&self) -> String {
        let util = self
            .report
            .utilization
            .iter()
            .map(|u| format!("{u:.4}"))
            .collect::<Vec<_>>()
            .join(",");
        let (shed_gets, shed_scans, shed_appends) = self.report.shed_by_kind();
        format!(
            "{{\"offered_rps\":{:.1},\"achieved_rps\":{:.1},\"completed\":{},\"shed\":{},\"shed_fraction\":{:.4},\"shed_by_kind\":{{\"get\":{shed_gets},\"scan\":{shed_scans},\"append\":{shed_appends}}},\"latency\":{},\"utilization\":[{util}]}}",
            self.offered_rate,
            self.report.achieved_rate,
            self.report.completed,
            self.report.shed,
            self.report.shed_fraction(),
            self.report.latency.json(),
        )
    }
}

fn run_cell(sharded: &ShardedStore, devices: usize, rate: f64) -> Cell {
    let sc = scenario();
    let dataset = sc.open_fleet(sharded, devices, false);
    let report = dataset
        .drive_open_loop(&sc.load_at(Arrivals::Poisson { rate }), sc.queue_depth)
        .expect("open loop");
    Cell {
        offered_rate: rate,
        report,
    }
}

/// One device count's full rate sweep.
struct Sweep {
    devices: usize,
    capacity_est: f64,
    cells: Vec<Cell>,
}

impl Sweep {
    /// The saturation knee: the best throughput the fleet actually
    /// achieved anywhere in the sweep.
    fn knee(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.report.achieved_rate)
            .fold(0.0, f64::max)
    }

    fn json(&self) -> String {
        format!(
            "{{\"devices\":{},\"capacity_est_rps\":{:.1},\"knee_rps\":{:.1},\"cells\":[{}]}}",
            self.devices,
            self.capacity_est,
            self.knee(),
            self.cells
                .iter()
                .map(Cell::json)
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

fn run_sweep(sharded: &ShardedStore, devices: usize, widths: &[usize]) -> Sweep {
    let capacity_est = scenario().calibrate_capacity(sharded, devices);
    banner(&format!(
        "{devices}-SSD sweep (calibrated capacity ≈ {capacity_est:.0} req/s)"
    ));
    println!(
        "{}",
        row(
            &[
                "offered/s".into(),
                "achieved/s".into(),
                "shed".into(),
                "p50 ms".into(),
                "p99 ms".into(),
                "p999 ms".into(),
                "util".into(),
            ],
            widths
        )
    );
    let cells: Vec<Cell> = LOAD_FRACTIONS
        .iter()
        .map(|f| {
            let cell = run_cell(sharded, devices, f * capacity_est);
            let peak_util = cell.report.utilization.iter().copied().fold(0.0, f64::max);
            println!(
                "{}",
                row(
                    &[
                        format!("{:.0}", cell.offered_rate),
                        format!("{:.0}", cell.report.achieved_rate),
                        format!("{}", cell.report.shed),
                        format!("{:.3}", cell.report.latency.p50_ms),
                        format!("{:.3}", cell.report.latency.p99_ms),
                        format!("{:.3}", cell.report.latency.p999_ms),
                        format!("{:.0}%", peak_util * 100.0),
                    ],
                    widths
                )
            );
            cell
        })
        .collect();
    Sweep {
        devices,
        capacity_est,
        cells,
    }
}

fn main() {
    banner("qos_sweep: open-loop arrival-rate sweep to saturation");
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

    let widths = [10, 11, 6, 9, 9, 9, 6];
    let sweeps: Vec<Sweep> = [1usize, 4]
        .iter()
        .map(|&n| run_sweep(&sharded, n, &widths))
        .collect();

    let knee_scaling = sweeps[1].knee() / sweeps[0].knee();
    let p99_growth = |s: &Sweep| {
        s.cells.last().expect("cells").report.latency.p99_ms
            / s.cells[0].report.latency.p99_ms.max(f64::MIN_POSITIVE)
    };
    println!(
        "\nsaturation knee: {:.0} req/s (1 SSD) → {:.0} req/s (4 SSDs): {knee_scaling:.2}x",
        sweeps[0].knee(),
        sweeps[1].knee()
    );
    println!(
        "p99 growth to overload: {:.1}x (1 SSD), {:.1}x (4 SSDs)",
        p99_growth(&sweeps[0]),
        p99_growth(&sweeps[1])
    );

    let json = format!(
        "{{\n  \"bench\": \"qos_sweep\",\n  \"reads\": {},\n  \"chunks\": {},\n  \"reads_per_chunk\": {},\n  \"requests_per_cell\": {},\n  \"queue_depth\": {},\n  \"load_fractions\": [{}],\n  \"sweeps\": [{}],\n  \"knee_scaling_1_to_4\": {:.3},\n  \"p99_growth_1ssd\": {:.3}\n}}\n",
        sharded.total_reads(),
        sharded.n_chunks(),
        sc.reads_per_chunk,
        sc.requests,
        sc.queue_depth,
        LOAD_FRACTIONS
            .iter()
            .map(|f| format!("{f}"))
            .collect::<Vec<_>>()
            .join(","),
        sweeps.iter().map(Sweep::json).collect::<Vec<_>>().join(","),
        knee_scaling,
        p99_growth(&sweeps[0]),
    );
    std::fs::write("BENCH_qos.json", &json).expect("write BENCH_qos.json");
    println!("\nwrote BENCH_qos.json");

    // The sweep's claims, asserted on the deterministic virtual
    // timeline (wall-clock noise cannot flake them).
    for sweep in &sweeps {
        // Monotone within a 25% allowance: below saturation p99 grows
        // strictly with offered load; past it the bounded virtual
        // queue *pins* latency near depth × service, so the overload
        // cells trace a flat line whose exact height wobbles with how
        // admissions interleave with completions across the fleet.
        for pair in sweep.cells.windows(2) {
            assert!(
                pair[1].report.latency.p99_ms >= pair[0].report.latency.p99_ms * 0.75,
                "{} SSDs: p99 must be monotone in offered load: {:.0}/s → {:.3} ms, {:.0}/s → {:.3} ms",
                sweep.devices,
                pair[0].offered_rate,
                pair[0].report.latency.p99_ms,
                pair[1].offered_rate,
                pair[1].report.latency.p99_ms,
            );
        }
        let growth = p99_growth(sweep);
        assert!(
            growth >= 5.0,
            "{} SSDs: p99 must grow ≥5x to overload, got {growth:.2}x",
            sweep.devices
        );
        // Past saturation the curve is flat: offered keeps climbing
        // 1.5→2.25→3×, achieved stays put (the plateau) and the
        // excess is shed.
        let over: Vec<f64> = sweep
            .cells
            .iter()
            .skip(LOAD_FRACTIONS.len() - 2)
            .map(|c| c.report.achieved_rate)
            .collect();
        assert!(
            (over[1] - over[0]).abs() / over[0] < 0.12,
            "{} SSDs: achieved throughput must plateau past saturation: {over:?}",
            sweep.devices
        );
        let worst = sweep.cells.last().expect("cells");
        assert!(
            worst.report.shed > 0,
            "{} SSDs: 3x overload must shed load",
            sweep.devices
        );
    }
    assert!(
        knee_scaling >= 1.5,
        "striping 1→4 SSDs must move the saturation knee ≥1.5x, got {knee_scaling:.2}x"
    );
}
