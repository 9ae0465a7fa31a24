//! io_sweep: the device-count × queue-depth sweep over the
//! closed-loop driver and the multi-SSD chunk store.
//!
//! Each cell opens the sharded store as a [`sage_store::client`]
//! `Dataset` whose chunk extents are striped across N PCIe device
//! models (`SystemConfig::with_ssds(n)` supplies the fleet) and runs
//! the client layer's shared **closed-loop driver**
//! ([`sage_store::client::Dataset::drive_closed_loop`]):
//! `queue_depth` logical clients
//! each keep exactly one random `Get` in flight, submitting their
//! next request at the virtual instant the previous one completed.
//! The decoded-chunk cache is disabled so every request pays its
//! device, and all reported numbers come from the drive's
//! **virtual** device timeline — req/s against the virtual makespan,
//! p50/p99 of per-request virtual latency, and per-device utilization
//! — so the sweep measures queueing and striping, not the CI host's
//! load.
//!
//! Two sweeps, both written to `BENCH_io.json`:
//!
//! - device count 1→8 at fixed queue depth: throughput scales with
//!   devices (asserted ≥1.5× from 1→4);
//! - queue depth 1→32 at fixed devices: p99 latency grows
//!   monotonically with depth (asserted, with a small jitter
//!   allowance) while throughput saturates.
//!
//! Run with: `cargo run --release --bin io_sweep`
//! (`SAGE_SCALE` scales the dataset like every other harness).

use sage_bench::{banner, dataset, row};
use sage_genomics::sim::DatasetProfile;
use sage_pipeline::SystemConfig;
use sage_store::client::{range_for, ClosedLoopSpec, DatasetBuilder};
use sage_store::{encode_sharded, QosReport, ShardedStore, StoreOp, StoreOptions};

/// Requests driven through the closed loop per sweep cell.
const REQUESTS_PER_CELL: u64 = 480;

/// Reads per chunk (small chunks ⇒ many extents to stripe).
const READS_PER_CHUNK: usize = 48;

/// One sweep cell's results (virtual-time metrics).
struct Cell {
    devices: usize,
    queue_depth: usize,
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
        format!(
            "{{\"devices\":{},\"queue_depth\":{},\"req_per_s\":{:.1},\"latency\":{},\"utilization\":[{util}]}}",
            self.devices,
            self.queue_depth,
            self.report.achieved_rate,
            self.report.latency.json(),
        )
    }
}

/// Runs one closed-loop cell: `queue_depth` clients over an engine
/// striped across `devices` PCIe models, on the client layer's shared
/// driver.
fn run_cell(sharded: &ShardedStore, devices: usize, queue_depth: usize) -> Cell {
    let fleet = SystemConfig::pcie().with_ssds(devices).device_configs();
    let dataset = DatasetBuilder::new()
        .cache_chunks(0) // every request pays its device
        .ssd_fleet(fleet)
        .open(sharded.clone())
        .expect("valid sweep configuration");
    let total = dataset.total_reads();
    let span = READS_PER_CHUNK as u64;
    let report = dataset
        .drive_closed_loop(
            &ClosedLoopSpec {
                clients: queue_depth,
                requests: REQUESTS_PER_CELL,
            },
            |c, i| StoreOp::Get(range_for(c, i, total, span)),
        )
        .expect("closed loop");
    Cell {
        devices,
        queue_depth,
        report,
    }
}

fn print_cell(c: &Cell, widths: &[usize]) {
    let util = if c.report.utilization.is_empty() {
        "-".to_string()
    } else {
        let lo = c
            .report
            .utilization
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi = c.report.utilization.iter().copied().fold(0.0, f64::max);
        format!("{:.0}-{:.0}%", lo * 100.0, hi * 100.0)
    };
    println!(
        "{}",
        row(
            &[
                format!("{}", c.devices),
                format!("{}", c.queue_depth),
                format!("{:.0}", c.report.achieved_rate),
                format!("{:.3}", c.report.latency.p50_ms),
                format!("{:.3}", c.report.latency.p99_ms),
                util,
            ],
            widths
        )
    );
}

fn main() {
    banner("io_sweep: closed-loop drive over the multi-SSD store");
    let ds = dataset(&DatasetProfile::rs1().scaled(0.04));
    let sharded =
        encode_sharded(&ds.reads, &StoreOptions::new(READS_PER_CHUNK)).expect("encode store");
    println!(
        "dataset: {} reads in {} chunks of ≤{} reads; {} requests per cell\n",
        sharded.total_reads(),
        sharded.n_chunks(),
        READS_PER_CHUNK,
        REQUESTS_PER_CELL
    );

    let widths = [8, 8, 10, 10, 10, 10];
    let header = row(
        &[
            "devices".into(),
            "qd".into(),
            "req/s".into(),
            "p50 ms".into(),
            "p99 ms".into(),
            "util".into(),
        ],
        &widths,
    );

    banner("device-count sweep (queue depth 16)");
    println!("{header}");
    let device_cells: Vec<Cell> = [1usize, 2, 4, 8]
        .iter()
        .map(|&n| {
            let c = run_cell(&sharded, n, 16);
            print_cell(&c, &widths);
            c
        })
        .collect();
    let scaling = device_cells[2].report.achieved_rate / device_cells[0].report.achieved_rate;
    println!("1→4 device throughput scaling: {scaling:.2}x");

    banner("queue-depth sweep (4 devices)");
    println!("{header}");
    // The closed-loop driver's timeline is fully deterministic
    // (dispatch order = submission order), which the monotonicity
    // assertion below relies on.
    let qd_cells: Vec<Cell> = [1usize, 2, 4, 8, 16, 32]
        .iter()
        .map(|&qd| {
            let c = run_cell(&sharded, 4, qd);
            print_cell(&c, &widths);
            c
        })
        .collect();

    let json = format!(
        "{{\n  \"bench\": \"io_sweep\",\n  \"reads\": {},\n  \"chunks\": {},\n  \"reads_per_chunk\": {},\n  \"requests_per_cell\": {},\n  \"device_sweep\": [{}],\n  \"qd_sweep\": [{}],\n  \"scaling_1_to_4\": {:.3}\n}}\n",
        sharded.total_reads(),
        sharded.n_chunks(),
        READS_PER_CHUNK,
        REQUESTS_PER_CELL,
        device_cells.iter().map(Cell::json).collect::<Vec<_>>().join(","),
        qd_cells.iter().map(Cell::json).collect::<Vec<_>>().join(","),
        scaling,
    );
    std::fs::write("BENCH_io.json", &json).expect("write BENCH_io.json");
    println!("\nwrote BENCH_io.json");

    // The sweep's two claims, asserted on the deterministic virtual
    // timeline (wall-clock noise cannot flake them).
    assert!(
        scaling >= 1.5,
        "striping 1→4 devices must scale req/s ≥1.5x, got {scaling:.2}x"
    );
    for pair in qd_cells.windows(2) {
        assert!(
            pair[1].report.latency.p99_ms >= pair[0].report.latency.p99_ms * 0.98,
            "p99 must grow with queue depth: qd {} → {:.3} ms, qd {} → {:.3} ms",
            pair[0].queue_depth,
            pair[0].report.latency.p99_ms,
            pair[1].queue_depth,
            pair[1].report.latency.p99_ms
        );
    }
    assert!(
        qd_cells.last().expect("cells").report.latency.p99_ms > qd_cells[0].report.latency.p99_ms,
        "deep queues must cost p99 latency"
    );
}
