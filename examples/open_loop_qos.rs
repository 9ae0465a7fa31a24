//! Open-loop QoS in one file: drive the same served dataset at three
//! Poisson arrival rates — comfortable, near-saturation, and
//! overloaded — and watch the classic storage-QoS shape fall out of
//! the virtual timeline: achieved throughput tracks offered load
//! until the knee, then plateaus while p99 latency pins at the queue
//! bound and the excess arrivals are shed.
//!
//! Everything is seeded: run it twice and every number repeats
//! bit-for-bit (`sage::workload` derives arrival instants and the op
//! stream from `TenantLoad::seed` alone).
//!
//! Run with: `cargo run --release --example open_loop_qos`

use sage::client::DatasetBuilder;
use sage::genomics::sim::{simulate_dataset, DatasetProfile};
use sage::ssd::SsdConfig;
use sage::workload::{Arrivals, OpMix, Pattern, TenantLoad};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A two-SSD dataset with caching off, so every operation pays its
    // device and the latency curve is pure queueing + service.
    let ds = simulate_dataset(&DatasetProfile::rs1().scaled(0.02), 13);
    let build = || {
        DatasetBuilder::new()
            .chunk_reads(32)
            .cache_chunks(0)
            .ssd_fleet(vec![SsdConfig::pcie(), SsdConfig::pcie()])
            .encode(&ds.reads)
    };
    println!("serving {} reads over 2 SSDs, open loop\n", ds.reads.len());

    // Calibrate the fleet's capacity from a trickle-rate run: mean
    // device-seconds per op → ops/s the devices can absorb.
    let mut load = TenantLoad::new(Arrivals::Fixed { rate: 1.0 });
    load.pattern = Pattern::Zipf {
        theta: 1.0,
        span: 32,
    };
    load.mix = OpMix::gets();
    load.requests = 64;
    let capacity = build()?.drive_open_loop(&load, 64)?.capacity_estimate(2);
    println!("calibrated capacity ≈ {capacity:.0} req/s");

    println!(
        "\n{:>10} {:>11} {:>6} {:>9} {:>9} {:>9}",
        "offered/s", "achieved/s", "shed", "p50 ms", "p99 ms", "p999 ms"
    );
    for fraction in [0.4, 0.9, 2.5] {
        load.arrivals = Arrivals::Poisson {
            rate: fraction * capacity,
        };
        load.requests = 400;
        let report = build()?.drive_open_loop(&load, 32)?;
        println!(
            "{:>10.0} {:>11.0} {:>6} {:>9.3} {:>9.3} {:>9.3}",
            report.offered_rate,
            report.achieved_rate,
            report.shed,
            report.latency.p50_ms,
            report.latency.p99_ms,
            report.latency.p999_ms,
        );
    }
    println!(
        "\nbelow the knee offered ≈ achieved and nothing sheds; past it \
         the plateau is the knee and p99 pins at the queue bound."
    );
    Ok(())
}
