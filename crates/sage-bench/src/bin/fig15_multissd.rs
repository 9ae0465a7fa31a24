//! Fig. 15: throughput scaling when data is partitioned across
//! 1×/2×/4× PCIe SSDs — measured on the store's **closed-loop
//! driver**, not the analytical pipeline model.
//!
//! The original harness derived this figure from `run_experiment`'s
//! stage algebra. It now shares one serving machinery with the store
//! benches: the dataset is really encoded into the sharded chunk
//! store, chunk extents are striped across the fleet
//! (`SystemConfig::with_ssds(n).device_configs()`), and the
//! device-count scaling curve comes from
//! [`sage_store::client::Dataset::drive_closed_loop`] — a closed
//! loop of clients, run on the caller's thread, whose per-request
//! latencies and makespan live on the drive's own virtual device
//! timeline. The decoded-chunk cache is disabled so every
//! request pays its device.
//!
//! Expected shape (paper): striping scales the serving rate with the
//! device count until queueing at the fixed client population binds —
//! the paper's "SAGe keeps its speedup with multiple SSDs"
//! observation, here reproduced from the serving path itself.
//!
//! Run with: `cargo run --release --bin fig15_multissd`
//! (`SAGE_SCALE` scales the dataset like every other harness).

use sage_bench::{banner, dataset, fmt_x, row};
use sage_genomics::sim::DatasetProfile;
use sage_pipeline::SystemConfig;
use sage_store::client::{range_for, ClosedLoopSpec, DatasetBuilder};
use sage_store::{encode_sharded, QosReport, ShardedStore, StoreOp, StoreOptions};

/// Requests per device-count cell.
const REQUESTS: u64 = 480;

/// Closed-loop clients (offered queue depth).
const CLIENTS: usize = 16;

/// Minimum chunks to shard a dataset into: enough extents that even
/// the 4-SSD fleet stripes meaningfully (long-read profiles have few,
/// large reads — a fixed chunk population would leave them with a
/// handful of chunks and nothing to stripe).
const MIN_CHUNKS: usize = 64;

/// Drives one closed-loop cell over an `n`-SSD fleet.
fn measure(sharded: &ShardedStore, span: u64, n: usize) -> QosReport {
    let fleet = SystemConfig::pcie().with_ssds(n).device_configs();
    let served = DatasetBuilder::new()
        .cache_chunks(0) // every request pays its device
        .ssd_fleet(fleet)
        .open(sharded.clone())
        .expect("valid fleet configuration");
    let total = served.total_reads();
    served
        .drive_closed_loop(
            &ClosedLoopSpec {
                clients: CLIENTS,
                requests: REQUESTS,
            },
            |c, i| StoreOp::Get(range_for(c, i, total, span)),
        )
        .expect("closed loop")
}

fn main() {
    banner("Figure 15: multi-SSD scaling through the store serving path");
    let profiles = [
        DatasetProfile::rs1().scaled(0.04), // short reads
        DatasetProfile::rs4().scaled(0.02), // long reads
    ];
    let widths = [6, 5, 12, 10, 10, 10, 10];
    println!(
        "{}",
        row(
            &[
                "set".into(),
                "#SSD".into(),
                "req/s".into(),
                "Gbase/s".into(),
                "p50 ms".into(),
                "p99 ms".into(),
                "speedup".into(),
            ],
            &widths
        )
    );

    let mut scalings = Vec::new();
    for profile in &profiles {
        let ds = dataset(profile);
        let chunk_reads = (ds.reads.len() / MIN_CHUNKS).max(4);
        let sharded =
            encode_sharded(&ds.reads, &StoreOptions::new(chunk_reads)).expect("encode store");
        let mut base_req_per_s = 0.0;
        for n in [1usize, 2, 4] {
            let report = measure(&sharded, chunk_reads as u64, n);
            if n == 1 {
                base_req_per_s = report.achieved_rate;
            }
            let speedup = report.achieved_rate / base_req_per_s;
            println!(
                "{}",
                row(
                    &[
                        profile.name.clone(),
                        format!("{n}x"),
                        format!("{:.0}", report.achieved_rate),
                        format!("{:.3}", report.bases_per_sec() / 1e9),
                        format!("{:.3}", report.latency.p50_ms),
                        format!("{:.3}", report.latency.p99_ms),
                        fmt_x(speedup),
                    ],
                    &widths
                )
            );
            if n == 4 {
                scalings.push(speedup);
            }
        }
    }

    println!(
        "\nevery number above comes from the drive's virtual device \
         timeline: the same closed-loop driver io_sweep and the \
         pipeline's store-served scenario run on."
    );

    // The figure's claim, asserted on the deterministic timeline:
    // partitioning across 4 SSDs keeps scaling the serving rate.
    for (profile, s) in profiles.iter().zip(&scalings) {
        assert!(
            *s >= 1.5,
            "{}: striping 1→4 SSDs must scale req/s ≥1.5x, got {s:.2}x",
            profile.name
        );
    }
}
