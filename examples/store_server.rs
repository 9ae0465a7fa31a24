//! Store serving: encode a dataset into the sharded chunk store and
//! serve concurrent random-access queries through the typed session
//! API (`sage::client`) — with chunk extents striped across a two-SSD
//! fleet, so every cache miss is charged a `SAGe_Read` extent command
//! against its owning device model.
//!
//! One builder folds every knob (codec, cache, fleet, serving);
//! sessions return typed tickets (`get → Ticket<ReadView>` — a
//! zero-copy view over the cached chunks — `append →
//! Ticket<u64>`), and every completion carries the engine's `OpTrace`:
//! the operation's device charges and cache outcome.
//!
//! Run with: `cargo run --release --example store_server`

use sage::client::{DatasetBuilder, SubmitMode};
use sage::genomics::sim::{simulate_dataset, DatasetProfile};
use sage::genomics::ReadSet;
use sage::ssd::SsdConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize a read set and build the served dataset in one
    //    fluent pass: 64-read chunks compressed in parallel, a small
    //    LRU cache, chunk extents striped round-robin over
    //    a two-device PCIe fleet, four reactor workers behind a
    //    16-deep submission ring. Conflicting knobs (say, `ssd` plus
    //    `ssd_fleet`) would fail here with a typed ConfigError.
    let ds = simulate_dataset(&DatasetProfile::rs1().scaled(0.05), 7);
    let dataset = DatasetBuilder::new()
        .chunk_reads(64)
        .cache_chunks(6)
        .ssd_fleet(vec![SsdConfig::pcie(), SsdConfig::pcie()])
        .server_workers(4)
        .queue_depth(16)
        .encode(&ds.reads)?;
    println!(
        "serving {} reads across {} devices ({} blob bytes)",
        dataset.total_reads(),
        dataset.engine().n_devices(),
        ds.reads.total_bases(),
    );

    // 2. Four clients issue interleaved random-range gets, each on
    //    its own session. Tickets are typed: no response enum to
    //    match, a `get` can only resolve to reads.
    let total = dataset.total_reads();
    std::thread::scope(|s| {
        for c in 0..4u64 {
            let session = dataset.session();
            s.spawn(move || {
                for i in 0..50u64 {
                    let start = (c * 131 + i * 37) % total;
                    let end = (start + 20).min(total);
                    let reads = session
                        .get(start..end)
                        .expect("submit")
                        .join()
                        .expect("get");
                    assert_eq!(reads.len() as u64, end - start);
                }
            });
        }
    });

    // 3. A predicate scan and an append flow through the same queue —
    //    and their completions report what serving them cost.
    let session = dataset.session().with_mode(SubmitMode::Block);
    let scan = session.scan(|r| r.len() >= 100)?.wait()?;
    println!(
        "scan matched {} reads: touched {} chunks ({} cached), charged {:.3} ms of device time",
        scan.value.len(),
        scan.report.chunks_touched,
        scan.report.cache_hits,
        scan.report.device_seconds() * 1e3,
    );
    let extra = ReadSet::from_reads(ds.reads.reads()[..32].to_vec());
    let append = session.append(&extra)?.wait()?;
    println!(
        "append placed new reads at id {} ({} chunks written)",
        append.value, append.report.chunks_touched
    );

    // 4. Report what the store observed.
    let stats = dataset.cache_stats();
    let timing = dataset.timing_snapshot();
    println!(
        "served {} requests; cache {:.1}% hits ({} misses, {} evictions)",
        dataset.engine().requests_served(),
        stats.hit_rate() * 100.0,
        stats.misses,
        stats.evictions
    );
    println!(
        "devices charged {:.3} ms across {} chunk reads + {} appends",
        timing.total_seconds() * 1e3,
        timing.reads,
        timing.writes
    );
    for d in dataset.device_snapshots() {
        println!(
            "  device {} ({}): {} chunks, {} reads, {:.3} ms busy",
            d.device,
            d.name,
            d.chunks,
            d.reads,
            (d.read_seconds + d.write_seconds) * 1e3
        );
    }
    let qstats = dataset.stats();
    println!(
        "queue: {} submitted, {} completed, {} shed, {} cancelled",
        qstats.submitted, qstats.completed, qstats.rejected, qstats.cancelled
    );
    dataset.shutdown();
    Ok(())
}
