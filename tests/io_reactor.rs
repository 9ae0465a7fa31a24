//! End-to-end: the completion-queue reactor serving the multi-SSD
//! chunk store through the facade crate's typed client API.
//!
//! These tests pin its semantics — data correctness under striping,
//! the device charges a served op reports, queueing on a drive's
//! virtual timeline, and the serving layer's shed/cancel contract —
//! all through `sage::client`.

use sage::client::{ClosedLoopSpec, Dataset, DatasetBuilder, SubmitMode, Ticket};
use sage::genomics::sim::{simulate_dataset, DatasetProfile};
use sage::genomics::ReadSet;
use sage::pipeline::SystemConfig;
use sage::store::{ReadView, StoreError, StoreOp};

fn striped_dataset(devices: usize, cache_chunks: usize) -> (Dataset, ReadSet) {
    let reads = simulate_dataset(&DatasetProfile::tiny_short(), 33).reads;
    let fleet = SystemConfig::pcie().with_ssds(devices).device_configs();
    let dataset = DatasetBuilder::new()
        .chunk_reads(16)
        .cache_chunks(cache_chunks)
        .ssd_fleet(fleet)
        .server_workers(3)
        .queue_depth(8)
        .encode(&reads)
        .expect("build dataset");
    (dataset, reads)
}

#[test]
fn sessions_serve_striped_gets_bit_identically() {
    let (dataset, reads) = striped_dataset(4, 0);
    let n = dataset.total_reads();
    let session = dataset.session();
    // 40 interleaved ranges; typed tickets are checkable in order
    // while the reactor completes them out of order underneath.
    let tickets: Vec<(u64, Ticket<ReadView>)> = (0..40u64)
        .map(|i| {
            let start = (i * 7) % n;
            let end = (start + 5).min(n);
            (start, session.get(start..end).expect("submit"))
        })
        .collect();
    for (start, ticket) in tickets {
        let end = (start + 5).min(n);
        let c = ticket.wait().expect("get");
        assert_eq!(c.value.len() as u64, end - start);
        for (k, r) in c.value.iter().enumerate() {
            assert_eq!(r.seq, reads.reads()[start as usize + k].seq);
            assert_eq!(r.qual, reads.reads()[start as usize + k].qual);
        }
        // Cold cache: every request charged at least one device.
        assert!(c.report.device_seconds() > 0.0);
        assert!(!c.report.charges.is_empty());
        assert_eq!(c.report.cache_hits, 0);
    }
    assert_eq!(dataset.stats().completed, 40);
    let devices = dataset.device_snapshots();
    assert_eq!(devices.len(), 4);
    assert!(
        devices.iter().filter(|d| d.reads > 0).count() >= 2,
        "striping engaged {devices:?}"
    );
    dataset.shutdown();
}

#[test]
fn warm_cache_requests_cost_no_device_time() {
    let (dataset, _) = striped_dataset(2, 64);
    let session = dataset.session();
    let cold = session.get(0..16).expect("submit").wait().expect("cold");
    assert!(cold.report.device_seconds() > 0.0);
    assert_eq!(cold.report.cache_misses, 1);
    // Same chunk again: served from cache, no device charged.
    let warm = session.get(0..16).expect("submit").wait().expect("warm");
    assert_eq!(warm.report.device_seconds(), 0.0);
    assert!(warm.report.charges.is_empty());
    assert_eq!(warm.report.cache_hits, 1);
    dataset.shutdown();
}

#[test]
fn deeper_closed_loops_trade_latency_for_throughput() {
    // The io_sweep claim in miniature: on one device, queue depth
    // doesn't change total service demand, so throughput is flat
    // while latency grows with depth.
    let mean_latency = |depth: usize| {
        let (dataset, _) = striped_dataset(1, 0);
        let n = dataset.total_reads();
        let report = dataset
            .drive_closed_loop(
                &ClosedLoopSpec {
                    clients: depth,
                    requests: 48,
                },
                |c, i| {
                    let start = ((c + depth as u64 * i) * 17) % n;
                    StoreOp::Get(start..(start + 3).min(n))
                },
            )
            .expect("drive");
        report.latency.mean_ms
    };
    let shallow = mean_latency(1);
    let deep = mean_latency(8);
    assert!(
        deep > shallow * 3.0,
        "depth-8 mean latency {deep} should far exceed depth-1 {shallow}"
    );
}

#[test]
fn fail_mode_sheds_while_block_mode_backpressures() {
    let reads = simulate_dataset(&DatasetProfile::tiny_short(), 34).reads;
    let dataset = DatasetBuilder::new()
        .chunk_reads(16)
        .server_workers(1)
        .queue_depth(1)
        .encode(&reads)
        .expect("build");
    let blocking = dataset.session();
    let shedding = dataset.session().with_mode(SubmitMode::Fail);
    let slow = blocking.scan(|_| true).expect("submit scan");
    let mut rejected = 0u64;
    let mut accepted = Vec::new();
    for _ in 0..16 {
        match shedding.get(0..1) {
            Ok(t) => accepted.push(t),
            Err(StoreError::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected {other}"),
        }
    }
    assert!(rejected > 0, "ring never filled");
    assert_eq!(dataset.stats().rejected, rejected);
    assert!(slow.wait().is_ok());
    for t in accepted {
        assert!(t.wait().is_ok());
    }
}

#[test]
fn abort_resolves_queued_tickets_with_cancelled() {
    let reads = simulate_dataset(&DatasetProfile::tiny_short(), 35).reads;
    let dataset = DatasetBuilder::new()
        .chunk_reads(16)
        .server_workers(1)
        .queue_depth(24)
        .encode(&reads)
        .expect("build");
    let session = dataset.session();
    let tickets: Vec<Ticket<ReadView>> = (0..16).map(|_| session.scan(|_| true).unwrap()).collect();
    dataset.abort();
    let mut cancelled = 0;
    let mut answered = 0;
    for t in tickets {
        match t.wait() {
            Ok(_) => answered += 1,
            Err(StoreError::Cancelled) => cancelled += 1,
            Err(other) => panic!("unexpected {other}"),
        }
    }
    assert!(cancelled > 0, "abort cancelled nothing");
    assert_eq!(answered + cancelled, 16);
    // Submissions after teardown fail typed.
    assert!(matches!(session.get(0..1), Err(StoreError::QueueClosed)));
}
