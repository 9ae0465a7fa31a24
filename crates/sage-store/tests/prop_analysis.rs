//! Property tests for the analysis tier: blame must be a lossless,
//! read-only re-description of the trace. (a) **Conservation** — every
//! op's blame components fold back to its recorded latency
//! **bit-for-bit**, across arrival processes, access patterns, fleet
//! shapes, cache sizes, and overload. (b) **Busy agreement** — the
//! bottleneck timeline's windowed busy integrals sum to exactly the
//! per-device busy seconds the drive reported. (c) **Determinism** — SLO evaluation over two
//! identically-prepared runs produces bit-equal reports, alerts
//! included. (d) **Read-only** — running the whole analysis suite
//! (blame, tail forensics, SLO) perturbs neither the `QosReport` nor
//! the span buffer: the traced report stays bit-identical to the
//! untraced one.

use proptest::prelude::*;
use sage_genomics::sim::{simulate_dataset, DatasetProfile};
use sage_ssd::SsdConfig;
use sage_store::client::workload::{Arrivals, OpMix, Pattern, TenantLoad};
use sage_store::client::{range_for, ClosedLoopSpec, Dataset, DatasetBuilder};
use sage_store::obs::analysis::{tail_forensics, AnalysisSpec, LatencyBlame, SloSpec};
use sage_store::StoreOp;

/// An identically-prepared serving stack (same reads, same encode,
/// cold cache) with the span buffer on or off.
fn fresh_dataset(seed: u64, devices: usize, cache_chunks: usize, tracing: bool) -> Dataset {
    let reads = simulate_dataset(&DatasetProfile::tiny_short(), seed).reads;
    let builder = DatasetBuilder::new()
        .chunk_reads(16)
        .cache_chunks(cache_chunks)
        .tracing(tracing);
    if devices == 1 {
        builder.ssd(SsdConfig::pcie())
    } else {
        builder.ssd_fleet((0..devices).map(|_| SsdConfig::pcie()).collect())
    }
    .encode(&reads)
    .expect("build dataset")
}

fn arrivals_for(ix: u8, rate: f64) -> Arrivals {
    match ix % 3 {
        0 => Arrivals::Fixed { rate },
        1 => Arrivals::Poisson { rate },
        _ => Arrivals::Bursty {
            on_rate: rate * 4.0,
            mean_on: 0.005,
            mean_off: 0.015,
        },
    }
}

fn pattern_for(ix: u8) -> Pattern {
    match ix % 2 {
        0 => Pattern::Uniform { span: 8 },
        _ => Pattern::Zipf {
            theta: 1.05,
            span: 16,
        },
    }
}

fn load_for(seed: u64, arrivals_ix: u8, pattern_ix: u8, rate: f64) -> TenantLoad {
    let mut load = TenantLoad::new(arrivals_for(arrivals_ix, rate));
    load.pattern = pattern_for(pattern_ix);
    load.mix = OpMix {
        get: 0.9,
        scan: 0.05,
        append: 0.05,
    };
    load.requests = 72;
    load.seed = seed ^ 0x0b5;
    load
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// (a) + (b) on the open-loop driver: every span's blame conserves
    /// its latency bitwise, and the timeline's busy integrals agree
    /// with the drive's per-device busy seconds.
    #[test]
    fn blame_conserves_and_busy_integrals_agree(
        seed in 0u64..500,
        arrivals_ix in 0u8..3,
        pattern_ix in 0u8..2,
        devices in 1usize..3,
        cache_chunks in 0usize..5,
        overload_ix in 0u8..2,
    ) {
        let rate = if overload_ix == 1 { 200_000.0 } else { 400.0 };
        let load = load_for(seed, arrivals_ix, pattern_ix, rate);
        let dataset = fresh_dataset(seed, devices, cache_chunks, true);
        let driven = dataset.drive_open_loop(&load, 12).expect("traced drive");
        let spans = dataset.trace().expect("tracing buffer").spans();

        let makespan = spans
            .iter()
            .map(|s| s.completed_vt)
            .fold(0.0f64, f64::max);
        let aspec = AnalysisSpec::with_window((makespan / 8.0).max(1e-6));
        let report = dataset.analyze(&aspec).expect("tracing dataset analyzes");

        // (a) Conservation, bit for bit, on every op — through the
        // report and through direct decomposition.
        prop_assert_eq!(report.ops, spans.len());
        for (b, s) in report.blames.iter().zip(spans.iter()) {
            prop_assert_eq!(b.total().to_bits(), s.latency().to_bits(),
                "blame of token {} must fold back to its latency", s.token);
            prop_assert_eq!(b, &LatencyBlame::of(s));
            prop_assert!(b.queue >= 0.0 && b.service >= 0.0);
        }
        // Run shares are the span-order fold of the per-op blames.
        let mut q = 0.0f64;
        let mut v = 0.0f64;
        for b in &report.blames {
            q += b.queue;
            v += b.service;
        }
        let shares = report.shares();
        prop_assert_eq!(shares.queue.to_bits(), q.to_bits());
        prop_assert_eq!(shares.service.to_bits(), v.to_bits());

        // (b) The windowed busy integrals sum to the same per-device
        // busy seconds the drive reported.
        let busy = report.device_busy();
        prop_assert_eq!(busy.len(), driven.device_busy.len());
        for (got, want) in busy.iter().zip(driven.device_busy.iter()) {
            prop_assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "windowed busy {got} vs scheduler busy {want}"
            );
        }
        // Every window is labeled, and the label census covers them.
        prop_assert_eq!(report.windows.len(), report.series.windows());
        prop_assert_eq!(
            report.label_counts().iter().sum::<usize>(),
            report.windows.len()
        );
    }

    /// (c) SLO alert sequences are bit-reproducible: two
    /// identically-prepared runs evaluate to bit-equal reports.
    #[test]
    fn slo_evaluation_is_bit_reproducible(
        seed in 0u64..500,
        arrivals_ix in 0u8..3,
        devices in 1usize..3,
    ) {
        let load = load_for(seed, arrivals_ix, 0, 30_000.0);
        let run = |_: ()| {
            let ds = fresh_dataset(seed, devices, 2, true);
            ds.drive_open_loop(&load, 12).expect("drive");
            ds.trace().expect("buffer").spans()
        };
        let (a, b) = (run(()), run(()));
        let slo = SloSpec::new(0.002, 0.9).with_window(0.01);
        let (ra, rb) = (slo.evaluate(&a), slo.evaluate(&b));
        prop_assert_eq!(&ra, &rb);
        // Re-evaluating the same stream is also a fixed point.
        prop_assert_eq!(&ra, &slo.evaluate(&a));
    }

    /// (d) Analysis is read-only: driving a traced dataset and then
    /// running the whole analysis suite leaves the `QosReport`
    /// bit-identical to an untraced run, and the span buffer
    /// untouched.
    #[test]
    fn analysis_is_read_only(
        seed in 0u64..500,
        arrivals_ix in 0u8..3,
        pattern_ix in 0u8..2,
        devices in 1usize..3,
        overload_ix in 0u8..2,
    ) {
        let rate = if overload_ix == 1 { 200_000.0 } else { 400.0 };
        let load = load_for(seed, arrivals_ix, pattern_ix, rate);

        let plain = fresh_dataset(seed, devices, 2, false)
            .drive_open_loop(&load, 12)
            .expect("untraced drive");
        let traced_ds = fresh_dataset(seed, devices, 2, true);
        let traced = traced_ds.drive_open_loop(&load, 12).expect("traced drive");

        let buf = traced_ds.trace().expect("buffer");
        let before = buf.spans();
        let report = traced_ds
            .analyze(&AnalysisSpec::default())
            .expect("analyze");
        let tails = tail_forensics(&before, 3);
        let slo = SloSpec::new(0.002, 0.9).evaluate(&before);
        // Consume the outputs so nothing above is optimized away.
        prop_assert_eq!(report.ops, before.len());
        prop_assert!(tails.len() <= 3);
        prop_assert_eq!(slo.evaluated, before.len());

        // The buffer is exactly as the drive left it, and the traced
        // report is bit-identical to the untraced one.
        prop_assert_eq!(&buf.spans(), &before);
        prop_assert_eq!(&plain, &traced);
    }

    /// The closed-loop twin of (a) + (b). The closed-loop driver keeps
    /// its own virtual clock, so the busy integrals are pinned to the
    /// report's per-device busy seconds.
    #[test]
    fn closed_loop_blame_conserves(
        seed in 0u64..300,
        devices in 1usize..3,
        clients in 1usize..6,
    ) {
        let spec = ClosedLoopSpec {
            clients,
            requests: 48,
        };
        let ds = fresh_dataset(seed, devices, 0, true);
        let total = ds.total_reads();
        let driven = ds
            .drive_closed_loop(&spec, |c, i| StoreOp::Get(range_for(c, i, total, 8)))
            .expect("traced drive");
        let spans = ds.trace().expect("buffer").spans();
        for s in &spans {
            let b = LatencyBlame::of(s);
            prop_assert_eq!(b.total().to_bits(), s.latency().to_bits());
        }
        let report = ds
            .analyze(&AnalysisSpec::with_window((driven.makespan / 8.0).max(1e-6)))
            .expect("analyze");
        let busy = report.device_busy();
        prop_assert_eq!(busy.len(), driven.device_busy.len());
        for (got, want) in busy.iter().zip(driven.device_busy.iter()) {
            prop_assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "windowed busy {got} vs driver busy {want}"
            );
        }
    }
}

/// A device's busy seconds (its snapshot's read plus write seconds)
/// are what it was charged, sessions and drives alike: up to summation
/// order the charges the served ops reported plus the drive's own busy
/// seconds.
#[test]
fn metrics_device_busy_is_each_devices_charge_sum() {
    let ds = fresh_dataset(7, 3, 0, false);
    let session = ds.session();
    let mut served = [0.0f64; 3];
    let mut charge = |report: &sage_store::OpTrace| {
        for c in &report.charges {
            served[c.device] += c.seconds;
        }
    };
    for i in 0..24 {
        charge(
            &session
                .get(i * 3..i * 3 + 6)
                .unwrap()
                .wait()
                .unwrap()
                .report,
        );
    }
    let batch = simulate_dataset(&DatasetProfile::tiny_short(), 8).reads;
    charge(&session.append(&batch).unwrap().wait().unwrap().report);
    let total = ds.total_reads();
    let driven = ds
        .drive_closed_loop(
            &ClosedLoopSpec {
                clients: 4,
                requests: 32,
            },
            |c, i| StoreOp::Get(range_for(c, i, total, 8)),
        )
        .expect("drive");

    let devices = ds.device_snapshots();
    let busy: Vec<f64> = devices
        .iter()
        .map(|d| d.read_seconds + d.write_seconds)
        .collect();
    assert_eq!(busy.len(), 3);
    assert!(devices.iter().any(|d| d.writes > 0), "the append wrote");
    for d in 0..devices.len() {
        let want = served[d] + driven.device_busy[d];
        assert!(want > 0.0, "device {d} was never charged");
        assert!(
            (busy[d] - want).abs() <= 1e-9 * want,
            "device {d}: charged {} vs served + driven {want}",
            busy[d]
        );
    }
}
