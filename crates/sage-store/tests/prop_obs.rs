//! Property tests for the observability layer: tracing must be pure
//! observation. (a) A drive on a tracing dataset reproduces the
//! untraced `QosReport` **bit-for-bit** — spans are recorded after
//! dispatch from values the drive already computed, so turning
//! tracing on cannot move a single virtual instant. (b) The recorded
//! span stream is a complete, faithful account of the timeline:
//! re-dispatching the spans in record order through a fresh scheduler
//! reproduces every op's submit → start → complete instants bitwise,
//! and the spans' latencies are exactly the report's latency vector.

use proptest::prelude::*;
use sage_genomics::sim::{simulate_dataset, DatasetProfile};
use sage_ssd::SsdConfig;
use sage_store::client::workload::{Arrivals, OpMix, Pattern, TenantLoad};
use sage_store::client::{range_for, ClosedLoopSpec, Dataset, DatasetBuilder};
use sage_store::{obs, StoreOp};

/// An identically-prepared serving stack (same reads, same encode,
/// cold cache) with the span buffer on or off — the only knob the
/// zero-perturbation property varies.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// (a) + (b) across arrival kinds, patterns, mixes, fleet shapes,
    /// cache sizes, and overload levels.
    #[test]
    fn tracing_is_zero_perturbation(
        seed in 0u64..500,
        arrivals_ix in 0u8..3,
        pattern_ix in 0u8..2,
        devices in 1usize..3,
        cache_chunks in 0usize..5,
        overload_ix in 0u8..2,
    ) {
        let overloaded = overload_ix == 1;
        let rate = if overloaded { 200_000.0 } else { 400.0 };
        let mut load = TenantLoad::new(arrivals_for(arrivals_ix, rate));
        load.pattern = pattern_for(pattern_ix);
        load.mix = OpMix { get: 0.9, scan: 0.05, append: 0.05 };
        load.requests = 72;
        load.seed = seed ^ 0x0b5;

        let plain = fresh_dataset(seed, devices, cache_chunks, false)
            .drive_open_loop(&load, 12)
            .expect("untraced drive");
        let traced_ds = fresh_dataset(seed, devices, cache_chunks, true);
        let traced = traced_ds.drive_open_loop(&load, 12).expect("traced drive");

        // (a) The whole report — latencies, shed accounting, device
        // busy seconds — is bit-identical with tracing on.
        prop_assert_eq!(&plain, &traced);
        prop_assert_eq!(plain.shed_events.len() as u64, plain.shed);
        if overloaded {
            prop_assert!(plain.shed > 0, "extreme overload must shed");
        }

        // (b) The span stream is complete and faithful.
        let buf = traced_ds.trace().expect("tracing dataset has a buffer");
        let spans = buf.spans();
        prop_assert_eq!(spans.len() as u64, traced.completed);
        let mut span_latencies: Vec<f64> =
            spans.iter().map(|s| s.latency()).collect();
        span_latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        prop_assert_eq!(&span_latencies, &traced.latencies);

        // Replaying the spans in record order through a fresh
        // scheduler reproduces every instant bitwise, and the spans'
        // per-device service seconds are the very busy seconds the
        // drive reported.
        let r = obs::replay(&spans, devices);
        prop_assert!(r.exact(), "{} of {} spans replayed differently", r.mismatches, r.ops);
        let mut busy = vec![0.0f64; devices];
        for iv in spans.iter().flat_map(|s| &s.intervals) {
            busy[iv.device] += iv.seconds;
        }
        prop_assert_eq!(&busy, &traced.device_busy);
    }

    /// The closed-loop driver has the same property: tracing changes
    /// nothing the drive measures, and every completion lands in the
    /// span buffer.
    #[test]
    fn closed_loop_tracing_is_zero_perturbation(
        seed in 0u64..300,
        devices in 1usize..3,
        clients in 1usize..6,
    ) {
        let spec = ClosedLoopSpec {
            clients,
            requests: 48,
        };
        let plain_ds = fresh_dataset(seed, devices, 0, false);
        let total = plain_ds.total_reads();
        let plain = plain_ds
            .drive_closed_loop(&spec, |c, i| StoreOp::Get(range_for(c, i, total, 8)))
            .expect("untraced drive");
        let traced_ds = fresh_dataset(seed, devices, 0, true);
        let traced = traced_ds
            .drive_closed_loop(&spec, |c, i| StoreOp::Get(range_for(c, i, total, 8)))
            .expect("traced drive");

        // The whole report, bit for bit.
        prop_assert_eq!(&plain, &traced);

        let buf = traced_ds.trace().expect("tracing dataset has a buffer");
        prop_assert_eq!(buf.len() as u64, traced.completed);
        // Every span carries its service windows, and the windows sum
        // to the span's total device charge.
        for s in buf.spans() {
            prop_assert_eq!(s.intervals.len(), s.charges().len());
            let sum: f64 = s.intervals.iter().map(|iv| iv.seconds).sum();
            prop_assert!((sum - s.device_seconds).abs() <= 1e-12 * sum.max(1.0));
        }
    }
}
