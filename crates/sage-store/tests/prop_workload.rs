//! Property tests for the open-loop workload driver: (a) a fixed
//! `(seed, load)` pair on an identically-prepared dataset must
//! reproduce the entire `QosReport` bit-for-bit — arrival instants,
//! op streams, latencies, shed counts, device accounting — and (b) at
//! arrival rates far below service capacity the mean open-loop
//! latency converges to the unloaded single-request latency (no
//! queueing contributes).

use proptest::prelude::*;
use sage_genomics::sim::{simulate_dataset, DatasetProfile};
use sage_ssd::SsdConfig;
use sage_store::client::workload::{Arrivals, OpMix, Pattern, TenantLoad};
use sage_store::client::{Dataset, DatasetBuilder};

/// An identically-prepared serving stack: same reads, same encode,
/// cold cache, fresh reactor. Two of these are indistinguishable to
/// the driver, which is what makes replays bit-exact.
fn fresh_dataset(seed: u64, devices: usize, cache_chunks: usize) -> Dataset {
    fresh_hotpath_dataset(seed, devices, cache_chunks, 1)
}

/// Like [`fresh_dataset`] with the hot-path knob exposed: the cache
/// shard count.
fn fresh_hotpath_dataset(
    seed: u64,
    devices: usize,
    cache_chunks: usize,
    cache_shards: usize,
) -> Dataset {
    let reads = simulate_dataset(&DatasetProfile::tiny_short(), seed).reads;
    let builder = DatasetBuilder::new()
        .chunk_reads(16)
        .cache_chunks(cache_chunks)
        .cache_shards(cache_shards);
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

    /// (a) Bit-determinism: the whole report — not just summary
    /// statistics — replays from the seed across arrival kinds,
    /// patterns, mixes, fleet shapes, and overload levels.
    #[test]
    fn open_loop_replays_bit_identically(
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
        load.seed = seed ^ 0xabcd;

        let a = fresh_dataset(seed, devices, cache_chunks)
            .drive_open_loop(&load, 12)
            .expect("first drive");
        let b = fresh_dataset(seed, devices, cache_chunks)
            .drive_open_loop(&load, 12)
            .expect("second drive");
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.offered, 72);
        prop_assert_eq!(a.completed + a.shed, a.offered);
        if overloaded {
            prop_assert!(a.shed > 0, "extreme overload must shed");
        }
        // A *different* seed produces a different drive (sanity that
        // the equality above is not vacuous). Latency vectors match
        // only if the two op streams coincide, which they do not for
        // non-degenerate specs.
        let mut other = load;
        other.seed = load.seed ^ 0x5555;
        let c = fresh_dataset(seed, devices, cache_chunks)
            .drive_open_loop(&other, 12)
            .expect("third drive");
        prop_assert_eq!(c.offered, a.offered);
        prop_assert!(
            c.latencies != a.latencies || c.shed != a.shed || a.completed == 0,
            "different seeds should not replay the same drive"
        );
    }

    /// The hot-path knob keeps the QoS machinery deterministic and
    /// payload-invariant: for any cache shard count, a fixed
    /// `(seed, load)` still replays its `QosReport` bit-for-bit, and
    /// the *payload* served (reads, bases) is identical to the
    /// reference configuration — sharding only moves lock boundaries.
    #[test]
    fn hot_path_knobs_replay_and_preserve_payload(
        seed in 0u64..500,
        pattern_ix in 0u8..2,
        devices in 1usize..3,
        cache_shards in 1usize..9,
    ) {
        // Far below capacity: nothing sheds, so every configuration
        // executes the *same* 64-op stream and payload comparisons
        // are meaningful. (Shed decisions depend on completion
        // timing, which sharding legitimately changes.)
        let mut load = TenantLoad::new(Arrivals::Poisson { rate: 50.0 });
        load.pattern = pattern_for(pattern_ix);
        load.mix = OpMix { get: 0.95, scan: 0.05, append: 0.0 };
        load.requests = 64;
        load.seed = seed ^ 0x33aa;

        let a = fresh_hotpath_dataset(seed, devices, 4, cache_shards)
            .drive_open_loop(&load, 12)
            .expect("first drive");
        let b = fresh_hotpath_dataset(seed, devices, 4, cache_shards)
            .drive_open_loop(&load, 12)
            .expect("second drive");
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.shed, 0u64);

        let reference = fresh_dataset(seed, devices, 4)
            .drive_open_loop(&load, 12)
            .expect("reference drive");
        prop_assert_eq!(a.completed, reference.completed);
        prop_assert_eq!(a.reads_served, reference.reads_served);
        prop_assert_eq!(a.bases_served, reference.bases_served);
        // At shard count 1 the whole report — cache outcomes,
        // latencies, device accounting — is the reference, bit for
        // bit.
        if cache_shards == 1 {
            prop_assert_eq!(&a, &reference);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (b) Low-rate convergence: far below capacity nothing queues,
    /// so the mean open-loop latency equals the unloaded
    /// single-request latency of the same op stream.
    #[test]
    fn low_rate_mean_latency_converges_to_unloaded(
        seed in 0u64..500,
        pattern_ix in 0u8..2,
        devices in 1usize..3,
    ) {
        // Cache off: every op pays its device, so "unloaded latency"
        // is a property of the op stream, not of history.
        let mut load = TenantLoad::new(Arrivals::Fixed { rate: 1.0 });
        load.pattern = pattern_for(pattern_ix);
        load.requests = 48;
        load.seed = seed ^ 0x77;

        // At 1 request per virtual second (service is sub-millisecond)
        // the system is idle between arrivals: this *is* the unloaded
        // single-request latency of the stream.
        let unloaded = fresh_dataset(seed, devices, 0)
            .drive_open_loop(&load, 64)
            .expect("unloaded drive");
        prop_assert_eq!(unloaded.shed, 0u64);

        // ~2% of calibrated capacity: still far below saturation, but
        // arrivals are 50x denser than the unloaded run.
        let capacity = unloaded.capacity_estimate(devices);
        load.arrivals = Arrivals::Fixed { rate: capacity * 0.02 };
        let low = fresh_dataset(seed, devices, 0)
            .drive_open_loop(&load, 64)
            .expect("low-rate drive");
        prop_assert_eq!(low.shed, 0u64);
        prop_assert_eq!(low.completed, unloaded.completed);

        // Same seed => same op stream => same service demands; with
        // no queueing the means must agree tightly (a sub-capacity
        // fixed-rate stream can still overlap adjacent multi-chunk
        // requests slightly, hence the 10% allowance).
        let ratio = low.latency.mean_ms / unloaded.latency.mean_ms;
        prop_assert!(
            (1.0 - 1e-9..1.10).contains(&ratio),
            "low-rate mean {} should converge to unloaded mean {} (ratio {ratio})",
            low.latency.mean_ms,
            unloaded.latency.mean_ms
        );
        // And p999 agrees too: no request anywhere in the stream saw
        // meaningful queueing.
        let tail_ratio = low.latency.p999_ms / unloaded.latency.p999_ms;
        prop_assert!(
            tail_ratio < 1.25,
            "low-rate tail {} vs unloaded {} (ratio {tail_ratio})",
            low.latency.p999_ms,
            unloaded.latency.p999_ms
        );
    }
}
