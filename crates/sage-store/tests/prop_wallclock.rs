//! Property tests for the wall-clock path: the real-bytes
//! [`StoreBackend::File`] and the `decode_workers` count are
//! *wall-side only* — for any combination of the two the virtual
//! timeline ([`QosReport`] and [`MultiQosReport`] replay) is
//! bit-identical to the all-knobs-off reference, with a cache smaller
//! than a scan's miss set so that a commit order depending on which
//! decode finished first would show — plus a `FileBackend` round-trip:
//! containers written, reopened, and served must answer byte-for-byte
//! what the simulated backend answers.

use proptest::prelude::*;
use sage_genomics::sim::{simulate_dataset, DatasetProfile};
use sage_io::SchedPolicyKind;
use sage_ssd::SsdConfig;
use sage_store::client::workload::{Arrivals, OpMix, Pattern};
use sage_store::client::{Dataset, DatasetBuilder, MultiTenantSpec, TenantLoad, TenantSpec};
use sage_store::StoreBackend;
use std::path::PathBuf;

/// The wall-clock knobs under test: `None` backend = simulated.
#[derive(Debug, Clone, Default)]
struct Knobs {
    backend_dir: Option<PathBuf>,
    decode_workers: usize,
}

/// Decode pool sizes drawn by both properties: available parallelism,
/// serial, and more threads than this host has cores.
const DECODE_WORKERS: [usize; 4] = [0, 1, 2, 8];

/// An identically-prepared serving stack with the wall-clock knobs
/// applied. One server worker keeps every drive bit-deterministic —
/// the property under test is that the *knobs* change nothing, so the
/// reference must be deterministic to compare against.
fn knob_dataset(seed: u64, devices: usize, knobs: &Knobs) -> Dataset {
    let reads = simulate_dataset(&DatasetProfile::tiny_short(), seed).reads;
    let mut builder = DatasetBuilder::new()
        .chunk_reads(16)
        .cache_chunks(4)
        .server_workers(1)
        .decode_workers(knobs.decode_workers);
    if let Some(dir) = &knobs.backend_dir {
        builder = builder.backend(StoreBackend::File(dir.clone()));
    }
    if devices == 1 {
        builder.ssd(SsdConfig::pcie())
    } else {
        builder.ssd_fleet((0..devices).map(|_| SsdConfig::pcie()).collect())
    }
    .encode(&reads)
    .expect("build dataset")
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

/// A per-case tmpdir for container files, cleaned on drop so failing
/// cases don't leak directories across proptest shrink iterations.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        let dir = std::env::temp_dir().join(format!("sage_prop_wall_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any backend × decode-workers combination replays
    /// bit-identically AND equals the all-off reference's
    /// `QosReport` bit for bit: the knobs move wall-clock work, never
    /// the virtual timeline.
    #[test]
    fn wall_knobs_leave_virtual_timeline_bit_identical(
        seed in 0u64..500,
        pattern_ix in 0u8..2,
        devices in 1usize..3,
        decode_workers_ix in 0usize..4,
        file_backend_ix in 0u8..2,
    ) {
        let tmp = TmpDir::new(&format!("open_{seed}_{pattern_ix}_{devices}"));
        let knobs = Knobs {
            backend_dir: (file_backend_ix == 1).then(|| tmp.0.clone()),
            decode_workers: DECODE_WORKERS[decode_workers_ix],
        };
        let mut load = TenantLoad::new(Arrivals::Poisson { rate: 50.0 });
        load.pattern = pattern_for(pattern_ix);
        // Scans exercise the multi-chunk (pooled) miss path;
        // appends exercise the container write-through.
        load.mix = OpMix { get: 0.8, scan: 0.15, append: 0.05 };
        load.requests = 64;
        load.seed = seed ^ 0x440c;

        let a = knob_dataset(seed, devices, &knobs)
            .drive_open_loop(&load, 12)
            .expect("first drive");
        let b = knob_dataset(seed, devices, &knobs)
            .drive_open_loop(&load, 12)
            .expect("second drive");
        prop_assert_eq!(&a, &b);

        let reference = knob_dataset(seed, devices, &Knobs::default())
            .drive_open_loop(&load, 12)
            .expect("reference drive");
        prop_assert_eq!(&a, &reference);
        prop_assert!(a.completed > 0);
    }

    /// Same invariant for the multi-tenant driver: the full
    /// `MultiQosReport` — per-tenant reports, busy matrices, queue
    /// delays, makespan — is unchanged by any wall-clock knob under
    /// every scheduling policy.
    #[test]
    fn wall_knobs_leave_multi_tenant_replay_bit_identical(
        seed in 0u64..500,
        devices in 1usize..3,
        decode_workers_ix in 0usize..4,
        policy_ix in 0usize..4,
        file_backend_ix in 0u8..2,
    ) {
        let tmp = TmpDir::new(&format!("mt_{seed}_{devices}_{policy_ix}"));
        let knobs = Knobs {
            backend_dir: (file_backend_ix == 1).then(|| tmp.0.clone()),
            decode_workers: DECODE_WORKERS[decode_workers_ix],
        };
        let policy = SchedPolicyKind::ALL[policy_ix % SchedPolicyKind::ALL.len()];
        let mut fg = TenantLoad::new(Arrivals::Poisson { rate: 400.0 });
        fg.requests = 32;
        fg.seed = seed ^ 0xf0;
        let mut bg = TenantLoad::new(Arrivals::Fixed { rate: 200.0 });
        bg.pattern = Pattern::Uniform { span: 16 };
        bg.requests = 24;
        bg.seed = seed ^ 0x0b;
        let spec = MultiTenantSpec::new(policy)
            .tenant(TenantSpec::named("fg").with_priority(9).with_weight(4.0), fg)
            .tenant(TenantSpec::named("bg"), bg);

        let a = knob_dataset(seed, devices, &knobs)
            .drive_tenants(&spec)
            .expect("knob drive");
        let reference = knob_dataset(seed, devices, &Knobs::default())
            .drive_tenants(&spec)
            .expect("reference drive");
        prop_assert_eq!(&a, &reference);
        prop_assert!(a.tenants.iter().any(|t| t.completed > 0));
    }
}

/// The `FileBackend` round-trip at the dataset level: encode with the
/// file backend (containers written), serve, then *reopen* the same
/// directory over the same store — containers are reused byte-for-byte
/// and every answer equals the simulated backend's.
#[test]
fn file_backend_round_trips_across_reopen() {
    use sage_store::{encode_sharded, StoreOptions};

    let reads = simulate_dataset(&DatasetProfile::tiny_short(), 41).reads;
    let sharded = encode_sharded(&reads, &StoreOptions::new(16)).expect("encode");
    let tmp = TmpDir::new("roundtrip");
    let build = |backend: Option<StoreBackend>| {
        let mut b = DatasetBuilder::new()
            .cache_chunks(4)
            .server_workers(1)
            .ssd(SsdConfig::pcie());
        if let Some(backend) = backend {
            b = b.backend(backend);
        }
        b.open(sharded.clone()).expect("open dataset")
    };

    let simulated = build(None);
    let sim_scan = simulated.engine().scan(|_| true).expect("sim scan");

    // First open writes the containers.
    let first = build(Some(StoreBackend::File(tmp.0.clone())));
    let first_scan = first.engine().scan(|_| true).expect("first scan");
    assert_eq!(sim_scan.reads(), first_scan.reads());
    assert!(first.engine().file_backend().expect("backend").reads() > 0);
    drop(first);

    // Reopen: same directory, same store — containers are reused, and
    // gets and scans still answer the simulated bytes exactly.
    let reopened = build(Some(StoreBackend::File(tmp.0.clone())));
    let re_scan = reopened.engine().scan(|_| true).expect("reopened scan");
    assert_eq!(sim_scan.reads(), re_scan.reads());
    let total = reads.len() as u64;
    for start in [0u64, 5, 17] {
        let span = 8.min(total - start);
        let sim = simulated
            .engine()
            .get(start..start + span)
            .expect("sim get");
        let real = reopened
            .engine()
            .get(start..start + span)
            .expect("file get");
        assert_eq!(sim.reads(), real.reads(), "range {start} differs");
    }
    let be = reopened.engine().file_backend().expect("backend");
    assert!(be.reads() > 0, "reopened backend must serve real extents");
}
