//! Multi-tenant QoS properties, cross-crate.
//!
//! Three guarantees the sage-qos subsystem rests on:
//!
//! 1. **The pinned FIFO timeline** — the open-loop driver is the
//!    multi-tenant driver with one default tenant under the FIFO
//!    policy, so comparing the two is a tautology; instead every cell
//!    of arrival processes × access patterns × fleet sizes is held to
//!    the values the separate lockstep open-loop driver produced
//!    before it was folded in, and span tokens stay arrival ordinals.
//!    Every scheduling policy's queued timeline, the reads the grid
//!    serves and the closed loop's timeline are pinned the same way,
//!    to recorded values.
//! 2. **Conservation** — each tenant's busy seconds are the fold of
//!    its own spans' service intervals *bitwise*: tenant attribution
//!    never invents or loses device time.
//! 3. **Strict-priority dominance** — on a contended device the
//!    high-priority tenant's latency under `StrictPriority` never
//!    regresses against FIFO, and undercuts the low-priority tenant.

use sage::client::{range_for, ClosedLoopSpec};
use sage::genomics::sim::{simulate_dataset, DatasetProfile};
use sage::genomics::Base;
use sage::io::SchedPolicyKind;
use sage::ssd::SsdConfig;
use sage::store::{
    Dataset, DatasetBuilder, MultiTenantSpec, QosReport, StoreOp, TenantLoad, TenantSpec,
};
use sage::workload::{Arrivals, OpMix, Pattern};

/// An identically-prepared dataset per drive: same reads, same encode,
/// cold cache — the precondition for bit-identical replays. Tracing is
/// on for the token test; it is observation-only, so every other test
/// sees the timeline an untraced dataset would.
fn fleet_dataset(devices: usize) -> Dataset {
    let reads = simulate_dataset(&DatasetProfile::tiny_short(), 77).reads;
    DatasetBuilder::new()
        .chunk_reads(16)
        .cache_chunks(0)
        .ssd_fleet((0..devices).map(|_| SsdConfig::pcie()).collect())
        .tracing(true)
        .encode(&reads)
        .expect("build dataset")
}

/// FNV-1a over the latencies' bit patterns, in report order.
fn fnv_of_bits(latencies: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in latencies {
        for b in l.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(completed, shed, makespan bits, FNV of latency bits)` per cell of
/// the grid below, in loop order — recorded from the lockstep
/// open-loop driver at the commit before it was replaced by the
/// one-tenant FIFO wrapper.
const RECORDED: [(u64, u64, u64, u64); 12] = [
    (96, 0, 0x3fcebd259e2d8b68, 0x8162be8db7a3a71d), // 1x fixed uniform
    (96, 0, 0x3fcebabbc4d95513, 0x0b615484992f7421), // 1x fixed zipf
    (96, 0, 0x3fd3fc5bc577b3da, 0x4eeadae0df429b2c), // 1x poisson uniform
    (96, 0, 0x3fd3fb26d8cd98b0, 0xe1c6b580e6cfc8b4), // 1x poisson zipf
    (94, 2, 0x3fa6345405f0d502, 0x257f3b097e26f3c9), // 1x bursty uniform
    (95, 1, 0x3fa6345405f0d502, 0x3908725e15d04ae5), // 1x bursty zipf
    (96, 0, 0x3fcebabbc4d95513, 0xf30e7587a32631c3), // 2x fixed uniform
    (96, 0, 0x3fcebabbc4d95513, 0xf30e7587a32631c3), // 2x fixed zipf
    (96, 0, 0x3fd3fb26d8cd98b0, 0x1b14e06c5e3fcc77), // 2x poisson uniform
    (96, 0, 0x3fd3fb26d8cd98b0, 0xb7586754871c2336), // 2x poisson zipf
    (96, 0, 0x3fa6345405f0d502, 0xade24acf3b928c57), // 2x bursty uniform
    (96, 0, 0x3fa6345405f0d502, 0x72ec55a937b58f24), // 2x bursty zipf
];

/// The grid's arrival processes, in loop order.
const ARRIVALS: [Arrivals; 3] = [
    Arrivals::Fixed { rate: 400.0 },
    Arrivals::Poisson { rate: 300.0 },
    Arrivals::Bursty {
        on_rate: 3000.0,
        mean_on: 0.01,
        mean_off: 0.01,
    },
];

/// Drives one grid cell — 96 arrivals of an 80/10/10 get/scan/append
/// mix behind an 8-deep queue (small: some cells shed).
fn open_loop_report(devices: usize, arrivals: Arrivals, pattern: Pattern) -> QosReport {
    let mut load = TenantLoad::new(arrivals);
    load.pattern = pattern;
    load.mix = OpMix {
        get: 0.8,
        scan: 0.1,
        append: 0.1,
    };
    load.requests = 96;
    load.seed = 0x5eed;
    let report = fleet_dataset(devices)
        .drive_open_loop(&load, 8)
        .expect("drive");
    assert_eq!(report.shed_events.len() as u64, report.shed);
    report
}

/// One grid cell's `(completed, shed, makespan bits, FNV of latency
/// bits)`.
fn open_loop_cell(devices: usize, arrivals: Arrivals, pattern: Pattern) -> (u64, u64, u64, u64) {
    let report = open_loop_report(devices, arrivals, pattern);
    (
        report.completed,
        report.shed,
        report.makespan.to_bits(),
        fnv_of_bits(&report.latencies),
    )
}

/// The grid's access patterns, in loop order.
const PATTERNS: [Pattern; 2] = [
    Pattern::Uniform { span: 16 },
    Pattern::Zipf {
        theta: 0.9,
        span: 16,
    },
];

#[test]
fn fifo_single_default_tenant_reproduces_open_loop_reports() {
    let mut recorded = RECORDED.iter();
    for devices in [1usize, 2] {
        for arr in ARRIVALS {
            for pat in PATTERNS {
                let cell = format!("{devices}x {arr:?} {pat:?}");
                let got = open_loop_cell(devices, arr, pat);
                assert_eq!(&got, recorded.next().expect("12 cells"), "cell {cell}");
            }
        }
    }
}

/// `(reads_served, bases_served)` per cell of the same grid, in loop
/// order. The grid's scans reject every read and its appends return
/// no reads, so these count get results only, whichever kinds a
/// report sums.
const RECORDED_SERVED: [(u64, u64); 12] = [
    (1304, 130400), // 1x fixed uniform
    (1344, 134400), // 1x fixed zipf
    (1304, 130400), // 1x poisson uniform
    (1344, 134400), // 1x poisson zipf
    (1272, 127200), // 1x bursty uniform
    (1328, 132800), // 1x bursty zipf
    (1304, 130400), // 2x fixed uniform
    (1344, 134400), // 2x fixed zipf
    (1304, 130400), // 2x poisson uniform
    (1344, 134400), // 2x poisson zipf
    (1304, 130400), // 2x bursty uniform
    (1344, 134400), // 2x bursty zipf
];

#[test]
fn open_loop_grid_serves_the_recorded_reads() {
    let mut recorded = RECORDED_SERVED.iter();
    for devices in [1usize, 2] {
        for arr in ARRIVALS {
            for pat in PATTERNS {
                let cell = format!("{devices}x {arr:?} {pat:?}");
                let r = open_loop_report(devices, arr, pat);
                let got = (r.reads_served, r.bases_served);
                assert_eq!(
                    &got,
                    recorded.next().expect("12 cells"),
                    "cell {cell}: {got:?}"
                );
            }
        }
    }
}

/// `(completed, makespan bits, FNV of latency bits, reads_served,
/// bases_served, FNV of device_busy bits)` of one closed-loop drive.
type ClosedCell = (u64, u64, u64, u64, u64, u64);

/// One [`ClosedCell`] per closed-loop drive, in loop order: 64
/// `range_for` gets over 1, 2 and 4 devices × 1 and 8 clients, then
/// one 2-device, 4-client cell where every fourth op is a scan that
/// accepts the reads starting with `A` — so `reads_served` counts scan
/// results too.
#[rustfmt::skip]
const RECORDED_CLOSED: [ClosedCell; 7] = [
    (64, 0x3f7c0e7e72f7994d, 0xa9cce952dc02e17f, 527, 52700, 0x86c848c3e7bac123), // 1x1
    (64, 0x3f7ca8f4c8052e7d, 0xe898d8402feb1a68, 523, 52300, 0xa5524bc06ac85fa6), // 1x8
    (64, 0x3f734ecaa1b2a615, 0x6ff4f4fe33fa6b53, 527, 52700, 0xf335cf819ec1afcd), // 2x1
    (64, 0x3f704a7af86ebc25, 0xd92c7bcbe451247a, 523, 52300, 0x11228dbfab556d6d), // 2x8
    (64, 0x3f734ecaa1b2a615, 0x6ff4f4fe33fa6b53, 527, 52700, 0x6f6c9a014abf2eda), // 4x1
    (64, 0x3f62b4544ca510e3, 0xc2baf111420c8062, 523, 52300, 0x9c189ab4792ea561), // 4x8
    (64, 0x3f951e2da0db6596, 0xf4640362204f7a2e, 2489, 248900, 0xe2343b7c79307f5f), // 2x4 scans
];

/// Drives one closed-loop cell (`scans`: every fourth op is an
/// accepting scan) and returns its [`ClosedCell`].
fn closed_loop_cell(devices: usize, clients: usize, scans: bool) -> ClosedCell {
    let dataset = fleet_dataset(devices);
    let total = dataset.total_reads();
    let spec = ClosedLoopSpec {
        clients,
        requests: 64,
    };
    let report = dataset
        .drive_closed_loop(&spec, |c, i| {
            if scans && (c + i) % 4 == 3 {
                StoreOp::Scan(Box::new(|r| r.seq.first() == Some(&Base::A)))
            } else {
                StoreOp::Get(range_for(c, i, total, 16))
            }
        })
        .expect("drive");
    (
        report.completed,
        report.makespan.to_bits(),
        fnv_of_bits(&report.latencies),
        report.reads_served,
        report.bases_served,
        fnv_of_bits(&report.device_busy),
    )
}

#[test]
fn closed_loop_reproduces_recorded_reports() {
    let cells = [1usize, 2, 4]
        .into_iter()
        .flat_map(|d| [(d, 1, false), (d, 8, false)])
        .chain([(2, 4, true)]);
    for ((devices, clients, scans), recorded) in cells.zip(&RECORDED_CLOSED) {
        let got = closed_loop_cell(devices, clients, scans);
        assert_eq!(
            &got, recorded,
            "{devices}x{clients} scans={scans}: {got:#x?}"
        );
    }
}

#[test]
fn span_tokens_are_arrival_ordinals_with_gaps_at_the_sheds() {
    // Fixed arrivals far past one device's capacity behind a 4-deep
    // queue: most arrivals are shed.
    let dataset = fleet_dataset(1);
    let mut load = TenantLoad::new(Arrivals::Fixed { rate: 1e5 });
    load.requests = 48;
    let report = dataset.drive_open_loop(&load, 4).expect("drive");
    let spans = dataset.trace().expect("tracing dataset").spans();
    assert_eq!((report.completed, report.shed), (7, 41));
    let tokens: Vec<u64> = spans.iter().map(|s| s.token).collect();
    // As the lockstep driver numbered them.
    assert_eq!(tokens, [0, 1, 2, 3, 15, 30, 45]);
    // Arrival instants strictly increase, so merging admitted spans
    // and shed events by instant recovers every arrival's ordinal: a
    // span's token is its own, and the gaps are exactly the sheds.
    let mut arrivals: Vec<(f64, Option<u64>)> = spans
        .iter()
        .map(|s| (s.submitted_vt, Some(s.token)))
        .chain(report.shed_events.iter().map(|e| (e.arrival_vt, None)))
        .collect();
    arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite instants"));
    assert_eq!(arrivals.len() as u64, load.requests);
    for (ordinal, (_, token)) in arrivals.iter().enumerate() {
        if let Some(token) = token {
            assert_eq!(*token, ordinal as u64);
        }
    }
}

/// Three tenants on a three-device fleet: a foreground get stream, a
/// scan-heavy background and an append-only ingest, weighted 4:1:2.
fn three_tenant_spec(policy: SchedPolicyKind, seed: u64) -> MultiTenantSpec {
    let mut fg = TenantLoad::new(Arrivals::Poisson { rate: 500.0 });
    fg.requests = 64;
    fg.seed = seed;
    let mut scan_bg = TenantLoad::new(Arrivals::Poisson { rate: 150.0 });
    scan_bg.mix = OpMix {
        get: 0.2,
        scan: 0.8,
        append: 0.0,
    };
    scan_bg.requests = 32;
    scan_bg.seed = seed ^ 0xff;
    let mut ingest = TenantLoad::new(Arrivals::Fixed { rate: 200.0 });
    ingest.mix = OpMix {
        get: 0.0,
        scan: 0.0,
        append: 1.0,
    };
    ingest.requests = 32;
    ingest.seed = seed ^ 0xf0f0;
    MultiTenantSpec::new(policy)
        .tenant(TenantSpec::named("fg").with_weight(4.0), fg)
        .tenant(TenantSpec::named("scan").with_weight(1.0), scan_bg)
        .tenant(TenantSpec::named("ingest").with_weight(2.0), ingest)
}

#[test]
fn weighted_fair_tenant_busy_seconds_conserve_exactly() {
    for seed in [0x1u64, 0xabcd, 0xdead_beef] {
        let dataset = fleet_dataset(3);
        let spec = three_tenant_spec(SchedPolicyKind::WeightedFair, seed);
        let report = dataset.drive_tenants(&spec).expect("drive");
        // Each tenant's own device_busy view is the fold of its spans'
        // service intervals per device: attribution never invents or
        // loses device time. (That the rows fold to the scheduler's
        // device totals is `sched::tests::tenant_busy_rows_fold_exactly`.)
        let spans = dataset.trace().expect("tracing dataset").spans();
        assert_eq!(report.tenants.len(), 3);
        for (t, qos) in report.tenants.iter().enumerate() {
            let mut busy = vec![0.0f64; 3];
            for iv in spans
                .iter()
                .filter(|s| s.tenant == t)
                .flat_map(|s| &s.intervals)
            {
                busy[iv.device] += iv.seconds;
            }
            assert_eq!(
                busy, qos.device_busy,
                "tenant {t} busy not conserved (seed {seed:#x})"
            );
        }
        // Queue-delay accounting exists for every tenant and is finite.
        assert_eq!(report.tenant_queue_delay.len(), 3);
        assert!(report.tenant_queue_delay.iter().all(|d| d.is_finite()));
    }
}

/// Per policy, in [`SchedPolicyKind::ALL`] order: each tenant's
/// `(completed, shed, makespan bits, FNV of latency bits)`, then the
/// FNV of the tenants' `device_busy` bits, concatenated in tenant
/// order (the scheduler's `tenant_busy` rows), and of the
/// `tenant_queue_delay` bits — recorded on the three-tenant drive
/// (seed `0xabcd`) before the policies were folded into their enum.
type PolicyCell = ([(u64, u64, u64, u64); 3], u64, u64);
const RECORDED_POLICIES: [PolicyCell; 4] = [
    // fifo
    (
        [
            (64, 0, 0x3fc0f1a099527d34, 0x62b10b537abbfdbd),
            (32, 0, 0x3fc96af06ea1dfb0, 0x4274a1f4705ae67e),
            (32, 0, 0x3fc47ae147ae147d, 0xb20c1811ca2cf83b),
        ],
        0xe566075906c5ac2e,
        0x6fb7c9349cf5ec44,
    ),
    // strict_priority
    (
        [
            (64, 0, 0x3fc0f1a099527d34, 0x62b10b537abbfdbd),
            (32, 0, 0x3fc96af06ea1dfb0, 0x4274a1f4705ae67e),
            (32, 0, 0x3fc47ae147ae147d, 0xb20c1811ca2cf83b),
        ],
        0xe566075906c5ac2e,
        0x6db81e6b043ab8f8,
    ),
    // weighted_fair
    (
        [
            (64, 0, 0x3fc0dbe7f55c9437, 0x69f718ec2f6fe945),
            (32, 0, 0x3fc96af06ea1dfb0, 0xa6845a0acdb52353),
            (32, 0, 0x3fc47ae147ae147d, 0x44909544803cd98b),
        ],
        0xe566075906c5ac2e,
        0x0018f6a635934438,
    ),
    // deadline
    (
        [
            (64, 0, 0x3fc0f1a099527d34, 0x62b10b537abbfdbd),
            (32, 0, 0x3fc96af06ea1dfb0, 0x4274a1f4705ae67e),
            (32, 0, 0x3fc47ae147ae147d, 0xb20c1811ca2cf83b),
        ],
        0xe566075906c5ac2e,
        0x6db81e6b043ab8f8,
    ),
];

#[test]
fn every_policy_reproduces_recorded_tenant_reports() {
    for (policy, recorded) in SchedPolicyKind::ALL.into_iter().zip(&RECORDED_POLICIES) {
        let report = fleet_dataset(3)
            .drive_tenants(&three_tenant_spec(policy, 0xabcd))
            .expect("drive");
        let mut tenants = [(0, 0, 0, 0); 3];
        for (cell, qos) in tenants.iter_mut().zip(&report.tenants) {
            *cell = (
                qos.completed,
                qos.shed,
                qos.makespan.to_bits(),
                fnv_of_bits(&qos.latencies),
            );
        }
        let busy: Vec<f64> = report
            .tenants
            .iter()
            .flat_map(|qos| qos.device_busy.iter().copied())
            .collect();
        let got = (
            tenants,
            fnv_of_bits(&busy),
            fnv_of_bits(&report.tenant_queue_delay),
        );
        assert_eq!(&got, recorded, "policy {}: {got:#x?}", policy.label());
    }
}

#[test]
fn strict_priority_dominates_fifo_for_the_foreground_tenant() {
    let drive = |policy| {
        let dataset = fleet_dataset(1);
        let mut fg = TenantLoad::new(Arrivals::Poisson { rate: 300.0 });
        fg.requests = 48;
        fg.seed = 0x11;
        let mut bg = TenantLoad::new(Arrivals::Bursty {
            on_rate: 30_000.0,
            mean_on: 0.02,
            mean_off: 0.005,
        });
        bg.mix = OpMix {
            get: 0.5,
            scan: 0.5,
            append: 0.0,
        };
        bg.requests = 192;
        bg.seed = 0x22;
        let mut spec = MultiTenantSpec::new(policy)
            .tenant(TenantSpec::named("fg").with_priority(200), fg)
            .tenant(TenantSpec::named("bg").with_priority(0), bg);
        spec.queue_depth = 256; // generous: reordering, not shedding
        dataset.drive_tenants(&spec).expect("drive")
    };
    let fifo = drive(SchedPolicyKind::Fifo);
    let sp = drive(SchedPolicyKind::StrictPriority);
    let (fg, bg) = (0, 1);
    // Same offered streams either way.
    assert_eq!(sp.tenants[fg].offered, fifo.tenants[fg].offered);
    assert_eq!(sp.tenants[bg].offered, fifo.tenants[bg].offered);
    // Dominance on the contended device: the high-priority tenant's
    // latency under strict priority never regresses against FIFO...
    assert!(
        sp.tenants[fg].latency.mean_ms <= fifo.tenants[fg].latency.mean_ms,
        "fg mean {} > fifo {}",
        sp.tenants[fg].latency.mean_ms,
        fifo.tenants[fg].latency.mean_ms
    );
    assert!(
        sp.tenants[fg].latency.p99_ms <= fifo.tenants[fg].latency.p99_ms,
        "fg p99 {} > fifo {}",
        sp.tenants[fg].latency.p99_ms,
        fifo.tenants[fg].latency.p99_ms
    );
    // ...and undercuts the background tenant sharing the device.
    assert!(
        sp.tenants[fg].latency.mean_ms <= sp.tenants[bg].latency.mean_ms,
        "fg mean {} > bg mean {}",
        sp.tenants[fg].latency.mean_ms,
        sp.tenants[bg].latency.mean_ms
    );
}
