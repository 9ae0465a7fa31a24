//! The shared qos-scenario fixture: one definition of the open-loop
//! serving setup that `qos_sweep`, `trace_explorer`, and
//! `blame_explorer` all run on — same dataset profile, same store
//! encoding, same fleet shape, same arrival spec, same trickle-rate
//! capacity calibration — so the harnesses differ only in what they
//! *measure*, never in what they *drive*. The knobs that legitimately
//! differ per harness (arrivals per cell, virtual queue bound) are the
//! scenario's fields; everything else is fixed here.

use sage_genomics::sim::DatasetProfile;
use sage_io::SchedPolicyKind;
use sage_pipeline::SystemConfig;
use sage_store::client::workload::{Arrivals, OpMix, Pattern};
use sage_store::client::{Dataset, DatasetBuilder};
use sage_store::{
    encode_sharded, MultiTenantSpec, ShardedStore, StoreOptions, TenantLoad, TenantSpec,
};

/// One open-loop QoS scenario: the serving stack every qos-family
/// harness drives, parameterized only by its load shape.
#[derive(Debug, Clone, Copy)]
pub struct QosScenario {
    /// Reads per chunk (and per request range: span-aligned slots).
    pub reads_per_chunk: usize,
    /// Arrivals generated per sweep cell (sheds included).
    pub requests: u64,
    /// Virtual queue bound: arrivals finding this many operations
    /// incomplete are shed.
    pub queue_depth: usize,
}

impl QosScenario {
    /// The scenario with the family's fixed chunking and the given
    /// load shape.
    pub fn new(requests: u64, queue_depth: usize) -> QosScenario {
        QosScenario {
            reads_per_chunk: 48,
            requests,
            queue_depth,
        }
    }

    /// Synthesizes the family's dataset (RS1 at 4% of paper scale,
    /// times `SAGE_SCALE`) and encodes it into the sharded store.
    pub fn encode_store(&self) -> ShardedStore {
        let ds = crate::dataset(&DatasetProfile::rs1().scaled(0.04));
        encode_sharded(&ds.reads, &StoreOptions::new(self.reads_per_chunk)).expect("encode store")
    }

    /// Opens the store over an `n`-device PCIe fleet with caching off
    /// (every operation pays its device) and the span tracer on or
    /// off.
    pub fn open_fleet(&self, sharded: &ShardedStore, devices: usize, tracing: bool) -> Dataset {
        let fleet = SystemConfig::pcie().with_ssds(devices).device_configs();
        DatasetBuilder::new()
            .cache_chunks(0)
            .ssd_fleet(fleet)
            .tracing(tracing)
            .open(sharded.clone())
            .expect("valid scenario configuration")
    }

    /// The scenario's load shape under the given arrival process: the
    /// single definition (pattern span, request count) that both the
    /// single-tenant sweep cells and every tenant in the mixed-tenant
    /// matrix are cut from.
    pub fn load_at(&self, arrivals: Arrivals) -> TenantLoad {
        let mut load = TenantLoad::new(arrivals);
        load.pattern = Pattern::Uniform {
            span: self.reads_per_chunk as u64,
        };
        load.requests = self.requests;
        load
    }

    /// The foreground tenant of the mixed matrix: a latency-sensitive
    /// get-only service offering steady Poisson load, high priority,
    /// the lion's share of fair-queueing weight, and a tight SLO (the
    /// deadline policy schedules it by that SLO).
    pub fn foreground(&self, rate: f64) -> (TenantSpec, TenantLoad) {
        let mut load = self.load_at(Arrivals::Poisson { rate });
        load.seed = 0x0f9a;
        let spec = TenantSpec::named("latency")
            .with_priority(200)
            .with_weight(8.0)
            .with_slo(0.005);
        (spec, load)
    }

    /// The scan-heavy batch tenant: bursts of full-chunk walks — the
    /// antagonist whose long operations queue ahead of foreground gets
    /// under FIFO.
    pub fn batch(&self, rate: f64) -> (TenantSpec, TenantLoad) {
        let mut load = self.load_at(Arrivals::Bursty {
            on_rate: rate * 3.0,
            mean_on: 0.05,
            mean_off: 0.10,
        });
        load.mix = OpMix {
            get: 0.0,
            scan: 1.0,
            append: 0.0,
        };
        load.seed = 0xba7c;
        let spec = TenantSpec::named("batch")
            .with_priority(50)
            .with_weight(2.0);
        (spec, load)
    }

    /// The append-heavy ingest tenant: a steady fixed-rate writer at
    /// the bottom of the priority order with the smallest fair share.
    pub fn ingest(&self, rate: f64) -> (TenantSpec, TenantLoad) {
        let mut load = self.load_at(Arrivals::Fixed { rate });
        load.mix = OpMix {
            get: 0.0,
            scan: 0.0,
            append: 1.0,
        };
        load.seed = 0x16e5;
        let spec = TenantSpec::named("ingest")
            .with_priority(10)
            .with_weight(1.0);
        (spec, load)
    }

    /// The full mixed-tenant matrix under one scheduling policy:
    /// foreground latency tenant plus both background antagonists.
    pub fn tenant_matrix(
        &self,
        policy: SchedPolicyKind,
        fg_rate: f64,
        bg_rate: f64,
    ) -> MultiTenantSpec {
        let mut spec = MultiTenantSpec::new(policy);
        spec.queue_depth = self.queue_depth;
        let (fg_spec, fg_load) = self.foreground(fg_rate);
        let (batch_spec, batch_load) = self.batch(bg_rate);
        let (ingest_spec, ingest_load) = self.ingest(bg_rate);
        spec.tenant(fg_spec, fg_load)
            .tenant(batch_spec, batch_load)
            .tenant(ingest_spec, ingest_load)
    }

    /// The foreground tenant running alone under the same policy: the
    /// per-policy baseline an isolation claim is measured against.
    pub fn foreground_alone(&self, policy: SchedPolicyKind, fg_rate: f64) -> MultiTenantSpec {
        let mut spec = MultiTenantSpec::new(policy);
        spec.queue_depth = self.queue_depth;
        let (fg_spec, fg_load) = self.foreground(fg_rate);
        spec.tenant(fg_spec, fg_load)
    }

    /// Measures the fleet's service capacity at a trickle rate (no
    /// queueing): mean device seconds per operation, inverted and
    /// multiplied out to the fleet.
    pub fn calibrate_capacity(&self, sharded: &ShardedStore, devices: usize) -> f64 {
        let dataset = self.open_fleet(sharded, devices, false);
        let mut load = TenantLoad::new(Arrivals::Fixed { rate: 1.0 });
        load.pattern = Pattern::Uniform {
            span: self.reads_per_chunk as u64,
        };
        load.requests = 64;
        dataset
            .drive_open_loop(&load, 64)
            .expect("calibration drive")
            .capacity_estimate(devices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_calibrates_and_drives() {
        let sc = QosScenario::new(32, 8);
        assert_eq!(sc.reads_per_chunk, 48);
        let sharded = sc.encode_store();
        assert!(sharded.total_reads() > 0);
        let capacity = sc.calibrate_capacity(&sharded, 1);
        assert!(capacity > 0.0, "calibration must find positive capacity");
        let report = sc
            .open_fleet(&sharded, 1, false)
            .drive_open_loop(
                &sc.load_at(Arrivals::Poisson {
                    rate: capacity * 0.5,
                }),
                sc.queue_depth,
            )
            .expect("drive");
        assert_eq!(report.completed + report.shed, 32);
    }

    #[test]
    fn tenant_matrix_casts_the_three_tenants() {
        let sc = QosScenario::new(64, 256);
        let spec = sc.tenant_matrix(SchedPolicyKind::WeightedFair, 100.0, 40.0);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.queue_depth, 256);
        assert_eq!(spec.tenants.len(), 3);
        let names: Vec<&str> = spec.tenants.iter().map(|(s, _)| s.name).collect();
        assert_eq!(names, ["latency", "batch", "ingest"]);
        // Priority order matches the cast: latency > batch > ingest.
        assert!(spec.tenants[0].0.priority > spec.tenants[1].0.priority);
        assert!(spec.tenants[1].0.priority > spec.tenants[2].0.priority);
        // Every tenant is cut from the scenario's load shape.
        for (_, load) in &spec.tenants {
            assert!(matches!(load.pattern, Pattern::Uniform { span: 48 }));
            assert_eq!(load.requests, 64);
        }
        let alone = sc.foreground_alone(SchedPolicyKind::Fifo, 100.0);
        assert_eq!(alone.tenants.len(), 1);
        assert_eq!(alone.tenants[0].0.name, "latency");
        // The baseline foreground load is the matrix foreground load.
        assert_eq!(alone.tenants[0].1.seed, spec.tenants[0].1.seed);
    }

    #[test]
    fn spec_carries_the_scenario_load_shape() {
        let sc = QosScenario::new(600, 64);
        let load = sc.load_at(Arrivals::Poisson { rate: 123.0 });
        assert_eq!(load.requests, 600);
        assert_eq!(sc.queue_depth, 64);
        assert!(matches!(load.arrivals, Arrivals::Poisson { rate } if rate == 123.0));
        assert!(matches!(load.pattern, Pattern::Uniform { span: 48 }));
    }
}
