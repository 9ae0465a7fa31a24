//! The metric tables: every name the benchmark may print, with its
//! unit and direction. `BENCHMARK.json` lists exactly these (a unit
//! test holds the two together), and a run reports exactly these.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline's median by which
    /// the metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the store sees. Every workload reports every one.
///
/// A bound has to hold what the driver holds it to: the distance
/// between the quartiles of ten runs on ten *different seeds*, as a
/// share of their median, may not exceed it. On the sizing host — a
/// guest on a shared machine — that distance was 7–21 % for the
/// timings even over calm rounds only (neighbours on the sibling
/// hyperthreads slow identical work by a seventh with no time stolen;
/// see the README), so they carry the widest bound the driver accepts.
/// The compression ratio moves 1 % between seeds, peak memory 2–8 %.
pub const END_TO_END: &[MetricDef] = &[
    e2e("reads_per_s", "reads/s", Higher, 0.25),
    e2e("prepared_mib_per_s", "MiB/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("compression_ratio", "ratio", Higher, 0.03),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One layer each, measured from outside by the traced run. The prefix
/// is the module the metric belongs to.
pub const PER_LAYER: &[MetricDef] = &[
    layer("genomics.simulate_s", "s", Lower),
    layer("genomics.fastq_mib_per_s", "MiB/s", Higher),
    layer("genomics.pack2_mib_per_s", "MiB/s", Higher),
    layer("core.parse_us_per_chunk", "us", Lower),
    layer("core.decode_us_per_chunk", "us", Lower),
    layer("core.decode_mib_per_s", "MiB/s", Higher),
    layer("core.decode_bases_us_per_chunk", "us", Lower),
    layer("core.decode_quality_us_per_chunk", "us", Lower),
    layer("core.decode_quality_share", "ratio", Lower),
    layer("core.encode_us_per_chunk", "us", Lower),
    layer("core.encode_mib_per_s", "MiB/s", Higher),
    layer("core.stored_dna_bytes", "bytes", Lower),
    layer("core.stored_quality_bytes", "bytes", Lower),
    layer("core.decode_vs_gzip_like", "ratio", Higher),
    layer("baselines.gzip_like_decode_mib_per_s", "MiB/s", Higher),
    layer("baselines.spring_like_decode_mib_per_s", "MiB/s", Higher),
    layer("io.file_read_us_per_extent", "us", Lower),
    layer("io.file_read_mib_per_s", "MiB/s", Higher),
    layer("io.file_write_us_per_chunk", "us", Lower),
    layer("io.file_reads", "count", Lower),
    layer("io.file_bytes_read", "bytes", Lower),
    layer("io.reactor_roundtrip_us", "us", Lower),
    layer("io.reactor_cpu_us_per_op", "us", Lower),
    layer("ssd.virtual_read_s", "s", Lower),
    layer("ssd.virtual_write_s", "s", Lower),
    layer("ssd.commands", "count", Lower),
    layer("ssd.virtual_over_wall", "ratio", Higher),
    layer("store.codec.encode_sharded_mib_per_s", "MiB/s", Higher),
    layer("store.codec.decode_all_mib_per_s", "MiB/s", Higher),
    layer("store.manifest.lookup_ns", "ns", Lower),
    layer("store.manifest.bytes", "bytes", Lower),
    layer("store.lru.hit_ratio", "ratio", Higher),
    layer("store.lru.evictions", "count", Lower),
    layer("store.lru.probe_ns", "ns", Lower),
    layer("store.lru.insert_ns", "ns", Lower),
    layer("store.lru.lock_busy_s", "s", Lower),
    layer("store.engine.get_warm_ns", "ns", Lower),
    layer("store.engine.get_cold_us", "us", Lower),
    layer("store.engine.scan_serial_ms", "ms", Lower),
    layer("store.engine.scan_parallel_ms", "ms", Lower),
    layer("store.engine.parallel_speedup", "ratio", Higher),
    layer("store.engine.self_us_per_chunk", "us", Lower),
    layer("store.engine.chunks_decoded", "count", Lower),
    layer("store.engine.decode_busy_s", "s", Lower),
    layer("store.engine.dedup_decodes", "count", Lower),
    layer("store.engine.payload_bytes_copied", "bytes", Lower),
    layer("store.engine.append_ms_per_batch", "ms", Lower),
    layer("store.engine.append_encode_share", "ratio", Higher),
    layer("store.view.iter_ns_per_read", "ns", Lower),
    layer("store.view.to_owned_mib_per_s", "MiB/s", Higher),
    layer("store.client.roundtrip_us", "us", Lower),
    layer("store.client.op_tail_us", "us", Lower),
    layer("store.client.op_tail_pct", "%", Higher),
    layer("store.client.append_p50_ms", "ms", Lower),
    layer("store.client.ingest_mib_per_s", "MiB/s", Higher),
    layer("store.client.submitted", "count", Higher),
    layer("store.client.completed", "count", Higher),
    layer("store.client.rejected", "count", Lower),
    layer("store.obs.metrics_snapshot_us", "us", Lower),
    layer("store.obs.tracing_overhead", "ratio", Lower),
    layer("trace.overhead", "ratio", Higher),
    layer("trace.decode_agreement", "ratio", Higher),
];

/// Named values of one run, filled as they are measured.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.get(name).is_none(),
            "metric {name} measured twice: the tables list each once"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The value of every metric of `table`, in table order.
    ///
    /// # Panics
    ///
    /// Panics when one is missing or one was measured that the table
    /// does not list: either is a bug in the benchmark, and the result
    /// line must hold exactly the table.
    pub fn in_table_order(&self, table: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|d| d.name == *name),
                "metric {name} is measured but not listed"
            );
        }
        table
            .iter()
            .map(|def| {
                let v = self.get(def.name).unwrap_or_else(|| {
                    panic!("metric {} is listed but was not measured", def.name)
                });
                (def, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse::parse, Json};
    use crate::workload::Spec;

    fn listed(doc: &Json, key: &str) -> Vec<Json> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("BENCHMARK.json: {key} is {other:?}"),
        }
    }

    fn text(item: &Json, key: &str) -> String {
        match item.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key} is {other:?} in {item:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).unwrap();

        for (key, table, has_bound) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let items = listed(&doc, key);
            assert_eq!(items.len(), table.len(), "{key}");
            for def in table {
                let item = items
                    .iter()
                    .find(|i| text(i, "name") == def.name)
                    .unwrap_or_else(|| panic!("{} missing from {key}", def.name));
                assert_eq!(text(item, "unit"), def.unit, "{}", def.name);
                assert_eq!(text(item, "better"), def.better.label(), "{}", def.name);
                let bound = item.get("bound").and_then(Json::as_f64);
                assert_eq!(bound, has_bound.then_some(def.bound), "{}", def.name);
            }
        }

        let workloads = listed(&doc, "workloads");
        let specs = Spec::all();
        assert_eq!(workloads.len(), specs.len());
        for (item, spec) in workloads.iter().zip(&specs) {
            assert_eq!(text(item, "name"), spec.name);
            assert_eq!(text(item, "why"), spec.why);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::sizes::DEFAULT_SECONDS as f64)
        );
    }

    #[test]
    fn names_are_unique_and_setup_s_has_the_widest_bound() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
    }
}
