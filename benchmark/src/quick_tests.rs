//! The `--quick` path end to end, on tiny profiles: every workload
//! shape runs, every answer checks, and every listed metric appears.

use crate::gen::Pattern;
use crate::ladder::trace_workload;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{run_workload, timed_phase, Options};
use crate::workload::{set_up, Cache, Spec};
use sage_genomics::sim::DatasetProfile;

const QUICK: Options = Options {
    seed: 11,
    seconds: 1,
    quick: true,
};

/// The four workload shapes, shrunk: the same code paths on a few
/// hundred short reads and a few dozen long ones.
fn tiny_specs() -> [Spec; 4] {
    let [scan, warm, cold, ingest] = Spec::all();
    [
        Spec {
            name: "tiny-scan",
            profile: DatasetProfile::tiny_short(),
            chunk_reads: 32,
            units_per_round: 20,
            replay_units: 20,
            ..scan
        },
        Spec {
            name: "tiny-warm",
            profile: DatasetProfile::tiny_short(),
            chunk_reads: 32,
            units_per_round: 2_000,
            replay_units: 2_000,
            ..warm
        },
        Spec {
            name: "tiny-cold",
            profile: DatasetProfile::tiny_long(),
            chunk_reads: 4,
            cache: Cache::Chunks(2),
            pattern: Pattern::Uniform { span: 2 },
            units_per_round: 200,
            replay_units: 100,
            ..cold
        },
        Spec {
            name: "tiny-ingest",
            profile: DatasetProfile::tiny_short(),
            chunk_reads: 32,
            cache: Cache::Chunks(4),
            initial_reads: Some(256),
            pattern: Pattern::Ingest {
                batch: 64,
                gets: 16,
                span: 32,
                window: 256,
            },
            units_per_round: 30,
            replay_units: 20,
            ..ingest
        },
    ]
}

#[test]
fn quick_run_answers_rightly_and_reports_every_end_to_end_metric() {
    for spec in tiny_specs() {
        let r = run_workload(&spec, &QUICK);
        assert!(
            r.phase.broken.is_empty(),
            "{}: {:?}",
            spec.name,
            r.phase.broken
        );
        assert_eq!(r.phase.failed(), 0, "{}", spec.name);
        assert!(r.phase.attempted() >= 1, "{}", spec.name);
        assert_eq!(r.phase.rounds.len(), 1, "quick is one round");
        for (def, value) in r.values().in_table_order(END_TO_END) {
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {} = {value} (end-to-end metrics are never 0)",
                spec.name,
                def.name
            );
        }
    }
}

#[test]
fn every_round_of_an_appending_workload_starts_from_the_store_as_set_up() {
    let [_, _, _, ingest] = tiny_specs();
    let served = set_up(&ingest, QUICK.seed);
    let phase = timed_phase(&ingest, &served, &QUICK, std::time::Duration::ZERO, 3, None);
    assert_eq!(phase.rounds.len(), 3);
    // Each round's first append must be answered with the id the store
    // was set up to: a store that kept the round before would answer
    // with a later one, and the op would count as failed.
    assert_eq!(phase.failed(), 0);
    let appended = |i: usize| phase.rounds[i].round.appended_bytes;
    assert!(appended(0) > 0);
    let first = &phase.rounds[0];
    for m in &phase.rounds {
        assert_eq!(m.round.ops, first.round.ops);
        assert_eq!(m.counters.ssd_writes, first.counters.ssd_writes);
    }
    assert_eq!(
        served
            .dataset
            .session()
            .scan(|_| true)
            .unwrap()
            .join()
            .unwrap()
            .len() as u64,
        served.stored,
        "the set-up's own dataset is left as it was"
    );
}

#[test]
fn quick_trace_reports_every_layer_metric_and_writes_a_loadable_trace() {
    for spec in tiny_specs() {
        let r = trace_workload(&spec, &QUICK);
        assert!(
            r.correct(),
            "{}: {} failed, {:?}",
            spec.name,
            r.failed,
            r.broken
        );
        for (def, value) in r.values.in_table_order(PER_LAYER) {
            assert!(value.is_finite(), "{}: {} = {value}", spec.name, def.name);
        }
        let get = |name: &str| r.values.get(name).unwrap();
        assert!(get("core.decode_quality_share") > 0.0, "{}", spec.name);
        assert!(get("trace.decode_agreement") > 0.0, "{}", spec.name);
        assert!(get("store.engine.chunks_decoded") > 0.0, "{}", spec.name);
        let appends = matches!(spec.pattern, Pattern::Ingest { .. });
        assert_eq!(
            get("store.client.append_p50_ms") > 0.0,
            appends,
            "{}",
            spec.name
        );
        if spec.cache == Cache::Chunks(0) {
            assert_eq!(get("store.lru.hit_ratio"), 0.0, "{}", spec.name);
        }
        if spec.cache == Cache::WholeStore {
            assert_eq!(get("store.lru.hit_ratio"), 1.0, "{}", spec.name);
        }

        let text = std::fs::read_to_string(&r.trace_path).expect("the trace file");
        let doc = crate::json::parse::parse(&text).expect("the trace parses");
        let Some(crate::json::Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("{}: no traceEvents", spec.name)
        };
        assert_eq!(events.len(), r.spans);
        for name in [
            "ladder.chunk",
            "io.read_extent",
            "core.parse",
            "core.decode",
        ] {
            assert!(
                text.contains(&format!("\"{name}\"")),
                "{}: no {name} span",
                spec.name
            );
        }
    }
}
