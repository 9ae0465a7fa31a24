//! What a run prints and writes: a block a person can read per
//! workload, the one-line JSON result the driver reads, and the
//! documents under `out/`.

use crate::json::{write_file, Json};
use crate::ladder::TraceResult;
use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::run::{Options, RunResult};
use crate::workload::out_dir;

/// The driver's contract: exactly these four keys, every metric of
/// the table by name with its unit, on one line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    table: &'static [MetricDef],
) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::count(attempted)),
        ("failed", Json::count(failed)),
        (
            "metrics",
            Json::obj(
                values
                    .in_table_order(table)
                    .into_iter()
                    .map(|(def, value)| {
                        (
                            def.name,
                            Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
                        )
                    }),
            ),
        ),
    ])
}

fn print_broken(broken: &[String]) {
    for why in broken {
        println!("  PRE-CONDITION BROKEN: {why}");
    }
}

fn fail_ratio(failed: u64, attempted: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

/// Prints one workload's untraced run, its result line last.
pub fn print_run(r: &RunResult, opts: &Options) {
    let (attempted, failed) = (r.phase.attempted(), r.phase.failed());
    println!(
        "== {}  seed {}  rounds {} ({} calm: steal ≤ {:.1} %)  ops {attempted}  failed {failed}  fail_ratio {}",
        r.workload,
        opts.seed,
        r.phase.rounds.len(),
        r.calm_rounds,
        r.calm_limit * 100.0,
        fail_ratio(failed, attempted),
    );
    for (def, median) in r.values().in_table_order(END_TO_END) {
        let m = r
            .measured
            .iter()
            .find(|m| m.name == def.name)
            .expect("measured");
        println!(
            "  {:<20} {median:>14.4} {:<8} [min {:.4}  max {:.4}; every sample: {:.4}]  ({} is better)",
            def.name,
            def.unit,
            m.calm.min,
            m.calm.max,
            m.all_median,
            def.better.label(),
        );
    }
    let first = &r.phase.rounds[0].counters;
    let counts = |c: &crate::run::Counters| {
        (
            c.cache_hits,
            c.cache_misses,
            c.chunks_decoded,
            c.ssd_reads + c.ssd_writes,
            c.file_reads,
        )
    };
    let same = r
        .phase
        .rounds
        .iter()
        .all(|m| counts(&m.counters) == counts(first));
    println!(
        "  counters, first round{}: cache {} hits / {} misses, {} chunks decoded, \
         {} ssd commands ({} virtual s), {} file reads",
        if same {
            " (counts identical in every round)"
        } else {
            ""
        },
        first.cache_hits,
        first.cache_misses,
        first.chunks_decoded,
        first.ssd_reads + first.ssd_writes,
        first.ssd_read_s + first.ssd_write_s,
        first.file_reads,
    );
    print_broken(&r.phase.broken);
    println!(
        "{}",
        result_line(r.correct(), attempted, failed, &r.values(), END_TO_END).render()
    );
}

/// Prints one workload's traced run, its result line last.
pub fn print_trace(r: &TraceResult, opts: &Options) {
    println!(
        "== {} (traced)  seed {}  checks {}  failed {}  fail_ratio {}  spans {} → {}",
        r.workload,
        opts.seed,
        r.attempted,
        r.failed,
        fail_ratio(r.failed, r.attempted),
        r.spans,
        r.trace_path.display(),
    );
    for (def, value) in r.values.in_table_order(PER_LAYER) {
        let note = match def.name {
            "store.client.op_tail_us" => format!("  ({} samples)", r.tail_samples),
            _ => String::new(),
        };
        println!("  {:<40} {value:>16.4} {}{note}", def.name, def.unit);
    }
    print_broken(&r.broken);
    println!(
        "{}",
        result_line(r.correct(), r.attempted, r.failed, &r.values, PER_LAYER).render()
    );
}

fn metric_objects(values: &Values, table: &'static [MetricDef]) -> Json {
    Json::obj(
        values
            .in_table_order(table)
            .into_iter()
            .map(|(def, value)| {
                (
                    def.name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::str(def.unit)),
                        ("better", Json::str(def.better.label())),
                    ]),
                )
            }),
    )
}

fn header(opts: &Options) -> Vec<(&'static str, Json)> {
    vec![
        ("seed", Json::count(opts.seed)),
        ("seconds", Json::count(opts.seconds)),
        ("quick", Json::Bool(opts.quick)),
        (
            "available_parallelism",
            Json::count(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
    ]
}

/// Writes `out/results.json` for the untraced runs just made.
pub fn write_results(results: &[RunResult], opts: &Options) {
    let workloads = results.iter().map(|r| {
        let rounds = r.phase.rounds.iter().map(|m| {
            let c = &m.counters;
            Json::obj([
                ("wall_s", Json::Num(m.round.wall_s)),
                ("cpu_s", Json::Num(m.round.cpu_s)),
                ("steal_share", Json::Num(m.round.steal_share)),
                ("ops", Json::count(m.round.ops)),
                ("failed", Json::count(m.round.failed)),
                ("reads", Json::count(m.round.reads)),
                ("cache_hits", Json::count(c.cache_hits)),
                ("cache_misses", Json::count(c.cache_misses)),
                ("chunks_decoded", Json::count(c.chunks_decoded)),
                ("ssd_commands", Json::count(c.ssd_reads + c.ssd_writes)),
                ("ssd_virtual_s", Json::Num(c.ssd_read_s + c.ssd_write_s)),
                ("file_reads", Json::count(c.file_reads)),
            ])
        });
        let summaries = r.measured.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("median", Json::Num(m.calm.median)),
                    ("min", Json::Num(m.calm.min)),
                    ("max", Json::Num(m.calm.max)),
                    ("median_of_every_sample", Json::Num(m.all_median)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(r.workload)),
            ("correct", Json::Bool(r.correct())),
            ("attempted", Json::count(r.phase.attempted())),
            ("failed", Json::count(r.phase.failed())),
            (
                "broken_preconditions",
                Json::Arr(r.phase.broken.iter().map(Json::str).collect()),
            ),
            ("metrics", metric_objects(&r.values(), END_TO_END)),
            ("spread", Json::obj(summaries)),
            ("calm_rounds", Json::count(r.calm_rounds as u64)),
            ("calm_steal_limit", Json::Num(r.calm_limit)),
            (
                "setups",
                Json::Arr(
                    r.setups
                        .iter()
                        .map(|&(s, steal)| {
                            Json::obj([("s", Json::Num(s)), ("steal_share", Json::Num(steal))])
                        })
                        .collect(),
                ),
            ),
            ("rounds", Json::Arr(rounds.collect())),
        ])
    });
    let mut doc = header(opts);
    doc.push(("workloads", Json::Arr(workloads.collect())));
    let path = out_dir().join("results.json");
    write_file(&path, &Json::obj(doc)).expect("write results.json");
    eprintln!("wrote {}", path.display());
}

/// Writes `out/layers.json` for the traced runs just made.
pub fn write_layers(results: &[TraceResult], opts: &Options) {
    let workloads = results.iter().map(|r| {
        Json::obj([
            ("workload", Json::str(r.workload)),
            ("correct", Json::Bool(r.correct())),
            ("attempted", Json::count(r.attempted)),
            ("failed", Json::count(r.failed)),
            (
                "broken_preconditions",
                Json::Arr(r.broken.iter().map(Json::str).collect()),
            ),
            ("trace", Json::str(r.trace_path.display().to_string())),
            ("spans", Json::count(r.spans as u64)),
            ("tail_samples", Json::count(r.tail_samples as u64)),
            ("metrics", metric_objects(&r.values, PER_LAYER)),
        ])
    });
    let mut doc = header(opts);
    doc.push(("workloads", Json::Arr(workloads.collect())));
    let path = out_dir().join("layers.json");
    write_file(&path, &Json::obj(doc)).expect("write layers.json");
    eprintln!("wrote {}", path.display());
}
