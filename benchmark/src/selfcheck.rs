//! `--selfcheck`: two full sets of untraced runs in one invocation,
//! set B held to set A under the benchmark's own bounds, in both
//! directions: the code is the same, so B beating A by more than a
//! bound is as much a disagreement as B trailing it. If two runs of
//! the same code cannot agree within a bound, the benchmark cannot
//! police that bound on a change.
//!
//! Every run is a child process of this same executable, as a driver
//! would make it — a fresh process per run, so peak memory and set-up
//! mean what they mean there — read back through its result line and
//! the `out/results.json` it leaves.

use crate::json::parse::parse;
use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::run::Options;
use crate::sizes::STEAL_LIMIT;
use crate::workload::{out_dir, Spec};
use std::process::Command;

/// The share of `a` by which `b` is worse (negative when better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// What one child run reported.
struct ChildRun {
    /// Its result line.
    result: Json,
    /// Per round: (ssd commands, chunks decoded, cache misses).
    round_counts: Vec<(f64, f64, f64)>,
    /// Rounds the timings were taken over, and the steal share up to
    /// which a round counted.
    calm_rounds: f64,
    calm_limit: f64,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Json::Bool(true))
    }

    fn count(&self, key: &str) -> f64 {
        self.result
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    }
}

/// Runs `spec` untraced in a child process and reads back what it
/// printed and wrote.
fn child_run(spec: &Spec, opts: &Options) -> Result<ChildRun, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", spec.name, "--trace", "0"])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()]);
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    let result = parse(last).map_err(|e| format!("result line: {e}"))?;
    let written = std::fs::read_to_string(out_dir().join("results.json"))
        .map_err(|e| format!("results.json: {e}"))?;
    let written = parse(&written).map_err(|e| format!("results.json: {e}"))?;
    let workload = written
        .get("workloads")
        .and_then(Json::as_array)
        .and_then(|w| w.first())
        .ok_or("results.json holds no workload")?;
    let rounds = workload
        .get("rounds")
        .and_then(Json::as_array)
        .ok_or("results.json holds no rounds")?;
    let field = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    Ok(ChildRun {
        result,
        calm_rounds: field(workload, "calm_rounds"),
        calm_limit: field(workload, "calm_steal_limit"),
        round_counts: rounds
            .iter()
            .map(|r| {
                (
                    field(r, "ssd_commands"),
                    field(r, "chunks_decoded"),
                    field(r, "cache_misses"),
                )
            })
            .collect(),
    })
}

fn row(pass: bool, workload: &str, what: &str, detail: String) -> bool {
    println!(
        "{} {workload:<14} {what:<28} {detail}",
        if pass { "PASS" } else { "FAIL" }
    );
    pass
}

/// Compares set B with set A for one workload; `true` when every row
/// passes.
fn compare(spec: &Spec, a: &ChildRun, b: &ChildRun) -> bool {
    let mut pass = true;
    for def in END_TO_END {
        let (Some(va), Some(vb)) = (a.metric(def.name), b.metric(def.name)) else {
            pass = row(false, spec.name, def.name, "not reported".into());
            continue;
        };
        let worse = worsening(def.better, va, vb);
        pass &= row(
            worse.abs() <= def.bound,
            spec.name,
            def.name,
            format!(
                "A {va:.4}  B {vb:.4} {}  worse by {:+.2} % (bound ±{} %)",
                def.unit,
                worse * 100.0,
                def.bound * 100.0
            ),
        );
    }
    for (set, r) in [("A", a), ("B", b)] {
        // A set that found too few calm rounds measured the host's
        // neighbours; whatever it agrees or disagrees with says nothing.
        pass &= row(
            r.calm_limit <= STEAL_LIMIT,
            spec.name,
            &format!("calm rounds, set {set}"),
            format!(
                "{} rounds with steal ≤ {:.1} % (over {} %, the host was too loud: repeat)",
                r.calm_rounds,
                r.calm_limit * 100.0,
                STEAL_LIMIT * 100.0
            ),
        );
        pass &= row(
            r.correct() && r.count("failed") == 0.0,
            spec.name,
            &format!("fail_ratio, set {set}"),
            format!(
                "{} of {} ops failed",
                r.count("failed"),
                r.count("attempted")
            ),
        );
    }
    if spec.in_flight == 1 {
        // One op in flight: nothing races, so the program's counts
        // must repeat exactly, round after round and set after set.
        // (Virtual seconds need not: each set-up re-encodes, the
        // encoder's bytes vary a little, and with them the pages read.)
        let first = a.round_counts[0];
        let same = a
            .round_counts
            .iter()
            .chain(&b.round_counts)
            .all(|c| *c == first);
        pass &= row(
            same,
            spec.name,
            "ssd.* and decode counts",
            format!(
                "{} commands and {} chunks decoded in every round of {} + {}",
                first.0,
                first.1,
                a.round_counts.len(),
                b.round_counts.len()
            ),
        );
    }
    pass
}

/// Runs every workload twice — set A's run, then set B's, workload by
/// workload, so that the two runs compared sit next to each other in
/// time and see the same mood of the host — and prints a row per
/// metric × workload. `true` when every row passes.
pub fn run(specs: &[Spec], opts: &Options) -> bool {
    let mut pass = true;
    for spec in specs {
        let [a, b] = ["A", "B"].map(|set| {
            eprintln!("selfcheck: set {set}, {}", spec.name);
            child_run(spec, opts)
        });
        pass &= match (a, b) {
            (Ok(a), Ok(b)) => compare(spec, &a, &b),
            (Err(e), _) | (_, Err(e)) => row(false, spec.name, "child run", e),
        };
    }
    println!("selfcheck {}", if pass { "passed" } else { "FAILED" });
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
    }
}
