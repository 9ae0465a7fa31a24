//! The SAGe serving stack's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! sage-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--quick] [--selfcheck]
//! ```
//!
//! Without `--workload`, every workload runs. `--trace 0` (the
//! default) measures the end-to-end metrics; `--trace 1` is the traced
//! run that measures the per-layer metrics. Each workload ends with one
//! JSON result line; the exit code is non-zero if any answer was wrong.

mod client;
mod gen;
mod json;
mod ladder;
mod metrics;
mod probes;
mod proc;
#[cfg(test)]
mod quick_tests;
mod report;
mod run;
mod selfcheck;
mod sizes;
mod spans;
mod stats;
mod workload;

use run::Options;
use std::process::ExitCode;
use workload::Spec;

/// The parsed command line.
#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    opts: Options,
    trace: bool,
    selfcheck: bool,
}

fn usage() -> String {
    format!(
        "usage: sage-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--selfcheck]\n\
         defaults: every workload, --seed {} (hold claims to --seed {} too), --seconds {}, --trace 0",
        sizes::DEFAULT_SEED,
        sizes::HELD_OUT_SEED,
        sizes::DEFAULT_SECONDS
    )
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: Options {
            seed: sizes::DEFAULT_SEED,
            seconds: sizes::DEFAULT_SECONDS,
            quick: false,
        },
        trace: false,
        selfcheck: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => cli.opts.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let specs: Vec<Spec> = Spec::all()
        .into_iter()
        .filter(|s| cli.workload.as_deref().is_none_or(|w| w == s.name))
        .collect();
    if specs.is_empty() {
        let names: Vec<&str> = Spec::all().iter().map(|s| s.name).collect();
        eprintln!(
            "no workload {:?}; the workloads are {names:?}",
            cli.workload
        );
        return ExitCode::from(2);
    }

    // Each workload prints as it finishes, its result line last; the
    // documents under `out/` are written once all have run.
    let opts = &cli.opts;
    for spec in &specs {
        eprintln!("{}: {}", spec.name, spec.why);
    }
    let ok = if cli.selfcheck {
        selfcheck::run(&specs, opts)
    } else if cli.trace {
        let results: Vec<_> = specs
            .iter()
            .map(|spec| {
                let r = ladder::trace_workload(spec, opts);
                report::print_trace(&r, opts);
                r
            })
            .collect();
        report::write_layers(&results, opts);
        results.iter().all(ladder::TraceResult::correct)
    } else {
        let results: Vec<_> = specs
            .iter()
            .map(|spec| {
                let r = run::run_workload(spec, opts);
                report::print_run(&r, opts);
                r
            })
            .collect();
        report::write_results(&results, opts);
        results.iter().all(run::RunResult::correct)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_cli(args(
            "--workload get-warm --seed 7919 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("get-warm"));
        assert_eq!((cli.opts.seed, cli.opts.seconds), (7919, 10));
        assert!(cli.trace && !cli.selfcheck && !cli.opts.quick);
        let defaults = parse_cli(args("")).unwrap();
        assert_eq!(defaults.opts.seed, sizes::DEFAULT_SEED);
        assert_eq!(defaults.opts.seconds, sizes::DEFAULT_SECONDS);
        assert!(!defaults.trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in ["--trace 2", "--seed", "--seconds x", "run", "--wrkload a"] {
            assert!(parse_cli(args(bad)).is_err(), "{bad}");
        }
    }
}
