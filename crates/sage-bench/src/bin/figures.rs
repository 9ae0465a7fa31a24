//! Prints the paper's figures and checks each one's stated shape:
//! `figures all`, or `figures <id>...` with the ids of
//! [`sage_bench::figures::FIGURES`]. `SAGE_SCALE` scales every dataset
//! (default 1.0). Exits non-zero on an unknown id or a failed check.

use sage_bench::figures::{Context, FIGURES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let find = |id: &String| FIGURES.iter().find(|f| f.id == id || id == "all");
    if ids.is_empty() || !ids.iter().all(|id| find(id).is_some()) {
        let all: Vec<_> = FIGURES.iter().map(|f| f.id).collect();
        eprintln!("usage: figures all | <id>...\nids: {}", all.join(" "));
        return ExitCode::from(2);
    }
    let all = ids.iter().any(|id| id == "all");
    let picked = FIGURES
        .iter()
        .filter(|f| all || ids.iter().any(|id| id == f.id));
    let cx = Context::new(sage_bench::scale_factor());
    let mut failed = 0;
    for fig in picked {
        let tables = (fig.run)(&cx);
        tables.iter().for_each(|t| t.print());
        if let Err(why) = (fig.check)(&tables) {
            eprintln!("{}: {why}", fig.id);
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("{failed} figure check(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
