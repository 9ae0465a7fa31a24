//! Every figure of the paper's evaluation holds the shape its doc
//! states, at one small fixed scale.

use sage_bench::figures::{Context, FIGURES};

/// Small enough for the dev profile; the figures' CI run checks scale
/// 0.5 in release.
const SCALE: f64 = 0.02;

#[test]
fn every_figure_holds_its_stated_shape() {
    let cx = Context::new(SCALE);
    let failed: Vec<String> = FIGURES
        .iter()
        .filter_map(|f| {
            (f.check)(&(f.run)(&cx))
                .err()
                .map(|e| format!("{}: {e}", f.id))
        })
        .collect();
    assert!(failed.is_empty(), "{failed:#?}");
}
