//! # sage-bench — the experiment harness
//!
//! The paper's evaluation as checked tables ([`figures`], printed by
//! the `figures` bin), the virtual-time drive bins, and criterion
//! micro-benchmarks. This library holds the shared utilities: dataset
//! synthesis at a given scale, the [`Table`] every figure returns and
//! its fixed-width printing, the shared qos-scenario fixture
//! ([`scenario`]), and the CI perf-regression comparator
//! ([`regression`]).

pub mod figures;
pub mod regression;
pub mod scenario;

use sage_baselines::{GzipLike, SpringLike, SpringStats};
use sage_core::{CompressionStats, SageCompressor};
use sage_genomics::fastq::read_set_to_fastq;
use sage_genomics::sim::{simulate_dataset, Dataset, DatasetProfile};
use sage_pipeline::DatasetModel;

/// Environment variable scaling every dataset (default 1.0). Benches
/// can be made faster (`SAGE_SCALE=0.2`) or more faithful
/// (`SAGE_SCALE=4`).
pub const SCALE_ENV: &str = "SAGE_SCALE";

/// Deterministic seed base used by all harnesses.
pub const SEED: u64 = 0x5a6e_2026;

/// Reads the global scale factor from the environment.
pub fn scale_factor() -> f64 {
    std::env::var(SCALE_ENV)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

/// Synthesizes one evaluation dataset at the global scale.
pub fn dataset(profile: &DatasetProfile) -> Dataset {
    dataset_at(profile, scale_factor())
}

/// Synthesizes one evaluation dataset at `scale`.
pub fn dataset_at(profile: &DatasetProfile, scale: f64) -> Dataset {
    simulate_dataset(&profile.scaled(scale), SEED)
}

/// A dataset together with the *measured* compression statistics of
/// all three real codecs and the derived pipeline model.
#[derive(Debug)]
pub struct MeasuredDataset {
    /// The synthesized dataset.
    pub ds: Dataset,
    /// Pipeline-facing summary (ratios measured, not assumed).
    pub model: DatasetModel,
    /// SAGe compression statistics.
    pub sage: CompressionStats,
    /// Spring-like compression statistics.
    pub spring: SpringStats,
    /// Size of the dataset as FASTQ text.
    pub fastq_bytes: usize,
    /// pigz-like whole-FASTQ compression ratio.
    pub pigz_ratio: f64,
    /// pigz-like ratio of the bases alone, as text (Table 2).
    pub pigz_dna_ratio: f64,
    /// pigz-like ratio of the quality scores alone (Table 2).
    pub pigz_quality_ratio: f64,
    /// Bytes the spring-like decoder inflates its streams into.
    pub spring_workset_bytes: usize,
    /// pigz-like compression wall time (Fig. 18).
    pub pigz_compress_secs: f64,
}

/// Compresses a dataset with all three codecs and builds the pipeline
/// model from the measured ratios.
pub fn measure(ds: Dataset) -> MeasuredDataset {
    let fastq = read_set_to_fastq(&ds.reads);
    let gz = GzipLike::new();
    let t0 = std::time::Instant::now();
    let gz_out = gz.compress(&fastq);
    let pigz_compress_secs = t0.elapsed().as_secs_f64();
    let pigz_ratio = fastq.len() as f64 / gz_out.len() as f64;
    // Table 2 reports pigz per component: compress the bases and the
    // quality scores as two separate texts.
    let gz_ratio = |text: Vec<u8>| text.len() as f64 / gz.compress(&text).len() as f64;
    let pigz_dna_ratio = gz_ratio(ds.reads.iter().flat_map(|r| r.seq.to_ascii()).collect());
    let quals = ds
        .reads
        .iter()
        .flat_map(|r| r.qual.clone().unwrap_or_default());
    let pigz_quality_ratio = gz_ratio(quals.collect());

    let (spring_archive, spring) = SpringLike::new().compress_detailed(&ds.reads);
    let (_, sage) = SageCompressor::new()
        .compress_detailed(&ds.reads)
        .expect("compression");

    let total_ratio = |dna_in: u64, dna_out: u64, q_in: u64, q_out: u64| {
        (dna_in + q_in) as f64 / (dna_out + q_out).max(1) as f64
    };
    let model = DatasetModel {
        name: ds.profile.name.clone(),
        total_bases: ds.reads.total_bases() as f64,
        n_reads: ds.reads.len() as f64,
        ratio_pigz: pigz_ratio,
        ratio_spring: total_ratio(
            spring.uncompressed_dna_bytes,
            spring.compressed_dna_bytes,
            spring.uncompressed_quality_bytes,
            spring.compressed_quality_bytes,
        ),
        ratio_sage: total_ratio(
            sage.uncompressed_dna_bytes,
            sage.compressed_dna_bytes,
            sage.uncompressed_quality_bytes,
            sage.compressed_quality_bytes,
        ),
        isf_filter_fraction: ds.profile.isf_filter_fraction,
    };
    MeasuredDataset {
        ds,
        model,
        sage,
        spring,
        fastq_bytes: fastq.len(),
        pigz_ratio,
        pigz_dna_ratio,
        pigz_quality_ratio,
        spring_workset_bytes: spring_archive.decompression_workset_bytes(),
        pigz_compress_secs,
    }
}

/// Measures all five paper datasets (RS1–RS5) at `scale`.
pub fn measure_all(scale: f64) -> Vec<MeasuredDataset> {
    DatasetProfile::all_paper_profiles()
        .iter()
        .map(|p| measure(dataset_at(p, scale)))
        .collect()
}

/// Geometric mean.
pub fn gmean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Formats a ratio/speedup with sensible precision.
pub fn fmt_x(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}x")
    } else if v >= 10.0 {
        format!("{v:.1}x")
    } else {
        format!("{v:.2}x")
    }
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// How a [`Table`] column displays its values: as a ratio through
/// [`fmt_x`], or with a fixed number of decimals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fmt {
    /// A ratio or speedup, through [`fmt_x`].
    X,
    /// A fixed number of decimals.
    Fixed(usize),
}

/// One printed table of a figure: a caption, a label column, named
/// `f64` columns with one display format each, and trailing notes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// The banner line.
    pub caption: String,
    /// Header of the label column.
    pub label: &'static str,
    /// Column names and their display formats.
    pub columns: Vec<(&'static str, Fmt)>,
    /// Row labels and one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Lines printed after the rows.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table.
    pub fn new(
        caption: impl Into<String>,
        label: &'static str,
        columns: &[(&'static str, Fmt)],
    ) -> Table {
        let (caption, columns) = (caption.into(), columns.to_vec());
        Table {
            caption,
            label,
            columns,
            ..Table::default()
        }
    }

    /// Appends a row; `values` holds one value per column.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "one value per column");
        self.rows.push((label.into(), values));
    }

    /// Appends a trailing note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The values of column `name`, in row order. Panics if there is no
    /// such column.
    pub fn col(&self, name: &str) -> Vec<f64> {
        let i = self.columns.iter().position(|(c, _)| *c == name);
        let i = i.unwrap_or_else(|| panic!("{}: no column {name}", self.caption));
        self.rows.iter().map(|(_, v)| v[i]).collect()
    }

    /// The value in row `row`, column `col`. Panics if there is no such
    /// row or column.
    pub fn get(&self, row: &str, col: &str) -> f64 {
        let r = self.rows.iter().position(|(l, _)| l == row);
        self.col(col)[r.unwrap_or_else(|| panic!("{}: no row {row}", self.caption))]
    }

    /// Prints the banner, the header, the rows, then a blank line and
    /// the notes.
    pub fn print(&self) {
        let names = self.columns.iter().map(|(c, _)| c.to_string());
        let mut lines: Vec<Vec<_>> =
            vec![[self.label.to_string()].into_iter().chain(names).collect()];
        for (label, values) in &self.rows {
            let cells = values.iter().zip(&self.columns).map(|(v, (_, f))| match f {
                Fmt::X => fmt_x(*v),
                Fmt::Fixed(p) => format!("{v:.p$}"),
            });
            lines.push([label.clone()].into_iter().chain(cells).collect());
        }
        let mut widths = vec![0; lines[0].len()];
        for cells in &lines {
            for (w, cell) in widths.iter_mut().zip(cells) {
                *w = cell.chars().count().max(*w);
            }
        }
        banner(&self.caption);
        lines
            .iter()
            .for_each(|cells| println!("{}", row(cells, &widths)));
        if !self.notes.is_empty() {
            println!();
        }
        self.notes.iter().for_each(|note| println!("{note}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factor_defaults_to_one() {
        std::env::remove_var(SCALE_ENV);
        assert_eq!(scale_factor(), 1.0);
    }

    #[test]
    fn fmt_x_precision() {
        assert_eq!(fmt_x(3.25159), "3.25x");
        assert_eq!(fmt_x(32.5159), "32.5x");
        assert_eq!(fmt_x(325.159), "325x");
    }

    #[test]
    fn row_is_aligned() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
