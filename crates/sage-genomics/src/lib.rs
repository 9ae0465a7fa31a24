//! Genomic data substrate for the SAGe reproduction.
//!
//! This crate provides everything the SAGe codec and evaluation pipeline
//! need to know about genomic *data* (as opposed to compression or
//! hardware):
//!
//! - [`base`] — the DNA alphabet ([`Base`]) with 2-bit codes and
//!   complements.
//! - [`seq`] — owned DNA sequences ([`DnaSeq`]) with reverse-complement
//!   and ASCII conversion.
//! - [`packed`] — 2-bit and 3-bit packed encodings (the output formats a
//!   `SAGe_Read` command can request).
//! - [`fastq`] — FASTQ parsing and serialization, the format data
//!   preparation must ultimately emit.
//! - [`read`] — sequencing reads and read sets, owned or in columns.
//! - [`align`] — read-to-consensus alignments (segments + edits), the
//!   common language between the simulator, the mapper, and the codec.
//! - [`sim`] — a sequencing simulator that synthesizes reference genomes
//!   and short/long read sets with the statistical properties (1)–(6)
//!   that the SAGe paper's optimizations exploit.
//! - [`stats`] — empirical dataset analyses backing the paper's Fig. 7
//!   and Fig. 10.
//!
//! # Example
//!
//! ```
//! use sage_genomics::sim::{simulate_dataset, DatasetProfile};
//!
//! let ds = simulate_dataset(&DatasetProfile::tiny_short(), 7);
//! assert!(!ds.reads.is_empty());
//! // Every read carries bases and (for short-read profiles) quality scores.
//! assert!(ds.reads.reads()[0].qual.is_some());
//! ```

pub mod align;
pub mod base;
pub mod fastq;
pub mod packed;
pub mod read;
pub mod seq;
pub mod sim;
pub mod stats;

pub use align::{bits_needed, Alignment, Edit, Segment};
pub use base::Base;
pub use fastq::{FastqError, FastqRecord};
pub use read::{ChunkColumns, QualRef, Read, ReadRef, ReadSet};
pub use seq::DnaSeq;
