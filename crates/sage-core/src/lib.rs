//! # sage-core — the SAGe codec
//!
//! This crate implements the algorithmic half of the SAGe co-design
//! (HPCA 2026): highly-compressed, hardware-friendly storage of genomic
//! read sets that can be decompressed with lightweight streaming scans.
//!
//! The pieces map 1:1 onto the paper:
//!
//! - [`bitio`] — LSB-first bitstreams (the arrays and guide arrays).
//! - [`prefix`] — variable-length prefix codes and Association Tables.
//! - [`tuning`] — Algorithm 1: per-read-set bit-width tuning.
//! - [`mapper`] — the compression-side read mapper (seed-chain-extend,
//!   chimeric splitting, verified lossless alignments).
//! - [`consensus`] — de-novo pseudo-genome or reference consensus.
//! - [`encode`] / [`decode`] — the compressor and the software
//!   Scan-Unit/Read-Construction-Unit decompressor.
//! - [`quality`] — the separate lossless quality stream (§5.1.5):
//!   per-chunk static frequency tables over interleaved rANS.
//! - [`container`] — the `.sage` archive layout.
//! - [`ablation`] — the per-optimization size accounting behind the
//!   paper's Fig. 17.
//!
//! ## Quickstart
//!
//! ```
//! use sage_core::{OutputFormat, SageCompressor, SageDecompressor};
//! use sage_genomics::sim::{simulate_dataset, DatasetProfile};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ds = simulate_dataset(&DatasetProfile::tiny_short(), 7);
//! let archive = SageCompressor::new().compress(&ds.reads)?;
//! let reads = SageDecompressor::new(OutputFormat::Ascii).decompress(&archive)?;
//! assert_eq!(reads.len(), ds.reads.len());
//! # Ok(())
//! # }
//! ```

pub mod ablation;
pub mod bitio;
pub mod consensus;
pub mod container;
pub mod decode;
pub mod encode;
pub mod error;
pub mod mapper;
pub mod prefix;
pub mod quality;
pub mod tuning;

pub use consensus::{ConsensusConfig, ConsensusMode};
pub use container::{ArchiveHeader, Extent, SageArchive, Streams};
pub use decode::{DecodeStats, OutputFormat, PreparedBatch, ReadStream, SageDecompressor};
pub use encode::{Breakdown, CompressOptions, CompressionStats, SageCompressor};
pub use error::{Result, SageError};
pub use mapper::{Mapper, MapperConfig};
