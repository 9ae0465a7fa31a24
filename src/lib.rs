//! # SAGe — facade crate
//!
//! This crate re-exports the entire SAGe reproduction workspace so that
//! examples, integration tests, and downstream users can depend on a single
//! crate.
//!
//! SAGe (HPCA 2026) is an algorithm-architecture co-design for
//! highly-compressed storage and high-performance access of large-scale
//! genomic sequence data. The workspace contains:
//!
//! - [`genomics`] — DNA/FASTQ data model and a sequencing simulator that
//!   synthesizes read sets with the statistical properties the paper's
//!   optimizations exploit.
//! - [`core`] — the SAGe codec itself: hardware-friendly arrays with tuned
//!   bit widths, the compressor, and the software Scan-Unit /
//!   Read-Construction-Unit decoder.
//! - [`baselines`] — from-scratch comparison compressors (a gzip/pigz-like
//!   general-purpose codec and a Spring/NanoSpring-like genomic codec).
//! - [`hw`] — the cycle-level model of SAGe's decompression hardware with
//!   the paper's Table 1 area/power constants.
//! - [`ssd`] — the SSD substrate: NAND timing and the
//!   `SAGe_Read`/`SAGe_Write` interface commands, with SAGe's data layout
//!   and its FTL + GC as stand-alone models of where pages land.
//! - [`io`] — the completion-queue async I/O substrate: a bounded
//!   submission ring, a reactor multiplexing in-flight operations over a
//!   fixed worker set, a completion queue, per-device virtual-time
//!   scheduling for the drives, and multi-SSD extent sharding
//!   (`DeviceMap`).
//! - [`store`] — the sharded chunk-container store: parallel chunk codec,
//!   manifest-indexed random access, a concurrent query engine with a
//!   striped LRU cache of decoded chunks, and single- or multi-SSD
//!   timing modes served through the reactor.
//! - [`client`] — **the typed serving API** (re-export of
//!   [`store::client`]): `DatasetBuilder` → `Dataset` → `Session`,
//!   typed tickets whose completions carry the engine's per-operation
//!   `OpTrace`, and the shared closed-loop load driver. This is the
//!   one entry point onto the serving path.
//! - [`workload`] — open-loop workload generation and QoS measurement
//!   (re-export of [`store::client::workload`]): seedable arrival
//!   processes (fixed/Poisson/bursty) and access patterns
//!   (uniform/Zipf) make up a `TenantLoad` fed to
//!   `Dataset::drive_open_loop`, whose `QosReport` — the one report
//!   of every virtual-time drive, closed loop included — measures
//!   latency–throughput curves to saturation.
//! - [`obs`] — observability over the virtual timeline (re-export of
//!   [`store::obs`]): per-op span tracing with zero timeline
//!   perturbation, a unified metrics snapshot (`Dataset::metrics`),
//!   windowed utilization/hit-rate sampling, and Chrome trace-event
//!   (Perfetto-loadable) export.
//! - [`pipeline`] — the end-to-end pipelined simulator that reproduces the
//!   paper's evaluation figures (GEM and GenStore integration, energy),
//!   including the store-served preparation scenario routed through a
//!   [`client`] session.
//!
//! ## Quickstart
//!
//! ```
//! use sage::genomics::sim::{DatasetProfile, simulate_dataset};
//! use sage::client::DatasetBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Synthesize a small short-read dataset, encode it into the chunk
//! // store, and serve random access through a typed session.
//! let ds = simulate_dataset(&DatasetProfile::tiny_short(), 42);
//! let dataset = DatasetBuilder::new().chunk_reads(64).encode(&ds.reads)?;
//! let session = dataset.session();
//! let reads = session.get(10..20)?.join()?;   // Ticket<ReadView>
//! assert_eq!(reads.len(), 10);
//! # Ok(())
//! # }
//! ```

pub use sage_baselines as baselines;
pub use sage_core as core;
pub use sage_genomics as genomics;
pub use sage_hw as hw;
pub use sage_io as io;
pub use sage_pipeline as pipeline;
pub use sage_ssd as ssd;
pub use sage_store as store;

// The serving front end, surfaced at the crate root: `sage::client`.
pub use sage_store::client;

// The open-loop workload/QoS subsystem: `sage::workload`.
pub use sage_store::client::workload;

// The observability layer (span tracing, unified metrics, Perfetto
// export): `sage::obs`.
pub use sage_store::obs;
