//! # sage-ssd — the storage substrate
//!
//! SAGe's third and fourth co-design aspects live in the SSD (§5.3,
//! §5.4): a data layout that stripes compressed genomic data across
//! channels with aligned page offsets (enabling multi-plane reads at
//! full internal bandwidth), an FTL extension that preserves that
//! layout through garbage collection, and two interface commands
//! (`SAGe_Read`, `SAGe_Write`).
//!
//! This crate is an MQSim-style analytical model: [`config`] holds
//! device presets (a PCIe PM1735-like and a SATA 870 EVO-like drive),
//! [`nand`] models die/plane/bus timing, and [`interface`] the command
//! set, whose charges depend on the configuration and the page count
//! alone — an [`SsdModel`] is its [`SsdConfig`]. Where the pages land
//! is modelled on its own: [`layout`] implements the round-robin
//! genomic placement and [`ftl`] the mapping + grouped GC, each with
//! §5.3's alignment invariant as a check. No command walks them.

pub mod config;
pub mod ftl;
pub mod interface;
pub mod layout;
pub mod nand;

pub use config::SsdConfig;
pub use ftl::{Ftl, GcReport};
pub use interface::{SsdCommand, SsdModel, SsdResponse};
pub use layout::{extent_page_span, SageLayout};
