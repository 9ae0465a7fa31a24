//! SAGe's interface commands and the device model (§5.4).
//!
//! `SAGe_Read` requests genomic data *in the format the analysis
//! system wants* (2-bit, 3-bit, ASCII); `SAGe_Write` writes compressed
//! genomic data striped over every parallel unit. A command's charge
//! is a function of the device configuration and the pages it moves,
//! so [`SsdModel`] holds its [`SsdConfig`] alone: where the pages land
//! is modelled apart, by [`SageLayout`](crate::layout::SageLayout) and
//! the [`Ftl`](crate::ftl::Ftl). A conventional read passes through
//! untouched, so the device behaves like a normal SSD for it.

use crate::config::SsdConfig;
use crate::nand::{
    extent_read_seconds, random_read_latency_seconds, striped_read_seconds, striped_write_seconds,
};
use sage_core::OutputFormat;

/// Commands the host can issue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SsdCommand {
    /// Specialized genomic read: stream `bytes` of SAGe-compressed
    /// data (decompression happens in the per-channel SAGe hardware).
    SageRead {
        /// Compressed bytes to stream.
        bytes: usize,
        /// Output format for the RCU's format encoder.
        format: OutputFormat,
    },
    /// Random-access genomic read of one byte extent (a chunk of a
    /// sharded container) out of the aligned layout. Engages only the
    /// channels the extent's pages land on, so small chunks pay a
    /// parallelism penalty relative to [`SsdCommand::SageRead`] —
    /// exactly the trade-off a chunk store's cache exists to hide.
    SageReadExtent {
        /// Byte offset of the extent inside the placed dataset.
        offset: usize,
        /// Extent length in bytes.
        bytes: usize,
        /// Output format for the RCU's format encoder.
        format: OutputFormat,
    },
    /// Specialized genomic write with aligned layout.
    SageWrite {
        /// Compressed bytes to place.
        bytes: usize,
    },
    /// Conventional read (vendor path).
    Read {
        /// Bytes to read.
        bytes: usize,
        /// Whether the access pattern is sequential.
        sequential: bool,
    },
}

/// Outcome of a command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdResponse {
    /// Device-side service time in seconds.
    pub seconds: f64,
    /// Bytes moved.
    pub bytes: usize,
}

/// A device: its configuration, which is all a command's charge reads.
#[derive(Debug, Clone)]
pub struct SsdModel {
    cfg: SsdConfig,
}

impl SsdModel {
    /// Creates a device.
    pub fn new(cfg: SsdConfig) -> SsdModel {
        SsdModel { cfg }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Executes a command, returning its service time.
    pub fn execute(&self, cmd: SsdCommand) -> SsdResponse {
        match cmd {
            SsdCommand::SageRead { bytes, .. } => {
                let pages = bytes.div_ceil(self.cfg.page_bytes);
                SsdResponse {
                    seconds: striped_read_seconds(&self.cfg, pages, true),
                    bytes,
                }
            }
            SsdCommand::SageReadExtent { offset, bytes, .. } => {
                let pages = crate::layout::extent_page_span(&self.cfg, offset, bytes);
                SsdResponse {
                    seconds: extent_read_seconds(&self.cfg, pages, true),
                    bytes,
                }
            }
            SsdCommand::SageWrite { bytes } => {
                let pages = bytes.div_ceil(self.cfg.page_bytes);
                SsdResponse {
                    seconds: striped_write_seconds(&self.cfg, pages),
                    bytes,
                }
            }
            SsdCommand::Read { bytes, sequential } => {
                let pages = bytes.div_ceil(self.cfg.page_bytes);
                let seconds = if sequential {
                    striped_read_seconds(&self.cfg, pages, false)
                } else {
                    pages as f64 * random_read_latency_seconds(&self.cfg, self.cfg.page_bytes)
                };
                SsdResponse { seconds, bytes }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sage_read_is_faster_than_random_read() {
        let ssd = SsdModel::new(SsdConfig::pcie());
        let n = 64 * 1024 * 1024;
        let sage = ssd.execute(SsdCommand::SageRead {
            bytes: n,
            format: OutputFormat::Packed2,
        });
        let rand = ssd.execute(SsdCommand::Read {
            bytes: n,
            sequential: false,
        });
        assert!(sage.seconds < rand.seconds / 4.0);
    }

    #[test]
    fn extent_reads_sit_between_streaming_and_random() {
        let ssd = SsdModel::new(SsdConfig::pcie());
        let chunk = 4 * ssd.config().page_bytes; // a few-page chunk
        let ext = ssd.execute(SsdCommand::SageReadExtent {
            offset: 3 * chunk + 100,
            bytes: chunk,
            format: OutputFormat::Packed2,
        });
        let stream = ssd.execute(SsdCommand::SageRead {
            bytes: chunk,
            format: OutputFormat::Packed2,
        });
        let rand = ssd.execute(SsdCommand::Read {
            bytes: chunk,
            sequential: false,
        });
        assert!(
            stream.seconds < ext.seconds && ext.seconds < rand.seconds,
            "stream {} ext {} rand {}",
            stream.seconds,
            ext.seconds,
            rand.seconds
        );
    }

    #[test]
    fn unaligned_extent_pays_for_the_extra_page() {
        // Below the channel count extra pages ride free (each lands on
        // an idle channel); past a full stripe the straddled page costs
        // real transfer time.
        let ssd = SsdModel::new(SsdConfig::pcie());
        let page = ssd.config().page_bytes;
        let stripe = ssd.config().channels * page;
        let aligned = ssd.execute(SsdCommand::SageReadExtent {
            offset: 0,
            bytes: stripe,
            format: OutputFormat::Ascii,
        });
        let straddling = ssd.execute(SsdCommand::SageReadExtent {
            offset: page / 2,
            bytes: stripe,
            format: OutputFormat::Ascii,
        });
        assert!(straddling.seconds > aligned.seconds);
    }

    #[test]
    fn sage_read_bandwidth_matches_internal_bw() {
        let ssd = SsdModel::new(SsdConfig::pcie());
        let bytes = 1 << 30;
        let r = ssd.execute(SsdCommand::SageRead {
            bytes,
            format: OutputFormat::Ascii,
        });
        let bw = bytes as f64 / r.seconds;
        let expected = ssd.config().internal_read_bw(true);
        assert!((bw / expected - 1.0).abs() < 0.05, "bw {bw} vs {expected}");
    }

    #[test]
    fn zero_byte_commands_are_free() {
        let ssd = SsdModel::new(SsdConfig::sata());
        let r = ssd.execute(SsdCommand::SageRead {
            bytes: 0,
            format: OutputFormat::Ascii,
        });
        assert_eq!(r.seconds, 0.0);
    }
}
