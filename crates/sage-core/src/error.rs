//! Error type for the SAGe codec.

use std::fmt;

/// Errors produced by compression, decompression, or archive parsing.
///
/// Header validation reports *typed* variants ([`SageError::BadMagic`],
/// [`SageError::BadVersion`], [`SageError::Truncated`]) so callers that
/// scan containers of concatenated archives — notably the `sage-store`
/// chunk engine — can distinguish "not an archive at all" from "an
/// archive for a different format revision" from "an archive cut short
/// by a bad extent".
#[derive(Debug)]
pub enum SageError {
    /// The bytes do not start with the `SAGE` magic.
    BadMagic {
        /// The four bytes actually found (fewer if the input was that
        /// short).
        found: Vec<u8>,
    },
    /// The archive declares a format version this build cannot parse.
    BadVersion {
        /// Version found in the header.
        found: u16,
        /// Version this build supports.
        expected: u16,
    },
    /// The input ended before the structure it declares was complete.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
        /// Bytes the parser needed at that offset.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The archive bytes are structurally invalid in some other way.
    Corrupt(String),
    /// The archive requests a feature this build does not support.
    Unsupported(String),
    /// A limit of the format was exceeded at compression time (e.g. a
    /// consensus longer than 2³² bases).
    Limit(String),
}

impl fmt::Display for SageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SageError::BadMagic { found } => {
                write!(f, "not a SAGe archive: bad magic {found:02x?}")
            }
            SageError::BadVersion { found, expected } => {
                write!(
                    f,
                    "unsupported format version {found} (expected {expected})"
                )
            }
            SageError::Truncated {
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated archive: needed {needed} bytes at offset {offset}, {available} left"
            ),
            SageError::Corrupt(m) => write!(f, "corrupt archive: {m}"),
            SageError::Unsupported(m) => write!(f, "unsupported archive: {m}"),
            SageError::Limit(m) => write!(f, "format limit exceeded: {m}"),
        }
    }
}

impl std::error::Error for SageError {}

impl From<crate::bitio::BitStreamExhausted> for SageError {
    fn from(_: crate::bitio::BitStreamExhausted) -> SageError {
        SageError::Corrupt("bit stream exhausted".into())
    }
}

impl From<crate::quality::QualityDecodeError> for SageError {
    fn from(_: crate::quality::QualityDecodeError) -> SageError {
        SageError::Corrupt("quality stream truncated or corrupt".into())
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_magic_displays_found_bytes() {
        let e = SageError::BadMagic {
            found: vec![b'G', b'Z', b'I', b'P'],
        };
        let msg = e.to_string();
        assert!(msg.contains("bad magic"), "{msg}");
        assert!(msg.contains("47"), "{msg}"); // 0x47 = 'G'
    }

    #[test]
    fn bad_version_names_both_versions() {
        let e = SageError::BadVersion {
            found: 9,
            expected: 1,
        };
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains('1'), "{msg}");
    }

    #[test]
    fn truncated_reports_offsets() {
        let e = SageError::Truncated {
            offset: 100,
            needed: 8,
            available: 3,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("100") && msg.contains('8') && msg.contains('3'),
            "{msg}"
        );
    }
}
