//! The `.sage` archive container (§5.1, §5.3).
//!
//! An archive holds the tuned per-read-set parameters ("written at the
//! beginning of each compressed file", §5.4), the consensus sequence,
//! and the named bit streams (arrays + guide arrays). The SSD layer
//! (`sage-ssd`) stripes these bytes across channels; this module only
//! defines the logical layout and its (de)serialization.

use crate::error::{Result, SageError};
use crate::prefix::{AssociationTable, WidthTable};
use sage_genomics::packed::Packed2;

/// Magic bytes at the start of every archive.
pub const MAGIC: [u8; 4] = *b"SAGE";
/// Current format version.
///
/// Versions differ in the quality stream's layout only: version 1
/// coded every quality byte through an adaptive 256-leaf bit-tree;
/// version 2 stored the chunk's alphabet in front of the body and
/// coded each symbol's rank in it, still adaptively; version 3 keeps
/// the alphabet and codes the ranks with per-chunk static frequency
/// tables over interleaved rANS (see [`crate::quality`]). Everything
/// else is laid out as in version 1, but nothing decodes an older
/// archive: the parser rejects it with [`SageError::BadVersion`].
pub const VERSION: u16 = 3;

/// Per-read-set parameters, including every tuned association table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveHeader {
    /// Number of reads.
    pub n_reads: u64,
    /// Number of mapped reads (they precede unmapped reads in record
    /// order because records are sorted by matching position).
    pub n_mapped: u64,
    /// `Some(len)` for fixed-length read sets (short reads); the
    /// per-read length stream is then omitted entirely.
    pub fixed_len: Option<u32>,
    /// Longest read length (sizes boundary/N-position fields).
    pub max_read_len: u32,
    /// Consensus length in bases.
    pub consensus_len: u64,
    /// Whether a quality stream is present.
    pub has_quality: bool,
    /// Whether the original read order is stored.
    pub store_order: bool,
    /// Tuned widths for matching-position deltas (MPA/MPGA).
    pub mp_table: WidthTable,
    /// Tuned widths for mismatch-position deltas (MMPA/MMPGA).
    pub mmp_table: WidthTable,
    /// Tuned widths for read lengths (only for variable-length sets).
    pub len_table: Option<WidthTable>,
    /// Tuned literal classes for per-segment mismatch counts.
    pub count_table: AssociationTable<u32>,
}

impl ArchiveHeader {
    /// Bits used for read-offset fields (boundaries, N positions).
    pub fn len_bits(&self) -> u32 {
        64 - u64::from(self.max_read_len).leading_zeros()
    }

    /// Bits used for absolute consensus positions (extra segments).
    pub fn pos_bits(&self) -> u32 {
        64 - self.consensus_len.leading_zeros()
    }

    /// Bits used per entry of the optional order stream.
    pub fn order_bits(&self) -> u32 {
        64 - self.n_reads.saturating_sub(1).leading_zeros()
    }
}

/// One named bitstream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stream {
    /// Packed bytes.
    pub bytes: Vec<u8>,
    /// Number of valid bits.
    pub bit_len: u64,
}

impl Stream {
    /// Builds a stream from a finished [`BitWriter`](crate::bitio::BitWriter).
    pub fn from_writer(w: crate::bitio::BitWriter) -> Stream {
        let (bytes, bit_len) = w.finish();
        Stream { bytes, bit_len }
    }

    /// Opens a reader over the stream.
    pub fn reader(&self) -> crate::bitio::BitReader<'_> {
        crate::bitio::BitReader::new(&self.bytes, self.bit_len)
    }

    /// Size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }
}

/// All archive streams. Names follow the paper (§5.1.1–§5.1.4).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Streams {
    /// Matching Position Guide Array.
    pub mpga: Stream,
    /// Matching Position Array.
    pub mpa: Stream,
    /// Mismatch Position Guide Array.
    pub mmpga: Stream,
    /// Mismatch Position Array.
    pub mmpa: Stream,
    /// Mismatch Base and Type Array.
    pub mbta: Stream,
    /// Corner-case payloads (`N` positions, clips).
    pub corner: Stream,
    /// Read Length Guide Array (variable-length sets only).
    pub lenga: Stream,
    /// Read Length Array (variable-length sets only).
    pub lena: Stream,
    /// Raw storage for unmapped reads.
    pub raw: Stream,
    /// Original read order (optional).
    pub order: Stream,
    /// Quality scores: the chunk's alphabet and frequency tables, then
    /// the rANS-coded ranks (byte stream, not bits; layout in
    /// [`crate::quality`]).
    pub qual: Vec<u8>,
}

impl Streams {
    /// Total size of the DNA-side streams (everything except quality)
    /// in bytes.
    pub fn dna_bytes(&self) -> usize {
        self.mpga.byte_len()
            + self.mpa.byte_len()
            + self.mmpga.byte_len()
            + self.mmpa.byte_len()
            + self.mbta.byte_len()
            + self.corner.byte_len()
            + self.lenga.byte_len()
            + self.lena.byte_len()
            + self.raw.byte_len()
            + self.order.byte_len()
    }
}

/// A complete SAGe archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SageArchive {
    /// Tuned parameters and counts.
    pub header: ArchiveHeader,
    /// 2-bit packed consensus.
    pub consensus: Packed2,
    /// The bit streams.
    pub streams: Streams,
}

impl SageArchive {
    /// Compressed size of the DNA side (consensus + streams + header
    /// tables) in bytes.
    pub fn dna_bytes(&self) -> usize {
        // Header ≈ fixed fields + tables; count it honestly but simply.
        let tables = 4 * 16; // generous bound for four small tables
        64 + tables + self.consensus.byte_len() + self.streams.dna_bytes()
    }

    /// Compressed size of the quality stream in bytes.
    pub fn quality_bytes(&self) -> usize {
        self.streams.qual.len()
    }

    /// Total archive size in bytes (as serialized).
    pub fn total_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// Serializes the archive.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            self.consensus.byte_len() + self.streams.dna_bytes() + self.streams.qual.len() + 256,
        );
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, VERSION);
        let h = &self.header;
        let mut flags = 0u16;
        if h.fixed_len.is_some() {
            flags |= 1;
        }
        if h.has_quality {
            flags |= 2;
        }
        if h.store_order {
            flags |= 4;
        }
        if h.len_table.is_some() {
            flags |= 8;
        }
        put_u16(&mut out, flags);
        put_u64(&mut out, h.n_reads);
        put_u64(&mut out, h.n_mapped);
        put_u32(&mut out, h.fixed_len.unwrap_or(0));
        put_u32(&mut out, h.max_read_len);
        put_u64(&mut out, h.consensus_len);
        put_width_table(&mut out, &h.mp_table);
        put_width_table(&mut out, &h.mmp_table);
        match &h.len_table {
            Some(t) => put_width_table(&mut out, t),
            None => out.push(0),
        }
        put_value_table(&mut out, &h.count_table);
        // Consensus.
        put_u64(&mut out, h.consensus_len);
        out.extend_from_slice(self.consensus.as_bytes());
        // Streams.
        let s = &self.streams;
        for stream in [
            &s.mpga, &s.mpa, &s.mmpga, &s.mmpa, &s.mbta, &s.corner, &s.lenga, &s.lena, &s.raw,
            &s.order,
        ] {
            put_u64(&mut out, stream.bit_len);
            put_u64(&mut out, stream.bytes.len() as u64);
            out.extend_from_slice(&stream.bytes);
        }
        put_u64(&mut out, s.qual.len() as u64);
        out.extend_from_slice(&s.qual);
        out
    }

    /// Parses an archive.
    ///
    /// Trailing bytes after the archive are ignored; use
    /// [`SageArchive::from_bytes_prefix`] to learn where the archive
    /// ends (e.g. when scanning a container of concatenated chunks).
    ///
    /// # Errors
    ///
    /// Returns the typed header-validation variants
    /// ([`SageError::BadMagic`], [`SageError::BadVersion`],
    /// [`SageError::Truncated`]) or [`SageError::Corrupt`] on other
    /// malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<SageArchive> {
        Ok(SageArchive::from_bytes_prefix(bytes)?.0)
    }

    /// Parses an archive from a slice of `blob` described by `extent`.
    ///
    /// This is the random-access entry point used by chunked stores:
    /// each chunk is an independently decodable archive addressed by a
    /// byte extent inside a shared container blob.
    ///
    /// # Errors
    ///
    /// Returns [`SageError::Truncated`] when the extent reaches past
    /// `blob`, plus everything [`SageArchive::from_bytes`] returns.
    pub fn from_extent(blob: &[u8], extent: Extent) -> Result<SageArchive> {
        let end = extent.offset.checked_add(extent.len);
        match end {
            Some(end) if end <= blob.len() => SageArchive::from_bytes(&blob[extent.offset..end]),
            _ => Err(SageError::Truncated {
                offset: extent.offset,
                needed: extent.len,
                available: blob.len().saturating_sub(extent.offset.min(blob.len())),
            }),
        }
    }

    /// Parses one archive from the front of `bytes`, returning it
    /// together with the number of bytes it occupied.
    ///
    /// # Errors
    ///
    /// Same as [`SageArchive::from_bytes`].
    pub fn from_bytes_prefix(bytes: &[u8]) -> Result<(SageArchive, usize)> {
        let mut c = Cursor { bytes, pos: 0 };
        if bytes.len() < 4 || c.take(4)? != MAGIC {
            return Err(SageError::BadMagic {
                found: bytes[..bytes.len().min(4)].to_vec(),
            });
        }
        let version = c.u16()?;
        if version != VERSION {
            return Err(SageError::BadVersion {
                found: version,
                expected: VERSION,
            });
        }
        let flags = c.u16()?;
        let n_reads = c.u64()?;
        let n_mapped = c.u64()?;
        let fixed_raw = c.u32()?;
        let max_read_len = c.u32()?;
        let consensus_len = c.u64()?;
        let mp_table = get_width_table(&mut c)?;
        let mmp_table = get_width_table(&mut c)?;
        let len_table = if flags & 8 != 0 {
            Some(get_width_table(&mut c)?)
        } else {
            c.take(1)?;
            None
        };
        let count_table = get_value_table(&mut c)?;
        let header = ArchiveHeader {
            n_reads,
            n_mapped,
            fixed_len: (flags & 1 != 0).then_some(fixed_raw),
            max_read_len,
            consensus_len,
            has_quality: flags & 2 != 0,
            store_order: flags & 4 != 0,
            mp_table,
            mmp_table,
            len_table,
            count_table,
        };
        let cons_len = c.u64()? as usize;
        if cons_len as u64 != consensus_len {
            return Err(SageError::Corrupt("consensus length mismatch".into()));
        }
        // The stored bytes are the packed consensus: kept as they are.
        let consensus = Packed2::from_raw(c.take(cons_len.div_ceil(4))?.to_vec(), cons_len)
            .ok_or_else(|| SageError::Corrupt("consensus byte count mismatch".into()))?;
        let read_stream = |c: &mut Cursor| -> Result<Stream> {
            let bit_len = c.u64()?;
            // `take` bounds the byte count by the input before it is
            // multiplied: a hostile count would overflow `n * 8`.
            let n = c.u64()? as usize;
            let bytes = c.take(n)?;
            if bit_len > n as u64 * 8 {
                return Err(SageError::Corrupt("stream bit length too large".into()));
            }
            Ok(Stream {
                bytes: bytes.to_vec(),
                bit_len,
            })
        };
        let mpga = read_stream(&mut c)?;
        let mpa = read_stream(&mut c)?;
        let mmpga = read_stream(&mut c)?;
        let mmpa = read_stream(&mut c)?;
        let mbta = read_stream(&mut c)?;
        let corner = read_stream(&mut c)?;
        let lenga = read_stream(&mut c)?;
        let lena = read_stream(&mut c)?;
        let raw = read_stream(&mut c)?;
        let order = read_stream(&mut c)?;
        let qual_len = c.u64()? as usize;
        let qual = c.take(qual_len)?.to_vec();
        Ok((
            SageArchive {
                header,
                consensus,
                streams: Streams {
                    mpga,
                    mpa,
                    mmpga,
                    mmpa,
                    mbta,
                    corner,
                    lenga,
                    lena,
                    raw,
                    order,
                    qual,
                },
            },
            c.pos,
        ))
    }
}

/// A byte extent inside a container blob: `offset..offset + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// First byte of the extent.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
}

impl Extent {
    /// One past the last byte.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        // `pos <= len` is an invariant; comparing against the remainder
        // keeps hostile length fields (n ~ usize::MAX) from overflowing.
        if n > self.bytes.len() - self.pos {
            return Err(SageError::Truncated {
                offset: self.pos,
                needed: n,
                available: self.bytes.len() - self.pos,
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_width_table(out: &mut Vec<u8>, t: &WidthTable) {
    out.push(t.len() as u8);
    for &w in t.entries() {
        out.push(w as u8);
    }
}

fn get_width_table(c: &mut Cursor) -> Result<WidthTable> {
    let n = c.take(1)?[0] as usize;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let w = c.take(1)?[0];
        if w > 32 {
            return Err(SageError::Corrupt("width entry too large".into()));
        }
        entries.push(u32::from(w));
    }
    WidthTable::new(entries).ok_or_else(|| SageError::Corrupt("bad width table".into()))
}

fn put_value_table(out: &mut Vec<u8>, t: &AssociationTable<u32>) {
    out.push(t.len() as u8);
    for &v in t.entries() {
        put_u32(out, v);
    }
}

fn get_value_table(c: &mut Cursor) -> Result<AssociationTable<u32>> {
    let n = c.take(1)?[0] as usize;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(c.u32()?);
    }
    AssociationTable::new(entries).ok_or_else(|| SageError::Corrupt("bad value table".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use sage_genomics::DnaSeq;

    fn sample_archive() -> SageArchive {
        let consensus: DnaSeq = "ACGTACGTACGTAC".parse().unwrap();
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        SageArchive {
            header: ArchiveHeader {
                n_reads: 3,
                n_mapped: 2,
                fixed_len: Some(100),
                max_read_len: 100,
                consensus_len: 14,
                has_quality: true,
                store_order: false,
                mp_table: WidthTable::new(vec![2, 8]).unwrap(),
                mmp_table: WidthTable::new(vec![1, 4, 9]).unwrap(),
                len_table: None,
                count_table: AssociationTable::new(vec![0, 1, 2]).unwrap(),
            },
            consensus: sage_genomics::packed::Packed2::pack(consensus.as_slice()),
            streams: Streams {
                mpga: Stream::from_writer(w),
                qual: vec![1, 2, 3],
                ..Streams::default()
            },
        }
    }

    #[test]
    fn archive_round_trip() {
        let a = sample_archive();
        let bytes = a.to_bytes();
        let b = SageArchive::from_bytes(&bytes).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_archive().to_bytes();
        bytes[0] = b'X';
        match SageArchive::from_bytes(&bytes) {
            Err(SageError::BadMagic { found }) => {
                assert_eq!(found, vec![b'X', b'A', b'G', b'E']);
            }
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn short_input_is_bad_magic() {
        match SageArchive::from_bytes(b"SA") {
            Err(SageError::BadMagic { found }) => assert_eq!(found, b"SA".to_vec()),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample_archive().to_bytes();
        bytes[4] = 99;
        match SageArchive::from_bytes(&bytes) {
            Err(SageError::BadVersion { found, expected }) => {
                assert_eq!(found, 99);
                assert_eq!(expected, VERSION);
            }
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn version_1_archives_are_rejected() {
        // The quality stream changed shape at versions 2 and 3 and no
        // decoder for an old one is kept.
        let mut bytes = sample_archive().to_bytes();
        assert_eq!(bytes[4..6], VERSION.to_le_bytes());
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        match SageArchive::from_bytes(&bytes) {
            Err(SageError::BadVersion { found, expected }) => {
                assert_eq!((found, expected), (1, VERSION));
            }
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_archive().to_bytes();
        for cut in [5, 20, bytes.len() - 2] {
            match SageArchive::from_bytes(&bytes[..cut]) {
                Err(SageError::Truncated { available, .. }) => {
                    assert!(
                        available <= cut,
                        "truncation at {cut}: available {available}"
                    );
                }
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_length_fields_truncate_cleanly() {
        // Rewrite the trailing quality-length field to u64::MAX; the
        // parser must report Truncated, not panic on `pos + n`
        // overflowing.
        let a = sample_archive();
        let mut evil = a.to_bytes();
        let qual_len_at = evil.len() - a.streams.qual.len() - 8;
        evil[qual_len_at..qual_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            SageArchive::from_bytes(&evil),
            Err(SageError::Truncated { .. })
        ));
    }

    #[test]
    fn prefix_parse_walks_concatenated_archives() {
        let a = sample_archive();
        let one = a.to_bytes();
        let mut blob = one.clone();
        blob.extend_from_slice(&one);
        let (first, used) = SageArchive::from_bytes_prefix(&blob).unwrap();
        assert_eq!(used, one.len());
        assert_eq!(first, a);
        let (second, used2) = SageArchive::from_bytes_prefix(&blob[used..]).unwrap();
        assert_eq!(used2, one.len());
        assert_eq!(second, a);
    }

    #[test]
    fn extent_addressing_reads_the_middle_chunk() {
        let a = sample_archive();
        let one = a.to_bytes();
        let mut blob = vec![0xAAu8; 17]; // leading junk the extent skips
        let offset = blob.len();
        blob.extend_from_slice(&one);
        blob.extend_from_slice(&[0x55; 9]);
        let got = SageArchive::from_extent(
            &blob,
            Extent {
                offset,
                len: one.len(),
            },
        )
        .unwrap();
        assert_eq!(got, a);
    }

    #[test]
    fn out_of_bounds_extent_is_truncated() {
        let blob = sample_archive().to_bytes();
        let e = SageArchive::from_extent(
            &blob,
            Extent {
                offset: blob.len() - 1,
                len: 10,
            },
        );
        assert!(matches!(e, Err(SageError::Truncated { .. })));
    }

    #[test]
    fn header_bit_helpers() {
        let h = sample_archive().header;
        assert_eq!(h.len_bits(), 7); // 100 needs 7 bits
        assert_eq!(h.pos_bits(), 4); // 14 needs 4 bits
        assert_eq!(h.order_bits(), 2); // indices 0..=2
    }

    #[test]
    fn variable_length_header_round_trips() {
        let mut a = sample_archive();
        a.header.fixed_len = None;
        a.header.len_table = Some(WidthTable::new(vec![10, 14]).unwrap());
        let b = SageArchive::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(a, b);
    }
}
