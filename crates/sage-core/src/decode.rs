//! The SAGe decompressor — the software model of §5.2's hardware.
//!
//! Decompression mirrors the Scan Unit (SU) / Read Construction Unit
//! (RCU) pipeline: the SU scans the guide arrays and position arrays
//! sequentially to decode matching positions, mismatch counts and
//! mismatch positions; the RCU scans the consensus and the MBTA,
//! resolving mismatch types by comparing the stored base with the
//! consensus base at the cursor (§5.1.2), and reconstructs full reads.
//! Everything is a streaming, single-pass scan — no random accesses.

use crate::bitio::BitReader;
use crate::container::{ArchiveHeader, SageArchive};
use crate::error::{Result, SageError};
use crate::mapper::segment_decodable;
use crate::quality::QualityDecoder;
use sage_genomics::packed::{Packed2, Packed3};
use sage_genomics::{Alignment, Base, DnaSeq, Edit, Read, ReadSet, Segment};

/// Output format requested through `SAGe_Read` (§5.4): the analysis
/// system chooses the encoding its accelerator consumes directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum OutputFormat {
    /// Plain ASCII bases (FASTQ-style).
    #[default]
    Ascii,
    /// 2-bit packed (`N` rendered as `A`).
    Packed2,
    /// 3-bit packed (`N` representable).
    Packed3,
}

/// Reads prepared in the format an accelerator requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreparedBatch {
    /// ASCII byte strings.
    Ascii(Vec<Vec<u8>>),
    /// 2-bit packed reads.
    Packed2(Vec<Packed2>),
    /// 3-bit packed reads.
    Packed3(Vec<Packed3>),
}

impl PreparedBatch {
    /// Number of reads in the batch.
    pub fn len(&self) -> usize {
        match self {
            PreparedBatch::Ascii(v) => v.len(),
            PreparedBatch::Packed2(v) => v.len(),
            PreparedBatch::Packed3(v) => v.len(),
        }
    }

    /// `true` when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The SAGe decompressor.
///
/// # Example
///
/// ```
/// use sage_core::{OutputFormat, SageCompressor, SageDecompressor};
/// use sage_genomics::sim::{simulate_dataset, DatasetProfile};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ds = simulate_dataset(&DatasetProfile::tiny_short(), 2);
/// let archive = SageCompressor::new().compress(&ds.reads)?;
/// let reads = SageDecompressor::new(OutputFormat::Ascii).decompress(&archive)?;
/// assert_eq!(reads.len(), ds.reads.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SageDecompressor {
    format: OutputFormat,
}

impl SageDecompressor {
    /// Creates a decompressor with the requested output format.
    pub fn new(format: OutputFormat) -> SageDecompressor {
        SageDecompressor { format }
    }

    /// The configured output format.
    pub fn format(&self) -> OutputFormat {
        self.format
    }

    /// Decompresses an archive into a read set.
    ///
    /// # Errors
    ///
    /// Returns [`SageError::Corrupt`] on malformed streams.
    pub fn decompress(&self, archive: &SageArchive) -> Result<ReadSet> {
        self.decompress_with_stats(archive).map(|(r, _)| r)
    }

    /// Decompresses an archive, also returning the work counters
    /// ([`DecodeStats`]) that the hardware cycle model in `sage-hw`
    /// consumes.
    ///
    /// # Errors
    ///
    /// Same as [`decompress`](Self::decompress).
    pub fn decompress_with_stats(&self, archive: &SageArchive) -> Result<(ReadSet, DecodeStats)> {
        let h = &archive.header;
        let mut stream = self.stream(archive)?;
        // Every read costs at least its mapped/unmapped bit, which
        // bounds what a hostile `n_reads` can make this reserve.
        let n = usize::try_from(h.n_reads.min(archive.streams.mpga.bit_len))
            .map_err(|_| SageError::Corrupt("read count overflow".into()))?;
        let mut reads: Vec<Read> = Vec::with_capacity(n);
        let mut bases = 0u64;
        for read in &mut stream {
            let read = read?;
            bases += read.seq.len() as u64;
            reads.push(read);
        }
        // Restore the original order when stored.
        if h.store_order {
            let n = reads.len();
            let mut slots: Vec<Option<Read>> = (0..n).map(|_| None).collect();
            for read in reads {
                let idx = usize::try_from(stream.su.order.read_bits(h.order_bits())?)
                    .ok()
                    .filter(|&i| i < n)
                    .ok_or_else(|| SageError::Corrupt("order index out of range".into()))?;
                if slots[idx].is_some() {
                    return Err(SageError::Corrupt("duplicate order index".into()));
                }
                slots[idx] = Some(read);
            }
            reads = slots
                .into_iter()
                .map(|r| r.ok_or_else(|| SageError::Corrupt("missing order index".into())))
                .collect::<Result<_>>()?;
        }
        let stats = DecodeStats {
            reads: h.n_reads,
            bases,
            mismatch_records: stream.su.records,
        };
        Ok((ReadSet::from_reads(reads), stats))
    }

    /// Opens a *streaming* decoder over the archive: reads are yielded
    /// one at a time in storage (matching-position) order, without
    /// materializing the whole read set — this is how SAGe feeds
    /// decompressed batches directly to the analysis stage (§3.1:
    /// "decompressed data batches are directly fed to the analysis
    /// stage"). Any stored original-order information is ignored.
    ///
    /// # Errors
    ///
    /// Fails immediately on a consensus-length mismatch or a malformed
    /// quality alphabet table; per-read corruption surfaces as an
    /// `Err` item, after which the stream ends.
    pub fn stream<'a>(&self, archive: &'a SageArchive) -> Result<ReadStream<'a>> {
        let h = &archive.header;
        let cons: Vec<Base> = archive.consensus.unpack().into_bases();
        if cons.len() as u64 != h.consensus_len {
            return Err(SageError::Corrupt("consensus length mismatch".into()));
        }
        let s = &archive.streams;
        Ok(ReadStream {
            header: h,
            cons,
            su: ScanState {
                mpga: s.mpga.reader(),
                mpa: s.mpa.reader(),
                mmpga: s.mmpga.reader(),
                mmpa: s.mmpa.reader(),
                mbta: s.mbta.reader(),
                corner: s.corner.reader(),
                lenga: s.lenga.reader(),
                lena: s.lena.reader(),
                raw: s.raw.reader(),
                order: s.order.reader(),
                prev_pos: 0,
                records: 0,
            },
            qual: if h.has_quality {
                Some(QualityDecoder::new(&s.qual)?)
            } else {
                None
            },
            remaining: h.n_reads,
        })
    }

    /// Decompresses from serialized bytes.
    ///
    /// # Errors
    ///
    /// Same as [`decompress`](Self::decompress), plus archive parse
    /// errors.
    pub fn decompress_bytes(&self, bytes: &[u8]) -> Result<ReadSet> {
        self.decompress(&SageArchive::from_bytes(bytes)?)
    }

    /// Decompresses and formats the reads as requested (the payload a
    /// `SAGe_Read` command returns, §5.4, step 12 in Fig. 11).
    ///
    /// # Errors
    ///
    /// Same as [`decompress`](Self::decompress).
    pub fn prepare(&self, archive: &SageArchive) -> Result<PreparedBatch> {
        let reads = self.decompress(archive)?;
        Ok(match self.format {
            OutputFormat::Ascii => {
                PreparedBatch::Ascii(reads.iter().map(|r| r.seq.to_ascii()).collect())
            }
            OutputFormat::Packed2 => PreparedBatch::Packed2(
                reads
                    .iter()
                    .map(|r| Packed2::pack(r.seq.as_slice()))
                    .collect(),
            ),
            OutputFormat::Packed3 => PreparedBatch::Packed3(
                reads
                    .iter()
                    .map(|r| Packed3::pack(r.seq.as_slice()))
                    .collect(),
            ),
        })
    }
}

/// Work counters gathered while decoding — what the hardware model
/// needs to estimate Scan-Unit/Read-Construction-Unit cycles for a
/// real archive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Reads decoded.
    pub reads: u64,
    /// Output bases produced.
    pub bases: u64,
    /// Mismatch records scanned (including synthetic corner records).
    pub mismatch_records: u64,
}

/// All stream readers plus the SU's running state.
struct ScanState<'a> {
    mpga: BitReader<'a>,
    mpa: BitReader<'a>,
    mmpga: BitReader<'a>,
    mmpa: BitReader<'a>,
    mbta: BitReader<'a>,
    corner: BitReader<'a>,
    lenga: BitReader<'a>,
    lena: BitReader<'a>,
    raw: BitReader<'a>,
    order: BitReader<'a>,
    prev_pos: u64,
    records: u64,
}

/// Streaming decoder returned by [`SageDecompressor::stream`]: an
/// iterator over reads in storage order.
pub struct ReadStream<'a> {
    header: &'a crate::container::ArchiveHeader,
    cons: Vec<Base>,
    su: ScanState<'a>,
    qual: Option<QualityDecoder<'a>>,
    remaining: u64,
}

impl std::fmt::Debug for ReadStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadStream")
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}

impl ReadStream<'_> {
    /// Reads not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    fn next_read(&mut self) -> Result<Read> {
        let h = self.header;
        let len = match h.fixed_len {
            Some(l) => l as usize,
            None => {
                let table = h
                    .len_table
                    .as_ref()
                    .ok_or_else(|| SageError::Corrupt("missing length table".into()))?;
                let v = table.decode_value(&mut self.su.lenga, &mut self.su.lena)?;
                usize::try_from(v).map_err(|_| SageError::Corrupt("read length overflow".into()))?
            }
        };
        if len > h.max_read_len as usize {
            return Err(SageError::Corrupt("read longer than max_read_len".into()));
        }
        let seq = decode_read(h, &mut self.su, &self.cons, len)?;
        // Quality stream (host-side, §5.1.5), decoded straight into the
        // read's own buffer.
        let qual = match &mut self.qual {
            Some(dec) => {
                let mut q = vec![0u8; seq.len()];
                dec.next_into(&mut q)?;
                Some(q)
            }
            None => None,
        };
        Ok(Read {
            id: None,
            seq,
            qual,
        })
    }
}

impl Iterator for ReadStream<'_> {
    type Item = Result<Read>;

    fn next(&mut self) -> Option<Result<Read>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.next_read() {
            Ok(r) => Some(Ok(r)),
            Err(e) => {
                self.remaining = 0; // fuse after corruption
                Some(Err(e))
            }
        }
    }
}

/// Appends `n` 2-bit-coded bases from `r` to `out`, pulling 32 bases
/// per 64-bit word instead of one `read_bits(2)` round-trip per base.
/// The stream is LSB-first, so the word's low bits are the earliest
/// bases — bit-for-bit the same stream positions as the per-base path.
fn read_bases(r: &mut BitReader<'_>, n: usize, out: &mut Vec<Base>) -> Result<()> {
    out.reserve(n);
    let mut remaining = n;
    while remaining >= 32 {
        let mut w = r.read_bits(64)?;
        for _ in 0..32 {
            out.push(Base::from_code2((w & 3) as u8));
            w >>= 2;
        }
        remaining -= 32;
    }
    for _ in 0..remaining {
        out.push(Base::from_code2(r.read_bits(2)? as u8));
    }
    Ok(())
}

/// Decoded corner-case payload.
#[derive(Default)]
struct CornerInfo {
    n_positions: Vec<u32>,
    clip_start_len: usize,
    clip_end_len: usize,
    clip_bases: Vec<Base>,
}

/// Decodes one read: the SU scan plus the RCU reconstruction.
fn decode_read(
    h: &ArchiveHeader,
    su: &mut ScanState<'_>,
    cons: &[Base],
    len: usize,
) -> Result<DnaSeq> {
    let mapped = su.mpga.read_bit()?;
    if !mapped {
        return decode_raw_read(h, su, len);
    }
    let delta = h.mp_table.decode_value(&mut su.mpga, &mut su.mpa)?;
    let pos = su.prev_pos + delta;
    su.prev_pos = pos;
    let rev0 = su.mpga.read_bit()?;
    let n_segs = su.mpga.read_bits(2)? as usize + 1;
    let mut seg_meta: Vec<(u32, u64, bool)> = Vec::with_capacity(n_segs);
    seg_meta.push((0, pos, rev0)); // read_start fixed up after corner decode
    let mut boundaries = Vec::with_capacity(n_segs - 1);
    for _ in 1..n_segs {
        let rs = su.mpa.read_bits(h.len_bits())? as u32;
        let cp = su.mpa.read_bits(h.pos_bits())?;
        boundaries.push((rs, cp));
    }
    for &(rs, cp) in &boundaries {
        let rv = su.mpga.read_bit()?;
        seg_meta.push((rs, cp, rv));
    }

    let mut corner = CornerInfo::default();
    let mut segments: Vec<Segment> = Vec::with_capacity(n_segs);
    for (si, &(_, seg_cons_pos, seg_rev)) in seg_meta.iter().enumerate() {
        let count = decode_count(h, su)?;
        let mut edits: Vec<Edit> = Vec::with_capacity(count as usize);
        let mut prev_off = 0u32;
        let mut r = 0usize;
        let mut c = usize::try_from(seg_cons_pos)
            .map_err(|_| SageError::Corrupt("consensus position overflow".into()))?;
        let mut first = true;
        for _ in 0..count {
            su.records += 1;
            let delta = h.mmp_table.decode_value(&mut su.mmpga, &mut su.mmpa)?;
            let off = prev_off as u64 + delta;
            let off =
                u32::try_from(off).map_err(|_| SageError::Corrupt("offset overflow".into()))?;
            prev_off = off;
            if si == 0 && first && off == 0 {
                let corner_bit = su.mbta.read_bit()?;
                if corner_bit {
                    decode_corner(h, su, &mut corner, len)?;
                    continue; // synthetic record: not an edit
                }
                first = false;
            } else {
                first = false;
            }
            // Advance consensus cursor over copied bases.
            let off_usize = off as usize;
            if off_usize < r {
                return Err(SageError::Corrupt("mismatch offsets out of order".into()));
            }
            c += off_usize - r;
            r = off_usize;
            if c > cons.len() {
                return Err(SageError::Corrupt("consensus cursor out of range".into()));
            }
            // RCU type resolution (§5.1.2): compare the stored base
            // with the consensus base at the cursor.
            let is_indel = if c < cons.len() {
                let base = Base::from_code2(su.mbta.read_bits(2)? as u8);
                if base != cons[c] {
                    edits.push(Edit::Sub {
                        read_off: off,
                        base,
                    });
                    r += 1;
                    c += 1;
                    false
                } else {
                    true
                }
            } else {
                true // no consensus base left: can only be an indel
            };
            if is_indel {
                let is_del = su.mbta.read_bit()?;
                let single = su.mmpga.read_bit()?;
                let block_len = if single {
                    1u32
                } else {
                    su.mmpa.read_bits(8)? as u32
                };
                if block_len == 0 {
                    return Err(SageError::Corrupt("zero-length indel block".into()));
                }
                if is_del {
                    edits.push(Edit::Del {
                        read_off: off,
                        len: block_len,
                    });
                    c += block_len as usize;
                } else {
                    let mut bases = Vec::new();
                    read_bases(&mut su.mbta, block_len as usize, &mut bases)?;
                    r += bases.len();
                    edits.push(Edit::Ins {
                        read_off: off,
                        bases,
                    });
                }
            }
        }
        segments.push(Segment {
            read_start: 0,
            read_end: 0,
            cons_pos: seg_cons_pos,
            rev: seg_rev,
            edits,
        });
    }

    // Fix up segment extents now that clips are known.
    let clip_start_len = corner.clip_start_len;
    let clip_end_len = corner.clip_end_len;
    if clip_start_len + clip_end_len > len {
        return Err(SageError::Corrupt("clips longer than read".into()));
    }
    for si in 0..n_segs {
        let start = if si == 0 {
            clip_start_len as u32
        } else {
            seg_meta[si].0
        };
        let end = if si + 1 < n_segs {
            seg_meta[si + 1].0
        } else {
            (len - clip_end_len) as u32
        };
        if end < start {
            return Err(SageError::Corrupt("segment extents inverted".into()));
        }
        segments[si].read_start = start;
        segments[si].read_end = end;
    }
    let (clip_start, clip_end) = {
        let cs = corner.clip_bases[..clip_start_len].to_vec();
        let ce = corner.clip_bases[clip_start_len..].to_vec();
        (cs, ce)
    };
    let aln = Alignment {
        clip_start,
        clip_end,
        segments,
    };
    if !aln.is_well_formed(len) || aln.segments.iter().any(|s| !segment_decodable(s, cons)) {
        return Err(SageError::Corrupt("undecodable alignment".into()));
    }
    let mut bases = aln.reconstruct(cons).into_bases();
    for &p in &corner.n_positions {
        let p = p as usize;
        if p >= bases.len() {
            return Err(SageError::Corrupt("N position out of range".into()));
        }
        bases[p] = Base::N;
    }
    Ok(DnaSeq::from_bases(bases))
}

fn decode_raw_read(h: &ArchiveHeader, su: &mut ScanState<'_>, len: usize) -> Result<DnaSeq> {
    let has_n = su.raw.read_bit()?;
    let mut npos = Vec::new();
    if has_n {
        let count = su.raw.read_bits(16)? as usize;
        for _ in 0..count {
            npos.push(su.raw.read_bits(h.len_bits())? as usize);
        }
    }
    let mut bases = Vec::new();
    read_bases(&mut su.raw, len, &mut bases)?;
    for p in npos {
        if p >= bases.len() {
            return Err(SageError::Corrupt("raw N position out of range".into()));
        }
        bases[p] = Base::N;
    }
    Ok(DnaSeq::from_bases(bases))
}

fn decode_count(h: &ArchiveHeader, su: &mut ScanState<'_>) -> Result<u32> {
    match h.count_table.decode(&mut su.mmpga)? {
        Some(&v) => Ok(v),
        None => Ok(su.mmpa.read_bits(16)? as u32),
    }
}

fn decode_corner(
    h: &ArchiveHeader,
    su: &mut ScanState<'_>,
    corner: &mut CornerInfo,
    read_len: usize,
) -> Result<()> {
    let has_n = su.corner.read_bit()?;
    let has_clip = su.corner.read_bit()?;
    if has_n {
        let count = su.corner.read_bits(16)? as usize;
        for _ in 0..count {
            corner
                .n_positions
                .push(su.corner.read_bits(h.len_bits())? as u32);
        }
    }
    if has_clip {
        corner.clip_start_len = su.corner.read_bits(16)? as usize;
        corner.clip_end_len = su.corner.read_bits(16)? as usize;
        let total = corner.clip_start_len + corner.clip_end_len;
        if total > read_len {
            return Err(SageError::Corrupt("clip lengths exceed read".into()));
        }
        read_bases(&mut su.corner, total, &mut corner.clip_bases)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::SageCompressor;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};

    /// Round-trip equality when reordering is allowed: compare the
    /// multiset of (sequence, quality) pairs.
    fn assert_same_content(a: &ReadSet, b: &ReadSet) {
        assert_eq!(a.len(), b.len());
        let key = |r: &Read| (r.seq.to_string(), r.qual.clone());
        let mut ka: Vec<_> = a.iter().map(key).collect();
        let mut kb: Vec<_> = b.iter().map(key).collect();
        ka.sort();
        kb.sort();
        assert_eq!(ka, kb);
    }

    #[test]
    fn short_read_round_trip() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 10);
        let archive = SageCompressor::new().compress(&ds.reads).unwrap();
        let out = SageDecompressor::default().decompress(&archive).unwrap();
        assert_same_content(&ds.reads, &out);
    }

    #[test]
    fn long_read_round_trip() {
        let ds = simulate_dataset(&DatasetProfile::tiny_long(), 11);
        let archive = SageCompressor::new().compress(&ds.reads).unwrap();
        let out = SageDecompressor::default().decompress(&archive).unwrap();
        assert_same_content(&ds.reads, &out);
    }

    #[test]
    fn store_order_restores_original_order() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 12);
        let archive = SageCompressor::new()
            .with_store_order(true)
            .compress(&ds.reads)
            .unwrap();
        let out = SageDecompressor::default().decompress(&archive).unwrap();
        for (a, b) in ds.reads.iter().zip(out.iter()) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.qual, b.qual);
        }
    }

    #[test]
    fn bytes_round_trip() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 13);
        let archive = SageCompressor::new().compress(&ds.reads).unwrap();
        let bytes = archive.to_bytes();
        let out = SageDecompressor::default()
            .decompress_bytes(&bytes)
            .unwrap();
        assert_same_content(&ds.reads, &out);
    }

    #[test]
    fn prepared_formats_agree() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 14);
        let archive = SageCompressor::new().compress(&ds.reads).unwrap();
        let ascii = SageDecompressor::new(OutputFormat::Ascii)
            .prepare(&archive)
            .unwrap();
        let p3 = SageDecompressor::new(OutputFormat::Packed3)
            .prepare(&archive)
            .unwrap();
        match (ascii, p3) {
            (PreparedBatch::Ascii(a), PreparedBatch::Packed3(p)) => {
                assert_eq!(a.len(), p.len());
                for (bytes, packed) in a.iter().zip(&p) {
                    assert_eq!(&packed.unpack().to_ascii(), bytes);
                }
            }
            _ => panic!("wrong variants"),
        }
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 15);
        let archive = SageCompressor::new().compress(&ds.reads).unwrap();
        let mut bytes = archive.to_bytes();
        // Flip bits in the second half (stream data) and require a
        // clean error or a successful (garbage) decode — never a panic.
        let start = bytes.len() / 2;
        for i in (start..bytes.len()).step_by(97) {
            bytes[i] ^= 0x5a;
        }
        if let Ok(a) = SageArchive::from_bytes(&bytes) {
            let _ = SageDecompressor::default().decompress(&a);
        }
    }

    #[test]
    fn stream_matches_bulk_decompress() {
        let ds = simulate_dataset(&DatasetProfile::tiny_long(), 16);
        let archive = SageCompressor::new().compress(&ds.reads).unwrap();
        let dec = SageDecompressor::default();
        let bulk = dec.decompress(&archive).unwrap();
        let streamed: Vec<Read> = dec
            .stream(&archive)
            .unwrap()
            .collect::<crate::error::Result<_>>()
            .unwrap();
        assert_eq!(bulk.reads(), streamed.as_slice());
    }

    #[test]
    fn stream_ignores_stored_order_but_keeps_content() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 17);
        let archive = SageCompressor::new()
            .with_store_order(true)
            .compress(&ds.reads)
            .unwrap();
        let streamed: Vec<Read> = SageDecompressor::default()
            .stream(&archive)
            .unwrap()
            .collect::<crate::error::Result<_>>()
            .unwrap();
        assert_same_content(&ds.reads, &ReadSet::from_reads(streamed));
    }

    #[test]
    fn stream_supports_batched_consumption() {
        // The paper's pipeline: consume reads in batches while the next
        // batch decompresses. Batch boundaries must not change content.
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 18);
        let archive = SageCompressor::new().compress(&ds.reads).unwrap();
        let dec = SageDecompressor::default();
        let mut stream = dec.stream(&archive).unwrap();
        let mut batches = Vec::new();
        loop {
            let batch: Vec<Read> = stream
                .by_ref()
                .take(7)
                .collect::<crate::error::Result<_>>()
                .unwrap();
            if batch.is_empty() {
                break;
            }
            batches.push(batch);
        }
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, ds.reads.len());
        let flat: Vec<Read> = batches.into_iter().flatten().collect();
        assert_same_content(&ds.reads, &ReadSet::from_reads(flat));
    }

    #[test]
    fn empty_archive_round_trip() {
        let archive = SageCompressor::new().compress(&ReadSet::new()).unwrap();
        let out = SageDecompressor::default().decompress(&archive).unwrap();
        assert!(out.is_empty());
    }
}
