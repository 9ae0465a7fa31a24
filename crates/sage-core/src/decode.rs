//! The SAGe decompressor — the software model of §5.2's hardware.
//!
//! Decompression mirrors the Scan Unit (SU) / Read Construction Unit
//! (RCU) pipeline: the SU scans the guide arrays and position arrays
//! sequentially to decode matching positions, mismatch counts and
//! mismatch positions; the RCU scans the consensus and the MBTA,
//! resolving mismatch types by comparing the stored base with the
//! consensus base at the cursor (§5.1.2), and builds the full reads.
//! Everything is a streaming, single-pass scan — no random accesses.
//!
//! The software does the same outside the entropy coder: the parser
//! keeps the packed consensus bytes it was handed, [`SageDecompressor::stream`]
//! unpacks them once per chunk through a byte table, and `decode_read_into`
//! appends each read in place from the consensus — no alignment, segment
//! or mismatch list is materialised on this side. The structural checks
//! the encoder runs on such an alignment (`is_well_formed`, the mapper's
//! decodability check) are made inline instead; `decode_read_into` lists
//! which check stands in for which.

use crate::bitio::BitReader;
use crate::container::{ArchiveHeader, SageArchive};
use crate::error::{Result, SageError};
use crate::quality::QualityDecoder;
use sage_genomics::packed::{Packed2, Packed3};
use sage_genomics::{Base, ChunkColumns, DnaSeq, Read, ReadSet};

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

/// The SAGe decompressor. [`decode_chunk`](Self::decode_chunk) is the
/// one decode; [`decompress`](Self::decompress) and [`prepare`](Self::prepare)
/// read its columns, and [`stream`](Self::stream) shares its per-read step.
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
        let (cols, stats) = self.decode_columns(archive)?;
        Ok((cols.iter().map(|r| r.to_read()).collect(), stats))
    }

    /// Decodes an archive into its [`ChunkColumns`], each column sized
    /// exactly, once, and the stored order applied to the span table.
    ///
    /// # Errors
    ///
    /// Same as [`decompress`](Self::decompress).
    pub fn decode_chunk(&self, archive: &SageArchive) -> Result<ChunkColumns> {
        self.decode_columns(archive).map(|(cols, _)| cols)
    }

    fn decode_columns(&self, archive: &SageArchive) -> Result<(ChunkColumns, DecodeStats)> {
        let h = &archive.header;
        let mut stream = self.stream(archive)?;
        // Every read costs at least its mapped/unmapped bit, which
        // bounds what a hostile `n_reads` can make this size.
        let n = usize::try_from(h.n_reads.min(archive.streams.mpga.bit_len))
            .map_err(|_| corrupt("read count overflow"))?;
        let offset = |at: u64| u32::try_from(at).map_err(|_| corrupt("chunk past u32 offsets"));
        let total = offset(stream.total_bases(n)?)? as usize;
        let mut bases = Vec::with_capacity(total);
        let mut qual = h.has_quality.then(|| Vec::with_capacity(total));
        let mut spans = Vec::with_capacity(n);
        while stream.remaining > 0 {
            let lo = offset(bases.len() as u64)?;
            stream.next_into(&mut bases, qual.as_mut())?;
            spans.push((lo, offset(bases.len() as u64)?));
        }
        if h.store_order {
            let mut slots: Vec<Option<(u32, u32)>> = vec![None; spans.len()];
            for &span in &spans {
                let idx = usize::try_from(stream.su.order.read_bits(h.order_bits())?)
                    .ok()
                    .filter(|&i| i < slots.len())
                    .ok_or_else(|| corrupt("order index out of range"))?;
                if slots[idx].replace(span).is_some() {
                    return Err(corrupt("duplicate order index"));
                }
            }
            for (span, slot) in spans.iter_mut().zip(slots) {
                *span = slot.ok_or_else(|| corrupt("missing order index"))?;
            }
        }
        let stats = DecodeStats {
            reads: h.n_reads,
            bases: bases.len() as u64,
            mismatch_records: stream.su.records,
        };
        Ok((ChunkColumns { bases, qual, spans }, stats))
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
    /// Fails immediately on a consensus-length mismatch or malformed
    /// quality tables; per-read corruption surfaces as an `Err` item,
    /// after which the stream ends — on the last read also when the
    /// quality stream is not used up ([`QualityDecoder::is_spent`]).
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
        let cols = self.decode_chunk(archive)?;
        let reads = cols.iter().map(|r| r.seq);
        Ok(match self.format {
            OutputFormat::Ascii => PreparedBatch::Ascii(
                reads
                    .map(|s| s.iter().map(|&b| u8::from(b)).collect())
                    .collect(),
            ),
            OutputFormat::Packed2 => PreparedBatch::Packed2(reads.map(Packed2::pack).collect()),
            OutputFormat::Packed3 => PreparedBatch::Packed3(reads.map(Packed3::pack).collect()),
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
#[derive(Clone)]
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
    /// The bases of the next `n` reads, from a clone of the scan state.
    /// Each length passes [`read_len`]'s checks, so the sum is at most
    /// `n × max_read_len`.
    fn total_bases(&self, n: usize) -> Result<u64> {
        let mut su = self.su.clone();
        let len = |su: &mut ScanState<'_>| read_len(self.header, su, self.cons.len());
        (0..n).try_fold(0u64, |sum, _| Ok(sum.saturating_add(len(&mut su)? as u64)))
    }

    /// Appends the next read's bases and qualities to the columns. The
    /// last read must leave the quality stream used up.
    fn next_into(&mut self, bases: &mut Vec<Base>, qual: Option<&mut Vec<u8>>) -> Result<()> {
        self.remaining -= 1;
        let len = read_len(self.header, &mut self.su, self.cons.len())?;
        decode_read_into(self.header, &mut self.su, &self.cons, len, bases)?;
        // Quality stream (host-side, §5.1.5), decoded straight into the
        // read's slot of the column.
        if let (Some(dec), Some(q)) = (&mut self.qual, qual) {
            let lo = q.len();
            q.resize(lo + len, 0);
            dec.next_into(&mut q[lo..])?;
        }
        if self.remaining == 0 && !self.qual.as_ref().is_none_or(QualityDecoder::is_spent) {
            return Err(corrupt("quality stream not used up by its reads"));
        }
        Ok(())
    }
}

impl Iterator for ReadStream<'_> {
    type Item = Result<Read>;

    fn next(&mut self) -> Option<Result<Read>> {
        if self.remaining == 0 {
            return None;
        }
        let mut seq = Vec::new();
        let mut qual = self.qual.is_some().then(Vec::new);
        match self.next_into(&mut seq, qual.as_mut()) {
            Ok(()) => Some(Ok(Read {
                id: None,
                seq: DnaSeq::from_bases(seq),
                qual,
            })),
            Err(e) => {
                self.remaining = 0; // fuse after corruption
                Some(Err(e))
            }
        }
    }
}

/// The checked length of the next read: `fixed_len` or the next value
/// of the length streams.
fn read_len(h: &ArchiveHeader, su: &mut ScanState<'_>, cons_len: usize) -> Result<usize> {
    let len = match h.fixed_len {
        Some(l) => l as usize,
        None => {
            let table = h
                .len_table
                .as_ref()
                .ok_or_else(|| corrupt("missing length table"))?;
            let v = table.decode_value(&mut su.lenga, &mut su.lena)?;
            usize::try_from(v).map_err(|_| corrupt("read length overflow"))?
        }
    };
    if len > h.max_read_len as usize {
        return Err(corrupt("read longer than max_read_len"));
    }
    // A base is copied from the consensus (by four segments at most)
    // or costs two bits of one of these streams: a length the archive
    // cannot hold is refused before anything is sized by it.
    let stored = (su.mbta.remaining() + su.corner.remaining() + su.raw.remaining()) / 2;
    if len as u64 > 4 * cons_len as u64 + stored {
        return Err(corrupt("read longer than its archive"));
    }
    Ok(len)
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

/// `Corrupt` with a fixed message.
fn corrupt(what: &str) -> SageError {
    SageError::Corrupt(what.into())
}

/// What a corner-case record (§5.1.4) holds that has to wait for the
/// end of the read. The start clip does not: it goes straight into the
/// read.
#[derive(Default)]
struct Corner {
    seen: bool,
    n_positions: Vec<u32>,
    clip_end: Vec<Base>,
}

/// Appends the `n` consensus bases at cursor `c` to `out` — the RCU's
/// copy — and returns the cursor past them. `c <= cons.len()` is the
/// caller's invariant; comparing `n` against the remainder keeps a
/// hostile `n` from wrapping past the check in a release build.
fn copy_run(cons: &[Base], c: usize, n: usize, out: &mut Vec<Base>) -> Result<usize> {
    if n > cons.len() - c {
        return Err(corrupt("consensus cursor out of range"));
    }
    out.extend_from_slice(&cons[c..c + n]);
    Ok(c + n)
}

/// Decodes one read and appends it to `out`: the SU scan and the RCU's
/// construction in one pass. The bit fields are read in the order the
/// encoder wrote them and the read is built in place, at the end of
/// `out` (every offset below is relative to `out.len()` at entry):
/// consensus runs by slice copy, substitutions and insertions as their
/// records resolve, each reverse segment complemented where it lies,
/// clips and `N` positions from the corner record.
///
/// No alignment is materialised, so what the encoder-side validators —
/// `is_well_formed` on an alignment and the mapper's per-segment
/// decodability check — would reject is rejected here, each condition
/// before the copy it guards:
///
/// - for `is_well_formed`: segment extents ordered and inside the read
///   (`seg_extent`; contiguity holds by construction, a segment starts
///   where the last one ended), clips no longer than the read
///   ([`decode_corner`]), mismatch offsets monotone (`off < r`);
/// - for the decodability check: offset inside the segment
///   (`off > seg_len`), a substitution or insertion block inside the
///   segment, a deletion inside the consensus, every copy — the
///   trailing one too — inside the consensus ([`copy_run`]), matching
///   positions inside it ([`cons_cursor`]). Its rule that a
///   substitution differs from the consensus base needs no check: a
///   stored base equal to the consensus *is* the indel marker (§5.1.2).
fn decode_read_into(
    h: &ArchiveHeader,
    su: &mut ScanState<'_>,
    cons: &[Base],
    len: usize,
    out: &mut Vec<Base>,
) -> Result<()> {
    let mapped = su.mpga.read_bit()?;
    if !mapped {
        return decode_raw_read(h, su, len, out);
    }
    let delta = h.mp_table.decode_value(&mut su.mpga, &mut su.mpa)?;
    // No overflow: `prev_pos` was checked against the consensus length
    // and a delta is at most 32 bits wide.
    let pos = su.prev_pos + delta;
    let cons_pos0 = cons_cursor(pos, cons)?;
    su.prev_pos = pos;
    let rev0 = su.mpga.read_bit()?;
    let n_segs = su.mpga.read_bits(2)? as usize + 1;
    // (read offset the segment starts at, consensus cursor, reverse).
    let mut seg_meta = [(0usize, cons_pos0, rev0); 4];
    for m in &mut seg_meta[1..n_segs] {
        m.0 = su.mpa.read_bits(h.len_bits())? as usize;
        m.1 = cons_cursor(su.mpa.read_bits(h.pos_bits())?, cons)?;
    }
    for m in &mut seg_meta[1..n_segs] {
        m.2 = su.mpga.read_bit()?;
    }
    // The segment `si` covers the read from `start` up to where the next
    // one starts (the end clip, for the last): its length, or
    // `Corrupt` when the extents are out of order or past the read.
    let seg_extent = |si: usize, start: usize, clip_end: usize| -> Result<usize> {
        let limit = len - clip_end; // decode_corner: clips fit the read
        let end = if si + 1 < n_segs {
            seg_meta[si + 1].0
        } else {
            limit
        };
        if end > limit || start > end {
            return Err(corrupt("segment extents out of order"));
        }
        Ok(end - start)
    };

    let at = out.len();
    out.reserve(len);
    let mut corner = Corner::default();
    for (si, &(_, mut c, rev)) in seg_meta[..n_segs].iter().enumerate() {
        let count = decode_count(h, su)?;
        let mut seg_start = out.len();
        let mut seg_len = seg_extent(si, seg_start - at, corner.clip_end.len())?;
        let mut prev_off = 0u32;
        // Until the first segment's first mismatch, a record at offset
        // 0 says whether it is the corner record.
        let mut first = si == 0;
        for _ in 0..count {
            su.records += 1;
            let delta = h.mmp_table.decode_value(&mut su.mmpga, &mut su.mmpa)?;
            let off = u32::try_from(u64::from(prev_off) + delta)
                .map_err(|_| corrupt("offset overflow"))?;
            prev_off = off;
            if first {
                if off == 0 && su.mbta.read_bit()? {
                    // Synthetic record, not a mismatch: the clips it
                    // carries move this segment's extent.
                    decode_corner(h, su, &mut corner, len, out)?;
                    seg_start = out.len();
                    seg_len = seg_extent(si, seg_start - at, corner.clip_end.len())?;
                    continue;
                }
                first = false;
            }
            let off = off as usize;
            let r = out.len() - seg_start;
            if off < r || off > seg_len {
                return Err(corrupt("mismatch offset out of range"));
            }
            c = copy_run(cons, c, off - r, out)?;
            // RCU type resolution (§5.1.2): compare the stored base
            // with the consensus base at the cursor.
            let is_indel = if c < cons.len() {
                let base = Base::from_code2(su.mbta.read_bits(2)? as u8);
                if base != cons[c] {
                    if off == seg_len {
                        return Err(corrupt("substitution past segment end"));
                    }
                    out.push(base);
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
                    1
                } else {
                    su.mmpa.read_bits(8)? as usize
                };
                if block_len == 0 {
                    return Err(corrupt("zero-length indel block"));
                }
                if is_del {
                    if block_len > cons.len() - c {
                        return Err(corrupt("deletion past consensus end"));
                    }
                    c += block_len;
                } else {
                    if block_len > seg_len - off {
                        return Err(corrupt("insertion past segment end"));
                    }
                    read_bases(&mut su.mbta, block_len, out)?;
                }
            }
        }
        let r = out.len() - seg_start;
        copy_run(cons, c, seg_len - r, out)?;
        if rev {
            let seg = &mut out[seg_start..];
            seg.reverse();
            for b in seg {
                *b = b.complement();
            }
        }
    }
    out.extend_from_slice(&corner.clip_end);
    if out.len() - at != len {
        return Err(corrupt("read length mismatch"));
    }
    for &p in &corner.n_positions {
        out[at + p as usize] = Base::N; // `p < len`: read_n_positions
    }
    Ok(())
}

/// A matching position as a consensus cursor; one past the last base is
/// allowed (a segment of nothing but insertions can sit there).
fn cons_cursor(pos: u64, cons: &[Base]) -> Result<usize> {
    usize::try_from(pos)
        .ok()
        .filter(|&c| c <= cons.len())
        .ok_or_else(|| corrupt("consensus position out of range"))
}

fn decode_raw_read(
    h: &ArchiveHeader,
    su: &mut ScanState<'_>,
    len: usize,
    out: &mut Vec<Base>,
) -> Result<()> {
    let has_n = su.raw.read_bit()?;
    let npos = if has_n {
        read_n_positions(&mut su.raw, h.len_bits(), len)?
    } else {
        Vec::new()
    };
    let at = out.len();
    read_bases(&mut su.raw, len, out)?;
    for p in npos {
        out[at + p as usize] = Base::N;
    }
    Ok(())
}

/// Reads a 16-bit count and that many `N` positions of a `len`-base
/// read. A read has no more `N`s than bases and none outside it, so the
/// count is checked before anything is allocated for it: with
/// `max_read_len == 0` a position costs no stream bits at all.
fn read_n_positions(r: &mut BitReader<'_>, len_bits: u32, len: usize) -> Result<Vec<u32>> {
    let count = r.read_bits(16)? as usize;
    if count > len {
        return Err(corrupt("more N positions than bases"));
    }
    let mut positions = Vec::with_capacity(count);
    for _ in 0..count {
        let p = r.read_bits(len_bits)?;
        if p >= len as u64 {
            return Err(corrupt("N position out of range"));
        }
        positions.push(p as u32);
    }
    Ok(positions)
}

fn decode_count(h: &ArchiveHeader, su: &mut ScanState<'_>) -> Result<u32> {
    match h.count_table.decode(&mut su.mmpga)? {
        Some(&v) => Ok(v),
        None => Ok(su.mmpa.read_bits(16)? as u32),
    }
}

/// Decodes the corner record of a read of `len` bases: `N` positions
/// and the end clip into `corner`, the start clip onto `out`, which holds
/// nothing of this read yet — the record precedes every mismatch of the
/// first segment. A read has one corner record at most.
fn decode_corner(
    h: &ArchiveHeader,
    su: &mut ScanState<'_>,
    corner: &mut Corner,
    len: usize,
    out: &mut Vec<Base>,
) -> Result<()> {
    if std::mem::replace(&mut corner.seen, true) {
        return Err(corrupt("second corner record in one read"));
    }
    let has_n = su.corner.read_bit()?;
    let has_clip = su.corner.read_bit()?;
    if has_n {
        corner.n_positions = read_n_positions(&mut su.corner, h.len_bits(), len)?;
    }
    if has_clip {
        let clip_start_len = su.corner.read_bits(16)? as usize;
        let clip_end_len = su.corner.read_bits(16)? as usize;
        if clip_start_len + clip_end_len > len {
            return Err(corrupt("clip lengths exceed read"));
        }
        read_bases(&mut su.corner, clip_start_len, out)?;
        read_bases(&mut su.corner, clip_end_len, &mut corner.clip_end)?;
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
