//! The SAGe compressor (§5.1).
//!
//! Compression runs on the host (it is off the analysis critical path,
//! §4): build a consensus, map every read to it, reorder reads by
//! matching position, tune every array's bit widths for *this* read
//! set (Algorithm 1), then emit the hardware-friendly arrays and guide
//! arrays plus the separate quality stream.

use crate::bitio::BitWriter;
use crate::consensus::{
    denovo_consensus, reference_consensus, Consensus, ConsensusConfig, ConsensusMode,
};
use crate::container::{ArchiveHeader, SageArchive, Stream, Streams};
use crate::error::{Result, SageError};
use crate::mapper::{MapBuffers, Mapper, MapperConfig, SampledReads};
use crate::quality::compress_qualities;
use crate::tuning::{tune_bit_widths, tune_value_classes, DEFAULT_EPSILON};
use sage_genomics::packed::Packed2;
use sage_genomics::{bits_needed, Alignment, Base, Edit, Read, ReadSet};
use std::time::Instant;

/// Per-component bit accounting of the mismatch information — the data
/// behind the paper's Fig. 17 size breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Matching positions (first-segment delta + extra-segment records).
    pub matching_pos: u64,
    /// Reverse-strand flags.
    pub rev: u64,
    /// Read-length stream.
    pub read_len: u64,
    /// Corner-case marking and `N`/clip bookkeeping.
    pub contains_n: u64,
    /// Mismatch bases (markers, substituted and inserted bases, clips).
    pub mismatch_bases: u64,
    /// Mismatch types (indel/substitution resolution bits).
    pub mismatch_types: u64,
    /// Mismatch positions (delta codes + indel lengths).
    pub mismatch_pos: u64,
    /// Per-segment mismatch counts.
    pub mismatch_counts: u64,
    /// Raw storage for unmapped reads (plus mapped-flag bits).
    pub unmapped: u64,
    /// Optional original-order stream.
    pub order: u64,
}

impl Breakdown {
    /// Total bits across all components.
    pub fn total_bits(&self) -> u64 {
        self.matching_pos
            + self.rev
            + self.read_len
            + self.contains_n
            + self.mismatch_bases
            + self.mismatch_types
            + self.mismatch_pos
            + self.mismatch_counts
            + self.unmapped
            + self.order
    }
}

/// Statistics from one compression run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompressionStats {
    /// Input DNA bytes (one per base).
    pub uncompressed_dna_bytes: u64,
    /// Output DNA bytes (consensus + all streams + header).
    pub compressed_dna_bytes: u64,
    /// Input quality bytes.
    pub uncompressed_quality_bytes: u64,
    /// Output quality bytes.
    pub compressed_quality_bytes: u64,
    /// Bit breakdown of the mismatch information.
    pub breakdown: Breakdown,
    /// Wall time spent finding mismatches (consensus + mapping).
    pub find_mismatch_secs: f64,
    /// Wall time spent encoding (tuning + stream writing + quality).
    pub encode_secs: f64,
    /// Reads stored raw.
    pub n_unmapped: u64,
    /// Reads with more than one segment (chimeric encoding).
    pub n_chimeric: u64,
    /// Reads taking the corner-case path (`N` or clips).
    pub n_corner: u64,
}

impl CompressionStats {
    /// DNA compression ratio (input/output bytes).
    pub fn dna_ratio(&self) -> f64 {
        if self.compressed_dna_bytes == 0 {
            return 0.0;
        }
        self.uncompressed_dna_bytes as f64 / self.compressed_dna_bytes as f64
    }

    /// Quality compression ratio (input/output bytes).
    pub fn quality_ratio(&self) -> f64 {
        if self.compressed_quality_bytes == 0 {
            return 0.0;
        }
        self.uncompressed_quality_bytes as f64 / self.compressed_quality_bytes as f64
    }
}

/// Options controlling compression.
#[derive(Debug, Clone)]
pub struct CompressOptions {
    /// Consensus source (de-novo pseudo-genome by default).
    pub consensus: ConsensusMode,
    /// Mapper tuning.
    pub mapper: MapperConfig,
    /// Algorithm 1 convergence threshold ε.
    pub epsilon: f64,
    /// Whether to compress quality scores (optional per §5.1.5).
    pub compress_quality: bool,
    /// Whether to store the original read order (off by default, like
    /// the reorder modes of Spring/NanoSpring).
    pub store_order: bool,
}

impl Default for CompressOptions {
    fn default() -> CompressOptions {
        CompressOptions {
            consensus: ConsensusMode::DeNovo,
            mapper: MapperConfig::default(),
            epsilon: DEFAULT_EPSILON,
            compress_quality: true,
            store_order: false,
        }
    }
}

/// The SAGe compressor.
///
/// # Example
///
/// ```
/// use sage_core::SageCompressor;
/// use sage_genomics::sim::{simulate_dataset, DatasetProfile};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ds = simulate_dataset(&DatasetProfile::tiny_short(), 1);
/// let archive = SageCompressor::new().compress(&ds.reads)?;
/// assert!(archive.dna_bytes() < ds.reads.total_bases());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SageCompressor {
    opts: CompressOptions,
}

/// All bit writers, grouped so components can be accounted by
/// before/after snapshots.
#[derive(Default)]
struct Writers {
    mpga: BitWriter,
    mpa: BitWriter,
    mmpga: BitWriter,
    mmpa: BitWriter,
    mbta: BitWriter,
    corner: BitWriter,
    lenga: BitWriter,
    lena: BitWriter,
    raw: BitWriter,
    order: BitWriter,
}

impl Writers {
    fn total_bits(&self) -> u64 {
        self.mpga.bit_len()
            + self.mpa.bit_len()
            + self.mmpga.bit_len()
            + self.mmpa.bit_len()
            + self.mbta.bit_len()
            + self.corner.bit_len()
            + self.lenga.bit_len()
            + self.lena.bit_len()
            + self.raw.bit_len()
            + self.order.bit_len()
    }
}

impl SageCompressor {
    /// Creates a compressor with default options.
    pub fn new() -> SageCompressor {
        SageCompressor::default()
    }

    /// Creates a compressor with explicit options.
    pub fn with_options(opts: CompressOptions) -> SageCompressor {
        SageCompressor { opts }
    }

    /// Uses a reference genome as the consensus instead of deriving a
    /// pseudo-genome from the reads.
    pub fn with_reference(mut self, reference: sage_genomics::DnaSeq) -> SageCompressor {
        self.opts.consensus = ConsensusMode::Reference(reference);
        self
    }

    /// Enables or disables quality-score compression.
    pub fn with_quality(mut self, on: bool) -> SageCompressor {
        self.opts.compress_quality = on;
        self
    }

    /// Stores the original read order so decompression can restore it.
    pub fn with_store_order(mut self, on: bool) -> SageCompressor {
        self.opts.store_order = on;
        self
    }

    /// Compresses a read set.
    ///
    /// # Errors
    ///
    /// Fails when a format limit is exceeded (consensus or reads longer
    /// than 2³² bases).
    pub fn compress(&self, reads: &ReadSet) -> Result<SageArchive> {
        self.compress_reads(reads.reads())
    }

    /// [`compress`](Self::compress) for reads the caller holds as a
    /// slice (one chunk of a larger set, say) — nothing is cloned.
    ///
    /// # Errors
    ///
    /// Same as [`compress`](Self::compress).
    pub fn compress_reads(&self, reads: &[Read]) -> Result<SageArchive> {
        self.encode(reads).map(|(a, _)| a)
    }

    /// Compresses a read set, also returning detailed statistics.
    ///
    /// # Errors
    ///
    /// Same as [`compress`](Self::compress).
    pub fn compress_detailed(&self, reads: &ReadSet) -> Result<(SageArchive, CompressionStats)> {
        self.encode(reads.reads())
    }

    fn encode(&self, reads: &[Read]) -> Result<(SageArchive, CompressionStats)> {
        let t_find = Instant::now();
        if reads.iter().any(|r| r.len() as u64 >= (1 << 32)) {
            return Err(SageError::Limit("read exceeds 2^32 bases".into()));
        }
        let (sampled, consensus, alignments) = self.find_mismatches(reads);
        if consensus.seq.len() as u64 >= (1 << 32) {
            return Err(SageError::Limit("consensus exceeds 2^32 bases".into()));
        }
        let find_mismatch_secs = t_find.elapsed().as_secs_f64();

        let t_enc = Instant::now();
        let (archive, mut stats) = self.encode_streams(reads, &sampled, &consensus, &alignments)?;
        stats.find_mismatch_secs = find_mismatch_secs;
        stats.encode_secs = t_enc.elapsed().as_secs_f64();
        Ok((archive, stats))
    }

    /// Builds the consensus and maps every read to it. Each read is
    /// masked and sampled once, up front; the consensus builder and the
    /// mapper both work from those lists.
    fn find_mismatches(&self, reads: &[Read]) -> (SampledReads, Consensus, Vec<Alignment>) {
        let ccfg = ConsensusConfig {
            k: self.opts.mapper.k,
            w: self.opts.mapper.w,
            ..ConsensusConfig::default()
        };
        let sampled = SampledReads::from_reads(reads, ccfg.k, ccfg.w);
        let consensus = match &self.opts.consensus {
            ConsensusMode::Reference(reference) => reference_consensus(reference, &ccfg),
            ConsensusMode::DeNovo => denovo_consensus(&sampled, &ccfg),
        };
        let mapper = Mapper::new(
            consensus.seq.as_slice(),
            &consensus.index,
            self.opts.mapper.clone(),
        );
        let mut buffers = MapBuffers::default();
        let alignments = (0..sampled.len())
            .map(|i| mapper.map_sampled(sampled.get(i), &mut buffers))
            .collect();
        (sampled, consensus, alignments)
    }

    /// Compresses a read set into fixed-population chunks: every
    /// `reads_per_chunk` consecutive reads become one independently
    /// decodable archive (the final chunk may be smaller).
    ///
    /// Chunking trades a little compression ratio (each chunk carries
    /// its own consensus and tuned tables) for random access: a store
    /// can decode any chunk without touching the others, which is what
    /// the paper's SSD layout (§5.3) serves. Chunks inherit this
    /// compressor's options unchanged; stores that address reads by
    /// dataset position must enable `store_order` so each chunk
    /// restores its reads in input order (`sage-store` does this, and
    /// its parallel `encode_sharded` produces chunk-for-chunk the same
    /// archives this sequential entry point does).
    ///
    /// # Errors
    ///
    /// Same as [`compress`](Self::compress).
    ///
    /// # Panics
    ///
    /// Panics if `reads_per_chunk` is 0.
    pub fn compress_chunked(
        &self,
        reads: &ReadSet,
        reads_per_chunk: usize,
    ) -> Result<Vec<SageArchive>> {
        assert!(reads_per_chunk > 0, "chunks must hold at least one read");
        reads
            .reads()
            .chunks(reads_per_chunk)
            .map(|chunk| self.compress_reads(chunk))
            .collect()
    }

    /// Maps the reads and returns the alignments without encoding —
    /// used by the dataset-property harnesses (Fig. 7 / Fig. 10) and
    /// the ablation accounting.
    pub fn analyze(&self, reads: &ReadSet) -> Result<(Consensus, Vec<Alignment>)> {
        let (_, consensus, alignments) = self.find_mismatches(reads.reads());
        Ok((consensus, alignments))
    }

    fn encode_streams(
        &self,
        reads: &[Read],
        sampled: &SampledReads,
        consensus: &Consensus,
        alignments: &[Alignment],
    ) -> Result<(SageArchive, CompressionStats)> {
        let n = reads.len();
        let cons = consensus.seq.as_slice();
        // Record order: by matching position, unmapped last (§5.1.3).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (alignments[i].sort_key(), i));
        let n_mapped = alignments.iter().filter(|a| !a.is_unmapped()).count() as u64;

        let first_len = reads.first().map_or(0, |r| r.len());
        let fixed_len = reads
            .iter()
            .all(|r| r.len() == first_len)
            .then_some(first_len as u32);
        let max_read_len = sampled.max_len() as u32;

        // Corner info per read: N positions (mapped reads only — raw
        // reads carry theirs inline) and clips (already in alignments).
        let n_positions: Vec<Vec<u32>> = reads
            .iter()
            .map(|r| r.seq.n_positions().iter().map(|&p| p as u32).collect())
            .collect();
        let is_corner = |i: usize| -> bool {
            let a = &alignments[i];
            !a.is_unmapped()
                && (!n_positions[i].is_empty()
                    || !a.clip_start.is_empty()
                    || !a.clip_end.is_empty())
        };

        // ---- Histograms and tuning (Algorithm 1) ----
        let mut mp_hist = vec![0u64; 33];
        let mut mmp_hist = vec![0u64; 33];
        let mut len_hist = vec![0u64; 33];
        let mut count_hist: Vec<u64> = Vec::new();
        let bump = |h: &mut Vec<u64>, v: usize| {
            if v >= h.len() {
                h.resize(v + 1, 0);
            }
            h[v] += 1;
        };
        let mut prev_pos = 0u64;
        for &i in &order {
            let a = &alignments[i];
            if fixed_len.is_none() {
                mump(&mut len_hist, bits_needed(reads[i].len() as u64));
            }
            if a.is_unmapped() {
                continue;
            }
            let key = a.sort_key();
            mump(&mut mp_hist, bits_needed(key - prev_pos));
            prev_pos = key;
            for (si, seg) in a.segments.iter().enumerate() {
                let synthetic = si == 0 && is_corner(i);
                let count = seg.edits.len() + usize::from(synthetic);
                if count > u16::MAX as usize {
                    return Err(SageError::Limit("segment mismatch count > 65535".into()));
                }
                bump(&mut count_hist, count);
                let mut prev_off = 0u32;
                if synthetic {
                    mump(&mut mmp_hist, 0);
                }
                for e in &seg.edits {
                    mump(
                        &mut mmp_hist,
                        bits_needed(u64::from(e.read_off() - prev_off)),
                    );
                    prev_off = e.read_off();
                }
            }
        }
        let mp_tuned = tune_bit_widths(&mp_hist, self.opts.epsilon);
        let mmp_tuned = tune_bit_widths(&mmp_hist, self.opts.epsilon);
        let mp_table = mp_tuned
            .to_width_table(&mp_hist)
            .expect("tuning yields at least one class");
        let mmp_table = mmp_tuned
            .to_width_table(&mmp_hist)
            .expect("tuning yields at least one class");
        let len_table = if fixed_len.is_none() {
            let tuned = tune_bit_widths(&len_hist, self.opts.epsilon);
            Some(tuned.to_width_table(&len_hist).expect("non-empty"))
        } else {
            None
        };
        let count_table = tune_value_classes(&count_hist)
            .to_table()
            .expect("non-empty");

        let header = ArchiveHeader {
            n_reads: n as u64,
            n_mapped,
            fixed_len,
            max_read_len,
            consensus_len: cons.len() as u64,
            has_quality: self.opts.compress_quality
                && n > 0
                && reads.iter().all(|r| r.qual.is_some()),
            store_order: self.opts.store_order,
            mp_table,
            mmp_table,
            len_table,
            count_table,
        };
        let len_bits = header.len_bits();
        let pos_bits = header.pos_bits();
        let order_bits = header.order_bits();

        // ---- Stream emission ----
        let mut w = Writers::default();
        let mut bd = Breakdown::default();
        let mut n_unmapped = 0u64;
        let mut n_chimeric = 0u64;
        let mut n_corner = 0u64;
        let mut prev_pos = 0u64;
        for &i in &order {
            let a = &alignments[i];
            let read_len = reads[i].len();
            if header.store_order {
                let s0 = w.total_bits();
                w.order.write_bits(i as u64, order_bits);
                bd.order += w.total_bits() - s0;
            }
            if let Some(table) = &header.len_table {
                let s0 = w.total_bits();
                table.encode_value(&mut w.lenga, &mut w.lena, read_len as u64);
                bd.read_len += w.total_bits() - s0;
            }
            if a.is_unmapped() {
                n_unmapped += 1;
                let s0 = w.total_bits();
                w.mpga.write_bit(false);
                let npos = &n_positions[i];
                w.raw.write_bit(!npos.is_empty());
                if !npos.is_empty() {
                    w.raw.write_bits(npos.len() as u64, 16);
                    for &p in npos {
                        w.raw.write_bits(u64::from(p), len_bits);
                    }
                }
                for b in sampled.get(i).fwd {
                    w.raw.write_bits(u64::from(b.code2()), 2);
                }
                bd.unmapped += w.total_bits() - s0;
                continue;
            }
            // Mapped read.
            let s0 = w.total_bits();
            w.mpga.write_bit(true);
            bd.unmapped += w.total_bits() - s0;

            let key = a.sort_key();
            let s0 = w.total_bits();
            header
                .mp_table
                .encode_value(&mut w.mpga, &mut w.mpa, key - prev_pos);
            prev_pos = key;
            bd.matching_pos += w.total_bits() - s0;

            let s0 = w.total_bits();
            w.mpga.write_bit(a.segments[0].rev);
            bd.rev += w.total_bits() - s0;

            debug_assert!(a.segments.len() <= 4);
            let s0 = w.total_bits();
            w.mpga.write_bits(a.segments.len() as u64 - 1, 2);
            for seg in &a.segments[1..] {
                w.mpa.write_bits(u64::from(seg.read_start), len_bits);
                w.mpa.write_bits(seg.cons_pos, pos_bits);
            }
            bd.matching_pos += w.total_bits() - s0;
            let s0 = w.total_bits();
            for seg in &a.segments[1..] {
                w.mpga.write_bit(seg.rev);
            }
            bd.rev += w.total_bits() - s0;
            if a.segments.len() > 1 {
                n_chimeric += 1;
            }

            let corner = is_corner(i);
            if corner {
                n_corner += 1;
            }
            for (si, seg) in a.segments.iter().enumerate() {
                let synthetic = si == 0 && corner;
                let count = seg.edits.len() + usize::from(synthetic);
                let s0 = w.total_bits();
                encode_count(&header, &mut w, count as u32);
                bd.mismatch_counts += w.total_bits() - s0;

                let mut prev_off = 0u32;
                let mut r = 0usize; // read cursor within segment
                let mut c = seg.cons_pos as usize; // consensus cursor
                if synthetic {
                    let s0 = w.total_bits();
                    header.mmp_table.encode_value(&mut w.mmpga, &mut w.mmpa, 0);
                    bd.mismatch_pos += w.total_bits() - s0;
                    let s0 = w.total_bits();
                    w.mbta.write_bit(true); // corner marker
                    bd.contains_n += w.total_bits() - s0;
                    self.encode_corner(&header, &mut w, &mut bd, a, &n_positions[i], len_bits);
                }
                let mut first_real = true;
                for e in &seg.edits {
                    let off = e.read_off();
                    let s0 = w.total_bits();
                    header.mmp_table.encode_value(
                        &mut w.mmpga,
                        &mut w.mmpa,
                        u64::from(off - prev_off),
                    );
                    prev_off = off;
                    bd.mismatch_pos += w.total_bits() - s0;
                    if si == 0 && first_real && off == 0 {
                        let s0 = w.total_bits();
                        w.mbta.write_bit(false); // genuine mismatch at 0
                        bd.contains_n += w.total_bits() - s0;
                    }
                    first_real = false;
                    // Advance the consensus cursor over copied bases.
                    c += off as usize - r;
                    r = off as usize;
                    match e {
                        Edit::Sub { base, .. } => {
                            debug_assert!(c < cons.len() && *base != cons[c]);
                            let s0 = w.total_bits();
                            w.mbta.write_bits(u64::from(base.code2()), 2);
                            bd.mismatch_bases += w.total_bits() - s0;
                            r += 1;
                            c += 1;
                        }
                        Edit::Ins { bases, .. } => {
                            self.encode_indel(
                                &header,
                                &mut w,
                                &mut bd,
                                cons,
                                c,
                                false,
                                bases.len() as u32,
                            );
                            let s0 = w.total_bits();
                            for b in bases {
                                w.mbta.write_bits(u64::from(b.code2()), 2);
                            }
                            bd.mismatch_bases += w.total_bits() - s0;
                            r += bases.len();
                        }
                        Edit::Del { len, .. } => {
                            self.encode_indel(&header, &mut w, &mut bd, cons, c, true, *len);
                            c += *len as usize;
                        }
                    }
                }
            }
        }

        // Quality stream, in record order (§5.1.5).
        let qual = if header.has_quality {
            compress_qualities(
                order
                    .iter()
                    .map(|&i| reads[i].qual.as_deref().unwrap_or(&[])),
            )
        } else {
            Vec::new()
        };

        let streams = Streams {
            mpga: Stream::from_writer(w.mpga),
            mpa: Stream::from_writer(w.mpa),
            mmpga: Stream::from_writer(w.mmpga),
            mmpa: Stream::from_writer(w.mmpa),
            mbta: Stream::from_writer(w.mbta),
            corner: Stream::from_writer(w.corner),
            lenga: Stream::from_writer(w.lenga),
            lena: Stream::from_writer(w.lena),
            raw: Stream::from_writer(w.raw),
            order: Stream::from_writer(w.order),
            qual,
        };
        let archive = SageArchive {
            header,
            consensus: Packed2::pack(cons),
            streams,
        };
        let stats = CompressionStats {
            uncompressed_dna_bytes: reads.iter().map(|r| r.len() as u64).sum(),
            compressed_dna_bytes: archive.dna_bytes() as u64,
            uncompressed_quality_bytes: reads
                .iter()
                .map(|r| r.qual.as_ref().map_or(0, |q| q.len() as u64))
                .sum(),
            compressed_quality_bytes: archive.quality_bytes() as u64,
            breakdown: bd,
            find_mismatch_secs: 0.0,
            encode_secs: 0.0,
            n_unmapped,
            n_chimeric,
            n_corner,
        };
        Ok((archive, stats))
    }

    /// Indel record tail: marker base (when a consensus base exists at
    /// the cursor), insertion/deletion bit, single-base flag, and the
    /// 8-bit block length when longer than one (§5.1.1–§5.1.2).
    #[allow(clippy::too_many_arguments)]
    fn encode_indel(
        &self,
        _header: &ArchiveHeader,
        w: &mut Writers,
        bd: &mut Breakdown,
        cons: &[Base],
        c: usize,
        is_del: bool,
        block_len: u32,
    ) {
        if c < cons.len() {
            let s0 = w.total_bits();
            w.mbta.write_bits(u64::from(cons[c].code2()), 2);
            bd.mismatch_bases += w.total_bits() - s0;
        }
        let s0 = w.total_bits();
        w.mbta.write_bit(is_del);
        if block_len == 1 {
            w.mmpga.write_bit(true);
        } else {
            w.mmpga.write_bit(false);
        }
        bd.mismatch_types += w.total_bits() - s0;
        if block_len != 1 {
            let s0 = w.total_bits();
            w.mmpa.write_bits(u64::from(block_len), 8);
            bd.mismatch_pos += w.total_bits() - s0;
        }
    }

    /// Corner payload: `N` positions and/or clips (§5.1.4).
    fn encode_corner(
        &self,
        _header: &ArchiveHeader,
        w: &mut Writers,
        bd: &mut Breakdown,
        a: &Alignment,
        npos: &[u32],
        len_bits: u32,
    ) {
        let has_n = !npos.is_empty();
        let has_clip = !a.clip_start.is_empty() || !a.clip_end.is_empty();
        let s0 = w.total_bits();
        w.corner.write_bit(has_n);
        w.corner.write_bit(has_clip);
        if has_n {
            w.corner.write_bits(npos.len() as u64, 16);
            for &p in npos {
                w.corner.write_bits(u64::from(p), len_bits);
            }
        }
        if has_clip {
            w.corner.write_bits(a.clip_start.len() as u64, 16);
            w.corner.write_bits(a.clip_end.len() as u64, 16);
        }
        bd.contains_n += w.total_bits() - s0;
        if has_clip {
            let s0 = w.total_bits();
            for b in a.clip_start.iter().chain(a.clip_end.iter()) {
                w.corner.write_bits(u64::from(b.code2()), 2);
            }
            bd.mismatch_bases += w.total_bits() - s0;
        }
    }
}

/// Encodes a per-segment mismatch count: tuned literal class or escape
/// (+16-bit raw).
fn encode_count(header: &ArchiveHeader, w: &mut Writers, count: u32) {
    let table = &header.count_table;
    match table.entries().iter().position(|&v| v == count) {
        Some(idx) => table.encode_index(&mut w.mmpga, idx),
        None => {
            table.encode_escape(&mut w.mmpga);
            w.mmpa.write_bits(u64::from(count), 16);
        }
    }
}

/// `bump` twin usable where the histogram has fixed size 33.
fn mump(h: &mut [u64], bits: u32) {
    h[bits as usize] += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};

    #[test]
    fn compress_produces_smaller_dna() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 1);
        let (archive, stats) = SageCompressor::new().compress_detailed(&ds.reads).unwrap();
        assert!(stats.dna_ratio() > 1.5, "ratio {}", stats.dna_ratio());
        assert_eq!(archive.header.n_reads, ds.reads.len() as u64);
        assert!(archive.header.fixed_len.is_some());
    }

    #[test]
    fn long_reads_use_length_stream() {
        let ds = simulate_dataset(&DatasetProfile::tiny_long(), 2);
        let archive = SageCompressor::new().compress(&ds.reads).unwrap();
        assert!(archive.header.fixed_len.is_none());
        assert!(archive.header.len_table.is_some());
        assert!(archive.streams.lena.bit_len > 0);
    }

    #[test]
    fn breakdown_totals_are_consistent_with_streams() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 3);
        let (archive, stats) = SageCompressor::new().compress_detailed(&ds.reads).unwrap();
        let stream_bits: u64 = [
            &archive.streams.mpga,
            &archive.streams.mpa,
            &archive.streams.mmpga,
            &archive.streams.mmpa,
            &archive.streams.mbta,
            &archive.streams.corner,
            &archive.streams.lenga,
            &archive.streams.lena,
            &archive.streams.raw,
            &archive.streams.order,
        ]
        .iter()
        .map(|s| s.bit_len)
        .sum();
        assert_eq!(stats.breakdown.total_bits(), stream_bits);
    }

    #[test]
    fn empty_read_set_compresses() {
        let archive = SageCompressor::new().compress(&ReadSet::new()).unwrap();
        assert_eq!(archive.header.n_reads, 0);
        let bytes = archive.to_bytes();
        let back = SageArchive::from_bytes(&bytes).unwrap();
        assert_eq!(archive, back);
    }

    #[test]
    fn quality_stream_respects_flag() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 4);
        let with_q = SageCompressor::new().compress(&ds.reads).unwrap();
        assert!(with_q.header.has_quality);
        assert!(!with_q.streams.qual.is_empty());
        let without_q = SageCompressor::new()
            .with_quality(false)
            .compress(&ds.reads)
            .unwrap();
        assert!(!without_q.header.has_quality);
        assert!(without_q.streams.qual.is_empty());
    }

    #[test]
    fn store_order_adds_order_stream() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 5);
        let a = SageCompressor::new()
            .with_store_order(true)
            .compress(&ds.reads)
            .unwrap();
        assert!(a.header.store_order);
        assert!(a.streams.order.bit_len >= ds.reads.len() as u64);
    }

    #[test]
    fn reference_mode_compresses() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 6);
        let (_, stats) = SageCompressor::new()
            .with_reference(ds.reference.clone())
            .compress_detailed(&ds.reads)
            .unwrap();
        assert!(stats.dna_ratio() > 1.0);
        assert!(stats.n_unmapped < ds.reads.len() as u64 / 4);
    }
}
