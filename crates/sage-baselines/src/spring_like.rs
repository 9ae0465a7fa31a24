//! A Spring/NanoSpring-like genomic compressor.
//!
//! The paper's genomics-specific software baseline (§7): consensus-based
//! read compression — reorder reads by matching position, delta-encode,
//! and compress the resulting mismatch streams with a *general-purpose
//! backend compressor* (§2.2). That backend is exactly what makes such
//! tools strong in ratio but expensive to decompress: decompression
//! must inflate and traverse large in-memory streams with
//! pattern-matching (the resource profile of Table 3's Spring row,
//! 26 GB working sets), unlike SAGe's register-only streaming scans.
//!
//! Reuses the same mapper substrate as `sage-core` (top-1 matching
//! position only — no chimeric encoding, like Spring) and our
//! DEFLATE-like codec as the backend.

use crate::deflate::InflateError;
use crate::gzip_like::GzipLike;
use sage_core::consensus::{build_denovo, ConsensusConfig};
use sage_core::mapper::{mask_n, Mapper, MapperConfig};
use sage_core::quality::{compress_qualities, decompress_qualities};
use sage_genomics::{Alignment, Base, DnaSeq, Edit, Read, ReadSet, Segment};
use std::fmt;
use std::time::Instant;

/// Compression statistics (mirrors the SAGe side for fair Fig. 18 and
/// Table 2 comparisons).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpringStats {
    /// Input DNA bytes.
    pub uncompressed_dna_bytes: u64,
    /// Output DNA bytes.
    pub compressed_dna_bytes: u64,
    /// Input quality bytes.
    pub uncompressed_quality_bytes: u64,
    /// Output quality bytes.
    pub compressed_quality_bytes: u64,
    /// Wall time finding mismatches (consensus + mapping).
    pub find_mismatch_secs: f64,
    /// Wall time in the backend encoder.
    pub encode_secs: f64,
}

impl SpringStats {
    /// DNA compression ratio.
    pub fn dna_ratio(&self) -> f64 {
        if self.compressed_dna_bytes == 0 {
            return 0.0;
        }
        self.uncompressed_dna_bytes as f64 / self.compressed_dna_bytes as f64
    }

    /// Quality compression ratio.
    pub fn quality_ratio(&self) -> f64 {
        if self.compressed_quality_bytes == 0 {
            return 0.0;
        }
        self.uncompressed_quality_bytes as f64 / self.compressed_quality_bytes as f64
    }
}

/// Error from Spring-like decompression.
#[derive(Debug)]
pub enum SpringError {
    /// Backend inflate failure.
    Inflate(InflateError),
    /// Structural corruption.
    Corrupt(String),
}

impl fmt::Display for SpringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpringError::Inflate(e) => write!(f, "{e}"),
            SpringError::Corrupt(m) => write!(f, "corrupt spring-like archive: {m}"),
        }
    }
}

impl std::error::Error for SpringError {}

impl From<InflateError> for SpringError {
    fn from(e: InflateError) -> SpringError {
        SpringError::Inflate(e)
    }
}

/// A Spring-like archive: independently deflated byte streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpringArchive {
    n_reads: u64,
    fixed_len: Option<u32>,
    consensus_len: u64,
    /// Deflated sections, in a fixed order.
    sections: Vec<Vec<u8>>,
    /// Inflated section sizes (decompression working set).
    raw_sizes: Vec<u64>,
    /// Quality stream (`sage_core::quality`).
    qual: Vec<u8>,
}

/// Section indices.
const SEC_CONSENSUS: usize = 0;
const SEC_FLAGS: usize = 1;
const SEC_LENS: usize = 2;
const SEC_POS: usize = 3;
const SEC_COUNTS: usize = 4;
const SEC_EDIT_POS: usize = 5;
const SEC_EDIT_TYPE: usize = 6;
const SEC_EDIT_LEN: usize = 7;
const SEC_BASES: usize = 8;
const SEC_AUX: usize = 9;
const N_SECTIONS: usize = 10;

impl SpringArchive {
    /// Compressed DNA size in bytes.
    pub fn dna_bytes(&self) -> usize {
        64 + self.sections.iter().map(|s| s.len()).sum::<usize>()
    }

    /// Compressed quality size in bytes.
    pub fn quality_bytes(&self) -> usize {
        self.qual.len()
    }

    /// The decompression working set: every stream must be inflated
    /// into memory (plus the consensus) before reads can be
    /// reconstructed — the resource profile that makes this class of
    /// tool unsuitable for in-storage processing (§3.2).
    pub fn decompression_workset_bytes(&self) -> usize {
        self.raw_sizes.iter().sum::<u64>() as usize
    }
}

/// The Spring/NanoSpring-like compressor.
///
/// # Example
///
/// ```
/// use sage_baselines::SpringLike;
/// use sage_genomics::sim::{simulate_dataset, DatasetProfile};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ds = simulate_dataset(&DatasetProfile::tiny_short(), 3);
/// let spring = SpringLike::new();
/// let archive = spring.compress(&ds.reads);
/// let reads = spring.decompress(&archive)?;
/// assert_eq!(reads.len(), ds.reads.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SpringLike {
    mapper: MapperConfig,
    backend: GzipLike,
}

impl Default for SpringLike {
    fn default() -> SpringLike {
        SpringLike::new()
    }
}

impl SpringLike {
    /// Creates a compressor with Spring/NanoSpring-like defaults
    /// (NanoSpring's approximate assembly lets reads align in several
    /// pieces, so multi-segment records are allowed; 1 MiB backend
    /// blocks).
    pub fn new() -> SpringLike {
        SpringLike {
            mapper: MapperConfig::default(),
            backend: GzipLike::new().with_chunk_size(1024 * 1024),
        }
    }

    /// Compresses a read set.
    pub fn compress(&self, reads: &ReadSet) -> SpringArchive {
        self.compress_detailed(reads).0
    }

    /// Compresses a read set, returning statistics.
    pub fn compress_detailed(&self, reads: &ReadSet) -> (SpringArchive, SpringStats) {
        let t_find = Instant::now();
        let ccfg = ConsensusConfig {
            k: self.mapper.k,
            w: self.mapper.w,
            ..ConsensusConfig::default()
        };
        let consensus = build_denovo(reads, &ccfg);
        let mapper = Mapper::new(
            consensus.seq.as_slice(),
            &consensus.index,
            self.mapper.clone(),
        );
        let masked: Vec<Vec<Base>> = reads.iter().map(|r| mask_n(r.seq.as_slice())).collect();
        let alignments: Vec<Alignment> = masked.iter().map(|m| mapper.map(m)).collect();
        let find_mismatch_secs = t_find.elapsed().as_secs_f64();

        let t_enc = Instant::now();
        let n = reads.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (alignments[i].sort_key(), i));
        let fixed_len = reads
            .is_fixed_length()
            .then(|| reads.reads().first().map_or(0, |r| r.len() as u32));

        let mut raw: Vec<Vec<u8>> = vec![Vec::new(); N_SECTIONS];
        raw[SEC_CONSENSUS] = consensus.seq.iter().map(|b| b.code2()).collect();
        let mut prev_pos = 0u64;
        for &i in &order {
            let read = &reads.reads()[i];
            let a = &alignments[i];
            let npos = read.seq.n_positions();
            let mapped = !a.is_unmapped();
            let rev = mapped && a.segments[0].rev;
            let has_clip = !a.clip_start.is_empty() || !a.clip_end.is_empty();
            let mut flags = 0u8;
            if mapped {
                flags |= 1;
            }
            if rev {
                flags |= 2;
            }
            if !npos.is_empty() {
                flags |= 4;
            }
            if has_clip {
                flags |= 8;
            }
            if mapped {
                flags |= ((a.segments.len() as u8 - 1) & 0x3) << 4;
            }
            raw[SEC_FLAGS].push(flags);
            if fixed_len.is_none() {
                put_varint(&mut raw[SEC_LENS], read.len() as u64);
            }
            if !npos.is_empty() {
                put_varint(&mut raw[SEC_AUX], npos.len() as u64);
                for p in &npos {
                    put_varint(&mut raw[SEC_AUX], *p as u64);
                }
            }
            if !mapped {
                raw[SEC_BASES].extend(masked[i].iter().map(|b| b.code2()));
                continue;
            }
            let key = a.sort_key();
            put_varint(&mut raw[SEC_POS], key - prev_pos);
            prev_pos = key;
            if has_clip {
                put_varint(&mut raw[SEC_AUX], a.clip_start.len() as u64);
                put_varint(&mut raw[SEC_AUX], a.clip_end.len() as u64);
                raw[SEC_BASES].extend(a.clip_start.iter().map(|b| b.code2()));
                raw[SEC_BASES].extend(a.clip_end.iter().map(|b| b.code2()));
            }
            // Extra chimeric segments: boundary + absolute position +
            // orientation byte (NanoSpring-style piecewise alignment).
            for seg in &a.segments[1..] {
                put_varint(&mut raw[SEC_AUX], u64::from(seg.read_start));
                put_varint(&mut raw[SEC_POS], seg.cons_pos);
                raw[SEC_FLAGS].push(u8::from(seg.rev));
            }
            for seg in &a.segments {
                put_varint(&mut raw[SEC_COUNTS], seg.edits.len() as u64);
                let mut prev_off = 0u32;
                for e in &seg.edits {
                    put_varint(&mut raw[SEC_EDIT_POS], u64::from(e.read_off() - prev_off));
                    prev_off = e.read_off();
                    match e {
                        Edit::Sub { base, .. } => {
                            raw[SEC_EDIT_TYPE].push(0);
                            raw[SEC_BASES].push(base.code2());
                        }
                        Edit::Ins { bases, .. } => {
                            raw[SEC_EDIT_TYPE].push(1);
                            put_varint(&mut raw[SEC_EDIT_LEN], bases.len() as u64);
                            raw[SEC_BASES].extend(bases.iter().map(|b| b.code2()));
                        }
                        Edit::Del { len, .. } => {
                            raw[SEC_EDIT_TYPE].push(2);
                            put_varint(&mut raw[SEC_EDIT_LEN], u64::from(*len));
                        }
                    }
                }
            }
        }
        let raw_sizes: Vec<u64> = raw.iter().map(|s| s.len() as u64).collect();
        let sections: Vec<Vec<u8>> = raw.iter().map(|s| self.backend.compress(s)).collect();
        let qual = if !reads.is_empty() && reads.iter().all(|r| r.qual.is_some()) {
            compress_qualities(
                order
                    .iter()
                    .map(|&i| reads.reads()[i].qual.as_deref().unwrap_or(&[])),
            )
        } else {
            Vec::new()
        };
        let archive = SpringArchive {
            n_reads: n as u64,
            fixed_len,
            consensus_len: consensus.seq.len() as u64,
            sections,
            raw_sizes,
            qual,
        };
        let stats = SpringStats {
            uncompressed_dna_bytes: reads.total_bases() as u64,
            compressed_dna_bytes: archive.dna_bytes() as u64,
            uncompressed_quality_bytes: reads.total_quality_bytes() as u64,
            compressed_quality_bytes: archive.quality_bytes() as u64,
            find_mismatch_secs,
            encode_secs: t_enc.elapsed().as_secs_f64(),
        };
        (archive, stats)
    }

    /// Decompresses an archive.
    ///
    /// # Errors
    ///
    /// Returns [`SpringError`] on malformed archives.
    pub fn decompress(&self, archive: &SpringArchive) -> Result<ReadSet, SpringError> {
        if archive.sections.len() != N_SECTIONS {
            return Err(SpringError::Corrupt("wrong section count".into()));
        }
        let raw: Vec<Vec<u8>> = archive
            .sections
            .iter()
            .map(|s| self.backend.decompress(s))
            .collect::<Result<_, _>>()?;
        let cons: Vec<Base> = raw[SEC_CONSENSUS]
            .iter()
            .map(|&c| Base::from_code2(c & 3))
            .collect();
        let n = archive.n_reads as usize;
        let mut cur = [0usize; N_SECTIONS];
        let mut prev_pos = 0u64;
        let mut seqs: Vec<DnaSeq> = Vec::with_capacity(n);
        let mut lens = Vec::with_capacity(n);
        for _ in 0..n {
            let flags = *raw[SEC_FLAGS]
                .get(cur[SEC_FLAGS])
                .ok_or_else(|| SpringError::Corrupt("flags exhausted".into()))?;
            cur[SEC_FLAGS] += 1;
            let mapped = flags & 1 != 0;
            let rev = flags & 2 != 0;
            let has_n = flags & 4 != 0;
            let has_clip = flags & 8 != 0;
            let n_segs = if mapped {
                (usize::from(flags >> 4) & 0x3) + 1
            } else {
                0
            };
            let len = match archive.fixed_len {
                Some(l) => l as usize,
                None => get_varint(&raw[SEC_LENS], &mut cur[SEC_LENS])
                    .ok_or_else(|| SpringError::Corrupt("length stream exhausted".into()))?
                    as usize,
            };
            let mut npos: Vec<usize> = Vec::new();
            if has_n {
                let count = get_varint(&raw[SEC_AUX], &mut cur[SEC_AUX])
                    .ok_or_else(|| SpringError::Corrupt("aux exhausted".into()))?
                    as usize;
                for _ in 0..count {
                    npos.push(
                        get_varint(&raw[SEC_AUX], &mut cur[SEC_AUX])
                            .ok_or_else(|| SpringError::Corrupt("aux exhausted".into()))?
                            as usize,
                    );
                }
            }
            let mut bases: Vec<Base>;
            if !mapped {
                bases = take_bases(&raw[SEC_BASES], &mut cur[SEC_BASES], len)?;
            } else {
                let delta = get_varint(&raw[SEC_POS], &mut cur[SEC_POS])
                    .ok_or_else(|| SpringError::Corrupt("pos exhausted".into()))?;
                let pos = prev_pos + delta;
                prev_pos = pos;
                let (clip_start, clip_end) = if has_clip {
                    let cs = get_varint(&raw[SEC_AUX], &mut cur[SEC_AUX])
                        .ok_or_else(|| SpringError::Corrupt("aux exhausted".into()))?
                        as usize;
                    let ce = get_varint(&raw[SEC_AUX], &mut cur[SEC_AUX])
                        .ok_or_else(|| SpringError::Corrupt("aux exhausted".into()))?
                        as usize;
                    if cs + ce > len {
                        return Err(SpringError::Corrupt("clips exceed read".into()));
                    }
                    let s = take_bases(&raw[SEC_BASES], &mut cur[SEC_BASES], cs)?;
                    let e = take_bases(&raw[SEC_BASES], &mut cur[SEC_BASES], ce)?;
                    (s, e)
                } else {
                    (Vec::new(), Vec::new())
                };
                // Segment metadata: (read_start, cons_pos, rev).
                let mut seg_meta: Vec<(u32, u64, bool)> = vec![(clip_start.len() as u32, pos, rev)];
                for _ in 1..n_segs {
                    let rs = get_varint(&raw[SEC_AUX], &mut cur[SEC_AUX])
                        .ok_or_else(|| SpringError::Corrupt("aux exhausted".into()))?;
                    let cp = get_varint(&raw[SEC_POS], &mut cur[SEC_POS])
                        .ok_or_else(|| SpringError::Corrupt("pos exhausted".into()))?;
                    let rv = *raw[SEC_FLAGS]
                        .get(cur[SEC_FLAGS])
                        .ok_or_else(|| SpringError::Corrupt("flags exhausted".into()))?;
                    cur[SEC_FLAGS] += 1;
                    seg_meta.push((
                        u32::try_from(rs)
                            .map_err(|_| SpringError::Corrupt("boundary overflow".into()))?,
                        cp,
                        rv & 1 != 0,
                    ));
                }
                let mut segments = Vec::with_capacity(n_segs);
                for si in 0..n_segs {
                    let count = get_varint(&raw[SEC_COUNTS], &mut cur[SEC_COUNTS])
                        .ok_or_else(|| SpringError::Corrupt("counts exhausted".into()))?
                        as usize;
                    let mut edits = Vec::with_capacity(count);
                    let mut prev_off = 0u64;
                    for _ in 0..count {
                        let d = get_varint(&raw[SEC_EDIT_POS], &mut cur[SEC_EDIT_POS])
                            .ok_or_else(|| SpringError::Corrupt("edit pos exhausted".into()))?;
                        let off = u32::try_from(prev_off + d)
                            .map_err(|_| SpringError::Corrupt("offset overflow".into()))?;
                        prev_off = u64::from(off);
                        let ty = *raw[SEC_EDIT_TYPE]
                            .get(cur[SEC_EDIT_TYPE])
                            .ok_or_else(|| SpringError::Corrupt("edit types exhausted".into()))?;
                        cur[SEC_EDIT_TYPE] += 1;
                        match ty {
                            0 => {
                                let b = take_bases(&raw[SEC_BASES], &mut cur[SEC_BASES], 1)?;
                                edits.push(Edit::Sub {
                                    read_off: off,
                                    base: b[0],
                                });
                            }
                            1 => {
                                let l = get_varint(&raw[SEC_EDIT_LEN], &mut cur[SEC_EDIT_LEN])
                                    .ok_or_else(|| {
                                        SpringError::Corrupt("edit len exhausted".into())
                                    })? as usize;
                                let b = take_bases(&raw[SEC_BASES], &mut cur[SEC_BASES], l)?;
                                edits.push(Edit::Ins {
                                    read_off: off,
                                    bases: b,
                                });
                            }
                            2 => {
                                let l = get_varint(&raw[SEC_EDIT_LEN], &mut cur[SEC_EDIT_LEN])
                                    .ok_or_else(|| {
                                        SpringError::Corrupt("edit len exhausted".into())
                                    })?;
                                edits.push(Edit::Del {
                                    read_off: off,
                                    len: u32::try_from(l)
                                        .map_err(|_| SpringError::Corrupt("del overflow".into()))?,
                                });
                            }
                            other => {
                                return Err(SpringError::Corrupt(format!("bad edit type {other}")))
                            }
                        }
                    }
                    let read_end = if si + 1 < n_segs {
                        seg_meta[si + 1].0
                    } else {
                        (len - clip_end.len()) as u32
                    };
                    segments.push(Segment {
                        read_start: seg_meta[si].0,
                        read_end,
                        cons_pos: seg_meta[si].1,
                        rev: seg_meta[si].2,
                        edits,
                    });
                }
                let aln = Alignment {
                    clip_start,
                    clip_end,
                    segments,
                };
                if !aln.is_well_formed(len)
                    || aln
                        .segments
                        .iter()
                        .any(|s| !sage_core::mapper::segment_decodable(s, &cons))
                {
                    return Err(SpringError::Corrupt("undecodable alignment".into()));
                }
                bases = aln.reconstruct(&cons).into_bases();
            }
            for p in npos {
                if p >= bases.len() {
                    return Err(SpringError::Corrupt("N position out of range".into()));
                }
                bases[p] = Base::N;
            }
            lens.push(bases.len());
            seqs.push(DnaSeq::from_bases(bases));
        }
        let quals = if archive.qual.is_empty() {
            None
        } else {
            Some(
                decompress_qualities(&archive.qual, &lens)
                    .map_err(|_| SpringError::Corrupt("quality stream truncated".into()))?,
            )
        };
        Ok(ReadSet::from_reads(
            seqs.into_iter()
                .enumerate()
                .map(|(i, seq)| Read {
                    id: None,
                    qual: quals.as_ref().map(|q| q[i].clone()),
                    seq,
                })
                .collect(),
        ))
    }
}

fn take_bases(raw: &[u8], cur: &mut usize, n: usize) -> Result<Vec<Base>, SpringError> {
    if *cur + n > raw.len() {
        return Err(SpringError::Corrupt("bases exhausted".into()));
    }
    let out = raw[*cur..*cur + n]
        .iter()
        .map(|&c| Base::from_code2(c & 3))
        .collect();
    *cur += n;
    Ok(out)
}

/// LEB128 varint encoding.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// LEB128 varint decoding; advances `cur`. Returns `None` past the end
/// or on overlong encodings.
pub fn get_varint(data: &[u8], cur: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*cur)?;
        *cur += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};

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
    fn varint_round_trip() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut cur = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut cur), Some(v));
        }
        assert_eq!(cur, buf.len());
    }

    #[test]
    fn short_read_round_trip() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 31);
        let spring = SpringLike::new();
        let (archive, stats) = spring.compress_detailed(&ds.reads);
        assert!(stats.dna_ratio() > 1.5, "ratio {}", stats.dna_ratio());
        let out = spring.decompress(&archive).unwrap();
        assert_same_content(&ds.reads, &out);
    }

    #[test]
    fn long_read_round_trip() {
        let ds = simulate_dataset(&DatasetProfile::tiny_long(), 32);
        let spring = SpringLike::new();
        let archive = spring.compress(&ds.reads);
        let out = spring.decompress(&archive).unwrap();
        assert_same_content(&ds.reads, &out);
    }

    #[test]
    fn workset_includes_all_streams() {
        let ds = simulate_dataset(&DatasetProfile::tiny_short(), 33);
        let archive = SpringLike::new().compress(&ds.reads);
        // The inflated working set must exceed the compressed size and
        // include at least the consensus.
        assert!(archive.decompression_workset_bytes() >= archive.consensus_len as usize);
    }

    #[test]
    fn empty_read_set() {
        let spring = SpringLike::new();
        let archive = spring.compress(&ReadSet::new());
        let out = spring.decompress(&archive).unwrap();
        assert!(out.is_empty());
    }
}
