//! Lossless quality-score compression (§5.1.5).
//!
//! Quality scores lack the consensus redundancy of DNA bases, so SAGe
//! compresses them as a separate stream in the *same (re-ordered) read
//! order* as the bases, and decompresses them on the host CPU (only a
//! small fraction of quality blocks is ever accessed, so this is never
//! on the critical path — §5.1.5).
//!
//! The codec is a context-modelled adaptive arithmetic coder — the
//! standard construction for quality streams, equivalent in strength to
//! the lossless mode the paper borrows from Spring. Each symbol is
//! coded under a context of the two preceding quality values
//! (quantized), and what is coded is the symbol's *rank in the chunk's
//! own alphabet*, not its byte value: a quality stream holds a handful
//! of distinct values (4–8 for binned Illumina, a few dozen for long
//! reads), so a tree over all 256 byte values spends most of its
//! binary decisions — each a serially dependent multiply, compare and
//! normalise in the decoder — on bits that carry no information.
//!
//! # Stream layout (container version 2)
//!
//! ```text
//! u16 LE   k, the number of distinct byte values in the chunk (0..=256)
//! k bytes  those values, most frequent first (ties: smaller byte first);
//!          a value's position in this table is its rank
//! body     range-coded ranks; empty when k <= 1
//! ```
//!
//! Per symbol the body codes one decision "is it rank 0?" and, if not,
//! `depth = ceil(log2(k - 1))` decisions walking a balanced bit-tree
//! whose leaves are ranks `1..k` (a leaf at or past `k` is corruption).
//! Every decision has its own adaptive [`BitModel`] per context; slot 0
//! of a context's `2^depth` models is the rank-0 decision and slots
//! `1..2^depth` are the tree's inner nodes. Contexts are formed from
//! the real byte values, so the modelling is the same as it would be
//! over raw bytes. Lengths are not stored — the decoder learns each
//! read's length from the DNA decompression path.
//!
//! Decoding reports truncated or inconsistent input as
//! [`QualityDecodeError`]: a malformed table, a rank outside the
//! alphabet, or the range decoder running past the end of the body
//! ([`RangeDecoder::overrun`]).

use crate::rangecoder::{BitModel, RangeDecoder, RangeEncoder};
use std::cmp::Reverse;

/// Number of buckets for the directly preceding quality value.
const PREV1_BUCKETS: usize = 16;
/// Number of buckets for the quality value two positions back.
const PREV2_BUCKETS: usize = 8;
/// Number of contexts a symbol can be coded under.
const CONTEXTS: usize = PREV1_BUCKETS * PREV2_BUCKETS;
/// The value both preceding positions are taken to hold at the start
/// of every read.
const START: u8 = b'I';
/// Bytes in front of the alphabet table: the symbol count.
const COUNT_BYTES: usize = 2;

#[inline]
fn bucket1(q: u8) -> usize {
    usize::from(q.saturating_sub(33)) / 3 % PREV1_BUCKETS
}

#[inline]
fn bucket2(q: u8) -> usize {
    usize::from(q.saturating_sub(33)) / 6 % PREV2_BUCKETS
}

#[inline]
fn context(prev1: u8, prev2: u8) -> usize {
    bucket1(prev1) * PREV2_BUCKETS + bucket2(prev2)
}

/// Depth of the balanced tree over ranks `1..k`, for `k >= 2`.
fn tree_depth(k: usize) -> u32 {
    (k - 1).next_power_of_two().trailing_zeros()
}

/// Compresses the quality strings of a read set (in storage order).
///
/// Returns the compressed bytes. Lengths are not stored — the decoder
/// learns each read's length from the DNA decompression path, exactly
/// as SAGe's pipeline does. The strings are walked twice: once to
/// count the chunk's alphabet, once to code it.
///
/// # Example
///
/// ```
/// use sage_core::quality::{compress_qualities, decompress_qualities};
///
/// let quals: Vec<&[u8]> = vec![b"IIIIFFFF", b"IIHH"];
/// let packed = compress_qualities(quals.iter().copied());
/// let back = decompress_qualities(&packed, &[8, 4]).unwrap();
/// assert_eq!(back[0], b"IIIIFFFF");
/// assert_eq!(back[1], b"IIHH");
/// ```
pub fn compress_qualities<'a, I>(quals: I) -> Vec<u8>
where
    I: IntoIterator<Item = &'a [u8]>,
    I::IntoIter: Clone,
{
    let quals = quals.into_iter();
    let mut counts = [0u64; 256];
    for q in quals.clone() {
        for &byte in q {
            counts[usize::from(byte)] += 1;
        }
    }
    let mut alphabet: Vec<u8> = (0..=u8::MAX)
        .filter(|&b| counts[usize::from(b)] > 0)
        .collect();
    alphabet.sort_by_key(|&b| (Reverse(counts[usize::from(b)]), b));
    let k = alphabet.len();
    let mut out = Vec::with_capacity(COUNT_BYTES + k);
    out.extend_from_slice(&(k as u16).to_le_bytes());
    out.extend_from_slice(&alphabet);
    if k < 2 {
        return out;
    }

    let mut rank_of = [0u8; 256];
    for (rank, &b) in alphabet.iter().enumerate() {
        rank_of[usize::from(b)] = rank as u8;
    }
    let depth = tree_depth(k);
    let mut models = vec![BitModel::new(); CONTEXTS << depth];
    let mut enc = RangeEncoder::new();
    for q in quals {
        let mut prev1 = START;
        let mut prev2 = START;
        for &byte in q {
            let m = &mut models[context(prev1, prev2) << depth..][..1 << depth];
            let rank = usize::from(rank_of[usize::from(byte)]);
            enc.encode_bit(&mut m[0], rank != 0);
            if rank != 0 {
                let leaf = rank - 1;
                let mut node = 1usize;
                for i in (0..depth).rev() {
                    let bit = (leaf >> i) & 1 == 1;
                    enc.encode_bit(&mut m[node], bit);
                    node = (node << 1) | usize::from(bit);
                }
            }
            prev2 = prev1;
            prev1 = byte;
        }
    }
    out.extend_from_slice(&enc.finish());
    out
}

/// Error returned when a quality stream cannot be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QualityDecodeError;

impl std::fmt::Display for QualityDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt quality stream")
    }
}

impl std::error::Error for QualityDecodeError {}

/// What the decoder needs to know about one rank: the byte it stands
/// for and that byte's two context contributions, so forming the next
/// context is a table lookup rather than arithmetic on the byte.
#[derive(Debug, Clone, Copy, Default)]
struct RankInfo {
    sym: u8,
    /// `bucket1(sym) * PREV2_BUCKETS`.
    ctx1: u8,
    /// `bucket2(sym)`.
    ctx2: u8,
}

impl RankInfo {
    fn of(sym: u8) -> RankInfo {
        RankInfo {
            sym,
            ctx1: (bucket1(sym) * PREV2_BUCKETS) as u8,
            ctx2: bucket2(sym) as u8,
        }
    }
}

/// Incremental quality decoder: decodes one read's quality string at a
/// time, in storage order, straight into the caller's buffer — quality
/// strings are consumed as reads are reconstructed.
#[derive(Debug, Clone)]
pub struct QualityDecoder<'a> {
    dec: RangeDecoder<'a>,
    /// `CONTEXTS << depth` models; empty when `k < 2`.
    models: Vec<BitModel>,
    ranks: [RankInfo; 256],
    k: usize,
    depth: u32,
}

impl<'a> QualityDecoder<'a> {
    /// Opens a decoder over a stream produced by
    /// [`compress_qualities`].
    ///
    /// # Errors
    ///
    /// Returns [`QualityDecodeError`] when the alphabet table is
    /// malformed (cut short, more than 256 symbols, a symbol listed
    /// twice) or the body cannot belong to it (bytes after a table of
    /// fewer than two symbols, fewer than the range coder's five
    /// start-up bytes otherwise).
    pub fn new(bytes: &'a [u8]) -> Result<QualityDecoder<'a>, QualityDecodeError> {
        let (count, rest) = bytes
            .split_first_chunk::<COUNT_BYTES>()
            .ok_or(QualityDecodeError)?;
        let k = usize::from(u16::from_le_bytes(*count));
        if k > 256 || rest.len() < k {
            return Err(QualityDecodeError);
        }
        let (alphabet, body) = rest.split_at(k);
        let mut ranks = [RankInfo::default(); 256];
        let mut seen = [false; 256];
        for (slot, &sym) in ranks.iter_mut().zip(alphabet) {
            if std::mem::replace(&mut seen[usize::from(sym)], true) {
                return Err(QualityDecodeError);
            }
            *slot = RankInfo::of(sym);
        }
        let dec = RangeDecoder::new(body);
        let (depth, models) = if k < 2 {
            if !body.is_empty() {
                return Err(QualityDecodeError);
            }
            (0, Vec::new())
        } else {
            if dec.overrun() {
                return Err(QualityDecodeError);
            }
            let depth = tree_depth(k);
            (depth, vec![BitModel::new(); CONTEXTS << depth])
        };
        Ok(QualityDecoder {
            dec,
            models,
            ranks,
            k,
            depth,
        })
    }

    /// Decodes the next read's quality string into `out`, whose length
    /// is the read's.
    ///
    /// # Errors
    ///
    /// Returns [`QualityDecodeError`] when the stream ends before `out`
    /// is filled or codes a rank its alphabet does not have; `out` then
    /// holds garbage.
    pub fn next_into(&mut self, out: &mut [u8]) -> Result<(), QualityDecodeError> {
        if self.k < 2 {
            // No body: every symbol is the alphabet's only one.
            if self.k == 0 && !out.is_empty() {
                return Err(QualityDecodeError);
            }
            out.fill(self.ranks[0].sym);
            return Ok(());
        }
        let depth = self.depth;
        let width = 1usize << depth;
        // The coder state lives in a local for the whole read, so it
        // stays in registers across the model loads and stores.
        let mut dec = self.dec;
        let start = RankInfo::of(START);
        let mut ctx1 = start.ctx1;
        let mut ctx2 = start.ctx2;
        let mut prev1_ctx2 = start.ctx2;
        let mut bad_rank = false;
        for slot in out.iter_mut() {
            let ctx = usize::from(ctx1) + usize::from(ctx2);
            let m = &mut self.models[ctx << depth..][..width];
            let rank = if dec.decode_bit(&mut m[0]) {
                let mut node = 1usize;
                for _ in 0..depth {
                    // `node` stays below `width` whenever it indexes;
                    // the mask only lets the bounds check go.
                    let bit = dec.decode_bit(&mut m[node & (width - 1)]);
                    node = (node << 1) | usize::from(bit);
                }
                node - width + 1
            } else {
                0
            };
            bad_rank |= rank >= self.k;
            let info = self.ranks[rank & 0xFF];
            *slot = info.sym;
            ctx2 = prev1_ctx2;
            prev1_ctx2 = info.ctx2;
            ctx1 = info.ctx1;
        }
        self.dec = dec;
        if bad_rank || dec.overrun() {
            return Err(QualityDecodeError);
        }
        Ok(())
    }
}

/// Decompresses quality strings; `lens[i]` is the length of read `i`'s
/// quality string (equal to its base count).
///
/// # Errors
///
/// Returns [`QualityDecodeError`] if the stream is malformed or too
/// short for the requested lengths.
pub fn decompress_qualities(
    bytes: &[u8],
    lens: &[usize],
) -> Result<Vec<Vec<u8>>, QualityDecodeError> {
    let mut dec = QualityDecoder::new(bytes)?;
    lens.iter()
        .map(|&len| {
            let mut q = vec![0u8; len];
            dec.next_into(&mut q).map(|()| q)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(quals: &[Vec<u8>]) -> Vec<u8> {
        let packed = compress_qualities(quals.iter().map(|q| q.as_slice()));
        let lens: Vec<usize> = quals.iter().map(|q| q.len()).collect();
        assert_eq!(decompress_qualities(&packed, &lens).unwrap(), quals);
        packed
    }

    #[test]
    fn round_trip_mixed_reads() {
        round_trip(&[
            b"IIIIIIIIII".to_vec(),
            b"IIIFFFAA##".to_vec(),
            b"#,2<7AFI#,".to_vec(),
            vec![],
            b"I".to_vec(),
        ]);
    }

    #[test]
    fn round_trip_at_every_alphabet_size_boundary() {
        // k = 0, 1, 2, 3 (depth 0 → 1), 5/6 (depth 2 → 3), 255, 256.
        for k in [0usize, 1, 2, 3, 4, 5, 6, 17, 255, 256] {
            let read: Vec<u8> = (0..3 * k).map(|i| (i % k.max(1)) as u8).collect();
            let packed = round_trip(&[read.clone(), vec![], read]);
            assert_eq!(usize::from(u16::from_le_bytes([packed[0], packed[1]])), k);
            if k < 2 {
                assert_eq!(packed.len(), COUNT_BYTES + k, "no body below two symbols");
            }
        }
    }

    /// Any change to these bytes is a format change: bump
    /// `container::VERSION` with it.
    #[test]
    fn golden_vector_pins_the_v2_layout() {
        let quals: [&[u8]; 3] = [b"IIIIFFII#I", b"", b"FFFI:I"];
        let packed = compress_qualities(quals.iter().copied());
        assert_eq!(
            packed,
            [4, 0, b'I', b'F', b'#', b':', 0, 11, 202, 175, 255, 182, 129, 138]
        );
        let back = decompress_qualities(&packed, &[10, 0, 6]).unwrap();
        assert_eq!(back, quals);
    }

    #[test]
    fn table_is_most_frequent_first_ties_by_byte_value() {
        let packed = compress_qualities([b"ZZZBBAAC".as_slice()].iter().copied());
        assert_eq!(&packed[..6], [4, 0, b'Z', b'A', b'B', b'C']);
    }

    #[test]
    fn binned_qualities_compress_strongly() {
        // Four-symbol Illumina-like stream: entropy ≈ 1 bit/symbol.
        let mut quals = Vec::new();
        for i in 0..200 {
            let mut q = vec![b'I'; 100];
            for (j, b) in q.iter_mut().enumerate() {
                if (i + j) % 13 == 0 {
                    *b = b'F';
                }
                if (i * j) % 97 == 0 {
                    *b = b'A';
                }
            }
            quals.push(q);
        }
        let total: usize = quals.iter().map(|q| q.len()).sum();
        let packed = round_trip(&quals);
        let ratio = total as f64 / packed.len() as f64;
        assert!(ratio > 4.0, "quality ratio only {ratio:.2}");
    }

    #[test]
    fn empty_input() {
        let packed = compress_qualities(std::iter::empty());
        assert_eq!(packed, [0, 0]);
        let back = decompress_qualities(&packed, &[]).unwrap();
        assert!(back.is_empty());
        assert!(decompress_qualities(&packed, &[0, 0]).is_ok());
        assert!(decompress_qualities(&packed, &[1]).is_err());
    }

    #[test]
    fn every_proper_prefix_is_an_error() {
        let mut x = 7u64;
        let quals: Vec<Vec<u8>> = (0..40)
            .map(|_| {
                (0..50)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        b"IIIIFF:#,"[(x >> 33) as usize % 9]
                    })
                    .collect()
            })
            .collect();
        let lens: Vec<usize> = quals.iter().map(|q| q.len()).collect();
        for quals in [&quals[..], &[b"IIII".to_vec()][..]] {
            let lens = &lens[..quals.len()];
            let packed = compress_qualities(quals.iter().map(|q| q.as_slice()));
            for cut in 0..packed.len() {
                assert!(
                    decompress_qualities(&packed[..cut], lens).is_err(),
                    "prefix of {cut}/{} bytes decoded",
                    packed.len()
                );
            }
        }
    }

    #[test]
    fn malformed_tables_are_rejected() {
        // Count past 256, count past the bytes there are, a symbol
        // listed twice, a body behind a one-symbol table.
        for bad in [
            &[1u8, 1][..],
            &[3, 0, b'I', b'F'],
            &[2, 0, b'I', b'I', 0, 0, 0, 0, 0],
            &[1, 0, b'I', 0],
        ] {
            assert!(QualityDecoder::new(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rank_outside_the_alphabet_is_rejected() {
        // Four symbols share a depth-2 tree with five: re-label a
        // five-symbol stream as four and the fifth rank has no byte.
        let mut packed = compress_qualities([b"ABCDEABCDEEEEE".as_slice()].iter().copied());
        assert_eq!(packed[0], 5);
        packed[0] = 4;
        packed.remove(COUNT_BYTES + 4);
        assert!(decompress_qualities(&packed, &[14]).is_err());
    }

    #[test]
    fn context_buckets_in_range() {
        for q in 0..=255u8 {
            assert!(context(q, q) < CONTEXTS);
            let info = RankInfo::of(q);
            assert_eq!(
                usize::from(info.ctx1) + usize::from(RankInfo::of(START).ctx2),
                context(q, START)
            );
            assert_eq!(
                usize::from(RankInfo::of(START).ctx1) + usize::from(info.ctx2),
                context(START, q)
            );
        }
    }
}
