//! Lossless quality-score compression (§5.1.5).
//!
//! Quality scores lack the consensus redundancy of DNA bases, so SAGe
//! compresses them as a separate stream in the *same (re-ordered) read
//! order* as the bases, and decompresses them on the host CPU — which
//! is only sound if that is cheap there. The codec therefore follows
//! the recipe the rest of the format uses (§5.1: tuned arrays decoded
//! through tables the header describes): count, store the table, decode
//! by look-up. Each symbol is coded under one of 128 contexts — 16
//! buckets of the preceding quality value × which eighth of its read
//! the symbol is in — with that context's *static* frequency table,
//! over four interleaved rANS lanes (Duda, arXiv:1311.2540). Nothing
//! adapts, so decoding a symbol is two table look-ups and a multiply,
//! and the four lanes are independent instruction streams the CPU
//! overlaps. What is coded is the symbol's *rank in the chunk's own
//! alphabet*, not its byte value: a quality stream holds a handful of
//! distinct values (4–8 for binned Illumina, a few dozen for long
//! reads).
//!
//! # Stream layout (container version 3)
//!
//! ```text
//! u16 LE   k, the number of distinct byte values in the chunk (0..=256)
//! k bytes  those values, most frequent first (ties: smaller byte first);
//!          a value's position in this table is its rank
//! -- the rest only when k >= 2 --
//! u32 LE   T, the byte length of the frequency tables
//! T bytes  the tables, bit-packed LSB first, unused bits of the last
//!          byte zero. For each context 0..128, in order:
//!            1 bit    used (some symbol is coded under this context)
//!            if used:
//!            k bits   present[rank] (at least one set)
//!            10 bits  freq - 1, for every present rank but the last;
//!                     the last present rank takes what is left of 1024
//!                     (at least 1)
//! 4 x u32 LE   the rANS state of lanes 0..4, each in [2^16, 2^32)
//! u16 LE ...   the renormalisation words, in the order decoding needs them
//! ```
//!
//! A read of `n` symbols is cut into quarters at `n/4`, `n/2`, `3n/4`
//! (rounded down) and lane `l` codes quarter `l` of every read; a
//! quarter's first `n/8` symbols are its first half. A symbol's context
//! is `(2 * lane + half) * 16 + bucket(prev)`, where `prev` is the
//! preceding symbol of the same quarter, `b'I'` at the quarter's first.
//! Lane states carry over from read to read. The decoder steps the four
//! lanes in lock-step — symbol `t` of every quarter, lane 0 first, then
//! the one symbol more that some quarters hold — and one step of one
//! lane with state `x` under the context's table is
//!
//! ```text
//! slot = x & 1023
//! rank = lut[table][slot]             // whose span of [0, 1024) holds slot
//! (start, freq) = spans[table][rank]
//! x    = freq * (x >> 10) + slot - start
//! if x < 2^16 { x = x << 16 | next word }
//! ```
//!
//! The encoder counts in one pass over the strings and codes in a
//! second, backwards, so the words come out in the order above.
//! Lengths are not stored — the decoder learns each read's length from
//! the DNA decompression path.
//!
//! Decoding reports truncated or inconsistent input as
//! [`QualityDecodeError`]: a malformed alphabet or frequency table, a
//! cut or out-of-range lane state, a symbol coded under a context the
//! tables leave unused, the words running out. The coder also gives an
//! integrity check for free: once a chunk's last read is decoded every
//! word has been consumed and every lane is back at its start state
//! `2^16` ([`QualityDecoder::is_spent`]); a corrupt body that still
//! decodes ends somewhere else.

use crate::bitio::{BitReader, BitWriter};
use std::cmp::Reverse;

/// Number of buckets for the preceding quality value.
const BUCKETS: usize = 16;
/// Independent rANS lanes; lane `l` codes quarter `l` of every read.
const LANES: usize = 4;
/// Number of contexts a symbol can be coded under: the preceding
/// value's bucket × the eighth of the read (two per lane).
const CONTEXTS: usize = 2 * LANES * BUCKETS;
/// The value the preceding position is taken to hold at the start of
/// every quarter.
const START: u8 = b'I';
/// Bytes in front of the alphabet table: the symbol count.
const COUNT_BYTES: usize = 2;
/// Every context's frequencies sum to `1 << SCALE_BITS`.
const SCALE_BITS: u32 = 10;
const SCALE: usize = 1 << SCALE_BITS;
/// A lane's state stays in `[LOW, 2^32)`; it starts (encoder) and ends
/// (decoder) at `LOW`.
const LOW: u32 = 1 << 16;

#[inline]
fn bucket(q: u8) -> usize {
    usize::from(q.saturating_sub(33)) / 3 % BUCKETS
}

/// The row of contexts (one per bucket) for a symbol of `lane`'s
/// quarter, in the quarter's second half or not.
#[inline]
fn eighth(lane: usize, second_half: bool) -> usize {
    2 * lane + usize::from(second_half)
}

/// Where a read of `n` symbols is cut: quarter `l` is
/// `bounds[l]..bounds[l + 1]`, and the first `mid` symbols of a quarter
/// are its first half.
fn split(n: usize) -> ([usize; LANES + 1], usize) {
    // `l * n / 4` without the product, which a huge `n` overflows.
    let bounds = [0, 1, 2, 3, 4].map(|l| n / 4 * l + n % 4 * l / 4);
    (bounds, n / 8)
}

/// One rank's share `start..start + freq` of a context's `[0, SCALE)`.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u16,
    freq: u16,
}

/// Scales `counts` to frequencies summing to exactly [`SCALE`]: zero
/// where the count is zero, at least one elsewhere, every zero when
/// nothing was counted. Shares are rounded down and what is left goes
/// to the largest remainders; when the floor of one pushed the sum
/// past `SCALE`, the excess comes off the largest frequencies. Ties go
/// to the smaller index, so equal counts give equal tables on every
/// run.
fn normalise(counts: &[u64]) -> Vec<u16> {
    debug_assert!(counts.len() <= SCALE);
    let total: u128 = counts.iter().map(|&c| u128::from(c)).sum();
    let mut freqs = vec![0u16; counts.len()];
    // (remainder of the rounded-down share, index) of counted symbols.
    let mut shares: Vec<(u128, usize)> = Vec::new();
    let mut sum = 0usize;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 {
            let scaled = u128::from(c) * SCALE as u128;
            freqs[i] = ((scaled / total) as u16).max(1);
            sum += usize::from(freqs[i]);
            shares.push((scaled % total, i));
        }
    }
    shares.sort_unstable_by_key(|&(rem, i)| (Reverse(rem), i));
    for &(_, i) in shares.iter().cycle().take(SCALE.saturating_sub(sum)) {
        freqs[i] += 1;
    }
    let mut excess = sum.saturating_sub(SCALE);
    while excess > 0 {
        let (i, &f) = (freqs.iter().enumerate())
            .max_by_key(|&(i, &f)| (f, Reverse(i)))
            .expect("some symbol was counted");
        let take = excess.min(usize::from(f) - 1);
        freqs[i] -= take as u16;
        excess -= take;
    }
    freqs
}

/// Compresses the quality strings of a read set (in storage order).
///
/// Returns the compressed bytes. Lengths are not stored — the decoder
/// learns each read's length from the DNA decompression path, exactly
/// as SAGe's pipeline does. The strings are walked twice: once to
/// count every context's symbols, once — backwards — to code them.
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
{
    let quals: Vec<&[u8]> = quals.into_iter().collect();
    // counts[context][byte value]
    let mut counts = vec![[0u64; 256]; CONTEXTS];
    for q in &quals {
        let (bounds, mid) = split(q.len());
        for lane in 0..LANES {
            let mut prev = START;
            for (t, &byte) in q[bounds[lane]..bounds[lane + 1]].iter().enumerate() {
                counts[eighth(lane, t >= mid) * BUCKETS + bucket(prev)][usize::from(byte)] += 1;
                prev = byte;
            }
        }
    }
    let totals: [u64; 256] = std::array::from_fn(|b| counts.iter().map(|row| row[b]).sum());
    let mut alphabet: Vec<u8> = (0..=u8::MAX)
        .filter(|&b| totals[usize::from(b)] > 0)
        .collect();
    alphabet.sort_by_key(|&b| (Reverse(totals[usize::from(b)]), b));
    let k = alphabet.len();
    let mut out = Vec::with_capacity(COUNT_BYTES + k);
    out.extend_from_slice(&(k as u16).to_le_bytes());
    out.extend_from_slice(&alphabet);
    if k < 2 {
        return out;
    }

    let mut rank_of = [0usize; 256];
    for (rank, &b) in alphabet.iter().enumerate() {
        rank_of[usize::from(b)] = rank;
    }
    let mut tables = BitWriter::new();
    // spans[context * k + rank]
    let mut spans = vec![Span::default(); CONTEXTS * k];
    let mut by_rank = vec![0u64; k];
    for (row, spans) in counts.iter().zip(spans.chunks_exact_mut(k)) {
        for (n, &b) in by_rank.iter_mut().zip(&alphabet) {
            *n = row[usize::from(b)];
        }
        let freqs = normalise(&by_rank);
        let Some(last) = freqs.iter().rposition(|&f| f > 0) else {
            tables.write_bit(false);
            continue;
        };
        tables.write_bit(true);
        for &f in &freqs {
            tables.write_bit(f > 0);
        }
        let mut start = 0;
        for (rank, &freq) in freqs.iter().enumerate().filter(|&(_, &f)| f > 0) {
            if rank != last {
                tables.write_bits(u64::from(freq - 1), SCALE_BITS);
            }
            spans[rank] = Span { start, freq };
            start += freq;
        }
    }
    let (tables, _) = tables.finish();
    out.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    out.extend_from_slice(&tables);

    // The decoder's order, backwards: it pops what is pushed here.
    let mut x = [LOW; LANES];
    let mut words: Vec<u16> = Vec::new();
    for q in quals.iter().rev() {
        let (bounds, mid) = split(q.len());
        let common = q.len() / 4;
        let mut code = |lane: usize, t: usize| {
            let at = bounds[lane] + t;
            let prev = if t == 0 { START } else { q[at - 1] };
            let context = eighth(lane, t >= mid) * BUCKETS + bucket(prev);
            let Span { start, freq } = spans[context * k + rank_of[usize::from(q[at])]];
            let x = &mut x[lane];
            // Past this the step below would leave the 32 bits.
            if u64::from(*x) >= u64::from(freq) << (32 - SCALE_BITS) {
                words.push(*x as u16);
                *x >>= 16;
            }
            let freq = u32::from(freq);
            *x = ((*x / freq) << SCALE_BITS) + *x % freq + u32::from(start);
        };
        for lane in (0..LANES).rev() {
            if bounds[lane + 1] - bounds[lane] > common {
                code(lane, common);
            }
        }
        for t in (0..common).rev() {
            for lane in (0..LANES).rev() {
                code(lane, t);
            }
        }
    }
    out.reserve(4 * LANES + 2 * words.len());
    out.extend(x.iter().flat_map(|x| x.to_le_bytes()));
    out.extend(words.iter().rev().flat_map(|w| w.to_le_bytes()));
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

/// Incremental quality decoder: decodes one read's quality string at a
/// time, in storage order, straight into the caller's buffer — quality
/// strings are consumed as reads are reconstructed.
#[derive(Debug, Clone)]
pub struct QualityDecoder<'a> {
    /// The lane states, between reads.
    x: [u32; LANES],
    /// The renormalisation words not yet consumed.
    words: std::slice::ChunksExact<'a, u8>,
    /// `SCALE` ranks per table: the rank whose span holds each slot.
    /// Table 0 stands for every unused context (its one span is empty);
    /// tables `1..` are the used contexts in order.
    lut: Vec<u8>,
    /// `k` spans per table, by rank.
    spans: Vec<Span>,
    /// The byte each rank stands for.
    syms: [u8; 256],
    /// `next_table[eighth][rank]`: the table of the context that follows
    /// the rank's byte in that eighth of a read.
    next_table: [[u8; 256]; 2 * LANES],
    /// The table of each eighth's context after [`START`].
    start_table: [u8; 2 * LANES],
    k: usize,
}

impl<'a> QualityDecoder<'a> {
    /// Opens a decoder over a stream produced by
    /// [`compress_qualities`].
    ///
    /// # Errors
    ///
    /// Returns [`QualityDecodeError`] when the alphabet table is
    /// malformed (cut short, more than 256 symbols, a symbol listed
    /// twice), when bytes follow a table of fewer than two symbols, or
    /// — with two symbols or more — when the frequency tables are
    /// malformed (their length past the body, cut short or padded, a
    /// used context with no present symbol, frequencies that leave
    /// nothing for the last one), a lane state is cut short or below
    /// `2^16`, or the words end in half a word.
    pub fn new(bytes: &'a [u8]) -> Result<QualityDecoder<'a>, QualityDecodeError> {
        let (count, rest) = bytes
            .split_first_chunk::<COUNT_BYTES>()
            .ok_or(QualityDecodeError)?;
        let k = usize::from(u16::from_le_bytes(*count));
        if k > 256 || rest.len() < k {
            return Err(QualityDecodeError);
        }
        let (alphabet, body) = rest.split_at(k);
        let mut syms = [0u8; 256];
        let mut seen = [false; 256];
        for (slot, &sym) in syms.iter_mut().zip(alphabet) {
            if std::mem::replace(&mut seen[usize::from(sym)], true) {
                return Err(QualityDecodeError);
            }
            *slot = sym;
        }
        let mut dec = QualityDecoder {
            x: [LOW; LANES],
            words: body.chunks_exact(2),
            lut: Vec::new(),
            spans: Vec::new(),
            syms,
            next_table: [[0; 256]; 2 * LANES],
            start_table: [0; 2 * LANES],
            k,
        };
        if k < 2 {
            // No body: every symbol is the alphabet's only one.
            return body.is_empty().then_some(dec).ok_or(QualityDecodeError);
        }

        let (len, body) = body.split_first_chunk::<4>().ok_or(QualityDecodeError)?;
        let len = usize::try_from(u32::from_le_bytes(*len)).map_err(|_| QualityDecodeError)?;
        let (tables, body) = body.split_at_checked(len).ok_or(QualityDecodeError)?;
        let mut bits = BitReader::new(tables, 8 * len as u64);
        // Table 0 stands for every unused context: `k` empty spans.
        // A table is added when its context turns out used, so the
        // length the stream claims buys no memory: 129 tables at most.
        let mut table_of = [0u8; CONTEXTS];
        dec.spans = Vec::with_capacity((CONTEXTS + 1) * k);
        dec.spans.resize(k, Span::default());
        let mut present = [false; 256];
        for table in &mut table_of {
            if !bits.read_bit()? {
                continue;
            }
            let base = dec.spans.len();
            *table = (base / k) as u8;
            dec.spans.resize(base + k, Span::default());
            for p in &mut present[..k] {
                *p = bits.read_bit()?;
            }
            let last = (present[..k].iter())
                .rposition(|&p| p)
                .ok_or(QualityDecodeError)?;
            let mut start = 0;
            for rank in (0..k).filter(|&rank| present[rank]) {
                let freq = if rank == last {
                    SCALE - start
                } else {
                    bits.read_bits(SCALE_BITS)? as usize + 1
                };
                // Something must be left for the last present rank.
                if rank != last && start + freq >= SCALE {
                    return Err(QualityDecodeError);
                }
                dec.spans[base + rank] = Span {
                    start: start as u16,
                    freq: freq as u16,
                };
                start += freq;
            }
        }
        // Whole bytes, and nothing in them the tables do not use.
        let spare = bits.remaining();
        if spare >= 8 || bits.read_bits(spare as u32)? != 0 {
            return Err(QualityDecodeError);
        }

        let (states, words) = body
            .split_first_chunk::<{ 4 * LANES }>()
            .ok_or(QualityDecodeError)?;
        for (x, bytes) in dec.x.iter_mut().zip(states.chunks_exact(4)) {
            *x = u32::from_le_bytes(bytes.try_into().expect("chunks of four"));
            if *x < LOW {
                return Err(QualityDecodeError);
            }
        }
        dec.words = words.chunks_exact(2);
        if !dec.words.remainder().is_empty() {
            return Err(QualityDecodeError);
        }
        dec.lut = vec![0; dec.spans.len() / k * SCALE];
        for (lut, spans) in (dec.lut.chunks_exact_mut(SCALE)).zip(dec.spans.chunks_exact(k)) {
            for (rank, span) in spans.iter().enumerate() {
                lut[usize::from(span.start)..][..usize::from(span.freq)].fill(rank as u8);
            }
        }
        for (eighth, tables) in table_of.chunks_exact(BUCKETS).enumerate() {
            dec.start_table[eighth] = tables[bucket(START)];
            for (next, &sym) in dec.next_table[eighth].iter_mut().zip(alphabet) {
                *next = tables[bucket(sym)];
            }
        }
        Ok(dec)
    }

    /// `true` when every renormalisation word has been consumed and
    /// every lane is back at its start state — where decoding the last
    /// read of the chunk the stream was written for leaves it, and
    /// where a corrupt body that happened to decode does not (four
    /// 32-bit states would have to land on `2^16` by accident). Always
    /// `true` for a stream without a body (fewer than two symbols).
    pub fn is_spent(&self) -> bool {
        self.words.len() == 0 && self.x == [LOW; LANES]
    }

    /// Decodes the next read's quality string into `out`, whose length
    /// is the read's.
    ///
    /// # Errors
    ///
    /// Returns [`QualityDecodeError`] when the words run out before
    /// `out` is filled or a symbol is coded under a context the tables
    /// leave unused; `out` then holds garbage.
    pub fn next_into(&mut self, out: &mut [u8]) -> Result<(), QualityDecodeError> {
        if self.k < 2 {
            if self.k == 0 && !out.is_empty() {
                return Err(QualityDecodeError);
            }
            out.fill(self.syms[0]);
            return Ok(());
        }
        let (bounds, mid) = split(out.len());
        // Every quarter holds this many symbols or one more.
        let common = out.len() / 4;
        let (q0, rest) = out.split_at_mut(bounds[1]);
        let (q1, rest) = rest.split_at_mut(bounds[2] - bounds[1]);
        let (q2, q3) = rest.split_at_mut(bounds[3] - bounds[2]);

        let (lut, spans, syms, k) = (&self.lut[..], &self.spans[..], &self.syms, self.k);
        let mut words = self.words.clone();
        let mut ran_out = false;
        // The smallest table any symbol was decoded under: 0 is the
        // one that stands for the unused contexts.
        let mut lowest = u8::MAX;
        // Four named states and tables, not arrays: they stay in
        // registers across the loop.
        let [mut x0, mut x1, mut x2, mut x3] = self.x;
        let first = |lane| self.start_table[eighth(lane, mid == 0)];
        let (mut t0, mut t1, mut t2, mut t3) = (first(0), first(1), first(2), first(3));
        // One symbol of one lane, decoded under `$table`: its rank.
        macro_rules! step {
            ($x:ident, $table:ident, $out:expr) => {{
                let slot = ($x as usize) & (SCALE - 1);
                let table = usize::from($table);
                lowest = lowest.min($table);
                let rank = usize::from(lut[table << SCALE_BITS | slot]);
                let Span { start, freq } = spans[table * k + rank];
                // No overflow: `freq <= 2^10`, and `slot` lies in the
                // span (table 0: the span is empty, `x` collapses).
                $x = u32::from(freq) * ($x >> SCALE_BITS) + slot as u32 - u32::from(start);
                if $x < LOW {
                    let word = words.next().unwrap_or_else(|| {
                        ran_out = true;
                        &[0, 0]
                    });
                    $x = $x << 16 | u32::from(u16::from_le_bytes([word[0], word[1]]));
                }
                *$out = syms[rank];
                rank
            }};
        }
        // A quarter's symbol `t` is in its second half from `t == mid`
        // on, so the symbol after it — whose table a step leaves behind
        // — is from `t + 1 == mid` on.
        let switch = mid.saturating_sub(1);
        for (second_half, steps) in [(false, 0..switch), (true, switch..common)] {
            let next = |lane| &self.next_table[eighth(lane, second_half)];
            let (n0, n1, n2, n3) = (next(0), next(1), next(2), next(3));
            let quarters = (q0[steps.clone()].iter_mut())
                .zip(&mut q1[steps.clone()])
                .zip(&mut q2[steps.clone()])
                .zip(&mut q3[steps]);
            for (((o0, o1), o2), o3) in quarters {
                t0 = n0[step!(x0, t0, o0)];
                t1 = n1[step!(x1, t1, o1)];
                t2 = n2[step!(x2, t2, o2)];
                t3 = n3[step!(x3, t3, o3)];
            }
        }
        // The quarters one symbol longer.
        if let Some(o) = q0.get_mut(common) {
            step!(x0, t0, o);
        }
        if let Some(o) = q1.get_mut(common) {
            step!(x1, t1, o);
        }
        if let Some(o) = q2.get_mut(common) {
            step!(x2, t2, o);
        }
        if let Some(o) = q3.get_mut(common) {
            step!(x3, t3, o);
        }
        self.x = [x0, x1, x2, x3];
        self.words = words;
        if ran_out || lowest == 0 {
            return Err(QualityDecodeError);
        }
        Ok(())
    }
}

impl From<crate::bitio::BitStreamExhausted> for QualityDecodeError {
    fn from(_: crate::bitio::BitStreamExhausted) -> QualityDecodeError {
        QualityDecodeError
    }
}

/// Decompresses a chunk's quality strings; `lens[i]` is the length of
/// read `i`'s quality string (equal to its base count).
///
/// # Errors
///
/// Returns [`QualityDecodeError`] if the stream is malformed, too
/// short for the requested lengths, or not used up by them
/// ([`QualityDecoder::is_spent`]).
pub fn decompress_qualities(
    bytes: &[u8],
    lens: &[usize],
) -> Result<Vec<Vec<u8>>, QualityDecodeError> {
    let mut dec = QualityDecoder::new(bytes)?;
    let quals = lens
        .iter()
        .map(|&len| {
            let mut q = vec![0u8; len];
            dec.next_into(&mut q).map(|()| q)
        })
        .collect::<Result<_, _>>()?;
    dec.is_spent().then_some(quals).ok_or(QualityDecodeError)
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
        // k = 0 and 1 (no body), 2, one past each span of presence bits
        // that fills a byte or a word, 255, 256 — and, at each, reads
        // of every length that cuts differently: 0–9 (quarters of
        // unequal length, empty quarters, `mid` 0 and 1) and 10 001
        // (`mid` well inside a quarter, the last quarter one longer).
        for k in [0usize, 1, 2, 3, 4, 5, 6, 16, 17, 255, 256] {
            let read: Vec<u8> = (0..3 * k).map(|i| (i % k.max(1)) as u8).collect();
            let mut quals = vec![read.clone(), vec![], read];
            if k > 0 {
                quals.extend(
                    (0..=9)
                        .chain([10_001])
                        .map(|len| (0..len).map(|i| ((i * i + len) % k) as u8).collect()),
                );
            }
            let packed = round_trip(&quals);
            assert_eq!(usize::from(u16::from_le_bytes([packed[0], packed[1]])), k);
            if k < 2 {
                assert_eq!(packed.len(), COUNT_BYTES + k, "no body below two symbols");
            }
        }
    }

    /// Any change to these bytes is a format change: bump
    /// `container::VERSION` with it.
    #[test]
    fn golden_vector_pins_the_v3_layout() {
        let pinned: [(&[&[u8]], &[u8]); 4] = [
            (
                &[b"IIIIFFII#I", b"", b"FFFI:I"],
                &[
                    4, 0, 73, 70, 35, 58, 26, 0, 0, 0, 0, 96, 0, 0, 206, 127, 0, 128, 1, 0, 148,
                    67, 21, 0, 160, 0, 0, 99, 0, 0, 6, 3, 48, 32, 255, 7, 0, 4, 4, 0, 64, 192, 6,
                    0, 0, 0, 1, 0, 0, 4, 4, 0,
                ],
            ),
            // Reads shorter than four symbols: empty quarters.
            (
                &[b"I", b"", b"FI", b"I#F"],
                &[
                    3, 0, 73, 70, 35, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 224, 254, 3, 0, 0, 0, 36,
                    0, 0, 0, 224, 84, 5, 0, 0, 1, 0, 0, 2, 4, 0, 0, 0, 1, 0, 251, 193, 6, 0,
                ],
            ),
            // Seventeen symbols: the presence bits pass two bytes.
            (
                &[b"ABCDEFGHIJKLMNOPQ", b"QQAAB"],
                &[
                    17, 0, 65, 81, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 58,
                    0, 0, 0, 0, 36, 0, 192, 0, 0, 0, 32, 6, 128, 255, 20, 0, 0, 0, 4, 2, 16, 4, 0,
                    0, 16, 48, 192, 127, 5, 0, 0, 0, 2, 24, 248, 15, 0, 48, 0, 193, 127, 1, 32, 0,
                    0, 1, 64, 4, 0, 2, 128, 4, 0, 24, 0, 64, 1, 192, 85, 81, 5, 0, 4, 4, 0, 0, 4,
                    4, 0, 0, 12, 16, 0, 128, 246, 26, 0,
                ],
            ),
            // Enough symbols for every lane to put out words.
            (
                &[
                    b"IIFIFFI#IFIIIFFFIFI#FIIFIFFFIIFI#IFFIIFIFFIFIIIFIFFI",
                    b"FFIFIIIF#IIFIFIFFFIFIIFI#FFIFIIFIIFFIFI#IFFFIIFIFIIF",
                ],
                &[
                    3, 0, 73, 70, 35, 46, 0, 0, 0, 0, 112, 101, 158, 109, 12, 0, 246, 223, 255,
                    239, 47, 0, 224, 254, 43, 10, 0, 243, 255, 252, 7, 0, 156, 204, 71, 18, 3, 128,
                    83, 245, 73, 66, 146, 1, 192, 253, 247, 204, 148, 9, 0, 156, 204, 103, 28, 255,
                    72, 188, 4, 48, 39, 16, 0, 212, 85, 193, 1, 174, 68, 160, 2, 0, 212, 180, 95,
                    34, 210, 211, 138,
                ],
            ),
        ];
        for (quals, bytes) in pinned {
            let packed = compress_qualities(quals.iter().copied());
            assert_eq!(packed, bytes);
            let lens: Vec<usize> = quals.iter().map(|q| q.len()).collect();
            assert_eq!(decompress_qualities(&packed, &lens).unwrap(), quals);
        }
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
    fn normalise_sums_to_scale_and_keeps_every_counted_symbol() {
        assert_eq!(normalise(&[1, 1_000_000]), [1, 1023]);
        assert_eq!(normalise(&[u64::MAX, 0, u64::MAX]), [512, 0, 512]);
        assert_eq!(normalise(&[7; 256]), [4; 256]);
        assert_eq!(normalise(&[0, 9, 0]), [0, 1024, 0]);
        assert_eq!(normalise(&[0, 0]), [0, 0]);
        // Equal counts that do not divide 1024: what is left goes to
        // the smaller indices.
        assert_eq!(normalise(&[5, 5, 5]), [342, 341, 341]);
        // 255 rare symbols each pushed up to 1: the common one pays.
        let mut counts = vec![1u64; 256];
        counts[9] = 1 << 40;
        let freqs = normalise(&counts);
        assert_eq!(freqs[9], 1024 - 255);
        assert!(freqs.iter().all(|&f| f >= 1));
        assert_eq!(freqs.iter().map(|&f| usize::from(f)).sum::<usize>(), SCALE);
    }

    fn noisy_reads(n: usize, len: usize) -> Vec<Vec<u8>> {
        let mut x = 7u64;
        (0..n)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        b"IIIIFF:#,"[(x >> 33) as usize % 9]
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_proper_prefix_is_an_error() {
        let quals = noisy_reads(40, 50);
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

    /// A stream from its parts: the alphabet, the table bits (length
    /// field supplied), and whatever follows the tables.
    fn stream(alphabet: &[u8], tables: &BitWriter, tail: &[u8]) -> Vec<u8> {
        let (tables, _) = tables.clone().finish();
        [
            &(alphabet.len() as u16).to_le_bytes()[..],
            alphabet,
            &(tables.len() as u32).to_le_bytes(),
            &tables,
            tail,
        ]
        .concat()
    }

    /// Table bits: `first` for context 0, every other context unused.
    fn one_context(first: &[(u64, u32)]) -> BitWriter {
        let mut bits = BitWriter::new();
        for &(value, n) in first {
            bits.write_bits(value, n);
        }
        for _ in 1..CONTEXTS {
            bits.write_bit(false);
        }
        bits
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

        // A hand-built body the decoder takes: context 0 used, both
        // symbols present, 512 / 512; four lanes at rest; no words.
        let rest: Vec<u8> = [LOW; LANES].iter().flat_map(|x| x.to_le_bytes()).collect();
        let halves = one_context(&[(1, 1), (0b11, 2), (511, SCALE_BITS)]);
        let good = stream(b"IF", &halves, &rest);
        assert!(QualityDecoder::new(&good).is_ok_and(|dec| dec.is_spent()));
        assert_eq!(decompress_qualities(&good, &[0, 0]), Ok(vec![vec![]; 2]));
        // Context 0 is not the one a read starts in.
        assert!(decompress_qualities(&good, &[1]).is_err());

        let three = |freqs: &[(u64, u32)]| {
            let bits = [&[(1, 1), (0b111, 3)], freqs].concat();
            stream(b"IF#", &one_context(&bits), &rest)
        };
        assert!(QualityDecoder::new(&three(&[(9, SCALE_BITS), (9, SCALE_BITS)])).is_ok());
        let mut padded = halves.clone();
        padded.write_bits(0, 8);
        let mut dirty = halves.clone();
        dirty.write_bit(true);
        let mut long = good.clone();
        long[COUNT_BYTES + 2..][..4].copy_from_slice(&(good.len() as u32).to_le_bytes());
        for (what, bad) in [
            (
                "used context, no symbol",
                stream(b"IF", &one_context(&[(1, 1), (0, 2)]), &rest),
            ),
            (
                "first frequency takes all 1024",
                three(&[(1023, SCALE_BITS), (0, SCALE_BITS)]),
            ),
            (
                "explicit frequencies reach 1024",
                three(&[(511, SCALE_BITS), (511, SCALE_BITS)]),
            ),
            ("table length past the body", long),
            ("tables cut short", {
                let mut short = good.clone();
                short[COUNT_BYTES + 2] -= 1;
                short
            }),
            ("a spare table byte", stream(b"IF", &padded, &rest)),
            ("a set bit past the tables", stream(b"IF", &dirty, &rest)),
            (
                "states cut to 15 bytes",
                stream(b"IF", &halves, &rest[..15]),
            ),
            ("a state below 2^16", {
                let mut low = rest.clone();
                low[4..8].copy_from_slice(&(LOW - 1).to_le_bytes());
                stream(b"IF", &halves, &low)
            }),
            (
                "an odd number of word bytes",
                stream(b"IF", &halves, &[&rest[..], &[0; 3]].concat()),
            ),
        ] {
            assert!(QualityDecoder::new(&bad).is_err(), "{what}");
        }

        // A stream re-labelled so that symbols are coded under a
        // context whose used bit is clear: it opens, and fails at the
        // first read. (`A` and `Z` are in other buckets than `#`.)
        let quals = [b"AAAAAAAAZZZZZZZZ".as_slice(); 3];
        let mut packed = compress_qualities(quals.iter().copied());
        assert_eq!(&packed[..4], [2, 0, b'A', b'Z']);
        packed[2] = b'#';
        let mut dec = QualityDecoder::new(&packed).expect("tables are intact");
        assert_eq!(dec.next_into(&mut [0; 16]), Err(QualityDecodeError));
    }

    #[test]
    fn rank_outside_the_alphabet_is_rejected() {
        // Re-label a five-symbol stream as four: the presence bits of
        // every table are read one short, and no rank stands for the
        // fifth symbol.
        let mut packed = compress_qualities([b"ABCDEABCDEEEEE".as_slice()].iter().copied());
        assert_eq!(packed[0], 5);
        packed[0] = 4;
        packed.remove(COUNT_BYTES + 4);
        assert!(decompress_qualities(&packed, &[14]).is_err());
    }

    #[test]
    fn a_body_that_decodes_but_is_not_used_up_is_rejected() {
        let quals = noisy_reads(20, 61);
        let lens: Vec<usize> = quals.iter().map(|q| q.len()).collect();
        let packed = compress_qualities(quals.iter().map(|q| q.as_slice()));
        // One read fewer, one read more, a word dropped from the end
        // and one appended: each read asked for decodes or the words
        // run out, and either way the stream is not spent at the end.
        assert!(decompress_qualities(&packed, &lens[1..]).is_err());
        assert!(decompress_qualities(&packed, &[&lens[..], &[61]].concat()).is_err());
        assert!(decompress_qualities(&packed[..packed.len() - 2], &lens).is_err());
        assert!(decompress_qualities(&[&packed[..], &[0, 0]].concat(), &lens).is_err());
        // A flipped bit in the last word reaches only the reads still
        // to come when that word is consumed; all the same the lanes
        // do not come to rest.
        let mut flipped = packed.clone();
        *flipped.last_mut().unwrap() ^= 0x10;
        let mut dec = QualityDecoder::new(&flipped).unwrap();
        let mut out = [0u8; 61];
        let decoded = lens.iter().all(|_| dec.next_into(&mut out).is_ok());
        assert!(!(decoded && dec.is_spent()));
    }

    #[test]
    fn context_buckets_in_range() {
        for q in 0..=255u8 {
            assert!(eighth(LANES - 1, true) * BUCKETS + bucket(q) < CONTEXTS);
        }
        // The cuts the decoder's slicing relies on: quarters in order,
        // each `n / 4` symbols or one more, the half-way point no
        // later than one past the shortest quarter.
        for n in (0..200).chain([10_001, usize::MAX]) {
            let (bounds, mid) = split(n);
            assert_eq!((bounds[0], bounds[LANES]), (0, n));
            for lane in 0..LANES {
                let len = bounds[lane + 1] - bounds[lane];
                assert!(len == n / 4 || len == n / 4 + 1, "{n}: {bounds:?}");
            }
            assert!(mid.saturating_sub(1) <= n / 4);
        }
    }
}
