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
//! over four interleaved rANS lanes (Duda, arXiv:1311.2540; Giesen,
//! arXiv:1402.3392). Nothing adapts, so decoding a symbol is two table
//! look-ups and a multiply, and the four lanes are independent
//! instruction streams the CPU overlaps. What is coded is the symbol's *rank in the chunk's own
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
//! lane with state `x` under table `table` is
//!
//! ```text
//! slot  = x & 1023
//! entry = table.entries[table.lut[slot]]  // the rank whose span holds slot
//! x     = entry.freq * (x >> 10) + slot - entry.start
//! out   = entry.sym
//! table = tables[entry.next]              // the context of what follows
//! x     = if x < 2^16 { x << 16 | words[pos] } else { x }   // a select
//! pos  += (x was < 2^16)
//! ```
//!
//! Each used context has one table: a `lut` of 1 024 ranks (1 byte per
//! slot, so that the tables of a chunk stay near L1's size) and one
//! 8-byte entry per rank holding its span, its byte and the table of the
//! context that follows that byte — in the same eighth of the read, and
//! (`cross`) in the second half's, for the step before a quarter's
//! half-way point. A table is 1 152 bytes at up to 16 symbols and 3 072
//! above; chunks of the simulated sets use 20–27 contexts (short reads)
//! and 54–56 (long), 25–66 KiB of tables with the two fixed ones. A step
//! is therefore two dependent loads, a multiply and a select, with one
//! bounds check (the table id) and no separate look-up of the byte or of
//! the next table. Renormalising selects instead of branching: on long
//! reads (≈ 2.4 bits per symbol) a lane takes a word on one step in six,
//! at random, where a branch is mispredicted; on short reads (≈ 0.4
//! bits, one step in 40) the select costs no more than the branch it
//! replaces. Symbols under a context the tables leave unused go to a
//! table of empty spans whose successor is a poison table; a read that
//! ends with a lane there failed.
//!
//! `cargo run --release -p sage-core --example decode_stages -- rs4`
//! times each stage of a chunk decode on the benchmark's sets. On a
//! 2-core Xeon host (medians of five alternating runs, one core), the
//! quality stream of a long-read chunk (8 reads, ≈ 42 k symbols) went
//! from 300 µs under the previous loop (a renormalisation branch, and
//! the span, the byte and the next table each looked up on its own) to
//! 225 µs, and of a short-read chunk (`rs2`, 256 reads, ≈ 38 k symbols)
//! from 256 to 220 µs.
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

/// The table that stands for every context the tables leave unused.
const UNUSED: u8 = 0;
/// The table a lane moves to once it has decoded a symbol under
/// [`UNUSED`], and stays in: a read that ends with a lane here failed.
const POISON: u8 = 1;
/// Entries per table when the alphabet has at most this many symbols,
/// and 256 otherwise.
const NARROW: usize = 16;

/// One rank of one table: all a lane step needs once the table's `lut`
/// has named the rank. Aligned to its 8 bytes, so that no entry straddles
/// a cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(8))]
struct Entry {
    /// The rank's span `start..start + freq` of `[0, SCALE)`.
    start: u16,
    freq: u16,
    /// The byte the rank stands for.
    sym: u8,
    /// The table of the context that follows `sym` in the same eighth
    /// of a read.
    next: u8,
    /// The same in the second half's eighth: where the step before a
    /// quarter's half-way point goes.
    cross: u8,
}

/// One context's table: the rank whose span holds each slot, and an
/// entry for each of the `S` ranks an index can name (`k` of them
/// filled). A lane step reads one `lut` byte and one entry of one
/// table, and checks the table id against the table count alone.
#[derive(Debug, Clone, Copy)]
struct Table<const S: usize> {
    lut: [u8; SCALE],
    entries: [Entry; S],
}

/// Every table of a stream: [`UNUSED`], [`POISON`] (every slot rank 0,
/// whose span is empty), then the used contexts in order.
#[derive(Debug, Clone)]
enum Tables {
    /// At most [`NARROW`] symbols.
    Narrow(Vec<Table<NARROW>>),
    /// More than [`NARROW`]: 3 072 bytes a table instead of 1 152.
    Wide(Vec<Table<256>>),
}

/// Where the four lanes stand between reads.
#[derive(Debug, Clone)]
struct Lanes<'a> {
    x: [u32; LANES],
    /// The renormalisation words, and how many have been consumed
    /// (past `words.len()` once they ran out).
    words: &'a [[u8; 2]],
    pos: usize,
}

/// Incremental quality decoder: decodes one read's quality string at a
/// time, in storage order, straight into the caller's buffer — quality
/// strings are consumed as reads are reconstructed.
#[derive(Debug, Clone)]
pub struct QualityDecoder<'a> {
    lanes: Lanes<'a>,
    tables: Tables,
    /// The table of each eighth's context after [`START`].
    start_table: [u8; 2 * LANES],
    /// The alphabet's size, and its first symbol.
    k: usize,
    first: u8,
}

/// The tables parsed from `bits`, each rank's entry linked to the
/// tables that follow its symbol, and the table of each eighth's context
/// after [`START`].
fn parse_tables<const S: usize>(
    bits: &mut BitReader<'_>,
    alphabet: &[u8],
) -> Result<(Vec<Table<S>>, [u8; 2 * LANES]), QualityDecodeError> {
    let k = alphabet.len();
    // Entries of the used tables, `k` per table, until their count is
    // known: the length the stream claims buys no memory.
    let mut spans: Vec<Entry> = Vec::with_capacity(CONTEXTS * k);
    let mut table_of = [UNUSED; CONTEXTS];
    let mut present = [false; 256];
    for table in &mut table_of {
        if !bits.read_bit()? {
            continue;
        }
        *table = (spans.len() / k + 2) as u8;
        for p in &mut present[..k] {
            *p = bits.read_bit()?;
        }
        let last = (present[..k].iter())
            .rposition(|&p| p)
            .ok_or(QualityDecodeError)?;
        let mut start = 0;
        for (rank, &sym) in alphabet.iter().enumerate() {
            let freq = match (present[rank], rank == last) {
                (false, _) => 0,
                (true, true) => SCALE - start,
                (true, false) => bits.read_bits(SCALE_BITS)? as usize + 1,
            };
            // Something must be left for the last present rank.
            if rank < last && start + freq >= SCALE {
                return Err(QualityDecodeError);
            }
            spans.push(Entry {
                start: start as u16,
                freq: freq as u16,
                sym,
                ..Entry::default()
            });
            start += freq;
        }
    }
    let used = spans.len() / k;
    let poisoned = Table {
        lut: [0; SCALE],
        entries: [Entry {
            next: POISON,
            cross: POISON,
            ..Entry::default()
        }; S],
    };
    let blank = Table {
        lut: [0; SCALE],
        entries: [Entry::default(); S],
    };
    let mut tables = Vec::with_capacity(2 + used);
    tables.extend([poisoned; 2]);
    tables.resize(2 + used, blank);
    // Fill each used table span by span, linking every rank to the
    // tables that follow its symbol.
    for (context, &id) in table_of.iter().enumerate() {
        if id == UNUSED {
            continue;
        }
        let row = |eighth: usize| &table_of[eighth * BUCKETS..][..BUCKETS];
        let eighth = context / BUCKETS;
        let (same, half_way) = (row(eighth), row(eighth | 1));
        let table = &mut tables[usize::from(id)];
        let spans = &spans[(usize::from(id) - 2) * k..][..k];
        for (rank, (entry, span)) in table.entries.iter_mut().zip(spans).enumerate() {
            table.lut[usize::from(span.start)..][..usize::from(span.freq)].fill(rank as u8);
            *entry = Entry {
                next: same[bucket(span.sym)],
                cross: half_way[bucket(span.sym)],
                ..*span
            };
        }
    }
    let start_table = std::array::from_fn(|eighth| table_of[eighth * BUCKETS + bucket(START)]);
    Ok((tables, start_table))
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
        let mut seen = [false; 256];
        for &sym in alphabet {
            if std::mem::replace(&mut seen[usize::from(sym)], true) {
                return Err(QualityDecodeError);
            }
        }
        let mut dec = QualityDecoder {
            lanes: Lanes {
                x: [LOW; LANES],
                words: &[],
                pos: 0,
            },
            tables: Tables::Narrow(Vec::new()),
            start_table: [UNUSED; 2 * LANES],
            k,
            first: alphabet.first().copied().unwrap_or(0),
        };
        if k < 2 {
            // No body: every symbol is the alphabet's only one.
            return body.is_empty().then_some(dec).ok_or(QualityDecodeError);
        }

        let (len, body) = body.split_first_chunk::<4>().ok_or(QualityDecodeError)?;
        let len = usize::try_from(u32::from_le_bytes(*len)).map_err(|_| QualityDecodeError)?;
        let (tables, body) = body.split_at_checked(len).ok_or(QualityDecodeError)?;
        let mut bits = BitReader::new(tables, 8 * len as u64);
        (dec.tables, dec.start_table) = if k <= NARROW {
            let (tables, start_table) = parse_tables(&mut bits, alphabet)?;
            (Tables::Narrow(tables), start_table)
        } else {
            let (tables, start_table) = parse_tables(&mut bits, alphabet)?;
            (Tables::Wide(tables), start_table)
        };
        // Whole bytes, and nothing in them the tables do not use.
        let spare = bits.remaining();
        if spare >= 8 || bits.read_bits(spare as u32)? != 0 {
            return Err(QualityDecodeError);
        }

        let (states, words) = body
            .split_first_chunk::<{ 4 * LANES }>()
            .ok_or(QualityDecodeError)?;
        for (x, bytes) in dec.lanes.x.iter_mut().zip(states.chunks_exact(4)) {
            *x = u32::from_le_bytes(bytes.try_into().expect("chunks of four"));
            if *x < LOW {
                return Err(QualityDecodeError);
            }
        }
        let (words, half) = words.as_chunks::<2>();
        if !half.is_empty() {
            return Err(QualityDecodeError);
        }
        dec.lanes.words = words;
        Ok(dec)
    }

    /// `true` when every renormalisation word has been consumed and
    /// every lane is back at its start state — where decoding the last
    /// read of the chunk the stream was written for leaves it, and
    /// where a corrupt body that happened to decode does not (four
    /// 32-bit states would have to land on `2^16` by accident). Always
    /// `true` for a stream without a body (fewer than two symbols).
    pub fn is_spent(&self) -> bool {
        let Lanes { x, words, pos } = &self.lanes;
        *pos == words.len() && *x == [LOW; LANES]
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
            out.fill(self.first);
            return Ok(());
        }
        let (lanes, starts) = (&mut self.lanes, &self.start_table);
        match &self.tables {
            Tables::Narrow(tables) => decode(lanes, tables, starts, out),
            Tables::Wide(tables) => decode(lanes, tables, starts, out),
        }
    }
}

/// [`QualityDecoder::next_into`] for a stream of two symbols or more,
/// over tables of `S` entries.
fn decode<const S: usize>(
    lanes: &mut Lanes<'_>,
    tables: &[Table<S>],
    start_table: &[u8; 2 * LANES],
    out: &mut [u8],
) -> Result<(), QualityDecodeError> {
    let (bounds, mid) = split(out.len());
    // Every quarter holds this many symbols or one more.
    let common = out.len() / 4;
    let (q0, rest) = out.split_at_mut(bounds[1]);
    let (q1, rest) = rest.split_at_mut(bounds[2] - bounds[1]);
    let (q2, q3) = rest.split_at_mut(bounds[3] - bounds[2]);
    // The symbols all four quarters hold, in four slices of one length.
    let (c0, c1, c2, c3) = (
        &mut q0[..common],
        &mut q1[..common],
        &mut q2[..common],
        &mut q3[..common],
    );

    let words = lanes.words;
    let mut pos = lanes.pos;
    // Four named states and tables, not arrays, so that they can stay
    // in registers across the loop.
    let [mut x0, mut x1, mut x2, mut x3] = lanes.x;
    let first = |lane| start_table[eighth(lane, mid == 0)];
    let (mut t0, mut t1, mut t2, mut t3) = (first(0), first(1), first(2), first(3));
    // One symbol of one lane, decoded under table `$t` into `$o`; the
    // lane moves to the table its entry's `$link` names. The state takes
    // the next word (zero once they ran out) when it falls below 2^16 by
    // a select, not a branch: on long reads that is one step in six, at
    // random, and on short reads the select costs no more than a branch.
    macro_rules! step {
        ($x:ident, $t:ident, $o:expr, $link:ident) => {{
            let slot = ($x as usize) & (SCALE - 1);
            let table = &tables[usize::from($t)];
            let e = table.entries[usize::from(table.lut[slot]) % S];
            // No overflow: `freq <= 2^10`, and `slot` lies in the span
            // (tables UNUSED and POISON: the span is empty and `x`
            // collapses to `slot`).
            $x = u32::from(e.freq) * ($x >> SCALE_BITS) + slot as u32 - u32::from(e.start);
            let take = $x < LOW;
            let word = u16::from_le_bytes(words.get(pos).copied().unwrap_or_default());
            $x = std::hint::select_unpredictable(take, $x << 16 | u32::from(word), $x);
            pos += usize::from(take);
            ($o, $t) = (e.sym, e.$link);
        }};
    }
    // Symbol `t` of all four quarters, lane by lane: each lane is stepped
    // to its end before the next starts, so that little stays live
    // between them; the core overlaps the four all the same.
    macro_rules! round {
        ($t:expr, $link:ident) => {{
            let t = $t;
            step!(x0, t0, c0[t], $link);
            step!(x1, t1, c1[t], $link);
            step!(x2, t2, c2[t], $link);
            step!(x3, t3, c3[t], $link);
        }};
    }
    // A quarter's symbol `t` is in its second half from `t == mid` on,
    // so the symbol after it — whose table a step leaves behind — is
    // from `t + 1 == mid` on: that step crosses over.
    let half_way = mid.checked_sub(1);
    for t in 0..half_way.unwrap_or(0) {
        round!(t, next);
    }
    if let Some(t) = half_way {
        round!(t, cross);
    }
    for t in mid..common {
        round!(t, next);
    }
    // The quarters one symbol longer.
    if let Some(o) = q0.get_mut(common) {
        step!(x0, t0, *o, next);
    }
    if let Some(o) = q1.get_mut(common) {
        step!(x1, t1, *o, next);
    }
    if let Some(o) = q2.get_mut(common) {
        step!(x2, t2, *o, next);
    }
    if let Some(o) = q3.get_mut(common) {
        step!(x3, t3, *o, next);
    }
    lanes.x = [x0, x1, x2, x3];
    lanes.pos = pos;
    if pos > words.len() || [t0, t1, t2, t3].contains(&POISON) {
        return Err(QualityDecodeError);
    }
    Ok(())
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

    /// Where a stream's words start: past the alphabet, the tables and
    /// the four lane states.
    fn words_at(packed: &[u8]) -> usize {
        let k = usize::from(u16::from_le_bytes([packed[0], packed[1]]));
        let at = COUNT_BYTES + k;
        let tables = u32::from_le_bytes(packed[at..at + 4].try_into().unwrap()) as usize;
        at + 4 + tables + 4 * LANES
    }

    #[test]
    fn a_cut_at_every_word_fails_on_the_read_that_needed_the_word() {
        // Reads of every length that cuts differently (0–9: empty
        // quarters, quarters of 0–2 symbols, `mid == 0`) and long ones,
        // over i.i.d. symbols: 40 (wide tables, a word every third step
        // or so), 11 (narrow tables, no branch on renormalising) and 4
        // skewed ones (narrow, the branch).
        let mut lens: Vec<usize> = (0..=9).collect();
        lens.extend([2_000, 17, 0, 613, 5, 1_024]);
        let mut x = 99u64;
        let mut draw = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        for alphabet in [
            &(b'#'..b'#' + 40).collect::<Vec<u8>>()[..],
            b"0123456789:",
            b"IIIIIIIF:#",
        ] {
            let quals: Vec<Vec<u8>> = (lens.iter())
                .map(|&n| (0..n).map(|_| alphabet[draw() % alphabet.len()]).collect())
                .collect();
            let packed = compress_qualities(quals.iter().map(|q| q.as_slice()));
            // Words consumed once each read is decoded, from the whole
            // stream.
            let mut dec = QualityDecoder::new(&packed).unwrap();
            let used: Vec<usize> = (quals.iter())
                .map(|q| {
                    let mut out = vec![0; q.len()];
                    dec.next_into(&mut out).unwrap();
                    assert_eq!(&out, q);
                    dec.lanes.pos
                })
                .collect();
            assert!(dec.is_spent());
            let start = words_at(&packed);
            let words = (packed.len() - start) / 2;
            assert_eq!(used.last(), Some(&words));
            for kept in 0..words {
                let cut = &packed[..start + 2 * kept];
                assert!(
                    decompress_qualities(cut, &lens).is_err(),
                    "{kept} words kept"
                );
                let fails = used.iter().position(|&u| u > kept).unwrap();
                let mut dec = QualityDecoder::new(cut).unwrap();
                for (i, q) in quals.iter().enumerate().take(fails + 1) {
                    let mut out = vec![0; q.len()];
                    let decoded = dec.next_into(&mut out);
                    if i < fails {
                        assert_eq!((decoded, &out), (Ok(()), q), "{kept} words kept, read {i}");
                    } else {
                        assert!(decoded.is_err(), "{kept} words kept: read {i} decoded");
                    }
                }
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
