//! Canonical Huffman coding.
//!
//! The entropy-coding backend of the DEFLATE-like general-purpose
//! compressor ([`crate::deflate`]). Codes are canonical (derived from
//! code lengths alone), so a block header only needs the length table.

use sage_core::bitio::{BitReader, BitStreamExhausted, BitWriter};

/// Maximum code length (as in DEFLATE).
pub const MAX_CODE_LEN: u8 = 15;

/// A canonical Huffman code book for `n` symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeBook {
    /// Code length per symbol (0 = symbol absent).
    lengths: Vec<u8>,
    /// Canonical code per symbol (valid where length > 0), stored
    /// MSB-first in the low bits.
    codes: Vec<u16>,
}

impl CodeBook {
    /// Builds length-limited Huffman code lengths from frequencies and
    /// derives the canonical codes.
    ///
    /// Symbols with zero frequency get no code. If only one symbol has
    /// nonzero frequency it still gets a 1-bit code (simplifies the
    /// decoder).
    pub fn from_frequencies(freqs: &[u64]) -> CodeBook {
        let mut f: Vec<u64> = freqs.to_vec();
        let mut lengths = build_lengths(&f);
        // Limit code lengths by halving frequencies until they fit.
        while lengths.iter().any(|&l| l > MAX_CODE_LEN) {
            for v in &mut f {
                *v = (*v).div_ceil(2);
            }
            lengths = build_lengths(&f);
        }
        CodeBook::from_lengths(lengths)
    }

    /// Builds the canonical codes from explicit lengths.
    ///
    /// # Panics
    ///
    /// Panics if any length exceeds [`MAX_CODE_LEN`].
    pub fn from_lengths(lengths: Vec<u8>) -> CodeBook {
        assert!(lengths.iter().all(|&l| l <= MAX_CODE_LEN));
        // Canonical assignment: sort by (length, symbol).
        let mut order: Vec<usize> = (0..lengths.len()).filter(|&i| lengths[i] > 0).collect();
        order.sort_by_key(|&i| (lengths[i], i));
        let mut codes = vec![0u16; lengths.len()];
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for &i in &order {
            code <<= lengths[i] - prev_len;
            prev_len = lengths[i];
            codes[i] = code as u16;
            code += 1;
        }
        CodeBook { lengths, codes }
    }

    /// Code lengths per symbol.
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Writes symbol `sym` to the bit stream (MSB of the code first).
    ///
    /// # Panics
    ///
    /// Panics if the symbol has no code.
    pub fn encode(&self, w: &mut BitWriter, sym: usize) {
        let len = self.lengths[sym];
        assert!(len > 0, "symbol {sym} has no code");
        let code = self.codes[sym];
        for i in (0..len).rev() {
            w.write_bit((code >> i) & 1 == 1);
        }
    }

    /// Builds a decoder for this book.
    pub fn decoder(&self) -> Decoder {
        Decoder::new(&self.lengths)
    }
}

/// Builds unrestricted Huffman code lengths via pairwise merging.
fn build_lengths(freqs: &[u64]) -> Vec<u8> {
    let live: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u8; freqs.len()];
    match live.len() {
        0 => return lengths,
        1 => {
            lengths[live[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    // Heap of (weight, node). Internal nodes appended after leaves.
    #[derive(Clone)]
    struct Node {
        weight: u64,
        children: Option<(usize, usize)>,
        symbol: usize,
    }
    let mut nodes: Vec<Node> = live
        .iter()
        .map(|&s| Node {
            weight: freqs[s],
            children: None,
            symbol: s,
        })
        .collect();
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| Reverse((n.weight, i)))
        .collect();
    while heap.len() > 1 {
        let Reverse((wa, a)) = heap.pop().expect("len > 1");
        let Reverse((wb, b)) = heap.pop().expect("len > 1");
        let idx = nodes.len();
        nodes.push(Node {
            weight: wa + wb,
            children: Some((a, b)),
            symbol: usize::MAX,
        });
        heap.push(Reverse((wa + wb, idx)));
    }
    let root = heap.pop().expect("one root").0 .1;
    // Depth-first depth assignment.
    let mut stack = vec![(root, 0u8)];
    while let Some((i, depth)) = stack.pop() {
        match nodes[i].children {
            Some((a, b)) => {
                stack.push((a, depth.saturating_add(1)));
                stack.push((b, depth.saturating_add(1)));
            }
            None => lengths[nodes[i].symbol] = depth.max(1),
        }
    }
    lengths
}

/// Canonical Huffman decoder using per-length first-code tables.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// `first_code[len]` — canonical code value of the first code of
    /// this length.
    first_code: [u32; MAX_CODE_LEN as usize + 2],
    /// `first_index[len]` — index into `symbols` of that first code.
    first_index: [u32; MAX_CODE_LEN as usize + 2],
    /// Number of codes per length.
    counts: [u32; MAX_CODE_LEN as usize + 2],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u32>,
}

impl Decoder {
    /// Builds a decoder from code lengths.
    pub fn new(lengths: &[u8]) -> Decoder {
        let mut counts = [0u32; MAX_CODE_LEN as usize + 2];
        for &l in lengths {
            if l > 0 {
                counts[l as usize] += 1;
            }
        }
        let mut symbols: Vec<u32> = (0..lengths.len() as u32)
            .filter(|&i| lengths[i as usize] > 0)
            .collect();
        symbols.sort_by_key(|&i| (lengths[i as usize], i));
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 2];
        let mut first_index = [0u32; MAX_CODE_LEN as usize + 2];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=(MAX_CODE_LEN as usize + 1) {
            first_code[len] = code;
            first_index[len] = index;
            code = (code + counts[len]) << 1;
            index += counts[len];
        }
        Decoder {
            first_code,
            first_index,
            counts,
            symbols,
        }
    }

    /// Decodes one symbol.
    ///
    /// # Errors
    ///
    /// Fails on stream exhaustion or an invalid code.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<usize, BitStreamExhausted> {
        let mut code = 0u32;
        for len in 1..=(MAX_CODE_LEN as usize) {
            code = (code << 1) | u32::from(r.read_bit()?);
            let count = self.counts[len];
            if count > 0 && code < self.first_code[len] + count {
                let offset = code - self.first_code[len];
                return Ok(self.symbols[(self.first_index[len] + offset) as usize] as usize);
            }
        }
        Err(BitStreamExhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(freqs: &[u64], symbols: &[usize]) {
        let book = CodeBook::from_frequencies(freqs);
        let mut w = BitWriter::new();
        for &s in symbols {
            book.encode(&mut w, s);
        }
        let (bytes, len) = w.finish();
        let dec = book.decoder();
        let mut r = BitReader::new(&bytes, len);
        for &s in symbols {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn simple_alphabet_round_trip() {
        let freqs = [10u64, 5, 3, 1];
        round_trip(&freqs, &[0, 1, 2, 3, 0, 0, 1, 2, 3, 3, 0]);
    }

    #[test]
    fn single_symbol_alphabet() {
        let freqs = [0u64, 42, 0];
        round_trip(&freqs, &[1, 1, 1, 1]);
        let book = CodeBook::from_frequencies(&freqs);
        assert_eq!(book.lengths()[1], 1);
    }

    #[test]
    fn skewed_frequencies_stay_within_limit() {
        // Fibonacci-like frequencies force deep trees; the limiter must
        // clamp them to 15 bits.
        let mut freqs = vec![0u64; 40];
        let mut a = 1u64;
        let mut b = 1u64;
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let book = CodeBook::from_frequencies(&freqs);
        assert!(book.lengths().iter().all(|&l| l <= MAX_CODE_LEN));
        round_trip(&freqs, &[0, 5, 39, 20, 1, 38]);
    }

    #[test]
    fn lengths_satisfy_kraft_inequality() {
        let freqs: Vec<u64> = (1..=64).map(|i| i * i).collect();
        let book = CodeBook::from_frequencies(&freqs);
        let kraft: f64 = book
            .lengths()
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-i32::from(l)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft sum {kraft}");
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let freqs = [1000u64, 10, 10, 10];
        let book = CodeBook::from_frequencies(&freqs);
        assert!(book.lengths()[0] <= book.lengths()[1]);
    }

    #[test]
    fn canonical_codes_from_lengths_round_trip() {
        let book = CodeBook::from_lengths(vec![2, 2, 2, 3, 3, 0]);
        let mut w = BitWriter::new();
        for s in [0usize, 3, 4, 2, 1] {
            book.encode(&mut w, s);
        }
        let (bytes, len) = w.finish();
        let dec = book.decoder();
        let mut r = BitReader::new(&bytes, len);
        for s in [0usize, 3, 4, 2, 1] {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn invalid_code_rejected() {
        // Only lengths {2,2,2} defined: the code "11" (value 3) is
        // unassigned; a stream of all ones must fail, not loop.
        let book = CodeBook::from_lengths(vec![2, 2, 2]);
        let dec = book.decoder();
        let bytes = [0xFF, 0xFF];
        let mut r = BitReader::new(&bytes, 16);
        assert!(dec.decode(&mut r).is_err());
    }
}
