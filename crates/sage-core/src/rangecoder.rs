//! Adaptive binary range coder.
//!
//! SAGe compresses quality scores losslessly in a separate stream
//! (§5.1.5) on the host CPU. The paper reuses Spring's quality codec;
//! we substitute an equivalent-strength context-modelled arithmetic
//! coder built from scratch: a carry-less binary range coder (the
//! LZMA construction) with adaptive 11-bit probabilities. The symbol
//! model on top of it (which decisions are coded, under which
//! [`BitModel`]) lives in [`crate::quality`].
//!
//! Encoder and decoder move in lock step: the encoder emits exactly
//! five bytes plus one per normalisation, and the decoder consumes
//! exactly five plus one per normalisation. A decoder that is asked
//! for a byte its input does not hold is therefore reading a truncated
//! or corrupt stream — [`RangeDecoder::overrun`] reports it.

/// Number of probability quantization steps (11-bit probabilities).
const PROB_BITS: u32 = 11;
/// Initial probability: one half.
const PROB_INIT: u16 = (1 << PROB_BITS) / 2;
/// Adaptation shift: higher = slower adaptation.
const ADAPT_SHIFT: u32 = 5;
const TOP: u32 = 1 << 24;

/// One adaptive binary probability model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitModel {
    prob: u16,
}

impl Default for BitModel {
    fn default() -> BitModel {
        BitModel { prob: PROB_INIT }
    }
}

impl BitModel {
    /// Creates a model at probability ½.
    pub fn new() -> BitModel {
        BitModel::default()
    }

    /// Current probability of a zero bit, in `[0, 2048)`.
    pub fn prob(&self) -> u16 {
        self.prob
    }

    #[inline]
    fn update(&mut self, bit: bool) {
        if bit {
            self.prob -= self.prob >> ADAPT_SHIFT;
        } else {
            self.prob += ((1 << PROB_BITS) - self.prob) >> ADAPT_SHIFT;
        }
    }
}

/// Range encoder writing to an owned byte buffer.
///
/// # Example
///
/// ```
/// use sage_core::rangecoder::{BitModel, RangeDecoder, RangeEncoder};
///
/// let mut enc = RangeEncoder::new();
/// let mut m = BitModel::new();
/// for bit in [true, false, true, true] {
///     enc.encode_bit(&mut m, bit);
/// }
/// let bytes = enc.finish();
/// let mut dec = RangeDecoder::new(&bytes);
/// let mut m = BitModel::new();
/// for bit in [true, false, true, true] {
///     assert_eq!(dec.decode_bit(&mut m), bit);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> RangeEncoder {
        RangeEncoder::new()
    }
}

impl RangeEncoder {
    /// Creates an encoder.
    pub fn new() -> RangeEncoder {
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        if self.low < 0xFF00_0000 || self.low > u64::from(u32::MAX) {
            let carry = (self.low >> 32) as u8;
            self.out.push(self.cache.wrapping_add(carry));
            for _ in 1..self.cache_size {
                self.out.push(0xFFu8.wrapping_add(carry));
            }
            self.cache_size = 0;
            self.cache = (self.low >> 24) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & u64::from(u32::MAX);
    }

    /// Encodes one bit under an adaptive model.
    #[inline]
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
        let bound = (self.range >> PROB_BITS) * u32::from(model.prob);
        if bit {
            self.low += u64::from(bound);
            self.range -= bound;
        } else {
            self.range = bound;
        }
        model.update(bit);
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    /// Encodes `n` raw bits of `value` (MSB first) without modelling.
    pub fn encode_raw(&mut self, value: u64, n: u32) {
        for i in (0..n).rev() {
            let bit = (value >> i) & 1 == 1;
            self.range >>= 1;
            if bit {
                self.low += u64::from(self.range);
            }
            while self.range < TOP {
                self.shift_low();
                self.range <<= 8;
            }
        }
    }

    /// Flushes and returns the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }

    /// Bytes produced so far (excluding unflushed state).
    pub fn bytes_written(&self) -> usize {
        self.out.len()
    }
}

/// Range decoder reading from a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    input: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Creates a decoder over bytes produced by [`RangeEncoder`].
    pub fn new(input: &'a [u8]) -> RangeDecoder<'a> {
        let mut d = RangeDecoder {
            code: 0,
            range: u32::MAX,
            input,
            pos: 0,
        };
        for _ in 0..5 {
            d.code = (d.code << 8) | u32::from(d.next_byte());
        }
        d
    }

    /// Past the end the input reads as zeros (decoding never panics);
    /// `pos` keeps counting, which is what [`overrun`](Self::overrun)
    /// looks at.
    #[inline]
    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// `true` once the decoder has asked for a byte past the end of
    /// its input: the stream is truncated or corrupt, and every symbol
    /// decoded since is garbage. A stream produced by [`RangeEncoder`]
    /// and decoded under the models it was encoded with never overruns.
    #[inline]
    pub fn overrun(&self) -> bool {
        self.pos > self.input.len()
    }

    /// Decodes one bit under an adaptive model.
    #[inline]
    pub fn decode_bit(&mut self, model: &mut BitModel) -> bool {
        // Work on locals so the state lives in registers across the
        // arithmetic instead of bouncing through `&mut self` loads.
        let mut range = self.range;
        let mut code = self.code;
        let bound = (range >> PROB_BITS) * u32::from(model.prob);
        let bit = code >= bound;
        if bit {
            code -= bound;
            range -= bound;
        } else {
            range = bound;
        }
        model.update(bit);
        // One step always suffices: probabilities stay inside
        // [31, 2017], so either side of the split keeps more than
        // 2^17 of a range that was at least 2^24.
        if range < TOP {
            code = (code << 8) | u32::from(self.next_byte());
            range <<= 8;
        }
        self.range = range;
        self.code = code;
        bit
    }

    /// Decodes `n` raw bits (MSB first).
    pub fn decode_raw(&mut self, n: u32) -> u64 {
        let mut range = self.range;
        let mut code = self.code;
        let mut v = 0u64;
        for _ in 0..n {
            range >>= 1;
            let bit = code >= range;
            if bit {
                code -= range;
            }
            v = (v << 1) | u64::from(bit);
            if range < TOP {
                code = (code << 8) | u32::from(self.next_byte());
                range <<= 8;
            }
        }
        self.range = range;
        self.code = code;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_model_round_trip() {
        let bits: Vec<bool> = (0..1000).map(|i| i % 7 == 0).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut m, b);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut m = BitModel::new();
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut m), b);
        }
    }

    #[test]
    fn skewed_bits_compress_well() {
        // 10_000 bits, 1% ones: should take far less than 10_000 bits.
        let bits: Vec<bool> = (0..10_000).map(|i| i % 100 == 0).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut m, b);
        }
        let data = enc.finish();
        assert!(data.len() < 10_000 / 8 / 4, "got {} bytes", data.len());
    }

    #[test]
    fn raw_bits_round_trip() {
        let mut enc = RangeEncoder::new();
        enc.encode_raw(0b1011, 4);
        enc.encode_raw(12345, 20);
        let mut m = BitModel::new();
        enc.encode_bit(&mut m, true);
        enc.encode_raw(u64::from(u32::MAX), 32);
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        assert_eq!(dec.decode_raw(4), 0b1011);
        assert_eq!(dec.decode_raw(20), 12345);
        let mut m = BitModel::new();
        assert!(dec.decode_bit(&mut m));
        assert_eq!(dec.decode_raw(32), u64::from(u32::MAX));
    }

    #[test]
    fn empty_stream_is_decodable() {
        let enc = RangeEncoder::new();
        let data = enc.finish();
        assert_eq!(data.len(), 5);
        assert!(!RangeDecoder::new(&data).overrun());
    }

    #[test]
    fn decoder_consumes_exactly_what_the_encoder_wrote() {
        let bits: Vec<bool> = (0..5_000).map(|i| i % 3 == 0 || i % 11 == 0).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut m, b);
        }
        let data = enc.finish();
        // How many bytes decoding all of `bits` asked for, and whether
        // that counted as running past the end.
        let decode_all = |input: &[u8]| {
            let mut dec = RangeDecoder::new(input);
            let mut m = BitModel::new();
            for _ in &bits {
                dec.decode_bit(&mut m);
            }
            (dec.pos, dec.overrun())
        };
        assert_eq!(decode_all(&data), (data.len(), false));
        for cut in [0, 4, 5, data.len() / 2, data.len() - 1] {
            assert!(decode_all(&data[..cut]).1, "prefix of {cut} bytes");
        }
    }
}
