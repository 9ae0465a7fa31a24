//! LSB-first bitstream I/O.
//!
//! All of SAGe's arrays and guide arrays (§5.1) are dense bitstreams
//! interpreted by streaming scans; this module is the software analogue
//! of the Scan Unit's shift registers.

use std::fmt;

/// Appends bits to a byte buffer, least-significant bit first.
///
/// # Example
///
/// ```
/// use sage_core::bitio::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bit(true);
/// let (bytes, len) = w.finish();
/// let mut r = BitReader::new(&bytes, len);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert_eq!(r.read_bit().unwrap(), true);
/// assert_eq!(r.remaining(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in the stream.
    bit_len: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        let off = (self.bit_len % 8) as u8;
        if off == 0 {
            self.bytes.push(0);
        }
        if bit {
            *self.bytes.last_mut().expect("just pushed") |= 1 << off;
        }
        self.bit_len += 1;
    }

    /// Writes the low `n` bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or `value` has bits above `n`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot write more than 64 bits at once");
        debug_assert!(
            n == 64 || value < (1u64 << n),
            "value {value} does not fit in {n} bits"
        );
        // Pack whole partial bytes per iteration rather than looping
        // bit by bit — the layout (LSB first within each byte) is
        // unchanged.
        let mut written = 0u32;
        while written < n {
            let off = (self.bit_len % 8) as u32;
            if off == 0 {
                self.bytes.push(0);
            }
            let take = (8 - off).min(n - written);
            let chunk = ((value >> written) & ((1u64 << take) - 1)) as u8;
            *self.bytes.last_mut().expect("byte present") |= chunk << off;
            written += take;
            self.bit_len += u64::from(take);
        }
    }

    /// Writes a unary prefix code: `index` one-bits followed by a zero.
    #[inline]
    pub fn write_unary(&mut self, index: u32) {
        for _ in 0..index {
            self.write_bit(true);
        }
        self.write_bit(false);
    }

    /// Consumes the writer, returning the packed bytes and bit length.
    pub fn finish(self) -> (Vec<u8>, u64) {
        (self.bytes, self.bit_len)
    }
}

/// Error returned when a [`BitReader`] runs past the end of its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitStreamExhausted;

impl fmt::Display for BitStreamExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bit stream exhausted")
    }
}

impl std::error::Error for BitStreamExhausted {}

/// Reads bits from a byte buffer, least-significant bit first.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    bit_len: u64,
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Wraps `bytes`, of which only the first `bit_len` bits are valid.
    pub fn new(bytes: &'a [u8], bit_len: u64) -> BitReader<'a> {
        debug_assert!(bit_len <= bytes.len() as u64 * 8);
        BitReader {
            bytes,
            bit_len,
            pos: 0,
        }
    }

    /// Number of bits remaining.
    pub fn remaining(&self) -> u64 {
        self.bit_len - self.pos
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`BitStreamExhausted`] past the end of the stream.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, BitStreamExhausted> {
        if self.pos >= self.bit_len {
            return Err(BitStreamExhausted);
        }
        let byte = self.bytes[(self.pos / 8) as usize];
        let bit = (byte >> (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `n` bits, LSB first.
    ///
    /// # Errors
    ///
    /// Returns [`BitStreamExhausted`] past the end of the stream.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, BitStreamExhausted> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if self.pos + u64::from(n) > self.bit_len {
            return Err(BitStreamExhausted);
        }
        // Bulk extraction: take the rest of the current byte, then
        // whole bytes, instead of shifting one bit per iteration. The
        // bounds check above covers the whole span, so the loop body
        // indexes without re-checking.
        let mut v = 0u64;
        let mut got = 0u32;
        while got < n {
            let byte = u64::from(self.bytes[(self.pos / 8) as usize]);
            let off = (self.pos % 8) as u32;
            let take = (8 - off).min(n - got);
            v |= ((byte >> off) & ((1u64 << take) - 1)) << got;
            got += take;
            self.pos += u64::from(take);
        }
        Ok(v)
    }

    /// Reads a unary prefix code (count of one-bits before the zero),
    /// refusing to read more than `max` ones.
    ///
    /// # Errors
    ///
    /// Returns [`BitStreamExhausted`] if the stream ends or the code
    /// exceeds `max` ones (corrupt stream).
    #[inline]
    pub fn read_unary(&mut self, max: u32) -> Result<u32, BitStreamExhausted> {
        let mut n = 0;
        while self.read_bit()? {
            n += 1;
            if n > max {
                return Err(BitStreamExhausted);
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let (bytes, len) = w.finish();
        assert_eq!(len, 9);
        let mut r = BitReader::new(&bytes, len);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn multi_bit_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0x1234_5678_9abc_def0, 64);
        w.write_bits(0b11, 2);
        w.write_bits(0, 0);
        w.write_bits(7, 5);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bits(64).unwrap(), 0x1234_5678_9abc_def0);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(5).unwrap(), 7);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn unary_round_trip() {
        let mut w = BitWriter::new();
        for i in [0u32, 1, 5, 0, 3] {
            w.write_unary(i);
        }
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        for i in [0u32, 1, 5, 0, 3] {
            assert_eq!(r.read_unary(16).unwrap(), i);
        }
    }

    #[test]
    fn unary_rejects_overlong_codes() {
        let mut w = BitWriter::new();
        w.write_unary(9);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert!(r.read_unary(4).is_err());
    }

    #[test]
    fn exhaustion_reported() {
        let mut r = BitReader::new(&[0xff], 3);
        assert_eq!(r.read_bits(3).unwrap(), 0b111);
        assert!(r.read_bits(1).is_err());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn remaining_tracks_position() {
        let mut r = BitReader::new(&[0xaa, 0xbb], 16);
        assert_eq!(r.remaining(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.remaining(), 11);
    }
}
