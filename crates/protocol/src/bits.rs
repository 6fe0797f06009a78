//! Bit-exact serialization.
//!
//! The paper's bounds are stated in *bits* ("each vertex is allowed to send
//! only O(log n) bits"), so message sizes here are tracked to the bit, not
//! the byte. [`BitWriter`] appends MSB-first into a byte buffer;
//! [`BitReader`] consumes the same layout and fails loudly on truncation.
//!
//! Besides fixed-width fields the writer offers Elias gamma coding for
//! length prefixes whose magnitude is data-dependent (used by the
//! variable-size power-sum sketches).
//!
//! # Layout invariants
//!
//! Every wire format in the workspace is built on these, so they are fixed:
//!
//! * **MSB-first.** Bit `i` of a stream is bit `7 - i % 8` of byte
//!   `i / 8`; a field's most significant bit comes first.
//! * **Zero padding.** A writer holding `len_bits` bits owns exactly
//!   `⌈len_bits / 8⌉` bytes, and every bit of the final byte past
//!   `len_bits` is zero. [`Message::from_bits`](crate::Message::from_bits)
//!   rejects anything else, and [`Message`](crate::Message) equality and
//!   hashing compare bytes, so one bit string has one representation.
//! * **Failed reads do not move.** Every `Err` from [`BitReader`] leaves
//!   the reader where it was, and a failed
//!   [`copy_bits_into`](BitReader::copy_bits_into) leaves the writer
//!   untouched as well: lengths are checked before anything is consumed.
//!
//! The codec moves whole bytes and 64-bit words, not single bits: a
//! field fills the writer's partial head byte and then appends whole
//! bytes; a read loads one big-endian word (plus one byte when the field
//! straddles it) and shifts the field out; a copy tops up the writer's
//! head byte, then `memcpy`s when both sides share a bit offset and
//! shift-merges a word at a time when they do not.

use crate::DecodeError;

/// MSB-first bit appender.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in `bytes` (the last byte may be partial).
    len_bits: usize,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Append the low `width` bits of `value`, MSB first. `width ≤ 64`;
    /// panics if `value` does not fit (a protocol bug, not a data error).
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} > 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        // The field's first bit at bit 63, zeros below it: whatever is
        // appended past the field is zero padding.
        let mut word = value << (64 - width);
        let off = self.len_bits % 8;
        if off != 0 {
            let last = self.bytes.last_mut().expect("a partial byte is a final byte");
            *last |= (word >> (56 + off)) as u8;
            word <<= 8 - off;
        }
        self.len_bits += width as usize;
        // A fixed 8-byte append, then cut back to the exact length.
        self.bytes.extend_from_slice(&word.to_be_bytes());
        self.bytes.truncate(self.len_bits.div_ceil(8));
    }

    /// Append a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        let off = self.len_bits % 8;
        if off == 0 {
            self.bytes.push(0);
        }
        if bit {
            *self.bytes.last_mut().unwrap() |= 1 << (7 - off);
        }
        self.len_bits += 1;
    }

    /// Elias gamma code for `value ≥ 1`: `⌊log₂ v⌋` zeros, then the binary
    /// representation of `v`. Encodes `v` in `2⌊log₂ v⌋ + 1` bits.
    pub fn write_gamma(&mut self, value: u64) {
        assert!(value >= 1, "gamma code requires value ≥ 1");
        let bits = 64 - value.leading_zeros();
        if 2 * bits - 1 <= 64 {
            // The zero prefix is just the field's own leading zeros.
            self.write_bits(value, 2 * bits - 1);
        } else {
            self.write_bits(0, bits - 1);
            self.write_bits(value, bits);
        }
    }

    /// Finish, returning the byte buffer and exact bit length.
    pub fn finish(self) -> (Vec<u8>, usize) {
        (self.bytes, self.len_bits)
    }
}

/// MSB-first bit consumer over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    len_bits: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from `bytes`, of which only the first `len_bits` bits are valid.
    pub fn new(bytes: &'a [u8], len_bits: usize) -> Self {
        debug_assert!(len_bits <= bytes.len() * 8);
        BitReader { bytes, len_bits, pos: 0 }
    }

    /// Bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.len_bits - self.pos
    }

    /// Whether every valid bit has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Read one bit.
    pub fn read_bit(&mut self) -> Result<bool, DecodeError> {
        if self.pos >= self.len_bits {
            return Err(DecodeError::Truncated);
        }
        let byte = self.bytes[self.pos / 8];
        let bit = (byte >> (7 - self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Read `width ≤ 64` bits as an MSB-first unsigned value.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, DecodeError> {
        assert!(width <= 64, "width {width} > 64");
        if self.remaining() < width as usize {
            return Err(DecodeError::Truncated);
        }
        Ok(self.take(width))
    }

    /// The next `width ≤ 64` bits as a value, without consuming them.
    /// The caller guarantees `width ≤ remaining()`.
    fn peek(&self, width: u32) -> u64 {
        if width == 0 {
            return 0;
        }
        let at = self.pos / 8;
        let off = (self.pos % 8) as u32;
        let mut word = load_be(&self.bytes[at..]) << off;
        if off + width > 64 {
            // The field straddles the loaded word; the byte after it
            // exists because the field lies within `len_bits`.
            word |= u64::from(self.bytes[at + 8] >> (8 - off));
        }
        word >> (64 - width)
    }

    /// [`peek`](Self::peek), then consume.
    fn take(&mut self, width: u32) -> u64 {
        let v = self.peek(width);
        self.pos += width as usize;
        v
    }

    /// Copy the next `len_bits` bits verbatim into `w`, or return
    /// `Err(Truncated)` — with neither `self` nor `w` changed — if fewer
    /// remain. The shared primitive behind every "embed a bit string
    /// inside another" codec — partial-state payloads, verdict payloads —
    /// so the alignment handling exists in one place.
    pub fn copy_bits_into(
        &mut self,
        w: &mut BitWriter,
        len_bits: usize,
    ) -> Result<(), DecodeError> {
        if self.remaining() < len_bits {
            return Err(DecodeError::Truncated);
        }
        // Top up the writer's partial final byte: from here on it is
        // byte-aligned.
        let head = ((8 - w.len_bits % 8) % 8).min(len_bits) as u32;
        w.write_bits(self.take(head), head);
        let left = len_bits - head as usize;
        let full = left / 8;
        let src = &self.bytes[self.pos / 8..];
        let shift = self.pos % 8;
        w.bytes.reserve(left.div_ceil(8));
        if shift == 0 {
            w.bytes.extend_from_slice(&src[..full]);
        } else {
            // Output byte `j` is the low `8 - shift` bits of `src[j]`
            // followed by the high `shift` bits of `src[j + 1]`, which
            // exists because the copied bits end inside it.
            let mut j = 0;
            while j + 8 <= full {
                let hi = load_be(&src[j..]) << shift;
                let word = hi | u64::from(src[j + 8] >> (8 - shift));
                w.bytes.extend_from_slice(&word.to_be_bytes());
                j += 8;
            }
            for j in j..full {
                w.bytes.push(src[j] << shift | src[j + 1] >> (8 - shift));
            }
        }
        self.pos += full * 8;
        w.len_bits += full * 8;
        let tail = (left % 8) as u32;
        if tail > 0 {
            // One last, zero-padded byte, inside the capacity reserved
            // above.
            w.bytes.push((self.take(tail) << (8 - tail)) as u8);
            w.len_bits += tail as usize;
        }
        Ok(())
    }

    /// Read an Elias gamma code (inverse of [`BitWriter::write_gamma`]).
    pub fn read_gamma(&mut self) -> Result<u64, DecodeError> {
        let avail = self.remaining().min(64) as u32;
        if avail == 0 {
            return Err(DecodeError::Truncated);
        }
        let zeros = (self.peek(avail) << (64 - avail)).leading_zeros();
        if zeros >= avail {
            return Err(if avail == 64 {
                DecodeError::OutOfRange("gamma prefix too long".into())
            } else {
                DecodeError::Truncated
            });
        }
        if self.remaining() < 2 * zeros as usize + 1 {
            return Err(DecodeError::Truncated);
        }
        // The value is the `zeros + 1` bits starting at its leading 1.
        self.pos += zeros as usize;
        Ok(self.take(zeros + 1))
    }
}

/// The first (up to) 8 bytes of `bytes` as a big-endian word, zero-filled
/// past the end of the slice.
fn load_be(bytes: &[u8]) -> u64 {
    match bytes.get(..8) {
        Some(word) => u64::from_be_bytes(word.try_into().expect("8 bytes")),
        None => {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            u64::from_be_bytes(word)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_field_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        let (bytes, len) = w.finish();
        assert_eq!(len, 4);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert!(r.is_exhausted());
    }

    #[test]
    fn multi_field_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(5, 3);
        w.write_bits(0, 1);
        w.write_bits(u64::MAX, 64);
        w.write_bits(1234567, 21);
        let (bytes, len) = w.finish();
        assert_eq!(len, 3 + 1 + 64 + 21);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bits(3).unwrap(), 5);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(21).unwrap(), 1234567);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_detected() {
        let mut w = BitWriter::new();
        w.write_bits(7, 3);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bits(2).unwrap(), 3);
        assert_eq!(r.read_bits(2), Err(DecodeError::Truncated));
    }

    #[test]
    fn partial_final_byte_is_bounded() {
        // The writer emits 3 bits; the reader must not see phantom bits
        // from the rest of the final byte.
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let (bytes, len) = w.finish();
        assert_eq!(bytes.len(), 1);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bit(), Err(DecodeError::Truncated));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_is_a_bug() {
        BitWriter::new().write_bits(8, 3);
    }

    #[test]
    fn gamma_round_trip() {
        let mut w = BitWriter::new();
        let values = [1u64, 2, 3, 4, 7, 8, 1000, u32::MAX as u64];
        for &v in &values {
            w.write_gamma(v);
        }
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        for &v in &values {
            assert_eq!(r.read_gamma().unwrap(), v);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn gamma_length_formula() {
        for v in [1u64, 2, 4, 9, 100] {
            let mut w = BitWriter::new();
            w.write_gamma(v);
            let bits = 64 - v.leading_zeros();
            assert_eq!(w.len_bits() as u32, 2 * bits - 1, "gamma({v})");
        }
    }

    #[test]
    fn gamma_truncation() {
        let (bytes, _) = {
            let mut w = BitWriter::new();
            w.write_gamma(100);
            w.finish()
        };
        // chop the stream mid-prefix
        let mut r = BitReader::new(&bytes, 3);
        assert_eq!(r.read_gamma(), Err(DecodeError::Truncated));
    }

    #[test]
    fn failed_copy_moves_neither_side() {
        // From an unaligned reader into an unaligned writer, ask for one
        // bit more than remains, past several whole words: neither side
        // may move.
        let bytes = [0xa5u8; 25];
        let mut r = BitReader::new(&bytes, 200);
        r.read_bits(3).unwrap();
        let mut w = BitWriter::new();
        w.write_bits(0b10, 2);
        assert_eq!(r.copy_bits_into(&mut w, 198), Err(DecodeError::Truncated));
        assert_eq!(r.remaining(), 197);
        assert_eq!(w.clone().finish(), (vec![0b1000_0000], 2));
        // The same reader and writer then copy what is really there.
        r.copy_bits_into(&mut w, 197).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(w.len_bits(), 199);
    }

    #[test]
    fn failed_gamma_read_does_not_move() {
        let mut w = BitWriter::new();
        w.write_gamma(100);
        let (bytes, len) = w.finish();
        // prefix complete, binary part cut short
        let mut r = BitReader::new(&bytes, len - 1);
        assert_eq!(r.read_gamma(), Err(DecodeError::Truncated));
        assert_eq!(r.remaining(), len - 1);
        // 64 zeros: the prefix alone would overflow a u64
        let zeros = [0u8; 9];
        let mut r = BitReader::new(&zeros, 72);
        assert!(matches!(r.read_gamma(), Err(DecodeError::OutOfRange(_))));
        assert_eq!(r.remaining(), 72);
    }

    #[test]
    fn empty_reader() {
        let mut r = BitReader::new(&[], 0);
        assert!(r.is_exhausted());
        assert_eq!(r.read_bit(), Err(DecodeError::Truncated));
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }
}
