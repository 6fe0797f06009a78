//! The word-granular bit codec against a bit-at-a-time reference model.
//!
//! The oracle below stores a stream as one `bool` per bit and implements
//! every operation the obvious way, one bit per loop iteration. Random
//! sequences of `write_bits` (widths 0..=64), `push_bit`, `write_gamma`
//! and `copy_bits_into`, started at every head alignment 0..7 on the
//! writer and on the reader side, must give the oracle's bytes, lengths
//! and reads; writer output must always be canonical (zero padding); and
//! cutting a stream at any bit must make the field that crosses the cut
//! fail with `Err(Truncated)`, never mis-decode.

use proptest::prelude::*;
use referee_protocol::{BitReader, BitWriter, DecodeError, Message};

/// Bit-at-a-time reference model of a bit stream.
#[derive(Debug, Default, Clone)]
struct Oracle(Vec<bool>);

impl Oracle {
    fn write_bits(&mut self, value: u64, width: u32) {
        for i in (0..width).rev() {
            self.0.push((value >> i) & 1 == 1);
        }
    }

    fn write_gamma(&mut self, value: u64) {
        let bits = 64 - value.leading_zeros();
        for _ in 1..bits {
            self.0.push(false);
        }
        self.write_bits(value, bits);
    }

    /// MSB-first bytes with zero padding.
    fn bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.0.len().div_ceil(8)];
        for (i, _) in self.0.iter().enumerate().filter(|(_, &b)| b) {
            out[i / 8] |= 1 << (7 - i % 8);
        }
        out
    }
}

/// Bit-at-a-time reference reader; like the real one, a failed read
/// leaves it where it was.
struct OracleReader<'a> {
    bits: &'a [bool],
    pos: usize,
}

impl OracleReader<'_> {
    fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    fn read_bit(&mut self) -> Result<bool, DecodeError> {
        let bit = *self.bits.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(bit)
    }

    fn read_bits(&mut self, width: u32) -> Result<u64, DecodeError> {
        if self.remaining() < width as usize {
            return Err(DecodeError::Truncated);
        }
        let mut v = 0u64;
        for _ in 0..width {
            v = (v << 1) | u64::from(self.read_bit()?);
        }
        Ok(v)
    }

    fn read_gamma(&mut self) -> Result<u64, DecodeError> {
        let start = self.pos;
        let out = self.read_gamma_moving();
        if out.is_err() {
            self.pos = start;
        }
        out
    }

    fn read_gamma_moving(&mut self) -> Result<u64, DecodeError> {
        let mut zeros = 0u32;
        while !self.read_bit()? {
            zeros += 1;
            if zeros >= 64 {
                return Err(DecodeError::OutOfRange("gamma prefix too long".into()));
            }
        }
        Ok((1u64 << zeros) | self.read_bits(zeros)?)
    }

    fn copy_into(&mut self, o: &mut Oracle, len: usize) -> Result<(), DecodeError> {
        if self.remaining() < len {
            return Err(DecodeError::Truncated);
        }
        o.0.extend_from_slice(&self.bits[self.pos..self.pos + len]);
        self.pos += len;
        Ok(())
    }
}

/// A deterministic bit string: `len` bits from a splitmix64 stream, with
/// a one bit only one time in `2^sparsity` so that long zero runs (and
/// over-long gamma prefixes) occur.
fn bit_string(seed: u64, len: usize, sparsity: u32) -> Oracle {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mask = (1u64 << sparsity) - 1;
    Oracle((0..len).map(|_| next() & mask == 0 && next() & 1 == 1).collect())
}

/// One writer-side operation.
#[derive(Debug, Clone)]
enum Op {
    Bits(u64, u32),
    Bit(bool),
    Gamma(u64),
    /// Copy `len` bits from a source stream whose reader first skips
    /// `skip` bits (its head alignment) and which has `trail` bits left
    /// over after the copy.
    Copy {
        seed: u64,
        skip: u32,
        len: usize,
        trail: usize,
    },
}

fn op(max_copy: usize) -> impl Strategy<Value = Op> {
    (0u8..4, any::<u64>(), 0u32..=64, 0usize..=max_copy).prop_map(|(kind, raw, width, len)| {
        match kind {
            0 => Op::Bits(if width == 64 { raw } else { raw & ((1u64 << width) - 1) }, width),
            1 => Op::Bit(raw & 1 == 1),
            2 => Op::Gamma(raw.checked_shr(width).unwrap_or(0).max(1)),
            _ => Op::Copy { seed: raw, skip: width % 8, len, trail: (raw % 13) as usize },
        }
    })
}

impl Op {
    fn source(seed: u64, skip: u32, len: usize, trail: usize) -> Oracle {
        bit_string(seed, skip as usize + len + trail, 0)
    }

    fn apply(&self, w: &mut BitWriter, o: &mut Oracle) -> Result<(), TestCaseError> {
        match *self {
            Op::Bits(v, width) => {
                w.write_bits(v, width);
                o.write_bits(v, width);
            }
            Op::Bit(b) => {
                w.push_bit(b);
                o.0.push(b);
            }
            Op::Gamma(v) => {
                w.write_gamma(v);
                o.write_gamma(v);
            }
            Op::Copy { seed, skip, len, trail } => {
                let src = Op::source(seed, skip, len, trail);
                let bytes = src.bytes();
                let mut r = BitReader::new(&bytes, src.0.len());
                r.read_bits(skip).unwrap();
                r.copy_bits_into(w, len).unwrap();
                prop_assert_eq!(r.remaining(), trail);
                o.0.extend_from_slice(&src.0[skip as usize..skip as usize + len]);
            }
        }
        Ok(())
    }

    /// Read this op's field back from `r`, checking it against what was
    /// written.
    fn read_back(
        &self,
        r: &mut BitReader<'_>,
    ) -> Result<Result<(), DecodeError>, TestCaseError> {
        match *self {
            Op::Bits(v, width) => match r.read_bits(width) {
                Ok(got) => prop_assert_eq!(got, v),
                Err(e) => return Ok(Err(e)),
            },
            Op::Bit(b) => match r.read_bit() {
                Ok(got) => prop_assert_eq!(got, b),
                Err(e) => return Ok(Err(e)),
            },
            Op::Gamma(v) => match r.read_gamma() {
                Ok(got) => prop_assert_eq!(got, v),
                Err(e) => return Ok(Err(e)),
            },
            Op::Copy { seed, skip, len, trail } => {
                let mut w = BitWriter::new();
                if let Err(e) = r.copy_bits_into(&mut w, len) {
                    prop_assert_eq!(w.len_bits(), 0);
                    return Ok(Err(e));
                }
                let src = Op::source(seed, skip, len, trail);
                let want = Oracle(src.0[skip as usize..skip as usize + len].to_vec());
                prop_assert_eq!(w.finish(), (want.bytes(), len));
            }
        }
        Ok(Ok(()))
    }
}

/// A nonzero head of `bits` bits, so copies and fields must merge into
/// set bits rather than rely on a zeroed byte.
fn head(bits: u32) -> u64 {
    0b1011_0110 >> (8 - bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn writer_matches_bitwise_oracle(ops in proptest::collection::vec(op(600), 0..40)) {
        for w_off in 0..8u32 {
            let mut w = BitWriter::new();
            let mut o = Oracle::default();
            w.write_bits(head(w_off), w_off);
            o.write_bits(head(w_off), w_off);
            for op in &ops {
                op.apply(&mut w, &mut o)?;
                prop_assert_eq!(w.len_bits(), o.0.len());
            }
            let (bytes, len) = w.finish();
            prop_assert_eq!(&bytes, &o.bytes());
            prop_assert_eq!(len, o.0.len());
            // Zero padding: every writer output is a canonical message.
            prop_assert!(Message::from_bits(bytes, len).is_ok());
        }
    }

    #[test]
    fn reader_matches_bitwise_oracle(
        stream in (any::<u64>(), 0usize..900, 0u32..8),
        reads in proptest::collection::vec((0u8..4, 0u32..=64, 0usize..300), 0..40),
    ) {
        let (seed, len, sparsity) = stream;
        let src = bit_string(seed, len, sparsity);
        let bytes = src.bytes();
        for r_off in 0..8u32 {
            let mut r = BitReader::new(&bytes, len);
            let mut o = OracleReader { bits: &src.0, pos: 0 };
            prop_assert_eq!(r.read_bits(r_off), o.read_bits(r_off));
            for &(kind, width, copy_len) in &reads {
                match kind {
                    0 => prop_assert_eq!(r.read_bits(width), o.read_bits(width)),
                    1 => prop_assert_eq!(r.read_bit(), o.read_bit()),
                    2 => prop_assert_eq!(r.read_gamma(), o.read_gamma()),
                    _ => {
                        let w_off = width % 8;
                        let mut w = BitWriter::new();
                        let mut ow = Oracle::default();
                        w.write_bits(head(w_off), w_off);
                        ow.write_bits(head(w_off), w_off);
                        prop_assert_eq!(
                            r.copy_bits_into(&mut w, copy_len),
                            o.copy_into(&mut ow, copy_len)
                        );
                        prop_assert_eq!(w.finish(), (ow.bytes(), ow.0.len()));
                    }
                }
                prop_assert_eq!(r.remaining(), o.remaining());
            }
        }
    }

    #[test]
    fn every_cut_is_truncated(ops in proptest::collection::vec(op(150), 1..10)) {
        let mut w = BitWriter::new();
        let mut o = Oracle::default();
        for op in &ops {
            op.apply(&mut w, &mut o)?;
        }
        let (bytes, len) = w.finish();
        // The whole stream reads back exactly.
        let mut r = BitReader::new(&bytes, len);
        for op in &ops {
            prop_assert_eq!(op.read_back(&mut r)?, Ok(()));
        }
        prop_assert!(r.is_exhausted());
        // Every shorter length — over the same bytes, so the bits past
        // the cut are still in the buffer and must not be read.
        for cut in 0..len {
            let mut r = BitReader::new(&bytes, cut);
            let mut failed = None;
            for op in &ops {
                if let Err(e) = op.read_back(&mut r)? {
                    failed = Some(e);
                    break;
                }
            }
            prop_assert_eq!(failed, Some(DecodeError::Truncated), "cut at bit {} of {}", cut, len);
        }
    }
}
