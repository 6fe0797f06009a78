//! The bit codec every message is built with: 64-bit field writes and
//! reads and a 32 KiB bit-string copy, each with the stream byte-aligned
//! and three bits off a byte boundary.
//!
//! Expectation: the codec moves bytes and words, so a 64-bit field costs
//! a few word operations at any offset, and the copy runs at `memcpy`
//! speed when both sides share a bit offset and one shift-merged word per
//! 8 bytes when they do not.

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput,
};
use referee_protocol::{BitWriter, Message};

/// Fields per write/read iteration.
const FIELDS: usize = 1024;
/// Bits in the copied payload (32 KiB).
const COPY_BITS: usize = 32 * 1024 * 8;

/// A writer already holding `head` bits, so the next field starts at
/// that bit offset.
fn writer_at(head: u32) -> BitWriter {
    let mut w = BitWriter::new();
    w.write_bits(0, head);
    w
}

fn pseudo_random(i: usize) -> u64 {
    (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn bench_write_bits(c: &mut Criterion) {
    let mut group = c.benchmark_group("bits/write_bits_64");
    group.throughput(Throughput::Elements(FIELDS as u64));
    for head in [0u32, 3] {
        group.bench_with_input(BenchmarkId::new("head", head), &head, |b, &head| {
            b.iter(|| {
                let mut w = writer_at(head);
                for i in 0..FIELDS {
                    w.write_bits(pseudo_random(i), 64);
                }
                w.len_bits()
            })
        });
    }
    group.finish();
}

fn bench_read_bits(c: &mut Criterion) {
    let mut group = c.benchmark_group("bits/read_bits_64");
    group.throughput(Throughput::Elements(FIELDS as u64));
    for head in [0u32, 3] {
        let mut w = writer_at(head);
        for i in 0..FIELDS {
            w.write_bits(pseudo_random(i), 64);
        }
        let msg = Message::from_writer(w);
        group.bench_with_input(BenchmarkId::new("head", head), &head, |b, &head| {
            b.iter(|| {
                let mut r = msg.reader();
                r.read_bits(head).unwrap();
                let mut acc = 0u64;
                for _ in 0..FIELDS {
                    acc ^= r.read_bits(64).unwrap();
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_copy(c: &mut Criterion) {
    let mut group = c.benchmark_group("bits/copy_32KiB");
    group.throughput(Throughput::Bytes((COPY_BITS / 8) as u64));
    let mut w = BitWriter::new();
    for i in 0..=COPY_BITS / 64 {
        w.write_bits(pseudo_random(i), 64);
    }
    let src = Message::from_writer(w);
    // (reader offset, writer offset): equal offsets take the memcpy path,
    // unequal ones the shift-merge loop.
    for (r_off, w_off) in [(0u32, 0u32), (3, 3), (0, 3), (3, 0)] {
        let id = BenchmarkId::new("reader_writer", format!("{r_off}_{w_off}"));
        group.bench_with_input(id, &(r_off, w_off), |b, &(r_off, w_off)| {
            b.iter(|| {
                let mut r = src.reader();
                r.read_bits(r_off).unwrap();
                let mut w = writer_at(w_off);
                r.copy_bits_into(&mut w, COPY_BITS).unwrap();
                black_box(w.finish())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_write_bits, bench_read_bits, bench_copy);
criterion_main!(benches);
