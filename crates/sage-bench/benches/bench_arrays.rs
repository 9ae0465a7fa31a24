//! Criterion micro-benchmarks for the streaming primitives: bit I/O,
//! guide-array prefix decoding (the software Scan Unit inner loop),
//! and the quality codec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sage_core::bitio::{BitReader, BitWriter};
use sage_core::prefix::WidthTable;
use sage_core::quality::{compress_qualities, decompress_qualities};

fn bench_bitio(c: &mut Criterion) {
    const N: usize = 100_000;
    let mut g = c.benchmark_group("bitio");
    g.sample_size(20);
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("write_read_7bit", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for i in 0..N {
                w.write_bits((i % 128) as u64, 7);
            }
            let (bytes, len) = w.finish();
            let mut r = BitReader::new(&bytes, len);
            let mut acc = 0u64;
            for _ in 0..N {
                acc = acc.wrapping_add(r.read_bits(7).unwrap());
            }
            acc
        })
    });
    g.finish();
}

fn bench_guide_array_scan(c: &mut Criterion) {
    const N: usize = 100_000;
    let table = WidthTable::new(vec![2, 5, 9]).unwrap();
    let mut guide = BitWriter::new();
    let mut array = BitWriter::new();
    let values: Vec<u64> = (0..N as u64).map(|i| (i * 37) % 400).collect();
    for &v in &values {
        table.encode_value(&mut guide, &mut array, v);
    }
    let (gb, gl) = guide.finish();
    let (ab, al) = array.finish();

    let mut g = c.benchmark_group("scan_unit");
    g.sample_size(20);
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("decode_tuned_values", |b| {
        b.iter(|| {
            let mut gr = BitReader::new(&gb, gl);
            let mut ar = BitReader::new(&ab, al);
            let mut acc = 0u64;
            for _ in 0..N {
                acc = acc.wrapping_add(table.decode_value(&mut gr, &mut ar).unwrap());
            }
            acc
        })
    });
    g.finish();
}

fn bench_quality(c: &mut Criterion) {
    let quals: Vec<Vec<u8>> = (0..200)
        .map(|i| (0..150).map(|j| b'I' - ((i * j) % 5) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = quals.iter().map(|q| q.as_slice()).collect();
    let total: u64 = quals.iter().map(|q| q.len() as u64).sum();
    let lens: Vec<usize> = quals.iter().map(|q| q.len()).collect();
    let packed = compress_qualities(refs.iter().copied());

    let mut g = c.benchmark_group("quality");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(total));
    g.bench_function("compress", |b| {
        b.iter(|| compress_qualities(refs.iter().copied()))
    });
    g.bench_function("decompress", |b| {
        b.iter(|| decompress_qualities(&packed, &lens).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_bitio, bench_guide_array_scan, bench_quality);
criterion_main!(benches);
