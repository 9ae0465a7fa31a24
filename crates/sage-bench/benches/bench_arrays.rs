//! Criterion micro-benchmarks for the streaming primitives: bit I/O,
//! guide-array prefix decoding (the software Scan Unit inner loop),
//! and the quality codec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sage_core::bitio::{BitReader, BitWriter};
use sage_core::prefix::WidthTable;
use sage_core::quality::{compress_qualities, decompress_qualities};
use sage_genomics::sim::{simulate_dataset, DatasetProfile};

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

/// The quality codec on the two kinds of stream the store serves: one
/// short-read chunk (`rs2`, 256 reads, 4–5 symbols, ≈ 0.5 bits each)
/// and one long-read chunk (`rs4`, 8 reads, 11 symbols, ≈ 2.6 bits
/// each), as the benchmark simulates them (seed 2026). Throughput is in
/// quality symbols.
fn bench_quality(c: &mut Criterion) {
    let mut g = c.benchmark_group("quality");
    g.sample_size(20);
    for (name, profile, per_chunk) in [
        ("rs2", DatasetProfile::rs2().scaled(0.25), 256),
        ("rs4", DatasetProfile::rs4(), 8),
    ] {
        let reads = simulate_dataset(&profile, 2026).reads;
        let quals: Vec<&[u8]> = (reads.reads().iter().take(per_chunk))
            .map(|r| r.qual.as_deref().expect("simulated reads carry qualities"))
            .collect();
        let lens: Vec<usize> = quals.iter().map(|q| q.len()).collect();
        let packed = compress_qualities(quals.iter().copied());
        g.throughput(Throughput::Elements(lens.iter().sum::<usize>() as u64));
        g.bench_function(format!("compress_{name}"), |b| {
            b.iter(|| compress_qualities(quals.iter().copied()))
        });
        g.bench_function(format!("decompress_{name}"), |b| {
            b.iter(|| decompress_qualities(&packed, &lens).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_bitio, bench_guide_array_scan, bench_quality);
criterion_main!(benches);
