//! Criterion microbenchmarks for the core data structures: population
//! count strategies (the substance of Fig. 8), chunk access modes, and
//! block-multiply kernels (the substance of Fig. 5 / §V-A4).

use spangle_bench::criterion::{BenchmarkId, Criterion};
use spangle_bench::{criterion_group, criterion_main};
use spangle_bitmask::{
    harley_seal, Bitmask, DeltaCursor, HierarchicalBitmask, Milestones, OffsetArray,
};
use spangle_core::{Chunk, ChunkPolicy};
use spangle_linalg::block::{
    block_from_triplets, block_multiply_dense_into, block_multiply_into,
    block_multiply_offsets_into, block_multiply_sparse, ColumnIndex, SparseAccumulator,
};
use std::hint::black_box;

fn pattern_mask(len: usize, every: usize) -> Bitmask {
    Bitmask::from_fn(len, |i| (i * 2654435761) % every == 0)
}

fn bench_popcount(c: &mut Criterion) {
    let mut group = c.benchmark_group("popcount");
    group.sample_size(20);
    let mask = pattern_mask(65536, 7);
    group.bench_function("harley_seal_64k_bits", |b| {
        b.iter(|| harley_seal(black_box(mask.words())))
    });
    group.bench_function("scalar_64k_bits", |b| {
        b.iter(|| {
            mask.words()
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_rank_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("rank_strategies");
    group.sample_size(20);
    for bits in [4096usize, 65536] {
        let mask = pattern_mask(bits, 5);
        let milestones = Milestones::build(&mask);
        let positions: Vec<usize> = (0..bits).step_by(97).collect();
        group.bench_with_input(BenchmarkId::new("naive", bits), &bits, |b, _| {
            b.iter(|| positions.iter().map(|&p| mask.rank_naive(p)).sum::<usize>())
        });
        group.bench_with_input(BenchmarkId::new("milestones", bits), &bits, |b, _| {
            b.iter(|| {
                positions
                    .iter()
                    .map(|&p| milestones.rank(&mask, p))
                    .sum::<usize>()
            })
        });
        group.bench_with_input(BenchmarkId::new("delta_sequential", bits), &bits, |b, _| {
            b.iter(|| {
                let mut cursor = DeltaCursor::new(&mask);
                positions.iter().map(|&p| cursor.rank(p)).sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_chunk_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_access");
    group.sample_size(20);
    let volume = 65536;
    let payload: Vec<f64> = (0..volume).map(|i| i as f64).collect();
    let mask = pattern_mask(volume, 5);
    let sparse_naive =
        Chunk::build(payload.clone(), mask.clone(), &ChunkPolicy::naive_sparse()).expect("chunk");
    let sparse_opt =
        Chunk::build(payload.clone(), mask.clone(), &ChunkPolicy::default()).expect("chunk");
    let dense = Chunk::build(payload, mask, &ChunkPolicy::always_dense()).expect("chunk");
    group.bench_function("random_get_naive", |b| {
        b.iter(|| {
            (0..volume)
                .step_by(61)
                .filter_map(|i| sparse_naive.get_naive(i))
                .sum::<f64>()
        })
    });
    group.bench_function("random_get_milestones", |b| {
        b.iter(|| {
            (0..volume)
                .step_by(61)
                .filter_map(|i| sparse_opt.get(i))
                .sum::<f64>()
        })
    });
    group.bench_function("random_get_dense", |b| {
        b.iter(|| {
            (0..volume)
                .step_by(61)
                .filter_map(|i| dense.get(i))
                .sum::<f64>()
        })
    });
    group.bench_function("sequential_iter_valid", |b| {
        b.iter(|| sparse_opt.iter_valid().map(|(_, v)| v).sum::<f64>())
    });
    group.finish();
}

fn bench_block_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_multiply");
    group.sample_size(15);
    let n = 128;
    for every in [2usize, 20, 200] {
        let a = block_from_triplets(
            n,
            n,
            (0..n).flat_map(|r| {
                (0..n)
                    .filter(move |cc| (r * 31 + cc * 7) % every == 0)
                    .map(move |cc| (r, cc, 1.5))
            }),
            &ChunkPolicy::default(),
        )
        .expect("block");
        let b_block = block_from_triplets(
            n,
            n,
            (0..n).flat_map(|r| {
                (0..n)
                    .filter(move |cc| (r * 13 + cc * 3) % every == 0)
                    .map(move |cc| (r, cc, 0.5))
            }),
            &ChunkPolicy::default(),
        )
        .expect("block");
        let offsets = OffsetArray::from_mask(&a.mask());
        let values: Vec<f64> = a.iter_valid().map(|(_, v)| v).collect();
        group.bench_with_input(BenchmarkId::new("bitmask", every), &every, |bch, _| {
            bch.iter(|| {
                let mut out = vec![0.0; n * n];
                block_multiply_into(&a, n, &b_block, n, n, &mut out);
                out
            })
        });
        group.bench_with_input(BenchmarkId::new("offsets", every), &every, |bch, _| {
            bch.iter(|| {
                let mut out = vec![0.0; n * n];
                block_multiply_offsets_into(&offsets, &values, n, &b_block, n, n, &mut out);
                out
            })
        });
        group.bench_with_input(BenchmarkId::new("dense", every), &every, |bch, _| {
            bch.iter(|| {
                let mut out = vec![0.0; n * n];
                block_multiply_dense_into(&a, n, &b_block, n, n, &mut out);
                out
            })
        });
    }
    // The kernel `multiply()` / `gram()` run, at the two block shapes of
    // the benchmark's gram workloads (`linalg.block_mul_*` probes): both
    // blocks indexed beforehand, one accumulator reused, sparse output.
    // `index_build` is what a block pays once per contraction key;
    // `bitmask` at the same shape is the dense-output kernel, index
    // included.
    for (label, n, per_million) in [
        ("512_1e-3", 512usize, 1_000u64),
        ("256_1.4e-2", 256, 14_000),
    ] {
        let block = |seed: u64| {
            block_from_triplets(
                n,
                n,
                (0..n * n).filter_map(|i| {
                    let h = (i as u64 ^ seed << 32).wrapping_mul(0x9E3779B97F4A7C15);
                    ((h >> 11) % 1_000_000 < per_million)
                        .then(|| (i % n, i / n, ((h >> 40) + 1) as f64 / (1u64 << 24) as f64))
                }),
                &ChunkPolicy::default(),
            )
            .expect("block")
        };
        let (a, b_block) = (block(1), block(2));
        let a_index = ColumnIndex::of_block(&a, n, n);
        let b_index = ColumnIndex::of_block(&b_block, n, n);
        let mut acc = SparseAccumulator::default();
        group.bench_with_input(BenchmarkId::new("sparse_acc", label), &n, |bch, _| {
            bch.iter(|| block_multiply_sparse(&a_index, &b_index, &mut acc))
        });
        group.bench_with_input(BenchmarkId::new("index_build", label), &n, |bch, _| {
            bch.iter(|| ColumnIndex::of_block(black_box(&a), n, n))
        });
        let mut out = vec![0.0; n * n];
        group.bench_with_input(BenchmarkId::new("bitmask", label), &n, |bch, _| {
            bch.iter(|| block_multiply_into(&a, n, &b_block, n, n, black_box(&mut out)))
        });
    }
    group.finish();
}

fn bench_hierarchical(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchical_mask");
    group.sample_size(20);
    let mask = pattern_mask(1 << 18, 5000);
    group.bench_function("compress", |b| {
        b.iter(|| HierarchicalBitmask::compress(black_box(&mask)))
    });
    let h = HierarchicalBitmask::compress(&mask);
    group.bench_function("iter_ones", |b| b.iter(|| h.iter_ones().sum::<usize>()));
    group.finish();
}

/// Short measurement windows so `cargo bench --workspace` stays quick;
/// raise `measurement_time`/`sample_size` here for tighter numbers.
fn quick_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(900))
        .warm_up_time(std::time::Duration::from_millis(200))
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_popcount, bench_rank_strategies, bench_chunk_access, bench_block_kernels, bench_hierarchical
}
criterion_main!(benches);
