//! Criterion microbenchmarks for the core data structures: population
//! count strategies (the substance of Fig. 8), chunk access modes, and
//! block-multiply kernels (the substance of Fig. 5 / §V-A4).

use spangle_bench::criterion::{BenchmarkId, Criterion};
use spangle_bench::{criterion_group, criterion_main};
use spangle_bitmask::{
    harley_seal, Bitmask, DeltaCursor, HierarchicalBitmask, Milestones, OffsetArray,
};
use spangle_core::aggregate::builtin::Count;
use spangle_core::{ArrayBuilder, ArrayMeta, Chunk, ChunkMode, ChunkPolicy, ColumnWalk};
use spangle_dataflow::cache::{BlockManager, CacheKey};
use spangle_dataflow::{BlockOrigin, MemSize, SpangleContext};
use spangle_linalg::block::{
    block_from_triplets, block_multiply_dense_into, block_multiply_into,
    block_multiply_offsets_into, block_multiply_sparse, block_transpose, ColumnIndex,
    SparseAccumulator,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    //
    // `output_block` is the call the multiply stage makes per output
    // block: every pair one partition holds for it, 6 at the hardesty-like
    // shape (24 contraction keys over 4 partitions) and 4 at the
    // mouse-like one (16 over 4).
    for (label, n, per_million, pairs) in [
        ("512_1e-3", 512usize, 1_000u64, 6u64),
        ("256_1.4e-2", 256, 14_000, 4),
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
            bch.iter(|| block_multiply_sparse(&[(&a_index, &b_index)], &mut acc))
        });
        let indexed: Vec<(ColumnIndex, ColumnIndex)> = (0..pairs)
            .map(|k| {
                let (a, b) = (block(2 * k + 3), block(2 * k + 4));
                (
                    ColumnIndex::of_block(&a, n, n),
                    ColumnIndex::of_block(&b, n, n),
                )
            })
            .collect();
        let block_pairs: Vec<(&ColumnIndex, &ColumnIndex)> =
            indexed.iter().map(|(a, b)| (a, b)).collect();
        let id = format!("{label}/{pairs}_pairs");
        group.bench_with_input(BenchmarkId::new("output_block", id), &n, |bch, _| {
            bch.iter(|| block_multiply_sparse(black_box(&block_pairs), &mut acc))
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

    // `block_transpose` at 256²: a Dense block 55 % valid — the density of
    // a `gram_shuffle` output block, which the reduce mirrors — and a
    // Sparse one 10 % valid, through the counting sort.
    let mut group = c.benchmark_group("block_transpose");
    group.sample_size(15);
    let (n, policy) = (256usize, ChunkPolicy::default());
    for (label, per_million, mode) in [
        ("dense", 550_000u64, ChunkMode::Dense),
        ("sparse", 100_000, ChunkMode::Sparse),
    ] {
        let block = block_from_triplets(
            n,
            n,
            (0..n * n).filter_map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                ((h >> 11) % 1_000_000 < per_million).then(|| (i % n, i / n, (h >> 40) as f64))
            }),
            &policy,
        )
        .expect("block");
        assert_eq!(block.mode(), mode, "{label}");
        group.bench_function(label, |bch| {
            bch.iter(|| block_transpose(black_box(&block), n, n, &policy))
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

/// The `A'·q` kernel of PageRank over one partition's worth of adjacency
/// blocks, flat against hierarchical masks, at the two densities that
/// decide the representation: 35 edges per 256² block (twitter-like at
/// block 256 — 2048 blocks, 71 680 edges, 16 MiB of flat masks per
/// iteration) and 3 % (16 blocks, 31 456 edges). Divide the printed time
/// by the edge count for ns/edge.
fn bench_adjacency_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("adjacency_walk");
    group.sample_size(15);
    let rows = 256usize;
    let volume = rows * rows;
    let q: Vec<f64> = (0..rows).map(|j| 1.0 / (j + 1) as f64).collect();
    for (label, blocks, edges_per_block) in [("35_per_block", 2048u64, 35u64), ("3pct", 16, 1966)] {
        let offsets = |block: u64| {
            let mut edges: Vec<usize> = (0..edges_per_block)
                .map(|e| {
                    let h = (block << 32 | e).wrapping_mul(0x9E3779B97F4A7C15);
                    (h >> 40) as usize % volume
                })
                .collect();
            edges.sort_unstable();
            edges.dedup();
            edges
        };
        let flat: Vec<Bitmask> = (0..blocks)
            .map(|b| Bitmask::from_ones(volume, offsets(b)))
            .collect();
        let hier: Vec<HierarchicalBitmask> = (0..blocks)
            .map(|b| HierarchicalBitmask::from_sorted_ones(volume, offsets(b)))
            .collect();
        let edges: usize = flat.iter().map(Bitmask::count_ones).sum();
        let mut segment = vec![0.0f64; rows];
        group.bench_function(format!("flat/{label}/{edges}_edges"), |b| {
            b.iter(|| {
                for mask in &flat {
                    let mut walk = ColumnWalk::new(black_box(rows));
                    mask.for_each_one(|local| {
                        let (i, j) = walk.locate(local);
                        segment[i] += q[j];
                    });
                }
            })
        });
        group.bench_function(format!("hierarchical/{label}/{edges}_edges"), |b| {
            b.iter(|| {
                for mask in &hier {
                    let mut walk = ColumnWalk::new(black_box(rows));
                    mask.for_each_one(|local| {
                        let (i, j) = walk.locate(local);
                        segment[i] += q[j];
                    });
                }
            })
        });
        black_box(&segment);
    }
    group.finish();
}

/// The `M·x` kernel over one 5 %-dense block: the boxed `iter_valid`
/// against the in-place `for_each_valid`, each splitting the offset with a
/// `%` and a `/` or with a [`ColumnWalk`] — at 256 rows (shift and mask)
/// and at 250 (running column boundary).
fn bench_chunk_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_scan");
    group.sample_size(20);
    for rows in [256usize, 250] {
        let volume = rows * 256;
        let payload: Vec<f64> = (0..volume).map(|i| i as f64).collect();
        let chunk = Chunk::build(payload, pattern_mask(volume, 20), &ChunkPolicy::default())
            .expect("chunk");
        let x: Vec<f64> = (0..256).map(|j| 1.0 / (j + 1) as f64).collect();
        let mut acc = vec![0.0f64; rows];
        let nnz = chunk.valid_count();
        group.bench_function(format!("iter_valid+div/{rows}_rows/{nnz}_nnz"), |b| {
            b.iter(|| {
                let rows = black_box(rows);
                for (local, v) in chunk.iter_valid() {
                    acc[local % rows] += v * x[local / rows];
                }
            })
        });
        group.bench_function(format!("iter_valid+walk/{rows}_rows/{nnz}_nnz"), |b| {
            b.iter(|| {
                let mut walk = ColumnWalk::new(black_box(rows));
                for (local, v) in chunk.iter_valid() {
                    let (r, c) = walk.locate(local);
                    acc[r] += v * x[c];
                }
            })
        });
        group.bench_function(format!("for_each_valid+div/{rows}_rows/{nnz}_nnz"), |b| {
            b.iter(|| {
                let rows = black_box(rows);
                chunk.for_each_valid(|local, v| acc[local % rows] += v * x[local / rows]);
            })
        });
        group.bench_function(format!("for_each_valid+walk/{rows}_rows/{nnz}_nnz"), |b| {
            b.iter(|| {
                let mut walk = ColumnWalk::new(black_box(rows));
                chunk.for_each_valid(|local, v| {
                    let (r, c) = walk.locate(local);
                    acc[r] += v * x[c];
                });
            })
        });
        black_box(&acc);
    }
    group.finish();
}

/// The raster operators' chunk kernels. `filter` (keeping about half the
/// cells) and `restrict` (by a boundary chunk's range mask, three quarters
/// of every line) on one 128² chunk at ≈ 7 %, 30 % and 60 % density —
/// Sparse, Sparse and Dense; then `aggregate_by` counting a persisted
/// 1024² array of such chunks (30 %, two executors) into groups 4 and 32
/// cells wide. Divide a time by the entry's `_valid` count for ns per cell.
fn bench_chunk_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_ops");
    let policy = ChunkPolicy::default();
    let side = 128usize;
    let hash = |i: usize| (i.wrapping_mul(2654435761) >> 7) % 1000;
    let keep = Bitmask::from_fn(side * side, |i| i % side < side * 3 / 4);
    for percent in [7usize, 30, 60] {
        let cells = (0..side * side)
            .filter(|&i| hash(i) < percent * 10)
            .map(|i| (i, hash(i * 7 + 3) as f64));
        let chunk = Chunk::from_sorted_cells(side * side, cells, &policy).expect("chunk");
        let valid = chunk.valid_count();
        group.bench_function(format!("filter/{percent}pct/{valid}_valid"), |b| {
            b.iter(|| black_box(&chunk).filter(|v| v < 500.0, &policy))
        });
        group.bench_function(format!("restrict/{percent}pct/{valid}_valid"), |b| {
            b.iter(|| black_box(&chunk).restrict(&keep, &policy))
        });
    }
    let ctx = SpangleContext::new(2);
    let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![1024, 1024], vec![side, side]))
        .ingest(move |c| (hash(c[0] + c[1] * 1024) < 300).then_some(1.0f64))
        .build();
    arr.persist();
    let valid = arr.count_valid().expect("ingest");
    for width in [4usize, 32] {
        group.bench_function(format!("aggregate_by/{width}_wide/{valid}_valid"), |b| {
            b.iter(|| {
                arr.aggregate_by(
                    move |c| ((c[0] / width) as u64, (c[1] / width) as u64),
                    Count,
                )
                .expect("aggregate_by")
            })
        });
    }
    group.finish();
}

/// The spill frame's checksum at 1 MiB — `spangle-dataflow`'s own
/// `frame.rs`, compiled into this bench by path because the module is
/// private to its crate — against the byte-at-a-time FNV-1a it replaced.
/// Divide 1 048 576 B by the printed time for GB/s.
#[allow(dead_code)]
#[path = "../../dataflow/src/frame.rs"]
mod frame;

fn bench_frame_checksum(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_checksum");
    group.sample_size(20);
    let payload: Vec<u8> = (0..1usize << 20)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    group.bench_function("four_lane_words/1MiB", |b| {
        b.iter(|| frame::header(0, black_box(&payload)))
    });
    group.bench_function("fnv1a_bytes/1MiB", |b| {
        b.iter(|| {
            black_box(&payload)
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
                    (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
                })
        })
    });
    group.finish();
}

/// The reduce side of `MᵀM` for one output block: four 18 %-dense sorted
/// runs of a 256² block (what four map partitions deposit per block on
/// `gram_shuffle`; their sum is 55 % dense, a Dense chunk).
/// `merge_pairwise` is the retired path — each run cloned out of its
/// shuffle block, then merge-added into a fresh vector — and
/// `accumulate` the scatter-add of the runs where they lie.
/// `encode_from_sorted_cells` is the retired encode of the merged cell
/// list, `take_chunk` the drain straight from the accumulator. The
/// accumulator's two halves each time themselves, the other half running
/// untimed in between.
fn bench_partial_reduce(c: &mut Criterion) {
    fn merge(a: Vec<(u32, f64)>, b: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }
    let mut group = c.benchmark_group("partial_reduce");
    group.sample_size(15);
    let volume = 256 * 256;
    let runs: Vec<Vec<(u32, f64)>> = (1..=4u64)
        .map(|seed| {
            (0..volume as u64)
                .filter_map(|i| {
                    let mut h = (i + (seed << 32)).wrapping_mul(0x9E3779B97F4A7C15);
                    h = (h ^ (h >> 29)).wrapping_mul(0xBF58476D1CE4E5B9);
                    h ^= h >> 32;
                    (h % 100 < 18).then(|| (i as u32, ((h >> 40) + 1) as f64 / (1u64 << 24) as f64))
                })
                .collect()
        })
        .collect();
    let entries: usize = runs.iter().map(Vec::len).sum();
    let policy = ChunkPolicy::default();
    group.bench_function(format!("merge_pairwise/{entries}_entries"), |b| {
        b.iter(|| black_box(&runs).iter().cloned().fold(Vec::new(), merge))
    });
    let mut acc = SparseAccumulator::default();
    acc.fit(volume);
    group.bench_function(format!("accumulate/{entries}_entries"), |b| {
        b.iter_custom(|iters| {
            let mut timed = std::time::Duration::ZERO;
            for _ in 0..iters {
                let started = std::time::Instant::now();
                acc.add_runs(black_box(&runs).iter().map(Vec::as_slice));
                timed += started.elapsed();
                black_box(acc.take_chunk(&policy));
            }
            timed
        })
    });
    let merged = runs.iter().cloned().fold(Vec::new(), merge);
    let cells = merged.len();
    group.bench_function(format!("encode_from_sorted_cells/{cells}_cells"), |b| {
        b.iter(|| {
            let cells = black_box(&merged).iter().map(|&(i, v)| (i as usize, v));
            Chunk::from_sorted_cells(volume, cells, &policy)
        })
    });
    let mut time_take_chunk = |name: String, volume: usize, runs: &[Vec<(u32, f64)>]| {
        acc.fit(volume);
        group.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let mut timed = std::time::Duration::ZERO;
                for _ in 0..iters {
                    acc.add_runs(black_box(runs).iter().map(Vec::as_slice));
                    let started = std::time::Instant::now();
                    black_box(acc.take_chunk(&policy));
                    timed += started.elapsed();
                }
                timed
            })
        });
    };
    time_take_chunk(format!("take_chunk/{cells}_cells"), volume, &runs);
    // The hardesty-like reduce: four runs of ≈ 820 entries into one 512²
    // block, a SuperSparse chunk.
    let volume = 512 * 512;
    let runs: Vec<Vec<(u32, f64)>> = (1..=4u64)
        .map(|seed| {
            let mut run: Vec<(u32, f64)> = (0..820u64)
                .map(|e| {
                    let h = (e + (seed << 32)).wrapping_mul(0x9E3779B97F4A7C15);
                    ((h >> 20) as u32 % volume as u32, ((h >> 40) + 1) as f64)
                })
                .collect();
            run.sort_unstable_by_key(|&(i, _)| i);
            run.dedup_by_key(|&mut (i, _)| i);
            run
        })
        .collect();
    let entries: usize = runs.iter().map(Vec::len).sum();
    time_take_chunk(
        format!("take_chunk_supersparse/512x512/{entries}_entries"),
        volume,
        &runs,
    );
    group.finish();
}

/// The spill tier's three moves on one 1 MiB `(u64, Vec<(u32, f64)>)`
/// block (64 rows of 1 364 entries, the shape of `MᵀM`'s partials),
/// through a block manager: first demotion (encode + write), rehydration
/// (read + verify + decode) and re-demotion of the rehydrated block, which
/// keeps its file as a clean copy — a flip, not an encode. Each times its
/// own move; the moves that set it up run untimed in between.
fn bench_spill_tier(c: &mut Criterion) {
    type Row = (u64, Vec<(u32, f64)>);
    let mut group = c.benchmark_group("spill_tier");
    group.sample_size(10);
    let ctx = SpangleContext::new(1);
    let cache = BlockManager::default();
    let key = CacheKey {
        rdd_id: 0,
        partition: 0,
    };
    let block: Arc<Vec<Row>> = Arc::new(
        (0..64u64)
            .map(|row| {
                let entries = (0..1_364u32).map(|i| (i * 3, (row << 16 | i as u64) as f64 * 0.5));
                (row, entries.collect())
            })
            .collect(),
    );
    let bytes: usize = block.iter().map(MemSize::mem_size).sum();
    let deposit = || cache.put(&ctx, key, Arc::clone(&block), bytes, BlockOrigin::DRIVER);
    let demote = || assert_eq!(cache.spill_up_to(&ctx, usize::MAX), bytes);
    let rehydrate = || cache.get::<Row>(&ctx, key).expect("a cached block");
    group.bench_function("first_demotion/1MiB", |b| {
        b.iter_custom(|iters| time_after(iters, deposit, demote))
    });
    group.bench_function("rehydration/1MiB", |b| {
        b.iter_custom(|iters| {
            let set_up = || {
                deposit();
                demote();
            };
            time_after(iters, set_up, rehydrate)
        })
    });
    group.bench_function("re_demotion/1MiB", |b| {
        b.iter_custom(|iters| {
            let set_up = || {
                deposit();
                demote();
                rehydrate()
            };
            time_after(iters, set_up, demote)
        })
    });
    group.finish();
}

/// Times `timed` alone, `iters` times, each after an untimed `set_up`
/// whose result (and the timed move's) is dropped after the clock stops.
fn time_after<H, R>(iters: u64, set_up: impl Fn() -> H, timed: impl Fn() -> R) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let held = set_up();
        let started = Instant::now();
        let out = black_box(timed());
        total += started.elapsed();
        drop((held, out));
    }
    total
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
    targets = bench_popcount, bench_rank_strategies, bench_chunk_access, bench_block_kernels, bench_hierarchical, bench_adjacency_walk, bench_chunk_scan, bench_chunk_ops, bench_frame_checksum, bench_partial_reduce, bench_spill_tier
}
criterion_main!(benches);
