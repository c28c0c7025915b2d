//! Criterion versions of the paper's figures, at reduced scale so
//! `cargo bench` completes quickly. The full-scale sweeps live in the
//! `fig7`…`fig12`/`table3` binaries (see `spangle-bench`'s crate docs).

use spangle_baselines::{
    pagerank_edge_list, BlockMatrix, CooBlock, CscBlock, DenseBlock, RowLogReg,
};
use spangle_bench::criterion::{BenchmarkId, Criterion};
use spangle_bench::{criterion_group, criterion_main};
use spangle_core::{ArrayBuilder, ArrayMeta, ChunkPolicy};
use spangle_dataflow::SpangleContext;
use spangle_linalg::{DenseVector, DistMatrix};
use spangle_ml::{datasets, pagerank, Graph, LogisticRegression, OptLevel, SgdConfig};
use spangle_raster::{ChlConfig, DenseRaster, QueryRange, RasterSystem, SpangleRaster};

fn small_ctx() -> SpangleContext {
    SpangleContext::new(4)
}

/// Fig. 7 (reduced): Q1/Q4 on a CHL-like raster, Spangle vs dense.
fn bench_fig7(c: &mut Criterion) {
    let ctx = small_ctx();
    let cfg = ChlConfig {
        lon: 256,
        lat: 128,
        time: 2,
        ..ChlConfig::default()
    };
    let meta = ArrayMeta::new(cfg.dims(), vec![64, 64, 1]);
    let spangle = SpangleRaster::ingest(&ctx, meta.clone(), cfg.value_fn());
    let dense = DenseRaster::ingest(&ctx, meta, cfg.value_fn());
    let range = QueryRange {
        lo: vec![32, 16, 0],
        hi: vec![224, 112, 2],
    };
    let mut group = c.benchmark_group("fig7_raster_queries");
    group.sample_size(10);
    group.bench_function("q1_spangle", |b| b.iter(|| spangle.q1_avg(&range)));
    group.bench_function("q1_scispark_dense", |b| b.iter(|| dense.q1_avg(&range)));
    group.bench_function("q4_spangle", |b| {
        b.iter(|| spangle.q4_filter_count(&range, 0.1, 0.8))
    });
    group.bench_function("q4_scispark_dense", |b| {
        b.iter(|| dense.q4_filter_count(&range, 0.1, 0.8))
    });
    group.finish();
}

/// Fig. 8 (reduced): chunk-size sweep of the three access strategies.
fn bench_fig8(c: &mut Criterion) {
    let ctx = small_ctx();
    let cfg = ChlConfig {
        lon: 512,
        lat: 256,
        time: 1,
        ..ChlConfig::default()
    };
    let mut group = c.benchmark_group("fig8_access_strategies");
    group.sample_size(10);
    for w in [32usize, 128] {
        let meta = ArrayMeta::new(cfg.dims(), vec![w, w, 1]);
        for (label, policy) in [
            (
                "naive",
                ChunkPolicy {
                    dense_threshold: 1.1,
                    build_milestones: false,
                },
            ),
            ("dense", ChunkPolicy::always_dense()),
            (
                "opt",
                ChunkPolicy {
                    dense_threshold: 1.1,
                    build_milestones: true,
                },
            ),
        ] {
            let arr = ArrayBuilder::new(&ctx, meta.clone())
                .policy(policy)
                .ingest(cfg.value_fn())
                .build();
            arr.persist();
            arr.count_valid().expect("ingest");
            let use_naive = label == "naive";
            group.bench_with_input(BenchmarkId::new(label, w), &w, |b, _| {
                b.iter(|| {
                    arr.rdd()
                        .run_partitions(move |_, chunks| {
                            let mut acc = 0.0;
                            for (_, chunk) in chunks {
                                for i in 0..chunk.volume() {
                                    let v = if use_naive {
                                        chunk.get_naive(i)
                                    } else {
                                        chunk.get(i)
                                    };
                                    if let Some(v) = v {
                                        acc += v;
                                    }
                                }
                            }
                            acc
                        })
                        .expect("scan")
                })
            });
        }
    }
    group.finish();
}

/// Fig. 9b (reduced): lazy vs eager multi-attribute pipelines.
fn bench_fig9b(c: &mut Criterion) {
    use spangle_core::maskrdd::SpangleArray;
    let ctx = small_ctx();
    let cfg = spangle_raster::SdssConfig {
        width: 256,
        height: 128,
        images: 2,
        ..spangle_raster::SdssConfig::default()
    };
    let meta = ArrayMeta::new(cfg.dims(), vec![64, 64, 1]);
    let build = |lazy: bool| {
        let attrs: Vec<(String, _)> = (0..3)
            .map(|b| {
                let arr = ArrayBuilder::new(&ctx, meta.clone())
                    .ingest(cfg.band_fn(b))
                    .build();
                arr.persist();
                arr.count_valid().expect("ingest");
                (format!("b{b}"), arr)
            })
            .collect();
        SpangleArray::new(attrs, lazy)
    };
    let lazy = build(true);
    let eager = build(false);
    let pipeline = |arr: &SpangleArray<f64>| {
        let chained = arr
            .subarray(&[16, 16, 0], &[240, 112, 2])
            .filter_attribute("b0", |v| v > 50.0);
        arr.attribute_names()
            .iter()
            .map(|n| chained.count_valid(n).expect("pipeline"))
            .sum::<usize>()
    };
    let mut group = c.benchmark_group("fig9b_maskrdd");
    group.sample_size(10);
    group.bench_function("with_maskrdd_3attrs", |b| b.iter(|| pipeline(&lazy)));
    group.bench_function("without_maskrdd_3attrs", |b| b.iter(|| pipeline(&eager)));
    group.finish();
}

/// Fig. 10 (reduced): M×V across the four formats on a mouse-like matrix.
fn bench_fig10(c: &mut Criterion) {
    let ctx = small_ctx();
    let n = 1024;
    let block = 128;
    let f = |r: usize, cc: usize| {
        (r * 31 + cc * 17)
            .is_multiple_of(70)
            .then(|| (r + cc) as f64)
    };
    let spangle = DistMatrix::generate(&ctx, n, n, (block, block), ChunkPolicy::default(), f);
    spangle.persist();
    spangle.nnz().expect("ingest");
    let coo = BlockMatrix::<CooBlock>::generate(&ctx, n, n, (block, block), f);
    coo.persist();
    coo.nnz().expect("ingest");
    let csc = BlockMatrix::<CscBlock>::generate(&ctx, n, n, (block, block), f);
    csc.persist();
    csc.nnz().expect("ingest");
    let dense = BlockMatrix::<DenseBlock>::generate(&ctx, n, n, (block, block), f);
    dense.persist();
    dense.nnz().expect("ingest");
    let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
    let xv = DenseVector::column(x.clone());

    let mut group = c.benchmark_group("fig10_matvec");
    group.sample_size(10);
    group.bench_function("spangle", |b| b.iter(|| spangle.matvec(&xv).expect("mv")));
    group.bench_function("spark_coo", |b| b.iter(|| coo.matvec(&x).expect("mv")));
    group.bench_function("mllib_csc", |b| b.iter(|| csc.matvec(&x).expect("mv")));
    group.bench_function("scispark_dense", |b| {
        b.iter(|| dense.matvec(&x).expect("mv"))
    });
    group.finish();
}

/// Fig. 11 (reduced): one PageRank run, Spangle vs edge-list.
fn bench_fig11(c: &mut Criterion) {
    let ctx = small_ctx();
    let g = Graph::power_law(&ctx, 4096, 40_000, 77, 4);
    g.edges().persist();
    g.num_edges().expect("graph");
    let mut group = c.benchmark_group("fig11_pagerank_5iters");
    group.sample_size(10);
    group.bench_function("spangle", |b| {
        b.iter(|| pagerank(&g, 128, false, 0.85, 5).expect("pr"))
    });
    group.bench_function("spark_edgelist", |b| {
        b.iter(|| pagerank_edge_list(&g, 0.85, 5, 4).expect("pr"))
    });
    group.finish();
}

/// Fig. 12b / Table III (reduced): SGD optimisation levels + the MLlib
/// row baseline.
fn bench_fig12(c: &mut Criterion) {
    let ctx = small_ctx();
    let data = datasets::synthetic_logreg(&ctx, 4, 4, 128, 512, 8, 13);
    data.persist();
    data.rdd().count().expect("ingest");
    let mut group = c.benchmark_group("fig12_sgd_20iters");
    group.sample_size(10);
    for (label, opt) in [
        ("none", OptLevel::None),
        ("opt1", OptLevel::Opt1),
        ("opt1_opt2", OptLevel::Opt1Opt2),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                LogisticRegression::train(
                    &data,
                    SgdConfig {
                        max_iters: 20,
                        tolerance: 0.0,
                        batch_chunks: 2,
                        opt,
                        ..SgdConfig::default()
                    },
                )
                .expect("train")
            })
        });
    }
    let baseline = RowLogReg::ingest(&data, None).expect("row ingest");
    group.bench_function("mllib_row_fullbatch", |b| {
        b.iter(|| baseline.train(0.6, 0.0, 20).expect("train"))
    });
    group.finish();
}

/// Ablation (§VI-A): matrix multiplication through the shuffle plan vs
/// the fused local join over a pre-partitioned (reused) layout.
fn bench_local_join_ablation(c: &mut Criterion) {
    let ctx = small_ctx();
    let n = 512;
    let f = |r: usize, cc: usize| {
        (r * 13 + cc * 29)
            .is_multiple_of(40)
            .then_some((r % 7) as f64 + 1.0)
    };
    let a = DistMatrix::generate(&ctx, n, n, (64, 64), ChunkPolicy::default(), f);
    a.persist();
    a.nnz().expect("ingest");
    let left = a.partition_left_by_inner(4);
    let right = a.partition_right_by_inner(4);
    DistMatrix::multiply_local(&left, &right)
        .nnz()
        .expect("warm");

    let mut group = c.benchmark_group("ablation_local_join");
    group.sample_size(10);
    group.bench_function("shuffle_plan", |b| {
        b.iter(|| a.multiply(&a).nnz().expect("multiply"))
    });
    group.bench_function("local_join_reused_layout", |b| {
        b.iter(|| {
            DistMatrix::multiply_local(&left, &right)
                .nnz()
                .expect("multiply")
        })
    });
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
    targets = bench_fig7, bench_fig8, bench_fig9b, bench_fig10, bench_fig11, bench_fig12, bench_local_join_ablation
}
criterion_main!(benches);
