//! What a retry may change, and what it may not: a task that fails and
//! runs again from lineage changes how a job executes, never what it
//! computes.
//!
//! One representative operator per layer crate (`gram` and `matvec` from
//! linalg, a PageRank run and a short SGD train from ml, the five raster
//! queries) runs fault-free, then again on the same cluster with its
//! first task failing once. Results must be bit-identical by `to_bits()`
//! — except raster Q2, whose sum runs over groups in hash order and is
//! held to 1e-9.

use spangle::array::{ArrayMeta, ChunkPolicy};
use spangle::dataflow::SpangleContext;
use spangle::linalg::{DenseVector, DistMatrix};
use spangle::ml::{datasets, pagerank, Graph, LogisticRegression, SgdConfig};
use spangle::raster::{ChlConfig, QueryRange, RasterSystem, SpangleRaster};

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Runs `op` fault-free, then with one injected task failure on the same
/// cluster, and checks the second result against the first with `same`.
fn check<O: std::fmt::Debug>(
    name: &str,
    op: impl Fn(&SpangleContext) -> O,
    same: impl Fn(&O, &O) -> bool,
) {
    let ctx = SpangleContext::new(4);
    let expected = op(&ctx);
    assert_eq!(ctx.metrics_snapshot().task_retries, 0, "{name}: fault-free");
    // The first task of the next job fails once and is retried.
    ctx.failure_injector().fail_next_tasks(1);
    let before = ctx.metrics_snapshot();
    let got = op(&ctx);
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(
        delta.task_retries, 1,
        "{name}: the injected failure retries"
    );
    assert!(ctx.failure_injector().is_drained());
    assert!(
        same(&got, &expected),
        "{name} after a retry: {got:?} != {expected:?}"
    );
}

fn sparse_matrix(ctx: &SpangleContext) -> DistMatrix {
    DistMatrix::generate(ctx, 96, 64, (16, 16), ChunkPolicy::default(), |r, c| {
        (r * 7 + c * 3)
            .is_multiple_of(5)
            .then_some(((r * 31 + c * 17) % 23) as f64 / 7.0 - 1.5)
    })
}

#[test]
fn gram_is_bit_identical_after_a_retry() {
    let op = |ctx: &SpangleContext| bits(&sparse_matrix(ctx).gram().to_local().unwrap());
    check("gram", op, |a, b| a == b);
}

#[test]
fn matvec_is_bit_identical_after_a_retry() {
    let x = DenseVector::column((0..64).map(|i| (i % 9) as f64 / 3.0 - 1.0).collect());
    let op = |ctx: &SpangleContext| bits(sparse_matrix(ctx).matvec(&x).unwrap().as_slice());
    check("matvec", op, |a, b| a == b);
}

#[test]
fn pagerank_is_bit_identical_after_a_retry() {
    let op = |ctx: &SpangleContext| {
        let graph = Graph::power_law(ctx, 300, 3000, 9, 4);
        bits(
            pagerank(&graph, 64, false, 0.85, 5)
                .unwrap()
                .ranks
                .as_slice(),
        )
    };
    check("pagerank", op, |a, b| a == b);
}

#[test]
fn sgd_training_is_bit_identical_after_a_retry() {
    let op = |ctx: &SpangleContext| {
        let data = datasets::synthetic_logreg(ctx, 4, 4, 64, 256, 6, 77);
        data.persist();
        let config = SgdConfig {
            max_iters: 20,
            tolerance: 0.0,
            batch_chunks: 2,
            ..SgdConfig::default()
        };
        let model = LogisticRegression::train(&data, config).unwrap();
        bits(model.weights.as_slice())
    };
    check("sgd", op, |a, b| a == b);
}

#[test]
fn raster_queries_agree_after_a_retry() {
    let cfg = ChlConfig {
        lon: 128,
        lat: 96,
        time: 4,
        land_cell: 16,
        ..ChlConfig::default()
    };
    let range = QueryRange {
        lo: vec![16, 8, 1],
        hi: vec![112, 88, 3],
    };
    // (Q1, Q3 bits; Q4, Q5 counts; Q2 block count and sum of means).
    type Answers = ([Option<u64>; 2], [usize; 2], (usize, f64));
    let op = |ctx: &SpangleContext| -> Answers {
        let meta = ArrayMeta::new(cfg.dims(), vec![32, 32, 1]);
        let raster = SpangleRaster::ingest(ctx, meta, cfg.value_fn());
        let q1 = raster.q1_avg(&range).map(f64::to_bits);
        let q3 = raster.q3_cond_avg(&range, 0.3).map(f64::to_bits);
        let q4 = raster.q4_filter_count(&range, 0.1, 0.7);
        let q5 = raster.q5_density(&range, 16, 200);
        ([q1, q3], [q4, q5], raster.q2_regrid(&range, 8))
    };
    check("raster Q1–Q5", op, |a, b| {
        let (q2a, q2b) = (a.2, b.2);
        a.0 == b.0 && a.1 == b.1 && q2a.0 == q2b.0 && (q2a.1 - q2b.1).abs() < 1e-9
    });
}
