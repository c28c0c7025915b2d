//! Fault-tolerance integration tests: lineage recomputation must yield
//! identical results through the whole stack — array operators, matrix
//! multiplication, PageRank — under injected task failures and cache
//! evictions.

use spangle::array::aggregate::builtin::Sum;
use spangle::array::{ArrayBuilder, ArrayMeta, ChunkPolicy};
use spangle::dataflow::SpangleContext;
use spangle::linalg::DistMatrix;
use spangle::ml::{pagerank, Graph};

#[test]
fn array_pipeline_survives_task_failures() {
    let ctx = SpangleContext::new(4);
    let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![96, 96], vec![24, 24]))
        .ingest(|c| (!(c[0] + c[1]).is_multiple_of(3)).then(|| (c[0] * 96 + c[1]) as f64))
        .build();
    let clean = arr.subarray(&[5, 5], &[90, 80]).filter(|v| v > 100.0);
    let expected_count = clean.count_valid().unwrap();
    let expected_sum = clean.aggregate(Sum).unwrap();

    // Kill the first two attempts of several result tasks. Failure sites
    // are the RDD whose partitions the tasks produce — the pipeline's
    // chunk RDD; the ingest and operators above recompute through the
    // narrow lineage inside the retried task.
    let failed = arr.subarray(&[5, 5], &[90, 80]).filter(|v| v > 100.0);
    for p in 0..3 {
        ctx.failure_injector().fail_task(failed.rdd().id(), p, 2);
    }
    assert_eq!(failed.count_valid().unwrap(), expected_count);
    assert!(
        ctx.failure_injector().is_drained(),
        "all injections consumed"
    );
    assert_eq!(failed.aggregate(Sum).unwrap(), expected_sum);
}

#[test]
fn persisted_data_recovers_from_block_loss() {
    let ctx = SpangleContext::new(4);
    let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![64, 64], vec![16, 16]))
        .ingest(|c| Some((c[0] ^ c[1]) as f64))
        .build();
    arr.persist();
    let first = arr.collect_cells().unwrap();
    // Lose every cached partition.
    for p in 0..arr.rdd().num_partitions() {
        ctx.evict_cached_partition(arr.rdd().id(), p);
    }
    let second = arr.collect_cells().unwrap();
    assert_eq!(first, second);
}

#[test]
fn matrix_multiplication_survives_failures_in_every_stage() {
    let ctx = SpangleContext::new(4);
    let a = DistMatrix::generate(&ctx, 32, 32, (8, 8), ChunkPolicy::default(), |r, c| {
        Some(((r * 13 + c * 7) % 11) as f64 - 5.0)
    });
    let b = DistMatrix::generate(&ctx, 32, 24, (8, 8), ChunkPolicy::default(), |r, c| {
        (r + c).is_multiple_of(4).then_some((r + c) as f64)
    });
    let expected = a.multiply(&b).to_local().unwrap();

    // Kill the next five task attempts wherever they land: shuffle map
    // tasks of either join side, the reduce stage, or the result stage —
    // all must recover through retries.
    ctx.failure_injector().fail_next_tasks(5);
    let product = a.multiply(&b);
    assert_eq!(product.to_local().unwrap(), expected);
    assert!(ctx.failure_injector().is_drained());
}

#[test]
fn job_aborts_cleanly_when_a_task_always_fails() {
    let ctx = SpangleContext::new(2);
    let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![32, 32], vec![16, 16]))
        .ingest(|_| Some(1.0f64))
        .build();
    ctx.failure_injector()
        .fail_task(arr.rdd().id(), 0, usize::MAX);
    let err = arr.count_valid().unwrap_err();
    assert_eq!(err.partition, 0);
    assert!(err.attempts >= 4);
    // The cluster stays usable afterwards.
    let fresh = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![8, 8], vec![4, 4]))
        .ingest(|_| Some(1.0f64))
        .build();
    assert_eq!(fresh.count_valid().unwrap(), 64);
}

#[test]
fn pagerank_is_unaffected_by_mid_run_failures() {
    let ctx = SpangleContext::new(4);
    let g = Graph::power_law(&ctx, 256, 2048, 5, 4);
    let clean = pagerank(&g, 64, false, 0.85, 8).unwrap();
    // Fail a handful of tasks mid-run (edge grouping, mask matvec,
    // degree collection — whichever come next) and rerun.
    ctx.failure_injector().fail_next_tasks(6);
    let recovered = pagerank(&g, 64, false, 0.85, 8).unwrap();
    assert!(ctx.failure_injector().is_drained());
    // Lineage recomputation yields the same array, to the bit: the block
    // layout and every sum's order are fixed at build time.
    for (a, b) in clean
        .ranks
        .as_slice()
        .iter()
        .zip(recovered.ranks.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// An executor dies between `MᵀM`'s multiply and reduce stages: its share
/// of the partial products and of the cached layout goes with it, the
/// reduce finds the hole, and lineage rebuilds exactly the lost multiply
/// partitions. The recovered product equals the clean one bit for bit —
/// partial products are added in an order fixed by the layout, so a
/// recomputed run is the run that was lost.
#[test]
fn gram_recovers_bit_identically_from_an_executor_killed_between_multiply_and_reduce() {
    let ctx = SpangleContext::new(2);
    // Entries whose products round, so a changed order of additions would
    // show in the last bits; 16 contraction keys per output block.
    let m = DistMatrix::generate(&ctx, 512, 512, (32, 32), ChunkPolicy::default(), |r, c| {
        let h = (r as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((c as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
            .wrapping_mul(0xBF58476D1CE4E5B9)
            >> 20;
        (h % 100 < 6).then(|| ((h >> 8) % 1999) as f64 / 997.0 - 1.0)
    });
    m.persist();
    let product = m.gram();
    let bits = |values: Vec<f64>| -> Vec<u64> { values.into_iter().map(f64::to_bits).collect() };
    let clean = bits(product.to_local().unwrap());

    // The multiply stage's output is committed and stays while `product`
    // lives; the next action on it goes straight to the reduce.
    let before = ctx.metrics_snapshot();
    let loss = ctx.kill_executor(1);
    assert!(loss.shuffle_blocks_dropped >= 1, "{loss:?}");
    let recovered = bits(product.to_local().unwrap());
    let recovery = ctx.metrics_snapshot() - before;
    assert!(recovery.fetch_failures >= 1, "{recovery:?}");
    assert!(recovery.map_partitions_recomputed >= 1, "{recovery:?}");
    assert!(recovered == clean, "recovery changed the product's bits");
}
