//! Iterative-workload tests: long lineage chains of shuffles, as produced
//! by PageRank-style loops, must schedule correctly and reuse completed
//! stages.

use spangle_dataflow::{HashPartitioner, PairRdd, Rdd, SpangleContext};
use std::sync::Arc;

#[test]
fn twenty_chained_shuffles_schedule_in_order() {
    let ctx = SpangleContext::new(2);
    let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(2));
    let mut current: Rdd<(u64, u64)> = ctx.parallelize((0u64..32).map(|i| (i % 4, 1)).collect(), 4);
    for _ in 0..20 {
        current = current
            .reduce_by_key(partitioner.clone(), |a, b| a + b)
            .map(|(k, v)| (k, v));
    }
    let mut out = current.collect().unwrap();
    out.sort();
    assert_eq!(out, vec![(0, 8), (1, 8), (2, 8), (3, 8)]);
}

#[test]
fn iterative_loop_with_persist_reuses_previous_iterations() {
    let ctx = SpangleContext::new(2);
    let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(2));
    let links = ctx
        .parallelize((0u64..16).map(|i| (i % 4, i)).collect(), 4)
        .partition_by(partitioner.clone());
    links.persist();
    links.count().unwrap();

    let mut ranks = ctx
        .parallelize((0u64..4).map(|k| (k, 1.0f64)).collect(), 2)
        .partition_by(partitioner.clone());
    for iteration in 0..5 {
        let joined = links.join(&ranks, partitioner.clone());
        ranks = joined
            .map(|(k, (_, r))| (k, r))
            .reduce_by_key(partitioner.clone(), |a, b| a + b);
        ranks.persist();
        let before = ctx.metrics_snapshot();
        let n = ranks.count().unwrap();
        assert_eq!(n, 4, "iteration {iteration}");
        // Running the same action again must skip every map stage.
        ranks.count().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert!(
            delta.stages_skipped >= 1,
            "iteration {iteration}: expected stage reuse, got {delta:?}"
        );
    }
    let mut out = ranks.collect().unwrap();
    out.sort_by_key(|e| e.0);
    // Each key has 4 links; rank multiplies by 4 per iteration: 4^5.
    for (_, r) in out {
        assert_eq!(r, 1024.0);
    }
}

#[test]
fn diamond_lineage_over_a_copartitioned_parent_joins_locally() {
    let ctx = SpangleContext::new(2);
    let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(2));
    let base = ctx
        .parallelize((0u64..40).map(|i| (i % 5, i)).collect(), 4)
        .reduce_by_key(partitioner.clone(), |a, b| a + b);
    // Two branches off the same shuffled parent, rejoined on the *same*
    // partitioner: map_values preserves the partitioning, so the join is
    // narrow — only base's map stage and the result stage run.
    let left = base.map_values(|v| v * 2);
    let right = base.map_values(|v| v + 1);
    let rejoined = left.join(&right, partitioner);
    let before = ctx.metrics_snapshot();
    let out = rejoined.collect().unwrap();
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(out.len(), 5);
    for (k, (double, plus_one)) in out {
        // base[k] = k + (k+5) + ... + (k+35) = 8k + 140.
        assert_eq!(double, (8 * k + 140) * 2);
        assert_eq!(plus_one, 8 * k + 141);
    }
    assert_eq!(delta.stages_run, 2, "co-partitioned diamond: {delta:?}");
}

#[test]
fn diamond_lineage_with_a_different_partitioner_shuffles_both_branches() {
    let ctx = SpangleContext::new(2);
    let base = ctx
        .parallelize((0u64..40).map(|i| (i % 5, i)).collect(), 4)
        .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
    let left = base.map_values(|v| v * 2);
    let right = base.map_values(|v| v + 1);
    // Joining on a *different* partition count forces both branches
    // through the shuffle, but the shared ancestor's map stage still runs
    // exactly once.
    let rejoined = left.join(&right, Arc::new(HashPartitioner::new(3)));
    let before = ctx.metrics_snapshot();
    let n = rejoined.count().unwrap();
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(n, 5);
    // base map (1) + left map (1) + right map (1) + result (1).
    assert_eq!(delta.stages_run, 4, "{delta:?}");
}
