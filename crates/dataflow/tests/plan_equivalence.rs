//! The plan's rewrites (narrow-chain fusion and shuffle elision, always
//! on) are *purely physical*: they change how a job executes, never what
//! it computes. There is no switch to turn them off, so the references
//! are the same computation written so that the planner cannot apply a
//! rewrite — a persisted node is a fusion barrier, and a shuffle to a
//! partitioner its parent does not carry cannot be elided — and a
//! sequential evaluation of the workload over a `BTreeMap`.
//!
//! The workload is shaped like the fig10/fig11 jobs: a narrow transform
//! chain (fused), a wide aggregation, an already-partitioned
//! re-aggregation and a co-partitioned join (both elided). All arithmetic
//! is u64 wrapping/commutative, so any execution — including one
//! recovering from a mid-job executor kill — must produce bit-identical
//! sorted output.

use spangle_dataflow::{Data, HashPartitioner, MetricsSnapshot, PairRdd, Rdd, SpangleContext};
use spangle_testkit::{run_cases, Rng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How the job is written: whether the planner is given a narrow chain
/// it can fuse and pre-partitioned shuffles it can elide.
#[derive(Clone, Copy)]
struct Shape {
    fusable: bool,
    elidable: bool,
}

const PLANNED: Shape = Shape {
    fusable: true,
    elidable: true,
};
const UNOPTIMISED: Shape = Shape {
    fusable: false,
    elidable: false,
};

fn cluster(executors: usize) -> SpangleContext {
    SpangleContext::builder()
        .executors(executors)
        .max_resubmissions(10_000)
        .build()
}

/// Persisting every narrow intermediate leaves no edge to fuse.
fn barrier<T: Data>(rdd: Rdd<T>, shape: Shape) -> Rdd<T> {
    if !shape.fusable {
        rdd.persist();
    }
    rdd
}

/// The fig-shaped job, written as `shape` says. `disrupt` runs before
/// each of the two actions — the chaos test kills executors there, every
/// other run does nothing.
fn workload(
    ctx: &SpangleContext,
    pairs: Vec<(u64, u64)>,
    num_parts: usize,
    shape: Shape,
    mut disrupt: impl FnMut(&SpangleContext, usize),
) -> Vec<(u64, u64)> {
    let step = |rdd| barrier(rdd, shape);
    // A partitioner that differs from the one the data carries forces
    // the shuffle the elidable shape avoids.
    let hash = |extra: usize| -> Arc<HashPartitioner> {
        let extra = if shape.elidable { 0 } else { extra };
        Arc::new(HashPartitioner::new(num_parts + extra))
    };
    // `map_values` keeps the partitioner the elidable shape needs, but it
    // is a pass-through over a map: an edge a barrier cannot reach. `map`
    // is one node and drops the partitioner.
    let revalue = |rdd: &Rdd<(u64, u64)>, f: fn(u64) -> u64| {
        step(if shape.elidable {
            rdd.map_values(f)
        } else {
            rdd.map(move |(k, v)| (k, f(v)))
        })
    };
    // Narrow chain: map -> filter -> flat_map fuses into one streaming
    // task body.
    let mapped = step(
        ctx.parallelize(pairs, num_parts)
            .map(|(k, v)| (k, v.wrapping_mul(0x9E37_79B9))),
    );
    let filtered = step(mapped.filter(|(_, v)| v % 5 != 3));
    let refined = step(filtered.flat_map(|(k, v)| vec![(k, v), (v % 64, k.wrapping_add(v))]));
    // The one unavoidable wide shuffle (commutative merge).
    let sums = refined.reduce_by_key(hash(0), |a, b| a.wrapping_add(b));
    sums.persist();
    disrupt(ctx, 0);
    sums.count().unwrap();
    // Already carries the target partitioner: elidable re-aggregation.
    let normalised = revalue(&sums, |v| v | 1).reduce_by_key(hash(1), |a, b| a ^ b);
    // Co-partitioned join: both sides elide their cogroup shuffles.
    let joined = barrier(normalised.join(&revalue(&sums, |v| v >> 1), hash(2)), shape);
    disrupt(ctx, 1);
    let mut out = joined
        .map(|(k, (a, b))| (k, a.wrapping_mul(3).wrapping_add(b)))
        .collect()
        .unwrap();
    out.sort();
    out
}

/// The same job, one record at a time: `sums` has one entry per key, so
/// the re-aggregation keeps `v | 1` and the join pairs it with `v >> 1`.
fn sequential(pairs: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for &(k, v) in pairs {
        let v = v.wrapping_mul(0x9E37_79B9);
        if v % 5 == 3 {
            continue;
        }
        for (k, v) in [(k, v), (v % 64, k.wrapping_add(v))] {
            let sum = sums.entry(k).or_default();
            *sum = sum.wrapping_add(v);
        }
    }
    sums.into_iter()
        .map(|(k, v)| (k, (v | 1).wrapping_mul(3).wrapping_add(v >> 1)))
        .collect()
}

fn seeded_pairs(rng: &mut Rng) -> (Vec<(u64, u64)>, usize, usize) {
    let executors = rng.usize_in(2..5);
    // A multiple of the executor count, so every executor runs work in
    // every stage.
    let num_parts = executors * rng.usize_in(2..4);
    let num_pairs = rng.usize_in(50..200);
    let key_space = rng.u64_in(4..32);
    let pairs = (0..num_pairs)
        .map(|_| (rng.u64_in(0..key_space), rng.u64_in(0..1_000_000)))
        .collect();
    (pairs, num_parts, executors)
}

/// Runs the job written as `shape` on a fresh cluster; returns its
/// sorted output and the counters it moved.
fn run_with(
    shape: Shape,
    pairs: Vec<(u64, u64)>,
    num_parts: usize,
    executors: usize,
) -> (Vec<(u64, u64)>, MetricsSnapshot) {
    let ctx = cluster(executors);
    let before = ctx.metrics_snapshot();
    let out = workload(&ctx, pairs, num_parts, shape, |_, _| {});
    (out, ctx.metrics_snapshot() - before)
}

#[test]
fn narrow_chain_fusion_is_bit_identical() {
    run_cases(0xF05E_0001, 6, |rng: &mut Rng| {
        let (pairs, num_parts, executors) = seeded_pairs(rng);
        let expected = sequential(&pairs);
        let (off, off_delta) = run_with(UNOPTIMISED, pairs.clone(), num_parts, executors);
        let fusable = Shape {
            fusable: true,
            ..UNOPTIMISED
        };
        let (on, on_delta) = run_with(fusable, pairs, num_parts, executors);
        assert_eq!(on, off, "fusion changed the computed result");
        assert_eq!(
            on, expected,
            "the fused job disagrees with the sequential one"
        );
        assert_eq!(
            off_delta.stages_fused, 0,
            "barriers must stop fusion: {off_delta:?}"
        );
        assert!(
            on_delta.stages_fused > 0,
            "the narrow chain must fuse: {on_delta:?}"
        );
    });
}

#[test]
fn shuffle_elision_is_bit_identical() {
    run_cases(0xF05E_0002, 6, |rng: &mut Rng| {
        let (pairs, num_parts, executors) = seeded_pairs(rng);
        let expected = sequential(&pairs);
        let (off, off_delta) = run_with(UNOPTIMISED, pairs.clone(), num_parts, executors);
        let elidable = Shape {
            elidable: true,
            ..UNOPTIMISED
        };
        let (on, on_delta) = run_with(elidable, pairs, num_parts, executors);
        assert_eq!(on, off, "shuffle elision changed the computed result");
        assert_eq!(
            on, expected,
            "the elided job disagrees with the sequential one"
        );
        assert_eq!(
            off_delta.shuffles_elided, 0,
            "a foreign partitioner must shuffle: {off_delta:?}"
        );
        assert!(
            on_delta.shuffles_elided > 0,
            "the pre-partitioned aggregation and join must elide: {on_delta:?}"
        );
    });
}

#[test]
fn full_planner_matches_unoptimised_run_and_reports_rewrites() {
    run_cases(0xF05E_0004, 6, |rng: &mut Rng| {
        let (pairs, num_parts, executors) = seeded_pairs(rng);
        let expected = sequential(&pairs);
        let (off, off_delta) = run_with(UNOPTIMISED, pairs.clone(), num_parts, executors);
        let (on, delta) = run_with(PLANNED, pairs, num_parts, executors);
        assert_eq!(on, off, "the planner changed the computed result");
        assert_eq!(
            on, expected,
            "the planned job disagrees with the sequential one"
        );
        assert_eq!(
            (off_delta.stages_fused, off_delta.shuffles_elided),
            (0, 0),
            "the unoptimised job must give the planner nothing to rewrite: {off_delta:?}"
        );
        assert!(
            delta.stages_fused > 0,
            "the narrow chain must fuse: {delta:?}"
        );
        assert!(
            delta.shuffles_elided > 0,
            "the pre-partitioned aggregation and join must elide: {delta:?}"
        );
    });
}

/// Recovery through the rewritten plan: an executor killed mid-job (its
/// shuffle blocks and cached partitions discarded with it) must still
/// reproduce the sequential evaluation bit-for-bit — proving
/// fetch-failure recovery and lineage recomputation survive fused task
/// bodies and elided shuffles.
#[test]
fn executor_kill_mid_job_recovers_through_fused_and_elided_stages() {
    run_cases(0xF05E_C4A5, 6, |rng: &mut Rng| {
        let (pairs, num_parts, executors) = seeded_pairs(rng);
        let expected = sequential(&pairs);

        let kill_plan: Vec<(usize, bool)> = (0..2)
            .map(|_| (rng.usize_in(0..executors), rng.usize_in(0..2) == 0))
            .collect();
        let ctx = cluster(executors);
        let before = ctx.metrics_snapshot();
        let got = workload(&ctx, pairs, num_parts, PLANNED, |ctx, action| {
            let (victim, mid_job) = kill_plan[action];
            if mid_job {
                // num_parts is a multiple of the executor count, so every
                // executor runs work in the next action and the armed
                // kill always fires.
                ctx.failure_injector().kill_executor_after(victim, 1);
            } else {
                ctx.kill_executor(victim);
            }
        });
        assert_eq!(got, expected, "recovered run must match the clean run");
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.executors_lost, 2, "one kill per action: {delta:?}");
        assert!(
            ctx.failure_injector().is_drained(),
            "every armed executor kill must have fired"
        );
    });
}
