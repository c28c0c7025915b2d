//! Seeded A/B equivalence tests for the adaptive plan layer: every
//! rewrite (narrow-chain fusion, shuffle elision, runtime partition
//! coalescing) must be *purely physical* — toggling it changes how a job
//! executes, never what it computes.
//!
//! The workload is shaped like the fig10/fig11 jobs: a narrow transform
//! chain (fusion candidate), a wide aggregation, an already-partitioned
//! re-aggregation and a co-partitioned join (elision candidates), and a
//! final stage over more partitions than executors (coalescing
//! candidate). All arithmetic is u64 wrapping/commutative, so any
//! execution plan — including one recovering from a mid-job executor
//! kill — must produce bit-identical sorted output.

use spangle_dataflow::{HashPartitioner, PairRdd, SpangleContext};
use spangle_testkit::{run_cases, Rng};
use std::sync::Arc;

/// Which rewrites a run enables.
#[derive(Clone, Copy)]
struct Flags {
    fuse: bool,
    elide: bool,
    coalesce: bool,
}

const ALL_ON: Flags = Flags {
    fuse: true,
    elide: true,
    coalesce: true,
};
const ALL_OFF: Flags = Flags {
    fuse: false,
    elide: false,
    coalesce: false,
};

fn cluster(executors: usize, flags: Flags) -> SpangleContext {
    SpangleContext::builder()
        .executors(executors)
        .fuse_narrow_chains(flags.fuse)
        .elide_shuffles(flags.elide)
        .coalesce_partitions(flags.coalesce)
        .max_resubmissions(10_000)
        .build()
}

/// The fig-shaped job. `disrupt` runs before each of the two actions —
/// the chaos test kills executors there, every other run does nothing.
fn workload(
    ctx: &SpangleContext,
    pairs: Vec<(u64, u64)>,
    num_parts: usize,
    mut disrupt: impl FnMut(&SpangleContext, usize),
) -> Vec<(u64, u64)> {
    let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_parts));
    // Narrow chain: map -> filter -> flat_map fuses into one streaming
    // task body when the rewrite is on.
    let refined = ctx
        .parallelize(pairs, num_parts)
        .map(|(k, v)| (k, v.wrapping_mul(0x9E37_79B9)))
        .filter(|(_, v)| v % 5 != 3)
        .flat_map(|(k, v)| vec![(k, v), (v % 64, k.wrapping_add(v))]);
    // The one unavoidable wide shuffle (commutative merge).
    let sums = refined.reduce_by_key(partitioner.clone(), |a, b| a.wrapping_add(b));
    sums.persist();
    disrupt(ctx, 0);
    sums.count().unwrap();
    // Already carries the target partitioner: elidable re-aggregation.
    let normalised = sums
        .map_values(|v| v | 1)
        .reduce_by_key(partitioner.clone(), |a, b| a ^ b);
    // Co-partitioned join: both sides elide their cogroup shuffles.
    let joined = normalised.join(&sums.map_values(|v| v >> 1), partitioner);
    disrupt(ctx, 1);
    let mut out = joined
        .map(|(k, (a, b))| (k, a.wrapping_mul(3).wrapping_add(b)))
        .collect()
        .unwrap();
    out.sort();
    out
}

fn seeded_pairs(rng: &mut Rng) -> (Vec<(u64, u64)>, usize, usize) {
    let executors = rng.usize_in(2..5);
    // More partitions than executors so runtime coalescing has buckets to
    // merge without dropping below one group per executor.
    let num_parts = executors * rng.usize_in(2..4);
    let num_pairs = rng.usize_in(50..200);
    let key_space = rng.u64_in(4..32);
    let pairs = (0..num_pairs)
        .map(|_| (rng.u64_in(0..key_space), rng.u64_in(0..1_000_000)))
        .collect();
    (pairs, num_parts, executors)
}

/// Runs the workload under `flags` and returns its sorted output.
fn run_with(
    flags: Flags,
    pairs: Vec<(u64, u64)>,
    num_parts: usize,
    executors: usize,
) -> Vec<(u64, u64)> {
    let ctx = cluster(executors, flags);
    workload(&ctx, pairs, num_parts, |_, _| {})
}

#[test]
fn narrow_chain_fusion_is_bit_identical() {
    run_cases(0xF05E_0001, 6, |rng: &mut Rng| {
        let (pairs, num_parts, executors) = seeded_pairs(rng);
        let off = run_with(ALL_OFF, pairs.clone(), num_parts, executors);
        let on = run_with(
            Flags {
                fuse: true,
                ..ALL_OFF
            },
            pairs,
            num_parts,
            executors,
        );
        assert_eq!(on, off, "fusion changed the computed result");
    });
}

#[test]
fn shuffle_elision_is_bit_identical() {
    run_cases(0xF05E_0002, 6, |rng: &mut Rng| {
        let (pairs, num_parts, executors) = seeded_pairs(rng);
        let off = run_with(ALL_OFF, pairs.clone(), num_parts, executors);
        let on = run_with(
            Flags {
                elide: true,
                ..ALL_OFF
            },
            pairs,
            num_parts,
            executors,
        );
        assert_eq!(on, off, "shuffle elision changed the computed result");
    });
}

#[test]
fn partition_coalescing_is_bit_identical() {
    run_cases(0xF05E_0003, 6, |rng: &mut Rng| {
        let (pairs, num_parts, executors) = seeded_pairs(rng);
        let off = run_with(ALL_OFF, pairs.clone(), num_parts, executors);
        // Also squeeze the byte target so grouping decisions vary across
        // cases instead of always collapsing to the executor floor.
        let ctx = SpangleContext::builder()
            .executors(executors)
            .fuse_narrow_chains(false)
            .elide_shuffles(false)
            .coalesce_partitions(true)
            .target_partition_bytes(rng.usize_in(1..10_000))
            .max_resubmissions(10_000)
            .build();
        let on = workload(&ctx, pairs, num_parts, |_, _| {});
        assert_eq!(on, off, "partition coalescing changed the computed result");
    });
}

#[test]
fn full_planner_matches_unoptimised_run_and_reports_rewrites() {
    run_cases(0xF05E_0004, 6, |rng: &mut Rng| {
        let (pairs, num_parts, executors) = seeded_pairs(rng);
        let off = run_with(ALL_OFF, pairs.clone(), num_parts, executors);

        let ctx = cluster(executors, ALL_ON);
        let before = ctx.metrics_snapshot();
        let on = workload(&ctx, pairs, num_parts, |_, _| {});
        assert_eq!(on, off, "the full planner changed the computed result");

        let delta = ctx.metrics_snapshot() - before;
        assert!(
            delta.stages_fused > 0,
            "the narrow chain must fuse: {delta:?}"
        );
        assert!(
            delta.shuffles_elided > 0,
            "the pre-partitioned aggregation and join must elide: {delta:?}"
        );
        assert!(
            delta.partitions_coalesced > 0,
            "small reduce buckets must coalesce: {delta:?}"
        );
    });
}

/// Recovery through the rewritten plan: an executor killed mid-job (its
/// shuffle blocks and cached partitions discarded with it) while fusion,
/// elision, and coalescing are all active must still reproduce the clean
/// unoptimised run bit-for-bit — proving fetch-failure recovery and
/// lineage recomputation survive fused task bodies and coalesced task
/// groups.
#[test]
fn executor_kill_mid_job_recovers_through_fused_and_coalesced_stages() {
    run_cases(0xF05E_C4A5, 6, |rng: &mut Rng| {
        let (pairs, num_parts, executors) = seeded_pairs(rng);
        let expected = run_with(ALL_OFF, pairs.clone(), num_parts, executors);

        let kill_plan: Vec<(usize, bool)> = (0..2)
            .map(|_| (rng.usize_in(0..executors), rng.usize_in(0..2) == 0))
            .collect();
        let ctx = cluster(executors, ALL_ON);
        let before = ctx.metrics_snapshot();
        let got = workload(&ctx, pairs, num_parts, |ctx, action| {
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
