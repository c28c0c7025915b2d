//! Seeded executor-loss chaos test: a persisted, multi-round
//! PageRank-style job survives one executor kill per iteration with a
//! result identical to the no-failure run.
//!
//! Each kill discards every shuffle block and cached partition the victim
//! produced — across *all* live iterations — so recovery exercises the
//! whole fault-tolerance surface at once: cache misses recompute from
//! lineage, missing shuffle blocks surface as `FetchFailed`, map-stage
//! recovery rebuilds exactly the lost partitions (nesting through older
//! shuffles when a recovery task trips over another hole), and in-flight
//! attempts on the victim replay as `ExecutorLost`. Ranks use u64
//! fixed-point arithmetic so the answer is bit-identical however the
//! recovered merges reorder.
//!
//! Deliberately `#[ignore]`d: `scripts/check.sh stress` (a separate CI
//! job) runs it so its runtime does not slow the default gate.

use spangle_dataflow::{HashPartitioner, PairRdd, Rdd, SpangleContext};
use spangle_testkit::{run_cases, Rng};
use std::sync::Arc;
use std::time::Duration;

mod gate;
use gate::{collect_bounded, count_bounded};

/// Live threads of this process (Linux); used to prove nothing leaks.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.flatten().count())
        .unwrap_or(0)
}

/// Waits (bounded) for the process thread count to drop back to
/// `baseline`; detached threads need a moment to fully exit.
fn assert_threads_drain_to(baseline: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let now = thread_count();
        if now <= baseline {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "leaked threads: {now} live, baseline was {baseline}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Fixed-point PageRank over `edges`, `iters` rounds. Calls `disrupt`
/// before each round's action — the chaos run kills executors there, the
/// reference run does nothing.
fn pagerank(
    ctx: &SpangleContext,
    edges: Vec<(u64, u64)>,
    num_parts: usize,
    iters: usize,
    mut disrupt: impl FnMut(&SpangleContext, usize),
) -> Vec<(u64, u64)> {
    let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_parts));
    let links = ctx
        .parallelize(edges, num_parts)
        .group_by_key(partitioner.clone());
    links.persist();
    count_bounded(&links, "links materialisation").unwrap();

    let nodes: Vec<u64> = {
        let mut n: Vec<u64> = collect_bounded(&links, "node discovery")
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        n.sort();
        n
    };
    let mut ranks: Rdd<(u64, u64)> = ctx
        .parallelize(
            nodes.iter().map(|&k| (k, 1_000_000u64)).collect(),
            num_parts,
        )
        .partition_by(partitioner.clone());
    for iteration in 0..iters {
        disrupt(ctx, iteration);
        let contribs = links
            .join(&ranks, partitioner.clone())
            .flat_map(|(_, (dests, rank))| {
                let share = rank / dests.len() as u64;
                dests.into_iter().map(|d| (d, share)).collect()
            });
        ranks = contribs
            .reduce_by_key(partitioner.clone(), |a, b| a + b)
            .map_values(|incoming| 150_000 + incoming * 85 / 100);
        ranks.persist();
        count_bounded(&ranks, "iteration ranks").unwrap();
    }
    let mut out = collect_bounded(&ranks, "final ranks").unwrap();
    out.sort();
    out
}

#[test]
#[ignore = "stress gate: run explicitly via scripts/check.sh stress (separate CI job)"]
fn pagerank_survives_one_executor_kill_per_iteration() {
    let baseline_threads = thread_count();
    run_cases(0xC4A0_5CA5, 8, |rng: &mut Rng| {
        let executors = rng.usize_in(2..5);
        let num_parts = executors * rng.usize_in(1..3);
        let num_nodes = rng.u64_in(8..20);
        let iters = rng.usize_in(3..6);
        // A ring so every node has in- and out-edges, plus random chords.
        let mut edges: Vec<(u64, u64)> = (0..num_nodes).map(|i| (i, (i + 1) % num_nodes)).collect();
        for _ in 0..rng.usize_in(0..20) {
            let from = rng.u64_in(0..num_nodes);
            let to = rng.u64_in(0..num_nodes);
            edges.push((from, to));
        }

        // Reference: the same job on a failure-free cluster.
        let expected = {
            let ctx = SpangleContext::new(executors);
            pagerank(&ctx, edges.clone(), num_parts, iters, |_, _| {})
        };

        // Chaos: one executor dies per iteration — directly between
        // rounds, or armed to fire right after the victim's next task
        // body mid-round. The resubmission budget is raised because one
        // kill can poison every live iteration's shuffle at once, and
        // each parked fetch failure charges it.
        let kill_plan: Vec<(usize, bool)> = (0..iters)
            .map(|_| (rng.usize_in(0..executors), rng.usize_in(0..2) == 0))
            .collect();
        let ctx = SpangleContext::builder()
            .executors(executors)
            .max_resubmissions(10_000)
            .build();
        let before = ctx.metrics_snapshot();
        let got = pagerank(&ctx, edges, num_parts, iters, |ctx, iteration| {
            let (victim, mid_round) = kill_plan[iteration];
            if mid_round {
                // `num_parts` is a multiple of the executor count, so
                // every executor runs a task in the round's first stage
                // and the armed kill always fires.
                ctx.failure_injector().kill_executor_after(victim, 1);
            } else {
                ctx.kill_executor(victim);
            }
        });
        assert_eq!(got, expected, "recovered run must match the clean run");

        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(
            delta.executors_lost as usize, iters,
            "one kill per iteration: {delta:?}"
        );
        assert!(
            ctx.failure_injector().is_drained(),
            "every armed executor kill must have fired"
        );
        drop(ctx);
        assert_threads_drain_to(baseline_threads);
    });
}

/// A context whose no-progress watchdog is short enough for the stress
/// gate but long enough that only a genuinely stalled task (never one
/// briefly parked in a queue or descheduled) is duplicated.
fn watchdog_ctx(executors: usize) -> SpangleContext {
    SpangleContext::builder()
        .executors(executors)
        .watchdog_interval(Duration::from_millis(100))
        // Coalesced task groups share one token and are never duplicated;
        // keep every task a singleton so an armed stall is always
        // eligible for a duplicate.
        .coalesce_partitions(false)
        // One kill can poison the whole shuffle (round 2), and every
        // parked fetch failure charges the resubmission budget.
        .max_resubmissions(10_000)
        .build()
}

/// Seeded stall chaos: one stalled task per stage of a two-stage shuffle
/// job. The stalled original spins without ticking progress until the
/// watchdog's duplicate (which consumes no stall) wins the partition and
/// the loser is cancelled. The result must be bit-identical to a clean
/// run and the duplicate counters exact: one watchdog trip, one launch,
/// one win, one cancellation per stall. A second round arms a concurrent
/// executor kill on top, where only bit-identicality is asserted — the
/// kill races the duplicate, so the counters legitimately vary.
#[test]
#[ignore = "stress gate: run explicitly via scripts/check.sh stress (separate CI job)"]
fn speculative_winners_are_bit_identical_with_exact_counters() {
    let baseline_threads = thread_count();
    run_cases(0x57A6_61E5, 6, |rng: &mut Rng| {
        let executors = rng.usize_in(2..4);
        let num_parts = executors * rng.usize_in(2..4);
        let num_keys = rng.u64_in(3..9);
        let records: Vec<(u64, u64)> = (0..rng.u64_in(30..80))
            .map(|_| (rng.u64_in(0..num_keys), rng.u64_in(0..1_000_000)))
            .collect();
        let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_parts));
        let stall_map = rng.usize_in(0..num_parts);
        let stall_reduce = rng.usize_in(0..num_parts);

        let run = |ctx: &SpangleContext, stall_stages: usize, kill: Option<usize>| {
            let pairs = ctx.parallelize(records.clone(), num_parts);
            let reduced = pairs.reduce_by_key(partitioner.clone(), |a, b| a + b);
            if stall_stages >= 1 {
                ctx.failure_injector()
                    .stall_progress(pairs.id(), stall_map, 1);
            }
            if stall_stages >= 2 {
                ctx.failure_injector()
                    .stall_progress(reduced.id(), stall_reduce, 1);
            }
            if let Some(victim) = kill {
                ctx.failure_injector().kill_executor_after(victim, 1);
            }
            let mut out = collect_bounded(&reduced, "duplicated reduce").unwrap();
            out.sort();
            out
        };

        let expected = run(&SpangleContext::new(executors), 0, None);

        // Round 1: one stall per stage, no kills — exact counters.
        let ctx = watchdog_ctx(executors);
        let before = ctx.metrics_snapshot();
        let got = run(&ctx, 2, None);
        assert_eq!(got, expected, "duplicate winners must be bit-identical");
        let delta = ctx.metrics_snapshot() - before;
        let report = ctx.last_job_report().expect("job report");
        let counts = report.counts();
        assert_eq!(
            (
                counts.watchdog_trips,
                counts.tasks_speculated,
                counts.speculation_wins,
                counts.tasks_cancelled
            ),
            (2, 2, 2, 2),
            "one trip, one launch, one win, one cancelled loser per stalled stage: {report}"
        );
        assert_eq!(delta.watchdog_trips, 2);
        assert_eq!(delta.tasks_speculated, 2);
        assert_eq!(delta.speculation_wins, 2);
        assert_eq!(delta.tasks_cancelled, 2);
        assert!(ctx.failure_injector().is_drained());
        drop(ctx);

        // Round 2: a stalled map task racing a concurrent executor kill.
        // The kill may take the original, the duplicate, or a bystander —
        // any interleaving must still produce the clean answer.
        let ctx = watchdog_ctx(executors);
        let victim = rng.usize_in(0..executors);
        let got = run(&ctx, 1, Some(victim));
        assert_eq!(
            got, expected,
            "a duplicate race under an executor kill must stay bit-identical"
        );
        assert!(ctx.failure_injector().is_drained());
        drop(ctx);
        assert_threads_drain_to(baseline_threads);
    });
}
