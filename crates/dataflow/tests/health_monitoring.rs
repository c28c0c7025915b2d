//! Autonomous failure detection: no test here ever calls
//! `kill_executor`. The driver itself must notice a task whose progress
//! counter froze and launch a duplicate of it on another executor, with
//! results bit-identical to a clean run — and a task that fails on its own data must not cost its executor
//! anything but the failed attempts.

use spangle_dataflow::{HashPartitioner, PairRdd, SpangleContext};
use spangle_testkit::{run_cases, Rng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Live threads of this process (Linux); used to prove nothing leaks.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.flatten().count())
        .unwrap_or(0)
}

/// Waits (bounded) for the process thread count to drop back to
/// `baseline`; detached threads need a moment to fully exit.
fn assert_threads_drain_to(baseline: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let now = thread_count();
        if now <= baseline {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "leaked threads: {now} live, baseline was {baseline}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Two-stage shuffle job: sum `records` by key over `num_parts`
/// partitions, sorted for bit-exact comparison.
fn sum_by_key(ctx: &SpangleContext, records: &[(u64, u64)], num_parts: usize) -> Vec<(u64, u64)> {
    let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_parts));
    let mut out = ctx
        .parallelize(records.to_vec(), num_parts)
        .reduce_by_key(partitioner, |a, b| a + b)
        .collect()
        .unwrap();
    out.sort();
    out
}

/// A stalled task announces nothing — only the no-progress watchdog can
/// catch it. The frozen progress counter must trip the watchdog, launch a
/// duplicate on another executor, and let first-completion-wins
/// cancel the stalled original, bit-identically and with exact counters.
#[test]
fn stalled_task_trips_the_watchdog_and_loses_to_its_duplicate() {
    let baseline_threads = thread_count();
    run_cases(0x57A1_1BAD, 4, |rng: &mut Rng| {
        let executors = rng.usize_in(2..5);
        let num_parts = executors;
        let num_keys = rng.u64_in(3..9);
        let records: Vec<(u64, u64)> = (0..rng.u64_in(20..60))
            .map(|_| (rng.u64_in(0..num_keys), rng.u64_in(0..1_000_000)))
            .collect();
        let stalled = rng.usize_in(0..num_parts);

        let expected = sum_by_key(&SpangleContext::new(executors), &records, num_parts);

        let ctx = SpangleContext::builder()
            .executors(executors)
            .watchdog_interval(Duration::from_millis(50))
            .max_resubmissions(10_000)
            .build();
        let before = ctx.metrics_snapshot();

        // The stalled task spins without ticking progress: frozen to the
        // watchdog. (Scoped: the RDD handles hold context clones and must
        // drop before the thread-drain check below.)
        let mut got = {
            let pairs = ctx.parallelize(records.clone(), num_parts);
            ctx.failure_injector()
                .stall_progress(pairs.id(), stalled, 1);
            let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_parts));
            pairs
                .reduce_by_key(partitioner, |a, b| a + b)
                .collect()
                .unwrap()
        };
        got.sort();
        assert_eq!(got, expected, "the duplicate's win must be bit-identical");

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
            (1, 1, 1, 1),
            "one trip, one duplicate, one win, one cancelled original: {report}"
        );
        assert_eq!(delta.watchdog_trips, 1);
        assert_eq!(delta.executors_lost, 0, "no kill: the executor was healthy");
        assert!(ctx.failure_injector().is_drained());
        drop(ctx);
        assert_threads_drain_to(baseline_threads);
    });
}

/// A retry runs at its partition's home, so a record that panics every
/// time fails on the same executor every time. That says nothing about
/// the executor: after two jobs die on such a record, the next clean job
/// must still run on every executor.
#[test]
fn a_task_that_panics_on_its_data_leaves_its_executor_placeable() {
    let ctx = SpangleContext::new(2);
    for _ in 0..2 {
        let poisoned = ctx
            .parallelize((0..64u64).collect(), 8)
            .map(|v| {
                assert_ne!(v, 0, "record 0 is poisoned");
                v
            })
            .collect();
        assert!(poisoned.is_err(), "record 0 fails every attempt");
    }
    let ran_on: BTreeSet<String> = ctx
        .parallelize((0..64u64).collect(), 8)
        .map(|_| std::thread::current().name().unwrap_or("").to_string())
        .collect()
        .unwrap()
        .into_iter()
        .collect();
    let expected = ["spangle-executor-0", "spangle-executor-1"].map(String::from);
    assert_eq!(ran_on, BTreeSet::from(expected));
}
