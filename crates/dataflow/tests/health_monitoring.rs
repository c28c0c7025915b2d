//! Autonomous failure detection: no test here ever calls
//! `kill_executor`. The driver itself must notice trouble — a wedged
//! executor whose heartbeats went silent, a task whose progress counter
//! froze, a flaky executor failing too many recent tasks — and route
//! into the existing recovery paths (kill + lineage recompute,
//! speculation-style duplicate, quarantine + canary re-admission) with
//! results bit-identical to a clean run.

use spangle_dataflow::{HashPartitioner, PairRdd, RetryBackoffConfig, SpangleContext};
use spangle_testkit::{run_cases, Rng};
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

/// A wedged task on an executor whose heartbeats have gone silent is the
/// classic hard failure: the task spins forever, announces nothing, and
/// only the driver's heartbeat monitor can save the job. The monitor
/// must declare the executor lost after `missed_heartbeat_limit` silent
/// intervals, kill it, and recover through the PR 4 lineage path — with
/// the result bit-identical to a clean run and exactly one loss charged.
#[test]
fn wedged_silent_executor_is_detected_and_recovered_autonomously() {
    let baseline_threads = thread_count();
    run_cases(0x4EA1_7B0A, 4, |rng: &mut Rng| {
        let executors = rng.usize_in(2..5);
        // One partition per executor: every worker pops its own task
        // immediately, so the wedge always runs on the paused victim
        // rather than being stolen by an idle healthy sibling.
        let num_parts = executors;
        let num_keys = rng.u64_in(3..9);
        let records: Vec<(u64, u64)> = (0..rng.u64_in(20..60))
            .map(|_| (rng.u64_in(0..num_keys), rng.u64_in(0..1_000_000)))
            .collect();
        let victim = rng.usize_in(0..executors);

        let expected = sum_by_key(&SpangleContext::new(executors), &records, num_parts);

        let ctx = SpangleContext::builder()
            .executors(executors)
            .health_monitoring(true)
            .heartbeat_interval(Duration::from_millis(20))
            .missed_heartbeat_limit(3)
            // Keep the other detectors out of the race: the pause also
            // suppresses progress ticks, and this scenario must be
            // resolved by loss detection alone.
            .watchdog_interval(Duration::from_secs(30))
            .coalesce_partitions(false)
            .max_resubmissions(10_000)
            .build();
        let before = ctx.metrics_snapshot();

        // The victim's heartbeats go silent, then its map task wedges at
        // a cancellation point: busy forever, stamping nothing. With
        // `num_parts == executors`, partition index == home executor.
        // (Scoped: the RDD handles hold context clones and must drop
        // before the thread-drain check below.)
        let mut got = {
            ctx.failure_injector().pause_heartbeats(victim);
            let pairs = ctx.parallelize(records.clone(), num_parts);
            ctx.failure_injector().wedge_task(pairs.id(), victim, 1);
            let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_parts));
            pairs
                .reduce_by_key(partitioner, |a, b| a + b)
                .collect()
                .unwrap()
        };
        got.sort();
        assert_eq!(got, expected, "autonomous recovery must be bit-identical");

        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(
            delta.executors_lost, 1,
            "exactly one autonomous kill: {delta:?}"
        );
        assert!(
            delta.heartbeats_missed >= 3,
            "the loss fired after at least `missed_heartbeat_limit` silent intervals: {delta:?}"
        );
        // The kill consumed the wedge and reset the pause with the dead
        // incarnation — nothing armed may be left behind.
        assert!(ctx.failure_injector().is_drained());
        drop(ctx);
        assert_threads_drain_to(baseline_threads);
    });
}

/// A stalled task on an executor that still heartbeats is invisible to
/// loss detection — only the no-progress watchdog can catch it. The
/// frozen progress counter must trip the watchdog, launch a speculative
/// duplicate on another executor, and let first-completion-wins cancel
/// the stalled original, bit-identically and with exact counters.
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
            .health_monitoring(true)
            .watchdog_interval(Duration::from_millis(50))
            // The median-based scan is off (the default): the duplicate
            // below can only come from the watchdog.
            .coalesce_partitions(false)
            .max_resubmissions(10_000)
            .build();
        let before = ctx.metrics_snapshot();

        // The stalled task spins while stamping heartbeats only: alive to
        // the loss monitor, frozen to the watchdog. (Scoped: the RDD
        // handles hold context clones and must drop before the
        // thread-drain check below.)
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

/// A seeded 30%-flaky executor must cross the quarantine threshold while
/// every job still completes correctly (failures retry with backoff,
/// placement diverts once drained), and after the fault is healed the
/// probation canary must re-admit it to full placement.
#[test]
fn flaky_executor_is_quarantined_and_rejoins_through_a_canary() {
    let baseline_threads = thread_count();
    let executors = 3;
    let num_parts = 6;
    let victim = 1;
    let records: Vec<(u64, u64)> = (0..40u64).map(|i| (i % 5, i * 7919)).collect();

    let expected = sum_by_key(&SpangleContext::new(executors), &records, num_parts);

    let ctx = SpangleContext::builder()
        .executors(executors)
        .health_monitoring(true)
        .quarantine_threshold(0.3)
        .quarantine_probation(Duration::from_millis(40))
        .retry_backoff(RetryBackoffConfig {
            enabled: true,
            ..RetryBackoffConfig::default()
        })
        .coalesce_partitions(false)
        .max_resubmissions(10_000)
        .build();
    let before = ctx.metrics_snapshot();
    ctx.failure_injector()
        .flaky_executor(victim, 0.3, 0xF1A4_5EED);

    // Run jobs until the driver's failure-rate window benches the victim.
    // The draws are seeded, so the trip point is deterministic; the bound
    // only caps the loop if the implementation regresses.
    let mut quarantined = false;
    for _ in 0..60 {
        assert_eq!(
            sum_by_key(&ctx, &records, num_parts),
            expected,
            "every job through a flaky executor must still be exact"
        );
        if ctx.quarantined_executors().contains(&victim) {
            quarantined = true;
            break;
        }
    }
    assert!(
        quarantined,
        "a 30% failure rate must cross the 0.3 threshold"
    );
    let delta = ctx.metrics_snapshot() - before;
    assert!(delta.executors_quarantined >= 1, "{delta:?}");
    assert!(
        delta.backoff_nanos > 0,
        "every retry before the bench must have been backoff-delayed: {delta:?}"
    );
    assert_eq!(delta.executors_lost, 0, "quarantine drains, it never kills");

    // Heal the fault and keep offering work: once probation opens, the
    // canary task runs on the victim, succeeds, and restores it to full
    // placement.
    ctx.failure_injector().heal_executor(victim);
    let mut rejoined = false;
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(sum_by_key(&ctx, &records, num_parts), expected);
        if ctx.quarantined_executors().is_empty() {
            rejoined = true;
            break;
        }
    }
    assert!(rejoined, "a healed executor must rejoin through its canary");
    assert!(ctx.failure_injector().is_drained());
    drop(ctx);
    assert_threads_drain_to(baseline_threads);
}

/// The off switch: with `health_monitoring(false)` and backoff disabled,
/// a paused-heartbeat executor running a long quiet task is never
/// declared lost, a flaky executor is never quarantined, and every health
/// counter stays zero — announced-failures-only behavior, exactly as
/// before this layer.
#[test]
fn disabled_health_restores_announced_failures_only() {
    let baseline_threads = thread_count();
    let executors = 2;

    let ctx = SpangleContext::builder()
        .executors(executors)
        .health_monitoring(false)
        // Thresholds aggressive enough that the enabled layer would trip
        // instantly — proving the switch, not the margins.
        .heartbeat_interval(Duration::from_millis(10))
        .missed_heartbeat_limit(1)
        .watchdog_interval(Duration::from_millis(20))
        .quarantine_threshold(0.2)
        .retry_backoff(RetryBackoffConfig {
            enabled: false,
            ..RetryBackoffConfig::default()
        })
        .coalesce_partitions(false)
        .max_resubmissions(10_000)
        .build();
    let before = ctx.metrics_snapshot();

    // Executor 0 goes silent while sleeping far past the loss threshold;
    // executor 1 coin-flips failures that would feed the quarantine
    // window. Neither detector may act.
    ctx.failure_injector().pause_heartbeats(0);
    ctx.failure_injector().flaky_executor(1, 0.5, 0xDEAD_BEEF);
    let got = ctx
        .parallelize(vec![0u64, 1], executors)
        .map(|v| {
            if v == 0 {
                std::thread::sleep(Duration::from_millis(120));
            }
            v * 10
        })
        .collect()
        .unwrap();
    let mut got = got;
    got.sort();
    assert_eq!(got, vec![0, 10]);

    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(delta.executors_lost, 0, "no autonomous kill: {delta:?}");
    assert_eq!(delta.heartbeats_missed, 0);
    assert_eq!(delta.watchdog_trips, 0);
    assert_eq!(delta.tasks_speculated, 0);
    assert_eq!(delta.executors_quarantined, 0);
    assert_eq!(
        delta.backoff_nanos, 0,
        "disabled backoff retries immediately"
    );
    assert!(ctx.quarantined_executors().is_empty());

    ctx.failure_injector().resume_heartbeats(0);
    ctx.failure_injector().heal_executor(1);
    assert!(ctx.failure_injector().is_drained());
    drop(ctx);
    assert_threads_drain_to(baseline_threads);
}
