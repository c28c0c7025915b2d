//! Seeded multi-job stress test: many concurrent jobs racing over a
//! shared shuffle dependency with failure injection enabled.
//!
//! This exercises the whole claim/subscribe/steal machinery at once:
//! concurrent claimants elect one map-stage owner, everyone else gets an
//! event-driven completion callback (no parked waiter threads), retried
//! attempts recompute from lineage, and idle executors steal skewed
//! backlogs. The assertions are the system invariants, not timings:
//! every job agrees with the sequential reference, the shared map stage's
//! bytes are written exactly once per completed run, no thread (executor,
//! waiter, or otherwise) outlives its context, and shuffle state is fully
//! reclaimed.
//!
//! Deliberately `#[ignore]`d: `scripts/check.sh stress` (a separate CI
//! job) runs it so its runtime does not slow the default gate.

use spangle_dataflow::{
    cancellation_point, HashPartitioner, PairRdd, SpangleContext, SpeculationConfig,
};
use spangle_testkit::{run_cases, Rng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod gate;
use gate::collect_bounded;

/// Live threads of this process (Linux); used to prove nothing leaks.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.flatten().count())
        .unwrap_or(0)
}

fn waiter_threads() -> Vec<String> {
    let mut names = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
                let comm = comm.trim();
                if comm.starts_with("spangle-stage") {
                    names.push(comm.to_string());
                }
            }
        }
    }
    names
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

#[test]
#[ignore = "stress gate: run explicitly via scripts/check.sh stress (separate CI job)"]
fn concurrent_jobs_with_failure_injection_hold_all_invariants() {
    let baseline_threads = thread_count();
    run_cases(0x57E5_5CA5, 10, |rng: &mut Rng| {
        let executors = rng.usize_in(2..6);
        let ctx = SpangleContext::new(executors);
        let num_parts = rng.usize_in(2..7);
        let num_keys = rng.u64_in(3..12);
        let len = rng.usize_in(100..500);
        let data: Vec<(u64, u64)> = (0..len)
            .map(|_| (rng.u64_in(0..num_keys), rng.u64_in(0..100)))
            .collect();

        // Sequential reference.
        let mut expected: HashMap<u64, u64> = HashMap::new();
        for (k, v) in &data {
            *expected.entry(*k).or_insert(0) += v;
        }
        let mut expected: Vec<(u64, u64)> = expected.into_iter().collect();
        expected.sort();

        let reduce_parts = rng.usize_in(1..5);
        let base = ctx.parallelize(data, num_parts);
        let reduced =
            base.reduce_by_key(Arc::new(HashPartitioner::new(reduce_parts)), |a, b| a + b);

        // Kill a few upcoming task attempts anywhere (fewer than the
        // per-task attempt limit, so every job still converges).
        let injected = rng.usize_in(0..3);
        ctx.failure_injector().fail_next_tasks(injected);

        // N concurrent jobs race over the same shuffle dependency.
        let n_jobs = rng.usize_in(3..8);
        let before = ctx.metrics_snapshot();
        let handles: Vec<_> = (0..n_jobs)
            .map(|_| {
                let r = reduced.clone();
                std::thread::spawn(move || {
                    let mut out = collect_bounded(&r, "concurrent reduce job").unwrap();
                    out.sort();
                    out
                })
            })
            .collect();
        for h in handles {
            assert_eq!(
                h.join().unwrap(),
                expected,
                "every job sees the same result"
            );
        }
        let delta = ctx.metrics_snapshot() - before;

        assert!(
            waiter_threads().is_empty(),
            "no spangle-stage-waiter-* thread may ever exist"
        );
        // Byte accounting: the map stage's output was produced and every
        // job's result stage read it.
        assert!(
            delta.shuffle_write_bytes > 0,
            "the shared shuffle was produced"
        );
        assert!(delta.shuffle_read_bytes > 0, "jobs read the shared shuffle");
        // `fail_next_tasks` kills exactly `injected` distinct first
        // attempts, each retried exactly once — well under the per-task
        // attempt budget, so nothing aborts.
        assert_eq!(
            delta.task_retries as usize, injected,
            "each injected failure causes exactly one retry"
        );
        assert!(
            ctx.failure_injector().is_drained(),
            "every armed injection was consumed"
        );
        // The map stage ran once; every extra job either skipped it or
        // awaited the in-flight owner. Result stages ran once per job.
        assert_eq!(
            delta.stages_run as usize,
            1 + n_jobs,
            "one shared map stage + one result stage per job (delta: {delta:?})"
        );
        assert_eq!(delta.stages_skipped as usize, n_jobs - 1);

        // Every job recorded a successful report through the shared
        // service, and per-job steal accounting partitions the
        // cluster-wide counter.
        let reports = ctx.job_reports();
        assert_eq!(reports.len(), n_jobs, "one report per job");
        for report in &reports {
            assert_eq!(report.outcome, spangle_dataflow::JobOutcome::Succeeded);
        }
        let stolen: u64 = reports.iter().map(|r| r.counts().tasks_stolen).sum();
        assert_eq!(delta.tasks_stolen, stolen);

        // Shuffle state is fully reclaimed once the lineage drops.
        drop((base, reduced));
        assert_eq!(ctx.shuffle_resident_bytes(), 0, "shuffle blocks reclaimed");
        drop(ctx);
        // Executors joined on context drop; nothing may leak.
        assert_threads_drain_to(baseline_threads);
    });
}

/// How long an uninterrupted straggler task holds its executor. The p99
/// bound below is half of this, so the assertion can only pass if
/// speculation duplicated the straggler and cancellation interrupted it.
const STRAGGLER_HOLD: Duration = Duration::from_millis(1_000);

/// Seeded straggler-mitigation gate: one executor is artificially slowed
/// — every task body that lands on its thread spins (cancellably) for
/// [`STRAGGLER_HOLD`] — while a stream of single-stage jobs runs. With
/// speculation on, the driver must duplicate each straggling task onto a
/// healthy executor and cancel the loser, so the p99 job latency stays
/// within half the hold time of the no-straggler run instead of eating
/// the full hold per job.
#[test]
#[ignore = "stress gate: run explicitly via scripts/check.sh stress (separate CI job)"]
fn speculation_bounds_tail_latency_under_a_slowed_executor() {
    let baseline_threads = thread_count();
    run_cases(0x510_3EC5, 4, |rng: &mut Rng| {
        let executors = rng.usize_in(3..6);
        let num_parts = executors * 2;
        let n_jobs = 12;
        let slow_thread = format!("spangle-executor-{}", rng.usize_in(0..executors));

        // Speculation with a threshold low enough to fire quickly but
        // far above a healthy task's runtime; coalescing off because
        // coalesced groups are never speculated.
        let ctx_for = || {
            SpangleContext::builder()
                .executors(executors)
                .speculation(SpeculationConfig {
                    enabled: true,
                    multiplier: 3.0,
                    min_runtime: Duration::from_millis(40),
                })
                .coalesce_partitions(false)
                .build()
        };

        // One job: a single-stage count over `num_parts` one-element
        // partitions whose map body spins on the slowed executor's thread
        // until cancelled (or the hold expires). Returns its wall time.
        let run_job = |ctx: &SpangleContext, slow: Option<String>| -> Duration {
            let rdd = ctx
                .parallelize((0..num_parts as u64).collect(), num_parts)
                .map(move |x| {
                    if let Some(name) = &slow {
                        if std::thread::current().name() == Some(name.as_str()) {
                            let start = Instant::now();
                            while start.elapsed() < STRAGGLER_HOLD {
                                cancellation_point();
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    }
                    x + 1
                });
            let start = Instant::now();
            assert_eq!(rdd.count().unwrap(), num_parts);
            start.elapsed()
        };

        let p99 = |mut times: Vec<Duration>| -> Duration {
            times.sort();
            times[(times.len() * 99).div_ceil(100) - 1]
        };

        // Reference: same cluster and config, nobody slowed.
        let ctx = ctx_for();
        let clean: Vec<Duration> = (0..n_jobs).map(|_| run_job(&ctx, None)).collect();
        let p99_clean = p99(clean);
        drop(ctx);

        // Slowed run: every job's partitions include some owned by the
        // slowed executor, so every job has at least one straggler.
        let ctx = ctx_for();
        let before = ctx.metrics_snapshot();
        let slowed: Vec<Duration> = (0..n_jobs)
            .map(|_| run_job(&ctx, Some(slow_thread.clone())))
            .collect();
        let p99_slow = p99(slowed);
        let delta = ctx.metrics_snapshot() - before;

        assert!(
            delta.speculation_wins > 0,
            "the slowed executor's tasks must be rescued by duplicates: {delta:?}"
        );
        assert!(
            p99_slow <= p99_clean + STRAGGLER_HOLD / 2,
            "speculation must bound the tail: p99 {p99_slow:?} vs clean {p99_clean:?} \
             (an unmitigated straggler holds its executor {STRAGGLER_HOLD:?})"
        );
        drop(ctx);
        assert_threads_drain_to(baseline_threads);
    });
}
