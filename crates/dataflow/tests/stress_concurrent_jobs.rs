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
use gate::{collect_bounded, wait_bounded};

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

        // N concurrent jobs race over the same shuffle dependency, at
        // mixed priorities so the shared service's priority queue is
        // exercised under contention too.
        let n_jobs = rng.usize_in(3..8);
        let before = ctx.metrics_snapshot();
        let handles: Vec<_> = (0..n_jobs)
            .map(|i| {
                let r = reduced.clone();
                let ctx = ctx.clone();
                let priority = (i as i32 % 3) - 1;
                std::thread::spawn(move || {
                    ctx.run_with_priority(priority, || {
                        let mut out = collect_bounded(&r, "concurrent reduce job").unwrap();
                        out.sort();
                        out
                    })
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
            assert!((-1..=1).contains(&report.priority));
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

/// Seeded saturation scenario for the admission controller: a sleeping
/// wedge job pins the single job slot while a batch of mixed-priority
/// jobs arrives behind it. Invariants:
///
/// (a) a Rejected job leaks no shuffle or cache bytes — every rejected
///     job's lineage is kept alive while the completed jobs' lineages are
///     dropped, so any leaked bytes would stay resident and visible;
/// (b) every admitted job resolves with a recorded `JobReport` whose
///     outcome matches how its handle resolved;
/// (c) jobs at or above the shed threshold are never shed while
///     lower-priority traffic is what saturated the scheduler.
#[test]
#[ignore = "stress gate: run explicitly via scripts/check.sh stress (separate CI job)"]
fn saturated_scheduler_sheds_only_low_priority_and_leaks_nothing() {
    use spangle_dataflow::{submit_job, JobOutcome, TaskError};

    let baseline_threads = thread_count();
    run_cases(0xAD_515_510, 8, |rng: &mut Rng| {
        let executors = rng.usize_in(2..5);
        let ctx = spangle_dataflow::SpangleContext::builder()
            .executors(executors)
            .max_concurrent_jobs(1)
            .shed_below_priority(0)
            .build();
        let injected = rng.usize_in(0..2);
        ctx.failure_injector().fail_next_tasks(injected);

        // The wedge: a high-priority job whose tasks sleep long enough
        // that every later submission is routed while it holds the slot.
        let wedge_rdd = ctx.parallelize((0..executors as u64).collect(), executors);
        let wedge = submit_job(&wedge_rdd, |_, data: Arc<Vec<u64>>| {
            std::thread::sleep(std::time::Duration::from_millis(120));
            data.len()
        });

        // Each satellite job gets its own shuffle lineage so leaked bytes
        // are attributable to the job that produced them.
        let n_jobs = rng.usize_in(3..7);
        let mut priorities = Vec::new();
        let mut lineages = Vec::new();
        let mut handles = Vec::new();
        for j in 0..n_jobs {
            let priority = rng.usize_in(0..4) as i32 - 2; // -2..2
            let parts = rng.usize_in(1..4);
            let len = rng.usize_in(20..80);
            let data: Vec<(u64, u64)> = (0..len)
                .map(|i| (i as u64 % 5 + 1000 * j as u64, 1))
                .collect();
            let reduced = ctx
                .parallelize(data, parts)
                .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
            let handle = ctx.run_with_priority(priority, || {
                submit_job(&reduced, |_, data: Arc<Vec<(u64, u64)>>| data.len())
            });
            priorities.push(priority);
            lineages.push(reduced);
            handles.push(handle);
        }

        // (c) is deterministic here: every job was submitted while the
        // wedge saturated the scheduler, so outcome is decided purely by
        // priority — below the threshold shed, at or above it queued and
        // eventually completed.
        let mut rejected_lineages = Vec::new();
        let mut completed_lineages = Vec::new();
        for ((handle, priority), lineage) in handles.into_iter().zip(&priorities).zip(lineages) {
            let job_id = handle.job_id();
            let outcome = wait_bounded(handle, "satellite job");
            let report = ctx
                .job_reports()
                .into_iter()
                .find(|r| r.job_id == job_id)
                .expect("(b) every resolved job records a report");
            assert_eq!(report.priority, *priority);
            if *priority < 0 {
                let err = outcome.expect_err("low-priority jobs are shed");
                assert!(matches!(err.last_error, TaskError::Rejected), "{err}");
                assert_eq!(report.outcome, JobOutcome::Rejected);
                rejected_lineages.push(lineage);
            } else {
                let sums = outcome.unwrap_or_else(|e| {
                    panic!("(c) priority {priority} >= threshold must complete: {e}")
                });
                assert!(!sums.is_empty());
                assert_eq!(report.outcome, JobOutcome::Succeeded);
                assert!(report.admission_wait_nanos > 0, "queued behind the wedge");
                completed_lineages.push(lineage);
            }
        }
        assert_eq!(
            wait_bounded(wedge, "wedge job").unwrap(),
            vec![1; executors]
        );
        assert!(
            ctx.failure_injector().is_drained(),
            "armed injections all landed on admitted jobs"
        );

        let shed = priorities.iter().filter(|p| **p < 0).count();
        let snap = ctx.metrics_snapshot();
        assert_eq!(snap.jobs_rejected as usize, shed, "exact shed count");
        assert_eq!(snap.jobs_deadlined, 0);

        // (a): drop only the completed jobs' lineages; the rejected ones
        // stay alive, so any bytes they produced would remain resident.
        drop(completed_lineages);
        assert_eq!(
            ctx.shuffle_resident_bytes(),
            0,
            "rejected jobs may not leave shuffle bytes behind"
        );
        assert_eq!(ctx.cached_bytes(), 0, "no job persisted anything");
        drop((rejected_lineages, wedge_rdd));
        assert!(waiter_threads().is_empty());
        drop(ctx);
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
