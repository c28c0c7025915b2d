//! Integration tests for the shared scheduler service: many concurrent
//! jobs multiplexed over one driver loop, job priorities, per-job
//! accounting, and clean teardown of aborted jobs.

use spangle_dataflow::{HashPartitioner, JobOutcome, PairRdd, SpangleContext};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// Threads of this process whose name matches the scheduler driver loop.
fn driver_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs task dir")
        .filter(|entry| {
            let Ok(entry) = entry else { return false };
            std::fs::read_to_string(entry.path().join("comm"))
                .map(|comm| comm.trim() == "spangle-driver")
                .unwrap_or(false)
        })
        .count()
}

/// Many driver threads with mixed priorities share one scheduler loop:
/// every job computes the right answer, every job's report is recorded
/// with its own priority and its own busy/steal split, and the per-job
/// steal counts add up to the cluster-wide counter.
#[test]
fn mixed_priority_jobs_share_the_service_with_per_job_accounting() {
    let ctx = SpangleContext::new(4);
    let before = ctx.metrics_snapshot();
    // One job per thread, each with a distinct priority so its report can
    // be identified afterwards without racing on `last_job_report`.
    let priorities = [-1i32, 0, 3, 1, 5, -2];
    let handles: Vec<_> = priorities
        .iter()
        .enumerate()
        .map(|(i, &prio)| {
            let ctx = ctx.clone();
            std::thread::spawn(move || {
                ctx.run_with_priority(prio, || {
                    let modulus = (i as u64) + 2;
                    let rdd = ctx.parallelize((0u64..60).map(|x| (x % modulus, 1u64)).collect(), 4);
                    let reduced =
                        rdd.reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a + b);
                    let out = sorted(reduced.collect().unwrap());
                    let total: u64 = out.iter().map(|(_, v)| v).sum();
                    assert_eq!(total, 60, "job {i} lost records");
                    assert_eq!(out.len(), modulus as usize);
                })
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let delta = ctx.metrics_snapshot() - before;
    let reports = ctx.job_reports();
    assert_eq!(reports.len(), priorities.len(), "one report per job");

    for &prio in &priorities {
        let report = reports
            .iter()
            .find(|r| r.priority == prio)
            .unwrap_or_else(|| panic!("no report stamped with priority {prio}"));
        assert_eq!(report.outcome, JobOutcome::Succeeded);
        assert!(
            report.executor_busy_nanos.iter().sum::<u64>() > 0,
            "job {} must attribute busy time",
            report.job_id
        );
        assert_eq!(report.executor_busy_nanos.len(), 4);
    }
    // Per-job steal accounting partitions the cluster-wide counter.
    let stolen: u64 = reports.iter().map(|r| r.counts().tasks_stolen).sum();
    assert_eq!(delta.tasks_stolen, stolen);
    assert_eq!(delta.tasks_run, priorities.len() as u64 * (4 + 3));
}

/// Priority inversion check: with the lone executor wedged, a
/// high-priority job submitted *after* a low-priority one still runs
/// first, which shows up as a strictly smaller summed queue wait.
#[test]
fn high_priority_job_overtakes_queued_low_priority_work() {
    let ctx = SpangleContext::new(1);
    let gate = Arc::new(AtomicBool::new(false));

    // Wedge the single executor with a job that spins until released.
    let wedge = {
        let ctx = ctx.clone();
        let gate = gate.clone();
        std::thread::spawn(move || {
            let rdd = ctx.parallelize(vec![1u64], 1).map(move |x| {
                while !gate.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                x
            });
            rdd.count().unwrap();
        })
    };
    std::thread::sleep(Duration::from_millis(50));

    // Lower priority first, higher priority second: both queue behind
    // the wedge, so only the priority queue decides who runs first. The
    // reports are fetched by priority afterwards (the wedge job is 0).
    let low = {
        let ctx = ctx.clone();
        std::thread::spawn(move || {
            ctx.run_with_priority(1, || {
                let rdd = ctx.parallelize((0u64..20).collect(), 2);
                assert_eq!(rdd.count().unwrap(), 20);
            })
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    let high = {
        let ctx = ctx.clone();
        std::thread::spawn(move || {
            ctx.run_with_priority(10, || {
                let rdd = ctx.parallelize((0u64..20).collect(), 2);
                assert_eq!(rdd.count().unwrap(), 20);
            })
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    gate.store(true, Ordering::Release);

    wedge.join().unwrap();
    low.join().unwrap();
    high.join().unwrap();
    let reports = ctx.job_reports();
    let by_prio = |p: i32| {
        reports
            .iter()
            .find(|r| r.priority == p)
            .unwrap_or_else(|| panic!("no report with priority {p}"))
    };
    let (low, high) = (by_prio(1), by_prio(10));
    assert!(
        high.queue_wait_nanos < low.queue_wait_nanos,
        "priority 10 must leave the queue first: high waited {} ns, low waited {} ns",
        high.queue_wait_nanos,
        low.queue_wait_nanos
    );
}

/// The acceptance scenario in one piece: of two concurrent jobs over the
/// same shuffle, the one whose result stage is poisoned aborts — with a
/// `JobOutcome::Aborted` report of its own — while the healthy job
/// completes, and once the lineage is dropped no shuffle bytes stay
/// resident (the abort abandoned nothing it shouldn't have).
#[test]
fn aborted_and_healthy_jobs_coexist_and_clean_up() {
    let ctx = SpangleContext::builder()
        .executors(2)
        .max_task_attempts(2)
        .build();
    let base = ctx.parallelize((0u64..60).map(|i| (i % 6, 1u64)).collect(), 4);
    let reduced = base.reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a + b);
    // Poison one job's private result stage, not the shared map stage.
    let poisoned = reduced.map(|(k, v)| {
        assert!(k != 0, "poison key");
        (k, v)
    });

    let healthy = {
        let reduced = reduced.clone();
        std::thread::spawn(move || sorted(reduced.collect().unwrap()))
    };
    let doomed = {
        let poisoned = poisoned.clone();
        std::thread::spawn(move || poisoned.collect().unwrap_err())
    };
    let ok = healthy.join().unwrap();
    let err = doomed.join().unwrap();
    assert_eq!(ok, (0u64..6).map(|k| (k, 10u64)).collect::<Vec<_>>());

    let reports = ctx.job_reports();
    let aborted = reports
        .iter()
        .find(|r| r.job_id == err.job_id)
        .expect("the aborted job must record a report");
    assert_eq!(aborted.outcome, JobOutcome::Aborted);
    let succeeded = reports
        .iter()
        .filter(|r| r.outcome == JobOutcome::Succeeded)
        .count();
    assert_eq!(succeeded, 1, "the healthy job's report must coexist");

    // Dropping the lineage reclaims the shuffle; the abort left no
    // orphaned partial output behind.
    drop((base, reduced, poisoned));
    assert_eq!(ctx.shuffle_resident_bytes(), 0);
}

/// One driver loop per context, joined on drop: contexts don't leak their
/// service thread.
#[test]
fn dropping_the_context_joins_the_driver_loop() {
    let ctx = SpangleContext::new(2);
    // A completed job proves the driver loop ran (and, being scheduled,
    // has set its thread name — it may not have immediately after spawn).
    ctx.parallelize((0u64..10).collect(), 2).count().unwrap();
    assert!(driver_threads() >= 1, "the service thread is live");
    drop(ctx);
    // Other tests in this binary churn their own contexts concurrently,
    // so poll until every driver loop (ours included) is gone rather than
    // asserting a baseline-relative count once.
    let deadline = Instant::now() + Duration::from_secs(10);
    while driver_threads() > 0 {
        assert!(
            Instant::now() < deadline,
            "driver loop thread leaked past context drop"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
