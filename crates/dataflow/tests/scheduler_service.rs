//! Integration tests for the shared scheduler service: many concurrent
//! jobs multiplexed over one driver loop, per-job accounting, and clean
//! teardown of aborted jobs.

use spangle_dataflow::{HashPartitioner, JobOutcome, PairRdd, SpangleContext};
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

/// Many driver threads share one scheduler loop: every job computes the
/// right answer, every job records a report of its own with its own
/// busy/steal split, and the per-job steal counts add up to the
/// cluster-wide counter.
#[test]
fn concurrent_jobs_share_the_service_with_per_job_accounting() {
    let ctx = SpangleContext::new(4);
    let before = ctx.metrics_snapshot();
    const JOBS: usize = 6;
    let handles: Vec<_> = (0..JOBS)
        .map(|i| {
            let ctx = ctx.clone();
            std::thread::spawn(move || {
                let modulus = (i as u64) + 2;
                let rdd = ctx.parallelize((0u64..60).map(|x| (x % modulus, 1u64)).collect(), 4);
                let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a + b);
                let out = sorted(reduced.collect().unwrap());
                let total: u64 = out.iter().map(|(_, v)| v).sum();
                assert_eq!(total, 60, "job {i} lost records");
                assert_eq!(out.len(), modulus as usize);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let delta = ctx.metrics_snapshot() - before;
    let reports = ctx.job_reports();
    assert_eq!(reports.len(), JOBS, "one report per job");

    for report in &reports {
        assert_eq!(report.outcome, JobOutcome::Succeeded);
        assert!(
            report.executor_busy_nanos.iter().sum::<u64>() > 0,
            "job {} must attribute busy time",
            report.job_id
        );
        assert_eq!(report.executor_busy_nanos.len(), 4);
    }
    let mut ids: Vec<usize> = reports.iter().map(|r| r.job_id).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), JOBS, "each job records its own report");
    // Per-job steal accounting partitions the cluster-wide counter.
    let stolen: u64 = reports.iter().map(|r| r.counts().tasks_stolen).sum();
    assert_eq!(delta.tasks_stolen, stolen);
    assert_eq!(delta.tasks_run, JOBS as u64 * (4 + 3));
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
