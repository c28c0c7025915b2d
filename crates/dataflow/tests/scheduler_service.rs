//! Integration tests for the scheduler's job handles: concurrent jobs, each
//! driven by the thread that waits for it, per-job accounting, and clean
//! teardown of aborted and abandoned jobs.

use spangle_dataflow::{submit_job, HashPartitioner, JobOutcome, PairRdd, SpangleContext};
use std::sync::{mpsc, Arc, RwLock};
use std::time::Duration;

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// Threads of this process named `spangle-driver`.
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

/// Many threads run a job each on one context: every job computes the
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

/// A job runs on the thread that waits for it: a context runs its
/// executors' threads and no driver thread of its own.
#[test]
fn a_context_runs_no_driver_thread() {
    let ctx = SpangleContext::new(2);
    assert_eq!(
        ctx.parallelize((0u64..10).collect(), 2).count().unwrap(),
        10
    );
    assert_eq!(driver_threads(), 0, "no spangle-driver thread may exist");
}

/// Dropping a handle whose job has not resolved aborts the job. Job A is
/// paused while it owns a shuffle, its map bodies running but held on a
/// latch, and its handle dropped: A records an `Aborted` report and
/// abandons the shuffle, job B re-claims and completes it, and nothing
/// stays resident once the lineage is dropped. One map partition per
/// executor, and a lone queued task is never stolen, so B's tasks run only
/// after A's cancelled bodies have returned and released the lineage.
#[test]
fn dropping_a_paused_handle_aborts_its_job_and_releases_its_shuffle() {
    let ctx = SpangleContext::new(2);
    let latch = Arc::new(RwLock::new(()));
    let held = latch.write().unwrap();
    let gate = Arc::clone(&latch);
    let (entered_tx, entered) = mpsc::channel();
    let base = ctx
        .parallelize((0u64..60).map(|i| (i % 6, 1u64)).collect(), 2)
        .map(move |kv| {
            let _ = entered_tx.send(());
            drop(gate.read().unwrap());
            kv
        });
    let reduced = base.reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a + b);
    let count = |_: usize, data: Arc<Vec<(u64, u64)>>| data.len();

    let mut a = submit_job(&reduced, count);
    assert!(
        a.wait_timeout(Duration::ZERO).is_none(),
        "A's maps are held"
    );
    // Both map bodies are running, not queued behind the executors.
    entered.recv().unwrap();
    entered.recv().unwrap();
    let a_id = a.job_id();
    drop(a);
    let report = ctx.last_job_report().expect("the dropped job's report");
    assert_eq!((report.job_id, report.outcome), (a_id, JobOutcome::Aborted));
    drop(held);

    let b = submit_job(&reduced, count);
    assert_eq!(b.wait().unwrap().into_iter().sum::<usize>(), 6);
    let report = ctx.last_job_report().expect("B's report");
    assert_eq!(report.outcome, JobOutcome::Succeeded);
    assert_eq!(
        (report.stages_run(), report.stages_skipped()),
        (2, 0),
        "B re-claimed the abandoned shuffle and ran its maps"
    );

    drop((base, reduced));
    assert_eq!(ctx.shuffle_resident_bytes(), 0);
}
