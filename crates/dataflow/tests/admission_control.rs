//! Integration tests for the scheduler's admission-control layer: queued
//! backpressure, priority shedding, per-priority queue bounds, the memory
//! high watermark, job deadlines (queued and running), and the capacity
//! tightening that follows an executor kill while its replacement warms
//! up.
//!
//! Determinism notes: jobs submitted from one thread reach the driver in
//! submission order (one FIFO channel), so "A saturates the scheduler,
//! then B arrives" needs no sleeps on the submission side — only A's
//! tasks sleep, to hold the slot while later submissions are routed.

use spangle_dataflow::{
    submit_job, HashPartitioner, JobHandle, JobOutcome, PairRdd, SpangleContext, TaskError,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Submits a job over `parts` one-element partitions whose every task
/// sleeps `ms`; the results are the partition indices.
fn submit_sleepy(ctx: &SpangleContext, parts: usize, ms: u64) -> JobHandle<u64> {
    let rdd = ctx.parallelize((0..parts as u64).collect(), parts);
    submit_job(&rdd, move |_, data: Arc<Vec<u64>>| {
        std::thread::sleep(Duration::from_millis(ms));
        data.iter().sum()
    })
}

fn report_for(ctx: &SpangleContext, job_id: usize) -> spangle_dataflow::JobReport {
    ctx.job_reports()
        .into_iter()
        .find(|r| r.job_id == job_id)
        .expect("every resolved job records a report")
}

#[test]
fn saturated_scheduler_queues_jobs_and_releases_them() {
    let ctx = SpangleContext::builder()
        .executors(2)
        .max_concurrent_jobs(1)
        .build();
    let a = submit_sleepy(&ctx, 2, 80);
    let b = submit_sleepy(&ctx, 2, 0);
    let (a_id, b_id) = (a.job_id(), b.job_id());

    assert_eq!(b.wait().unwrap(), vec![0, 1]);
    assert_eq!(a.wait().unwrap(), vec![0, 1]);

    let ra = report_for(&ctx, a_id);
    let rb = report_for(&ctx, b_id);
    assert_eq!(ra.outcome, JobOutcome::Succeeded);
    assert_eq!(rb.outcome, JobOutcome::Succeeded);
    assert_eq!(ra.admission_wait_nanos, 0, "A found a free slot");
    assert!(rb.admission_wait_nanos > 0, "B was queued behind A: {rb:?}");

    let snap = ctx.metrics_snapshot();
    assert_eq!(snap.jobs_rejected, 0);
    assert_eq!(snap.jobs_deadlined, 0);
    assert!(snap.admission_queue_peak >= 1, "{snap:?}");
    assert!(snap.admission_queue_wait_nanos > 0, "{snap:?}");
}

#[test]
fn low_priority_jobs_are_shed_while_saturated() {
    let ctx = SpangleContext::builder()
        .executors(2)
        .max_concurrent_jobs(1)
        .shed_below_priority(0)
        .build();
    let a = submit_sleepy(&ctx, 2, 80);
    // Below the shed threshold while A holds the only slot: rejected.
    let b = ctx.run_with_priority(-1, || submit_sleepy(&ctx, 2, 0));
    // At the threshold: queued, not shed.
    let c = submit_sleepy(&ctx, 2, 0);
    let b_id = b.job_id();

    let err = b.wait().unwrap_err();
    assert!(matches!(err.last_error, TaskError::Rejected), "{err}");
    assert_eq!(c.wait().unwrap(), vec![0, 1]);
    assert_eq!(a.wait().unwrap(), vec![0, 1]);

    let rb = report_for(&ctx, b_id);
    assert_eq!(rb.outcome, JobOutcome::Rejected);
    assert_eq!(rb.priority, -1);
    assert!(rb.stages.is_empty(), "a shed job never runs a stage");
    assert_eq!(ctx.metrics_snapshot().jobs_rejected, 1);
}

#[test]
fn overflowing_the_per_priority_queue_bound_rejects_the_job() {
    let ctx = SpangleContext::builder()
        .executors(2)
        .max_concurrent_jobs(1)
        .max_queued_tasks_per_priority(2)
        .build();
    let a = submit_sleepy(&ctx, 2, 80);
    let b = submit_sleepy(&ctx, 2, 0); // 2 queued tasks: exactly at the bound
    let c = submit_sleepy(&ctx, 2, 0); // would make 4 > 2: rejected
    let c_id = c.job_id();

    let err = c.wait().unwrap_err();
    assert!(matches!(err.last_error, TaskError::Rejected), "{err}");
    assert_eq!(b.wait().unwrap(), vec![0, 1]);
    assert_eq!(a.wait().unwrap(), vec![0, 1]);

    assert_eq!(report_for(&ctx, c_id).outcome, JobOutcome::Rejected);
    let snap = ctx.metrics_snapshot();
    assert_eq!(snap.jobs_rejected, 1);
    assert_eq!(snap.admission_queue_peak, 1, "only B ever queued");
}

#[test]
fn memory_watermark_gates_admission_until_memory_frees() {
    let ctx = SpangleContext::builder()
        .executors(2)
        .memory_high_watermark_bytes(1)
        // Spilling would demote the cache to disk and defeat the gate this
        // test exercises: the queue-until-memory-frees fallback.
        .spill_to_disk(false)
        .build();
    // Materialise some cached bytes; the caching job itself is admitted
    // (memory was below the watermark when it was submitted).
    let cached = ctx.parallelize((0u64..100).collect(), 2).map(|x| x + 1);
    cached.persist();
    cached.count().unwrap();
    assert!(ctx.cached_bytes() > 0);

    let mut d = submit_sleepy(&ctx, 2, 0);
    let d_id = d.job_id();
    assert!(d.try_wait().is_none(), "still queued");
    assert!(
        d.wait_timeout(Duration::from_millis(50)).is_none(),
        "held at the watermark while the cache is resident"
    );

    // Freeing the memory happens outside the driver loop; the admission
    // poll must notice and release D without any further event.
    cached.unpersist();
    assert_eq!(
        d.wait_timeout(Duration::from_secs(5)).unwrap().unwrap(),
        vec![0, 1]
    );

    let rd = report_for(&ctx, d_id);
    assert_eq!(rd.outcome, JobOutcome::Succeeded);
    assert!(rd.admission_wait_nanos > 0, "{rd:?}");
    let snap = ctx.metrics_snapshot();
    assert_eq!(snap.partitions_evicted, 2, "unpersist dropped both blocks");
    assert!(snap.cache_highwater_bytes > 0, "{snap:?}");
    assert!(snap.memory_highwater_bytes > 0, "{snap:?}");
    assert_eq!(snap.jobs_rejected, 0);
}

#[test]
fn manual_evictions_are_counted() {
    let ctx = SpangleContext::new(2);
    let rdd = ctx.parallelize((0u64..10).collect(), 2);
    rdd.persist();
    assert_eq!(rdd.count().unwrap(), 10);

    let before = ctx.metrics_snapshot();
    assert!(ctx.evict_cached_partition(rdd.id(), 0));
    assert!(!ctx.evict_cached_partition(rdd.id(), 0), "already gone");
    rdd.unpersist();
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(
        delta.partitions_evicted, 2,
        "one manual eviction + one block left for unpersist"
    );
}

#[test]
fn deadline_expires_while_queued() {
    let ctx = SpangleContext::builder()
        .executors(1)
        .max_concurrent_jobs(1)
        .build();
    let before = ctx.metrics_snapshot();
    let a = submit_sleepy(&ctx, 1, 150);
    let b = ctx.run_with_deadline(Duration::from_millis(30), || submit_sleepy(&ctx, 1, 0));
    let b_id = b.job_id();

    let err = b.wait().unwrap_err();
    assert!(
        matches!(err.last_error, TaskError::DeadlineExceeded),
        "{err}"
    );
    assert_eq!(a.wait().unwrap(), vec![0]);

    let rb = report_for(&ctx, b_id);
    assert_eq!(rb.outcome, JobOutcome::Deadlined);
    assert!(rb.stages.is_empty(), "a queued-deadlined job never ran");
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(delta.jobs_deadlined, 1);
    assert_eq!(delta.tasks_run, 1, "only A's task ran");
}

/// The poll-boundary race: a queued job's deadline expires in the same
/// 5 ms admission-poll window as the capacity it was waiting for frees
/// up. The driver resolves both on the same iteration, and its order —
/// deadlines expire *before* the queue drains — must make the job
/// `Deadlined` without ever starting; an admit-then-expire interleaving
/// would run (and charge) a job whose caller was already told it missed.
/// The deadline sweep brackets the slot-free instant from well before to
/// well after, so some cases land inside the race window whichever way
/// the scheduler's timing drifts; whatever the outcome, a deadlined job
/// must have run zero stages and zero tasks.
#[test]
fn queued_deadline_racing_a_freed_slot_never_runs() {
    let hold_ms = 60;
    let mut deadlined = 0;
    let mut succeeded = 0;
    for deadline_ms in [10u64, 30, 50, 55, 58, 60, 62, 65, 70, 90, 150] {
        let ctx = SpangleContext::builder()
            .executors(1)
            .max_concurrent_jobs(1)
            .build();
        let before = ctx.metrics_snapshot();
        let a = submit_sleepy(&ctx, 1, hold_ms); // holds the only slot
        let b = ctx.run_with_deadline(Duration::from_millis(deadline_ms), || {
            submit_sleepy(&ctx, 1, 0)
        });
        let b_id = b.job_id();

        let b_result = b.wait();
        assert_eq!(a.wait().unwrap(), vec![0]);
        let rb = report_for(&ctx, b_id);
        let delta = ctx.metrics_snapshot() - before;
        match b_result {
            Err(err) => {
                assert!(
                    matches!(err.last_error, TaskError::DeadlineExceeded),
                    "{err}"
                );
                assert_eq!(rb.outcome, JobOutcome::Deadlined);
                assert!(
                    rb.stages.is_empty(),
                    "a queued-deadlined job must never have started: {rb:?}"
                );
                assert_eq!(
                    delta.tasks_run, 1,
                    "only A's task may have run (deadline {deadline_ms} ms): {delta:?}"
                );
                assert_eq!(delta.jobs_deadlined, 1);
                deadlined += 1;
            }
            Ok(results) => {
                assert_eq!(results, vec![0]);
                assert_eq!(rb.outcome, JobOutcome::Succeeded);
                assert_eq!(delta.tasks_run, 2);
                assert_eq!(delta.jobs_deadlined, 0);
                succeeded += 1;
            }
        }
    }
    // The sweep's extremes are unambiguous whatever the poll alignment:
    // a 10 ms deadline expires long before the 60 ms hold frees the
    // slot, and a 150 ms one leaves ample room to run.
    assert!(
        deadlined >= 1,
        "the short deadlines must expire while queued"
    );
    assert!(succeeded >= 1, "the long deadlines must admit and run");
}

#[test]
fn deadline_aborts_a_running_job_and_reclaims_its_shuffle() {
    let ctx = SpangleContext::new(2);
    let base = ctx.parallelize((0u64..40).map(|i| (i % 4, i)).collect(), 2);
    let slow = base.map(|kv| {
        std::thread::sleep(Duration::from_millis(250));
        kv
    });
    let reduced = slow.reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);

    let started = Instant::now();
    let err = ctx
        .run_with_deadline(Duration::from_millis(40), || reduced.collect())
        .unwrap_err();
    assert!(
        matches!(err.last_error, TaskError::DeadlineExceeded),
        "{err}"
    );
    assert!(
        started.elapsed() < Duration::from_millis(200),
        "the abort must not wait for straggler map tasks"
    );
    let report = ctx.last_job_report().expect("deadlined job report");
    assert_eq!(report.outcome, JobOutcome::Deadlined);
    assert_eq!(ctx.metrics_snapshot().jobs_deadlined, 1);

    // Barrier: one task per executor, and single-entry queues are never
    // stolen, so each barrier task runs only after the straggler sleeping
    // on its executor has deposited (and been dropped or orphaned).
    ctx.parallelize(vec![0u64, 1], 2).count().unwrap();
    drop((reduced, slow, base));
    assert_eq!(
        ctx.shuffle_resident_bytes(),
        0,
        "a deadlined job may leave no shuffle bytes once its lineage drops"
    );
    assert_eq!(ctx.cached_bytes(), 0);
}

/// A deadline must preempt a *running* task body, not just refuse to wait
/// for it: the wedged task below never reaches a completion event, so
/// before cooperative cancellation the job could only resolve after the
/// body gave up on its own (here: never). The deadline abort cancels the
/// attempt's token and the wedge is interrupted at its next cancellation
/// point — within one chunk boundary.
#[test]
fn deadline_preempts_a_wedged_running_task_body() {
    let ctx = SpangleContext::new(2);
    let base = ctx.parallelize((0u64..40).map(|i| (i % 4, i)).collect(), 2);
    let reduced = base.reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
    // Wedge one map task: it spins at a cancellation point in place of
    // its body and can only stop by being cancelled.
    ctx.failure_injector().wedge_task(base.id(), 0, 1);

    let started = Instant::now();
    let err = ctx
        .run_with_deadline(Duration::from_millis(40), || reduced.collect())
        .unwrap_err();
    assert!(
        matches!(err.last_error, TaskError::DeadlineExceeded),
        "{err}"
    );
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "the deadline must not wait out the wedged body"
    );
    let report = ctx.last_job_report().expect("deadlined job report");
    assert_eq!(report.outcome, JobOutcome::Deadlined);
    assert!(
        ctx.failure_injector().is_drained(),
        "the wedge was consumed by the preempted attempt"
    );

    // Barrier over both executors: it can only complete this quickly if
    // the wedged body actually stopped spinning and freed its worker.
    let barrier_started = Instant::now();
    ctx.parallelize(vec![0u64, 1], 2).count().unwrap();
    assert!(
        barrier_started.elapsed() < Duration::from_millis(500),
        "cancelled wedge must have released its executor"
    );
    drop((reduced, base));
    assert_eq!(
        ctx.shuffle_resident_bytes(),
        0,
        "a preempted job may leave no resident shuffle bytes"
    );
}

#[test]
fn killed_executor_tightens_admission_capacity_until_replacement_warms() {
    let ctx = SpangleContext::builder()
        .executors(2)
        .max_concurrent_jobs(2)
        .build();
    // Healthy pool: two jobs run concurrently, neither is queued.
    let a1 = submit_sleepy(&ctx, 2, 60);
    let b1 = submit_sleepy(&ctx, 2, 60);
    let b1_id = b1.job_id();
    b1.wait().unwrap();
    a1.wait().unwrap();
    assert_eq!(report_for(&ctx, b1_id).admission_wait_nanos, 0);

    // One of two executors killed: capacity scales to 2 * 1/2 = 1 until
    // the replacement has completed its first task.
    ctx.kill_executor(0);
    let a2 = submit_sleepy(&ctx, 2, 60);
    let b2 = submit_sleepy(&ctx, 2, 0);
    let b2_id = b2.job_id();
    assert_eq!(b2.wait().unwrap(), vec![0, 1]);
    assert_eq!(a2.wait().unwrap(), vec![0, 1]);

    let rb2 = report_for(&ctx, b2_id);
    assert_eq!(rb2.outcome, JobOutcome::Succeeded);
    assert!(
        rb2.admission_wait_nanos > 0,
        "B2 had to wait out the warm-up window: {rb2:?}"
    );
    assert_eq!(ctx.metrics_snapshot().jobs_rejected, 0);
}

/// The acceptance scenario: all four overload responses in one run —
/// B *queued* (capacity tightened by a warming replacement), C *shed*
/// ([`JobOutcome::Rejected`]), D *deadlined* while queued — with exact
/// counter deltas and zero resident bytes for every non-completed job
/// (their shuffle lineages are kept alive, so a leak would stay visible).
#[test]
fn all_four_overload_responses_compose() {
    let ctx = SpangleContext::builder()
        .executors(2)
        .max_concurrent_jobs(2)
        .shed_below_priority(0)
        .build();
    let before = ctx.metrics_snapshot();
    // Degraded capacity: one warming replacement halves the two slots.
    ctx.kill_executor(0);

    // C and D get their own shuffle lineages; they stay alive to the end
    // so any bytes a rejected/deadlined job produced would stay resident.
    let make_shuffle = |tag: u64| {
        ctx.parallelize((0u64..40).map(move |i| (i % 4 + 100 * tag, i)).collect(), 2)
            .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b)
    };
    let rc = make_shuffle(1);
    let rd = make_shuffle(2);

    let a = submit_sleepy(&ctx, 2, 150); // admitted into the single slot
    let b = submit_sleepy(&ctx, 2, 0); // queued: capacity is tightened
    let c = ctx.run_with_priority(-1, || {
        submit_job(&rc, |_, data: Arc<Vec<(u64, u64)>>| data.len())
    });
    let d = ctx.run_with_deadline(Duration::from_millis(30), || {
        submit_job(&rd, |_, data: Arc<Vec<(u64, u64)>>| data.len())
    });
    let (a_id, b_id, c_id, d_id) = (a.job_id(), b.job_id(), c.job_id(), d.job_id());

    let c_err = c.wait().unwrap_err();
    assert!(matches!(c_err.last_error, TaskError::Rejected), "{c_err}");
    let d_err = d.wait().unwrap_err();
    assert!(
        matches!(d_err.last_error, TaskError::DeadlineExceeded),
        "{d_err}"
    );
    assert_eq!(b.wait().unwrap(), vec![0, 1]);
    assert_eq!(a.wait().unwrap(), vec![0, 1]);

    assert_eq!(report_for(&ctx, a_id).outcome, JobOutcome::Succeeded);
    let rb = report_for(&ctx, b_id);
    assert_eq!(rb.outcome, JobOutcome::Succeeded);
    assert!(rb.admission_wait_nanos > 0, "{rb:?}");
    assert_eq!(report_for(&ctx, c_id).outcome, JobOutcome::Rejected);
    assert_eq!(report_for(&ctx, d_id).outcome, JobOutcome::Deadlined);

    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(delta.jobs_rejected, 1, "exactly C was shed: {delta:?}");
    assert_eq!(delta.jobs_deadlined, 1, "exactly D deadlined: {delta:?}");
    assert!(delta.admission_queue_wait_nanos > 0);
    assert!(delta.admission_queue_peak >= 1);

    // rc and rd are still alive here: nothing of the shed or deadlined
    // jobs may be resident.
    assert_eq!(ctx.shuffle_resident_bytes(), 0);
    assert_eq!(ctx.cached_bytes(), 0);
}
