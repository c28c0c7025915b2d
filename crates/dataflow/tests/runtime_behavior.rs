//! Runtime-behaviour integration tests: shuffle garbage collection,
//! broadcast variables inside jobs, stage reuse across actions, metrics
//! plumbing, and executor-loss fault tolerance.

use spangle_dataflow::{
    HashPartitioner, JobOutcome, MetricsSnapshot, PairRdd, SpangleContext, StageOutcome,
};
use std::sync::Arc;

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

#[test]
fn dropping_a_shuffled_rdd_frees_its_shuffle_blocks() {
    let ctx = SpangleContext::new(2);
    let base = ctx.parallelize((0u64..200).map(|i| (i % 10, i)).collect(), 4);
    let reduced = base.reduce_by_key(Arc::new(HashPartitioner::new(4)), |a, b| a + b);
    reduced.count().unwrap();
    assert!(
        ctx.shuffle_resident_bytes() > 0,
        "shuffle outputs are kept for reuse while the RDD lives"
    );
    drop(reduced);
    assert_eq!(
        ctx.shuffle_resident_bytes(),
        0,
        "dropping the last reader garbage-collects the shuffle"
    );
}

#[test]
fn cached_partitions_live_exactly_as_long_as_the_dataset_can_be_named() {
    let ctx = SpangleContext::new(2);
    let cached = ctx.parallelize((0u64..1000).collect(), 4).map(|x| x * 3);
    cached.persist();
    let child = cached.map(|x| x + 1);
    assert_eq!(child.count().unwrap(), 1000);
    let resident = ctx.cached_bytes();
    assert!(resident > 0);

    // The child still names its parent: dropping the user's handle keeps
    // the blocks, and the child's next action reads all of them.
    drop(cached);
    assert_eq!(ctx.cached_bytes(), resident);
    let before = ctx.metrics_snapshot();
    assert_eq!(child.count().unwrap(), 1000);
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!((delta.cache_hits, delta.cache_misses), (4, 0));
    assert_eq!(delta.partitions_evicted, 0);

    // The last handle goes: so do the blocks, charged like `unpersist`.
    let before = ctx.metrics_snapshot();
    drop(child);
    assert_eq!(ctx.cached_bytes(), 0);
    assert_eq!((ctx.metrics_snapshot() - before).partitions_evicted, 4);
}

#[test]
fn unpersist_drops_blocks_now_and_the_next_action_recaches() {
    let ctx = SpangleContext::new(2);
    let cached = ctx.parallelize((0u64..1000).collect(), 4).map(|x| x * 3);
    cached.persist();
    cached.count().unwrap();
    let resident = ctx.cached_bytes();
    cached.unpersist();
    assert_eq!(ctx.cached_bytes(), 0, "handles remain, blocks are gone");
    let before = ctx.metrics_snapshot();
    cached.count().unwrap();
    assert_eq!((ctx.metrics_snapshot() - before).cache_misses, 4);
    assert_eq!(ctx.cached_bytes(), resident, "the persistence mark stayed");
    // A dataset that was never persisted charges nothing when it goes.
    let before = ctx.metrics_snapshot();
    drop(ctx.parallelize(vec![1u64], 1));
    assert_eq!((ctx.metrics_snapshot() - before).partitions_evicted, 0);
}

#[test]
fn iterative_jobs_do_not_leak_shuffle_state() {
    let ctx = SpangleContext::new(2);
    let base = ctx.parallelize((0u64..100).map(|i| (i % 5, 1u64)).collect(), 4);
    let mut resident_after_drop = Vec::new();
    for _ in 0..5 {
        let step = base.reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
        step.count().unwrap();
        drop(step);
        resident_after_drop.push(ctx.shuffle_resident_bytes());
    }
    assert!(
        resident_after_drop.iter().all(|&b| b == 0),
        "per-iteration shuffles must be reclaimed: {resident_after_drop:?}"
    );
}

#[test]
fn broadcast_values_are_visible_inside_tasks() {
    let ctx = SpangleContext::new(3);
    let lookup = ctx.broadcast(vec![10i64, 20, 30, 40]);
    let rdd = ctx.parallelize(vec![0usize, 1, 2, 3, 2, 1], 3);
    let mapped = rdd.map(move |i| lookup.value()[i]);
    assert_eq!(mapped.collect().unwrap(), vec![10, 20, 30, 40, 30, 20]);
}

#[test]
fn shuffle_reuse_survives_downstream_transformations() {
    let ctx = SpangleContext::new(2);
    let reduced = ctx
        .parallelize((0u64..100).map(|i| (i % 4, 1u64)).collect(), 4)
        .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
    reduced.count().unwrap();

    // Three different downstream pipelines over the same shuffled parent:
    // the map stage must run exactly once in total.
    let before = ctx.metrics_snapshot();
    let a = reduced.map(|(k, v)| (k, v * 2)).collect().unwrap();
    let b = reduced.filter(|(_, v)| *v > 10).count().unwrap();
    let c = reduced.map(|(_, v)| v).reduce(|x, y| x + y).unwrap();
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(a.len(), 4);
    assert_eq!(b, 4);
    assert_eq!(c, Some(100));
    assert_eq!(delta.stages_skipped, 3, "each action skips the map stage");
    assert_eq!(delta.shuffle_write_bytes, 0);
}

#[test]
fn per_job_metrics_compose_across_interleaved_jobs() {
    let ctx = SpangleContext::new(2);
    let rdd = ctx.parallelize((0u64..1000).collect(), 8);
    let s0 = ctx.metrics_snapshot();
    rdd.count().unwrap();
    let s1 = ctx.metrics_snapshot();
    rdd.count().unwrap();
    let s2 = ctx.metrics_snapshot();
    // Two identical narrow jobs cost the same.
    assert_eq!((s1 - s0).tasks_run, (s2 - s1).tasks_run);
    assert_eq!((s1 - s0).stages_run, 1);
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

/// A job abort cancels a body that is still *running*: the abort must free
/// its executor at the body's next cancellation point instead of waiting
/// it out, and leave no shuffle bytes behind. Map partition 0's body spins
/// until it is cancelled; partition 1's fails once partition 0 is known to
/// be running, and with one attempt per task that failure aborts the job.
#[test]
fn an_abort_cancels_a_running_body() {
    use spangle_dataflow::{cancellation_point, submit_job, TaskError};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let ctx = SpangleContext::builder()
        .executors(2)
        .max_task_attempts(1)
        .build();
    let running = Arc::new(AtomicBool::new(false));
    let base = ctx.parallelize((0u64..40).map(|i| (i % 4, i)).collect(), 2);
    let mapped = base.map_partitions_with_index(move |partition, records| -> Vec<(u64, u64)> {
        if partition == 0 {
            running.store(true, Ordering::SeqCst);
            loop {
                cancellation_point();
                std::hint::spin_loop();
            }
        }
        while !running.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        panic!("partition {partition} fails with {} records", records.len());
    });
    let reduced = mapped.reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);

    let before = ctx.metrics_snapshot();
    let err = reduced.collect().unwrap_err();
    assert!(matches!(err.last_error, TaskError::Panicked(_)), "{err}");
    let report = ctx.last_job_report().expect("aborted job report");
    assert_eq!(report.outcome, JobOutcome::Aborted);
    let delta = ctx.metrics_snapshot() - before;
    assert!(delta.tasks_cancelled >= 1, "the spinning body: {delta:?}");

    // One task per executor, and a lone queued task is never stolen: the
    // barrier's partition 0 runs only once the spinning body stopped.
    let barrier = ctx.parallelize(vec![0u64, 1], 2);
    let mut handle = submit_job(&barrier, |_, data: Arc<Vec<u64>>| data.len());
    let freed = handle
        .wait_timeout(Duration::from_secs(30))
        .map(|outcome| outcome.expect("the barrier must not abort"));
    assert_eq!(
        freed,
        Some(vec![1, 1]),
        "the cancelled body held executor 0"
    );
    drop((reduced, mapped, base));
    assert_eq!(
        ctx.shuffle_resident_bytes(),
        0,
        "an aborted job may leave no resident shuffle bytes"
    );
}

/// Names of every live thread in this process, via `/proc` (comm is
/// truncated to 15 bytes, so match on prefixes).
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    let mut names = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
                names.push(comm.trim().to_string());
            }
        }
    }
    names
}

/// A job awaiting a shuffle that another job is producing must not park a
/// `spangle-stage-waiter-*` thread (the scheduler subscribes a callback on
/// the shuffle service instead), and the wait must still resolve to the
/// shared output being computed exactly once.
#[test]
#[cfg(target_os = "linux")]
fn awaiting_an_in_flight_shuffle_spawns_no_waiter_threads() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    let ctx = SpangleContext::new(2);
    // Two map partitions, each sleeping once: a wide window in which the
    // map stage is in flight and a second job has to wait on it.
    let slow = ctx.parallelize(vec![(0u64, 1u64), (1, 2)], 2).map(|kv| {
        std::thread::sleep(Duration::from_millis(120));
        kv
    });
    let reduced = slow.reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);

    let before = ctx.metrics_snapshot();
    let stop = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(Mutex::new(Vec::<String>::new()));
    let sampler = {
        let (stop, seen) = (Arc::clone(&stop), Arc::clone(&seen));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let waiters: Vec<String> = thread_names()
                    .into_iter()
                    .filter(|n| n.starts_with("spangle-stage"))
                    .collect();
                seen.lock().unwrap().extend(waiters);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let (a, b) = {
        let ra = reduced.clone();
        let rb = reduced.clone();
        let ta = std::thread::spawn(move || ra.collect().unwrap());
        // Give job A a head start so job B reliably finds the shuffle
        // in flight and has to await it.
        std::thread::sleep(Duration::from_millis(30));
        let tb = std::thread::spawn(move || rb.collect().unwrap());
        (ta.join().unwrap(), tb.join().unwrap())
    };
    stop.store(true, Ordering::Relaxed);
    sampler.join().unwrap();

    let mut a = a;
    let mut b = b;
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert_eq!(a, vec![(0, 1), (1, 2)]);
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(delta.tasks_run, 2 + 2 + 2, "the map stage ran exactly once");
    assert_eq!(
        delta.stages_skipped, 1,
        "the second job awaited, then skipped"
    );
    let seen = seen.lock().unwrap();
    assert!(
        seen.is_empty(),
        "no spangle-stage-waiter-* thread may ever exist, saw: {seen:?}"
    );
}

/// The headline recovery scenario: an executor is killed *between* a map
/// stage and its reduce stage (the map output exists and the shuffle is
/// marked completed when the kill lands). The reduce observes
/// `FetchFailed`, the scheduler recomputes only the lost map partition
/// from lineage, and the job's result is identical to the no-failure run.
#[test]
fn killing_an_executor_between_map_and_reduce_recomputes_only_its_maps() {
    // 2 map partitions on 2 executors: task placement is partition ==
    // executor and single-entry queues are never stolen, so map partition
    // 1's output lives on executor 1, deterministically.
    let ctx = SpangleContext::new(2);
    let reduced = ctx
        .parallelize((0u64..100).map(|i| (i % 4, i)).collect(), 2)
        .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);

    let s0 = ctx.metrics_snapshot();
    let baseline = sorted(reduced.collect().unwrap());
    let s1 = ctx.metrics_snapshot();
    let full_run = s1 - s0;
    assert!(full_run.shuffle_write_bytes > 0);

    // Kill between the stages: the map output is complete and resident,
    // and the next action will skip the map stage and go straight to the
    // reduce — which must then discover the hole.
    let loss = ctx.kill_executor(1);
    assert_eq!(loss.executor, 1);
    assert_eq!(loss.incarnation, 1);
    assert!(loss.shuffle_blocks_dropped >= 1);
    assert!(loss.shuffle_bytes_dropped > 0);

    let recovered = sorted(reduced.collect().unwrap());
    let recovery = ctx.metrics_snapshot() - s1;
    assert_eq!(recovered, baseline, "recovery must not change the answer");
    assert_eq!(recovery.executors_lost, 1);
    assert!(recovery.fetch_failures >= 1, "{recovery:?}");
    assert_eq!(
        recovery.map_partitions_recomputed, 1,
        "only executor 1's map partition is recomputed: {recovery:?}"
    );
    // The recomputation rewrote map partition 1's blocks and nothing
    // else: strictly more than zero, strictly less than the full map
    // stage.
    assert!(recovery.shuffle_write_bytes > 0, "{recovery:?}");
    assert!(
        recovery.shuffle_write_bytes < full_run.shuffle_write_bytes,
        "surviving map output must be reused, not rewritten: {recovery:?}"
    );

    let report = ctx.last_job_report().expect("recovery job report");
    assert_eq!(report.outcome, JobOutcome::Succeeded);
    assert!(report.counts().fetch_failures >= 1);
    assert_eq!(report.counts().map_partitions_recomputed, 1);
}

/// A job's stage reports add up to what the context counted, field for
/// field, on every counter the scheduler attributes to a stage — here
/// across a skip, a recovery run and a retried reduce. The defect this
/// pins: every run of a stage, a recovery run included, used to copy the
/// plan's fused chains into its report while the context counted them
/// only at the stage's first submission (report 1, context 0).
#[test]
fn a_jobs_stage_counts_equal_the_context_delta() {
    let attributed = |s: MetricsSnapshot| {
        [
            s.stages_run,
            s.stages_skipped,
            s.fetch_failures,
            s.map_partitions_recomputed,
            s.stages_fused,
            s.shuffles_elided,
            s.task_retries,
            s.recomputations,
            s.tasks_speculated,
            s.speculation_wins,
            s.tasks_cancelled,
            s.watchdog_trips,
            s.tasks_stolen,
        ]
    };
    // Same placement as above: map partition 1's output lives on
    // executor 1. The map stage fuses `map` and `filter`.
    let ctx = SpangleContext::new(2);
    let reduced = ctx
        .parallelize((0u64..100).collect(), 2)
        .map(|i| (i % 4, i))
        .filter(|(_, v)| v % 3 != 0)
        .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
    let s0 = ctx.metrics_snapshot();
    let baseline = sorted(reduced.collect().unwrap());
    let s1 = ctx.metrics_snapshot();
    let first = ctx.last_job_report().expect("first job report");
    assert_eq!(attributed(first.counts()), attributed(s1 - s0), "{first}");
    assert_eq!(first.counts().stages_fused, 1, "{first}");

    // Second job: the map stage is skipped, the reduce trips over the
    // lost map output, a recovery run rebuilds it, and an injected
    // failure makes one reduce attempt retry.
    ctx.kill_executor(1);
    ctx.failure_injector().fail_task(reduced.id(), 0, 1);
    assert_eq!(sorted(reduced.collect().unwrap()), baseline);
    let delta = ctx.metrics_snapshot() - s1;
    let report = ctx.last_job_report().expect("recovery job report");
    let outcomes: Vec<_> = report.stages.iter().map(|s| s.outcome).collect();
    assert_eq!(
        outcomes,
        [StageOutcome::Skipped, StageOutcome::Ran, StageOutcome::Ran],
        "skip, recovery run, reduce: {report}"
    );
    assert_eq!(attributed(report.counts()), attributed(delta), "{report}");
    assert_eq!(delta.map_partitions_recomputed, 1, "{delta:?}");
    assert!(delta.fetch_failures >= 1, "{delta:?}");
    assert!(delta.task_retries >= 1, "{delta:?}");
    assert_eq!(
        report.stages[1].counts.stages_fused, 0,
        "a recovery run re-executes the chain but fuses nothing new"
    );
}

/// Mid-job executor loss: the injector kills executor 1 right after it
/// finishes its reduce-side task of the first shuffle, while the job is
/// still running. The attempt comes back as `ExecutorLost`, its replay
/// trips over the first shuffle's lost map output (`FetchFailed`), the
/// lost map partition is rebuilt from lineage, and the job completes with
/// the correct result.
#[test]
fn mid_job_executor_kill_recovers_through_lineage() {
    let ctx = SpangleContext::new(2);
    let out = {
        let first = ctx
            .parallelize((0u64..100).map(|i| (i % 4, i)).collect(), 2)
            .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
        // A second shuffle so the first one's reduce runs mid-job: the
        // identity re-keying defeats co-partitioning, forcing a real
        // shuffle.
        let second = first
            .map(|(k, v)| (k, v * 2))
            .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);

        // Executor 1 runs exactly two tasks before the kill: the first
        // shuffle's map task, then its reduce task (which is the second
        // shuffle's map task). The kill lands after the latter, so both
        // its first-shuffle map output and its just-written second-shuffle
        // output die with it, mid-job.
        ctx.failure_injector().kill_executor_after(1, 2);
        let before = ctx.metrics_snapshot();
        let out = sorted(second.collect().unwrap());
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.executors_lost, 1);
        assert!(delta.fetch_failures >= 1, "{delta:?}");
        assert_eq!(delta.map_partitions_recomputed, 1, "{delta:?}");
        out
    };
    // Key k sums i over i ≡ k (mod 4), i < 100: 25k + 1200; doubled by
    // the map between the shuffles.
    let expected: Vec<(u64, u64)> = (0..4).map(|k| (k, 2 * (25 * k + 1200))).collect();
    assert_eq!(out, expected);
    assert!(
        ctx.failure_injector().is_drained(),
        "the armed executor kill must have fired"
    );
}

/// Injector composition: `fail_task` and `kill_executor_after` armed on
/// the *same attempt* must both fire, and the injected failure must keep
/// precedence over the executor loss — charged to the task's attempt
/// budget (one retry) instead of vanishing into the free replay the
/// `ExecutorLost` path grants. Regression test: the epoch-override check
/// used to rewrite the `Injected` outcome into `ExecutorLost`.
#[test]
fn injected_failure_composes_with_executor_kill_on_same_attempt() {
    let ctx = SpangleContext::new(2);
    let rdd = ctx.parallelize((0u64..20).collect(), 2);
    // Partition 1 is placed on executor 1: its first attempt is killed by
    // the injector, and the same task body is executor 1's first task, so
    // the armed kill fires right after the injected failure.
    ctx.failure_injector().fail_task(rdd.id(), 1, 1);
    ctx.failure_injector().kill_executor_after(1, 1);

    let before = ctx.metrics_snapshot();
    let out = sorted(rdd.collect().unwrap());
    let delta = ctx.metrics_snapshot() - before;

    assert_eq!(out, (0u64..20).collect::<Vec<_>>());
    assert!(
        ctx.failure_injector().is_drained(),
        "both armed injections must have fired"
    );
    assert_eq!(delta.executors_lost, 1, "{delta:?}");
    assert_eq!(
        delta.task_retries, 1,
        "the injected failure is charged as a retry, not an executor-loss \
         replay: {delta:?}"
    );
}

/// A permanently poisoned job — every resubmission is answered by another
/// executor kill — exhausts its resubmission budget and aborts cleanly
/// instead of looping, leaving no shuffle bytes resident.
#[test]
fn exhausted_resubmission_budget_aborts_the_job_cleanly() {
    let ctx = SpangleContext::builder()
        .executors(1)
        .max_resubmissions(3)
        .build();
    let reduced = ctx
        .parallelize((0u64..40).map(|i| (i % 4, i)).collect(), 1)
        .reduce_by_key(Arc::new(HashPartitioner::new(1)), |a, b| a + b);
    // Four kills: the initial attempt plus one per budgeted resubmission,
    // so the fourth `ExecutorLost` finds the budget empty.
    for _ in 0..4 {
        ctx.failure_injector().kill_executor_after(0, 1);
    }
    let err = reduced.collect().unwrap_err();
    let report = ctx
        .job_reports()
        .into_iter()
        .find(|r| r.job_id == err.job_id)
        .expect("aborted job report");
    assert_eq!(report.outcome, JobOutcome::Aborted);
    let snap = ctx.metrics_snapshot();
    assert_eq!(snap.executors_lost, 4);
    assert!(
        ctx.failure_injector().is_drained(),
        "every armed kill must have fired"
    );
    assert_eq!(
        ctx.shuffle_resident_bytes(),
        0,
        "the abort must leave no partial shuffle output resident"
    );
}

/// Killing an executor also drops the cached partitions it computed; the
/// next action silently recomputes them from lineage (and only them).
#[test]
fn killed_executors_cached_partitions_recompute_from_lineage() {
    let ctx = SpangleContext::new(2);
    let data: Vec<u64> = (0..100).collect();
    let rdd = ctx.parallelize(data.clone(), 2).map(|x| x * 3);
    rdd.persist();
    assert_eq!(rdd.count().unwrap(), 100);
    let cached_before = ctx.cached_bytes();
    assert!(cached_before > 0);

    let loss = ctx.kill_executor(0);
    assert_eq!(loss.cached_partitions_dropped, 1);
    assert!(loss.cached_bytes_dropped > 0);
    assert!(ctx.cached_bytes() < cached_before);

    let before = ctx.metrics_snapshot();
    let out = sorted(rdd.collect().unwrap());
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(out, data.iter().map(|x| x * 3).collect::<Vec<_>>());
    assert_eq!(delta.cache_misses, 1, "one partition recomputes: {delta:?}");
    assert_eq!(delta.cache_hits, 1, "the survivor is reused: {delta:?}");
    assert_eq!(ctx.cached_bytes(), cached_before, "re-cached after loss");
}

#[test]
fn executor_count_does_not_change_results() {
    let data: Vec<(u64, u64)> = (0..500).map(|i| (i % 17, i)).collect();
    let mut outputs = Vec::new();
    for executors in [1usize, 2, 7] {
        let ctx = SpangleContext::new(executors);
        let mut out = ctx
            .parallelize(data.clone(), 5)
            .reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a.max(b))
            .collect()
            .unwrap();
        out.sort();
        outputs.push(out);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
}

/// What one reduce partition's closure saw under
/// [`PairRdd::map_shuffled_partitions`]: per bucket, its records as
/// `(key, map partition that emitted it, payload)`.
type SeenBuckets = Vec<Vec<(u64, usize, u64)>>;

/// The by-reference reduce read: the closure meets the map side's own
/// records — not one clone between the commit and the closure — as one
/// slice per map partition, in map order, an empty slice where a map
/// partition had nothing for the reduce partition; and what it sees does
/// not depend on how many executors ran the reduce tasks.
#[test]
fn shuffled_partitions_are_read_in_place_in_map_order() {
    use spangle_dataflow::{MemSize, ModPartitioner};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CLONES: AtomicUsize = AtomicUsize::new(0);
    struct Counted {
        map: usize,
        payload: u64,
    }
    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, Ordering::SeqCst);
            Counted {
                map: self.map,
                payload: self.payload,
            }
        }
    }
    impl MemSize for Counted {
        fn mem_size(&self) -> usize {
            16
        }
    }

    const MAPS: usize = 3;
    const REDUCES: usize = 4;
    // Map partition 1 emits even keys only: its buckets for the odd reduce
    // partitions are empty.
    let emits = |map: usize, x: u64| map != 1 || x.is_multiple_of(2);
    let seen_by = |ctx: &SpangleContext| {
        let read = ctx
            .parallelize((0u64..60).collect(), MAPS)
            .map_partitions_with_index(move |map, xs| {
                xs.iter()
                    .filter(|x| emits(map, **x))
                    .map(|&x| (x % 8, Counted { map, payload: x }))
                    .collect()
            })
            .map_shuffled_partitions(Arc::new(ModPartitioner::new(REDUCES)), |buckets| {
                let seen: SeenBuckets = buckets
                    .iter()
                    .map(|bucket| bucket.iter().map(|(k, v)| (*k, v.map, v.payload)).collect())
                    .collect();
                vec![seen]
            });
        let first = read.collect().unwrap();
        // The map output is committed; a second action reads it again and
        // runs nothing of the map side.
        let clones_before = CLONES.load(Ordering::SeqCst);
        let before = ctx.metrics_snapshot();
        let second = read.collect().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.shuffle_write_bytes, 0, "the map stage was skipped");
        assert!(delta.shuffle_read_bytes > 0);
        assert_eq!(
            CLONES.load(Ordering::SeqCst),
            clones_before,
            "no record may be cloned between the commit and the closure"
        );
        assert_eq!(first, second);
        first
    };

    let seen = seen_by(&SpangleContext::new(2));
    assert_eq!(seen.len(), REDUCES, "one closure call per reduce partition");
    for (reduce, buckets) in seen.iter().enumerate() {
        assert_eq!(buckets.len(), MAPS, "one bucket per map partition");
        for (map, bucket) in buckets.iter().enumerate() {
            // 60 records over 3 map partitions: partition `map` holds
            // 20·map .. 20·(map + 1), emitted in ascending order.
            let expected: Vec<(u64, usize, u64)> = (20 * map as u64..20 * (map as u64 + 1))
                .filter(|x| emits(map, *x) && (x % 8) as usize % REDUCES == reduce)
                .map(|x| (x % 8, map, x))
                .collect();
            assert_eq!(bucket, &expected, "reduce {reduce}, bucket {map}");
        }
    }
    assert!(seen[1][1].is_empty() && seen[3][1].is_empty());
    assert!(!seen[1][0].is_empty() && !seen[1][2].is_empty());

    assert_eq!(seen_by(&SpangleContext::new(3)), seen);
}

/// The by-reference reader inherits fetch-failure recovery from the plain
/// shuffle it reads: an executor killed between the map stage and the
/// reduce surfaces as a typed `FetchFailed`, only its map partition is
/// recomputed, and the re-run bucket is back in its map-order slot.
#[test]
fn a_lost_map_output_under_the_by_reference_reader_reruns_only_that_map() {
    let ctx = SpangleContext::new(2);
    let read = ctx
        .parallelize((0u64..100).map(|i| (i % 4, i)).collect(), 2)
        .map_shuffled_partitions(Arc::new(HashPartitioner::new(2)), |buckets| {
            let sums: Vec<u64> = buckets
                .iter()
                .map(|bucket| bucket.iter().map(|(_, v)| v).sum())
                .collect();
            vec![sums]
        });
    let baseline = read.collect().unwrap();
    assert!(baseline.iter().all(|sums| sums.len() == 2));

    let s1 = ctx.metrics_snapshot();
    let loss = ctx.kill_executor(1);
    assert!(loss.shuffle_blocks_dropped >= 1);
    let recovered = read.collect().unwrap();
    let recovery = ctx.metrics_snapshot() - s1;
    assert_eq!(recovered, baseline, "bucket by bucket, in map order");
    assert!(recovery.fetch_failures >= 1, "{recovery:?}");
    assert_eq!(
        recovery.map_partitions_recomputed, 1,
        "only executor 1's map partition is recomputed: {recovery:?}"
    );
}
