//! Tiered-store integration tests: jobs forced under an artificially low
//! memory watermark must complete by demoting cold blocks to the disk
//! tier and rehydrating them on fetch — never by aborting — and the
//! answers must be bit-identical to an unconstrained run.

use spangle_dataflow::{submit_job, HashPartitioner, JobOutcome, PairRdd, SpangleContext};
use spangle_testkit::{run_cases, Rng};
use std::sync::Arc;
use std::time::Duration;

/// A tight watermark that any of the jobs below crosses many times over,
/// yet comfortably above any single shuffle block so forward progress
/// never wedges on one unspillable deposit.
const LOW_WATERMARK: usize = 16 * 1024;

fn low_watermark_ctx(executors: usize) -> SpangleContext {
    SpangleContext::builder()
        .executors(executors)
        .memory_high_watermark_bytes(LOW_WATERMARK)
        .build()
}

/// Random keyed records, then a two-stage reduce + join pipeline: enough
/// shuffle traffic that the watermark forces spills on the map side and
/// rehydrates on the reduce side.
fn shuffle_pipeline(
    ctx: &SpangleContext,
    records: Vec<(u64, u64)>,
    num_parts: usize,
) -> Vec<(u64, (u64, u64))> {
    let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_parts));
    let pairs = ctx.parallelize(records, num_parts);
    let sums = pairs.reduce_by_key(partitioner.clone(), |a, b| a + b);
    let maxes = pairs.reduce_by_key(partitioner.clone(), |a, b| a.max(b));
    let mut out = sums.join(&maxes, partitioner).collect().unwrap();
    out.sort();
    out
}

#[test]
fn forced_low_watermark_completes_via_spill_bit_identically() {
    run_cases(0x5B11_71E5, 6, |rng: &mut Rng| {
        let executors = rng.usize_in(2..5);
        let num_parts = executors * rng.usize_in(1..3);
        // High key cardinality: map-side combine barely shrinks the data,
        // so the shuffle really carries tens of KiB past a 16 KiB watermark.
        let num_keys = rng.u64_in(2_000..4_000);
        let records: Vec<(u64, u64)> = (0..rng.u64_in(4_000..8_000))
            .map(|_| (rng.u64_in(0..num_keys), rng.u64_in(0..1_000_000)))
            .collect();

        let expected =
            shuffle_pipeline(&SpangleContext::new(executors), records.clone(), num_parts);

        let ctx = low_watermark_ctx(executors);
        let got = shuffle_pipeline(&ctx, records, num_parts);
        assert_eq!(got, expected, "spilled run must be bit-identical");

        let snap = ctx.metrics_snapshot();
        assert!(snap.blocks_spilled > 0, "watermark never tripped: {snap:?}");
        assert!(
            snap.blocks_rehydrated > 0,
            "reduce side never read the disk tier: {snap:?}"
        );
        assert!(snap.spill_bytes > 0, "{snap:?}");
        assert!(snap.disk_resident_bytes > 0, "{snap:?}");
        // The recorded peak is taken after each deposit's spill sweep;
        // concurrent depositors can overlap inside the sweep window, so
        // allow that bounded overshoot but nothing unbounded.
        assert!(
            snap.memory_highwater_bytes < 2 * LOW_WATERMARK as u64,
            "resident peak never contained by spilling: {snap:?}"
        );
        let report = ctx.last_job_report().expect("job report");
        assert_eq!(report.outcome, JobOutcome::Succeeded);
        assert_eq!(
            (
                report.counts().blocks_spilled > 0 || report.counts().blocks_rehydrated > 0,
                snap.blocks_spilled > 0
            ),
            (true, true),
            "spill activity must surface in per-stage reports: {report}"
        );

        // Dropping every lineage handle runs shuffle GC, which must empty
        // the disk tier — spill files do not outlive their shuffle.
        drop(got);
        drop(ctx.last_job_report());
        assert_eq!(
            {
                // The ctx itself holds no lineage; all RDD handles died at
                // the end of shuffle_pipeline.
                ctx.disk_resident_bytes()
            },
            0,
            "shuffle GC must delete spill files"
        );
    });
}

#[test]
fn cached_partitions_round_trip_through_the_disk_tier() {
    let ctx = low_watermark_ctx(2);
    let cached = ctx
        .parallelize((0u64..20_000).collect(), 4)
        .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    cached.persist();
    let first = cached.collect().unwrap();

    // The materialised cache (~160 KiB) dwarfs the watermark, so most
    // partitions were demoted right after the put.
    let after_put = ctx.metrics_snapshot();
    assert!(after_put.blocks_spilled > 0, "{after_put:?}");
    assert!(ctx.cached_bytes() < LOW_WATERMARK + 4 * 1024);
    assert!(ctx.disk_resident_bytes() > 0);

    // A second action must serve every partition from the cache tiers —
    // rehydrating the spilled ones — and match exactly.
    let second = cached.collect().unwrap();
    assert_eq!(first, second, "rehydrated cache must be bit-identical");
    let delta = ctx.metrics_snapshot() - after_put;
    assert!(
        delta.blocks_rehydrated > 0,
        "second pass never touched the disk tier: {delta:?}"
    );
    assert_eq!(
        delta.recomputations, 0,
        "a spilled partition is a cache hit, not a lineage recompute: {delta:?}"
    );
    assert_eq!(delta.cache_misses, 0, "{delta:?}");

    cached.unpersist();
    assert_eq!(ctx.cached_bytes(), 0);
    assert_eq!(
        ctx.disk_resident_bytes(),
        0,
        "unpersist must clear both tiers"
    );
}

#[test]
fn spill_composes_with_executor_kills() {
    run_cases(0x5B11_0D1E, 4, |rng: &mut Rng| {
        let executors = rng.usize_in(2..4);
        let num_parts = executors * 2;
        let num_keys = rng.u64_in(1_000..2_000);
        let records: Vec<(u64, u64)> = (0..rng.u64_in(3_000..5_000))
            .map(|_| (rng.u64_in(0..num_keys), rng.u64_in(0..1_000_000)))
            .collect();
        let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_parts));
        let victim = rng.usize_in(0..executors);

        let run = |ctx: &SpangleContext, kill: bool| {
            let pairs = ctx.parallelize(records.clone(), num_parts);
            let sums = pairs.reduce_by_key(partitioner.clone(), |a, b| a + b);
            sums.persist();
            sums.count().unwrap();
            if kill {
                // The kill lands after the map outputs (some of them
                // spilled) are committed: recovery must discard the dead
                // incarnation's blocks in *both* tiers and recompute from
                // lineage, never rehydrate a stale spill file.
                ctx.kill_executor(victim);
            }
            let mut out = sums
                .join(
                    &pairs.reduce_by_key(partitioner.clone(), |a, b| a ^ b),
                    partitioner.clone(),
                )
                .collect()
                .unwrap();
            out.sort();
            out
        };

        let expected = run(&SpangleContext::new(executors), false);

        let ctx = SpangleContext::builder()
            .executors(executors)
            .memory_high_watermark_bytes(LOW_WATERMARK)
            .max_resubmissions(10_000)
            .build();
        let got = run(&ctx, true);
        assert_eq!(got, expected, "kill + spill recovery must be bit-identical");
        let snap = ctx.metrics_snapshot();
        assert!(snap.blocks_spilled > 0, "{snap:?}");
        assert_eq!(snap.executors_lost, 1, "{snap:?}");
    });
}

#[test]
fn spill_speculation_and_kills_overlap_without_corruption() {
    run_cases(0x5B11_C405, 4, |rng: &mut Rng| {
        let executors = rng.usize_in(2..4);
        let num_parts = executors * 2;
        let num_keys = rng.u64_in(800..1_500);
        let records: Vec<(u64, u64)> = (0..rng.u64_in(2_000..3_000))
            .map(|_| (rng.u64_in(0..num_keys), rng.u64_in(0..1_000_000)))
            .collect();
        let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_parts));
        let stall_part = rng.usize_in(0..num_parts);
        let victim = rng.usize_in(0..executors);

        let run = |ctx: &SpangleContext, chaos: bool| {
            let pairs = ctx.parallelize(records.clone(), num_parts);
            let reduced = pairs.reduce_by_key(partitioner.clone(), |a, b| a + b);
            if chaos {
                // One stalled map task (resolved by the watchdog's duplicate,
                // whose commit must lose cleanly if the original already
                // won — or win and see its rival's spilled block ignored)
                // racing an armed executor kill.
                ctx.failure_injector()
                    .stall_progress(pairs.id(), stall_part, 1);
                ctx.failure_injector().kill_executor_after(victim, 1);
            }
            let mut out = reduced.collect().unwrap();
            out.sort();
            out
        };

        let expected = run(&SpangleContext::new(executors), false);

        let ctx = SpangleContext::builder()
            .executors(executors)
            .memory_high_watermark_bytes(LOW_WATERMARK)
            .watchdog_interval(Duration::from_millis(100))
            .coalesce_partitions(false)
            .max_resubmissions(10_000)
            .build();
        let got = run(&ctx, true);
        assert_eq!(
            got, expected,
            "spill + duplicate + kill must stay bit-identical"
        );
        assert!(ctx.failure_injector().is_drained());
        let snap = ctx.metrics_snapshot();
        assert!(snap.blocks_spilled > 0, "{snap:?}");
    });
}

/// Bugfix regression: blocks of zero-byte-encoded elements never
/// rehydrated — the codec's count prefix was refused for exceeding the
/// (empty) remaining input, every spilled block read back as torn, and
/// the job aborted on `FetchFailed` instead of finishing.
#[test]
fn blocks_of_zero_byte_elements_survive_the_spill_tier() {
    let run = |ctx: &SpangleContext| {
        ctx.parallelize(vec![((), ()); 64], 4)
            .group_by_key(Arc::new(HashPartitioner::new(2)))
            .collect()
            .expect("the job must not abort")
    };
    let expected = run(&SpangleContext::new(2));
    assert_eq!(expected, vec![((), vec![(); 64])]);

    let ctx = SpangleContext::builder()
        .executors(2)
        .memory_high_watermark_bytes(1)
        .build();
    assert_eq!(run(&ctx), expected);
    let snap = ctx.metrics_snapshot();
    assert!(snap.blocks_spilled > 0, "{snap:?}");
    assert!(snap.blocks_rehydrated > 0, "{snap:?}");
    assert_eq!(snap.fetch_failures, 0, "{snap:?}");
}

/// A read-once shuffle under a watermark a third of its volume writes each
/// block at most once and reads it back at most once: a rehydrated block
/// keeps its file as a clean copy, so making room again costs no encode.
/// Before clean copies this job wrote 27 blocks for the 16 it deposited:
/// each rehydration made room by encoding a block again.
#[test]
fn a_read_once_shuffle_writes_and_reads_each_block_at_most_once() {
    const MAPS: u64 = 4;
    const REDUCES: u64 = 4;
    // 2 048 records of 16 bytes: 32 KiB a bucket, 512 KiB a shuffle.
    const PER_BUCKET: u64 = 2_048;
    let run = |ctx: &SpangleContext| {
        let records: Vec<(u64, u64)> = (0..MAPS * REDUCES * PER_BUCKET)
            .map(|i| (i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let mut out = ctx
            .parallelize(records, MAPS as usize)
            .partition_by(Arc::new(HashPartitioner::new(REDUCES as usize)))
            .collect()
            .unwrap();
        out.sort();
        out
    };
    let expected = run(&SpangleContext::builder().executors(1).build());

    let ctx = SpangleContext::builder()
        .executors(1)
        .memory_high_watermark_bytes(((MAPS * REDUCES * PER_BUCKET * 16) / 3) as usize)
        .build();
    assert_eq!(run(&ctx), expected, "spilled run must be bit-identical");
    let snap = ctx.metrics_snapshot();
    assert!(snap.blocks_rehydrated > 0, "{snap:?}");
    assert!(
        snap.blocks_spilled <= MAPS * REDUCES,
        "a block was written twice: {snap:?}"
    );
    assert!(
        snap.blocks_rehydrated <= snap.blocks_spilled,
        "a block was read back twice: {snap:?}"
    );
}

/// ROADMAP 4(b)'s cache tier under a scan: a persisted RDD four times the
/// watermark, counted twice. The second scan reads every spilled partition
/// back from disk and makes room by dropping the clean copies it just
/// read — it writes nothing. Before clean copies it re-encoded a partition
/// for each one it read.
#[test]
fn a_second_scan_of_a_spilled_cache_writes_nothing() {
    // Six 16 KiB partitions against a 24 KiB watermark: every deposit past
    // the first demotes the one before it, leaving one partition resident.
    let ctx = SpangleContext::builder()
        .executors(1)
        .memory_high_watermark_bytes(24 * 1024)
        .build();
    let cached = ctx
        .parallelize((0u64..6 * 2_048).collect(), 6)
        .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    cached.persist();
    assert_eq!(cached.count().unwrap(), 6 * 2_048);
    let after_first = ctx.metrics_snapshot();
    assert!(after_first.blocks_spilled > 0, "{after_first:?}");

    assert_eq!(cached.count().unwrap(), 6 * 2_048);
    let second = ctx.metrics_snapshot() - after_first;
    assert!(second.blocks_rehydrated > 0, "{second:?}");
    assert_eq!(
        (second.spill_bytes, second.blocks_spilled),
        (0, 0),
        "the second scan re-wrote what it read: {second:?}"
    );
    assert_eq!(second.cache_misses, 0, "{second:?}");

    cached.unpersist();
    assert_eq!(ctx.disk_resident_bytes(), 0);
}

/// The watermark means "spill above here" and nothing more: resident
/// bytes that cannot spill do not hold back later jobs. `&'static str`
/// has no spill codec, so the persisted records below stay resident above
/// the watermark for good — a later job that waited for memory to drain
/// would wait forever, its driver blocked inside the very action that
/// could free it.
#[test]
fn unspillable_residency_above_the_watermark_does_not_hold_back_later_jobs() {
    let ctx = SpangleContext::builder()
        .executors(2)
        .memory_high_watermark_bytes(1024)
        .build();
    let pinned = ctx.parallelize((0u64..256).map(|i| (i, "pinned")).collect(), 2);
    pinned.persist();
    assert_eq!(pinned.count().unwrap(), 256);
    assert!(ctx.cached_bytes() >= 1024, "{} B", ctx.cached_bytes());

    let rdd = ctx.parallelize((0u64..8).collect(), 2);
    let mut job = submit_job(&rdd, |_, data: Arc<Vec<u64>>| data.len());
    let counts = job
        .wait_timeout(Duration::from_secs(5))
        .map(|outcome| outcome.expect("the job must not abort"));
    assert_eq!(counts, Some(vec![4, 4]), "a job waited on memory");
}
