//! Every task is a duplicate candidate under default settings: a reduce
//! attempt that stalls without ticking progress is rescued by one
//! watchdog duplicate, whichever reduce partition it computes. The job
//! runs on a thread of its own so that a stall nobody rescues fails the
//! test instead of hanging it.

use spangle_dataflow::{HashPartitioner, PairRdd, SpangleContext};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A ceiling no rescued job comes near (a rescue takes one watchdog
/// interval plus a few polls): it only turns a hang into a failure.
const HANG_GUARD: Duration = Duration::from_secs(20);

#[test]
fn a_stalled_reduce_attempt_is_duplicated_in_every_partition() {
    let records: Vec<(u64, u64)> = (0..40u64).map(|i| (i % 8, i)).collect();
    let mut sums = BTreeMap::new();
    for &(k, v) in &records {
        *sums.entry(k).or_insert(0u64) += v;
    }
    let expected: Vec<(u64, u64)> = sums.into_iter().collect();

    for stalled in 0..4 {
        let (tx, rx) = mpsc::channel();
        let records = records.clone();
        // Owns the context: a stalled attempt nobody cancels would keep
        // its executor, and the context's teardown, waiting for ever, so
        // the thread is joined only once its result has arrived.
        let job = std::thread::spawn(move || {
            let ctx = SpangleContext::builder()
                .executors(2)
                .watchdog_interval(Duration::from_millis(100))
                .build();
            let before = ctx.metrics_snapshot();
            let reduced = ctx
                .parallelize(records, 4)
                .reduce_by_key(Arc::new(HashPartitioner::new(4)), |a, b| a + b);
            ctx.failure_injector()
                .stall_progress(reduced.id(), stalled, 1);
            let mut out = reduced.collect().expect("the job succeeds");
            out.sort();
            let _ = tx.send((out, ctx.metrics_snapshot() - before));
        });
        let (out, delta) = rx.recv_timeout(HANG_GUARD).unwrap_or_else(|err| {
            panic!("reduce partition {stalled} stalled and the job never finished: {err}")
        });
        job.join().expect("the job thread finished cleanly");
        assert_eq!(out, expected, "partition {stalled}");
        assert_eq!(
            (delta.watchdog_trips, delta.speculation_wins),
            (1, 1),
            "partition {stalled}: one trip, won by the duplicate: {delta:?}"
        );
    }
}
