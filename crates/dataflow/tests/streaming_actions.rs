//! The fold actions (`count`, `aggregate`, `reduce`) read a partition one
//! element at a time as the lineage produces it, and by reference where
//! the partition already exists as a block; `collect` still returns every
//! element in order. `PairRdd::map_values` moves what it maps.

use spangle_dataflow::rdd::sources::GeneratedRdd;
use spangle_dataflow::{
    HashPartitioner, MemSize, ModPartitioner, PairRdd, Partitioner, SpangleContext,
};
use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

thread_local! {
    /// `Live` values alive on this thread.
    static LIVE: Cell<usize> = const { Cell::new(0) };
}

/// A value that counts how many of its kind are alive on the thread that
/// holds them, +1 when built and −1 when dropped, and raises `high` to the
/// most it has seen. A task builds and folds its elements on its executor
/// thread, so `high` bounds what one task held at once.
struct Live {
    high: Arc<AtomicUsize>,
    value: u64,
}

impl Live {
    fn new(high: &Arc<AtomicUsize>, value: u64) -> Self {
        let live = LIVE.with(|live| {
            live.set(live.get() + 1);
            live.get()
        });
        high.fetch_max(live, Ordering::SeqCst);
        Live {
            high: Arc::clone(high),
            value,
        }
    }
}

impl Clone for Live {
    fn clone(&self) -> Self {
        Live::new(&self.high, self.value)
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        // A collected value is dropped on the driver thread.
        LIVE.with(|live| live.set(live.get().saturating_sub(1)));
    }
}

impl MemSize for Live {
    fn mem_size(&self) -> usize {
        8
    }
}

/// A value that counts its clones.
struct Counted {
    clones: Arc<AtomicUsize>,
    payload: u64,
}

impl Counted {
    fn new(clones: &Arc<AtomicUsize>, payload: u64) -> Self {
        Counted {
            clones: Arc::clone(clones),
            payload,
        }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::SeqCst);
        Counted::new(&self.clones, self.payload)
    }
}

impl PartialEq for Counted {
    fn eq(&self, other: &Self) -> bool {
        self.payload == other.payload
    }
}

impl Eq for Counted {}

impl Hash for Counted {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.payload.hash(state);
    }
}

impl MemSize for Counted {
    fn mem_size(&self) -> usize {
        16
    }
}

const MAPS: usize = 4;
const REDUCES: usize = 4;
const RECORDS: u64 = 256;

/// A reduce whose closure emits one `Live` per record it reads: 64 per
/// reduce partition.
fn emitting_reduce(ctx: &SpangleContext, high: &Arc<AtomicUsize>) -> spangle_dataflow::Rdd<Live> {
    let high = Arc::clone(high);
    ctx.parallelize((0..RECORDS).map(|i| (i % 8, i)).collect(), MAPS)
        .map_shuffled_partitions(
            Arc::new(ModPartitioner::new(REDUCES)),
            move |buckets, emit| {
                assert_eq!(buckets.iter().map(|b| b.len()).sum::<usize>(), 64);
                for bucket in buckets {
                    for &(_, v) in bucket.iter() {
                        emit(Live::new(&high, v));
                    }
                }
            },
        )
}

#[test]
fn fold_actions_hold_one_element_of_a_streamed_partition_at_a_time() {
    let ctx = SpangleContext::new(2);
    let high = Arc::new(AtomicUsize::new(0));
    let read = emitting_reduce(&ctx, &high);

    assert_eq!(read.count().unwrap(), RECORDS as usize);
    assert!(
        high.load(Ordering::SeqCst) <= 2,
        "count held {} elements",
        high.load(Ordering::SeqCst)
    );

    high.store(0, Ordering::SeqCst);
    let sum = read
        .aggregate(0u64, |acc, live| acc + live.value, |a, b| a + b)
        .unwrap();
    assert_eq!(sum, (0..RECORDS).sum::<u64>());
    assert!(
        high.load(Ordering::SeqCst) <= 2,
        "aggregate held {} elements",
        high.load(Ordering::SeqCst)
    );

    // A reduce returns the fold's value (the driver holds one per
    // partition as it merges them, so its count is not one task's).
    let reduce_high = Arc::clone(&high);
    let total = read
        .reduce(move |a, b| Live::new(&reduce_high, a.value + b.value))
        .unwrap();
    assert_eq!(
        total.map(|live| live.value),
        Some((0..RECORDS).sum::<u64>())
    );
}

#[test]
fn collect_still_returns_every_element_in_emission_order() {
    let ctx = SpangleContext::new(2);
    let high = Arc::new(AtomicUsize::new(0));
    let collected: Vec<u64> = emitting_reduce(&ctx, &high)
        .collect()
        .unwrap()
        .iter()
        .map(|live| live.value)
        .collect();
    // Reduce partitions in order; inside one, map partitions in order, each
    // in the order it emitted its records — ascending, as the map
    // partitions are contiguous ascending slices.
    let expected: Vec<u64> = (0..REDUCES as u64)
        .flat_map(|reduce| (0..RECORDS).filter(move |i| (i % 8) % REDUCES as u64 == reduce))
        .collect();
    assert_eq!(collected, expected);
}

#[test]
fn fold_actions_read_an_existing_block_by_reference() {
    let ctx = SpangleContext::new(2);
    let clones = Arc::new(AtomicUsize::new(0));
    let pairs: Vec<(u64, Counted)> = (0..64).map(|i| (i, Counted::new(&clones, i))).collect();
    let base = ctx.parallelize(pairs, 4);
    base.persist();
    base.count().unwrap();
    let view = base.assert_partitioned(Partitioner::<u64>::sig(&HashPartitioner::new(4)));

    let before = clones.load(Ordering::SeqCst);
    let hits = ctx.metrics_snapshot().cache_hits;
    assert_eq!(view.count().unwrap(), 64);
    let sum = view
        .aggregate(0u64, |acc, (_, c)| acc + c.payload, |a, b| a + b)
        .unwrap();
    assert_eq!(sum, (0..64).sum::<u64>());
    assert_eq!(
        clones.load(Ordering::SeqCst),
        before,
        "no element may be cloned"
    );
    assert_eq!(
        ctx.metrics_snapshot().cache_hits - hits,
        8,
        "both actions read the cache"
    );
}

#[test]
fn map_values_moves_keys_and_values_and_keeps_the_signature() {
    let ctx = SpangleContext::new(2);
    let clones = Arc::new(AtomicUsize::new(0));
    let sig = Partitioner::<u64>::sig(&HashPartitioner::new(2));
    let source_clones = Arc::clone(&clones);
    let pairs = GeneratedRdd::create(&ctx, 2, move |p| {
        (0..16u64)
            .map(|i| {
                let key = Counted::new(&source_clones, p as u64 * 16 + i);
                (key, Counted::new(&source_clones, i))
            })
            .collect()
    })
    .assert_partitioned(sig);
    let mapped = pairs.map_values(|v| v.payload * 2);
    assert_eq!(mapped.partitioner_sig(), Some(sig));
    let sum = mapped
        .aggregate(0u64, |acc, (k, v)| acc + k.payload + v, |a, b| a + b)
        .unwrap();
    assert_eq!(sum, (0..32).sum::<u64>() + 2 * 2 * (0..16).sum::<u64>());
    assert_eq!(
        clones.load(Ordering::SeqCst),
        0,
        "map_values cloned a key or a value"
    );
}
