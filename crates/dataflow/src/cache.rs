//! The block manager: cached (persisted) RDD partitions.
//!
//! `rdd.persist()` stores each computed partition the first time an action
//! needs it; later jobs reuse the block instead of recomputing the lineage.
//! Evicting a block (as a failure simulation, or for memory pressure)
//! silently falls back to lineage recomputation — the Spark fault-tolerance
//! contract the paper's iterative algorithms (PageRank, SGD) lean on.
//!
//! Every block is attributed to the executor incarnation
//! ([`BlockOrigin`]) that computed it; killing an executor
//! ([`crate::SpangleContext::kill_executor`]) discards its blocks via
//! [`BlockManager::discard_executor`] and the next access recomputes them,
//! exactly like a single-block eviction.
//!
//! Like the shuffle service, the cache keeps its blocks in a `TieredStore`
//! (`blockstore.rs`): under memory pressure cold partitions are demoted
//! to disk and a later `get` rehydrates them instead of recomputing lineage.
//! This slots a rung into the degradation ladder — resident hit, then disk
//! hit, then lineage recompute — so crossing the watermark costs IO before
//! it costs CPU. A spilled block whose file turns out torn simply misses
//! (returns `None`) and lineage recomputes it: the cache's usual contract.

use crate::blockstore::{Fetched, TieredStore};
use crate::executor::BlockOrigin;
use crate::spill::SpillStore;
use crate::{Data, SpangleContext};
use std::sync::Arc;

/// Key of a cached partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The persisted RDD.
    pub rdd_id: usize,
    /// Partition index.
    pub partition: usize,
}

/// In-memory store of persisted partitions with an on-disk spill tier.
#[derive(Default)]
pub struct BlockManager {
    blocks: TieredStore<CacheKey>,
}

impl BlockManager {
    /// A manager whose partitions spill into `spill`.
    pub(crate) fn new(spill: Arc<SpillStore>) -> Self {
        BlockManager {
            blocks: TieredStore::new(spill),
        }
    }

    /// Looks up a cached partition, downcasting to its element vector. A
    /// spilled partition is rehydrated transparently and keeps its spill
    /// file as a clean copy, so dropping it again writes nothing; a torn
    /// spill file reads as a miss (`None`) and the caller recomputes from
    /// lineage.
    pub fn get<T: Data>(&self, ctx: &SpangleContext, key: CacheKey) -> Option<Arc<Vec<T>>> {
        match self.blocks.get(ctx, &key) {
            Fetched::Hit { block, .. } => Some(
                block
                    .downcast::<Vec<T>>()
                    .expect("cached block type mismatch"),
            ),
            Fetched::Absent | Fetched::Torn => None,
        }
    }

    /// Stores a computed partition with its deep size in bytes, attributed
    /// to the executor incarnation that computed it. Cache deposits count
    /// against the memory watermark like shuffle deposits do.
    pub fn put<T: Data>(
        &self,
        ctx: &SpangleContext,
        key: CacheKey,
        data: Arc<Vec<T>>,
        bytes: usize,
        origin: BlockOrigin,
    ) {
        self.blocks.put_many(ctx, [(key, data, bytes)], origin);
    }

    /// Demotes resident partitions to the disk tier until roughly `need`
    /// resident bytes are freed, clean copies of rehydrated partitions
    /// first, then the least recently read. Returns the bytes freed. The
    /// context's watermark calls this on its own block manager; it is
    /// public for the `spill_tier` microbenchmark.
    pub fn spill_up_to(&self, ctx: &SpangleContext, need: usize) -> usize {
        self.blocks.spill_up_to(ctx, need)
    }

    /// Discards every cached partition the given executor produced (any
    /// incarnation), spilled ones included — a dead incarnation's data is
    /// stale on disk too. Returns `(partitions_dropped, bytes_dropped)`
    /// with logical record bytes for both tiers.
    pub fn discard_executor(&self, executor: usize) -> (usize, usize) {
        self.blocks.retain(|_, origin| !origin.lives_on(executor))
    }

    /// Removes one block (simulating executor loss of that partition).
    /// Returns true when a block was present.
    pub fn evict(&self, key: CacheKey) -> bool {
        self.blocks.remove(&key)
    }

    /// Removes every cached partition of an RDD (`unpersist`), returning
    /// how many blocks were dropped (so callers can charge the
    /// `partitions_evicted` metric).
    pub fn evict_rdd(&self, rdd_id: usize) -> usize {
        self.blocks.retain(|key, _| key.rdd_id != rdd_id).0
    }

    /// Number of cached blocks (both tiers).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total bytes of cached data resident in memory (O(1); spilled
    /// partitions freed their heap bytes and do not count).
    pub fn resident_bytes(&self) -> usize {
        self.blocks.resident_bytes()
    }

    /// Bytes currently held by the cache's on-disk spill tier (framed file
    /// sizes).
    pub fn disk_bytes(&self) -> usize {
        self.blocks.disk_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_evict_roundtrip() {
        let ctx = SpangleContext::new(1);
        let bm = BlockManager::default();
        let key = CacheKey {
            rdd_id: 3,
            partition: 1,
        };
        assert!(bm.get::<u64>(&ctx, key).is_none());
        bm.put(
            &ctx,
            key,
            Arc::new(vec![1u64, 2, 3]),
            24,
            BlockOrigin::DRIVER,
        );
        assert_eq!(*bm.get::<u64>(&ctx, key).unwrap(), vec![1, 2, 3]);
        assert_eq!(bm.resident_bytes(), 24);
        assert!(bm.evict(key));
        assert!(bm.get::<u64>(&ctx, key).is_none());
        assert!(!bm.evict(key));
        assert_eq!(bm.resident_bytes(), 0);
    }

    /// Four single-record partitions of `rdd_id`, produced alternately by
    /// executors 0 and 1.
    fn seed(ctx: &SpangleContext, bm: &BlockManager, rdd_id: usize) {
        for partition in 0..4 {
            bm.put(
                ctx,
                CacheKey { rdd_id, partition },
                Arc::new(vec![partition as u64]),
                8,
                BlockOrigin::executor(partition % 2, 0),
            );
        }
    }

    #[test]
    fn evict_rdd_removes_all_its_partitions() {
        let ctx = SpangleContext::new(2);
        let bm = BlockManager::default();
        seed(&ctx, &bm, 7);
        seed(&ctx, &bm, 8);
        assert_eq!(bm.evict_rdd(7), 4);
        assert_eq!(bm.num_blocks(), 4);
        assert_eq!(bm.evict_rdd(7), 0, "second eviction finds nothing");
        assert_eq!(bm.resident_bytes(), 32);
    }

    #[test]
    fn discard_executor_drops_only_its_partitions() {
        let ctx = SpangleContext::new(2);
        let bm = BlockManager::default();
        seed(&ctx, &bm, 2);
        assert_eq!(bm.discard_executor(1), (2, 16));
        assert_eq!(bm.num_blocks(), 2);
        for p in 0..4 {
            let key = CacheKey {
                rdd_id: 2,
                partition: p,
            };
            assert_eq!(bm.get::<u64>(&ctx, key).is_some(), p % 2 == 0);
        }
        assert_eq!(
            bm.discard_executor(5),
            (0, 0),
            "unknown executor is a no-op"
        );
    }

    /// The cache's reading of a torn spill file: a miss, so the caller
    /// recomputes from lineage — and the block is gone, not retried.
    #[test]
    fn a_torn_spill_file_reads_as_a_miss() {
        let ctx = SpangleContext::new(1);
        let spill = Arc::new(SpillStore::default());
        let bm = BlockManager::new(Arc::clone(&spill));
        seed(&ctx, &bm, 1);
        bm.spill_up_to(&ctx, usize::MAX);
        assert_eq!(bm.resident_bytes(), 0);
        spill.tear_files();
        let key = CacheKey {
            rdd_id: 1,
            partition: 0,
        };
        assert!(bm.get::<u64>(&ctx, key).is_none());
        assert_eq!(bm.num_blocks(), 3, "the torn block is dropped");
        assert!(bm.get::<u64>(&ctx, key).is_none());
    }
}
