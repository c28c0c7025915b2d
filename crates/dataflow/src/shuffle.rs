//! The in-memory shuffle service.
//!
//! A shuffle moves every record of a pair RDD from the executor that
//! computed it (the *map* side) to the executor that owns its key's reduce
//! partition. This service plays the role of Spark's shuffle
//! write/fetch path: map tasks deposit per-reduce-partition buckets, reduce
//! tasks fetch them, and every byte that logically crosses the network is
//! charged to the metrics.
//!
//! Besides block storage, the service is the arbiter of *map-stage
//! ownership*. Concurrent jobs (or sibling stages of one job) may share a
//! shuffle dependency; `is_completed`-then-run was a check-then-act race
//! that could run the same map stage twice. Schedulers now
//! [`ShuffleService::try_claim`] a shuffle: exactly one caller becomes the
//! owner and runs the stage, everyone else either reuses the completed
//! output or registers a completion callback via
//! [`ShuffleService::subscribe`]. Subscription is checked under the same
//! lock as the stage state, so a callback can never be lost to a
//! check-then-subscribe race — it fires immediately when the stage is
//! already resolved, and exactly once from
//! [`ShuffleService::mark_completed`] / [`ShuffleService::abandon`]
//! otherwise. No thread ever parks inside the service on behalf of a
//! scheduler: stage readiness is event-driven end to end.
//!
//! The service is also executor-loss aware. Every block is attributed to
//! the executor incarnation ([`BlockOrigin`]) that produced it, and every
//! map task registers its output — even an all-empty one — in a
//! per-shuffle registry ([`ShuffleService::register_map_output`]). When an
//! executor dies, [`ShuffleService::discard_executor`] drops its blocks
//! and registrations; a reduce task that later fetches a block whose map
//! output is no longer registered panics with a typed
//! [`FetchFailedError`] instead of silently reading an empty bucket. The
//! scheduler catches that panic, claims the *recovery* of the shuffle
//! ([`ShuffleService::claim_recovery`] — the re-run analogue of
//! [`ShuffleService::try_claim`]) and resubmits only the missing map
//! partitions from lineage.
//!
//! Block storage itself — the resident and spilled tiers, byte accounting,
//! LRU spilling and rehydration — is one `TieredStore` (`blockstore.rs`)
//! keyed by [`BlockId`]; this service adds what a *lost* block means: a
//! torn spill file or a discarded executor unregisters the map output,
//! and the next fetch fails typed.

use crate::blockstore::{Fetched, TieredStore};
use crate::executor::BlockOrigin;
use crate::metrics::MetricField;
use crate::spill::SpillStore;
use crate::sync::{Mutex, Subscribers};
use crate::{Data, SpangleContext};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Key of one shuffle block: output of map partition `map_id` destined for
/// reduce partition `reduce_id` of shuffle `shuffle_id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockId {
    /// The shuffle this block belongs to.
    pub shuffle_id: usize,
    /// Map-side partition that produced the block.
    pub map_id: usize,
    /// Reduce-side partition the block is destined for.
    pub reduce_id: usize,
}

/// A one-shot completion callback: `true` means the map stage completed,
/// `false` that its owner abandoned it (or the shuffle was removed).
pub type ShuffleCallback = Box<dyn FnOnce(bool) + Send>;

/// Map-stage progress of one shuffle.
enum MapStageState {
    /// Some job claimed the map stage and is running it; `waiters` fire
    /// when it resolves.
    InFlight { waiters: Subscribers<bool> },
    /// The map stage ran to completion with this many map partitions.
    Completed { num_maps: usize },
}

/// Panic payload raised by [`ShuffleService::fetch_block`] when the block's
/// map output was lost after the map stage completed (the executor that
/// produced it died). The scheduler downcasts this out of the task panic
/// and turns it into [`crate::TaskError::FetchFailed`], which triggers
/// lineage-based resubmission of exactly the missing map partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchFailedError {
    /// Shuffle whose map output is gone.
    pub shuffle_id: usize,
    /// Map partition whose output is missing.
    pub map_id: usize,
}

/// Outcome of [`ShuffleService::claim_recovery`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryClaim {
    /// The caller owns the recovery and must re-run exactly the `missing`
    /// map partitions, then [`ShuffleService::mark_completed`] (or
    /// [`ShuffleService::abandon`]) the stage again. Surviving partitions'
    /// blocks and registrations are kept.
    Owner {
        /// Map partitions whose output must be recomputed, ascending.
        missing: Vec<usize>,
    },
    /// Another scheduler is already re-running the map stage; register a
    /// callback with [`ShuffleService::subscribe`].
    InFlight,
    /// Every map partition is registered again (someone else already
    /// recovered the shuffle); the caller can re-fetch immediately.
    Recovered,
}

/// Outcome of [`ShuffleService::try_claim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShuffleClaim {
    /// The caller now owns the map stage and must run it, then call
    /// [`ShuffleService::mark_completed`] or [`ShuffleService::abandon`].
    Owner,
    /// The map stage already ran; its output can be read immediately.
    Completed,
    /// Another scheduler is running the map stage right now; register a
    /// callback with [`ShuffleService::subscribe`] (or block on
    /// [`ShuffleService::wait_finished`]).
    InFlight,
}

/// Stores shuffle blocks between stages and tracks map-stage ownership.
#[derive(Default)]
pub struct ShuffleService {
    blocks: TieredStore<BlockId>,
    /// Per-shuffle map-stage state; absent means "never run, unclaimed".
    stages: Mutex<HashMap<usize, MapStageState>>,
    /// Per-shuffle registry of which executor incarnation produced each map
    /// partition's output. A map task registers here even when every bucket
    /// it produced was empty, so "block absent but map registered" means an
    /// empty bucket while "absent and unregistered" means the output was
    /// lost with its executor.
    outputs: Mutex<HashMap<usize, HashMap<usize, BlockOrigin>>>,
    /// Shuffles torn down by [`ShuffleService::remove_shuffle`] (lineage
    /// GC). A fetch against a tombstoned shuffle fails typed instead of
    /// reading an empty bucket: "never had stage state" (test-seeded) and
    /// "had state, then removed" are different answers. Ids are
    /// context-monotone and never reused, so the set only grows — one
    /// `usize` per GC'd shuffle over the context's life.
    removed: Mutex<HashSet<usize>>,
}

impl ShuffleService {
    /// A service whose blocks spill into `spill`.
    pub(crate) fn new(spill: Arc<SpillStore>) -> Self {
        ShuffleService {
            blocks: TieredStore::new(spill),
            stages: Mutex::default(),
            outputs: Mutex::default(),
            removed: Mutex::default(),
        }
    }

    /// Deposits the bucket for one (map, reduce) pair. `bytes` is the deep
    /// size of the records, charged as shuffle write volume.
    ///
    /// A deposit from a dead executor incarnation (killed while the map
    /// task was running) is silently dropped — its blocks were already
    /// discarded and the task's attempt is being replayed elsewhere, so
    /// accepting the stale write would interleave two attempts' output.
    ///
    /// A deposit for a (shuffle, map) pair already registered by a
    /// *different live* incarnation is also refused: that map partition has
    /// a committed winner (see [`ShuffleService::commit_map_output`]'s
    /// first-write-wins rule), and a late speculative loser writing through
    /// this legacy path must not overwrite the winner's blocks. Deposits
    /// from the registered origin itself remain allowed (recovery re-seeds
    /// and put-then-register callers).
    pub fn put_block<T: Data>(
        &self,
        ctx: &SpangleContext,
        id: BlockId,
        records: Vec<T>,
        bytes: usize,
        origin: BlockOrigin,
    ) {
        if !ctx.inner.pool.origin_is_live(origin) {
            return;
        }
        if let Some(winner) = self
            .outputs
            .lock()
            .get(&id.shuffle_id)
            .and_then(|maps| maps.get(&id.map_id))
        {
            if *winner != origin && ctx.inner.pool.origin_is_live(*winner) {
                return;
            }
        }
        ctx.metrics()
            .add(MetricField::ShuffleWriteBytes, bytes as u64);
        ctx.metrics()
            .add(MetricField::ShuffleRecords, records.len() as u64);
        self.blocks
            .put_many(ctx, [(id, Arc::new(records), bytes)], origin);
    }

    /// Records that map partition `map_id` of `shuffle_id` deposited all
    /// its (possibly empty) buckets. Every map task calls this once at the
    /// end, so [`ShuffleService::fetch_block`] can tell a legitimately
    /// empty bucket from one lost with its executor. Registrations from a
    /// dead incarnation are dropped like stale block deposits.
    pub fn register_map_output(
        &self,
        ctx: &SpangleContext,
        shuffle_id: usize,
        map_id: usize,
        origin: BlockOrigin,
    ) {
        if !ctx.inner.pool.origin_is_live(origin) {
            return;
        }
        self.outputs
            .lock()
            .entry(shuffle_id)
            .or_default()
            .insert(map_id, origin);
    }

    /// Atomically deposits *all* buckets of one map task and registers its
    /// output, first-write-wins. Under speculative execution two attempts
    /// of the same map partition race; whichever commits first installs
    /// its complete bucket set, and the loser's deposit is refused as a
    /// unit so two attempts' output can never interleave. Returns whether
    /// this attempt won.
    ///
    /// A commit loses when the (shuffle, map) pair is already registered
    /// by a live incarnation, or when the depositing incarnation itself is
    /// dead (killed mid-task — same rule as [`ShuffleService::put_block`]).
    /// Losing commits charge no shuffle-write volume.
    pub fn commit_map_output<T: Data>(
        &self,
        ctx: &SpangleContext,
        shuffle_id: usize,
        map_id: usize,
        buckets: Vec<(usize, Vec<T>, usize)>,
        origin: BlockOrigin,
    ) -> bool {
        if !ctx.inner.pool.origin_is_live(origin) {
            return false;
        }
        let mut outputs = self.outputs.lock();
        let maps = outputs.entry(shuffle_id).or_default();
        if let Some(existing) = maps.get(&map_id) {
            if ctx.inner.pool.origin_is_live(*existing) {
                return false;
            }
        }
        maps.insert(map_id, origin);
        let mut total_bytes = 0u64;
        let mut total_records = 0u64;
        let deposits = buckets.into_iter().map(|(reduce_id, records, bytes)| {
            total_bytes += bytes as u64;
            total_records += records.len() as u64;
            let id = BlockId {
                shuffle_id,
                map_id,
                reduce_id,
            };
            (id, Arc::new(records), bytes)
        });
        // Still under the registry lock: registration and blocks appear
        // (and are discarded with their executor) as one unit.
        self.blocks.put_many(ctx, deposits, origin);
        drop(outputs);
        ctx.metrics()
            .add(MetricField::ShuffleWriteBytes, total_bytes);
        ctx.metrics()
            .add(MetricField::ShuffleRecords, total_records);
        true
    }

    /// Fetches one bucket, charging shuffle read volume. Returns a shared
    /// handle to the bucket's records — reduce tasks iterate the `Arc`
    /// without cloning the underlying vector. Returns an empty block when
    /// the map task produced nothing for this reduce partition. A spilled
    /// block is rehydrated (read back, verified, reinstated resident)
    /// transparently.
    ///
    /// # Panics
    ///
    /// Panics with a [`FetchFailedError`] payload when the block is absent
    /// *and* its map partition is not registered for a shuffle whose map
    /// stage ran — or whose state was torn down by
    /// [`ShuffleService::remove_shuffle`]: the output existed and was lost
    /// (executor death, lineage GC, or a corrupt spill file), so the
    /// caller must not treat it as empty. The scheduler converts this
    /// panic into [`crate::TaskError::FetchFailed`] and recovers.
    pub fn fetch_block<T: Data>(&self, ctx: &SpangleContext, id: BlockId) -> Arc<Vec<T>> {
        match self.blocks.get(ctx, &id) {
            Fetched::Hit { block, bytes } => {
                ctx.metrics()
                    .add(MetricField::ShuffleReadBytes, bytes as u64);
                return block.downcast::<Vec<T>>().expect(
                    "shuffle block type mismatch: reduce side fetched a different \
                     type than the map side wrote",
                );
            }
            Fetched::Torn => {
                // The spill file is torn or unreadable: the block is gone
                // for real. Drop its registration so this surfaces exactly
                // like executor loss — typed, recoverable from lineage —
                // instead of decoding garbage.
                if let Some(maps) = self.outputs.lock().get_mut(&id.shuffle_id) {
                    maps.remove(&id.map_id);
                }
                std::panic::panic_any(FetchFailedError {
                    shuffle_id: id.shuffle_id,
                    map_id: id.map_id,
                });
            }
            Fetched::Absent => {}
        }
        // Absent. Registered-but-absent is a genuinely empty bucket.
        let registered = self
            .outputs
            .lock()
            .get(&id.shuffle_id)
            .is_some_and(|maps| maps.contains_key(&id.map_id));
        if registered {
            return Arc::new(Vec::new());
        }
        // Unregistered: a tombstoned shuffle (lineage GC beat this fetch)
        // or one whose map stage ran fails typed; a shuffle that never had
        // stage state at all is a test-seeded block map — keep the
        // historical empty-fetch behavior for those.
        let removed = self.removed.lock().contains(&id.shuffle_id);
        if removed || self.stages.lock().contains_key(&id.shuffle_id) {
            std::panic::panic_any(FetchFailedError {
                shuffle_id: id.shuffle_id,
                map_id: id.map_id,
            });
        }
        Arc::new(Vec::new())
    }

    /// Demotes cold resident blocks to the disk tier until roughly `need`
    /// resident bytes are freed; see [`TieredStore::spill_up_to`].
    pub(crate) fn spill_up_to(&self, ctx: &SpangleContext, need: usize) -> usize {
        self.blocks.spill_up_to(ctx, need)
    }

    /// Atomically claims the map stage of `shuffle_id`. At most one caller
    /// is ever told [`ShuffleClaim::Owner`] per run of the stage; the
    /// owner must finish with [`ShuffleService::mark_completed`] (success)
    /// or [`ShuffleService::abandon`] (job abort) so waiters wake up.
    pub fn try_claim(&self, shuffle_id: usize) -> ShuffleClaim {
        let mut stages = self.stages.lock();
        match stages.get(&shuffle_id) {
            Some(MapStageState::Completed { .. }) => ShuffleClaim::Completed,
            Some(MapStageState::InFlight { .. }) => ShuffleClaim::InFlight,
            None => {
                stages.insert(
                    shuffle_id,
                    MapStageState::InFlight {
                        waiters: Subscribers::new(),
                    },
                );
                ShuffleClaim::Owner
            }
        }
    }

    /// Registers a one-shot callback on the map stage of `shuffle_id`.
    ///
    /// The state check and registration happen under one lock, so a
    /// callback can never miss its notification: if the stage is already
    /// `Completed` the callback fires immediately with `true`; if it is
    /// unclaimed (never run, or abandoned) it fires immediately with
    /// `false` (the caller should [`ShuffleService::try_claim`]); if it is
    /// in flight, the callback fires exactly once when the owner
    /// [`ShuffleService::mark_completed`]s (`true`) or
    /// [`ShuffleService::abandon`]s (`false`) the stage.
    ///
    /// Callbacks run on whatever thread resolves the stage (an executor
    /// or another job's driver) and must not block; schedulers send an
    /// event into their own channel.
    pub fn subscribe(&self, shuffle_id: usize, callback: ShuffleCallback) {
        let mut stages = self.stages.lock();
        match stages.get_mut(&shuffle_id) {
            Some(MapStageState::InFlight { waiters }) => {
                waiters.push(callback);
            }
            Some(MapStageState::Completed { .. }) => {
                drop(stages);
                callback(true);
            }
            None => {
                drop(stages);
                callback(false);
            }
        }
    }

    /// Marks the map stage of `shuffle_id` complete with `num_maps` map
    /// partitions, firing any subscribed callbacks. Callable with or
    /// without a prior claim (tests seed completed shuffles directly).
    ///
    /// Validates the deposit against the map-output registry and returns
    /// the map partitions that never registered, ascending. Non-empty
    /// means some output is already gone — typically because the executor
    /// that ran those maps died after finishing them but before the stage
    /// closed. The first reduce task to touch a missing partition raises
    /// [`FetchFailedError`] and the scheduler recovers, so callers may
    /// ignore the list; tests that seed completions without deposits get
    /// the full range back.
    pub fn mark_completed(&self, shuffle_id: usize, num_maps: usize) -> Vec<usize> {
        let mut stages = self.stages.lock();
        let previous = stages.insert(shuffle_id, MapStageState::Completed { num_maps });
        let missing = self.missing_maps(shuffle_id, num_maps);
        drop(stages);
        if let Some(MapStageState::InFlight { waiters }) = previous {
            waiters.fire(true);
        }
        missing
    }

    /// Releases an [`ShuffleClaim::Owner`] claim without completing the
    /// stage (the owning job aborted). Subscribed callbacks fire with
    /// `false` and their schedulers race to re-claim.
    ///
    /// Any partial map output the aborted attempt already deposited is
    /// dropped with the claim — both tiers: leaving it resident would leak
    /// `resident_bytes` (and spill files) until shuffle GC, and a
    /// re-claiming owner would interleave its fresh blocks with the
    /// aborted attempt's stale ones. The shuffle is *not* tombstoned: a
    /// re-claim runs the stage again from scratch, so later fetches are
    /// legitimate.
    pub fn abandon(&self, shuffle_id: usize) {
        let mut stages = self.stages.lock();
        let abandoned = match stages.get(&shuffle_id) {
            Some(MapStageState::InFlight { .. }) => stages.remove(&shuffle_id),
            _ => None,
        };
        drop(stages);
        if let Some(MapStageState::InFlight { waiters }) = abandoned {
            self.outputs.lock().remove(&shuffle_id);
            self.drop_blocks_of(shuffle_id);
            waiters.fire(false);
        }
    }

    /// Drops every block (either tier) of one shuffle, releasing resident
    /// bytes and spill files.
    fn drop_blocks_of(&self, shuffle_id: usize) {
        self.blocks.retain(|id, _| id.shuffle_id != shuffle_id);
    }

    /// Blocks until the map stage of `shuffle_id` is no longer in flight.
    /// Returns `true` when it completed, `false` when the owner abandoned
    /// it (the caller should [`ShuffleService::try_claim`] again).
    ///
    /// This is [`ShuffleService::subscribe`] plus a channel for callers
    /// that genuinely have nothing else to do; the scheduler itself never
    /// blocks here.
    pub fn wait_finished(&self, shuffle_id: usize) -> bool {
        let (tx, rx) = crate::sync::channel::unbounded();
        self.subscribe(
            shuffle_id,
            Box::new(move |completed| {
                let _ = tx.send(completed);
            }),
        );
        rx.recv().unwrap_or(false)
    }

    /// Whether the map stage of `shuffle_id` already ran.
    pub fn is_completed(&self, shuffle_id: usize) -> bool {
        matches!(
            self.stages.lock().get(&shuffle_id),
            Some(MapStageState::Completed { .. })
        )
    }

    /// Drops all blocks and completion state of one shuffle. Called when
    /// the owning dependency is garbage-collected so iterative jobs do not
    /// accumulate dead shuffle outputs. Any callbacks still subscribed
    /// (there should be none by GC time) fire with `false`.
    ///
    /// The shuffle id is tombstoned: a straggling reduce fetch arriving
    /// after GC raises [`FetchFailedError`] instead of silently reading an
    /// empty bucket (its data *existed* — it is gone, not empty).
    pub fn remove_shuffle(&self, shuffle_id: usize) {
        let removed = self.stages.lock().remove(&shuffle_id);
        let had_state = removed.is_some();
        if let Some(MapStageState::InFlight { waiters }) = removed {
            waiters.fire(false);
        }
        if had_state {
            self.removed.lock().insert(shuffle_id);
        }
        self.outputs.lock().remove(&shuffle_id);
        self.drop_blocks_of(shuffle_id);
    }

    /// Drops every block and map-output registration produced by the given
    /// executor (any incarnation), across all shuffles. Called when an
    /// executor is killed. Returns `(blocks_dropped, bytes_dropped)`,
    /// counting logical record bytes for blocks of both tiers — a spilled
    /// block of a dead incarnation is deleted from disk, never rehydrated:
    /// its producer's epoch is retired, so its data is as stale as a
    /// resident block's would be.
    ///
    /// Completion state is deliberately left alone: a shuffle stays
    /// `Completed` with holes, and the holes surface as
    /// [`FetchFailedError`] on the next fetch so recovery is driven by the
    /// jobs that actually need the data.
    pub fn discard_executor(&self, executor: usize) -> (usize, usize) {
        for maps in self.outputs.lock().values_mut() {
            maps.retain(|_, origin| !origin.lives_on(executor));
        }
        self.blocks.retain(|_, origin| !origin.lives_on(executor))
    }

    /// Map partitions of `shuffle_id` with no registered output, ascending.
    fn missing_maps(&self, shuffle_id: usize, num_maps: usize) -> Vec<usize> {
        let outputs = self.outputs.lock();
        let maps = outputs.get(&shuffle_id);
        (0..num_maps)
            .filter(|m| !maps.is_some_and(|maps| maps.contains_key(m)))
            .collect()
    }

    /// Atomically claims the *recovery* of a shuffle whose completed map
    /// stage lost some output. Exactly one caller per recovery round is
    /// told [`RecoveryClaim::Owner`] with the missing map partitions; the
    /// stage transitions back to in-flight (so dependent schedulers
    /// subscribe rather than fetch) while surviving partitions' blocks and
    /// registrations are kept — the owner re-runs *only* the missing maps.
    /// An unclaimed shuffle (e.g. abandoned by an aborting job) counts as
    /// fully missing.
    pub fn claim_recovery(&self, shuffle_id: usize, num_maps: usize) -> RecoveryClaim {
        let mut stages = self.stages.lock();
        match stages.get(&shuffle_id) {
            Some(MapStageState::InFlight { .. }) => RecoveryClaim::InFlight,
            Some(MapStageState::Completed { num_maps: recorded }) => {
                assert_eq!(
                    *recorded, num_maps,
                    "shuffle {shuffle_id}: recovery claimed with a different map count \
                     than the completed stage recorded"
                );
                self.claim_recovery_locked(&mut stages, shuffle_id, num_maps)
            }
            None => self.claim_recovery_locked(&mut stages, shuffle_id, num_maps),
        }
    }

    /// Second half of [`ShuffleService::claim_recovery`], with the stage
    /// lock held and the in-flight case already ruled out.
    fn claim_recovery_locked(
        &self,
        stages: &mut HashMap<usize, MapStageState>,
        shuffle_id: usize,
        num_maps: usize,
    ) -> RecoveryClaim {
        let missing = self.missing_maps(shuffle_id, num_maps);
        if missing.is_empty() {
            return RecoveryClaim::Recovered;
        }
        stages.insert(
            shuffle_id,
            MapStageState::InFlight {
                waiters: Subscribers::new(),
            },
        );
        RecoveryClaim::Owner { missing }
    }

    /// Total bytes currently resident in memory in the service (for memory
    /// reports and watermark checks). Spilled blocks do not count — their
    /// heap bytes were the point of spilling. O(1): the counter is
    /// maintained on every insert/remove/tier-flip under the block-map
    /// write lock (and checked against a full walk in debug builds), not
    /// recomputed per call — deposits used to pay a full map walk here,
    /// turning an n-block shuffle write phase into O(n²).
    pub fn resident_bytes(&self) -> usize {
        self.blocks.resident_bytes()
    }

    /// Bytes currently held by this service's on-disk spill tier (framed
    /// file sizes).
    pub fn disk_bytes(&self) -> usize {
        self.blocks.disk_bytes()
    }

    /// Bytes deposited for each reduce partition of one shuffle, summed
    /// over its map-side blocks (logical record bytes, both tiers). The
    /// planner reads this after a map stage completes to decide which
    /// reduce buckets are small enough to merge into one task
    /// ([`crate::SpangleContextBuilder::coalesce_partitions`]).
    pub fn reduce_bucket_bytes(&self, shuffle_id: usize, num_reduce: usize) -> Vec<usize> {
        let mut out = vec![0usize; num_reduce];
        self.blocks.for_each_size(|id, bytes| {
            if id.shuffle_id == shuffle_id && id.reduce_id < num_reduce {
                out[id.reduce_id] += bytes;
            }
        });
        out
    }

    /// Number of blocks currently stored (both tiers).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_fetch_roundtrip_charges_bytes() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        let id = BlockId {
            shuffle_id: 1,
            map_id: 0,
            reduce_id: 3,
        };
        let before = ctx.metrics_snapshot();
        svc.put_block(&ctx, id, vec![(1u64, 2.0f64); 10], 160, BlockOrigin::DRIVER);
        let got: Arc<Vec<(u64, f64)>> = svc.fetch_block(&ctx, id);
        assert_eq!(got.len(), 10);
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.shuffle_write_bytes, 160);
        assert_eq!(delta.shuffle_read_bytes, 160);
        assert_eq!(delta.shuffle_records, 10);
    }

    #[test]
    fn fetches_share_the_block_instead_of_cloning_it() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        let id = BlockId {
            shuffle_id: 1,
            map_id: 0,
            reduce_id: 0,
        };
        svc.put_block(&ctx, id, vec![1u64, 2, 3], 24, BlockOrigin::DRIVER);
        let a: Arc<Vec<u64>> = svc.fetch_block(&ctx, id);
        let b: Arc<Vec<u64>> = svc.fetch_block(&ctx, id);
        assert!(
            Arc::ptr_eq(&a, &b),
            "two fetches of one resident block must alias, not deep-copy"
        );
    }

    #[test]
    fn missing_block_is_empty_and_free() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        let before = ctx.metrics_snapshot();
        let got: Arc<Vec<u64>> = svc.fetch_block(
            &ctx,
            BlockId {
                shuffle_id: 9,
                map_id: 0,
                reduce_id: 0,
            },
        );
        assert!(got.is_empty());
        assert_eq!((ctx.metrics_snapshot() - before).shuffle_read_bytes, 0);
    }

    #[test]
    fn remove_shuffle_clears_state() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        let id = BlockId {
            shuffle_id: 5,
            map_id: 1,
            reduce_id: 1,
        };
        svc.put_block(&ctx, id, vec![1u64], 8, BlockOrigin::DRIVER);
        svc.mark_completed(5, 2);
        assert!(svc.is_completed(5));
        assert_eq!(svc.num_blocks(), 1);
        svc.remove_shuffle(5);
        assert!(!svc.is_completed(5));
        assert_eq!(svc.num_blocks(), 0);
        assert_eq!(svc.resident_bytes(), 0);
    }

    /// Bugfix regression: a reduce fetch straggling in after lineage GC
    /// removed its shuffle used to read an empty bucket silently (the
    /// `!stages.contains_key` branch). The data existed and is *gone*, not
    /// empty — the fetch must fail typed.
    #[test]
    fn fetch_after_remove_shuffle_fails_typed() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        let id = BlockId {
            shuffle_id: 5,
            map_id: 0,
            reduce_id: 0,
        };
        svc.put_block(&ctx, id, vec![1u64], 8, BlockOrigin::DRIVER);
        svc.register_map_output(&ctx, 5, 0, BlockOrigin::DRIVER);
        svc.mark_completed(5, 1);
        svc.remove_shuffle(5);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Arc<Vec<u64>> = svc.fetch_block(&ctx, id);
        }))
        .expect_err("a fetch against a GC'd shuffle must not read as empty");
        assert_eq!(
            *err.downcast_ref::<FetchFailedError>()
                .expect("typed payload"),
            FetchFailedError {
                shuffle_id: 5,
                map_id: 0
            }
        );
        // A shuffle that never had stage state keeps the historical
        // empty-fetch behavior (test-seeded block maps).
        let got: Arc<Vec<u64>> = svc.fetch_block(
            &ctx,
            BlockId {
                shuffle_id: 99,
                map_id: 0,
                reduce_id: 0,
            },
        );
        assert!(got.is_empty());
    }

    /// Bugfix regression: `put_block` used to install unconditionally,
    /// letting a late speculative loser (live, but beaten to the commit)
    /// overwrite the winner's block through the legacy path.
    #[test]
    fn put_block_cannot_overwrite_a_live_winner() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        let winner = BlockOrigin::executor(0, 0);
        let loser = BlockOrigin::executor(1, 0);
        assert!(svc.commit_map_output(&ctx, 7, 0, vec![(0, vec![111u64], 8)], winner));
        // The loser is alive — only *beaten*. Its late put must be refused.
        let before = ctx.metrics_snapshot();
        svc.put_block(
            &ctx,
            BlockId {
                shuffle_id: 7,
                map_id: 0,
                reduce_id: 0,
            },
            vec![222u64],
            8,
            loser,
        );
        assert_eq!(
            (ctx.metrics_snapshot() - before).shuffle_write_bytes,
            0,
            "refused deposits charge nothing"
        );
        let got: Arc<Vec<u64>> = svc.fetch_block(
            &ctx,
            BlockId {
                shuffle_id: 7,
                map_id: 0,
                reduce_id: 0,
            },
        );
        assert_eq!(*got, vec![111], "the committed winner's block survives");
        // The winner itself may still re-deposit (recovery re-seeds).
        svc.put_block(
            &ctx,
            BlockId {
                shuffle_id: 7,
                map_id: 0,
                reduce_id: 0,
            },
            vec![333u64],
            8,
            winner,
        );
        let got: Arc<Vec<u64>> = svc.fetch_block(
            &ctx,
            BlockId {
                shuffle_id: 7,
                map_id: 0,
                reduce_id: 0,
            },
        );
        assert_eq!(*got, vec![333]);
    }

    #[test]
    fn spilled_blocks_of_a_dead_executor_are_discarded_not_rehydrated() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        seed_two_map_shuffle(&ctx, &svc, 6);
        svc.spill_up_to(&ctx, usize::MAX);
        assert_eq!(svc.resident_bytes(), 0);
        assert!(svc.disk_bytes() > 0);
        let (dropped, bytes) = svc.discard_executor(1);
        assert_eq!(
            (dropped, bytes),
            (1, 8),
            "spilled blocks count toward the discard with their logical bytes"
        );
        // Map 0's spilled block survives and rehydrates; map 1's is gone
        // from disk too and raises a typed fetch failure.
        let ok: Arc<Vec<u64>> = svc.fetch_block(
            &ctx,
            BlockId {
                shuffle_id: 6,
                map_id: 0,
                reduce_id: 0,
            },
        );
        assert_eq!(*ok, vec![0]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Arc<Vec<u64>> = svc.fetch_block(
                &ctx,
                BlockId {
                    shuffle_id: 6,
                    map_id: 1,
                    reduce_id: 0,
                },
            );
        }))
        .expect_err("a dead incarnation's spilled block must not rehydrate");
        assert!(err.downcast_ref::<FetchFailedError>().is_some());
    }

    /// The shuffle's reading of a torn spill file: the map output is
    /// lost, exactly like executor loss — typed failure, registration
    /// dropped so recovery re-runs that map, survivors untouched.
    #[test]
    fn a_torn_spill_file_fails_typed_and_unregisters_the_map() {
        let ctx = SpangleContext::new(2);
        let spill = Arc::new(SpillStore::default());
        let svc = ShuffleService::new(Arc::clone(&spill));
        seed_two_map_shuffle(&ctx, &svc, 6);
        svc.spill_up_to(&ctx, usize::MAX);
        spill.tear_files();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Arc<Vec<u64>> = svc.fetch_block(
                &ctx,
                BlockId {
                    shuffle_id: 6,
                    map_id: 1,
                    reduce_id: 0,
                },
            );
        }))
        .expect_err("a torn block must not decode");
        assert_eq!(
            err.downcast_ref::<FetchFailedError>(),
            Some(&FetchFailedError {
                shuffle_id: 6,
                map_id: 1
            })
        );
        assert_eq!(svc.num_blocks(), 1, "the torn block is dropped");
        assert_eq!(
            svc.claim_recovery(6, 2),
            RecoveryClaim::Owner { missing: vec![1] }
        );
    }

    #[test]
    fn only_one_claimant_becomes_owner() {
        let svc = ShuffleService::default();
        assert_eq!(svc.try_claim(3), ShuffleClaim::Owner);
        assert_eq!(svc.try_claim(3), ShuffleClaim::InFlight);
        svc.mark_completed(3, 4);
        assert_eq!(svc.try_claim(3), ShuffleClaim::Completed);
    }

    #[test]
    fn abandon_lets_the_next_claimant_own() {
        let svc = ShuffleService::default();
        assert_eq!(svc.try_claim(1), ShuffleClaim::Owner);
        svc.abandon(1);
        assert!(!svc.wait_finished(1), "abandoned, not completed");
        assert_eq!(svc.try_claim(1), ShuffleClaim::Owner);
    }

    #[test]
    fn abandon_drops_the_aborted_attempts_partial_blocks() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        assert_eq!(svc.try_claim(4), ShuffleClaim::Owner);
        // The owner's map tasks deposit some output, then the job aborts.
        svc.put_block(
            &ctx,
            BlockId {
                shuffle_id: 4,
                map_id: 0,
                reduce_id: 0,
            },
            vec![1u64, 2, 3],
            24,
            BlockOrigin::DRIVER,
        );
        // An unrelated completed shuffle must survive the abandon.
        svc.put_block(
            &ctx,
            BlockId {
                shuffle_id: 5,
                map_id: 0,
                reduce_id: 0,
            },
            vec![9u64],
            8,
            BlockOrigin::DRIVER,
        );
        svc.mark_completed(5, 1);
        assert_eq!(svc.resident_bytes(), 32);
        svc.abandon(4);
        assert_eq!(
            svc.resident_bytes(),
            8,
            "the abandoned shuffle's partial blocks must be dropped"
        );
        assert_eq!(svc.num_blocks(), 1);
        assert_eq!(
            svc.try_claim(4),
            ShuffleClaim::Owner,
            "a re-claiming owner starts from a clean slate"
        );
        // Abandon on a completed shuffle stays a no-op.
        svc.abandon(5);
        assert_eq!(svc.resident_bytes(), 8);
    }

    #[test]
    fn subscribe_fires_immediately_when_already_resolved() {
        let svc = ShuffleService::default();
        let (tx, rx) = crate::sync::channel::unbounded();
        // Unclaimed: resolves false synchronously.
        let tx2 = tx.clone();
        svc.subscribe(
            7,
            Box::new(move |done| tx2.send(("unclaimed", done)).unwrap()),
        );
        assert_eq!(rx.try_recv().unwrap(), ("unclaimed", false));
        // Completed: resolves true synchronously.
        svc.mark_completed(7, 2);
        svc.subscribe(
            7,
            Box::new(move |done| tx.send(("completed", done)).unwrap()),
        );
        assert_eq!(rx.try_recv().unwrap(), ("completed", true));
    }

    #[test]
    fn subscribed_callbacks_fire_exactly_once_on_completion_and_abandon() {
        let svc = ShuffleService::default();
        let (tx, rx) = crate::sync::channel::unbounded();
        assert_eq!(svc.try_claim(1), ShuffleClaim::Owner);
        for _ in 0..3 {
            let tx = tx.clone();
            svc.subscribe(1, Box::new(move |done| tx.send(done).unwrap()));
        }
        assert!(rx.try_recv().is_err(), "nothing fires while in flight");
        svc.mark_completed(1, 4);
        assert_eq!(
            (0..3).map(|_| rx.try_recv().unwrap()).collect::<Vec<_>>(),
            vec![true; 3]
        );
        assert!(rx.try_recv().is_err(), "callbacks are one-shot");

        assert_eq!(svc.try_claim(2), ShuffleClaim::Owner);
        let tx2 = tx.clone();
        svc.subscribe(2, Box::new(move |done| tx2.send(done).unwrap()));
        svc.abandon(2);
        assert!(!rx.try_recv().unwrap(), "abandon notifies with false");
        assert_eq!(
            svc.try_claim(2),
            ShuffleClaim::Owner,
            "abandoned stage is re-claimable"
        );
    }

    #[test]
    fn waiters_wake_on_completion() {
        let svc = Arc::new(ShuffleService::default());
        assert_eq!(svc.try_claim(2), ShuffleClaim::Owner);
        let waiter = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.wait_finished(2))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        svc.mark_completed(2, 1);
        assert!(waiter.join().unwrap(), "waiter must see completion");
    }

    /// The historical check-then-act race: two schedulers checking
    /// `is_completed` before running would both run the map stage. With
    /// the claim API exactly one of N concurrent claimants owns the
    /// stage, no matter the interleaving.
    #[test]
    fn concurrent_claims_elect_exactly_one_owner() {
        for round in 0..50usize {
            let svc = Arc::new(ShuffleService::default());
            let claims: Vec<ShuffleClaim> = (0..4)
                .map(|_| {
                    let svc = Arc::clone(&svc);
                    std::thread::spawn(move || svc.try_claim(round))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|t| t.join().unwrap())
                .collect();
            let owners = claims.iter().filter(|c| **c == ShuffleClaim::Owner).count();
            assert_eq!(owners, 1, "round {round}: claims were {claims:?}");
            assert!(claims
                .iter()
                .all(|c| matches!(c, ShuffleClaim::Owner | ShuffleClaim::InFlight)));
        }
    }

    /// Seeds a two-map shuffle whose blocks live on executors 0 and 1.
    fn seed_two_map_shuffle(ctx: &SpangleContext, svc: &ShuffleService, shuffle_id: usize) {
        for map_id in 0..2 {
            let origin = BlockOrigin::executor(map_id, 0);
            svc.put_block(
                ctx,
                BlockId {
                    shuffle_id,
                    map_id,
                    reduce_id: 0,
                },
                vec![map_id as u64],
                8,
                origin,
            );
            svc.register_map_output(ctx, shuffle_id, map_id, origin);
        }
        assert!(svc.mark_completed(shuffle_id, 2).is_empty());
    }

    #[test]
    fn mark_completed_reports_unregistered_maps() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        assert_eq!(svc.mark_completed(9, 3), vec![0, 1, 2]);
        svc.register_map_output(&ctx, 9, 1, BlockOrigin::DRIVER);
        assert_eq!(svc.mark_completed(9, 3), vec![0, 2]);
    }

    #[test]
    fn registered_empty_buckets_stay_empty_fetches() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        svc.register_map_output(&ctx, 2, 0, BlockOrigin::DRIVER);
        svc.mark_completed(2, 1);
        let got: Arc<Vec<u64>> = svc.fetch_block(
            &ctx,
            BlockId {
                shuffle_id: 2,
                map_id: 0,
                reduce_id: 0,
            },
        );
        assert!(got.is_empty());
    }

    #[test]
    fn lost_map_output_raises_fetch_failed() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        seed_two_map_shuffle(&ctx, &svc, 6);
        let (dropped, bytes) = svc.discard_executor(1);
        assert_eq!((dropped, bytes), (1, 8));
        // The surviving map's block still fetches.
        let ok: Arc<Vec<u64>> = svc.fetch_block(
            &ctx,
            BlockId {
                shuffle_id: 6,
                map_id: 0,
                reduce_id: 0,
            },
        );
        assert_eq!(*ok, vec![0]);
        // The lost one raises a typed fetch failure, not an empty vec.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Arc<Vec<u64>> = svc.fetch_block(
                &ctx,
                BlockId {
                    shuffle_id: 6,
                    map_id: 1,
                    reduce_id: 0,
                },
            );
        }))
        .expect_err("lost output must not fetch as empty");
        let fetch = err
            .downcast_ref::<FetchFailedError>()
            .expect("panic payload is a FetchFailedError");
        assert_eq!(
            *fetch,
            FetchFailedError {
                shuffle_id: 6,
                map_id: 1
            }
        );
    }

    #[test]
    fn recovery_is_claimed_once_and_keeps_survivors() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        seed_two_map_shuffle(&ctx, &svc, 3);
        svc.discard_executor(0);
        let claim = svc.claim_recovery(3, 2);
        assert_eq!(
            claim,
            RecoveryClaim::Owner {
                missing: vec![0],
                // map 1's block survived; only map 0 is re-run
            }
        );
        assert_eq!(
            svc.claim_recovery(3, 2),
            RecoveryClaim::InFlight,
            "one owner per recovery round"
        );
        assert_eq!(svc.resident_bytes(), 8, "survivor block kept");
        // The owner re-runs the missing map and closes the stage again.
        let origin = BlockOrigin::executor(1, 0);
        svc.put_block(
            &ctx,
            BlockId {
                shuffle_id: 3,
                map_id: 0,
                reduce_id: 0,
            },
            vec![7u64],
            8,
            origin,
        );
        svc.register_map_output(&ctx, 3, 0, origin);
        assert!(svc.mark_completed(3, 2).is_empty());
        assert_eq!(svc.claim_recovery(3, 2), RecoveryClaim::Recovered);
        let got: Arc<Vec<u64>> = svc.fetch_block(
            &ctx,
            BlockId {
                shuffle_id: 3,
                map_id: 0,
                reduce_id: 0,
            },
        );
        assert_eq!(*got, vec![7]);
    }

    #[test]
    fn stale_incarnation_deposits_are_refused() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        let stale = BlockOrigin::executor(0, 0);
        ctx.inner.pool.kill(0);
        let before = ctx.metrics_snapshot();
        svc.put_block(
            &ctx,
            BlockId {
                shuffle_id: 1,
                map_id: 0,
                reduce_id: 0,
            },
            vec![1u64],
            8,
            stale,
        );
        svc.register_map_output(&ctx, 1, 0, stale);
        assert_eq!(svc.num_blocks(), 0, "dead incarnations cannot deposit");
        assert_eq!((ctx.metrics_snapshot() - before).shuffle_write_bytes, 0);
        assert_eq!(svc.mark_completed(1, 1), vec![0], "nor register output");
    }
}
