//! The in-memory shuffle service.
//!
//! A shuffle moves every record of a pair RDD from the executor that
//! computed it (the *map* side) to the executor that owns its key's reduce
//! partition. This service plays the role of Spark's shuffle
//! write/fetch path: map tasks deposit per-reduce-partition buckets, reduce
//! tasks fetch them, and every byte that logically crosses the network is
//! charged to the metrics.
//!
//! Everything the service knows about one shuffle is one `ShuffleEntry`
//! (Spark's `ShuffleStatus`) in one table under one lock: the state of its
//! map stage and the registry of which executor incarnation
//! ([`BlockOrigin`]) produced each map partition's output.
//!
//! ```text
//!              try_claim                mark_completed
//!   Unclaimed -----------> InFlight ------------------> Completed
//!       ^                   |    ^                          |
//!       +------ abandon ----+    +---- claim_recovery ------+
//!        (registry and blocks      (some map unregistered: executor
//!         dropped, waiters false)   killed, spill file torn)
//!
//!   any state -- remove_shuffle --> Removed (the tombstone; terminal)
//! ```
//!
//! The service is the arbiter of *map-stage ownership*: concurrent jobs (or
//! sibling stages of one job) may share a shuffle dependency, and exactly
//! one [`ShuffleService::try_claim`] caller per run becomes the owner and
//! runs the stage; everyone else reuses the completed output or registers
//! a completion callback ([`ShuffleService::subscribe`]). State check and
//! subscription share the entry's lock, so a callback can never be lost to
//! a check-then-subscribe race — it fires immediately when the stage is
//! already resolved, and exactly once from
//! [`ShuffleService::mark_completed`] / [`ShuffleService::abandon`]
//! otherwise, always outside the lock. No thread ever parks inside the
//! service on behalf of a scheduler.
//!
//! It is also executor-loss aware. Every map task commits its output —
//! even an all-empty one — through [`ShuffleService::commit_map_output`],
//! which registers the map under the same lock that deposits its blocks.
//! When an executor dies, [`ShuffleService::discard_executor`] drops its
//! blocks and registrations; the stage stays `Completed`, with holes. A
//! fetch that misses is decided under the lock, with one more look at the
//! blocks: a registered map's absent block is a genuinely empty bucket,
//! and *anything else* — a hole, an abandoned or removed shuffle, one the
//! service never heard of — panics with a typed [`FetchFailedError`],
//! never reads as empty. The scheduler
//! catches that panic, claims the *recovery* of the shuffle
//! ([`ShuffleService::claim_recovery`]) and resubmits only the missing map
//! partitions from lineage.
//!
//! Block storage itself — the resident and spilled tiers, byte accounting,
//! LRU spilling and rehydration — is one `TieredStore` (`blockstore.rs`)
//! keyed by [`BlockId`]. Lock order: the entry table before the block
//! store, never the reverse.

use crate::blockstore::{Block, Fetched, TieredStore};
use crate::executor::BlockOrigin;
use crate::metrics::MetricField;
use crate::spill::SpillStore;
use crate::sync::{Mutex, Subscribers};
use crate::{Data, SpangleContext};
use std::collections::HashMap;
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
#[derive(Default)]
enum MapStage {
    /// Nobody owns the stage — never claimed, or released by an abandon:
    /// the next [`ShuffleService::try_claim`] wins it.
    #[default]
    Unclaimed,
    /// Some job claimed the map stage (or its recovery) and is running it;
    /// `waiters` fire when it resolves.
    InFlight { waiters: Subscribers<bool> },
    /// The map stage ran to completion with this many map partitions.
    Completed { num_maps: usize },
    /// Torn down by [`ShuffleService::remove_shuffle`] (lineage GC). Ids
    /// are context-monotone and never reused, so tombstones only
    /// accumulate: one entry per GC'd shuffle over the context's life.
    Removed,
}

/// Everything the service knows about one shuffle.
#[derive(Default)]
struct ShuffleEntry {
    stage: MapStage,
    /// Which executor incarnation produced each map partition's output. A
    /// map task registers here even when every bucket it produced was
    /// empty, so "block absent but map registered" means an empty bucket
    /// while "absent and unregistered" means the output is lost.
    outputs: HashMap<usize, BlockOrigin>,
}

impl ShuffleEntry {
    /// Map partitions below `num_maps` with no registered output, ascending.
    fn missing_maps(&self, num_maps: usize) -> Vec<usize> {
        (0..num_maps)
            .filter(|m| !self.outputs.contains_key(m))
            .collect()
    }
}

/// Panic payload raised by [`ShuffleService::fetch_block`] when the block's
/// map output is not there to read: lost with the executor that produced
/// it, torn on disk, dropped by an abandon, or garbage-collected. The
/// scheduler downcasts this out of the task panic and turns it into
/// [`crate::TaskError::FetchFailed`], which triggers lineage-based
/// resubmission of exactly the missing map partitions.
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
    /// callback with [`ShuffleService::subscribe`].
    InFlight,
}

/// Stores shuffle blocks between stages and tracks map-stage ownership.
#[derive(Default)]
pub struct ShuffleService {
    blocks: TieredStore<BlockId>,
    /// One entry per shuffle the service has heard of; no entry reads as
    /// an unclaimed shuffle with nothing registered.
    shuffles: Mutex<HashMap<usize, ShuffleEntry>>,
}

impl ShuffleService {
    /// A service whose blocks spill into `spill`.
    pub(crate) fn new(spill: Arc<SpillStore>) -> Self {
        ShuffleService {
            blocks: TieredStore::new(spill),
            shuffles: Mutex::default(),
        }
    }

    /// Atomically deposits *all* buckets of one map task and registers its
    /// output, first-write-wins. Returns whether this attempt won.
    ///
    /// A job runs one attempt of a map partition at a time, so a second
    /// live deposit is a safety check for what outlives a job: a body of
    /// an aborted job that was cancelled past its last cancellation point
    /// commits after the abort abandoned its shuffle, which a later job
    /// may claim and run again. Whichever commits first installs its
    /// complete bucket set, and the other deposit is refused as a unit, so
    /// two attempts' output can never interleave.
    ///
    /// A commit loses when the (shuffle, map) pair is already registered
    /// by a live incarnation, when the depositing incarnation itself is
    /// dead (killed mid-task: its blocks were already discarded and its
    /// attempt is being replayed elsewhere), or when the shuffle was
    /// removed. Losing commits charge no shuffle-write volume.
    pub fn commit_map_output<T: Data>(
        &self,
        ctx: &SpangleContext,
        shuffle_id: usize,
        map_id: usize,
        buckets: Vec<(usize, Vec<T>, usize)>,
        origin: BlockOrigin,
    ) -> bool {
        let live = |origin| ctx.inner.pool.origin_is_live(origin);
        if !live(origin) {
            return false;
        }
        let mut shuffles = self.shuffles.lock();
        let entry = shuffles.entry(shuffle_id).or_default();
        if matches!(entry.stage, MapStage::Removed)
            || entry
                .outputs
                .get(&map_id)
                .is_some_and(|&winner| live(winner))
        {
            return false;
        }
        entry.outputs.insert(map_id, origin);
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
        // Still under the table lock: registration and blocks appear (and
        // are discarded with their executor) as one unit.
        self.blocks.put_many(ctx, deposits, origin);
        drop(shuffles);
        ctx.metrics()
            .add(MetricField::ShuffleWriteBytes, total_bytes);
        ctx.metrics()
            .add(MetricField::ShuffleRecords, total_records);
        true
    }

    /// Fetches one bucket, charging shuffle read volume. Returns a shared
    /// handle to the bucket's records — reduce tasks iterate the `Arc`
    /// without cloning the underlying vector. Returns an empty block when
    /// the map task registered its output but produced nothing for this
    /// reduce partition. A spilled block is rehydrated (read back,
    /// verified, reinstated resident as a clean copy that keeps its spill
    /// file, so demoting it again writes nothing) transparently.
    ///
    /// # Panics
    ///
    /// Panics with a [`FetchFailedError`] payload when the block is absent
    /// and its map partition is not registered in a live shuffle — a hole
    /// left by a dead executor or a torn spill file, a shuffle whose owner
    /// abandoned it, a removed one, or one the service never heard of. The
    /// output is *gone*, not empty, so the caller must not read on. The
    /// scheduler converts this panic into
    /// [`crate::TaskError::FetchFailed`] and recovers.
    pub fn fetch_block<T: Data>(&self, ctx: &SpangleContext, id: BlockId) -> Arc<Vec<T>> {
        match self.blocks.get(ctx, &id) {
            Fetched::Hit { block, bytes } => read(ctx, block, bytes),
            missed => self.fetch_missed(ctx, id, matches!(missed, Fetched::Torn)),
        }
    }

    /// Decides a fetch whose lock-free lookup missed (`torn`: found the
    /// spill file torn, which dropped the block) under the table lock,
    /// after one more look at the blocks: every commit, loss and abandon
    /// changes the registry and the blocks together under that lock, so a
    /// recovery's commit landing between the lookup and the registry
    /// check would otherwise make a lost bucket read as empty.
    fn fetch_missed<T: Data>(&self, ctx: &SpangleContext, id: BlockId, torn: bool) -> Arc<Vec<T>> {
        let mut shuffles = self.shuffles.lock();
        let torn = match self.blocks.get(ctx, &id) {
            Fetched::Hit { block, bytes } => return read(ctx, block, bytes),
            Fetched::Torn => true,
            Fetched::Absent => torn,
        };
        let outputs = shuffles.get_mut(&id.shuffle_id).map(|e| &mut e.outputs);
        let empty = if torn {
            // The spill file is torn or unreadable: the block is gone for
            // real. Drop its registration so this surfaces exactly like
            // executor loss — typed, recoverable from lineage — instead of
            // decoding garbage.
            outputs.and_then(|o| o.remove(&id.map_id));
            false
        } else {
            // Registered-but-absent is a genuinely empty bucket.
            outputs.is_some_and(|o| o.contains_key(&id.map_id))
        };
        drop(shuffles);
        if empty {
            return Arc::new(Vec::new());
        }
        std::panic::panic_any(FetchFailedError {
            shuffle_id: id.shuffle_id,
            map_id: id.map_id,
        });
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
        let mut shuffles = self.shuffles.lock();
        let entry = shuffles.entry(shuffle_id).or_default();
        match entry.stage {
            MapStage::Completed { .. } => ShuffleClaim::Completed,
            MapStage::InFlight { .. } => ShuffleClaim::InFlight,
            // A removed shuffle's dependency is gone, so nothing that could
            // claim it is left; were it claimed all the same, it runs anew.
            MapStage::Unclaimed | MapStage::Removed => {
                entry.stage = MapStage::InFlight {
                    waiters: Subscribers::new(),
                };
                ShuffleClaim::Owner
            }
        }
    }

    /// Registers a one-shot callback on the map stage of `shuffle_id`.
    ///
    /// The state check and registration happen under one lock, so a
    /// callback can never miss its notification: if the stage is already
    /// `Completed` the callback fires immediately with `true`; if nobody
    /// owns it (never claimed, abandoned, removed) it fires immediately
    /// with `false` (the caller should [`ShuffleService::try_claim`]); if
    /// it is in flight, the callback fires exactly once when the owner
    /// [`ShuffleService::mark_completed`]s (`true`) or
    /// [`ShuffleService::abandon`]s (`false`) the stage.
    ///
    /// Callbacks run on whatever thread resolves the stage (an executor
    /// or another job's driver) and must not block; schedulers send an
    /// event into their own channel.
    pub fn subscribe(&self, shuffle_id: usize, callback: ShuffleCallback) {
        let mut shuffles = self.shuffles.lock();
        let completed = match shuffles.get_mut(&shuffle_id).map(|e| &mut e.stage) {
            Some(MapStage::InFlight { waiters }) => return waiters.push(callback),
            Some(MapStage::Completed { .. }) => true,
            _ => false,
        };
        drop(shuffles);
        callback(completed);
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
        let mut shuffles = self.shuffles.lock();
        let entry = shuffles.entry(shuffle_id).or_default();
        let previous = std::mem::replace(&mut entry.stage, MapStage::Completed { num_maps });
        let missing = entry.missing_maps(num_maps);
        drop(shuffles);
        if let MapStage::InFlight { waiters } = previous {
            waiters.fire(true);
        }
        missing
    }

    /// Releases an [`ShuffleClaim::Owner`] claim without completing the
    /// stage (the owning job aborted); a no-op on a stage that is not in
    /// flight. Subscribed callbacks fire with `false` and their schedulers
    /// race to re-claim.
    ///
    /// Everything deposited so far is dropped with the claim, registry and
    /// both block tiers, under the table lock: leaving it resident would
    /// leak `resident_bytes` (and spill files) until shuffle GC. That
    /// holds for an abandoned *recovery* too — the maps that survived the
    /// loss go with the re-run ones, and the next claimant runs the whole
    /// stage: one rule for every abandon, at the price of recomputing a
    /// map stage in the rare job that aborts mid-recovery. A concurrent
    /// job's reduce task still reading a survivor fails typed and its
    /// scheduler becomes that claimant.
    pub fn abandon(&self, shuffle_id: usize) {
        let mut shuffles = self.shuffles.lock();
        let Some(entry) = shuffles.get_mut(&shuffle_id) else {
            return;
        };
        if !matches!(entry.stage, MapStage::InFlight { .. }) {
            return;
        }
        let abandoned = std::mem::take(entry);
        self.drop_blocks_of(shuffle_id);
        drop(shuffles);
        if let MapStage::InFlight { waiters } = abandoned.stage {
            waiters.fire(false);
        }
    }

    /// Drops every block (either tier) of one shuffle, releasing resident
    /// bytes and spill files.
    fn drop_blocks_of(&self, shuffle_id: usize) {
        self.blocks.retain(|id, _| id.shuffle_id != shuffle_id);
    }

    /// Drops all blocks and completion state of one shuffle. Called when
    /// the owning dependency is garbage-collected so iterative jobs do not
    /// accumulate dead shuffle outputs. Any callbacks still subscribed
    /// (there should be none by GC time) fire with `false`.
    ///
    /// The entry stays behind as a tombstone: a straggler's late commit is
    /// refused instead of re-seeding blocks nobody will ever collect, and
    /// its fetch raises [`FetchFailedError`] like any other read of output
    /// that is gone.
    pub fn remove_shuffle(&self, shuffle_id: usize) {
        let mut shuffles = self.shuffles.lock();
        let tombstone = ShuffleEntry {
            stage: MapStage::Removed,
            outputs: HashMap::new(),
        };
        let removed = shuffles.insert(shuffle_id, tombstone);
        self.drop_blocks_of(shuffle_id);
        drop(shuffles);
        if let Some(MapStage::InFlight { waiters }) = removed.map(|e| e.stage) {
            waiters.fire(false);
        }
    }

    /// Drops every block and map-output registration produced by the given
    /// executor (any incarnation), across all shuffles. Called when an
    /// executor is killed. Returns `(blocks_dropped, bytes_dropped)`,
    /// counting logical record bytes for blocks of both tiers — a spilled
    /// block of a dead incarnation is deleted from disk, never rehydrated:
    /// its producer's epoch is retired, so its data is as stale as a
    /// resident block's would be.
    ///
    /// Stage state is deliberately left alone: a shuffle stays `Completed`
    /// with holes, and the holes surface as [`FetchFailedError`] on the
    /// next fetch so recovery is driven by the jobs that actually need the
    /// data.
    pub fn discard_executor(&self, executor: usize) -> (usize, usize) {
        let mut shuffles = self.shuffles.lock();
        for entry in shuffles.values_mut() {
            entry.outputs.retain(|_, origin| !origin.lives_on(executor));
        }
        self.blocks.retain(|_, origin| !origin.lives_on(executor))
    }

    /// Atomically claims the *recovery* of a shuffle whose completed map
    /// stage lost some output. Exactly one caller per recovery round is
    /// told [`RecoveryClaim::Owner`] with the missing map partitions; the
    /// stage transitions back to in-flight (so dependent schedulers
    /// subscribe rather than fetch) while surviving partitions' blocks and
    /// registrations are kept — the owner re-runs *only* the missing maps.
    /// A shuffle nobody owns (e.g. abandoned by an aborting job) counts as
    /// fully missing.
    pub fn claim_recovery(&self, shuffle_id: usize, num_maps: usize) -> RecoveryClaim {
        let mut shuffles = self.shuffles.lock();
        let entry = shuffles.entry(shuffle_id).or_default();
        match entry.stage {
            MapStage::InFlight { .. } => return RecoveryClaim::InFlight,
            MapStage::Completed { num_maps: recorded } => assert_eq!(
                recorded, num_maps,
                "shuffle {shuffle_id}: recovery claimed with a different map count \
                 than the completed stage recorded"
            ),
            MapStage::Unclaimed | MapStage::Removed => {}
        }
        let missing = entry.missing_maps(num_maps);
        if missing.is_empty() {
            return RecoveryClaim::Recovered;
        }
        entry.stage = MapStage::InFlight {
            waiters: Subscribers::new(),
        };
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

    /// Number of blocks currently stored (both tiers).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// A fetched block's records, its bytes charged as shuffle reads.
fn read<T: Data>(ctx: &SpangleContext, block: Block, bytes: usize) -> Arc<Vec<T>> {
    ctx.metrics()
        .add(MetricField::ShuffleReadBytes, bytes as u64);
    block.downcast::<Vec<T>>().expect(
        "shuffle block type mismatch: reduce side fetched a different \
         type than the map side wrote",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Commits `records` as map `map_id`'s bucket for reduce partition 0
    /// (an empty `records` commits no bucket at all: registered, empty).
    fn commit(
        ctx: &SpangleContext,
        svc: &ShuffleService,
        (shuffle_id, map_id): (usize, usize),
        records: Vec<u64>,
        origin: BlockOrigin,
    ) -> bool {
        let bytes = 8 * records.len();
        let buckets = if records.is_empty() {
            vec![]
        } else {
            vec![(0, records, bytes)]
        };
        svc.commit_map_output(ctx, shuffle_id, map_id, buckets, origin)
    }

    /// What a reduce task reading reduce partition 0 of `(shuffle, map)`
    /// gets: the bucket, or the typed failure its fetch panicked with.
    fn fetch(
        ctx: &SpangleContext,
        svc: &ShuffleService,
        (shuffle_id, map_id): (usize, usize),
    ) -> Result<Vec<u64>, FetchFailedError> {
        let id = BlockId {
            shuffle_id,
            map_id,
            reduce_id: 0,
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.fetch_block::<u64>(ctx, id).to_vec()
        }))
        .map_err(|payload| {
            *payload
                .downcast_ref::<FetchFailedError>()
                .expect("a fetch fails typed or not at all")
        })
    }

    fn gone(shuffle_id: usize, map_id: usize) -> Result<Vec<u64>, FetchFailedError> {
        Err(FetchFailedError { shuffle_id, map_id })
    }

    /// Seeds a completed two-map shuffle whose blocks (`[0]` and `[1]`)
    /// live on executors 0 and 1.
    fn seed_two_map_shuffle(ctx: &SpangleContext, svc: &ShuffleService, shuffle_id: usize) {
        for map_id in 0..2 {
            let origin = BlockOrigin::executor(map_id, 0);
            assert!(commit(
                ctx,
                svc,
                (shuffle_id, map_id),
                vec![map_id as u64],
                origin
            ));
        }
        assert!(svc.mark_completed(shuffle_id, 2).is_empty());
    }

    #[test]
    fn put_fetch_roundtrip_charges_bytes() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        let before = ctx.metrics_snapshot();
        let records = vec![(1u64, 2.0f64); 10];
        assert!(svc.commit_map_output(&ctx, 1, 0, vec![(3, records, 160)], BlockOrigin::DRIVER));
        let id = BlockId {
            shuffle_id: 1,
            map_id: 0,
            reduce_id: 3,
        };
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
        assert!(commit(
            &ctx,
            &svc,
            (1, 0),
            vec![1, 2, 3],
            BlockOrigin::DRIVER
        ));
        let id = BlockId {
            shuffle_id: 1,
            map_id: 0,
            reduce_id: 0,
        };
        let a: Arc<Vec<u64>> = svc.fetch_block(&ctx, id);
        let b: Arc<Vec<u64>> = svc.fetch_block(&ctx, id);
        assert!(
            Arc::ptr_eq(&a, &b),
            "two fetches of one resident block must alias, not deep-copy"
        );
    }

    /// A registered map's bucket for a reduce partition it produced
    /// nothing for: empty, and no read volume charged.
    #[test]
    fn missing_block_is_empty_and_free() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        assert!(svc.commit_map_output(&ctx, 9, 0, vec![(3, vec![1u64], 8)], BlockOrigin::DRIVER));
        let before = ctx.metrics_snapshot();
        assert_eq!(fetch(&ctx, &svc, (9, 0)), Ok(vec![]));
        assert_eq!((ctx.metrics_snapshot() - before).shuffle_read_bytes, 0);
    }

    #[test]
    fn remove_shuffle_clears_state() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        assert!(commit(&ctx, &svc, (5, 1), vec![1], BlockOrigin::DRIVER));
        svc.mark_completed(5, 2);
        assert_eq!(svc.try_claim(5), ShuffleClaim::Completed);
        assert_eq!(svc.num_blocks(), 1);
        svc.remove_shuffle(5);
        assert_eq!(
            svc.claim_recovery(5, 2),
            RecoveryClaim::Owner {
                missing: vec![0, 1]
            }
        );
        assert_eq!(svc.num_blocks(), 0);
        assert_eq!(svc.resident_bytes(), 0);
    }

    /// Bugfix regression: a reduce fetch straggling in after lineage GC
    /// removed its shuffle used to read an empty bucket silently. The data
    /// existed and is *gone*, not empty — the fetch must fail typed, and
    /// so must a fetch against a shuffle the service never heard of.
    #[test]
    fn fetch_after_remove_shuffle_fails_typed() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        assert!(commit(&ctx, &svc, (5, 0), vec![1], BlockOrigin::DRIVER));
        svc.mark_completed(5, 1);
        svc.remove_shuffle(5);
        assert_eq!(fetch(&ctx, &svc, (5, 0)), gone(5, 0));
        assert_eq!(fetch(&ctx, &svc, (99, 0)), gone(99, 0));
        // The tombstone also refuses a straggler's late commit.
        assert!(!commit(&ctx, &svc, (5, 0), vec![2], BlockOrigin::DRIVER));
        assert_eq!(svc.num_blocks(), 0);
    }

    /// Regression (chaos PageRank's wrong ranks, 2–3 % of stress runs): a
    /// reduce task's lock-free lookup of a lost map's bucket misses, and
    /// the recovery's commit lands before the fetch takes the table lock.
    /// The map is registered again by then, so answering from the registry
    /// alone read the recovered bucket as empty.
    #[test]
    fn a_commit_between_a_missed_lookup_and_its_verdict_is_read() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        seed_two_map_shuffle(&ctx, &svc, 8);
        svc.discard_executor(1);
        let id = BlockId {
            shuffle_id: 8,
            map_id: 1,
            reduce_id: 0,
        };
        assert!(matches!(svc.blocks.get(&ctx, &id), Fetched::Absent));
        assert!(commit(
            &ctx,
            &svc,
            (8, 1),
            vec![1],
            BlockOrigin::executor(0, 0)
        ));
        let got: Arc<Vec<u64>> = svc.fetch_missed(&ctx, id, false);
        assert_eq!(*got, vec![1]);
    }

    /// First write wins: a late attempt (live, but beaten to the commit —
    /// an aborted job's body) is refused as a unit and charged nothing.
    #[test]
    fn a_beaten_live_attempts_commit_is_refused_as_a_unit() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        let winner = BlockOrigin::executor(0, 0);
        let loser = BlockOrigin::executor(1, 0);
        assert!(commit(&ctx, &svc, (7, 0), vec![111], winner));
        let before = ctx.metrics_snapshot();
        assert!(!commit(&ctx, &svc, (7, 0), vec![222], loser));
        assert_eq!(
            (ctx.metrics_snapshot() - before).shuffle_write_bytes,
            0,
            "refused deposits charge nothing"
        );
        assert_eq!(fetch(&ctx, &svc, (7, 0)), Ok(vec![111]));
        // Once the winner's incarnation is dead its registration no longer
        // holds the slot: the replay's commit wins.
        ctx.kill_executor(0);
        assert!(commit(&ctx, &svc, (7, 0), vec![333], loser));
        assert_eq!(fetch(&ctx, &svc, (7, 0)), Ok(vec![333]));
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
        assert_eq!(fetch(&ctx, &svc, (6, 0)), Ok(vec![0]));
        assert_eq!(fetch(&ctx, &svc, (6, 1)), gone(6, 1));
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
        assert_eq!(fetch(&ctx, &svc, (6, 1)), gone(6, 1));
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
        assert_eq!(svc.try_claim(1), ShuffleClaim::Owner);
    }

    #[test]
    fn abandon_drops_the_aborted_attempts_partial_blocks() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        assert_eq!(svc.try_claim(4), ShuffleClaim::Owner);
        // The owner's map tasks deposit some output, then the job aborts.
        assert!(commit(
            &ctx,
            &svc,
            (4, 0),
            vec![1, 2, 3],
            BlockOrigin::DRIVER
        ));
        // An unrelated completed shuffle must survive the abandon.
        assert!(commit(&ctx, &svc, (5, 0), vec![9], BlockOrigin::DRIVER));
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

    /// A callback subscribed on one thread fires from the thread that
    /// completes the stage.
    #[test]
    fn waiters_wake_on_completion() {
        let svc = Arc::new(ShuffleService::default());
        assert_eq!(svc.try_claim(2), ShuffleClaim::Owner);
        let (tx, rx) = crate::sync::channel::unbounded();
        svc.subscribe(2, Box::new(move |done| tx.send(done).unwrap()));
        let owner = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.mark_completed(2, 1))
        };
        assert!(rx.recv().unwrap(), "waiter must see completion");
        owner.join().unwrap();
    }

    /// The historical check-then-act race: two schedulers checking
    /// "completed?" before running would both run the map stage. With the
    /// claim API exactly one of N concurrent claimants owns the stage, no
    /// matter the interleaving.
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

    #[test]
    fn mark_completed_reports_unregistered_maps() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        assert_eq!(svc.mark_completed(9, 3), vec![0, 1, 2]);
        assert!(commit(&ctx, &svc, (9, 1), vec![], BlockOrigin::DRIVER));
        assert_eq!(svc.mark_completed(9, 3), vec![0, 2]);
    }

    #[test]
    fn registered_empty_buckets_stay_empty_fetches() {
        let ctx = SpangleContext::new(1);
        let svc = ShuffleService::default();
        assert!(commit(&ctx, &svc, (2, 0), vec![], BlockOrigin::DRIVER));
        svc.mark_completed(2, 1);
        assert_eq!(fetch(&ctx, &svc, (2, 0)), Ok(vec![]));
    }

    #[test]
    fn lost_map_output_raises_fetch_failed() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        seed_two_map_shuffle(&ctx, &svc, 6);
        let (dropped, bytes) = svc.discard_executor(1);
        assert_eq!((dropped, bytes), (1, 8));
        // The surviving map's block still fetches; the lost one raises a
        // typed fetch failure, not an empty vec.
        assert_eq!(fetch(&ctx, &svc, (6, 0)), Ok(vec![0]));
        assert_eq!(fetch(&ctx, &svc, (6, 1)), gone(6, 1));
    }

    #[test]
    fn recovery_is_claimed_once_and_keeps_survivors() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        seed_two_map_shuffle(&ctx, &svc, 3);
        svc.discard_executor(0);
        assert_eq!(
            svc.claim_recovery(3, 2),
            // map 1's block survived; only map 0 is re-run
            RecoveryClaim::Owner { missing: vec![0] }
        );
        assert_eq!(
            svc.claim_recovery(3, 2),
            RecoveryClaim::InFlight,
            "one owner per recovery round"
        );
        assert_eq!(svc.resident_bytes(), 8, "survivor block kept");
        // The owner re-runs the missing map and closes the stage again.
        assert!(commit(
            &ctx,
            &svc,
            (3, 0),
            vec![7],
            BlockOrigin::executor(1, 0)
        ));
        assert!(svc.mark_completed(3, 2).is_empty());
        assert_eq!(svc.claim_recovery(3, 2), RecoveryClaim::Recovered);
        assert_eq!(fetch(&ctx, &svc, (3, 0)), Ok(vec![7]));
    }

    /// Bugfix regression: a job that aborts while it owns a shuffle's
    /// *recovery* abandons it, which drops the surviving maps' blocks too.
    /// A concurrent job's reduce task still reading a survivor used to get
    /// an empty bucket — "abandoned" was encoded as absence, which the
    /// fetch could not tell from a test-seeded shuffle — and settle with
    /// records missing. It must fail typed so that job recovers instead.
    #[test]
    fn a_fetch_after_an_abandoned_recovery_fails_typed() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        seed_two_map_shuffle(&ctx, &svc, 3);
        svc.discard_executor(0);
        assert_eq!(
            svc.claim_recovery(3, 2),
            RecoveryClaim::Owner { missing: vec![0] }
        );
        svc.abandon(3);
        assert_eq!(
            fetch(&ctx, &svc, (3, 1)),
            gone(3, 1),
            "the survivor's bucket held [1]; it is gone, not empty"
        );
        assert_eq!(
            svc.claim_recovery(3, 2),
            RecoveryClaim::Owner {
                missing: vec![0, 1]
            },
            "the reader's scheduler re-runs the whole stage"
        );
    }

    /// One shuffle walked through every state, asserting at each step what
    /// a claimant, a subscriber, a recovery claimant and a reader are
    /// told. No threads, no sleeps. Map 0 writes `[10]`, map 1 registers
    /// an empty bucket, map 2 never exists.
    #[test]
    fn every_state_answers_claims_subscriptions_and_fetches() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        let subscribed = |svc: &ShuffleService| {
            let (tx, rx) = crate::sync::channel::unbounded();
            // A parked callback outlives `rx`; its late send just fails.
            svc.subscribe(
                1,
                Box::new(move |done| {
                    let _ = tx.send(done);
                }),
            );
            rx.try_recv().ok()
        };
        let reads = |svc: &ShuffleService| [0, 1, 2].map(|map| fetch(&ctx, svc, (1, map)));
        let all_gone = [gone(1, 0), gone(1, 1), gone(1, 2)];
        let whole = [Ok(vec![10]), Ok(vec![]), gone(1, 2)];

        // Never seen: nobody owns it, nothing can be read.
        assert_eq!(subscribed(&svc), Some(false));
        assert_eq!(reads(&svc), all_gone);

        // Unclaimed -> InFlight.
        assert_eq!(svc.try_claim(1), ShuffleClaim::Owner);
        assert_eq!(svc.try_claim(1), ShuffleClaim::InFlight);
        assert_eq!(svc.claim_recovery(1, 2), RecoveryClaim::InFlight);
        assert_eq!(subscribed(&svc), None, "parked until the stage resolves");
        assert!(commit(
            &ctx,
            &svc,
            (1, 0),
            vec![10],
            BlockOrigin::executor(0, 0)
        ));
        assert_eq!(reads(&svc), [Ok(vec![10]), gone(1, 1), gone(1, 2)]);

        // InFlight -> Unclaimed (abandon) -> InFlight again, from scratch.
        svc.abandon(1);
        assert_eq!(reads(&svc), all_gone);
        assert_eq!(subscribed(&svc), Some(false));
        assert_eq!(svc.try_claim(1), ShuffleClaim::Owner);
        assert!(commit(
            &ctx,
            &svc,
            (1, 0),
            vec![10],
            BlockOrigin::executor(0, 0)
        ));
        assert!(commit(
            &ctx,
            &svc,
            (1, 1),
            vec![],
            BlockOrigin::executor(1, 0)
        ));

        // InFlight -> Completed.
        assert!(svc.mark_completed(1, 2).is_empty());
        assert_eq!(svc.try_claim(1), ShuffleClaim::Completed);
        assert_eq!(subscribed(&svc), Some(true));
        assert_eq!(svc.claim_recovery(1, 2), RecoveryClaim::Recovered);
        assert_eq!(reads(&svc), whole);

        // Completed, with holes: still `Completed` to a claimant, typed to
        // a reader of the hole, the survivor readable.
        ctx.kill_executor(1);
        svc.discard_executor(1);
        assert_eq!(svc.try_claim(1), ShuffleClaim::Completed);
        assert_eq!(reads(&svc), [Ok(vec![10]), gone(1, 1), gone(1, 2)]);

        // Completed -> recovery InFlight -> Completed.
        assert_eq!(
            svc.claim_recovery(1, 2),
            RecoveryClaim::Owner { missing: vec![1] }
        );
        assert_eq!(svc.try_claim(1), ShuffleClaim::InFlight);
        assert_eq!(subscribed(&svc), None);
        assert_eq!(reads(&svc)[0], Ok(vec![10]), "survivors stay readable");
        assert!(commit(
            &ctx,
            &svc,
            (1, 1),
            vec![],
            BlockOrigin::executor(1, 1)
        ));
        assert!(svc.mark_completed(1, 2).is_empty());
        assert_eq!(reads(&svc), whole);

        // -> Removed: terminal for readers and depositors.
        svc.remove_shuffle(1);
        assert_eq!(subscribed(&svc), Some(false));
        assert_eq!(reads(&svc), all_gone);
        assert!(!commit(
            &ctx,
            &svc,
            (1, 0),
            vec![10],
            BlockOrigin::executor(0, 0)
        ));
        assert_eq!(svc.num_blocks(), 0);
    }

    #[test]
    fn stale_incarnation_deposits_are_refused() {
        let ctx = SpangleContext::new(2);
        let svc = ShuffleService::default();
        let stale = BlockOrigin::executor(0, 0);
        ctx.inner.pool.kill(0);
        let before = ctx.metrics_snapshot();
        assert!(!commit(&ctx, &svc, (1, 0), vec![1], stale));
        assert_eq!(svc.num_blocks(), 0, "dead incarnations cannot deposit");
        assert_eq!((ctx.metrics_snapshot() - before).shuffle_write_bytes, 0);
        assert_eq!(svc.mark_completed(1, 1), vec![0], "nor register output");
    }
}
