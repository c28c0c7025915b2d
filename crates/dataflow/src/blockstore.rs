//! The tiered block store under both the shuffle service and the block
//! manager.
//!
//! Blocks live in one of two tiers. They are deposited *resident* (the
//! records stay on the heap behind an `Arc`, read zero-copy) and may be
//! demoted to *spilled* (encoded with the [`crate::MemSize`] block codec
//! into a framed, checksummed spill file, heap bytes freed) when resident
//! cache + shuffle memory crosses the admission watermark — see
//! [`SpangleContext`]'s `enforce_memory_watermark`. A [`TieredStore::get`]
//! that touches a spilled block *rehydrates* it: the file is read back,
//! verified, decoded and reinstated as resident — as a *clean copy* that
//! keeps its file, so each block is encoded and written at most once.
//! Spill victims are clean copies first (demoting one only drops its heap
//! bytes: no encode, no write), then the least recently read by a touch
//! clock that every read bumps. A block's file goes when the block does.
//! Blocks whose element type opted out of the codec simply stay resident —
//! spilling is an optimization, never a correctness requirement.
//!
//! This module is the only code that sees a block's tier, charges the
//! spill metrics, or knows the rehydrate race. Its two users keep what is
//! theirs: [`crate::shuffle::ShuffleService`] the map-stage claims, output
//! registry and tombstones, [`crate::cache::BlockManager`] the cache keys
//! and eviction — and each decides what a [`Fetched::Torn`] read means.

use crate::executor::BlockOrigin;
use crate::metrics::MetricField;
use crate::spill::{SpillCodec, SpillStore};
use crate::sync::RwLock;
use crate::{Data, SpangleContext};
use std::any::Any;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A type-erased block payload: an `Arc<Vec<T>>` for the depositor's `T`.
pub(crate) type Block = Arc<dyn Any + Send + Sync>;

/// Where one block's records currently live.
enum StoredBlock {
    /// On the heap; reads clone the `Arc`, not the records. `copy` is the
    /// spill file `(file, disk_len)` a rehydrated block was read from,
    /// kept so demoting the block again writes nothing.
    Resident {
        block: Block,
        copy: Option<(u64, usize)>,
    },
    /// Encoded in the spill store; `disk_len` is the framed file size.
    Spilled { file: u64, disk_len: usize },
}

impl StoredBlock {
    /// The spill file holding this block's records, in either tier.
    fn file(&self) -> Option<(u64, usize)> {
        match *self {
            StoredBlock::Resident { copy, .. } => copy,
            StoredBlock::Spilled { file, disk_len } => Some((file, disk_len)),
        }
    }
}

/// One block with its tier, accounting, and spill identity.
struct Entry {
    data: StoredBlock,
    /// Deep size of the records (the logical, in-memory size — counted in
    /// `resident` while resident).
    bytes: usize,
    origin: BlockOrigin,
    /// Captured at deposit, where the element type is still concrete.
    /// `None` means the type opted out of spilling: pinned resident.
    codec: Option<SpillCodec>,
    /// Last-read tick; spilling evicts the smallest first.
    touch: AtomicU64,
}

/// Outcome of [`TieredStore::get`].
pub(crate) enum Fetched {
    /// The block, resident (possibly just rehydrated), with its deep size.
    Hit { block: Block, bytes: usize },
    /// No block under the key.
    Absent,
    /// The block was spilled and its file is torn or unreadable: the
    /// entry and file are gone, and the caller decides what losing it
    /// means.
    Torn,
}

/// A keyed block map with a resident tier, an on-disk spill tier, O(1)
/// byte accounting and an LRU clock.
pub(crate) struct TieredStore<K> {
    blocks: RwLock<HashMap<K, Entry>>,
    /// Bytes of the `Resident` tier, maintained under the `blocks` write
    /// lock on every insert/remove/tier-flip, so reading it is an O(1)
    /// load instead of a map walk per deposit.
    resident: AtomicUsize,
    /// Framed bytes of this store's spill files — spilled blocks and the
    /// clean copies of rehydrated ones (the spill directory may be shared
    /// with another store).
    disk: AtomicUsize,
    /// Monotone read clock feeding each entry's `touch`.
    clock: AtomicU64,
    spill: Arc<SpillStore>,
}

impl<K> Default for TieredStore<K> {
    fn default() -> Self {
        TieredStore::new(Arc::default())
    }
}

impl<K> TieredStore<K> {
    /// An empty store spilling into `spill`.
    pub(crate) fn new(spill: Arc<SpillStore>) -> Self {
        TieredStore {
            blocks: RwLock::default(),
            resident: AtomicUsize::new(0),
            disk: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            spill,
        }
    }

    /// Bytes currently resident in memory. Spilled blocks do not count —
    /// their heap bytes were the point of spilling.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Bytes this store currently holds on disk (framed file sizes),
    /// clean copies of resident blocks included.
    pub(crate) fn disk_bytes(&self) -> usize {
        self.disk.load(Ordering::Relaxed)
    }

    /// Number of blocks stored (both tiers).
    pub(crate) fn len(&self) -> usize {
        self.blocks.read().len()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Asserts the O(1) resident and disk counters against the
    /// ground-truth walk. Called in debug builds by every mutating
    /// operation *while still holding the blocks write lock* — the
    /// counters only move under that lock, so the comparison is exact,
    /// never racy.
    fn check_counters(&self, blocks: &HashMap<K, Entry>) {
        debug_assert_eq!(
            self.resident.load(Ordering::Relaxed),
            blocks
                .values()
                .filter(|e| matches!(e.data, StoredBlock::Resident { .. }))
                .map(|e| e.bytes)
                .sum::<usize>(),
            "resident-bytes counter drifted from the block map"
        );
        debug_assert_eq!(
            self.disk.load(Ordering::Relaxed),
            blocks
                .values()
                .filter_map(|e| e.data.file())
                .map(|(_, disk_len)| disk_len)
                .sum::<usize>(),
            "disk-bytes counter drifted from the block map"
        );
    }

    /// Releases one entry's accounting: resident bytes for the in-memory
    /// tier, and the spill file of either tier — a spilled block's or a
    /// resident block's clean copy. Caller holds the blocks write lock.
    fn release(&self, entry: &Entry) {
        if let StoredBlock::Resident { .. } = entry.data {
            self.resident.fetch_sub(entry.bytes, Ordering::Relaxed);
        }
        if let Some((file, disk_len)) = entry.data.file() {
            self.spill.remove(file);
            self.disk.fetch_sub(disk_len, Ordering::Relaxed);
        }
    }
}

impl<K: Copy + Eq + Hash> TieredStore<K> {
    /// Deposits resident blocks as one unit (a reader sees all or none),
    /// replacing any block — of either tier — already under a key. `bytes`
    /// is each block's deep size. Resident memory grew, so the watermark
    /// gets a chance to demote colder blocks before this returns.
    pub(crate) fn put_many<T: Data>(
        &self,
        ctx: &SpangleContext,
        deposits: impl IntoIterator<Item = (K, Arc<Vec<T>>, usize)>,
        origin: BlockOrigin,
    ) {
        let codec = SpillCodec::of::<T>();
        {
            let mut blocks = self.blocks.write();
            for (key, records, bytes) in deposits {
                let entry = Entry {
                    data: StoredBlock::Resident {
                        block: records,
                        copy: None,
                    },
                    bytes,
                    origin,
                    codec,
                    touch: AtomicU64::new(self.tick()),
                };
                self.resident.fetch_add(bytes, Ordering::Relaxed);
                if let Some(old) = blocks.insert(key, entry) {
                    self.release(&old);
                }
            }
            self.check_counters(&blocks);
        }
        ctx.enforce_memory_watermark();
    }

    /// Looks a block up, rehydrating it transparently when it is spilled.
    pub(crate) fn get(&self, ctx: &SpangleContext, key: &K) -> Fetched {
        loop {
            let (file, codec) = match self.lookup(key) {
                Ok(found) => return found,
                Err(spilled) => spilled,
            };
            // Disk read and decode run outside all locks.
            let decoded = self
                .spill
                .read(file)
                .and_then(|payload| codec.decode(&payload));
            if let Some(outcome) = self.reinstate(key, file, decoded) {
                if matches!(outcome, Fetched::Hit { .. }) {
                    ctx.metrics().add(MetricField::BlocksRehydrated, 1);
                    // Rehydrating grew the resident tier; let the watermark
                    // demote a colder block in exchange if memory is tight.
                    ctx.enforce_memory_watermark();
                }
                return outcome;
            }
        }
    }

    /// Fast path under the read lock: a resident hit or a miss is final;
    /// a spilled entry yields the file identity to rehydrate from.
    fn lookup(&self, key: &K) -> Result<Fetched, (u64, SpillCodec)> {
        let blocks = self.blocks.read();
        let Some(entry) = blocks.get(key) else {
            return Ok(Fetched::Absent);
        };
        match &entry.data {
            StoredBlock::Resident { block, .. } => {
                entry.touch.store(self.tick(), Ordering::Relaxed);
                Ok(Fetched::Hit {
                    block: block.clone(),
                    bytes: entry.bytes,
                })
            }
            StoredBlock::Spilled { file, .. } => {
                Err((*file, entry.codec.expect("spilled block without a codec")))
            }
        }
    }

    /// Installs what a rehydrator decoded from spill file `file`, keeping
    /// the file as the block's clean copy. `None` means the entry changed
    /// since [`TieredStore::lookup`] — another rehydrator or a re-deposit
    /// won the race — and the caller looks up again.
    fn reinstate(&self, key: &K, file: u64, decoded: Option<Block>) -> Option<Fetched> {
        let mut blocks = self.blocks.write();
        let Some(entry) = blocks.get_mut(key) else {
            return Some(Fetched::Absent);
        };
        let disk_len = match entry.data {
            StoredBlock::Spilled { file: f, disk_len } if f == file => disk_len,
            _ => return None,
        };
        let Some(block) = decoded else {
            let entry = blocks.remove(key).expect("entry checked above");
            self.release(&entry);
            self.check_counters(&blocks);
            return Some(Fetched::Torn);
        };
        entry.data = StoredBlock::Resident {
            block: block.clone(),
            copy: Some((file, disk_len)),
        };
        entry.touch.store(self.tick(), Ordering::Relaxed);
        let bytes = entry.bytes;
        self.resident.fetch_add(bytes, Ordering::Relaxed);
        self.check_counters(&blocks);
        Some(Fetched::Hit { block, bytes })
    }

    /// Removes one block (either tier). Returns whether it was present.
    pub(crate) fn remove(&self, key: &K) -> bool {
        let mut blocks = self.blocks.write();
        let removed = blocks.remove(key);
        if let Some(entry) = &removed {
            self.release(entry);
            self.check_counters(&blocks);
        }
        removed.is_some()
    }

    /// Keeps only the blocks `keep` approves, releasing the others'
    /// resident bytes and spill files. Returns `(blocks_dropped,
    /// bytes_dropped)`, counting logical record bytes for both tiers.
    pub(crate) fn retain(&self, mut keep: impl FnMut(&K, BlockOrigin) -> bool) -> (usize, usize) {
        let mut blocks = self.blocks.write();
        let before = blocks.len();
        let mut bytes_dropped = 0;
        blocks.retain(|key, entry| {
            let keep = keep(key, entry.origin);
            if !keep {
                bytes_dropped += entry.bytes;
                self.release(entry);
            }
            keep
        });
        self.check_counters(&blocks);
        (before - blocks.len(), bytes_dropped)
    }

    /// Visits every block's key and deep size (both tiers).
    pub(crate) fn for_each_size(&self, mut visit: impl FnMut(&K, usize)) {
        for (key, entry) in self.blocks.read().iter() {
            visit(key, entry.bytes);
        }
    }

    /// Demotes resident blocks to the disk tier until roughly `need`
    /// resident bytes are freed (or no spillable candidates remain).
    /// Victims are clean copies first — demoting one drops its heap bytes
    /// and keeps its file, writing nothing — then least-recently-read
    /// first. Only dirty victims are encoded, written and counted as
    /// spilled. Returns the bytes actually freed. Blocks without a codec
    /// are skipped; an IO error stops the sweep (memory pressure is
    /// better than cascading disk failures).
    pub(crate) fn spill_up_to(&self, ctx: &SpangleContext, need: usize) -> usize {
        let mut freed = 0usize;
        let mut spilled_blocks = 0u64;
        let mut spilled_disk = 0usize;
        {
            let mut blocks = self.blocks.write();
            // Sort key: dirty after clean, then by touch.
            let mut candidates: Vec<(K, (bool, u64))> = blocks
                .iter()
                .filter_map(|(key, e)| match e.data {
                    StoredBlock::Resident { copy, .. } if e.codec.is_some() => {
                        Some((*key, (copy.is_none(), e.touch.load(Ordering::Relaxed))))
                    }
                    _ => None,
                })
                .collect();
            candidates.sort_unstable_by_key(|&(_, order)| order);
            for (key, _) in candidates {
                if freed >= need {
                    break;
                }
                let entry = blocks.get_mut(&key).expect("candidate under write lock");
                let (StoredBlock::Resident { block, copy }, Some(codec)) =
                    (&entry.data, entry.codec)
                else {
                    unreachable!("candidates are resident and carry a codec");
                };
                let (file, disk_len) = match *copy {
                    Some(clean) => clean,
                    None => {
                        let payload = codec.encode(block.as_ref(), entry.bytes);
                        let Ok((file, disk_len)) = self.spill.write(&payload) else {
                            break;
                        };
                        self.disk.fetch_add(disk_len, Ordering::Relaxed);
                        spilled_blocks += 1;
                        spilled_disk += disk_len;
                        (file, disk_len)
                    }
                };
                entry.data = StoredBlock::Spilled { file, disk_len };
                self.resident.fetch_sub(entry.bytes, Ordering::Relaxed);
                freed += entry.bytes;
            }
            self.check_counters(&blocks);
        }
        if spilled_blocks > 0 {
            ctx.metrics()
                .add(MetricField::BlocksSpilled, spilled_blocks);
            ctx.metrics()
                .add(MetricField::SpillBytes, spilled_disk as u64);
            ctx.metrics().raise(
                MetricField::DiskResidentBytes,
                ctx.disk_resident_bytes() as u64,
            );
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;

    type Records = Vec<(u64, f64)>;

    fn records(seed: u64) -> Arc<Records> {
        Arc::new((0..50).map(|i| (seed + i, i as f64 * 1.5)).collect())
    }

    /// A store of `n` 800-byte blocks keyed `0..n`, deposited in key order.
    fn store_of(ctx: &SpangleContext, n: u32) -> TieredStore<u32> {
        let store = TieredStore::default();
        for key in 0..n {
            store.put_many(ctx, [(key, records(key as u64), 800)], BlockOrigin::DRIVER);
        }
        store
    }

    fn hit(store: &TieredStore<u32>, ctx: &SpangleContext, key: u32) -> Arc<Records> {
        match store.get(ctx, &key) {
            Fetched::Hit { block, bytes } => {
                assert_eq!(bytes, 800);
                block.downcast::<Records>().expect("block type")
            }
            Fetched::Absent => panic!("block {key} absent"),
            Fetched::Torn => panic!("block {key} torn"),
        }
    }

    /// Every mutating op also runs the debug walk against the counter.
    #[test]
    fn accounting_tracks_put_replace_spill_rehydrate_and_remove() {
        let ctx = SpangleContext::new(1);
        let store = store_of(&ctx, 4);
        assert_eq!((store.resident_bytes(), store.len()), (3200, 4));
        // Replacing a block swaps its accounted size, not leaks it.
        store.put_many(&ctx, [(0, Arc::new(vec![9u64]), 8)], BlockOrigin::DRIVER);
        assert_eq!(store.resident_bytes(), 2408);

        let before = ctx.metrics_snapshot();
        assert_eq!(store.spill_up_to(&ctx, 1000), 1600, "two coldest demoted");
        assert_eq!(store.resident_bytes(), 808);
        assert_eq!(store.len(), 4, "spilled blocks stay readable");
        let spilled = ctx.metrics_snapshot() - before;
        assert_eq!(spilled.blocks_spilled, 2);
        assert_eq!(spilled.spill_bytes, store.disk_bytes() as u64);
        assert!(store.disk_bytes() > 1600, "framed, encoded sizes");

        // Replacing a *spilled* block releases its file.
        store.put_many(&ctx, [(1, records(1), 800)], BlockOrigin::DRIVER);
        assert_eq!(store.resident_bytes(), 1608);
        let one_file = store.disk_bytes();
        assert!(one_file > 0 && one_file < spilled.spill_bytes as usize);

        // Every block — spilled or resident — reads back bit-identically,
        // and two reads of a resident block alias instead of copying.
        for key in 1..4 {
            assert_eq!(hit(&store, &ctx, key), records(key as u64));
        }
        assert!(Arc::ptr_eq(&hit(&store, &ctx, 2), &hit(&store, &ctx, 2)));
        assert_eq!((ctx.metrics_snapshot() - before).blocks_rehydrated, 1);
        assert_eq!(
            store.resident_bytes(),
            2408,
            "rehydration restores the tier"
        );
        assert_eq!(
            store.disk_bytes(),
            one_file,
            "a rehydrated block keeps its file as a clean copy"
        );

        assert!(store.remove(&0) && !store.remove(&0));
        assert!(matches!(store.get(&ctx, &0), Fetched::Absent));
        assert_eq!(store.retain(|key, _| *key == 3), (2, 1600));
        assert_eq!((store.resident_bytes(), store.len()), (800, 1));
        assert_eq!((store.disk_bytes(), store.spill.files()), (0, 0));
    }

    #[test]
    fn spilling_takes_the_least_recently_read_block_first() {
        let ctx = SpangleContext::new(1);
        let store = store_of(&ctx, 3);
        // Touch block 0 so block 1 becomes the coldest.
        hit(&store, &ctx, 0);
        assert_eq!(store.spill_up_to(&ctx, 1), 800);
        let before = ctx.metrics_snapshot();
        hit(&store, &ctx, 0);
        hit(&store, &ctx, 2);
        assert_eq!((ctx.metrics_snapshot() - before).blocks_rehydrated, 0);
        hit(&store, &ctx, 1);
        assert_eq!((ctx.metrics_snapshot() - before).blocks_rehydrated, 1);
    }

    #[test]
    fn blocks_without_a_codec_are_skipped_by_the_sweep() {
        let ctx = SpangleContext::new(1);
        let store = TieredStore::default();
        let pinned = Arc::new(vec!["static strings have no stable byte form"]);
        store.put_many(&ctx, [(0u32, pinned, 64)], BlockOrigin::DRIVER);
        assert_eq!(store.spill_up_to(&ctx, usize::MAX), 0);
        assert_eq!((store.resident_bytes(), store.disk_bytes()), (64, 0));
    }

    /// The rehydrate race, interleaved by hand: a rehydrator that looked
    /// the spilled entry up, then lost to a second rehydrator or to a
    /// re-deposit, must notice and start over — never double-count the
    /// block or resurrect stale bytes.
    #[test]
    fn a_rehydrator_that_lost_the_race_starts_over() {
        let ctx = SpangleContext::new(1);
        let store = store_of(&ctx, 2);
        store.spill_up_to(&ctx, usize::MAX);
        let one_file = store.disk_bytes() / 2;
        let stale = |key: u32| {
            let Err((file, codec)) = store.lookup(&key) else {
                panic!("block {key} must be spilled");
            };
            let payload = store.spill.read(file).expect("spill file");
            (file, codec.decode(&payload))
        };

        // Lost to a second rehydrator.
        let (file, decoded) = stale(0);
        let winner = hit(&store, &ctx, 0);
        assert!(store.reinstate(&0, file, decoded).is_none());
        assert_eq!(store.resident_bytes(), 800, "counted once");
        assert!(Arc::ptr_eq(&hit(&store, &ctx, 0), &winner));

        // Lost to a re-deposit, then to a re-deposit that was itself
        // spilled again (same key, different file).
        let (file, decoded) = stale(1);
        store.put_many(&ctx, [(1, records(77), 800)], BlockOrigin::DRIVER);
        assert!(store.reinstate(&1, file, decoded.clone()).is_none());
        assert_eq!(hit(&store, &ctx, 1), records(77));
        store.spill_up_to(&ctx, usize::MAX);
        assert!(store.reinstate(&1, file, decoded.clone()).is_none());
        assert_eq!(hit(&store, &ctx, 1), records(77));

        // Lost to a removal.
        store.remove(&1);
        assert!(matches!(
            store.reinstate(&1, file, decoded),
            Some(Fetched::Absent)
        ));
        // Block 0 went back to its clean copy in that second sweep and
        // reads from it again; nothing leaked.
        assert_eq!(hit(&store, &ctx, 0), records(0));
        assert_eq!(
            (store.resident_bytes(), store.disk_bytes()),
            (800, one_file)
        );
        assert_eq!(store.spill.files(), 1);
    }

    /// The spill file of block `key`, in either tier.
    fn file_of(store: &TieredStore<u32>, key: u32) -> Option<(u64, usize)> {
        store.blocks.read().get(&key).and_then(|e| e.data.file())
    }

    #[test]
    fn re_demoting_a_rehydrated_block_writes_nothing_but_frees_its_bytes() {
        let ctx = SpangleContext::new(1);
        let store = store_of(&ctx, 2);
        store.spill_up_to(&ctx, usize::MAX);
        let on_disk = store.disk_bytes();
        hit(&store, &ctx, 0);
        let copy = file_of(&store, 0).expect("a rehydrated block keeps its file");

        let before = ctx.metrics_snapshot();
        assert_eq!(store.spill_up_to(&ctx, usize::MAX), 800);
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!((delta.blocks_spilled, delta.spill_bytes), (0, 0));
        assert_eq!((store.resident_bytes(), store.disk_bytes()), (0, on_disk));
        assert_eq!(
            file_of(&store, 0),
            Some(copy),
            "the same file, not a new one"
        );
        assert_eq!(store.spill.files(), 2);

        // And it reads back from that file, bit-identically.
        assert_eq!(hit(&store, &ctx, 0), records(0));
        assert_eq!((ctx.metrics_snapshot() - before).blocks_rehydrated, 1);
    }

    #[test]
    fn a_clean_block_is_demoted_before_a_dirty_one_whatever_their_touch() {
        for clean_read_last in [true, false] {
            let ctx = SpangleContext::new(1);
            let store = store_of(&ctx, 2);
            store.spill_up_to(&ctx, 1);
            hit(&store, &ctx, 0);
            if !clean_read_last {
                hit(&store, &ctx, 1);
            }
            // Block 0 is clean; block 1 is dirty and, unless read above,
            // the less recently read of the two.
            let before = ctx.metrics_snapshot();
            assert_eq!(store.spill_up_to(&ctx, 1), 800);
            assert_eq!((ctx.metrics_snapshot() - before).blocks_spilled, 0);
            assert!(matches!(
                store.blocks.read()[&0].data,
                StoredBlock::Spilled { .. }
            ));
            assert_eq!(file_of(&store, 1), None, "the dirty block stayed resident");
        }
    }

    #[test]
    fn replace_remove_and_retain_delete_a_clean_copy() {
        let ctx = SpangleContext::new(1);
        let store = store_of(&ctx, 4);
        store.spill_up_to(&ctx, usize::MAX);
        for key in 0..4 {
            hit(&store, &ctx, key);
        }
        assert_eq!((store.resident_bytes(), store.spill.files()), (3200, 4));
        let one_file = store.disk_bytes() / 4;

        store.put_many(&ctx, [(0, records(9), 800)], BlockOrigin::DRIVER);
        assert_eq!((store.disk_bytes(), store.spill.files()), (3 * one_file, 3));
        assert!(store.remove(&1));
        assert_eq!((store.disk_bytes(), store.spill.files()), (2 * one_file, 2));
        assert_eq!(store.retain(|key, _| *key == 0), (2, 1600));
        assert_eq!((store.disk_bytes(), store.spill.files()), (0, 0));
        assert_eq!(store.resident_bytes(), 800);
    }

    #[test]
    fn a_copy_torn_after_its_re_demotion_reads_torn() {
        let ctx = SpangleContext::new(1);
        let store = store_of(&ctx, 2);
        store.spill_up_to(&ctx, usize::MAX);
        hit(&store, &ctx, 0);
        store.spill_up_to(&ctx, usize::MAX);
        store.spill.tear_files();
        assert!(matches!(store.get(&ctx, &0), Fetched::Torn));
        assert_eq!((store.len(), store.spill.files()), (1, 1));
        assert!(matches!(store.get(&ctx, &0), Fetched::Absent));
        assert!(matches!(store.get(&ctx, &1), Fetched::Torn));
        assert_eq!((store.resident_bytes(), store.disk_bytes()), (0, 0));
        assert_eq!(store.spill.files(), 0);
        assert_eq!(ctx.metrics_snapshot().blocks_rehydrated, 1);
    }

    #[test]
    fn a_torn_file_reads_torn_and_releases_entry_and_file() {
        let ctx = SpangleContext::new(1);
        let store = store_of(&ctx, 2);
        store.spill_up_to(&ctx, usize::MAX);
        store.spill.tear_files();
        assert!(matches!(store.get(&ctx, &0), Fetched::Torn));
        assert_eq!(store.len(), 1);
        assert!(matches!(store.get(&ctx, &0), Fetched::Absent));
        assert!(matches!(store.get(&ctx, &1), Fetched::Torn));
        assert_eq!((store.resident_bytes(), store.disk_bytes()), (0, 0));
        assert_eq!(ctx.metrics_snapshot().blocks_rehydrated, 0);
    }

    #[test]
    fn retain_deletes_the_spilled_files_of_a_discarded_executor() {
        let ctx = SpangleContext::new(2);
        let store = TieredStore::default();
        for key in 0..4u32 {
            let origin = BlockOrigin::executor(key as usize % 2, 0);
            store.put_many(&ctx, [(key, records(key as u64), 800)], origin);
        }
        store.spill_up_to(&ctx, usize::MAX);
        let on_disk = store.disk_bytes();
        assert_eq!(
            store.retain(|_, origin| !origin.lives_on(1)),
            (2, 1600),
            "spilled blocks count with their logical bytes"
        );
        assert_eq!(store.disk_bytes(), on_disk / 2);
        assert!(matches!(store.get(&ctx, &1), Fetched::Absent));
        assert_eq!(hit(&store, &ctx, 2), records(2));
    }

    /// Bugfix regression: the cache's copy of the rehydrate path forgot to
    /// raise the high-water mark. Every growth of resident bytes — deposit
    /// or rehydration, either store — now ends in the one enforcement
    /// point, which records the peak after shedding.
    #[test]
    fn every_growth_of_resident_bytes_raises_the_high_water_mark() {
        let ctx = SpangleContext::new(1);
        let peak = || ctx.metrics_snapshot().memory_highwater_bytes;
        let cache = &ctx.inner.cache;
        let key = |partition| CacheKey {
            rdd_id: 0,
            partition,
        };
        cache.put(&ctx, key(0), records(0), 800, BlockOrigin::DRIVER);
        assert_eq!(peak(), 800);
        cache.spill_up_to(&ctx, usize::MAX);
        cache.put(&ctx, key(1), records(1), 800, BlockOrigin::DRIVER);
        assert_eq!(peak(), 800, "the first block is on disk");
        assert!(cache.get::<(u64, f64)>(&ctx, key(0)).is_some());
        assert_eq!(peak(), 1600, "rehydration grew the resident tier");

        // Under a watermark the mark is taken after enforcement: the
        // deposit that crosses it is shed to 3/4 before the peak is read.
        let tight = SpangleContext::builder()
            .executors(1)
            .memory_high_watermark_bytes(2000)
            .build();
        for partition in 0..3 {
            tight
                .inner
                .cache
                .put(&tight, key(partition), records(0), 800, BlockOrigin::DRIVER);
        }
        assert_eq!(tight.cached_bytes(), 800);
        assert_eq!(tight.metrics_snapshot().memory_highwater_bytes, 1600);
    }
}
