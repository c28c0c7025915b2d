//! The driver-side entry point: a handle on the simulated cluster.

use crate::cache::BlockManager;
use crate::env::env_parse;
use crate::executor::ExecutorPool;
use crate::failure::FailureInjector;
use crate::memsize::MemSize;
use crate::metrics::{MetricField, Metrics, MetricsSnapshot};
use crate::rdd::sources::ParallelizeRdd;
use crate::rdd::Rdd;
use crate::scheduler::SchedulerService;
use crate::shuffle::ShuffleService;
use crate::spill::SpillStore;
use crate::Data;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared state of one simulated cluster.
pub(crate) struct ContextInner {
    /// Declared before `pool` so the driver loop shuts down and joins
    /// before the executor workers do on drop.
    pub(crate) scheduler: SchedulerService,
    pub(crate) pool: ExecutorPool,
    pub(crate) shuffle: ShuffleService,
    pub(crate) cache: BlockManager,
    /// Shared with every job's attempt ledger.
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) failures: FailureInjector,
    next_rdd_id: AtomicUsize,
    next_shuffle_id: AtomicUsize,
    next_stage_id: AtomicUsize,
    next_job_id: AtomicUsize,
    /// The configuration the cluster was built from, kept whole: every
    /// reader — each job's attempt ledger included — reads this one value.
    pub(crate) config: Arc<SpangleContextBuilder>,
}

/// A handle on the simulated cluster; the analogue of Spark's
/// `SparkContext`. Cloning is cheap and shares the cluster.
#[derive(Clone)]
pub struct SpangleContext {
    pub(crate) inner: Arc<ContextInner>,
}

/// Configures and starts a [`SpangleContext`]; obtained from
/// [`SpangleContext::builder`].
///
/// ```
/// use spangle_dataflow::SpangleContext;
///
/// let ctx = SpangleContext::builder()
///     .executors(4)
///     .max_task_attempts(2)
///     .max_resubmissions(8)
///     .memory_high_watermark_bytes(64 << 20)
///     .build();
/// assert_eq!(ctx.num_executors(), 4);
/// assert_eq!(ctx.max_task_attempts(), 2);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SpangleContextBuilder {
    executors: usize,
    /// Maximum attempts per task before the job fails.
    pub(crate) max_task_attempts: usize,
    /// Per-job budget of executor-loss / fetch-failure resubmissions
    /// before the job aborts.
    pub(crate) max_resubmissions: usize,
    /// Resident cache + shuffle bytes above which cold blocks spill to
    /// disk.
    memory_high_watermark_bytes: usize,
}

impl Default for SpangleContextBuilder {
    fn default() -> Self {
        SpangleContextBuilder {
            executors: 2,
            max_task_attempts: 4,
            max_resubmissions: 16,
            // `SPANGLE_MEMORY_WATERMARK_BYTES` seeds the watermark default
            // so a whole test/bench run can be forced under memory pressure
            // without touching code; an explicit builder call still wins
            // (it is applied after this default).
            memory_high_watermark_bytes: env_parse("SPANGLE_MEMORY_WATERMARK_BYTES")
                .unwrap_or(usize::MAX),
        }
    }
}

impl SpangleContextBuilder {
    /// Number of single-threaded executors in the cluster (default 2).
    pub fn executors(mut self, num_executors: usize) -> Self {
        self.executors = num_executors;
        self
    }

    /// Maximum attempts per task before the job aborts (default 4).
    pub fn max_task_attempts(mut self, attempts: usize) -> Self {
        assert!(attempts > 0, "a task needs at least one attempt");
        self.max_task_attempts = attempts;
        self
    }

    /// Per-job budget of recovery resubmissions — attempts replayed after
    /// an executor loss or a fetch failure, which do not charge the
    /// per-task attempt budget — before the job aborts instead of chasing
    /// a permanently poisoned shuffle (default 16).
    pub fn max_resubmissions(mut self, resubmissions: usize) -> Self {
        self.max_resubmissions = resubmissions;
        self
    }

    /// Spill threshold in bytes, compared against `cached_bytes() +
    /// shuffle_resident_bytes()` at every growth of resident memory
    /// (default unbounded; the `SPANGLE_MEMORY_WATERMARK_BYTES`
    /// environment variable overrides the default, an explicit call here
    /// wins). Crossing it demotes the least-recently-fetched shuffle
    /// blocks and cached partitions to accounted spill files, which are
    /// rehydrated on demand. Blocks without a spill codec stay resident:
    /// the watermark never holds back a job.
    pub fn memory_high_watermark_bytes(mut self, bytes: usize) -> Self {
        self.memory_high_watermark_bytes = bytes;
        self
    }

    /// Starts the cluster.
    pub fn build(self) -> SpangleContext {
        let pool = ExecutorPool::new(self.executors);
        // Every thread is spawned before the spill store's temp-dir sweep:
        // which malloc arena a new thread inherits from a retired context
        // is a race the sweep's syscalls otherwise tilt (peak RSS +25 MB).
        let scheduler = SchedulerService::new();
        // One spill directory for both block stores.
        let spill = Arc::new(SpillStore::default());
        SpangleContext {
            inner: Arc::new(ContextInner {
                scheduler,
                pool,
                shuffle: ShuffleService::new(Arc::clone(&spill)),
                cache: BlockManager::new(spill),
                metrics: Arc::default(),
                failures: FailureInjector::default(),
                next_rdd_id: AtomicUsize::new(0),
                next_shuffle_id: AtomicUsize::new(0),
                next_stage_id: AtomicUsize::new(0),
                next_job_id: AtomicUsize::new(0),
                config: Arc::new(self),
            }),
        }
    }
}

impl SpangleContext {
    /// Starts a cluster of `num_executors` single-threaded executors with
    /// default settings; see [`SpangleContext::builder`] for the knobs.
    pub fn new(num_executors: usize) -> Self {
        SpangleContext::builder().executors(num_executors).build()
    }

    /// A builder for a cluster with non-default fault-tolerance or
    /// observability settings.
    pub fn builder() -> SpangleContextBuilder {
        SpangleContextBuilder::default()
    }

    /// Maximum attempts per task before a job aborts, as configured at
    /// build time.
    pub fn max_task_attempts(&self) -> usize {
        self.config().max_task_attempts
    }

    /// The configuration the cluster was built from (fixed at build time).
    pub(crate) fn config(&self) -> &SpangleContextBuilder {
        &self.inner.config
    }

    /// Number of executors in the cluster.
    pub fn num_executors(&self) -> usize {
        self.inner.pool.num_executors()
    }

    /// Distributes a local vector over `num_partitions` partitions,
    /// preserving element order across partition boundaries.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, num_partitions: usize) -> Rdd<T> {
        ParallelizeRdd::create(self, data, num_partitions)
    }

    /// Ships a read-only value to every executor.
    ///
    /// In-process this is an `Arc` clone; its deep size is charged once per
    /// executor to the broadcast metric, mirroring a real torrent broadcast.
    pub fn broadcast<T: MemSize + Send + Sync>(&self, value: T) -> Broadcast<T> {
        let bytes = value.mem_size() as u64 * self.num_executors() as u64;
        self.metrics().add(MetricField::BroadcastBytes, bytes);
        Broadcast {
            value: Arc::new(value),
        }
    }

    /// Cumulative metric counters.
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Snapshot of the cumulative counters; subtract two to cost a job.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// The failure injector used by fault-tolerance tests.
    pub fn failure_injector(&self) -> &FailureInjector {
        &self.inner.failures
    }

    /// Kills an executor: its current incarnation is retired (any attempt
    /// still running on it will report [`crate::TaskError::ExecutorLost`]
    /// and its deposits are refused), every shuffle block and cached
    /// partition it produced is discarded, and a replacement incarnation
    /// is seated in the same slot — placement stays deterministic and
    /// queued tasks simply run on the replacement. Dependent jobs discover
    /// the lost shuffle output through
    /// [`crate::TaskError::FetchFailed`] and rebuild exactly the missing
    /// map partitions from lineage.
    ///
    /// Callable from any thread, including (via the failure injector's
    /// `kill_executor_after`) from the dying executor itself right after a
    /// task body finishes.
    pub fn kill_executor(&self, executor: usize) -> ExecutorLoss {
        assert!(
            executor < self.num_executors(),
            "executor {executor} out of range (cluster has {})",
            self.num_executors()
        );
        let incarnation = self.inner.pool.kill(executor);
        let (shuffle_blocks_dropped, shuffle_bytes_dropped) =
            self.inner.shuffle.discard_executor(executor);
        let (cached_partitions_dropped, cached_bytes_dropped) =
            self.inner.cache.discard_executor(executor);
        self.metrics().add(MetricField::ExecutorsLost, 1);
        ExecutorLoss {
            executor,
            incarnation,
            shuffle_blocks_dropped,
            shuffle_bytes_dropped,
            cached_partitions_dropped,
            cached_bytes_dropped,
        }
    }

    /// Drops a cached partition, simulating the loss of an executor's
    /// block; the next access recomputes it from lineage. Counted in the
    /// `partitions_evicted` metric when a block was actually present.
    pub fn evict_cached_partition(&self, rdd_id: usize, partition: usize) -> bool {
        let evicted = self
            .inner
            .cache
            .evict(crate::cache::CacheKey { rdd_id, partition });
        if evicted {
            self.metrics().add(MetricField::PartitionsEvicted, 1);
        }
        evicted
    }

    /// Total bytes currently held by the block manager.
    pub fn cached_bytes(&self) -> usize {
        self.inner.cache.resident_bytes()
    }

    /// Total bytes currently held by the shuffle service.
    pub fn shuffle_resident_bytes(&self) -> usize {
        self.inner.shuffle.resident_bytes()
    }

    /// Bytes currently held by the on-disk spill tiers of the shuffle
    /// service and the block manager together (framed file sizes). This is
    /// the live gauge; the monotone high-water mark is
    /// [`crate::MetricsSnapshot::disk_resident_bytes`].
    pub fn disk_resident_bytes(&self) -> usize {
        self.inner.shuffle.disk_bytes() + self.inner.cache.disk_bytes()
    }

    /// Brings resident cache + shuffle memory back under the watermark by
    /// demoting cold blocks to the spill tier: shuffle blocks first (their
    /// reads already pay a fetch), then cached partitions. Spills down to
    /// a quarter below the watermark so one deposit does not thrash the
    /// tier boundary; blocks without a spill codec stay resident. Every
    /// growth of resident memory ends here, so this is also where the
    /// (post-spill) peak is recorded.
    pub(crate) fn enforce_memory_watermark(&self) {
        let watermark = self.config().memory_high_watermark_bytes;
        let resident = self.cached_bytes() + self.shuffle_resident_bytes();
        if resident >= watermark {
            let need = resident - (watermark - watermark / 4);
            let freed = self.inner.shuffle.spill_up_to(self, need);
            if freed < need {
                self.inner.cache.spill_up_to(self, need - freed);
            }
        }
        let resident = self.cached_bytes() + self.shuffle_resident_bytes();
        self.metrics()
            .raise(MetricField::MemoryHighwaterBytes, resident as u64);
    }

    /// Cumulative nanoseconds each executor has spent running task bodies
    /// since the cluster started, indexed by executor id. Per-job busy
    /// times live in [`crate::metrics::JobReport::executor_busy_nanos`].
    pub fn executor_busy_nanos(&self) -> Vec<u64> {
        self.inner.pool.busy_nanos()
    }

    /// Cumulative tasks each executor stole from a sibling since the
    /// cluster started, indexed by the thief.
    pub fn executor_steals(&self) -> Vec<u64> {
        self.inner.pool.steals_per_executor()
    }

    pub(crate) fn new_rdd_id(&self) -> usize {
        self.inner.next_rdd_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn new_shuffle_id(&self) -> usize {
        self.inner.next_shuffle_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn new_stage_id(&self) -> usize {
        self.inner.next_stage_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn new_job_id(&self) -> usize {
        self.inner.next_job_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Scheduler reports of recent jobs, oldest first (bounded history).
    pub fn job_reports(&self) -> Vec<crate::metrics::JobReport> {
        self.inner.metrics.job_reports()
    }

    /// The most recently finished job's scheduler report.
    pub fn last_job_report(&self) -> Option<crate::metrics::JobReport> {
        self.inner.metrics.last_job_report()
    }
}

/// What [`SpangleContext::kill_executor`] destroyed: the retired slot and
/// incarnation plus everything discarded with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutorLoss {
    /// Slot of the killed executor.
    pub executor: usize,
    /// Incarnation now seated in the slot (the replacement's epoch).
    pub incarnation: u64,
    /// Shuffle blocks dropped with the dead incarnation.
    pub shuffle_blocks_dropped: usize,
    /// Deep bytes of those shuffle blocks.
    pub shuffle_bytes_dropped: usize,
    /// Cached partitions dropped with the dead incarnation.
    pub cached_partitions_dropped: usize,
    /// Deep bytes of those cached partitions.
    pub cached_bytes_dropped: usize,
}

/// A read-only value replicated to every executor.
pub struct Broadcast<T: ?Sized> {
    value: Arc<T>,
}

impl<T: ?Sized> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Broadcast {
            value: self.value.clone(),
        }
    }
}

impl<T: ?Sized> Broadcast<T> {
    /// The broadcast value.
    pub fn value(&self) -> &T {
        &self.value
    }
}

impl<T: ?Sized> std::ops::Deref for Broadcast<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_hands_out_unique_ids() {
        let ctx = SpangleContext::new(2);
        let a = ctx.new_rdd_id();
        let b = ctx.new_rdd_id();
        assert_ne!(a, b);
        assert_ne!(ctx.new_shuffle_id(), ctx.new_shuffle_id());
    }

    #[test]
    fn broadcast_charges_bytes_per_executor() {
        let ctx = SpangleContext::new(4);
        let before = ctx.metrics_snapshot();
        let b = ctx.broadcast(vec![0u64; 100]);
        assert_eq!(b.value().len(), 100);
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.broadcast_bytes, 4 * (800 + 24));
    }

    /// A task closure can outlive every driver-side handle; the context is
    /// then torn down on the executor that drops the closure, which must
    /// not try to join itself.
    #[test]
    fn last_handle_dropped_on_an_executor_tears_down_cleanly() {
        use std::sync::mpsc::channel;
        let ctx = SpangleContext::new(2);
        let held = ctx.clone();
        let (go_tx, go_rx) = channel::<()>();
        let (done_tx, done_rx) = channel();
        ctx.inner
            .pool
            .submit(
                0,
                Box::new(move |_| {
                    go_rx.recv().expect("driver side releases the task");
                    let teardown =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(held)));
                    done_tx.send(teardown.is_ok()).expect("test is waiting");
                }),
            )
            .expect("pool is up");
        drop(ctx);
        go_tx.send(()).expect("task is waiting");
        let clean = done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("teardown on an executor thread hung");
        assert!(clean, "teardown on an executor thread panicked");
    }

    #[test]
    fn broadcast_is_shared_not_copied() {
        let ctx = SpangleContext::new(2);
        let b = ctx.broadcast(String::from("shared"));
        let c = b.clone();
        assert!(std::ptr::eq(b.value(), c.value()));
    }
}
