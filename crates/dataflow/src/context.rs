//! The driver-side entry point: a handle on the simulated cluster.

use crate::cache::BlockManager;
use crate::env::env_parse;
use crate::executor::ExecutorPool;
use crate::failure::FailureInjector;
use crate::health::{HealthConfig, RetryBackoffConfig};
use crate::memsize::MemSize;
use crate::metrics::{MetricField, Metrics, MetricsSnapshot};
use crate::plan::PlannerConfig;
use crate::rdd::sources::ParallelizeRdd;
use crate::rdd::Rdd;
use crate::scheduler::{SchedulerService, SpeculationConfig};
use crate::shuffle::ShuffleService;
use crate::spill::SpillStore;
use crate::Data;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Admission-control bounds evaluated by the scheduler service on every
/// job submission; configured through [`SpangleContextBuilder`]. The
/// defaults are all "unbounded": admission control is opt-in and a context
/// built without the knobs behaves exactly as before.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AdmissionConfig {
    /// Jobs allowed to run concurrently at full cluster health. Further
    /// submissions wait in the admission queue (FIFO within priority).
    pub(crate) max_concurrent_jobs: usize,
    /// Upper bound on a priority level's queued task backlog: a job whose
    /// planned tasks would push its priority's queued-task total past this
    /// is shed outright ([`crate::JobOutcome::Rejected`]) instead of
    /// growing the queue without bound.
    pub(crate) max_queued_tasks_per_priority: usize,
    /// Memory saturation threshold, compared against
    /// `cached_bytes() + shuffle_resident_bytes()` at admission time. At
    /// or above it the system counts as saturated: no queued job is
    /// admitted, and sheddable submissions are rejected.
    pub(crate) memory_high_watermark_bytes: usize,
    /// While the system is saturated, submissions with priority strictly
    /// below this threshold are shed ([`crate::JobOutcome::Rejected`])
    /// instead of queued. `None` means never shed on priority.
    pub(crate) shed_below_priority: Option<i32>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_concurrent_jobs: usize::MAX,
            max_queued_tasks_per_priority: usize::MAX,
            memory_high_watermark_bytes: usize::MAX,
            shed_below_priority: None,
        }
    }
}

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
/// use spangle_dataflow::{SpangleContext, SpeculationConfig};
/// use std::time::Duration;
///
/// let ctx = SpangleContext::builder()
///     .executors(4)
///     .max_task_attempts(2)
///     .max_resubmissions(8)
///     .max_concurrent_jobs(8)
///     .max_queued_tasks_per_priority(1024)
///     .memory_high_watermark_bytes(64 << 20)
///     .spill_to_disk(true)
///     .shed_below_priority(0)
///     .fuse_narrow_chains(true)
///     .elide_shuffles(true)
///     .coalesce_partitions(true)
///     .target_partition_bytes(1 << 20)
///     .speculation(SpeculationConfig {
///         enabled: true,
///         multiplier: 3.0,
///         min_runtime: Duration::from_millis(5),
///     })
///     .heartbeat_interval(Duration::from_millis(50))
///     .missed_heartbeat_limit(8)
///     .watchdog_interval(Duration::from_secs(5))
///     .quarantine_threshold(0.4)
///     .quarantine_probation(Duration::from_millis(200))
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
    /// Admission-control bounds enforced by the scheduler service.
    pub(crate) admission: AdmissionConfig,
    /// Which plan rewrites (fusion / elision / coalescing) are active.
    pub(crate) planner: PlannerConfig,
    /// When the driver duplicates straggling task attempts.
    pub(crate) speculation: SpeculationConfig,
    /// Whether crossing the memory watermark demotes cold blocks to the
    /// on-disk spill tier (instead of only shedding/queueing work).
    spill_to_disk: bool,
    /// Heartbeat/watchdog/quarantine thresholds for the driver's health
    /// monitor.
    pub(crate) health: HealthConfig,
    /// Seeded exponential backoff applied to every retry path.
    pub(crate) backoff: RetryBackoffConfig,
}

impl Default for SpangleContextBuilder {
    fn default() -> Self {
        let mut admission = AdmissionConfig::default();
        // `SPANGLE_MEMORY_WATERMARK_BYTES` seeds the watermark default so a
        // whole test/bench run can be forced under memory pressure without
        // touching code; an explicit builder call still wins (it is applied
        // after this default).
        if let Some(bytes) = env_parse::<usize>("SPANGLE_MEMORY_WATERMARK_BYTES") {
            admission.memory_high_watermark_bytes = bytes;
        }
        SpangleContextBuilder {
            executors: 2,
            max_task_attempts: 4,
            max_resubmissions: 16,
            admission,
            planner: PlannerConfig::default(),
            speculation: SpeculationConfig::default(),
            spill_to_disk: true,
            health: HealthConfig::default(),
            backoff: RetryBackoffConfig::default(),
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

    /// Bounds how many jobs run concurrently (default unbounded).
    /// Submissions past the bound wait in the scheduler's admission queue,
    /// highest priority first, FIFO within a priority. The bound scales
    /// down with cluster health: while a replacement executor seated by
    /// [`SpangleContext::kill_executor`] has not yet completed its first
    /// task, capacity is derated by `healthy / num_executors` (floored at
    /// one running job, so admission never deadlocks).
    pub fn max_concurrent_jobs(mut self, jobs: usize) -> Self {
        assert!(jobs > 0, "at least one concurrent job is required");
        self.admission.max_concurrent_jobs = jobs;
        self
    }

    /// Bounds the task backlog a single priority level may queue for
    /// admission (default unbounded). A job whose planned tasks would push
    /// its priority's queued-task total past the bound is shed with
    /// [`crate::JobOutcome::Rejected`] — hard backpressure instead of an
    /// unbounded queue.
    pub fn max_queued_tasks_per_priority(mut self, tasks: usize) -> Self {
        self.admission.max_queued_tasks_per_priority = tasks;
        self
    }

    /// Memory saturation threshold in bytes, compared against
    /// `cached_bytes() + shuffle_resident_bytes()` at every admission
    /// decision and every block deposit (default unbounded; the
    /// `SPANGLE_MEMORY_WATERMARK_BYTES` environment variable overrides the
    /// default, an explicit call here wins). Crossing the watermark first
    /// spills cold blocks to disk (see
    /// [`SpangleContextBuilder::spill_to_disk`]); only if spilling cannot
    /// bring residency back down does the system count as saturated —
    /// queued jobs then wait for memory to drain and sheddable submissions
    /// are rejected.
    pub fn memory_high_watermark_bytes(mut self, bytes: usize) -> Self {
        self.admission.memory_high_watermark_bytes = bytes;
        self
    }

    /// While the system is saturated, shed submissions whose priority is
    /// strictly below `threshold` with [`crate::JobOutcome::Rejected`]
    /// instead of queueing them (default: never shed on priority).
    pub fn shed_below_priority(mut self, threshold: i32) -> Self {
        self.admission.shed_below_priority = Some(threshold);
        self
    }

    /// Enables or disables the on-disk spill tier (default on). With
    /// spilling on, crossing the memory watermark demotes the
    /// least-recently-fetched shuffle blocks and
    /// cached partitions to accounted spill files and rehydrates them on
    /// demand; with it off the watermark falls back to shedding and
    /// queueing work, the pre-spill behavior.
    pub fn spill_to_disk(mut self, enabled: bool) -> Self {
        self.spill_to_disk = enabled;
        self
    }

    /// Enables or disables narrow-chain fusion: chains of one-parent
    /// narrow transforms (map / filter / flat_map / map_partitions)
    /// execute as one fused streaming task instead of materialising an
    /// intermediate `Vec` per lineage node. Persisted RDDs and
    /// multi-consumer nodes are fusion barriers, so cache semantics and
    /// lineage recovery are unchanged. Default on.
    pub fn fuse_narrow_chains(mut self, enabled: bool) -> Self {
        self.planner.fuse_narrow_chains = enabled;
        self
    }

    /// Enables or disables plan-time shuffle elision: a shuffle whose
    /// map-side parent already carries the target
    /// [`crate::PartitionerSig`] is rewritten into a narrow pass-through
    /// — no shuffle id, no blocks, no map stage. Applies to every shuffle
    /// site (`partition_by`, `reduce_by_key`, `group_by_key`,
    /// `combine_by_key`, `cogroup`, `join`). Default on.
    pub fn elide_shuffles(mut self, enabled: bool) -> Self {
        self.planner.elide_shuffles = enabled;
        self
    }

    /// Enables or disables runtime partition coalescing: when a reduce
    /// stage becomes ready, adjacent buckets whose recorded shuffle bytes
    /// fall below the [`SpangleContextBuilder::target_partition_bytes`]
    /// target are packed into shared executor tasks. Logical partitions
    /// (and therefore fetch-failure recovery) are unchanged — only the
    /// scheduling granularity coarsens. Default on.
    pub fn coalesce_partitions(mut self, enabled: bool) -> Self {
        self.planner.coalesce_partitions = enabled;
        self
    }

    /// Byte target one coalesced reduce task aims to cover (default
    /// 1 MiB). Balanced stages never coalesce below one group per
    /// executor regardless of the target.
    pub fn target_partition_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "the coalescing target must be positive");
        self.planner.target_partition_bytes = bytes;
        self
    }

    /// Configures speculative execution for straggling task attempts (see
    /// [`SpeculationConfig`]): a running original whose elapsed time
    /// exceeds the configured multiple of its stage's median completed
    /// duration is duplicated on an idle executor; the first completion
    /// wins and the loser is cancelled through its token. Default off;
    /// [`SpeculationConfig::default`] with `enabled: true` is 4× the
    /// median with a 10 ms floor.
    pub fn speculation(mut self, config: SpeculationConfig) -> Self {
        assert!(
            config.multiplier >= 1.0,
            "a speculation multiplier below 1 would duplicate faster-than-median tasks"
        );
        self.speculation = config;
        self
    }

    /// Expected spacing of executor heartbeats (default 100 ms; the
    /// `SPANGLE_HEARTBEAT_MS` environment variable overrides the default,
    /// an explicit call here wins). Heartbeats come from the pool's
    /// dedicated heartbeater thread — not from task bodies, so a body
    /// deep in a long compute kernel never looks dead. Together with
    /// [`SpangleContextBuilder::missed_heartbeat_limit`] this sets the
    /// loss threshold: a *busy* executor silent for
    /// `heartbeat_interval * missed_heartbeat_limit` is declared lost by
    /// the driver's monitor and killed through the normal
    /// [`SpangleContext::kill_executor`] recovery path. Idle executors
    /// (blocked on their queues) are exempt.
    pub fn heartbeat_interval(mut self, interval: std::time::Duration) -> Self {
        assert!(
            !interval.is_zero(),
            "a zero heartbeat interval would declare everything lost"
        );
        self.health.heartbeat_interval = interval;
        self
    }

    /// Consecutive missed heartbeats before a busy executor is declared
    /// lost (default 10). The defaults keep the loss threshold well above
    /// any transient stall of the heartbeater itself.
    pub fn missed_heartbeat_limit(mut self, limit: u32) -> Self {
        assert!(limit > 0, "at least one heartbeat must be missable");
        self.health.missed_heartbeat_limit = limit;
        self
    }

    /// No-progress watchdog: a running task whose executor still
    /// heartbeats but whose chunk-boundary progress counter has not moved
    /// for this long is duplicated through the speculation path (default
    /// 10 s; the `SPANGLE_WATCHDOG_MS` environment variable overrides the
    /// default, an explicit call here wins).
    pub fn watchdog_interval(mut self, interval: std::time::Duration) -> Self {
        assert!(
            !interval.is_zero(),
            "a zero watchdog would duplicate every task"
        );
        self.health.watchdog_interval = interval;
        self
    }

    /// Recent task-failure rate at or above which an executor is
    /// quarantined: drained, excluded from placement/steals/speculation,
    /// re-admitted after probation with one canary task (default 0.5).
    pub fn quarantine_threshold(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "a failure rate is in [0, 1]");
        self.health.quarantine_threshold = rate;
        self
    }

    /// How long a quarantined executor is drained before probation offers
    /// it a canary task (default 250 ms; doubled with seeded jitter each
    /// time a canary fails).
    pub fn quarantine_probation(mut self, probation: std::time::Duration) -> Self {
        self.health.probation = probation;
        self
    }

    /// Enables or disables the whole health-monitoring layer — heartbeat
    /// loss detection, the no-progress watchdog, and quarantine (default
    /// on). Off restores the announced-failures-only behavior: only
    /// `kill_executor` and injected failures trigger recovery.
    pub fn health_monitoring(mut self, enabled: bool) -> Self {
        self.health.enabled = enabled;
        self
    }

    /// Seeded deterministic exponential backoff with jitter applied
    /// before every re-submitted task attempt — failure retries and
    /// executor-loss/fetch-failure resubmissions (see
    /// [`RetryBackoffConfig`]). Default on at 1 ms base, 64 ms cap.
    pub fn retry_backoff(mut self, config: RetryBackoffConfig) -> Self {
        self.backoff = config;
        self
    }

    /// Starts the cluster.
    pub fn build(self) -> SpangleContext {
        let pool = ExecutorPool::new(self.executors);
        if self.health.enabled {
            pool.start_heartbeater(self.health.heartbeat_interval);
        }
        let failures = FailureInjector::default();
        failures.attach_health(Arc::clone(pool.health_board()));
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
                failures,
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

    /// Runs `f` with every job submitted from this thread scheduled at
    /// `priority` (higher is served first; everything outside such a scope
    /// runs in the default FIFO pool at priority 0). Queued tasks of a
    /// higher-priority job overtake lower-priority work on the executors;
    /// [`crate::metrics::JobReport::queue_wait_nanos`] shows the effect.
    /// Scopes nest, and the previous priority is restored on exit.
    pub fn run_with_priority<O>(&self, priority: i32, f: impl FnOnce() -> O) -> O {
        crate::scheduler::with_job_priority(priority, f)
    }

    /// Runs `f` with every job submitted from this thread carrying a
    /// wall-clock `budget`: a job that has not finished when the budget
    /// elapses is aborted through the normal abort path (partial shuffle
    /// output abandoned, a [`crate::JobOutcome::Deadlined`] report
    /// recorded) and its action returns a
    /// [`crate::TaskError::DeadlineExceeded`] error. A job still waiting
    /// in the admission queue when its deadline passes never runs at all.
    /// Scopes nest (the inner budget wins for jobs submitted inside it),
    /// and the previous deadline is restored on exit.
    pub fn run_with_deadline<O>(&self, budget: std::time::Duration, f: impl FnOnce() -> O) -> O {
        crate::scheduler::with_job_deadline(budget, f)
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

    /// The plan rewrites active for this cluster (fixed at build time).
    pub(crate) fn planner(&self) -> &PlannerConfig {
        &self.config().planner
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

    /// Brings resident cache + shuffle memory back under the admission
    /// watermark by demoting cold blocks to the spill tier: shuffle blocks
    /// first (their reads already pay a fetch), then cached partitions.
    /// Spills down to a quarter below the watermark so one deposit does
    /// not thrash the tier boundary. Returns whether residency is below
    /// the watermark afterwards — `false` means the remaining blocks are
    /// unspillable (or spilling is disabled) and admission control should
    /// treat memory as saturated. Every growth of resident memory ends
    /// here, so this is also where the (post-spill) peak is recorded.
    pub(crate) fn enforce_memory_watermark(&self) -> bool {
        let watermark = self.config().admission.memory_high_watermark_bytes;
        let resident = self.cached_bytes() + self.shuffle_resident_bytes();
        if resident >= watermark && self.config().spill_to_disk {
            let need = resident - (watermark - watermark / 4);
            let freed = self.inner.shuffle.spill_up_to(self, need);
            if freed < need {
                self.inner.cache.spill_up_to(self, need - freed);
            }
        }
        let resident = self.cached_bytes() + self.shuffle_resident_bytes();
        self.metrics()
            .raise(MetricField::MemoryHighwaterBytes, resident as u64);
        resident < watermark
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

    /// Executors currently excluded from placement by the failure-rate
    /// quarantine: drained, on probation, or mid-canary. Empty on a
    /// healthy cluster (and always empty with health monitoring off).
    pub fn quarantined_executors(&self) -> Vec<usize> {
        self.inner.pool.health_board().quarantined_executors()
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
