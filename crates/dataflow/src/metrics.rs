//! Cumulative runtime metrics and per-job stage reports.
//!
//! Two views exist side by side. The *cumulative counters* are per
//! context; experiments take a [`MetricsSnapshot`] before and after a job
//! and subtract. The *job reports* are scoped: the DAG scheduler records
//! one [`JobReport`] per finished job — its stages, per-stage task time and
//! counts, and the peak number of concurrently running stages — which the
//! experiment binaries print to show how the event-driven scheduler
//! overlapped sibling stages. Every counter is one row of the `counters!`
//! table below (DESIGN.md, "Counters and reports").

use crate::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of recent job reports kept per context (iterative workloads run
/// hundreds of jobs; older reports are dropped oldest-first).
pub(crate) const JOB_REPORT_HISTORY: usize = 256;

/// Declares every counter once, as a doc and a `field: Variant` row. It
/// generates the [`MetricField`] enum, whose discriminant is the counter's
/// slot; the public [`MetricsSnapshot`], one named field per row; and
/// `MetricsSnapshot::slots`, the one field↔variant mapping that `Metrics`,
/// `Sub`, `Add`, `Sum` and a stage run's counts all go through.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident: $variant:ident,)*) => {
        /// Counter names used internally when bumping [`Metrics`].
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum MetricField {
            $($variant,)*
        }

        impl MetricField {
            /// Every counter, in slot order.
            pub(crate) const ALL: &'static [MetricField] = &[$(MetricField::$variant,)*];
        }

        /// A point-in-time copy of all counters. Subtract two snapshots to get the
        /// cost of one job.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl MetricsSnapshot {
            /// Every field, in slot order.
            fn slots(&mut self) -> [&mut u64; COUNTERS] {
                [$(&mut self.$field,)*]
            }
        }
    };
}

const COUNTERS: usize = MetricField::ALL.len();

counters! {
    /// Stages whose tasks actually ran.
    stages_run: StagesRun,
    /// Map stages skipped because their shuffle output already existed.
    stages_skipped: StagesSkipped,
    /// Task attempts started (including retries).
    tasks_run: TasksRun,
    /// Task attempts that ran on an executor other than the one their
    /// partition was placed on (work stealing).
    tasks_stolen: TasksStolen,
    /// Task attempts re-submitted after a failure.
    task_retries: TaskRetries,
    /// Deep bytes written to the shuffle service.
    shuffle_write_bytes: ShuffleWriteBytes,
    /// Deep bytes fetched from the shuffle service.
    shuffle_read_bytes: ShuffleReadBytes,
    /// Records written to the shuffle service.
    shuffle_records: ShuffleRecords,
    /// Persisted partitions served from the block manager.
    cache_hits: CacheHits,
    /// Persisted partitions that had to be (re)computed.
    cache_misses: CacheMisses,
    /// Partitions recomputed due to task retries.
    recomputations: Recomputations,
    /// Bytes replicated to executors by broadcasts.
    broadcast_bytes: BroadcastBytes,
    /// Executors killed (each loss discards the incarnation's shuffle
    /// blocks and cached partitions and seats a replacement).
    executors_lost: ExecutorsLost,
    /// Reduce-side fetches that found a shuffle block lost with its
    /// executor (`TaskError::FetchFailed`).
    fetch_failures: FetchFailures,
    /// Map partitions recomputed from lineage to rebuild lost shuffle
    /// output (only the missing partitions re-run, never whole stages).
    map_partitions_recomputed: MapPartitionsRecomputed,
    /// Cached partitions dropped by manual eviction (`evict_cached_partition`,
    /// `Rdd::unpersist`).
    partitions_evicted: PartitionsEvicted,
    /// High-water mark of resident cached-partition bytes.
    cache_highwater_bytes: CacheHighwaterBytes,
    /// High-water mark of total resident memory (cached partitions plus
    /// shuffle blocks) — the figure `memory_high_watermark_bytes` is
    /// compared against.
    memory_highwater_bytes: MemoryHighwaterBytes,
    /// Narrow operator chains the planner collapsed into fused streaming
    /// execution (no intermediate partition materialisation).
    stages_fused: StagesFused,
    /// Shuffle edges rewritten to narrow pass-throughs because the
    /// map-side parent already carried the target partitioner signature.
    shuffles_elided: ShufflesElided,
    /// Reduce buckets merged into shared executor tasks at stage launch
    /// because their shuffle bytes fell below the coalescing target.
    partitions_coalesced: PartitionsCoalesced,
    /// Duplicate attempts the driver launched for running tasks; the
    /// no-progress watchdog is their one source, so this equals
    /// `watchdog_trips`.
    tasks_speculated: TasksSpeculated,
    /// Duplicate attempts that finished before the original they
    /// duplicated (the duplicate's result won first-write-wins).
    speculation_wins: SpeculationWins,
    /// Running task bodies asked to stop early through their
    /// `CancelToken` (duplicate-race losers, job aborts).
    tasks_cancelled: TasksCancelled,
    /// Blocks demoted from memory to the on-disk spill tier under memory
    /// pressure (resident cache+shuffle bytes crossed the watermark).
    blocks_spilled: BlocksSpilled,
    /// Spilled blocks read back from disk and reinstated in memory on
    /// demand (a reduce fetch or cache read touched cold data).
    blocks_rehydrated: BlocksRehydrated,
    /// Cumulative encoded bytes written to the spill tier (framing
    /// included).
    spill_bytes: SpillBytes,
    /// High-water mark of bytes resident in the on-disk spill tier (kept
    /// monotone like the other high-water fields so snapshot subtraction
    /// stays well defined; the live gauge is
    /// `SpangleContext::disk_resident_bytes`).
    disk_resident_bytes: DiskResidentBytes,
    /// Always zero; kept only because `benchmark/src/measure.rs` reads it.
    heartbeats_missed: HeartbeatsMissed,
    /// Running tasks the no-progress watchdog declared wedged and
    /// duplicated on another executor.
    watchdog_trips: WatchdogTrips,
}

impl MetricsSnapshot {
    /// Adds `amount` to `field`.
    pub(crate) fn bump(&mut self, field: MetricField, amount: u64) {
        *self.slots()[field as usize] += amount;
    }

    /// Combines two snapshots field by field.
    fn zip(mut self, mut rhs: Self, op: fn(u64, u64) -> u64) -> Self {
        for (a, b) in self.slots().into_iter().zip(rhs.slots()) {
            *a = op(*a, *b);
        }
        self
    }
}

impl std::ops::Sub for MetricsSnapshot {
    type Output = MetricsSnapshot;

    fn sub(self, rhs: MetricsSnapshot) -> MetricsSnapshot {
        self.zip(rhs, |a, b| a - b)
    }
}

impl std::ops::Add for MetricsSnapshot {
    type Output = MetricsSnapshot;

    fn add(self, rhs: MetricsSnapshot) -> MetricsSnapshot {
        self.zip(rhs, |a, b| a + b)
    }
}

impl std::iter::Sum for MetricsSnapshot {
    fn sum<I: Iterator<Item = MetricsSnapshot>>(iter: I) -> MetricsSnapshot {
        iter.fold(MetricsSnapshot::default(), |a, b| a + b)
    }
}

/// The context's cumulative counters, one slot per [`MetricField`], and
/// its most recent job reports.
pub(crate) struct Metrics {
    counters: [AtomicU64; COUNTERS],
    /// Per-job reports, newest last, at most [`JOB_REPORT_HISTORY`].
    job_reports: Mutex<VecDeque<JobReport>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            job_reports: Mutex::new(VecDeque::new()),
        }
    }
}

impl Metrics {
    pub(crate) fn add(&self, field: MetricField, amount: u64) {
        self.counters[field as usize].fetch_add(amount, Ordering::Relaxed);
    }

    /// Raises a high-water-mark field to `value` if it is higher than
    /// everything observed so far (the field stays monotone, so snapshot
    /// subtraction is well defined).
    pub(crate) fn raise(&self, field: MetricField, value: u64) {
        self.counters[field as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// Records a finished job's report, dropping the oldest beyond
    /// [`JOB_REPORT_HISTORY`].
    pub(crate) fn record_job(&self, report: JobReport) {
        let mut reports = self.job_reports.lock();
        if reports.len() == JOB_REPORT_HISTORY {
            reports.pop_front();
        }
        reports.push_back(report);
    }

    /// All retained job reports, oldest first.
    pub(crate) fn job_reports(&self) -> Vec<JobReport> {
        self.job_reports.lock().iter().cloned().collect()
    }

    /// The most recent job report, if any job finished yet.
    pub(crate) fn last_job_report(&self) -> Option<JobReport> {
        self.job_reports.lock().back().cloned()
    }

    /// Copies the current counter values.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (slot, counter) in snap.slots().into_iter().zip(&self.counters) {
            *slot = counter.load(Ordering::Relaxed);
        }
        snap
    }
}

/// How one stage of a job ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StageOutcome {
    /// The stage's tasks ran in this job.
    #[default]
    Ran,
    /// The stage's shuffle output already existed (or another concurrent
    /// job produced it); nothing ran here.
    Skipped,
    /// The stage was still in flight when its job aborted: some of its
    /// tasks may have run (their time is accounted), but the stage never
    /// completed.
    Aborted,
}

/// How a whole job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every stage completed and the action's results were returned.
    Succeeded,
    /// Some task exhausted its attempts (or the cluster shut down) and the
    /// job returned a `JobError`. Stages in flight at that moment appear
    /// in the report as [`StageOutcome::Aborted`].
    Aborted,
}

/// Accounting of one run of one stage in a job (a recovery re-run of lost
/// map partitions is a run, and a report, of its own).
#[derive(Clone, Debug, Default)]
pub struct StageReport {
    /// Context-wide stage id (allocated when the stage was scheduled).
    pub stage_id: usize,
    /// The shuffle this map stage feeds, `None` for the result stage.
    pub shuffle_id: Option<usize>,
    /// Number of tasks the stage owns.
    pub num_tasks: usize,
    /// `counts.tasks_stolen`, copied when the run closes: it exists under
    /// its own name only because the benchmark's trace reads it.
    pub tasks_stolen: usize,
    /// Whether the stage ran or was skipped.
    pub outcome: StageOutcome,
    /// Total CPU time spent in this stage's task bodies, summed over
    /// attempts, in nanoseconds.
    pub task_nanos: u64,
    /// Wall-clock time from first submission to last task completion, in
    /// nanoseconds. Zero for skipped stages.
    pub wall_nanos: u64,
    /// What this run added to the context's counters; the spill tier's
    /// three fields are its activity while the run was open (DESIGN.md,
    /// "Counters and reports").
    pub counts: MetricsSnapshot,
}

/// Scheduler-level accounting of one finished job.
///
/// Recorded for *every* job that left the scheduler — succeeded or
/// aborted — so `last_job_report()` after a failed action describes that
/// failed job (outcome [`JobOutcome::Aborted`], in-flight stages
/// [`StageOutcome::Aborted`]) rather than silently showing the previous
/// job's report.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Context-wide job id.
    pub job_id: usize,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// One entry per stage the job touched, in completion order.
    pub stages: Vec<StageReport>,
    /// Peak number of stages whose tasks were in flight simultaneously.
    pub max_concurrent_stages: usize,
    /// Nanoseconds each executor spent running this job's task bodies,
    /// indexed by executor id (built from task completion events, so it is
    /// exact per job even when jobs run concurrently).
    pub executor_busy_nanos: Vec<u64>,
    /// Nanoseconds this job's task attempts spent queued on executors
    /// before starting, summed over attempts.
    pub queue_wait_nanos: u64,
    /// Always zero; kept only because `benchmark/src/trace.rs` reads it.
    pub admission_wait_nanos: u64,
    /// End-to-end wall-clock time of the job, in nanoseconds.
    pub wall_nanos: u64,
}

impl JobReport {
    fn stages_that(&self, outcome: StageOutcome) -> usize {
        self.stages.iter().filter(|s| s.outcome == outcome).count()
    }

    /// Stages that actually ran (not skipped).
    pub fn stages_run(&self) -> usize {
        self.stages_that(StageOutcome::Ran)
    }

    /// Stages satisfied from existing shuffle output.
    pub fn stages_skipped(&self) -> usize {
        self.stages_that(StageOutcome::Skipped)
    }

    /// Stages still in flight when the job aborted.
    pub fn stages_aborted(&self) -> usize {
        self.stages_that(StageOutcome::Aborted)
    }

    /// The job's counts: its stages' [`StageReport::counts`], summed.
    pub fn counts(&self) -> MetricsSnapshot {
        self.stages.iter().map(|s| s.counts).sum()
    }

    /// Busy-time imbalance across executors: max/mean of
    /// `executor_busy_nanos` (1.0 = perfectly even, higher = more skew).
    /// `None` when the job did no executor work.
    pub fn busy_skew(&self) -> Option<f64> {
        let max = *self.executor_busy_nanos.iter().max()?;
        let total: u64 = self.executor_busy_nanos.iter().sum();
        if total == 0 {
            return None;
        }
        let mean = total as f64 / self.executor_busy_nanos.len() as f64;
        Some(max as f64 / mean)
    }
}

impl std::fmt::Display for JobReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counts();
        write!(
            f,
            "job {}: {} stages ({} run, {} skipped{}), max {} concurrent, {} stolen, queue wait {:.2} ms, {:.2} ms wall{}",
            self.job_id,
            self.stages.len(),
            self.stages_run(),
            self.stages_skipped(),
            if self.stages_aborted() != 0 {
                format!(", {} aborted", self.stages_aborted())
            } else {
                String::new()
            },
            self.max_concurrent_stages,
            c.tasks_stolen,
            self.queue_wait_nanos as f64 / 1e6,
            self.wall_nanos as f64 / 1e6,
            match self.outcome {
                JobOutcome::Succeeded => "",
                JobOutcome::Aborted => " [ABORTED]",
            },
        )?;
        if c.stages_fused != 0 || c.shuffles_elided != 0 || c.partitions_coalesced != 0 {
            write!(
                f,
                "\n  planner: {} chains fused, {} shuffles elided, {} partitions coalesced",
                c.stages_fused, c.shuffles_elided, c.partitions_coalesced,
            )?;
        }
        if c.tasks_speculated != 0 || c.tasks_cancelled != 0 {
            write!(
                f,
                "\n  duplicates: {} launched, {} won, {} tasks cancelled ({} watchdog trips)",
                c.tasks_speculated, c.speculation_wins, c.tasks_cancelled, c.watchdog_trips,
            )?;
        }
        if c.blocks_spilled != 0 || c.blocks_rehydrated != 0 {
            write!(
                f,
                "\n  spill: {} blocks out, {} back, {:.1} KiB written",
                c.blocks_spilled,
                c.blocks_rehydrated,
                c.spill_bytes as f64 / 1024.0,
            )?;
        }
        if c.fetch_failures != 0 || c.map_partitions_recomputed != 0 {
            write!(
                f,
                "\n  recovery: {} fetch failures, {} map partitions recomputed",
                c.fetch_failures, c.map_partitions_recomputed,
            )?;
        }
        for s in &self.stages {
            let kind = match s.shuffle_id {
                Some(id) => format!("map(shuffle {id})"),
                None => "result".to_string(),
            };
            match s.outcome {
                StageOutcome::Ran => {
                    write!(
                        f,
                        "\n  stage {:>3} {kind:<16} {:>3} tasks ({:>2} stolen)  task {:>8.2} ms  wall {:>8.2} ms",
                        s.stage_id,
                        s.num_tasks,
                        s.tasks_stolen,
                        s.task_nanos as f64 / 1e6,
                        s.wall_nanos as f64 / 1e6,
                    )?;
                    if s.counts.map_partitions_recomputed != 0 {
                        let maps = s.counts.map_partitions_recomputed;
                        write!(f, "  [recovered {maps} maps]")?;
                    }
                    if s.counts.fetch_failures != 0 {
                        write!(f, "  [{} fetch failures]", s.counts.fetch_failures)?;
                    }
                }
                StageOutcome::Skipped => {
                    write!(f, "\n  stage {:>3} {kind:<16} skipped", s.stage_id)?
                }
                StageOutcome::Aborted => write!(
                    f,
                    "\n  stage {:>3} {kind:<16} aborted after {:>8.2} ms task time",
                    s.stage_id,
                    s.task_nanos as f64 / 1e6,
                )?,
            }
        }
        if let Some(skew) = self.busy_skew() {
            let busy: Vec<String> = self
                .executor_busy_nanos
                .iter()
                .map(|n| format!("{:.2}", *n as f64 / 1e6))
                .collect();
            write!(
                f,
                "\n  executor busy ms: [{}]  skew {skew:.2}",
                busy.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_isolates_one_job() {
        let m = Metrics::default();
        m.add(MetricField::TasksRun, 3);
        let before = m.snapshot();
        m.add(MetricField::TasksRun, 5);
        m.add(MetricField::ShuffleWriteBytes, 1024);
        let delta = m.snapshot() - before;
        assert_eq!(delta.tasks_run, 5);
        assert_eq!(delta.shuffle_write_bytes, 1024);
        assert_eq!(delta.stages_run, 0);
    }

    /// The table's contract: a variant's discriminant is its declaration
    /// order, so bumping it moves its own named field and no other.
    #[test]
    fn every_counter_has_its_own_slot() {
        let m = Metrics::default();
        for (i, &field) in MetricField::ALL.iter().enumerate() {
            m.add(field, i as u64 + 1);
        }
        let mut a = m.snapshot();
        let expected: Vec<u64> = (1..=COUNTERS as u64).collect();
        let got: Vec<u64> = a.slots().into_iter().map(|v| *v).collect();
        assert_eq!(got, expected);
        // Spot-check names against their rows: first, in between, last.
        assert_eq!((a.stages_run, a.tasks_stolen, a.fetch_failures), (1, 4, 14));
        assert_eq!((a.stages_fused, a.watchdog_trips, COUNTERS), (19, 30, 30));
        // The arithmetic is field by field too.
        let mut b = MetricsSnapshot::default();
        b.bump(MetricField::SpillBytes, 7);
        b.bump(MetricField::TasksStolen, 2);
        assert_eq!((a + b) - b, a);
        assert_eq!((a + b).spill_bytes, 27 + 7);
        // A job's counts are its stages' counts summed.
        let stage = |counts| StageReport {
            counts,
            ..StageReport::default()
        };
        let report = JobReport {
            stages: vec![stage(a), stage(b), stage(b)],
            ..empty_report(0)
        };
        let reports = [report.clone(), report];
        let total: MetricsSnapshot = reports.iter().map(JobReport::counts).sum();
        assert_eq!(total, a + a + b + b + b + b);
        assert_eq!(total.tasks_stolen, 4 + 4 + 2 * 4);
    }

    fn empty_report(job_id: usize) -> JobReport {
        JobReport {
            job_id,
            outcome: JobOutcome::Succeeded,
            stages: Vec::new(),
            max_concurrent_stages: 1,
            executor_busy_nanos: Vec::new(),
            queue_wait_nanos: 0,
            admission_wait_nanos: 0,
            wall_nanos: 0,
        }
    }

    #[test]
    fn job_reports_are_capped_and_ordered() {
        let m = Metrics::default();
        for id in 0..(JOB_REPORT_HISTORY + 10) {
            m.record_job(empty_report(id));
        }
        let reports = m.job_reports();
        assert_eq!(reports.len(), JOB_REPORT_HISTORY);
        assert_eq!(reports.first().unwrap().job_id, 10);
        assert_eq!(m.last_job_report().unwrap().job_id, JOB_REPORT_HISTORY + 9);
    }

    #[test]
    fn report_counts_run_and_skipped_stages() {
        let stage = |outcome| StageReport {
            num_tasks: 2,
            tasks_stolen: 1,
            outcome,
            counts: MetricsSnapshot {
                tasks_stolen: 1,
                ..MetricsSnapshot::default()
            },
            ..StageReport::default()
        };
        let report = JobReport {
            job_id: 1,
            stages: vec![
                stage(StageOutcome::Ran),
                stage(StageOutcome::Skipped),
                stage(StageOutcome::Ran),
            ],
            max_concurrent_stages: 2,
            executor_busy_nanos: vec![3_000_000, 1_000_000],
            ..empty_report(1)
        };
        assert_eq!(report.stages_run(), 2);
        assert_eq!(report.stages_skipped(), 1);
        assert_eq!(report.stages_aborted(), 0);
        assert_eq!(report.counts().tasks_stolen, 3);
        let skew = report.busy_skew().unwrap();
        assert!((skew - 1.5).abs() < 1e-9, "3M vs mean 2M, skew was {skew}");
        let rendered = format!("{report}");
        assert!(rendered.contains("max 2 concurrent"));
        assert!(rendered.contains("3 stolen"));
        assert!(rendered.contains("executor busy ms"));
        assert!(!rendered.contains("ABORTED"));
    }

    #[test]
    fn aborted_stages_count_separately_from_skipped() {
        let stage = |outcome| StageReport {
            shuffle_id: Some(1),
            num_tasks: 4,
            outcome,
            task_nanos: 5_000_000,
            counts: MetricsSnapshot {
                stages_fused: 1,
                tasks_speculated: 1,
                speculation_wins: 1,
                tasks_cancelled: 1,
                blocks_spilled: 2,
                blocks_rehydrated: 1,
                spill_bytes: 4096,
                watchdog_trips: 1,
                ..MetricsSnapshot::default()
            },
            ..StageReport::default()
        };
        let report = JobReport {
            job_id: 2,
            outcome: JobOutcome::Aborted,
            stages: vec![stage(StageOutcome::Ran), stage(StageOutcome::Aborted)],
            executor_busy_nanos: vec![10_000_000],
            queue_wait_nanos: 2_000_000,
            ..empty_report(2)
        };
        assert_eq!(report.stages_run(), 1);
        assert_eq!(report.stages_skipped(), 0, "aborted is not skipped");
        assert_eq!(report.stages_aborted(), 1);
        let rendered = format!("{report}");
        assert!(rendered.contains("ABORTED"));
        assert!(rendered.contains("1 aborted"));
        assert!(rendered.contains("aborted after"));
        let counts = report.counts();
        assert_eq!(counts.stages_fused, 2);
        assert!(rendered.contains("planner: 2 chains fused"));
        assert_eq!(counts.tasks_speculated, 2);
        assert_eq!(counts.speculation_wins, 2);
        assert_eq!(counts.tasks_cancelled, 2);
        assert_eq!(counts.watchdog_trips, 2);
        assert!(rendered
            .contains("duplicates: 2 launched, 2 won, 2 tasks cancelled (2 watchdog trips)"));
    }

    #[test]
    fn raise_keeps_high_water_marks_monotone() {
        let m = Metrics::default();
        m.raise(MetricField::CacheHighwaterBytes, 100);
        m.raise(MetricField::CacheHighwaterBytes, 40);
        m.raise(MetricField::MemoryHighwaterBytes, 250);
        m.raise(MetricField::MemoryHighwaterBytes, 90);
        let snap = m.snapshot();
        assert_eq!(
            snap.cache_highwater_bytes, 100,
            "lower values never regress"
        );
        assert_eq!(snap.memory_highwater_bytes, 250);
    }

    #[test]
    fn busy_skew_is_none_for_idle_jobs() {
        let report = JobReport {
            executor_busy_nanos: vec![0, 0],
            ..empty_report(0)
        };
        assert_eq!(report.busy_skew(), None);
    }
}
