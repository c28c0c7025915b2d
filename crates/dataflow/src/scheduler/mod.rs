//! The event-driven DAG scheduler: a job runs on the thread that waits
//! for it.
//!
//! An action builds an explicit stage graph from the lineage of its target
//! RDD (`graph`: one *map stage* per shuffle dependency plus one *result
//! stage*) and wraps it, with the job's own event channel, in a
//! [`JobHandle`]. Waiting on the handle drives the job: the first wait
//! activates the stage graph, and each wait applies the job's events —
//! task completions and the resolution of another job's map stage it
//! watches — until the job finishes or fails. [`submit_job`] returns the
//! handle without waiting; every action waits on it at once. There is no
//! driver thread: a context runs exactly its executors' threads.
//!
//! What the driver knows about a running stage is one attempt table
//! (`attempts`): a slot per partition with at most one live attempt,
//! every launch stamped with a job-unique attempt id, every further
//! attempt — retry, loss replay, post-repair replay — decided by one
//! `relaunch` under one policy table. Task events do O(1) work on their
//! own slot. The driver has no timer: it blocks on its job's channel, and
//! only an event moves it.
//!
//! Every job is served alike: ready tasks join their executor's FIFO
//! queue in submission order, whichever job they belong to. Every
//! [`JobReport`] records the job's summed task queue-wait time.
//!
//! Tasks are *placed* on the executor owning their partition but may be
//! stolen by an idle sibling (see [`crate::executor`]); stolen attempts
//! are charged as remote in the job's [`StageReport::tasks_stolen`] and
//! the per-executor busy times recorded in each [`JobReport`].
//!
//! Failure semantics: failed task attempts retry up to the context's limit
//! with lineage recomputation, and an exhausted task aborts the whole job.
//! Whole-executor loss is a separate, budgeted path: an attempt that died
//! with its executor ([`TaskError::ExecutorLost`]) replays on the
//! replacement without charging its attempt budget, and a reduce attempt
//! that finds a parent shuffle block gone ([`TaskError::FetchFailed`])
//! waits in its slot while the scheduler claims the shuffle's recovery
//! ([`ShuffleService::claim_recovery`]) and re-runs exactly the missing
//! map partitions from lineage — surviving map output is reused, never
//! recomputed. Both paths draw on one per-job resubmission budget
//! (`SpangleContextBuilder::max_resubmissions`) so a permanently poisoned
//! shuffle aborts cleanly instead of looping.
//! On abort every shuffle the job still owns is abandoned (dropping its
//! partial map output) so concurrent or subsequent jobs can re-claim it —
//! an abort never wedges the cluster — and the aborted job still records a
//! [`JobReport`] with [`JobOutcome::Aborted`], its in-flight stages marked
//! [`StageOutcome::Aborted`], so no busy/steal accounting is lost.
//!
//! Tasks must never trigger nested actions: actions, and the scheduler
//! state transitions of their jobs, run on the caller's thread; task
//! bodies run on executor threads.
//!
//! [`ShuffleService::claim_recovery`]: crate::shuffle::ShuffleService::claim_recovery
//! [`JobOutcome::Aborted`]: crate::metrics::JobOutcome::Aborted
//! [`StageOutcome::Aborted`]: crate::metrics::StageOutcome::Aborted
//! [`StageReport::tasks_stolen`]: crate::metrics::StageReport::tasks_stolen

mod attempts;
mod graph;

use self::attempts::{AttemptId, Launch, Ledger, StageRun, Step};
use self::graph::{build_stages, Stage, StageState};
use crate::context::SpangleContext;
use crate::executor::{BlockOrigin, CancelledError, TaskInfo};
use crate::failure::TaskSite;
use crate::metrics::{JobOutcome, JobReport, MetricField, StageOutcome, StageReport};
use crate::rdd::Rdd;
use crate::shuffle::{FetchFailedError, RecoveryClaim};
use crate::sync::channel::{unbounded, Receiver, Sender};
use crate::Data;
use std::any::Any;
use std::collections::HashSet;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Information available to a running task.
#[derive(Clone, Copy, Debug)]
pub struct TaskContext {
    /// Job the task belongs to.
    pub job_id: usize,
    /// Stage the task belongs to.
    pub stage_id: usize,
    /// Partition the task computes.
    pub partition: usize,
    /// Zero-based attempt number (>0 on retries).
    pub attempt: usize,
    /// Executor the attempt is running on (known only once the attempt
    /// starts, so the context is built on the executor, not at
    /// submission).
    pub executor: usize,
    /// Incarnation of that executor (see [`crate::executor::BlockOrigin`]):
    /// blocks the task deposits are attributed to this incarnation and die
    /// with it.
    pub epoch: u64,
}

impl TaskContext {
    /// The block origin for everything this attempt produces.
    pub(crate) fn origin(&self) -> BlockOrigin {
        BlockOrigin::executor(self.executor, self.epoch)
    }
}

/// Why one task attempt failed.
#[derive(Clone, Debug)]
pub enum TaskError {
    /// The failure injector killed this attempt.
    Injected,
    /// User code panicked.
    Panicked(String),
    /// The executor the attempt ran on was killed before the attempt
    /// finished; the attempt's output was discarded with the executor and
    /// the task is replayed without charging its attempt budget.
    ExecutorLost {
        /// Slot of the lost executor.
        executor: usize,
    },
    /// A reduce-side fetch found a parent shuffle block that was lost with
    /// its executor. The scheduler re-runs the missing map partitions from
    /// lineage and then replays this attempt, again without charging its
    /// attempt budget.
    FetchFailed {
        /// Shuffle whose map output is gone.
        shuffle_id: usize,
        /// Map partition whose output is missing.
        map_id: usize,
    },
    /// The attempt was interrupted at a cancellation point: the driver
    /// cancelled its [`CancelToken`] (a job abort) or its executor was
    /// killed while the body ran. Never charges the per-task attempt
    /// budget — the interruption was the scheduler's own doing.
    ///
    /// [`CancelToken`]: crate::executor::CancelToken
    Cancelled,
    /// The executor pool shut down while the job was running.
    ExecutorShutdown,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Injected => write!(f, "injected failure"),
            TaskError::Panicked(msg) => write!(f, "task panicked: {msg}"),
            TaskError::ExecutorLost { executor } => {
                write!(f, "executor {executor} was lost mid-attempt")
            }
            TaskError::FetchFailed { shuffle_id, map_id } => write!(
                f,
                "fetch failed: map output {map_id} of shuffle {shuffle_id} was lost"
            ),
            TaskError::Cancelled => write!(f, "attempt cancelled at a cancellation point"),
            TaskError::ExecutorShutdown => write!(f, "executor pool shut down"),
        }
    }
}

/// A job failed: some task exhausted its attempts (or the cluster went
/// away underneath it).
#[derive(Clone, Debug)]
pub struct JobError {
    /// Job that aborted.
    pub job_id: usize,
    /// Stage of the failing task.
    pub stage_id: usize,
    /// Partition of the failing task.
    pub partition: usize,
    /// Attempts made.
    pub attempts: usize,
    /// The final attempt's error.
    pub last_error: TaskError,
}

impl JobError {
    /// An error of the job as a whole — its handle was dropped, or its
    /// result was already taken — rather than of one task's attempts.
    fn without_task(job_id: usize, last_error: TaskError) -> Self {
        JobError {
            job_id,
            stage_id: 0,
            partition: 0,
            attempts: 0,
            last_error,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} aborted: stage {} partition {} failed after {} attempts: {}",
            self.job_id, self.stage_id, self.partition, self.attempts, self.last_error
        )
    }
}

impl std::error::Error for JobError {}
/// A partition result in type-erased form: the stage graph is untyped, and
/// [`JobHandle`] downcasts the results back to its own type.
type ErasedResult = Box<dyn Any + Send>;

/// Task body of a stage: map stages write shuffle blocks and yield `None`,
/// the result stage yields `Some` type-erased partition result.
type StageWork = Arc<dyn Fn(&TaskContext) -> Option<ErasedResult> + Send + Sync>;

/// Everything that moves one job's driver, on the job's own channel.
enum Event {
    /// A task attempt finished (successfully or not).
    Task(TaskDone),
    /// An external (other-job) map stage finished: `completed` says
    /// whether its owner completed it or abandoned it.
    External { stage_idx: usize, completed: bool },
}

/// One partition's outcome from one launched executor task.
struct TaskDone {
    stage_idx: usize,
    partition: usize,
    /// The launch this event belongs to; the attempt number is the
    /// slot's to say.
    id: AttemptId,
    /// Task-body CPU time.
    nanos: u64,
    /// Time the attempt spent queued on the executor before starting.
    wait_nanos: u64,
    /// Executor the attempt actually ran on.
    ran_on: usize,
    /// Whether the attempt was stolen from its placed executor.
    stolen: bool,
    outcome: Result<Option<ErasedResult>, TaskError>,
}

/// Runs `func` over every partition of `rdd`, returning one result per
/// partition in partition order. This is the single entry point every
/// action lowers to: it plans the stage graph with [`submit_job`] and
/// drives the job to its end on the calling thread.
pub(crate) fn run_job<T: Data, R: Send + 'static>(
    rdd: &Rdd<T>,
    func: impl Fn(usize, Arc<Vec<T>>) -> R + Send + Sync + 'static,
) -> Result<Vec<R>, JobError> {
    submit_job(rdd, func).wait()
}

/// Plans a job without running it: the returned [`JobHandle`] starts the
/// job on its first [`JobHandle::wait`] or [`JobHandle::wait_timeout`].
pub fn submit_job<T: Data, R: Send + 'static>(
    rdd: &Rdd<T>,
    func: impl Fn(usize, Arc<Vec<T>>) -> R + Send + Sync + 'static,
) -> JobHandle<R> {
    submit_tasks(rdd, move |rdd, tc| {
        func(tc.partition, rdd.iterator(tc.partition, tc))
    })
}

/// [`submit_job`] for a task that reads its partition itself: `task` gets
/// the target dataset and the task's context instead of the materialised
/// partition, which is how the fold actions stream theirs.
pub(crate) fn submit_tasks<T: Data, R: Send + 'static>(
    rdd: &Rdd<T>,
    task: impl Fn(&Rdd<T>, &TaskContext) -> R + Send + Sync + 'static,
) -> JobHandle<R> {
    let ctx = rdd.context().clone();
    let job_id = ctx.new_job_id();

    let stages = build_stages(rdd, task);
    let result_idx = stages.len() - 1;
    let num_results = stages[result_idx].num_tasks;

    let (tx, events) = unbounded();
    let run = JobRun {
        job_id,
        stages,
        result_idx,
        tx,
        owned: HashSet::new(),
        outstanding: 0,
        running: 0,
        max_concurrent: 0,
        executor_busy: vec![0; ctx.num_executors()],
        queue_wait_nanos: 0,
        ledger: Ledger {
            job_id,
            resubmissions_left: ctx.config().max_resubmissions,
            next_id: 0,
            metrics: Arc::clone(&ctx.inner.metrics),
            config: Arc::clone(&ctx.inner.config),
        },
        reports: Vec::new(),
        results: std::iter::repeat_with(|| None).take(num_results).collect(),
        started: Instant::now(),
        ctx,
    };
    JobHandle {
        job_id,
        run: Some(run),
        events,
        _result: std::marker::PhantomData,
    }
}

/// One submitted job, driven by whoever waits on it.
///
/// A job runs while its handle is waited on: the first wait activates its
/// stage graph, and every wait applies the job's events on the waiting
/// thread. Its executor tasks run meanwhile either way, but only a wait
/// moves the job on from them — launching the next stage, a retry, a
/// recovery. A [`JobHandle::wait_timeout`] that times out leaves the job
/// paused where it was, and a later wait resumes it. Dropping a handle
/// whose job has not resolved aborts the job: its live attempts are
/// cancelled, the shuffles it owns are abandoned for other jobs to
/// re-claim, and it records a [`JobOutcome::Aborted`] report. The drop
/// does not wait for the cancelled bodies; each releases the job's lineage
/// as it returns.
///
/// A job resolves exactly once, and a wait returns only after every attempt
/// the job launched has reported, so the lineage an action's caller drops
/// is its last reference — a failed action's included. Its [`JobReport`] is
/// recorded *before* the wait returns, so `last_job_report()` observed
/// after a wait always covers this job — aborted ones included.
///
/// [`JobOutcome::Aborted`]: crate::metrics::JobOutcome::Aborted
pub struct JobHandle<R> {
    job_id: usize,
    /// The job's driver state; `None` once the job resolved.
    run: Option<JobRun>,
    /// The job's own channel: its tasks and watched shuffles post here.
    events: Receiver<Event>,
    _result: std::marker::PhantomData<fn() -> R>,
}

impl<R: Send + 'static> JobHandle<R> {
    /// Id of the submitted job.
    pub fn job_id(&self) -> usize {
        self.job_id
    }

    /// Drives the job until it resolves, or until no event arrives within
    /// `idle` (`None`: block for as long as it takes); the job then stays
    /// paused in the handle. `None` when paused or already resolved.
    fn drive(&mut self, idle: Option<Duration>) -> Option<Result<Vec<R>, JobError>> {
        // The job holds a sender of its own channel, so a receive fails only
        // on the idle timeout.
        let next = |events: &Receiver<Event>| match idle {
            None => events.recv().ok(),
            Some(idle) => events.recv_timeout(idle).ok(),
        };
        let run = self.run.as_mut()?;
        // Activation is idempotent: only the first wait starts the graph.
        let mut step = run.activate(run.result_idx);
        while step.is_ok() && !run.is_finished() {
            step = match next(&self.events)? {
                Event::Task(done) => run.on_task(done),
                Event::External {
                    stage_idx,
                    completed,
                } => run.on_external(stage_idx, completed),
            };
        }
        let mut run = self.run.take().expect("the job was driven above");
        // The job resolves once every attempt it launched has reported: an
        // aborted job's cancelled bodies hold its lineage until they return,
        // and shuffle garbage collection relies on the caller's drop being
        // the last reference. A body that outlasts the idle timeout is left
        // to return on its own.
        while run.outstanding > 0 {
            match next(&self.events) {
                Some(Event::Task(_)) => run.outstanding -= 1,
                Some(Event::External { .. }) => {}
                None => break,
            }
        }
        let outcome = match step {
            Ok(()) => Ok(run.finish()),
            Err(err) => Err(run.fail(err)),
        };
        Some(outcome.map(|results| {
            results
                .into_iter()
                .map(|r| {
                    *r.downcast::<R>()
                        .expect("job result stage produced a foreign result type")
                })
                .collect()
        }))
    }

    /// Drives the job to its end on this thread. Consumes the handle; a
    /// handle whose result was already taken by `wait_timeout` resolves as
    /// [`TaskError::ExecutorShutdown`].
    pub fn wait(mut self) -> Result<Vec<R>, JobError> {
        self.drive(None).unwrap_or_else(|| {
            Err(JobError::without_task(
                self.job_id,
                TaskError::ExecutorShutdown,
            ))
        })
    }

    /// Drives the job on this thread until it resolves or no event arrives
    /// for `idle`; `None` in the second case (the job stays paused until
    /// the next wait) or after the result was already taken. The timeout
    /// bounds each wait for an event, not the call: it tells a wedged job
    /// from a busy one.
    pub fn wait_timeout(&mut self, idle: Duration) -> Option<Result<Vec<R>, JobError>> {
        self.drive(Some(idle))
    }
}

impl<R> Drop for JobHandle<R> {
    /// Aborts a job nobody waits for any more.
    fn drop(&mut self) {
        if let Some(mut run) = self.run.take() {
            let err = run.abort(JobError::without_task(self.job_id, TaskError::Cancelled));
            run.fail(err);
        }
    }
}

/// Driver-side state of one job, owned by its [`JobHandle`] until the job
/// resolves.
struct JobRun {
    ctx: SpangleContext,
    job_id: usize,
    stages: Vec<Stage>,
    /// Index of the result stage (always the last).
    result_idx: usize,
    /// The job's own event channel, cloned into every task it launches
    /// and every shuffle it watches.
    tx: Sender<Event>,
    /// Shuffles this job claimed ownership of and has not completed yet;
    /// abandoned on abort so other jobs can re-claim them.
    owned: HashSet<usize>,
    /// Executor tasks launched and not yet reported: each sends exactly
    /// one task event.
    outstanding: usize,
    /// Stages currently in `Running` state.
    running: usize,
    /// High-water mark of `running`.
    max_concurrent: usize,
    /// Nanoseconds of this job's task time per executor, from task events.
    executor_busy: Vec<u64>,
    /// Nanoseconds this job's task attempts spent queued on executors
    /// before starting, summed over attempts.
    queue_wait_nanos: u64,
    /// Budgets, policies and the attempt-id counter every stage run's
    /// attempt table draws on.
    ledger: Ledger,
    reports: Vec<StageReport>,
    /// Result-stage outputs, filled in as task events arrive.
    results: Vec<Option<ErasedResult>>,
    started: Instant,
}

impl JobRun {
    /// Whether the result stage (and therefore the job) is done.
    fn is_finished(&self) -> bool {
        self.stages[self.result_idx].state == StageState::Finished
    }

    /// Applies one task event: accounts its time, lets the stage run's
    /// attempt table judge it, and carries out what the table decided.
    fn on_task(&mut self, done: TaskDone) -> Result<(), JobError> {
        self.outstanding -= 1;
        let stage_idx = done.stage_idx;
        self.executor_busy[done.ran_on] += done.nanos;
        self.queue_wait_nanos += done.wait_nanos;
        // A straggler of a run that already finished: nothing left to tell.
        let Some(run) = self.stages[stage_idx].run.as_mut() else {
            return Ok(());
        };
        run.report.task_nanos += done.nanos;
        if done.stolen {
            run.count(&self.ledger, MetricField::TasksStolen, 1);
        }
        let (result, outcome) = match done.outcome {
            Ok(result) => (result, Ok(())),
            Err(err) => (None, Err(err)),
        };
        match run.on_outcome(done.partition, done.id, outcome, &mut self.ledger) {
            Err(err) => Err(self.abort(err)),
            Ok(Step::Nothing) => Ok(()),
            Ok(Step::Settled) => {
                let finished = run.unsettled == 0;
                if let Some(r) = result {
                    self.results[done.partition] = Some(r);
                }
                if finished {
                    self.finish_stage(stage_idx)?;
                }
                Ok(())
            }
            Ok(Step::Launch(launch)) => self.submit(stage_idx, launch),
            Ok(Step::Parked(shuffle_id)) => self.repair(stage_idx, shuffle_id),
        }
    }

    /// Starts a run of stage `idx` — its first, or a recovery re-run of
    /// `recovered_maps` lost map partitions — under a fresh stage id.
    fn start_run(&mut self, idx: usize, recovered_maps: usize) {
        let (now, snap) = (Instant::now(), self.ctx.metrics_snapshot());
        let stage = &mut self.stages[idx];
        let stage_id = self.ctx.new_stage_id();
        let mut run = StageRun::new(stage, stage_id, stage.num_tasks, now, snap);
        run.count(&self.ledger, MetricField::StagesRun, 1);
        let recomputed = MetricField::MapPartitionsRecomputed;
        run.count(&self.ledger, recomputed, recovered_maps as u64);
        stage.run = Some(run);
        stage.state = StageState::Running;
        self.running += 1;
        self.max_concurrent = self.max_concurrent.max(self.running);
    }

    /// Submits every task of a stage to the executor pool, one per
    /// partition.
    ///
    /// Only a stage's first run counts its planned rewrites: a recovery
    /// run re-executes them but decides nothing new.
    fn submit_stage(&mut self, idx: usize) -> Result<(), JobError> {
        self.start_run(idx, 0);
        let stage = &mut self.stages[idx];
        let num_tasks = stage.num_tasks;
        let rewrites = [
            (MetricField::StagesFused, stage.plan.fused_chains),
            (MetricField::ShufflesElided, stage.plan.elided_shuffles),
        ];
        let run = stage.run.as_mut().expect("started above");
        for (field, n) in rewrites {
            run.count(&self.ledger, field, n as u64);
        }
        if num_tasks == 0 {
            return self.finish_stage(idx);
        }
        (0..num_tasks).try_for_each(|p| self.launch(idx, p))
    }

    /// First launch of `partition` of the running stage `idx`.
    fn launch(&mut self, idx: usize, partition: usize) -> Result<(), JobError> {
        let run = self.stages[idx]
            .run
            .as_mut()
            .expect("launch into a running stage");
        let launch = run.launch(partition, &mut self.ledger);
        self.submit(idx, launch)
    }

    /// The one place executor tasks are submitted: first launches,
    /// retries and loss and post-repair replays all arrive here as a
    /// [`Launch`] the attempt table decided.
    ///
    /// The task is placed on the executor owning its partition. A
    /// shut-down pool aborts the job cleanly.
    fn submit(&mut self, stage_idx: usize, launch: Launch) -> Result<(), JobError> {
        let (partition, attempt, id) = (launch.partition, launch.attempt, launch.id);
        let stage = &self.stages[stage_idx];
        let job_id = self.job_id;
        let run = stage.run.as_ref().expect("submit into a running stage");
        let stage_id = run.report.stage_id;
        let site = TaskSite {
            rdd_id: stage.site_rdd,
            partition,
        };
        let work = Arc::clone(&stage.work);
        let tx = self.tx.clone();
        let ctx = self.ctx.clone();
        let queued = Instant::now();
        let task = Box::new(move |info: &TaskInfo| {
            let wait_nanos = queued.elapsed().as_nanos() as u64;
            ctx.metrics().add(MetricField::TasksRun, 1);
            // Built here, not at submission: the executor (and its
            // incarnation) are only known once the attempt starts, and
            // everything the attempt produces is attributed to them.
            let tc = TaskContext {
                job_id,
                stage_id,
                partition,
                attempt,
                executor: info.ran_on,
                epoch: info.epoch,
            };
            let start = Instant::now();
            // The attempt runs its body, or what the injector drew in its
            // place; what it then reports is the injector's to settle too
            // (an armed kill fires after the body, and an attempt that
            // outlived its executor is lost).
            let fault = ctx.inner.failures.draw(site, attempt);
            let ran = std::panic::catch_unwind(AssertUnwindSafe(|| match fault {
                Some(fault) => Err(fault.play()),
                None => Ok(work(&tc)),
            }));
            let outcome = ran.unwrap_or_else(|payload| Err(task_error(payload.as_ref())));
            let outcome = ctx.inner.failures.settle(&ctx, info, outcome);
            // Release the work closure (and the lineage Arcs it captures)
            // BEFORE signalling the driver: once the driver sees the final
            // event the job may return and drop its RDDs, and shuffle
            // garbage collection relies on those being the last
            // references.
            drop(work);
            // The job may have resolved already, its channel gone with it.
            let _ = tx.send(Event::Task(TaskDone {
                stage_idx,
                partition,
                id,
                nanos: start.elapsed().as_nanos() as u64,
                wait_nanos,
                ran_on: info.ran_on,
                stolen: info.stolen,
                outcome,
            }));
        });
        let pool = &self.ctx.inner.pool;
        pool.submit_on(pool.executor_for(partition), Some(launch.token), task)
            .map_err(|_| {
                self.abort(JobError {
                    job_id,
                    stage_id,
                    partition,
                    attempts: attempt,
                    last_error: TaskError::ExecutorShutdown,
                })
            })?;
        self.outstanding += 1;
        Ok(())
    }

    /// All tasks of a stage completed: publish its shuffle, account it,
    /// and wake children that were waiting on it.
    fn finish_stage(&mut self, idx: usize) -> Result<(), JobError> {
        let snap = self.ctx.metrics_snapshot();
        let stage = &mut self.stages[idx];
        stage.state = StageState::Finished;
        self.running -= 1;
        let mut run = stage.run.take().expect("a finishing stage has a run");
        if let Some(shuffle_id) = stage.shuffle_id {
            // The returned missing-map list can be non-empty here: an
            // executor killed between a map task's completion and stage
            // close already took that output with it. The first dependent
            // fetch surfaces it as FetchFailed and recovery re-runs
            // exactly those maps, so no proactive action is needed.
            let _ = self
                .ctx
                .inner
                .shuffle
                .mark_completed(shuffle_id, stage.num_tasks);
            self.owned.remove(&shuffle_id);
        }
        run.close(StageOutcome::Ran, snap, Instant::now());
        self.reports.push(run.report);
        self.satisfy_children(idx)
    }

    /// Relaunches every attempt of the running stage `idx` parked on
    /// `shuffle_id`, whose lost map output is whole again.
    fn flush_parked(&mut self, idx: usize, shuffle_id: usize) -> Result<(), JobError> {
        let run = self.stages[idx]
            .run
            .as_mut()
            .expect("parked in a running stage");
        run.repaired(shuffle_id, &mut self.ledger)
            .into_iter()
            .try_for_each(|launch| self.submit(idx, launch))
    }

    /// An attempt of `stage_idx` just parked on a fetch failure against
    /// `shuffle_id`: makes sure the shuffle's missing map output is being
    /// rebuilt — by claiming the recovery and re-running exactly the lost
    /// map partitions, by watching another job's in-flight rebuild, or by
    /// finding it already whole again.
    fn repair(&mut self, stage_idx: usize, shuffle_id: usize) -> Result<(), JobError> {
        let parent_idx = self
            .stages
            .iter()
            .position(|s| s.shuffle_id == Some(shuffle_id))
            .expect("fetch failure names a shuffle outside the job's stage graph");
        if matches!(
            self.stages[parent_idx].state,
            StageState::Running | StageState::External
        ) {
            // Already being handled: an earlier fetch failure started a
            // recovery run (Running) or subscribed to another job's
            // (External). The parked attempt relaunches when it resolves.
            //
            // Any other state proceeds to claim the recovery — including
            // `Idle`: demand-driven activation never descends past a
            // skipped stage, so a grandparent shuffle of an all-skipped
            // ancestry is first reached *here*, when a recovery task
            // trips over its holes.
            return Ok(());
        }
        let num_maps = self.stages[parent_idx].num_tasks;
        match self.ctx.inner.shuffle.claim_recovery(shuffle_id, num_maps) {
            RecoveryClaim::Owner { missing } => {
                // Re-run the missing map partitions from lineage: the
                // stage goes back to `Running` with only those slots
                // unsettled — surviving output is reused, never recomputed.
                self.owned.insert(shuffle_id);
                self.start_run(parent_idx, missing.len());
                missing
                    .into_iter()
                    .try_for_each(|p| self.launch(parent_idx, p))
            }
            RecoveryClaim::InFlight => {
                self.watch(parent_idx, shuffle_id);
                Ok(())
            }
            RecoveryClaim::Recovered => self.flush_parked(stage_idx, shuffle_id),
        }
    }

    /// Gives the job up over `err`: cancels every live attempt at its next
    /// cancellation point (an abort must free the executors, not wait out
    /// wedged bodies) and releases every shuffle
    /// claim the job still holds (dropping their partial map output) so
    /// other or future jobs can re-claim and run those map stages.
    fn abort(&mut self, err: JobError) -> JobError {
        for run in self.stages.iter_mut().filter_map(|s| s.run.as_mut()) {
            run.cancel_all(&self.ledger);
        }
        for shuffle_id in self.owned.drain() {
            self.ctx.inner.shuffle.abandon(shuffle_id);
        }
        err
    }

    /// Resolves a successful job: records its report (before the wait
    /// returns), then hands the caller its results.
    fn finish(mut self) -> Vec<ErasedResult> {
        self.record(JobOutcome::Succeeded);
        let results: Vec<ErasedResult> = std::mem::take(&mut self.results)
            .into_iter()
            .map(|r| r.expect("job finished with a missing partition result"))
            .collect();
        // Release the stage graph (and the lineage Arcs its work closures
        // capture) before the wait returns: shuffle garbage collection
        // relies on the caller's drop being the last reference.
        self.stages.clear();
        results
    }

    /// Resolves an aborted job: every stage still in flight gets a
    /// [`StageOutcome::Aborted`] entry so its partial task time and steal
    /// counts are not lost, the report is recorded with
    /// [`JobOutcome::Aborted`], and only then is the error handed back —
    /// `last_job_report()` after a failed action therefore describes the
    /// failed job, not the previous one.
    fn fail(mut self, err: JobError) -> JobError {
        let (snap, now) = (self.ctx.metrics_snapshot(), Instant::now());
        for mut run in self.stages.iter_mut().filter_map(|stage| stage.run.take()) {
            run.close(StageOutcome::Aborted, snap, now);
            self.reports.push(run.report);
        }
        self.record(JobOutcome::Aborted);
        // As in `finish`: the caller must hold the last lineage references
        // once the wait returns.
        self.stages.clear();
        err
    }

    /// Records the job's [`JobReport`] on the context's metrics.
    fn record(&mut self, outcome: JobOutcome) {
        self.ctx.metrics().record_job(JobReport {
            job_id: self.job_id,
            outcome,
            stages: std::mem::take(&mut self.reports),
            max_concurrent_stages: self.max_concurrent,
            executor_busy_nanos: std::mem::take(&mut self.executor_busy),
            queue_wait_nanos: self.queue_wait_nanos,
            admission_wait_nanos: 0,
            wall_nanos: self.started.elapsed().as_nanos() as u64,
        });
    }
}

/// What a task body's unwind means: a cancellation, a typed fetch failure
/// (which names the shuffle to repair), or a panic with its message.
fn task_error(payload: &(dyn Any + Send)) -> TaskError {
    if payload.downcast_ref::<CancelledError>().is_some() {
        TaskError::Cancelled
    } else if let Some(fetch) = payload.downcast_ref::<FetchFailedError>() {
        TaskError::FetchFailed {
            shuffle_id: fetch.shuffle_id,
            map_id: fetch.map_id,
        }
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        TaskError::Panicked((*s).to_string())
    } else if let Some(s) = payload.downcast_ref::<String>() {
        TaskError::Panicked(s.clone())
    } else {
        TaskError::Panicked("unknown panic payload".to_string())
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::{JobOutcome, StageOutcome};
    use crate::rdd::pair::PairRdd;
    use crate::{HashPartitioner, SpangleContext};
    use std::sync::Arc;

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort();
        v
    }

    /// The instant the attempt table's clock-free tests call zero: the
    /// table's own file never names the clock, not even to test.
    pub(super) fn origin() -> std::time::Instant {
        std::time::Instant::now()
    }

    #[test]
    fn reduce_by_key_merges_all_values() {
        let ctx = SpangleContext::new(3);
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 10, 1)).collect();
        let rdd = ctx.parallelize(pairs, 5);
        let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(4)), |a, b| a + b);
        let out = sorted(reduced.collect().unwrap());
        assert_eq!(out, (0u64..10).map(|k| (k, 10u64)).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_job_runs_two_stages_and_charges_bytes() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..50).map(|i| (i % 5, i)).collect(), 4);
        let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a + b);
        let before = ctx.metrics_snapshot();
        reduced.collect().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.stages_run, 2, "one map stage + one result stage");
        assert_eq!(delta.tasks_run, 4 + 3);
        assert!(delta.shuffle_write_bytes > 0);
        assert!(delta.shuffle_read_bytes > 0);
    }

    #[test]
    fn second_action_skips_the_completed_map_stage() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..50).map(|i| (i % 5, i)).collect(), 4);
        let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a + b);
        reduced.collect().unwrap();
        let before = ctx.metrics_snapshot();
        reduced.count().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.stages_run, 1, "map stage must be skipped");
        assert_eq!(delta.stages_skipped, 1);
        assert_eq!(delta.shuffle_write_bytes, 0);
        let report = ctx.last_job_report().unwrap();
        assert_eq!(report.stages_run(), 1);
        assert_eq!(report.stages_skipped(), 1);
        assert_eq!(report.outcome, JobOutcome::Succeeded);
    }

    #[test]
    fn join_produces_the_cross_product_per_key() {
        let ctx = SpangleContext::new(2);
        let left = ctx.parallelize(vec![(1u64, "a"), (1, "b"), (2, "c")], 2);
        let right = ctx.parallelize(vec![(1u64, 10u64), (2, 20), (3, 30)], 2);
        // &str is not MemSize; map to String first.
        let left = left.map(|(k, v)| (k, v.to_string()));
        let joined = left.join(&right, Arc::new(HashPartitioner::new(2)));
        let out = sorted(joined.collect().unwrap());
        assert_eq!(
            out,
            vec![
                (1, ("a".to_string(), 10)),
                (1, ("b".to_string(), 10)),
                (2, ("c".to_string(), 20)),
            ]
        );
    }

    #[test]
    fn cogroup_of_copartitioned_sides_is_shuffle_free() {
        let ctx = SpangleContext::new(2);
        let p: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(4));
        let left = ctx
            .parallelize((0u64..40).map(|i| (i % 8, i)).collect(), 4)
            .partition_by(p.clone());
        let right = ctx
            .parallelize((0u64..40).map(|i| (i % 8, i * 2)).collect(), 4)
            .partition_by(p.clone());
        // Materialise both sides' shuffles first.
        left.persist().count().unwrap();
        right.persist().count().unwrap();

        let before = ctx.metrics_snapshot();
        let grouped = left.cogroup(&right, p);
        let n = grouped.count().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(n, 8);
        assert_eq!(delta.shuffle_write_bytes, 0, "local join must not shuffle");
        assert_eq!(delta.stages_run, 1, "local join runs in a single stage");
    }

    #[test]
    fn cogroup_of_unaligned_sides_shuffles_both() {
        let ctx = SpangleContext::new(2);
        let left = ctx.parallelize((0u64..40).map(|i| (i % 8, i)).collect(), 4);
        let right = ctx.parallelize((0u64..40).map(|i| (i % 8, i * 2)).collect(), 5);
        let before = ctx.metrics_snapshot();
        let grouped = left.cogroup(&right, Arc::new(HashPartitioner::new(4)));
        grouped.count().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.stages_run, 3, "two map stages + result stage");
        assert!(delta.shuffle_write_bytes > 0);
    }

    /// The event-driven scheduler's signature behaviour: the two map
    /// stages of an unaligned join have no edge between them, so both are
    /// submitted before any task completes and run concurrently.
    #[test]
    fn unaligned_join_runs_sibling_map_stages_concurrently() {
        let ctx = SpangleContext::new(4);
        let left = ctx.parallelize((0u64..400).map(|i| (i % 16, i)).collect(), 4);
        let right = ctx.parallelize((0u64..400).map(|i| (i % 16, i * 2)).collect(), 5);
        let joined = left.join(&right, Arc::new(HashPartitioner::new(4)));
        let n = joined.count().unwrap();
        assert!(n > 0);
        let report = ctx.last_job_report().unwrap();
        assert!(
            report.max_concurrent_stages >= 2,
            "sibling map stages must overlap, report was: {report}"
        );
        assert_eq!(report.stages.len(), 3);
    }

    /// When one sibling map stage exhausts its retries the job aborts
    /// without deadlocking, and every shuffle claim the job held is
    /// released so a rerun can claim and complete them. The attempt limit
    /// comes from the builder, not a magic constant.
    #[test]
    fn sibling_stage_failure_aborts_and_releases_claims() {
        let ctx = SpangleContext::builder()
            .executors(2)
            .max_task_attempts(3)
            .build();
        let left = ctx.parallelize((0u64..40).map(|i| (i % 8, i)).collect(), 4);
        let right = ctx.parallelize((0u64..40).map(|i| (i % 8, i * 2)).collect(), 5);
        // Kill one left-side map task exactly as often as the attempt
        // limit: the first job aborts, the injector drains, a rerun works.
        ctx.failure_injector()
            .fail_task(left.id(), 1, ctx.max_task_attempts());
        let grouped = left.cogroup(&right, Arc::new(HashPartitioner::new(4)));
        let err = grouped.count().unwrap_err();
        assert_eq!(err.partition, 1);
        assert_eq!(err.attempts, ctx.max_task_attempts());
        assert!(ctx.failure_injector().is_drained());
        // The aborted job still recorded a report.
        let report = ctx.last_job_report().unwrap();
        assert_eq!(report.job_id, err.job_id);
        assert_eq!(report.outcome, JobOutcome::Aborted);
        assert!(report.stages_aborted() >= 1);
        // Claims were abandoned, not leaked: the rerun owns both map
        // stages again and completes.
        let n = grouped.count().unwrap();
        assert_eq!(n, 8);
    }

    /// Two jobs racing over the same shuffled RDD: the claim protocol
    /// elects one owner for the map stage, the other job waits for (or
    /// reuses) its output, and the maps run exactly once in total.
    #[test]
    fn concurrent_jobs_run_a_shared_map_stage_exactly_once() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..60).map(|i| (i % 6, 1u64)).collect(), 4);
        let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a + b);
        let before = ctx.metrics_snapshot();
        let (a, b) = {
            let ra = reduced.clone();
            let rb = reduced.clone();
            let ta = std::thread::spawn(move || sorted(ra.collect().unwrap()));
            let tb = std::thread::spawn(move || sorted(rb.collect().unwrap()));
            (ta.join().unwrap(), tb.join().unwrap())
        };
        assert_eq!(a, b);
        assert_eq!(a, (0u64..6).map(|k| (k, 10u64)).collect::<Vec<_>>());
        let delta = ctx.metrics_snapshot() - before;
        // One map stage (4 tasks) ran once; each job ran its own result
        // stage (3 tasks); the non-owner skipped the map stage.
        assert_eq!(delta.tasks_run, 4 + 3 + 3, "map tasks must not run twice");
        assert_eq!(delta.stages_run, 3);
        assert_eq!(delta.stages_skipped, 1);
    }

    #[test]
    fn injected_task_failure_is_retried_and_job_succeeds() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..20).collect(), 4);
        ctx.failure_injector().fail_task(rdd.id(), 2, 2);
        let before = ctx.metrics_snapshot();
        let sum: u64 = rdd.reduce(|a, b| a + b).unwrap().unwrap();
        assert_eq!(sum, 190);
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.task_retries, 2);
        assert!(ctx.failure_injector().is_drained());
    }

    /// The attempt limit is builder-configurable, and the exhausted job's
    /// error reflects whatever limit the context was built with.
    #[test]
    fn exhausted_attempts_abort_the_job() {
        for limit in [2usize, 4] {
            let ctx = SpangleContext::builder()
                .executors(2)
                .max_task_attempts(limit)
                .build();
            let rdd = ctx.parallelize((0u64..20).collect(), 4);
            ctx.failure_injector().fail_task(rdd.id(), 1, 100);
            let err = rdd.collect().unwrap_err();
            assert_eq!(err.partition, 1);
            assert_eq!(err.attempts, limit);
        }
    }

    #[test]
    fn panicking_task_surfaces_as_job_error() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..10).collect(), 2);
        let bad = rdd.map(|x| {
            assert!(x != 7, "poison element");
            x
        });
        let err = bad.collect().unwrap_err();
        match err.last_error {
            crate::TaskError::Panicked(msg) => assert!(msg.contains("poison"), "msg was: {msg}"),
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn evicted_cached_partition_is_recomputed_from_lineage() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..100).collect(), 4).map(|x| x * 3);
        rdd.persist();
        let first = rdd.collect().unwrap();
        // All four partitions cached now; evict one and recompute.
        assert!(ctx.evict_cached_partition(rdd.id(), 1));
        let before = ctx.metrics_snapshot();
        let second = rdd.collect().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(first, second);
        assert_eq!(delta.cache_hits, 3);
        assert_eq!(delta.cache_misses, 1);
    }

    #[test]
    fn cached_shuffled_rdd_survives_without_rerunning_maps() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..40).map(|i| (i % 4, 1u64)).collect(), 4);
        let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
        reduced.persist();
        reduced.count().unwrap();
        let before = ctx.metrics_snapshot();
        let out = sorted(reduced.collect().unwrap());
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(out, vec![(0, 10), (1, 10), (2, 10), (3, 10)]);
        assert_eq!(delta.cache_hits, 2);
        assert_eq!(delta.shuffle_read_bytes, 0, "reads come from cache");
    }

    #[test]
    fn map_values_preserves_partitioning() {
        let ctx = SpangleContext::new(2);
        let p: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(3));
        let rdd = ctx
            .parallelize((0u64..30).map(|i| (i, i)).collect(), 3)
            .partition_by(p.clone());
        let mapped = rdd.map_values(|v| v * 2);
        assert_eq!(
            mapped.partitioner_sig(),
            Some(crate::partitioner::Partitioner::<u64>::sig(&*p))
        );
        // And filtering keeps it too.
        let filtered = mapped.filter(|(_, v)| v % 4 == 0);
        assert!(filtered.partitioner_sig().is_some());
    }

    #[test]
    fn chained_shuffles_run_in_topological_order() {
        let ctx = SpangleContext::new(3);
        let rdd = ctx.parallelize((0u64..60).map(|i| (i % 6, 1u64)).collect(), 4);
        // Two chained shuffles: reduce then re-key and reduce again.
        let once = rdd.reduce_by_key(Arc::new(HashPartitioner::new(3)), |a, b| a + b);
        let twice = once
            .map(|(k, v)| (k % 2, v))
            .reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
        let before = ctx.metrics_snapshot();
        let out = sorted(twice.collect().unwrap());
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(out, vec![(0, 30), (1, 30)]);
        assert_eq!(delta.stages_run, 3);
        // Chained stages depend on each other, so the event-driven
        // scheduler must still run them one at a time, parents first.
        let report = ctx.last_job_report().unwrap();
        assert_eq!(report.max_concurrent_stages, 1);
        let order: Vec<Option<usize>> = report.stages.iter().map(|s| s.shuffle_id).collect();
        assert_eq!(order.len(), 3);
        assert!(order[0].is_some() && order[1].is_some());
        assert!(
            order[0].unwrap() < order[1].unwrap(),
            "first shuffle must complete before the one that reads it"
        );
        assert_eq!(order[2], None, "result stage completes last");
    }

    /// Deliberately skewed partition durations: the executor owning the
    /// slow partitions backs up, its idle sibling steals the backlog, and
    /// the steals are charged as remote in the job report.
    #[test]
    fn skewed_partitions_are_stolen_and_charged_remote() {
        let ctx = SpangleContext::new(2);
        // 6 partitions of 10 elements on 2 executors: partitions 0/2/4
        // (all placed on executor 0) sleep once, partitions 1/3/5 are
        // instant — executor 1 drains its own queue and must steal.
        let rdd = ctx.parallelize((0u64..60).collect(), 6).map(|x| {
            if (x / 10) % 2 == 0 && x % 10 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            x
        });
        let before = ctx.metrics_snapshot();
        assert_eq!(rdd.count().unwrap(), 60);
        let delta = ctx.metrics_snapshot() - before;
        let report = ctx.last_job_report().unwrap();
        assert!(
            report.counts().tasks_stolen >= 1,
            "idle executor must steal from the skewed backlog, report was: {report}"
        );
        assert_eq!(delta.tasks_stolen, report.counts().tasks_stolen);
        assert_eq!(report.executor_busy_nanos.len(), 2);
        assert!(
            report.executor_busy_nanos.iter().sum::<u64>() > 0,
            "busy time must be attributed"
        );
    }

    /// The locality guarantee: a perfectly balanced co-partitioned join
    /// (one task per executor at every stage) never steals — every task
    /// runs on the executor its partition is placed on, so the join stays
    /// genuinely local.
    #[test]
    fn balanced_copartitioned_join_never_steals() {
        let ctx = SpangleContext::new(4);
        let p: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(4));
        let left = ctx
            .parallelize((0u64..40).map(|i| (i % 8, i)).collect(), 4)
            .partition_by(p.clone());
        let right = ctx
            .parallelize((0u64..40).map(|i| (i % 8, i * 2)).collect(), 4)
            .partition_by(p.clone());
        let before = ctx.metrics_snapshot();
        left.persist().count().unwrap();
        right.persist().count().unwrap();

        let before_join = ctx.metrics_snapshot();
        let grouped = left.cogroup(&right, p);
        let n = grouped.count().unwrap();
        let join_delta = ctx.metrics_snapshot() - before_join;
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(n, 8);
        let report = ctx.last_job_report().unwrap();
        assert_eq!(
            report.counts().tasks_stolen,
            0,
            "balanced one-task-per-executor stages must stay local: {report}"
        );
        assert_eq!(
            delta.tasks_stolen, 0,
            "no stage of this balanced pipeline may steal"
        );
        assert_eq!(
            join_delta.shuffle_write_bytes, 0,
            "local join must not shuffle"
        );
    }

    #[test]
    fn group_by_key_collects_every_value() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..12).map(|i| (i % 3, i)).collect(), 3);
        let grouped = rdd.group_by_key(Arc::new(HashPartitioner::new(2)));
        let mut out = grouped.collect().unwrap();
        out.sort_by_key(|(k, _)| *k);
        for (k, mut vs) in out {
            vs.sort();
            assert_eq!(vs, (0..4).map(|j| k + 3 * j).collect::<Vec<_>>());
        }
    }

    /// Regression (abort-path): an aborted job must record a report of its
    /// own — outcome `Aborted`, the in-flight stage marked
    /// `StageOutcome::Aborted`, busy time attributed — instead of leaving
    /// `last_job_report()` pointing at the previous job.
    #[test]
    fn aborted_job_records_its_own_report() {
        let ctx = SpangleContext::builder()
            .executors(2)
            .max_task_attempts(2)
            .build();
        // A successful job first, so a missing abort report would surface
        // as this stale one.
        let ok = ctx.parallelize((0u64..8).collect(), 2);
        ok.count().unwrap();
        let stale = ctx.last_job_report().unwrap();

        let rdd = ctx.parallelize((0u64..40).collect(), 4);
        ctx.failure_injector().fail_task(rdd.id(), 1, 100);
        let err = rdd.collect().unwrap_err();
        let report = ctx.last_job_report().unwrap();
        assert_ne!(report.job_id, stale.job_id, "the abort must be recorded");
        assert_eq!(report.job_id, err.job_id);
        assert_eq!(report.outcome, JobOutcome::Aborted);
        assert_eq!(report.stages_aborted(), 1);
        assert!(
            report
                .stages
                .iter()
                .any(|s| s.outcome == StageOutcome::Aborted && s.task_nanos > 0),
            "the aborted stage's partial task time must be accounted: {report}"
        );
        assert!(
            report.executor_busy_nanos.iter().sum::<u64>() > 0,
            "successful sibling attempts must appear in busy accounting"
        );
    }

    /// Regression (abort-path): abandoning a shuffle mid-abort drops the
    /// partial map output, so an aborted job with no rerun leaves zero
    /// resident shuffle bytes behind.
    #[test]
    fn aborted_shuffle_job_leaves_no_resident_bytes() {
        let ctx = SpangleContext::builder()
            .executors(2)
            .max_task_attempts(2)
            .build();
        let rdd = ctx.parallelize((0u64..40).map(|i| (i % 4, i)).collect(), 4);
        let reduced = rdd.reduce_by_key(Arc::new(HashPartitioner::new(2)), |a, b| a + b);
        // Partition 1's map task always fails; partitions 0/2/3 write
        // their buckets before the abort.
        ctx.failure_injector().fail_task(rdd.id(), 1, 100);
        let err = reduced.collect().unwrap_err();
        assert!(matches!(err.last_error, crate::TaskError::Injected));
        assert_eq!(
            ctx.shuffle_resident_bytes(),
            0,
            "partial map output must be dropped with the abandoned claim"
        );
        assert_eq!(ctx.last_job_report().unwrap().outcome, JobOutcome::Aborted);
    }

    /// Regression: a child's readiness used to be a countdown that every
    /// finish of a parent decremented — a *recovery* re-run's included —
    /// so a child of two parents could be submitted while the other parent
    /// still ran. Shuffle A (two maps) feeds map stage B (one task, on
    /// executor 0) and, with B, the co-partitioned join C. Executor 0 is
    /// killed as B's task ends: its replay finds A's map 0 gone and parks,
    /// A's recovery re-runs that map, and when it finishes B is running
    /// again. C must wait for B. The resubmission budget is exactly what
    /// the loss costs — B's replay and its park — so a C submitted early,
    /// whose task parks on B's unfinished shuffle, overdraws it.
    #[test]
    fn a_recovery_rerun_of_one_parent_does_not_release_a_child_of_two() {
        let ctx = SpangleContext::builder()
            .executors(2)
            .max_resubmissions(2)
            .build();
        let one: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(1));
        let base = ctx.parallelize((0u64..40).map(|i| (i % 8, i)).collect(), 2);
        let a = base.reduce_by_key(one.clone(), |x, y| x + y);
        let b = a
            .map(|(k, v)| (k % 2, v))
            .reduce_by_key(one.clone(), |x, y| x + y);
        let c = a.cogroup(&b, one);
        // Executor 0 runs A's map 0, then B's only task, and dies.
        ctx.failure_injector().kill_executor_after(0, 2);
        let before = ctx.metrics_snapshot();
        assert_eq!(c.count().unwrap(), 8);
        assert!(ctx.failure_injector().is_drained());

        let delta = ctx.metrics_snapshot() - before;
        assert_eq!((delta.executors_lost, delta.fetch_failures), (1, 1));
        assert_eq!(delta.map_partitions_recomputed, 1, "A's map 0, not B's");
        let report = ctx.last_job_report().unwrap();
        let runs: Vec<_> = report
            .stages
            .iter()
            .map(|s| (s.shuffle_id.is_some(), s.counts.map_partitions_recomputed))
            .collect();
        assert_eq!(
            runs,
            [(true, 0), (true, 1), (true, 0), (false, 0)],
            "A, A's recovery, B, then C: {report}"
        );
        let join = report.stages.last().unwrap();
        assert_eq!(
            join.counts.fetch_failures, 0,
            "C never read a parent mid-run"
        );
        assert!(report.stages.iter().all(|s| s.stage_id <= join.stage_id));
    }
}
