//! The event-driven DAG scheduler: one shared driver service per context.
//!
//! An action builds an explicit stage graph from the lineage of its target
//! RDD (`graph`: one *map stage* per shuffle dependency plus one *result
//! stage*) and hands the job to the context's `SchedulerService` — a
//! single long-lived driver loop that multiplexes events from *all*
//! concurrent jobs over one tagged channel
//! ([`crate::sync::channel::MuxSender`]), keeping per-job state in a
//! `HashMap<job_id, JobRun>`. The caller blocks on a [`JobHandle`] until
//! the service resolves the job; [`submit_job`] exposes the non-blocking
//! half. A submitted job starts at once.
//!
//! What the driver knows about a running stage is one attempt table
//! (`attempts`): a slot per partition, every launch stamped with a
//! job-unique attempt id, every further attempt — retry, loss replay,
//! post-repair replay, watchdog duplicate — decided by one `relaunch`
//! under one policy table. Task events do O(1) work on their own slot.
//! The one time-driven decision — the no-progress watchdog's scan — runs
//! from a poll tick while a stage runs (`Driver::next_wakeup`), never per
//! event.
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
//! Tasks must never trigger nested actions: all actions run on driver
//! (user) threads, tasks run on executor threads, and the service loop
//! runs only scheduler state transitions (never user code).
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
use crate::sync::channel::{unbounded, MuxSender, Receiver, RecvTimeoutError, Sender, Tagged};
use crate::sync::Mutex;
use crate::Data;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
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
    /// cancelled its [`CancelToken`] (a lost duplicate race or a job
    /// abort) or its executor was killed while the body ran. Never charges
    /// the per-task attempt budget — the interruption was the scheduler's
    /// own doing.
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
    /// An error of the job as a whole — its cluster went away — rather
    /// than of one task's attempts.
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
/// A partition result in type-erased form. The shared service drives every
/// job through one channel, so result values cross it untyped and
/// [`run_job`] downcasts them back on the caller's side.
type ErasedResult = Box<dyn Any + Send>;

/// Task body of a stage: map stages write shuffle blocks and yield `None`,
/// the result stage yields `Some` type-erased partition result.
type StageWork = Arc<dyn Fn(&TaskContext) -> Option<ErasedResult> + Send + Sync>;

/// Everything that flows into the shared driver loop. Each message arrives
/// wrapped in [`Tagged`] with the job id it belongs to, so one channel
/// serves every concurrent job.
enum ServiceEvent {
    /// A new job entering the loop (tag = its job id).
    Submit(Box<JobRun>),
    /// A task attempt finished (successfully or not).
    Task(TaskDone),
    /// An external (other-job) map stage finished: `completed` says
    /// whether its owner completed it or abandoned it.
    External { stage_idx: usize, completed: bool },
    /// Context teardown: exit the loop after failing any stragglers.
    Shutdown,
}

/// One partition's outcome from one launched executor task.
struct TaskDone {
    stage_idx: usize,
    partition: usize,
    /// The launch this event belongs to; the attempt number and which
    /// side of a race it was are the slot's to say.
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
/// action lowers to: it plans the stage graph, hands the job to the
/// context's shared `SchedulerService` via [`submit_job`], and blocks on
/// the returned [`JobHandle`] until the service resolves it.
pub fn run_job<T: Data, R: Send + 'static>(
    rdd: &Rdd<T>,
    func: impl Fn(usize, Arc<Vec<T>>) -> R + Send + Sync + 'static,
) -> Result<Vec<R>, JobError> {
    submit_job(rdd, func).wait()
}

/// Submits a job without blocking: plans the stage graph and hands it to
/// the shared service, which starts it at once. The returned
/// [`JobHandle`] resolves when the service finishes or aborts the job —
/// block on [`JobHandle::wait`], or for at most a while on
/// [`JobHandle::wait_timeout`].
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

    let (handle, done) = JobHandle::new(job_id);
    let run = Box::new(JobRun {
        job_id,
        stages,
        result_idx,
        tx: ctx.inner.scheduler.sender(job_id),
        owned: HashSet::new(),
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
        done,
        started: Instant::now(),
        ctx: ctx.clone(),
    });
    if let Err(run) = ctx.inner.scheduler.submit(run) {
        // The context is tearing down around this call; resolve the handle
        // like a job that lost its cluster (this also records its report).
        run.fail(JobError::without_task(job_id, TaskError::ExecutorShutdown));
    }
    handle
}

/// The caller-side half of one submitted job: resolves exactly once, when
/// the shared service finishes or aborts the job. The job's [`JobReport`]
/// is recorded *before* the handle resolves, so `last_job_report()`
/// observed after a wait always covers this job — aborted ones included.
pub struct JobHandle<R> {
    job_id: usize,
    done: Receiver<Result<Vec<ErasedResult>, JobError>>,
    resolved: bool,
    _result: std::marker::PhantomData<fn() -> R>,
}

impl<R: Send + 'static> JobHandle<R> {
    fn new(job_id: usize) -> (Self, Sender<Result<Vec<ErasedResult>, JobError>>) {
        let (tx, rx) = unbounded();
        (
            JobHandle {
                job_id,
                done: rx,
                resolved: false,
                _result: std::marker::PhantomData,
            },
            tx,
        )
    }

    /// Id of the submitted job.
    pub fn job_id(&self) -> usize {
        self.job_id
    }

    fn decode(&mut self, outcome: Result<Vec<ErasedResult>, JobError>) -> Result<Vec<R>, JobError> {
        self.resolved = true;
        outcome.map(|results| {
            results
                .into_iter()
                .map(|r| {
                    *r.downcast::<R>()
                        .expect("job result stage produced a foreign result type")
                })
                .collect()
        })
    }

    fn service_gone(&mut self) -> JobError {
        self.resolved = true;
        JobError::without_task(self.job_id, TaskError::ExecutorShutdown)
    }

    /// Blocks until the service resolves the job. Consumes the handle; a
    /// handle whose result was already taken by `wait_timeout` resolves as
    /// [`TaskError::ExecutorShutdown`].
    pub fn wait(mut self) -> Result<Vec<R>, JobError> {
        match self.done.recv() {
            Ok(outcome) => self.decode(outcome),
            Err(_) => Err(self.service_gone()),
        }
    }

    /// Blocks up to `timeout` for the job to resolve; `None` on timeout
    /// (the job keeps running) or after the result was already taken.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<Vec<R>, JobError>> {
        if self.resolved {
            return None;
        }
        match self.done.recv_timeout(timeout) {
            Ok(outcome) => Some(self.decode(outcome)),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(self.service_gone())),
        }
    }
}

/// The shared driver service: one long-lived `spangle-driver` thread
/// multiplexing every concurrent job of a context over a single tagged
/// event channel, with per-job [`JobRun`] state keyed by job id.
///
/// Owned by the context; dropping the context shuts the loop down and
/// joins the thread. Events for a job that already left the map (an
/// aborted job's straggler tasks, a completion callback that lost a race)
/// are dropped exactly as the old per-job loops dropped them on a closed
/// channel.
pub(crate) struct SchedulerService {
    tx: Sender<Tagged<ServiceEvent>>,
    driver: Mutex<Option<JoinHandle<()>>>,
}

impl SchedulerService {
    /// Spawns the driver loop.
    pub(crate) fn new() -> Self {
        let (tx, rx) = unbounded();
        let driver = std::thread::Builder::new()
            .name("spangle-driver".to_string())
            .spawn(move || drive_loop(rx))
            .expect("failed to spawn the scheduler driver thread");
        SchedulerService {
            tx,
            driver: Mutex::new(Some(driver)),
        }
    }

    /// A sender that stamps `job_id` on every event: handed to the job's
    /// tasks and shuffle subscriptions so they post into the shared loop.
    fn sender(&self, job_id: usize) -> MuxSender<ServiceEvent> {
        MuxSender::new(self.tx.clone(), job_id)
    }

    /// Hands a job to the driver loop. Fails only when the loop is gone
    /// (context teardown racing the submission), returning the job so the
    /// caller can resolve its handle.
    fn submit(&self, job: Box<JobRun>) -> Result<(), Box<JobRun>> {
        let tag = job.job_id;
        self.tx
            .send(Tagged {
                tag,
                msg: ServiceEvent::Submit(job),
            })
            .map_err(|rejected| match rejected.0.msg {
                ServiceEvent::Submit(job) => job,
                _ => unreachable!("submit sends only Submit events"),
            })
    }

    /// Stops the driver loop and joins its thread. Idempotent.
    ///
    /// The driver itself can end up here: a finished [`JobRun`] holds a
    /// context clone, and if the caller drops its context the instant its
    /// handle resolves, the driver's clone is the last one — dropping it
    /// (inside the loop) tears the service down from the driver thread.
    /// Joining yourself deadlocks, so that path detaches instead: the
    /// loop is already draining toward the `Shutdown` event just sent and
    /// exits on its own.
    pub(crate) fn shutdown(&self) {
        let _ = self.tx.send(Tagged {
            tag: usize::MAX,
            msg: ServiceEvent::Shutdown,
        });
        if let Some(handle) = self.driver.lock().take() {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for SchedulerService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The period of the one thing the driver must poll because it changes
/// without generating an event: a progress counter freezing.
const POLL: Duration = Duration::from_millis(5);

/// State of the driver loop.
struct Driver {
    jobs: HashMap<usize, Box<JobRun>>,
    /// When the next poll is due; `None` while nothing needs polling.
    next_poll: Option<Instant>,
}

impl Driver {
    /// The one instant the loop must wake at with no event arriving: the
    /// next poll, armed one [`POLL`] ahead while a job has a stage
    /// running. `None` means block indefinitely: nothing is waiting on
    /// time.
    fn next_wakeup(&mut self, now: Instant) -> Option<Instant> {
        let polling = self.jobs.values().any(|j| j.running > 0);
        self.next_poll = polling.then(|| self.next_poll.unwrap_or(now + POLL));
        self.next_poll
    }

    /// The poll, run when [`Self::next_wakeup`] comes due: each job's
    /// watchdog scan.
    fn tick(&mut self, now: Instant) {
        self.next_poll = None;
        let ids: Vec<usize> = self.jobs.keys().copied().collect();
        for id in ids {
            let job = self.jobs.get_mut(&id).expect("ids were just listed");
            let step = job.tick(now);
            self.settle(id, step);
        }
    }

    /// Starts a submitted job and parks it in the running map unless it
    /// resolved instantly (zero-stage result, or a failure to even start).
    fn admit(&mut self, mut job: Box<JobRun>) {
        match job.activate(job.result_idx) {
            Err(err) => job.fail(err),
            Ok(()) if job.is_finished() => job.finish(),
            Ok(()) => {
                self.jobs.insert(job.job_id, job);
            }
        }
    }

    /// Applies one task event to its job. Events of a job that already
    /// finished or aborted carry a stale tag and are dropped here.
    fn on_task(&mut self, tag: usize, done: TaskDone) {
        let Some(job) = self.jobs.get_mut(&tag) else {
            return;
        };
        let step = job.on_task(done);
        self.settle(tag, step);
    }

    /// An external (other-job) map stage one of `tag`'s stages was
    /// watching resolved.
    fn on_external(&mut self, tag: usize, stage_idx: usize, completed: bool) {
        if let Some(job) = self.jobs.get_mut(&tag) {
            let step = job.on_external(stage_idx, completed);
            self.settle(tag, step);
        }
    }

    /// Finalises job `id` if `step` failed or finished it.
    fn settle(&mut self, id: usize, step: Result<(), JobError>) {
        if step.is_ok() && !self.jobs[&id].is_finished() {
            return;
        }
        let job = self.jobs.remove(&id).expect("settling a live job");
        match step {
            Err(err) => job.fail(err),
            Ok(()) => job.finish(),
        }
    }
}

/// The service's event loop: demultiplexes messages by job tag, advances
/// the owning job's state machine, and finalises jobs that finish or
/// abort. It blocks on the channel until the next event or the next
/// [`Driver::next_wakeup`], whichever is first. Runs no user code — task
/// bodies run on executors, actions block on their handles.
fn drive_loop(rx: Receiver<Tagged<ServiceEvent>>) {
    let mut driver = Driver {
        jobs: HashMap::new(),
        next_poll: None,
    };
    let mut now = Instant::now();
    loop {
        let wakeup = driver.next_wakeup(now);
        let received = match wakeup {
            Some(at) if at <= now => {
                driver.tick(now);
                continue;
            }
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => rx.recv_timeout(at - now),
        };
        now = Instant::now();
        let Tagged { tag, msg } = match received {
            Ok(tagged) => tagged,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match msg {
            ServiceEvent::Shutdown => break,
            ServiceEvent::Submit(job) => {
                debug_assert_eq!(tag, job.job_id, "submit tag must be the job id");
                driver.admit(job);
            }
            ServiceEvent::Task(done) => driver.on_task(tag, done),
            ServiceEvent::External {
                stage_idx,
                completed,
            } => driver.on_external(tag, stage_idx, completed),
        }
    }
    // Teardown (or every sender dropped) with jobs still live: fail them so
    // no caller blocks forever on its handle.
    for (id, job) in driver.jobs.drain() {
        job.fail(JobError::without_task(id, TaskError::ExecutorShutdown));
    }
}

/// Driver-side state of one job, owned by the scheduler service while the
/// job is in flight.
struct JobRun {
    ctx: SpangleContext,
    job_id: usize,
    stages: Vec<Stage>,
    /// Index of the result stage (always the last).
    result_idx: usize,
    /// Sender that stamps this job's id on every task / subscription
    /// event posted into the shared loop.
    tx: MuxSender<ServiceEvent>,
    /// Shuffles this job claimed ownership of and has not completed yet;
    /// abandoned on abort so other jobs can re-claim them.
    owned: HashSet<usize>,
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
    /// Resolves the caller's [`JobHandle`].
    done: Sender<Result<Vec<ErasedResult>, JobError>>,
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
    /// retries, loss and post-repair replays and watchdog duplicates all
    /// arrive here as a [`Launch`] the attempt table decided.
    ///
    /// The task is placed on the executor owning its partition — or, for
    /// a duplicate, on the least-loaded executor *other than* the one the
    /// frozen attempt occupies, so it cannot queue behind the very task
    /// it is meant to overtake (a one-task backlog behind a wedged body
    /// is never stolen). A shut-down pool aborts the job cleanly.
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
            // The driver may have aborted the job already; its tag is
            // simply stale by the time this lands.
            let _ = tx.send(ServiceEvent::Task(TaskDone {
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
        let executor = match launch.avoid {
            None => pool.executor_for(partition),
            Some(avoid) => {
                let lens = pool.queue_lens();
                (0..lens.len())
                    .filter(|&e| e != avoid)
                    .min_by_key(|&e| lens[e])
                    .expect("a duplicate is only decided with two or more executors")
            }
        };
        pool.submit_on(executor, Some(launch.token), task)
            .map_err(|_| {
                self.abort(JobError {
                    job_id,
                    stage_id,
                    partition,
                    attempts: attempt,
                    last_error: TaskError::ExecutorShutdown,
                })
            })
    }

    /// The job's share of the driver's poll: runs the watchdog scan over
    /// each running stage and launches the duplicates it decided.
    fn tick(&mut self, now: Instant) -> Result<(), JobError> {
        if self.running == 0 {
            return Ok(());
        }
        let executing = self.ctx.inner.pool.executing();
        for idx in 0..self.stages.len() {
            let Some(run) = self.stages[idx].run.as_mut() else {
                continue;
            };
            match run.scan(now, &executing, &mut self.ledger) {
                Err(err) => return Err(self.abort(err)),
                Ok(duplicates) => duplicates
                    .into_iter()
                    .try_for_each(|launch| self.submit(idx, launch))?,
            }
        }
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

    /// Resolves a successful job: records its report (before the handle
    /// resolves), then hands the caller its results.
    fn finish(mut self) {
        self.record(JobOutcome::Succeeded);
        let results: Vec<ErasedResult> = std::mem::take(&mut self.results)
            .into_iter()
            .map(|r| r.expect("job finished with a missing partition result"))
            .collect();
        // Release the stage graph (and the lineage Arcs its work closures
        // capture) BEFORE unblocking the caller: shuffle garbage
        // collection relies on the caller's drop being the last reference.
        self.stages.clear();
        let _ = self.done.send(Ok(results));
    }

    /// Resolves an aborted job: every stage still in flight gets a
    /// [`StageOutcome::Aborted`] entry so its partial task time and steal
    /// counts are not lost, the report is recorded with
    /// [`JobOutcome::Aborted`], and only then does the caller's handle
    /// resolve with the error — `last_job_report()` after a failed action
    /// therefore describes the failed job, not the previous one.
    fn fail(mut self, err: JobError) {
        let (snap, now) = (self.ctx.metrics_snapshot(), Instant::now());
        for mut run in self.stages.iter_mut().filter_map(|stage| stage.run.take()) {
            run.close(StageOutcome::Aborted, snap, now);
            self.reports.push(run.report);
        }
        self.record(JobOutcome::Aborted);
        // As in `finish`: the caller must hold the last lineage references
        // once it unblocks.
        self.stages.clear();
        let _ = self.done.send(Err(err));
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

    /// Regression (per-event rescans): the watchdog scan — the only
    /// thing that looks at what the executors are running — is time-driven
    /// work and runs once per poll tick, never per task event. Counts
    /// work, not wall time: the parent scanned on every driver iteration,
    /// ≥ 2 048 times for this job.
    #[test]
    fn straggler_scans_are_per_tick_not_per_event() {
        use std::sync::atomic::Ordering::Relaxed;
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..2048).collect(), 2048).map(|x| x + 1);
        let before = ctx.inner.pool.looks.load(Relaxed);
        let started = std::time::Instant::now();
        assert_eq!(rdd.count().unwrap(), 2048);
        let elapsed = started.elapsed();
        let scans = ctx.inner.pool.looks.load(Relaxed) - before;
        let ticks = elapsed.as_nanos().div_ceil(super::POLL.as_nanos()) as u64;
        assert!(
            scans <= 1 + ticks,
            "{scans} scans in {elapsed:?} ({ticks} ticks) for 2048 task events"
        );
        let report = ctx.last_job_report().unwrap();
        let counts = report.counts();
        assert_eq!((counts.tasks_speculated, counts.watchdog_trips), (0, 0));
    }
}
