//! The simulated executor cluster: a locality-aware work-stealing pool.
//!
//! Each executor of the paper's Spark deployment becomes one worker thread
//! with its own task deque. Partition `p` of every RDD is deterministically
//! *placed* on executor `p % num_executors`, which is what makes
//! co-partitioned ("local") joins genuinely local: both sides of partition
//! `p` are computed on the same executor, no data crosses the (simulated)
//! network, and no shuffle bytes are charged.
//!
//! Placement is a *preference*, not a barrier. An executor always serves
//! its own queue first (FIFO), but when that queue is empty it steals one
//! task from the back of the busiest sibling's queue — so a skewed stage
//! no longer leaves most of the cluster idle while one executor drains its
//! backlog. The steal is guarded by [`StealQueues::MIN_STEAL_LEN`]: a
//! sibling that is merely keeping up (at most one queued task) is never
//! robbed, which keeps perfectly balanced co-partitioned work entirely
//! local and its `tasks_stolen` count at zero. Every task learns where it
//! ran via [`TaskInfo`], so the scheduler can charge stolen ("remote")
//! executions to the job's metrics.
//!
//! Each executor is also a *failure domain*. An executor slot carries an
//! incarnation number (*epoch*); [`ExecutorPool::kill`] retires the
//! current incarnation and seats a replacement in the same slot, so
//! partition placement (`p % num_executors`) is unchanged across the loss.
//! A task observes the epoch of the incarnation that started it in
//! [`TaskInfo::epoch`]: when the epoch has moved by the time the task
//! finishes, the task died with its executor and its effects (shuffle
//! blocks, cached partitions — anything stamped with a [`BlockOrigin`] of
//! the dead incarnation) are void. Queued-but-unstarted tasks simply run
//! on the replacement incarnation, exactly like Spark rescheduling a lost
//! executor's pending tasks.

use crate::health::ExecutorSlot;
use crate::sync::{Mutex, Next, StealQueues};
use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Cooperative cancellation handle shared between a task attempt and the
/// scheduler that may want to interrupt it.
///
/// The pool installs the token of the task it is about to run in a
/// thread-local slot; operator loops poll it at chunk boundaries via
/// [`cancellation_point`]. Cancelling is a one-way latch: once set, every
/// later check observes it.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken(Arc::new(AtomicBool::new(false)))
    }

    /// Latches the token cancelled. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] has run.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// Whether two handles share one underlying token — i.e. name the
    /// same executor task.
    pub(crate) fn same(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Panic payload raised by [`cancellation_point`] when the running task's
/// token was cancelled. The scheduler downcasts this out of the task panic
/// and treats the attempt as interrupted (it charges no retry budget: the
/// driver itself asked for the interruption).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CancelledError;

thread_local! {
    /// Token of the task currently executing on this worker thread, if any.
    static CURRENT_TOKEN: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
    /// Health slot of the executor this worker thread serves, installed
    /// once at thread start so chunk-boundary instrumentation can stamp
    /// progress without reaching for the pool.
    static CURRENT_HEALTH: RefCell<Option<(Arc<[ExecutorSlot]>, usize)>> =
        const { RefCell::new(None) };
}

/// Stamps a chunk-boundary progress tick for the executor running this
/// thread. No-op on driver threads.
fn stamp_progress_tick() {
    CURRENT_HEALTH.with(|slot| {
        if let Some((slots, executor)) = slot.borrow().as_ref() {
            slots[*executor].stamp_progress();
        }
    });
}

/// Whether the task running on the current thread has been cancelled.
/// Always `false` outside an executor task (driver-side compute).
pub fn is_task_cancelled() -> bool {
    CURRENT_TOKEN.with(|slot| {
        slot.borrow()
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    })
}

/// A cooperative cancellation point: panics with a [`CancelledError`]
/// payload when the current task's token was cancelled, and is a cheap
/// no-op otherwise. Operator loops call this at chunk boundaries so a
/// kill, job abort or lost duplicate race interrupts a *running* task
/// body instead of waiting it out. Each call also stamps
/// a progress tick on the executor's health slot, which is what the
/// driver's no-progress watchdog watches.
pub fn cancellation_point() {
    stamp_progress_tick();
    if is_task_cancelled() {
        std::panic::panic_any(CancelledError);
    }
}

/// Installs (once, process-wide) a panic hook that swallows the default
/// "thread panicked" report for [`CancelledError`] unwinds. Cancellation
/// is normal control flow — a duplicate-race loser or an aborted job's task
/// stopping early — and the worker catches the unwind anyway, so printing
/// a backtrace per cancelled task would just flood stderr. Every other
/// panic still goes to the previously installed hook.
fn silence_cancellation_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CancelledError>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Amortised [`cancellation_point`] for per-element loops: polls the token
/// once every [`CancelGauge::INTERVAL`] ticks so tight streaming loops pay
/// one increment-and-mask per element, not an atomic load.
#[derive(Debug, Default)]
pub struct CancelGauge(u32);

impl CancelGauge {
    /// Elements between two cancellation polls.
    pub const INTERVAL: u32 = 1024;

    /// Creates a gauge with a fresh counter.
    pub fn new() -> Self {
        CancelGauge(0)
    }

    /// Counts one element; every [`CancelGauge::INTERVAL`]-th call checks
    /// the current task's token (and panics with [`CancelledError`] when
    /// cancelled).
    #[inline]
    pub fn tick(&mut self) {
        self.0 = self.0.wrapping_add(1);
        if self.0.is_multiple_of(Self::INTERVAL) {
            cancellation_point();
        }
    }
}

/// What an executor is running right now, as the scheduler's watchdog
/// scan sees it ([`ExecutorPool::executing`]).
#[derive(Debug)]
pub struct Executing {
    /// Token of the running task.
    pub token: CancelToken,
    /// When the body started: the run stamp keeps queue time out of the
    /// watchdog's frozen interval (a task parked behind a stuck one is
    /// not itself stuck).
    pub since: Instant,
    /// The executor's progress-tick count.
    pub progress: u64,
}

/// Where a task was placed and where it actually ran.
#[derive(Clone, Copy, Debug)]
pub struct TaskInfo {
    /// Executor the task's partition is placed on.
    pub home: usize,
    /// Executor whose worker thread ran the task.
    pub ran_on: usize,
    /// Whether the task was stolen (`ran_on != home`).
    pub stolen: bool,
    /// Incarnation of `ran_on` when the task started. If
    /// [`ExecutorPool::epoch`] differs by completion time, the executor
    /// was killed mid-task and the attempt is lost.
    pub epoch: u64,
}

/// Which executor incarnation produced a block (a shuffle map output or a
/// cached partition).
///
/// Blocks are attributed to the executor that computed them so that
/// killing an executor can discard exactly its blocks, and so that a
/// straggler task of a dead incarnation cannot deposit into the stores
/// after its executor was declared lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockOrigin {
    /// Producing executor; `None` for driver-side deposits (tests, seeds).
    executor: Option<usize>,
    /// Incarnation of the producing executor when the block was made.
    epoch: u64,
}

impl BlockOrigin {
    /// A driver-side origin: never tied to an executor, never discarded by
    /// an executor loss.
    pub const DRIVER: BlockOrigin = BlockOrigin {
        executor: None,
        epoch: 0,
    };

    /// The origin of work running on `executor` at incarnation `epoch`.
    pub fn executor(executor: usize, epoch: u64) -> Self {
        BlockOrigin {
            executor: Some(executor),
            epoch,
        }
    }

    /// Whether this block was produced by (any incarnation of) `executor`.
    pub fn lives_on(&self, executor: usize) -> bool {
        self.executor == Some(executor)
    }

    pub(crate) fn executor_epoch(&self) -> Option<(usize, u64)> {
        self.executor.map(|e| (e, self.epoch))
    }
}

/// A unit of executor work. The pool reports through [`TaskInfo`] where
/// the task ended up running.
pub type Task = Box<dyn FnOnce(&TaskInfo) + Send + 'static>;

/// Submitting a task to a pool that is (or finished) shutting down.
///
/// Returned instead of panicking so a driver racing a context teardown can
/// abort its job cleanly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolShutdown;

impl std::fmt::Display for PoolShutdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "executor pool is shut down")
    }
}

impl std::error::Error for PoolShutdown {}

/// A queued task together with its placement and cancellation handle.
struct PlacedTask {
    home: usize,
    run: Task,
    /// Token the worker installs for the duration of the task body, so
    /// `cancellation_point()` inside the closure observes driver-side
    /// cancellations (kill, abort, lost duplicate race).
    token: Option<CancelToken>,
}

/// Fixed pool of executor threads over work-stealing per-executor deques.
pub struct ExecutorPool {
    queues: Arc<StealQueues<PlacedTask>>,
    /// One [`ExecutorSlot`] per executor — incarnation, running task,
    /// counters, progress — shared with the worker threads and read by
    /// the driver's straggler scan.
    slots: Arc<[ExecutorSlot]>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Calls of [`ExecutorPool::executing`], the scheduler's only look at
    /// running tasks: its scan-count regression test reads this.
    #[cfg(test)]
    pub(crate) looks: std::sync::atomic::AtomicU64,
}

impl ExecutorPool {
    /// Spawns `num_executors` worker threads.
    pub fn new(num_executors: usize) -> Self {
        assert!(num_executors > 0, "a cluster needs at least one executor");
        silence_cancellation_panics();
        let queues = Arc::new(StealQueues::<PlacedTask>::new(num_executors));
        let slots: Arc<[ExecutorSlot]> = (0..num_executors).map(|_| Default::default()).collect();
        let mut handles = Vec::with_capacity(num_executors);
        for i in 0..num_executors {
            let queues = Arc::clone(&queues);
            let slots = Arc::clone(&slots);
            let handle = std::thread::Builder::new()
                .name(format!("spangle-executor-{i}"))
                .spawn(move || {
                    let slot = &slots[i];
                    // Install this worker's slot so chunk-boundary
                    // instrumentation (cancellation_point) can stamp
                    // progress from inside task bodies.
                    CURRENT_HEALTH.with(|tls| *tls.borrow_mut() = Some((Arc::clone(&slots), i)));
                    loop {
                        let (task, stolen) = match queues.next(i) {
                            Next::Local(task) => (task, false),
                            Next::Stolen { item, .. } => (item, true),
                            Next::Closed => break,
                        };
                        let (epoch, started) = slot.begin(task.token.as_ref(), stolen);
                        let info = TaskInfo {
                            home: task.home,
                            ran_on: i,
                            stolen,
                            epoch,
                        };
                        // Installed thread-locally so cancellation_point()
                        // inside the closure sees the token.
                        CURRENT_TOKEN.with(|tls| *tls.borrow_mut() = task.token);
                        // A panicking task must not take the worker down with
                        // it: orphaning the executor's queue would strand
                        // later local tasks. The scheduler catches panics
                        // inside its own task bodies anyway; this is the
                        // backstop for raw pool users.
                        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| (task.run)(&info)));
                        CURRENT_TOKEN.with(|tls| *tls.borrow_mut() = None);
                        slot.finish(started);
                    }
                })
                .expect("failed to spawn executor thread");
            handles.push(handle);
        }
        ExecutorPool {
            queues,
            slots,
            handles: Mutex::new(handles),
            #[cfg(test)]
            looks: Default::default(),
        }
    }

    /// Number of executors in the cluster.
    pub fn num_executors(&self) -> usize {
        self.slots.len()
    }

    /// Current incarnation of an executor slot (0 until its first kill).
    pub fn epoch(&self, executor: usize) -> u64 {
        self.slots[executor].epoch()
    }

    /// Kills the current incarnation of `executor` and seats a replacement
    /// in the same slot, returning the replacement's epoch.
    ///
    /// Placement is untouched (`p % num_executors` still maps to the same
    /// slot), queued-but-unstarted tasks run on the replacement, and any
    /// task the dead incarnation had in flight observes the epoch change at
    /// completion and is reported lost by the scheduler. Discarding the
    /// dead incarnation's blocks is the caller's job (see
    /// `SpangleContext::kill_executor`).
    ///
    /// The task the dead incarnation had in flight is also cancelled
    /// through its [`CancelToken`] (when it carries one): the body stops at
    /// its next cancellation point instead of running its remainder to
    /// completion just to be declared lost.
    pub fn kill(&self, executor: usize) -> u64 {
        self.slots[executor].kill()
    }

    /// Whether the incarnation that produced `origin` is still alive.
    /// Driver-side origins are always live.
    pub fn origin_is_live(&self, origin: BlockOrigin) -> bool {
        match origin.executor_epoch() {
            Some((executor, epoch)) => self.epoch(executor) == epoch,
            None => true,
        }
    }

    /// Executor a partition is placed on.
    #[inline]
    pub fn executor_for(&self, partition: usize) -> usize {
        partition % self.num_executors()
    }

    /// Queues a task on the executor owning `partition` (an idle sibling
    /// may steal it). Fails (instead of panicking) when the pool has been
    /// shut down, so a job racing a teardown can abort cleanly.
    pub fn submit(&self, partition: usize, task: Task) -> Result<(), PoolShutdown> {
        self.submit_on(self.executor_for(partition), None, task)
    }

    /// Appends a task to `executor`'s FIFO queue (an idle sibling may
    /// still steal it). The worker installs `token` around the task body
    /// so `cancellation_point()` inside the closure observes driver-side
    /// cancellations. Fails when the pool has been shut down.
    pub fn submit_on(
        &self,
        executor: usize,
        token: Option<CancelToken>,
        task: Task,
    ) -> Result<(), PoolShutdown> {
        let placed = PlacedTask {
            home: executor,
            run: task,
            token,
        };
        self.queues.push(executor, placed).map_err(|_| PoolShutdown)
    }

    /// Queued (not yet started) tasks per executor, indexed by executor id.
    /// Racy; used by the driver to pick an idle slot for a watchdog
    /// duplicate.
    pub fn queue_lens(&self) -> Vec<usize> {
        (0..self.num_executors())
            .map(|e| self.queues.len(e))
            .collect()
    }

    /// What each executor is executing right now, indexed by executor id
    /// (`None` for an idle executor, or one running an untokened task).
    /// Racy like [`ExecutorPool::queue_lens`] — a completion can slip in
    /// after the look — but a straggler stays put, which is what the
    /// scheduler's straggler scan needs this for.
    pub fn executing(&self) -> Vec<Option<Executing>> {
        #[cfg(test)]
        self.looks.fetch_add(1, Ordering::Relaxed);
        self.slots.iter().map(ExecutorSlot::executing).collect()
    }

    /// Whether [`ExecutorPool::shutdown`] has run.
    pub fn is_shut_down(&self) -> bool {
        self.queues.is_closed()
    }

    /// Nanoseconds each executor has spent running task bodies, indexed by
    /// executor id.
    pub fn busy_nanos(&self) -> Vec<u64> {
        self.slots.iter().map(ExecutorSlot::busy_nanos).collect()
    }

    /// Tasks each executor ran that were placed on a sibling, indexed by
    /// the executor that did the stealing.
    pub fn steals_per_executor(&self) -> Vec<u64> {
        self.slots.iter().map(ExecutorSlot::steals).collect()
    }

    /// Total tasks that ran away from their placed executor.
    pub fn tasks_stolen(&self) -> u64 {
        self.steals_per_executor().iter().sum()
    }

    /// Stops accepting tasks, lets the workers drain every already-queued
    /// task (stealing freely during the drain, so even a task whose home
    /// executor is wedged runs exactly once), and joins them. Tokens of
    /// tasks running at shutdown are cancelled so a cooperative straggler
    /// cannot hang the teardown forever. Idempotent: later calls
    /// (including the one from `Drop`) are no-ops.
    ///
    /// A worker can end up here itself: a task closure that holds the last
    /// context clone is dropped on the executor that ran it, and dropping
    /// the context tears the pool down from that thread. Joining yourself
    /// fails (`EDEADLK`), so that handle is detached instead — the worker
    /// is already past its task and exits as soon as it sees the closed
    /// queues.
    pub fn shutdown(&self) {
        self.queues.close();
        self.slots.iter().for_each(ExecutorSlot::cancel_running);
        let handles = std::mem::take(&mut *self.handles.lock());
        let me = std::thread::current().id();
        for handle in handles {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::channel::unbounded;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn unstolen_tasks_run_on_their_assigned_executor() {
        let pool = ExecutorPool::new(3);
        let (tx, rx) = unbounded();
        for p in 0..9 {
            let tx = tx.clone();
            pool.submit(
                p,
                Box::new(move |info: &TaskInfo| {
                    let name = std::thread::current().name().unwrap_or("").to_string();
                    tx.send((p, *info, name)).unwrap();
                }),
            )
            .unwrap();
        }
        for _ in 0..9 {
            let (p, info, name) = rx.recv().unwrap();
            assert_eq!(info.home, p % 3, "placement is p % num_executors");
            assert_eq!(name, format!("spangle-executor-{}", info.ran_on));
            if !info.stolen {
                assert_eq!(info.ran_on, info.home);
            } else {
                assert_ne!(info.ran_on, info.home);
            }
        }
    }

    #[test]
    fn all_submitted_tasks_complete() {
        let pool = ExecutorPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = unbounded();
        for p in 0..100 {
            let counter = counter.clone();
            let tx = tx.clone();
            pool.submit(
                p,
                Box::new(move |_: &TaskInfo| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    tx.send(()).unwrap();
                }),
            )
            .unwrap();
        }
        for _ in 0..100 {
            rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn skewed_backlog_is_stolen_by_idle_siblings() {
        let pool = ExecutorPool::new(2);
        let (tx, rx) = unbounded();
        // Wedge executor 0 on a slow task, then pile more tasks onto its
        // queue while executor 1 has nothing: the backlog must be stolen.
        pool.submit(
            0,
            Box::new(|_: &TaskInfo| std::thread::sleep(Duration::from_millis(100))),
        )
        .unwrap();
        for _ in 0..4 {
            let tx = tx.clone();
            pool.submit(0, Box::new(move |info: &TaskInfo| tx.send(*info).unwrap()))
                .unwrap();
        }
        let infos: Vec<TaskInfo> = (0..4).map(|_| rx.recv().unwrap()).collect();
        let stolen = infos.iter().filter(|i| i.stolen).count();
        assert!(stolen >= 1, "executor 1 must have stolen from the backlog");
        assert!(pool.tasks_stolen() >= 1);
        assert_eq!(pool.steals_per_executor()[0], 0, "executor 0 never stole");
    }

    #[test]
    fn balanced_one_task_per_executor_never_steals() {
        let pool = ExecutorPool::new(4);
        let (tx, rx) = unbounded();
        for p in 0..4 {
            let tx = tx.clone();
            pool.submit(p, Box::new(move |info: &TaskInfo| tx.send(*info).unwrap()))
                .unwrap();
        }
        for _ in 0..4 {
            let info = rx.recv().unwrap();
            assert!(!info.stolen, "a lone placed task must stay local");
            assert_eq!(info.ran_on, info.home);
        }
        assert_eq!(pool.tasks_stolen(), 0);
    }

    #[test]
    fn busy_time_is_accounted_per_executor() {
        let pool = ExecutorPool::new(2);
        let (tx, rx) = unbounded();
        pool.submit(
            0,
            Box::new(move |_: &TaskInfo| {
                std::thread::sleep(Duration::from_millis(30));
                tx.send(()).unwrap();
            }),
        )
        .unwrap();
        rx.recv().unwrap();
        // The worker accounts busy time just after the task returns; poll
        // briefly for it.
        let want = Duration::from_millis(25).as_nanos() as u64;
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let busy = pool.busy_nanos();
            assert_eq!(busy.len(), 2);
            if busy[0] >= want {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "executor 0 slept ~30ms, busy was {busy:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn submit_after_shutdown_fails_without_panicking() {
        let pool = ExecutorPool::new(2);
        pool.submit(0, Box::new(|_: &TaskInfo| {})).unwrap();
        pool.shutdown();
        assert!(pool.is_shut_down());
        assert!(pool.submit(0, Box::new(|_: &TaskInfo| {})).is_err());
        // A second shutdown (and the one Drop issues later) is a no-op.
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_already_queued_tasks() {
        let pool = ExecutorPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = counter.clone();
            pool.submit(
                0,
                Box::new(move |_: &TaskInfo| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }),
            )
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    /// The stealing pool's shutdown contract: every already-submitted task
    /// runs exactly once, including tasks that end up on a sibling's
    /// steal-side because their home executor is wedged.
    #[test]
    fn shutdown_runs_every_task_exactly_once_across_steals() {
        let pool = ExecutorPool::new(2);
        let (release_tx, release_rx) = unbounded::<()>();
        // Wedge executor 0 until released.
        pool.submit(
            0,
            Box::new(move |_: &TaskInfo| {
                let _ = release_rx.recv();
            }),
        )
        .unwrap();
        const N: usize = 20;
        let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..N).map(|_| AtomicUsize::new(0)).collect());
        for t in 0..N {
            let runs = Arc::clone(&runs);
            // All placed on the wedged executor 0.
            pool.submit(
                0,
                Box::new(move |_: &TaskInfo| {
                    runs[t].fetch_add(1, Ordering::SeqCst);
                }),
            )
            .unwrap();
        }
        // Unwedge concurrently with the shutdown drain.
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let _ = release_tx.send(());
        });
        pool.shutdown();
        releaser.join().unwrap();
        for (t, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::SeqCst),
                1,
                "task {t} must run exactly once"
            );
        }
        assert!(
            pool.tasks_stolen() >= 1,
            "executor 1 must have drained the wedged sibling's backlog"
        );
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let pool = ExecutorPool::new(1);
        let (tx, rx) = unbounded();
        pool.submit(0, Box::new(|_: &TaskInfo| panic!("task panic")))
            .unwrap();
        pool.submit(0, Box::new(move |_: &TaskInfo| tx.send(()).unwrap()))
            .unwrap();
        rx.recv()
            .expect("the worker must survive a panicking task and run the next one");
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn zero_executors_is_rejected() {
        let _ = ExecutorPool::new(0);
    }

    /// Killing an executor retires the running incarnation: a task started
    /// before the kill sees a stale epoch at completion, while a task
    /// queued behind it runs on the replacement incarnation in the same
    /// slot (placement unchanged).
    #[test]
    fn kill_retires_the_incarnation_but_keeps_the_slot() {
        let pool = Arc::new(ExecutorPool::new(2));
        assert_eq!(pool.epoch(0), 0);
        let (started_tx, started_rx) = unbounded::<()>();
        let (release_tx, release_rx) = unbounded::<()>();
        let (tx, rx) = unbounded();
        // Wedge executor 1 so it cannot steal executor 0's backlog — the
        // test needs both tasks to run in their home slot.
        let (wedge_tx, wedge_rx) = unbounded::<()>();
        pool.submit(
            1,
            Box::new(move |_: &TaskInfo| {
                let _ = wedge_rx.recv();
            }),
        )
        .unwrap();
        {
            let tx = tx.clone();
            pool.submit(
                0,
                Box::new(move |info: &TaskInfo| {
                    started_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                    tx.send(("victim", *info)).unwrap();
                }),
            )
            .unwrap();
        }
        pool.submit(
            0,
            Box::new(move |info: &TaskInfo| tx.send(("next", *info)).unwrap()),
        )
        .unwrap();
        started_rx.recv().unwrap();
        // Kill while the first task is mid-flight.
        assert_eq!(pool.kill(0), 1);
        assert_eq!(pool.epoch(0), 1);
        release_tx.send(()).unwrap();
        let (label, info) = rx.recv().unwrap();
        assert_eq!(label, "victim");
        assert_eq!(info.epoch, 0, "in-flight task carries the dead epoch");
        assert!(!pool.origin_is_live(BlockOrigin::executor(info.ran_on, info.epoch)));
        let (label, info) = rx.recv().unwrap();
        assert_eq!(label, "next");
        assert_eq!(info.ran_on, 0, "placement survives the kill");
        assert_eq!(info.epoch, 1, "queued task runs on the replacement");
        assert!(pool.origin_is_live(BlockOrigin::executor(0, 1)));
        assert!(pool.origin_is_live(BlockOrigin::DRIVER));
        assert_eq!(pool.epoch(1), 0, "sibling executors are untouched");
        wedge_tx.send(()).unwrap();
    }

    /// A cooperative busy-loop body stops at its next cancellation point
    /// once its token is cancelled, instead of running forever.
    #[test]
    fn cancelled_token_interrupts_a_running_body() {
        let pool = ExecutorPool::new(1);
        let token = CancelToken::new();
        let (started_tx, started_rx) = unbounded::<()>();
        let (done_tx, done_rx) = unbounded::<&'static str>();
        pool.submit_on(
            0,
            Some(token.clone()),
            Box::new(move |_: &TaskInfo| {
                started_tx.send(()).unwrap();
                let outcome = std::panic::catch_unwind(|| loop {
                    cancellation_point();
                    std::thread::sleep(Duration::from_millis(1));
                });
                let label = match outcome {
                    Err(payload) if payload.downcast_ref::<CancelledError>().is_some() => {
                        "cancelled"
                    }
                    _ => "other",
                };
                done_tx.send(label).unwrap();
            }),
        )
        .unwrap();
        started_rx.recv().unwrap();
        assert!(!token.is_cancelled());
        token.cancel();
        assert_eq!(
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("body must stop after cancellation"),
            "cancelled"
        );
    }

    /// Killing an executor cancels the token of the task it was running,
    /// and a later task on the replacement starts with a clean slate.
    #[test]
    fn kill_cancels_the_running_tasks_token() {
        let pool = ExecutorPool::new(1);
        let token = CancelToken::new();
        let (started_tx, started_rx) = unbounded::<()>();
        let (done_tx, done_rx) = unbounded::<bool>();
        pool.submit_on(
            0,
            Some(token.clone()),
            Box::new(move |_: &TaskInfo| {
                started_tx.send(()).unwrap();
                while !is_task_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                done_tx.send(true).unwrap();
            }),
        )
        .unwrap();
        started_rx.recv().unwrap();
        pool.kill(0);
        assert!(done_rx.recv_timeout(Duration::from_secs(5)).unwrap());
        assert!(token.is_cancelled());
        // The replacement incarnation runs later tasks uncancelled.
        let (tx, rx) = unbounded();
        pool.submit(
            0,
            Box::new(move |_: &TaskInfo| tx.send(is_task_cancelled()).unwrap()),
        )
        .unwrap();
        assert!(
            !rx.recv().unwrap(),
            "a fresh task must not inherit the dead attempt's token"
        );
    }
}
