//! Deterministic failure injection for fault-tolerance testing.
//!
//! Spark's headline property — and the one ArrayRDD inherits — is that lost
//! work is recomputed from lineage. The injector lets tests kill specific
//! task attempts or whole executors
//! ([`FailureInjector::kill_executor_after`] arms a kill that fires after
//! an executor finishes its Nth task, taking that task's attempt and every
//! block of the dead incarnation with it); dropping individual cached
//! blocks is done directly through [`crate::cache::BlockManager::evict`].
//!
//! A further injection models the *silent* failure mode — the kind the
//! driver must detect on its own rather than be handed an error for:
//! [`FailureInjector::stall_progress`] makes an attempt spin without
//! ticking progress (stuck, the no-progress watchdog's prey).

use crate::context::SpangleContext;
use crate::executor::{is_task_cancelled, CancelledError, TaskInfo};
use crate::scheduler::TaskError;
use crate::sync::Mutex;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Identifies a schedulable task: the RDD whose partition the task produces
/// (for result stages) or the shuffle map side's parent RDD (for shuffle
/// stages), plus the partition index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaskSite {
    /// RDD whose partition the task produces.
    pub rdd_id: usize,
    /// Partition index.
    pub partition: usize,
}

/// What an attempt does in place of its body, as drawn by
/// [`FailureInjector::draw`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fault {
    /// Fail at once with [`TaskError::Injected`].
    Fail,
    /// Spin without ticking progress, until cancelled: stuck, yet never
    /// announcing it.
    Stall,
}

impl Fault {
    /// Plays the fault out on the executor thread that drew it. `Fail`
    /// returns its error; the stall ends only by unwinding with
    /// [`CancelledError`] once the driver's watchdog duplicate wins (or an
    /// abort or a kill) and cancels the attempt.
    pub(crate) fn play(self) -> TaskError {
        match self {
            Fault::Fail => TaskError::Injected,
            Fault::Stall => loop {
                // Deliberately NOT cancellation_point(): that would tick
                // progress and hide the stall from the watchdog.
                if is_task_cancelled() {
                    std::panic::panic_any(CancelledError);
                }
                std::thread::sleep(Duration::from_micros(200));
            },
        }
    }
}

/// One-shot faults armed on a task site: attempts left to play each
/// [`Fault`], indexed by it.
type SiteFaults = [usize; 2];

/// Every armed fault. An entry exists only while something in it is armed,
/// so "drained" is "both maps empty".
#[derive(Default)]
struct Armed {
    sites: HashMap<TaskSite, SiteFaults>,
    /// Remaining site-independent failures (first attempts only).
    any: usize,
    /// Armed kills per executor: each entry is a countdown of tasks until
    /// the executor (incarnation) is killed; the next countdown starts
    /// once the previous kill fired.
    kills: HashMap<usize, VecDeque<usize>>,
}

/// Takes one from `counter` if any are left.
fn take(counter: &mut usize) -> bool {
    let armed = *counter > 0;
    *counter -= armed as usize;
    armed
}

/// Injects failures into the first N attempts of selected tasks, into the
/// next N task attempts regardless of site, or into the executor that
/// finishes a selected number of tasks. The scheduler consults it twice
/// per attempt: one `draw` before the body, one `settle` after it.
#[derive(Default)]
pub struct FailureInjector {
    armed: Mutex<Armed>,
}

impl FailureInjector {
    /// Arms `times` more attempts of a site to play `fault`.
    fn arm_site(&self, rdd_id: usize, partition: usize, times: usize, fault: Fault) {
        if times > 0 {
            let mut armed = self.armed.lock();
            let site = TaskSite { rdd_id, partition };
            let left = &mut armed.sites.entry(site).or_default()[fault as usize];
            *left = left.saturating_add(times);
        }
    }

    /// Makes the next `times` attempts of the task computing `partition` of
    /// `rdd_id` fail with [`crate::TaskError::Injected`].
    ///
    /// Arming the same site again *accumulates*: two `fail_task(r, p, 2)`
    /// calls kill four attempts, not two (a second arm used to silently
    /// overwrite the first).
    ///
    /// The site only matches tasks *scheduled* for that RDD: result-stage
    /// tasks of an action's target RDD, or map tasks of a shuffle's
    /// immediate parent. Narrow ancestors recomputed inside a task are not
    /// separate sites — use [`FailureInjector::fail_next_tasks`] to kill
    /// tasks without knowing the plan.
    pub fn fail_task(&self, rdd_id: usize, partition: usize, times: usize) {
        self.arm_site(rdd_id, partition, times, Fault::Fail);
    }

    /// Arms a kill of `executor` that fires right after it finishes its
    /// `tasks`-th scheduled task from now (so `tasks = 1` kills it after
    /// the very next task it runs). The kill goes through
    /// `SpangleContext::kill_executor`: the finishing task's attempt is
    /// lost with the executor ([`crate::TaskError::ExecutorLost`]), the
    /// dead incarnation's shuffle blocks and cached partitions are
    /// discarded, and a replacement is seated in the same slot. Each call
    /// arms one more kill: countdowns queue up, so arming `(e, 1)` three
    /// times kills three successive incarnations of slot `e`, one task
    /// each.
    pub fn kill_executor_after(&self, executor: usize, tasks: usize) {
        assert!(tasks > 0, "a kill needs at least one task to fire after");
        let mut armed = self.armed.lock();
        armed.kills.entry(executor).or_default().push_back(tasks);
    }

    /// Makes the next `times` attempts of the task computing `partition`
    /// of `rdd_id` *stall*: the attempt spins, polling its token, but never
    /// ticks progress. This is the failure mode the no-progress watchdog
    /// exists for: with `times = 1` the watchdog's duplicate of the same
    /// task runs clean while the original stalls.
    pub fn stall_progress(&self, rdd_id: usize, partition: usize, times: usize) {
        self.arm_site(rdd_id, partition, times, Fault::Stall);
    }

    /// Makes the next `n` distinct tasks fail their first attempt, whatever
    /// they compute.
    ///
    /// Only first attempts are killed; a retry of an already-killed task is
    /// spared even while injections remain. Otherwise an instantly-failing
    /// retry could race ahead of its sibling tasks and burn through the
    /// whole budget (aborting the job), which is never what a recovery test
    /// armed with this method wants. Use [`FailureInjector::fail_task`] to
    /// kill retries of a specific task.
    pub fn fail_next_tasks(&self, n: usize) {
        self.armed.lock().any += n;
    }

    /// The one draw before an attempt's body: what attempt number
    /// `attempt` of `site` does instead of it. Every one-shot armed on the
    /// site is consumed by the attempt that meets it — a stall even when a
    /// failure preempts it — and a failure wins over a stall.
    /// Site-independent failures come first and apply to first attempts
    /// only (see [`FailureInjector::fail_next_tasks`]).
    pub(crate) fn draw(&self, site: TaskSite, attempt: usize) -> Option<Fault> {
        let mut armed = self.armed.lock();
        let mut fail = attempt == 0 && take(&mut armed.any);
        let mut stall = false;
        if let Some(left) = armed.sites.get_mut(&site) {
            stall = take(&mut left[Fault::Stall as usize]);
            fail = fail || take(&mut left[Fault::Fail as usize]);
            if *left == [0; 2] {
                armed.sites.remove(&site);
            }
        }
        match (fail, stall) {
            (true, _) => Some(Fault::Fail),
            (_, true) => Some(Fault::Stall),
            _ => None,
        }
    }

    /// Counts one finished scheduled task on `executor`; `true` when an
    /// armed kill just hit zero and the caller must kill the executor.
    fn kill_due(&self, executor: usize) -> bool {
        let mut armed = self.armed.lock();
        let Some(kills) = armed.kills.get_mut(&executor) else {
            return false;
        };
        let countdown = kills.front_mut().expect("an armed executor has a kill");
        *countdown -= 1;
        if *countdown > 0 {
            return false;
        }
        kills.pop_front();
        if kills.is_empty() {
            armed.kills.remove(&executor);
        }
        true
    }

    /// The one call after an attempt's body, with the `outcome` it came
    /// to: fires an armed kill of the executor that ran it, and decides
    /// what the attempt reports.
    ///
    /// An armed kill fires here, after the victim's Nth task body ran: the
    /// kill discards the incarnation's blocks and retires its epoch, so
    /// this very attempt is the first casualty. An attempt that outlived
    /// its incarnation — killed here or by a test — lost its output with the executor and reports the loss instead of
    /// a stale success. A fetch failure keeps precedence — it names the
    /// shuffle the scheduler must repair either way — and so does an
    /// injected failure: `fail_task` armed together with
    /// `kill_executor_after` must still charge the attempt budget
    /// deterministically, not vanish into the free replay the
    /// executor-lost path grants.
    pub(crate) fn settle<R>(
        &self,
        ctx: &SpangleContext,
        info: &TaskInfo,
        outcome: Result<R, TaskError>,
    ) -> Result<R, TaskError> {
        if self.kill_due(info.ran_on) {
            ctx.kill_executor(info.ran_on);
        }
        let keeps = matches!(
            outcome,
            Err(TaskError::FetchFailed { .. }) | Err(TaskError::Injected)
        );
        if keeps || ctx.inner.pool.epoch(info.ran_on) == info.epoch {
            return outcome;
        }
        Err(TaskError::ExecutorLost {
            executor: info.ran_on,
        })
    }

    /// True when no injections are pending — site-specific failures,
    /// site-independent failures, armed executor kills and stalls alike (useful to assert a test consumed everything it armed).
    pub fn is_drained(&self) -> bool {
        let armed = self.armed.lock();
        armed.sites.is_empty() && armed.any == 0 && armed.kills.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(rdd_id: usize, partition: usize) -> TaskSite {
        TaskSite { rdd_id, partition }
    }

    /// Whether the injector fails attempt `attempt` of `site`.
    fn fails(inj: &FailureInjector, site: TaskSite, attempt: usize) -> bool {
        inj.draw(site, attempt) == Some(Fault::Fail)
    }

    #[test]
    fn injector_fails_exactly_n_times() {
        let inj = FailureInjector::default();
        inj.fail_task(7, 2, 2);
        assert!(fails(&inj, site(7, 2), 0));
        assert!(fails(&inj, site(7, 2), 1));
        assert!(!fails(&inj, site(7, 2), 2));
        assert!(inj.is_drained());
    }

    #[test]
    fn unarmed_sites_never_fail() {
        let inj = FailureInjector::default();
        assert_eq!(inj.draw(site(0, 0), 0), None);
    }

    /// Regression: a second `fail_task` for the same site used to
    /// overwrite the first arm's remaining count; it must accumulate.
    #[test]
    fn rearming_a_site_accumulates_instead_of_overwriting() {
        let inj = FailureInjector::default();
        inj.fail_task(3, 1, 2);
        inj.fail_task(3, 1, 1);
        for attempt in 0..3 {
            assert!(fails(&inj, site(3, 1), attempt), "attempt {attempt} armed");
        }
        assert!(!fails(&inj, site(3, 1), 3));
        assert!(inj.is_drained());
        // Arming zero times is a no-op, not a pending entry.
        inj.fail_task(4, 0, 0);
        assert!(inj.is_drained());
    }

    #[test]
    fn executor_kills_fire_in_armed_order_and_drain() {
        let inj = FailureInjector::default();
        inj.kill_executor_after(1, 2);
        inj.kill_executor_after(1, 1);
        assert!(!inj.is_drained());
        assert!(!inj.kill_due(0), "unarmed executors never die");
        assert!(!inj.kill_due(1), "first countdown at 1 of 2");
        assert!(inj.kill_due(1), "first kill fires");
        assert!(inj.kill_due(1), "second armed kill fires one task later");
        assert!(!inj.kill_due(1));
        assert!(inj.is_drained());
    }

    #[test]
    fn stalls_are_consumed_one_shot_per_site() {
        let inj = FailureInjector::default();
        inj.stall_progress(9, 3, 1);
        assert!(!inj.is_drained());
        let first = inj.draw(site(9, 3), 0);
        assert_eq!(first, Some(Fault::Stall), "first attempt stalls");
        let duplicate = inj.draw(site(9, 3), 0);
        assert_eq!(duplicate, None, "the duplicate attempt runs clean");
        assert!(inj.is_drained());
        inj.stall_progress(9, 3, 0);
        assert!(inj.is_drained(), "arming zero stalls is a no-op");
    }

    /// Everything armed on one site is met by one draw: each attempt
    /// consumes one of every counter that is left — the stall even when
    /// the failure preempts it — and plays the one that wins: failure,
    /// then stall.
    #[test]
    fn one_sites_failure_and_stall_are_consumed_together_in_precedence_order() {
        let inj = FailureInjector::default();
        inj.fail_task(4, 0, 1);
        inj.stall_progress(4, 0, 3);
        // A site-independent failure is taken first and spares the site's
        // own counter, but not its stall.
        inj.fail_next_tasks(1);
        let played: Vec<_> = (0..5).map(|_| inj.draw(site(4, 0), 0)).collect();
        use Fault::*;
        assert_eq!(
            played,
            [Some(Fail), Some(Fail), Some(Stall), None, None],
            "any+stall, fail+stall, stall, then drained"
        );
        assert!(inj.is_drained());
    }

    /// What an attempt reports once its body is over: an armed kill fires
    /// and costs the attempt its success, but a fetch failure and an
    /// injected failure keep their names.
    #[test]
    fn settle_fires_the_kill_and_keeps_the_errors_that_outrank_the_loss() {
        let ctx = SpangleContext::new(2);
        let inj = ctx.failure_injector();
        let on = |executor, epoch| TaskInfo {
            home: executor,
            ran_on: executor,
            stolen: false,
            epoch,
        };
        assert!(matches!(inj.settle(&ctx, &on(0, 0), Ok(7)), Ok(7)));
        inj.kill_executor_after(0, 1);
        let lost = inj.settle(&ctx, &on(0, 0), Ok(7));
        assert!(matches!(lost, Err(TaskError::ExecutorLost { executor: 0 })));
        assert_eq!(ctx.inner.pool.epoch(0), 1, "the armed kill fired");
        // The dead incarnation's stragglers: lost, unless they failed in a
        // way that outranks it.
        let injected = inj.settle(&ctx, &on(0, 0), Err::<u64, _>(TaskError::Injected));
        assert!(matches!(injected, Err(TaskError::Injected)));
        let fetch = TaskError::FetchFailed {
            shuffle_id: 3,
            map_id: 1,
        };
        let fetch = inj.settle(&ctx, &on(0, 0), Err::<u64, _>(fetch));
        assert!(matches!(fetch, Err(TaskError::FetchFailed { .. })));
        let panicked = TaskError::Panicked("late".into());
        let panicked = inj.settle(&ctx, &on(0, 0), Err::<u64, _>(panicked));
        assert!(matches!(panicked, Err(TaskError::ExecutorLost { .. })));
        assert!(matches!(inj.settle(&ctx, &on(0, 1), Ok(7)), Ok(7)));
        assert!(inj.is_drained());
    }

    #[test]
    fn site_independent_injections_spare_retries() {
        let inj = FailureInjector::default();
        inj.fail_next_tasks(2);
        let (a, b) = (site(1, 0), site(1, 1));
        assert!(fails(&inj, a, 0));
        // The retry of `a` must not consume the second injection...
        assert!(!fails(&inj, a, 1));
        // ...which is left for the first attempt of a different task.
        assert!(fails(&inj, b, 0));
        assert!(inj.is_drained());
    }
}
