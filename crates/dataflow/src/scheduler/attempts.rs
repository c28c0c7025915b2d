//! The attempt table: everything the scheduler knows about one partition
//! of one stage run, and the one way another attempt of it is launched.
//!
//! A [`StageRun`] is created where a run starts (a stage's first
//! submission, or a recovery re-run of its lost map partitions) and holds
//! one [`Slot`] per partition, with at most one live attempt each:
//!
//! ```text
//!             launch                 ok
//!   Settled ---------> Running ------------> Settled
//!  (not in this run,    |  ^  ^   |         (delivered)
//!   or delivered)       |  |  `---' failed or lost: the next
//!         fetch failure |  | repaired  attempt launches at once
//!                       v  |
//!                 Parked(shuffle)
//! ```
//!
//! A failed or lost attempt goes straight back to `Running` under a new
//! launch; only a fetch failure waits, for its parent's repair.
//!
//! Every launch is stamped with a job-unique [`AttemptId`] that its task
//! event carries back, so an event that names no live attempt can only
//! ever *miss*. Every further attempt goes through [`StageRun::relaunch`],
//! whose [`Reason`] indexes the policy table ([`Reason::policy`]): which
//! budget is charged, whether the attempt number advances and which
//! counters tick. Every new attempt replaces a dead one, at once, at the
//! partition's home.
//!
//! Nothing here reads a clock, a channel or the context: transitions take
//! the job's [`Ledger`] and hand back the [`Launch`]es their caller must
//! submit — which is what makes the table testable without threads or
//! sleeps.

use super::graph::Stage;
use super::{JobError, TaskError};
use crate::context::SpangleContextBuilder;
use crate::executor::CancelToken;
use crate::metrics::{MetricField, Metrics, MetricsSnapshot, StageOutcome, StageReport};
use std::sync::Arc;
use std::time::Instant;

/// Job-unique identity of one launched executor task.
pub(super) type AttemptId = u64;

/// Job-wide inputs of the table's transitions: the budgets they charge,
/// the policies they apply, and the attempt-id counter.
pub(super) struct Ledger {
    pub(super) job_id: usize,
    /// Remaining executor-loss / fetch-failure resubmissions before the
    /// job aborts (failures of this kind do not charge the per-task
    /// attempt budget).
    pub(super) resubmissions_left: usize,
    pub(super) next_id: AttemptId,
    /// The context's counters, ticked where the table decides.
    pub(super) metrics: Arc<Metrics>,
    /// The context's configuration: the attempt budget.
    pub(super) config: Arc<SpangleContextBuilder>,
}

/// One executor task the caller must submit at its partition's home: it
/// runs `partition` as attempt number `attempt` and posts one event
/// carrying `id`.
pub(super) struct Launch {
    pub(super) partition: usize,
    pub(super) attempt: usize,
    pub(super) id: AttemptId,
    pub(super) token: CancelToken,
}

/// Why another attempt of a partition is launched, with its evidence.
enum Reason {
    /// The attempt failed on its own (a panic, an injected fault).
    Retry(TaskError),
    /// The attempt died with its executor, or was cancelled.
    Lost(TaskError),
    /// The attempt found a parent shuffle block gone and waits for that
    /// shuffle's repair.
    Repaired { shuffle_id: usize, map_id: usize },
}

/// Which budget a relaunch charges.
enum Budget {
    /// The task's own attempts (`max_task_attempts`).
    Attempt,
    /// The job's recovery budget (`max_resubmissions`).
    Resubmission,
}

/// One row of the policy table.
struct Policy {
    budget: Budget,
    /// Whether the new attempt takes the next attempt number.
    advances: bool,
    /// Counters ticked per relaunch (see [`StageRun::count`]).
    counters: &'static [MetricField],
}

impl Reason {
    /// The policy table. Every new attempt replaces a dead one at the
    /// partition's home — at once, or for `Repaired` once the parent is
    /// repaired.
    #[rustfmt::skip]
    fn policy(&self) -> Policy {
        use MetricField::*;
        let (budget, advances, counters): (_, _, &[MetricField]) = match self {
            Reason::Retry(_)        => (Budget::Attempt,      true,  &[TaskRetries, Recomputations]),
            Reason::Lost(_)         => (Budget::Resubmission, false, &[Recomputations]),
            Reason::Repaired { .. } => (Budget::Resubmission, false, &[]),
        };
        Policy { budget, advances, counters }
    }

    /// The error a job aborts with when this relaunch finds its budget
    /// spent.
    fn into_error(self) -> TaskError {
        match self {
            Reason::Retry(err) | Reason::Lost(err) => err,
            Reason::Repaired { shuffle_id, map_id } => {
                TaskError::FetchFailed { shuffle_id, map_id }
            }
        }
    }
}

/// What one task event asks of its caller.
pub(super) enum Step {
    /// Nothing: the event matched no live attempt, and only its time
    /// counts.
    Nothing,
    /// The partition is delivered.
    Settled,
    /// Another attempt was decided and launches at once.
    Launch(Launch),
    /// The attempt waits for this shuffle's repair, which the caller must
    /// see to.
    Parked(usize),
}

/// The live attempt of a slot.
struct Live {
    id: AttemptId,
    token: CancelToken,
}

#[derive(Default)]
enum State {
    /// Not part of this run, or delivered.
    #[default]
    Settled,
    /// Between attempts, until this parent shuffle's lost map output is
    /// repaired.
    Parked(usize),
    /// One attempt is live.
    Running(Live),
}

/// One partition of one stage run.
#[derive(Default)]
struct Slot {
    /// Number of the current (or next) attempt.
    attempt: usize,
    state: State,
}

/// One run of a stage: its attempt table, and the [`StageReport`] it
/// accumulates as it goes.
pub(super) struct StageRun {
    /// Accounting of the run so far; final once [`Self::close`]d.
    pub(super) report: StageReport,
    started: Instant,
    /// The context-wide counters when the run started; the report
    /// carries the spill tier's delta.
    baseline: MetricsSnapshot,
    slots: Vec<Slot>,
    /// Slots not yet settled; the run is complete at zero.
    pub(super) unsettled: usize,
}

impl StageRun {
    /// A run of `stage` under the fresh `stage_id`, with `num_slots`
    /// slots — all settled until [`Self::launch`]ed — started at `now`
    /// with the context's counters at `baseline`.
    pub(super) fn new(
        stage: &Stage,
        stage_id: usize,
        num_slots: usize,
        now: Instant,
        baseline: MetricsSnapshot,
    ) -> Self {
        StageRun {
            report: StageReport {
                stage_id,
                shuffle_id: stage.shuffle_id,
                num_tasks: stage.num_tasks,
                ..StageReport::default()
            },
            started: now,
            baseline,
            slots: std::iter::repeat_with(Slot::default)
                .take(num_slots)
                .collect(),
            unsettled: 0,
        }
    }

    /// Adds `n` to a counter of the context and of the run's own
    /// `counts`: the one way the scheduler counts against a stage, so its
    /// report cannot disagree with the context.
    pub(super) fn count(&mut self, ledger: &Ledger, field: MetricField, n: u64) {
        ledger.metrics.add(field, n);
        self.report.counts.bump(field, n);
    }

    /// First launch of `partition`.
    pub(super) fn launch(&mut self, partition: usize, ledger: &mut Ledger) -> Launch {
        self.unsettled += 1;
        self.start(partition, ledger)
    }

    /// The one place an attempt becomes live: stamps a fresh id and token
    /// on the slot and describes the executor task to submit.
    fn start(&mut self, partition: usize, ledger: &mut Ledger) -> Launch {
        let id = ledger.next_id;
        ledger.next_id += 1;
        let token = CancelToken::new();
        let slot = &mut self.slots[partition];
        slot.state = State::Running(Live {
            id,
            token: token.clone(),
        });
        Launch {
            partition,
            attempt: slot.attempt,
            id,
            token,
        }
    }

    /// Applies one task event to its slot.
    pub(super) fn on_outcome(
        &mut self,
        partition: usize,
        id: AttemptId,
        outcome: Result<(), TaskError>,
        ledger: &mut Ledger,
    ) -> Result<Step, JobError> {
        // Retire the attempt the event names; no such attempt is a miss.
        let state = &mut self.slots[partition].state;
        if !matches!(state, State::Running(live) if live.id == id) {
            return Ok(Step::Nothing);
        }
        *state = State::Settled;
        let reason = match outcome {
            Ok(()) => {
                self.unsettled -= 1;
                return Ok(Step::Settled);
            }
            Err(TaskError::FetchFailed { shuffle_id, map_id }) => {
                self.count(ledger, MetricField::FetchFailures, 1);
                Reason::Repaired { shuffle_id, map_id }
            }
            Err(err @ (TaskError::ExecutorLost { .. } | TaskError::Cancelled)) => Reason::Lost(err),
            Err(err) => Reason::Retry(err),
        };
        self.relaunch(partition, reason, ledger)
    }

    /// Decides one more attempt of `partition` by the policy table: it
    /// launches at once, or is parked on a parent shuffle's repair.
    fn relaunch(
        &mut self,
        partition: usize,
        reason: Reason,
        ledger: &mut Ledger,
    ) -> Result<Step, JobError> {
        let policy = reason.policy();
        let attempt = self.slots[partition].attempt;
        let spent = match policy.budget {
            Budget::Attempt => attempt + 1 >= ledger.config.max_task_attempts,
            Budget::Resubmission => ledger.resubmissions_left == 0,
        };
        if spent {
            return Err(JobError {
                job_id: ledger.job_id,
                stage_id: self.report.stage_id,
                partition,
                attempts: attempt + 1,
                last_error: reason.into_error(),
            });
        }
        if let Budget::Resubmission = policy.budget {
            ledger.resubmissions_left -= 1;
        }
        for &field in policy.counters {
            self.count(ledger, field, 1);
        }
        self.slots[partition].attempt += policy.advances as usize;
        Ok(match reason {
            Reason::Repaired { shuffle_id, .. } => {
                self.slots[partition].state = State::Parked(shuffle_id);
                Step::Parked(shuffle_id)
            }
            Reason::Retry(_) | Reason::Lost(_) => Step::Launch(self.start(partition, ledger)),
        })
    }

    /// `shuffle_id`'s lost map output is whole again: every slot parked
    /// on it relaunches at once (same attempt number — the failure was
    /// the parent's).
    pub(super) fn repaired(&mut self, shuffle_id: usize, ledger: &mut Ledger) -> Vec<Launch> {
        let mut launches = Vec::new();
        for p in 0..self.slots.len() {
            if matches!(self.slots[p].state, State::Parked(s) if s == shuffle_id) {
                launches.push(self.start(p, ledger));
            }
        }
        launches
    }

    /// Cancels every live attempt: a job abort must not leave wedged
    /// bodies holding executors until they finish on their own.
    pub(super) fn cancel_all(&mut self, ledger: &Ledger) {
        let mut cancelled = 0;
        for slot in &mut self.slots {
            if let State::Running(live) = std::mem::take(&mut slot.state) {
                live.token.cancel();
                cancelled += 1;
            }
        }
        self.count(ledger, MetricField::TasksCancelled, cancelled);
    }

    /// Closes the run's report at `now`, with the context's counters at
    /// `snap`: the spill tier's three fields become the context's spill
    /// activity while the run was open.
    pub(super) fn close(&mut self, outcome: StageOutcome, snap: MetricsSnapshot, now: Instant) {
        let report = &mut self.report;
        report.outcome = outcome;
        report.wall_nanos = now.duration_since(self.started).as_nanos() as u64;
        report.tasks_stolen = report.counts.tasks_stolen as usize;
        let spill = snap - self.baseline;
        let counts = &mut report.counts;
        counts.blocks_spilled = spill.blocks_spilled;
        counts.blocks_rehydrated = spill.blocks_rehydrated;
        counts.spill_bytes = spill.spill_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StagePlan;

    /// A table over `slots` partitions of a stand-alone stage, its ledger,
    /// and the instant the test calls "now". No context, no threads.
    fn table(slots: usize) -> (StageRun, Ledger, Instant) {
        let stage = Stage::new(None, Arc::new(|_| None), slots, 0, StagePlan::default());
        let t0 = crate::scheduler::tests::origin();
        let run = StageRun::new(&stage, 7, slots, t0, MetricsSnapshot::default());
        let config = crate::SpangleContext::builder().max_task_attempts(3);
        let ledger = Ledger {
            job_id: 1,
            resubmissions_left: 2,
            next_id: 0,
            metrics: Arc::new(Metrics::default()),
            config: Arc::new(config),
        };
        (run, ledger, t0)
    }

    fn lives(run: &StageRun, partition: usize) -> usize {
        matches!(run.slots[partition].state, State::Running(_)) as usize
    }

    fn launched(step: Result<Step, JobError>) -> Launch {
        match step {
            Ok(Step::Launch(launch)) => launch,
            _ => panic!("expected an immediate launch"),
        }
    }

    #[test]
    fn retry_advances_the_attempt_number_and_charges_the_attempt_budget() {
        let (mut run, mut ledger, _) = table(2);
        let first = run.launch(1, &mut ledger);
        assert_eq!(first.attempt, 0);
        let retry = launched(run.on_outcome(1, first.id, Err(TaskError::Injected), &mut ledger));
        assert_eq!(retry.attempt, 1, "a retry takes the next attempt number");
        assert_ne!(retry.id, first.id);
        assert_eq!(
            ledger.resubmissions_left, 2,
            "the job's budget is untouched"
        );
        let snap = ledger.metrics.snapshot();
        assert_eq!((snap.task_retries, snap.recomputations), (1, 1));
        // Attempt 1 fails too: attempt 2 is the last the budget of 3 allows.
        let last = launched(run.on_outcome(1, retry.id, Err(TaskError::Injected), &mut ledger));
        assert_eq!(last.attempt, 2);
        let err = run
            .on_outcome(1, last.id, Err(TaskError::Injected), &mut ledger)
            .err()
            .expect("the attempt budget is spent");
        assert_eq!(
            (err.job_id, err.stage_id, err.partition, err.attempts),
            (1, 7, 1, 3)
        );
        assert!(matches!(err.last_error, TaskError::Injected));
        assert_eq!(
            ledger.metrics.snapshot().task_retries,
            2,
            "an abort is not a retry"
        );
    }

    #[test]
    fn a_lost_attempt_replays_under_its_number_on_the_resubmission_budget() {
        let (mut run, mut ledger, _) = table(1);
        let first = run.launch(0, &mut ledger);
        let lost = Err(TaskError::ExecutorLost { executor: 0 });
        let replay = launched(run.on_outcome(0, first.id, lost, &mut ledger));
        assert_eq!(replay.attempt, 0, "the loss was not the task's fault");
        assert_eq!(ledger.resubmissions_left, 1);
        // A cancellation is the same loss.
        let again = launched(run.on_outcome(0, replay.id, Err(TaskError::Cancelled), &mut ledger));
        assert_eq!((again.attempt, ledger.resubmissions_left), (0, 0));
        let snap = ledger.metrics.snapshot();
        assert_eq!((snap.task_retries, snap.recomputations), (0, 2));
        // The third loss finds the job's budget spent.
        let err = run
            .on_outcome(0, again.id, Err(TaskError::Cancelled), &mut ledger)
            .err()
            .expect("the resubmission budget is spent");
        assert_eq!(err.attempts, 1);
        assert!(matches!(err.last_error, TaskError::Cancelled));
    }

    #[test]
    fn a_fetch_failure_parks_until_the_parents_repair_then_replays_at_once() {
        let (mut run, mut ledger, _) = table(2);
        let first = run.launch(0, &mut ledger);
        let failed = Err(TaskError::FetchFailed {
            shuffle_id: 9,
            map_id: 4,
        });
        let step = run.on_outcome(0, first.id, failed, &mut ledger);
        assert!(
            matches!(step, Ok(Step::Parked(9))),
            "the caller must repair shuffle 9"
        );
        assert_eq!(
            (ledger.resubmissions_left, run.report.counts.fetch_failures),
            (1, 1)
        );
        assert_eq!(ledger.metrics.snapshot().fetch_failures, 1);
        assert_eq!(run.unsettled, 1, "a parked slot keeps its stage open");
        assert_eq!(lives(&run, 0), 0, "nothing runs while parked");
        // Another shuffle's repair is not ours.
        assert!(run.repaired(8, &mut ledger).is_empty());
        let replays = run.repaired(9, &mut ledger);
        assert_eq!(replays.len(), 1);
        assert_eq!(replays[0].attempt, 0, "the failure was the parent's");
        assert_eq!((lives(&run, 0), ledger.resubmissions_left), (1, 1));
        assert!(run.repaired(9, &mut ledger).is_empty(), "replayed once");
    }

    /// No relaunch waits on the clock: a retry and a loss replay come
    /// back as a launch from the very call that saw the failure, and a
    /// parked slot from the very call that reports its parent repaired.
    #[test]
    fn a_retry_a_loss_and_a_post_repair_replay_each_launch_from_the_same_call() {
        let (mut run, mut ledger, _) = table(3);
        let [a, b, c] = [0, 1, 2].map(|p| run.launch(p, &mut ledger));
        let retry = launched(run.on_outcome(0, a.id, Err(TaskError::Injected), &mut ledger));
        assert_eq!(retry.partition, 0);
        let lost = Err(TaskError::ExecutorLost { executor: 1 });
        let replay = launched(run.on_outcome(1, b.id, lost, &mut ledger));
        assert_eq!(replay.partition, 1);
        let fetch = Err(TaskError::FetchFailed {
            shuffle_id: 3,
            map_id: 0,
        });
        assert!(matches!(
            run.on_outcome(2, c.id, fetch, &mut ledger),
            Ok(Step::Parked(3))
        ));
        let repaired = run.repaired(3, &mut ledger);
        assert_eq!(repaired.len(), 1);
        assert_eq!(repaired[0].partition, 2);
        assert_eq!([0, 1, 2].map(|p| lives(&run, p)), [1, 1, 1]);
        assert_eq!(run.unsettled, 3);
        // An abort cancels what is live, and counts it.
        run.cancel_all(&ledger);
        for launch in [&retry, &replay, &repaired[0]] {
            assert!(launch.token.is_cancelled());
        }
        assert_eq!(run.report.counts.tasks_cancelled, 3);
    }

    /// The defect ids remove: `(partition, attempt 0)` names an attempt of
    /// *every* run of a stage, so a late event of run 1's lost original
    /// used to retire run 2's record, charge the resubmission budget and
    /// launch a second concurrent attempt. With one attempt per slot no
    /// run closes while an attempt of it is live, so the id is what keeps
    /// an event of a retired attempt — here replayed — a miss.
    #[test]
    fn a_superseded_runs_loser_cannot_touch_the_recovery_run() {
        let (mut run1, mut ledger, t0) = table(1);
        let original = run1.launch(0, &mut ledger);
        let lost = Err(TaskError::ExecutorLost { executor: 0 });
        let replay = launched(run1.on_outcome(0, original.id, lost, &mut ledger));
        let step = run1.on_outcome(0, replay.id, Ok(()), &mut ledger);
        assert!(matches!(step, Ok(Step::Settled)));
        // The map output is lost with its executor; a recovery run of the
        // same stage launches the same partition as attempt 0 again.
        let stage = Stage::new(None, Arc::new(|_| None), 1, 0, StagePlan::default());
        let mut run2 = StageRun::new(&stage, 8, 1, t0, MetricsSnapshot::default());
        let recovery = run2.launch(0, &mut ledger);
        assert_eq!(recovery.attempt, original.attempt);
        let (before, budget) = (ledger.metrics.snapshot(), ledger.resubmissions_left);
        let stale = run2.on_outcome(0, original.id, Err(TaskError::Cancelled), &mut ledger);
        assert!(
            matches!(stale, Ok(Step::Nothing)),
            "a stale event can only miss"
        );
        assert_eq!(
            ledger.metrics.snapshot(),
            before,
            "Recomputations untouched"
        );
        assert_eq!((ledger.resubmissions_left, lives(&run2, 0)), (budget, 1));
        assert!(!recovery.token.is_cancelled());
        let step = run2.on_outcome(0, recovery.id, Ok(()), &mut ledger);
        assert!(matches!(step, Ok(Step::Settled)));
    }
}
