//! The attempt table: everything the scheduler knows about one partition
//! of one stage run, and the one way another attempt of it is launched.
//!
//! A [`StageRun`] is created where a run starts (a stage's first
//! submission, or a recovery re-run of its lost map partitions) and holds
//! one [`Slot`] per partition:
//!
//! ```text
//!             launch                      ok (first completion wins,
//!   Settled ---------> Running(1) ------------------------------> Settled
//!  (not in this run,      |  ^  \       frozen        ok / fail   the twin is
//!   or delivered)         |  |   `--------------> Running(2) ---'  cancelled)
//!         fetch failure   |  | repaired                | one side fails:
//!                         v  |                         v the other runs on
//!                   Parked(shuffle)                Running(1)
//! ```
//!
//! A failed or lost attempt goes straight back to `Running` under a new
//! launch; only a fetch failure waits, for its parent's repair.
//!
//! Every launch is stamped with a job-unique [`AttemptId`] that its task
//! events carry back, so an event of a settled race or of a superseded
//! run matches no live attempt and can only ever *miss*. Every further
//! attempt goes through [`StageRun::relaunch`], whose [`Reason`] indexes
//! the policy table ([`Reason::policy`]): which budget is charged,
//! whether the attempt number advances, which counters tick, and whether
//! the new attempt *replaces* a dead one (at once, at the partition's
//! home) or *duplicates* a live one (at once, on another executor, first
//! completion wins).
//!
//! Nothing here reads a clock, a channel or the context: transitions take
//! `now` and the job's [`Ledger`] and hand back the [`Launch`]es their
//! caller must submit — which is what makes the table testable without
//! threads or sleeps.

use super::graph::Stage;
use super::{JobError, TaskError};
use crate::context::SpangleContextBuilder;
use crate::executor::{CancelToken, Executing};
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
    /// The context's configuration: the attempt budget and the watchdog
    /// interval.
    pub(super) config: Arc<SpangleContextBuilder>,
}

/// One executor task the caller must submit: it runs `partitions` in
/// order (several only for a coalesced group) as attempt number `attempt`
/// and posts one event per partition carrying `id`.
pub(super) struct Launch {
    pub(super) partitions: Vec<usize>,
    pub(super) attempt: usize,
    pub(super) id: AttemptId,
    pub(super) token: CancelToken,
    /// `Some(executor)` for a duplicate: run anywhere but where the
    /// frozen attempt sits. `None` places the task at its partition's home.
    pub(super) avoid: Option<usize>,
}

/// Why another attempt of a partition is launched, with its evidence.
pub(super) enum Reason {
    /// The attempt failed on its own (a panic, an injected fault).
    Retry(TaskError),
    /// The attempt died with its executor, or was cancelled with no twin
    /// left to deliver the partition.
    Lost(TaskError),
    /// The attempt found a parent shuffle block gone and waits for that
    /// shuffle's repair.
    Repaired { shuffle_id: usize, map_id: usize },
    /// Progress counter frozen past the watchdog interval on executor `on`.
    Frozen { on: usize },
}

/// Which budget a relaunch charges.
enum Budget {
    /// The task's own attempts (`max_task_attempts`).
    Attempt,
    /// The job's recovery budget (`max_resubmissions`).
    Resubmission,
    /// Nothing: the scheduler's own doing.
    Free,
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
    /// The policy table. What it does not spell out follows from the
    /// reason's shape: `Frozen` names the executor a live attempt sits
    /// `on`, so its attempt *duplicates* it — anywhere else, first
    /// completion wins; the other three *replace* a dead attempt — at the
    /// partition's home (for `Repaired`, once the parent is repaired).
    /// Every new attempt launches at once.
    #[rustfmt::skip]
    fn policy(&self) -> Policy {
        use MetricField::*;
        let (budget, advances, counters): (_, _, &[MetricField]) = match self {
            Reason::Retry(_)        => (Budget::Attempt,      true,  &[TaskRetries, Recomputations]),
            Reason::Lost(_)         => (Budget::Resubmission, false, &[Recomputations]),
            Reason::Repaired { .. } => (Budget::Resubmission, false, &[]),
            Reason::Frozen { .. }   => (Budget::Free,         false, &[WatchdogTrips, TasksSpeculated]),
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
            Reason::Frozen { .. } => unreachable!("a duplicate charges no budget"),
        }
    }
}

/// What one task event asks of its caller.
pub(super) enum Step {
    /// Nothing. The event matched no live attempt (a settled race's loser,
    /// a superseded run's straggler) and only its time counts; or it
    /// failed while its twin runs on.
    Nothing,
    /// First completion: the partition is delivered.
    Settled,
    /// Another attempt was decided and launches at once.
    Launch(Launch),
    /// The attempt waits for this shuffle's repair, which the caller must
    /// see to.
    Parked(usize),
}

/// One live attempt of a slot.
struct Live {
    id: AttemptId,
    token: CancelToken,
    /// Launched as part of a coalesced group: the group shares one body
    /// and one token, so no single partition of it can be duplicated.
    grouped: bool,
}

/// The watchdog's view of a lone running attempt: the executor progress
/// count last seen, and since when. A trip launches a duplicate, which
/// ends the watch; should the duplicate drop out, a fresh one starts.
#[derive(Clone, Copy)]
struct Watch {
    progress: u64,
    since: Instant,
}

#[derive(Default)]
enum State {
    /// Not part of this run, or delivered by its first completion.
    #[default]
    Settled,
    /// Between attempts, until this parent shuffle's lost map output is
    /// repaired.
    Parked(usize),
    /// Live: `[original, duplicate]`, either alone or both racing.
    Running {
        lives: [Option<Live>; 2],
        watch: Option<Watch>,
    },
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

    /// First launch of `partitions` as one executor task (a coalesced
    /// group when more than one).
    pub(super) fn launch(&mut self, partitions: Vec<usize>, ledger: &mut Ledger) -> Launch {
        self.unsettled += partitions.len();
        self.start(partitions, None, ledger)
    }

    /// The one place an attempt becomes live: stamps a fresh id and token
    /// on every covered slot (as the twin when `avoid` names the frozen
    /// attempt's executor) and describes the executor task to submit.
    fn start(
        &mut self,
        partitions: Vec<usize>,
        avoid: Option<usize>,
        ledger: &mut Ledger,
    ) -> Launch {
        let id = ledger.next_id;
        ledger.next_id += 1;
        let token = CancelToken::new();
        for &p in &partitions {
            let live = Some(Live {
                id,
                token: token.clone(),
                grouped: partitions.len() > 1,
            });
            match &mut self.slots[p].state {
                State::Running { lives, watch } if avoid.is_some() => {
                    (lives[1], *watch) = (live, None);
                }
                state => {
                    *state = State::Running {
                        lives: [live, None],
                        watch: None,
                    }
                }
            }
        }
        Launch {
            attempt: self.slots[partitions[0]].attempt,
            partitions,
            id,
            token,
            avoid,
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
        let State::Running { lives, .. } = &mut self.slots[partition].state else {
            return Ok(Step::Nothing);
        };
        let named = |l: &Option<Live>| l.as_ref().is_some_and(|l| l.id == id);
        let Some(side) = lives.iter().position(named) else {
            return Ok(Step::Nothing);
        };
        lives[side] = None;
        let racing = lives[1 - side].is_some();
        let err = match outcome {
            Ok(()) => {
                // First completion wins; the slower twin is cancelled and
                // its eventual event misses.
                if side == 1 {
                    self.count(ledger, MetricField::SpeculationWins, 1);
                }
                self.cancel_slot(partition, ledger);
                self.unsettled -= 1;
                return Ok(Step::Settled);
            }
            // The twin may yet deliver the partition: this side just
            // drops out, no relaunch and no charge.
            Err(_) if racing => return Ok(Step::Nothing),
            Err(err) => err,
        };
        let reason = match err {
            TaskError::FetchFailed { shuffle_id, map_id } => {
                self.count(ledger, MetricField::FetchFailures, 1);
                Reason::Repaired { shuffle_id, map_id }
            }
            TaskError::ExecutorLost { .. } | TaskError::Cancelled => Reason::Lost(err),
            _ => Reason::Retry(err),
        };
        self.relaunch(partition, reason, ledger)
    }

    /// Decides one more attempt of `partition` by the policy table: it
    /// launches at once, or is parked on a parent shuffle's repair.
    pub(super) fn relaunch(
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
            Budget::Free => false,
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
            Reason::Frozen { on } => Step::Launch(self.start(vec![partition], Some(on), ledger)),
            Reason::Repaired { shuffle_id, .. } => {
                self.slots[partition].state = State::Parked(shuffle_id);
                Step::Parked(shuffle_id)
            }
            Reason::Retry(_) | Reason::Lost(_) => {
                Step::Launch(self.start(vec![partition], None, ledger))
            }
        })
    }

    /// `shuffle_id`'s lost map output is whole again: every slot parked
    /// on it relaunches at once (same attempt number — the failure was
    /// the parent's).
    pub(super) fn repaired(&mut self, shuffle_id: usize, ledger: &mut Ledger) -> Vec<Launch> {
        let mut launches = Vec::new();
        for p in 0..self.slots.len() {
            if matches!(self.slots[p].state, State::Parked(s) if s == shuffle_id) {
                launches.push(self.start(vec![p], None, ledger));
            }
        }
        launches
    }

    /// The tick's one walk over running slots, with `executing[e]` what
    /// executor `e` runs right now: a *lone, original, singleton* attempt
    /// that is actually executing and whose executor's progress count has
    /// not moved for the watchdog interval is frozen, and gets a duplicate
    /// away from it.
    pub(super) fn scan(
        &mut self,
        now: Instant,
        executing: &[Option<Executing>],
        ledger: &mut Ledger,
    ) -> Result<Vec<Launch>, JobError> {
        let interval = ledger.config.watchdog_interval;
        let executor_of = |live: &Live| {
            let runs = |r: &&Executing| r.token.same(&live.token);
            (0..executing.len()).find_map(|e| Some((e, executing[e].as_ref().filter(runs)?)))
        };
        let mut frozen = Vec::new();
        for (p, slot) in self.slots.iter_mut().enumerate() {
            let State::Running { lives, watch } = &mut slot.state else {
                continue;
            };
            // Only a lone, original, singleton attempt that is executing
            // can be duplicated.
            let lone = match lives {
                [Some(original), None] if !original.grouped && executing.len() >= 2 => {
                    executor_of(original)
                }
                _ => None,
            };
            let Some((e, running)) = lone else {
                *watch = None;
                continue;
            };
            let fresh = Watch {
                progress: running.progress,
                since: now,
            };
            let seen = watch.get_or_insert(fresh);
            if seen.progress != running.progress {
                *seen = fresh;
            } else if now.duration_since(seen.since.max(running.since)) > interval {
                frozen.push((p, e));
            }
        }
        let mut launches = Vec::new();
        for (p, on) in frozen {
            if let Step::Launch(launch) = self.relaunch(p, Reason::Frozen { on }, ledger)? {
                launches.push(launch);
            }
        }
        Ok(launches)
    }

    /// Cancels what is left of a settled slot's race.
    fn cancel_slot(&mut self, partition: usize, ledger: &Ledger) {
        let state = std::mem::replace(&mut self.slots[partition].state, State::Settled);
        if let State::Running { lives, .. } = state {
            for loser in lives.into_iter().flatten() {
                loser.token.cancel();
                self.count(ledger, MetricField::TasksCancelled, 1);
            }
        }
    }

    /// Cancels every live attempt: a job abort must not leave wedged
    /// bodies holding executors until they finish on their own.
    pub(super) fn cancel_all(&mut self, ledger: &Ledger) {
        for p in 0..self.slots.len() {
            self.cancel_slot(p, ledger);
        }
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

/// The table's transitions, one case each, with the clock passed in: no
/// context, no threads, no sleeps.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StagePlan;
    use std::time::Duration;

    /// A table over `slots` partitions of a stand-alone stage, its ledger,
    /// and the instant the test calls "now". No context, no threads.
    fn table(slots: usize) -> (StageRun, Ledger, Instant) {
        let stage = Stage::new(None, Arc::new(|_| None), slots, 0, StagePlan::default());
        let t0 = crate::scheduler::tests::origin();
        let run = StageRun::new(&stage, 7, slots, t0, MetricsSnapshot::default());
        let config = crate::SpangleContext::builder()
            .max_task_attempts(3)
            .watchdog_interval(Duration::from_millis(500));
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
        match &run.slots[partition].state {
            State::Running { lives, .. } => lives.iter().flatten().count(),
            _ => 0,
        }
    }

    fn launched(step: Result<Step, JobError>) -> Launch {
        match step {
            Ok(Step::Launch(launch)) => launch,
            _ => panic!("expected an immediate launch"),
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// `executing[e]` for a cluster where executor `e` runs `launch`.
    fn on_executor(
        e: usize,
        launch: &Launch,
        since: Instant,
        progress: u64,
    ) -> Vec<Option<Executing>> {
        let mut executing = vec![None, None];
        executing[e] = Some(Executing {
            token: launch.token.clone(),
            since,
            progress,
        });
        executing
    }

    #[test]
    fn retry_advances_the_attempt_number_and_charges_the_attempt_budget() {
        let (mut run, mut ledger, _) = table(2);
        let first = run.launch(vec![1], &mut ledger);
        assert_eq!((first.attempt, first.avoid), (0, None));
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
        let first = run.launch(vec![0], &mut ledger);
        let lost = Err(TaskError::ExecutorLost { executor: 0 });
        let replay = launched(run.on_outcome(0, first.id, lost, &mut ledger));
        assert_eq!(replay.attempt, 0, "the loss was not the task's fault");
        assert_eq!(ledger.resubmissions_left, 1);
        // A cancellation with no twin left is the same loss.
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
        let first = run.launch(vec![0], &mut ledger);
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
        assert_eq!(
            (replays[0].attempt, replays[0].avoid),
            (0, None),
            "the failure was the parent's"
        );
        assert_eq!((lives(&run, 0), ledger.resubmissions_left), (1, 1));
        assert!(run.repaired(9, &mut ledger).is_empty(), "replayed once");
    }

    /// No relaunch waits on the clock: a retry and a loss replay come
    /// back as a launch from the very call that saw the failure, and a
    /// parked slot from the very call that reports its parent repaired.
    #[test]
    fn a_retry_a_loss_and_a_post_repair_replay_each_launch_from_the_same_call() {
        let (mut run, mut ledger, _) = table(3);
        let [a, b, c] = [0, 1, 2].map(|p| run.launch(vec![p], &mut ledger));
        let retry = run.on_outcome(0, a.id, Err(TaskError::Injected), &mut ledger);
        assert!(matches!(retry, Ok(Step::Launch(ref l)) if l.partitions == [0]));
        let lost = Err(TaskError::ExecutorLost { executor: 1 });
        let replay = run.on_outcome(1, b.id, lost, &mut ledger);
        assert!(matches!(replay, Ok(Step::Launch(ref l)) if l.partitions == [1]));
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
        assert_eq!(repaired[0].partitions, [2]);
        assert_eq!([0, 1, 2].map(|p| lives(&run, p)), [1, 1, 1]);
        assert_eq!(run.unsettled, 3);
    }

    #[test]
    fn a_winning_duplicate_cancels_the_original_whose_event_then_misses() {
        let (mut run, mut ledger, t0) = table(2);
        let fast = run.launch(vec![0], &mut ledger);
        let frozen = run.launch(vec![1], &mut ledger);
        let step = run.on_outcome(0, fast.id, Ok(()), &mut ledger);
        assert!(matches!(step, Ok(Step::Settled)));
        // Seen at once, then 500 ms without a progress tick: 499 ms is
        // not frozen, 501 is.
        let executing = on_executor(0, &frozen, t0, 0);
        for at in [0, 499] {
            let dups = run.scan(t0 + ms(at), &executing, &mut ledger);
            assert!(dups.unwrap().is_empty(), "duplicated at {at} ms");
        }
        let dups = run.scan(t0 + ms(501), &executing, &mut ledger).unwrap();
        assert_eq!(dups.len(), 1);
        let dup = &dups[0];
        assert_eq!(
            (dup.attempt, dup.avoid),
            (0, Some(0)),
            "same number, away from the frozen attempt"
        );
        assert_eq!((lives(&run, 1), run.report.counts.tasks_speculated), (2, 1));
        // A racing slot is not duplicated again.
        assert!(run
            .scan(t0 + ms(5_000), &executing, &mut ledger)
            .unwrap()
            .is_empty());
        let step = run.on_outcome(1, dup.id, Ok(()), &mut ledger);
        assert!(matches!(step, Ok(Step::Settled)));
        assert!(frozen.token.is_cancelled() && !dup.token.is_cancelled());
        assert_eq!(
            (
                run.report.counts.speculation_wins,
                run.report.counts.tasks_cancelled
            ),
            (1, 1)
        );
        assert_eq!(run.unsettled, 0);
        let (before, budget) = (ledger.metrics.snapshot(), ledger.resubmissions_left);
        let late = run.on_outcome(1, frozen.id, Err(TaskError::Cancelled), &mut ledger);
        assert!(
            matches!(late, Ok(Step::Nothing)),
            "the loser's event misses"
        );
        assert_eq!(ledger.metrics.snapshot(), before);
        assert_eq!((ledger.resubmissions_left, run.unsettled), (budget, 0));
    }

    #[test]
    fn both_sides_of_a_race_failing_is_one_retry_and_one_charge() {
        let (mut run, mut ledger, _) = table(1);
        let original = run.launch(vec![0], &mut ledger);
        let reason = Reason::Frozen { on: 0 };
        let dup = launched(run.relaunch(0, reason, &mut ledger));
        let step = run.on_outcome(0, original.id, Err(TaskError::Injected), &mut ledger);
        assert!(
            matches!(step, Ok(Step::Nothing)),
            "the twin may yet deliver"
        );
        assert_eq!(
            (lives(&run, 0), ledger.metrics.snapshot().task_retries),
            (1, 0)
        );
        let retry = launched(run.on_outcome(0, dup.id, Err(TaskError::Injected), &mut ledger));
        assert_eq!((retry.attempt, retry.avoid), (1, None));
        let snap = ledger.metrics.snapshot();
        assert_eq!(
            (snap.task_retries, snap.recomputations, lives(&run, 0)),
            (1, 1, 1)
        );
    }

    /// The defect ids remove: `(partition, attempt 0, original)` names an
    /// attempt of *every* run of a stage, so the late `Cancelled` of run
    /// 1's losing original used to retire run 2's record, charge the
    /// resubmission budget and launch a second concurrent attempt.
    #[test]
    fn a_superseded_runs_loser_cannot_touch_the_recovery_run() {
        let (mut run1, mut ledger, t0) = table(1);
        let original = run1.launch(vec![0], &mut ledger);
        let dup = launched(run1.relaunch(0, Reason::Frozen { on: 0 }, &mut ledger));
        let step = run1.on_outcome(0, dup.id, Ok(()), &mut ledger);
        assert!(matches!(step, Ok(Step::Settled)) && original.token.is_cancelled());
        // The map output is lost with its executor; a recovery run of the
        // same stage launches the same partition as attempt 0 again.
        let stage = Stage::new(None, Arc::new(|_| None), 1, 0, StagePlan::default());
        let mut run2 = StageRun::new(&stage, 8, 1, t0, MetricsSnapshot::default());
        let recovery = run2.launch(vec![0], &mut ledger);
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

    #[test]
    fn a_frozen_slot_trips_once_per_attempt_and_rearms_on_progress() {
        let (mut run, mut ledger, t0) = table(1);
        let task = run.launch(vec![0], &mut ledger);
        let at = |progress| on_executor(1, &task, t0, progress);
        // First sight baselines the watch; 500 ms without a tick trips it.
        assert!(run
            .scan(t0 + ms(10), &at(3), &mut ledger)
            .unwrap()
            .is_empty());
        assert!(run
            .scan(t0 + ms(400), &at(3), &mut ledger)
            .unwrap()
            .is_empty());
        // Progress re-arms the full interval from the tick's sighting.
        assert!(run
            .scan(t0 + ms(500), &at(4), &mut ledger)
            .unwrap()
            .is_empty());
        assert!(run
            .scan(t0 + ms(990), &at(4), &mut ledger)
            .unwrap()
            .is_empty());
        let dups = run.scan(t0 + ms(1001), &at(4), &mut ledger).unwrap();
        assert_eq!((dups.len(), dups[0].avoid), (1, Some(1)));
        assert_eq!(
            (
                run.report.counts.watchdog_trips,
                run.report.counts.tasks_speculated
            ),
            (1, 1)
        );
        // The duplicate drops out; the original is lone again, still
        // frozen — a new watch, a new full interval, a second trip.
        let step = run.on_outcome(0, dups[0].id, Err(TaskError::Injected), &mut ledger);
        assert!(matches!(step, Ok(Step::Nothing)));
        assert!(run
            .scan(t0 + ms(1010), &at(4), &mut ledger)
            .unwrap()
            .is_empty());
        assert!(run
            .scan(t0 + ms(1400), &at(4), &mut ledger)
            .unwrap()
            .is_empty());
        assert_eq!(
            run.scan(t0 + ms(1511), &at(4), &mut ledger).unwrap().len(),
            1
        );
        assert_eq!(ledger.metrics.snapshot().watchdog_trips, 2);
    }

    /// Running time alone never duplicates: an attempt whose executor
    /// keeps ticking progress is left alone however long it runs, even
    /// next to a sibling that finished at once.
    #[test]
    fn a_lone_attempt_whose_progress_keeps_moving_is_never_duplicated() {
        let (mut run, mut ledger, t0) = table(2);
        let quick = run.launch(vec![1], &mut ledger);
        assert!(matches!(
            run.on_outcome(1, quick.id, Ok(()), &mut ledger),
            Ok(Step::Settled)
        ));
        let task = run.launch(vec![0], &mut ledger);
        // One poll every 400 ms for an hour, one tick between polls.
        for poll in 0..9_000u64 {
            let executing = on_executor(0, &task, t0, poll);
            let dups = run.scan(t0 + ms(400 * poll), &executing, &mut ledger);
            assert!(dups.unwrap().is_empty(), "duplicated at poll {poll}");
        }
        let snap = ledger.metrics.snapshot();
        assert_eq!((snap.watchdog_trips, snap.tasks_speculated), (0, 0));
        assert_eq!(lives(&run, 0), 1);
    }

    #[test]
    fn a_coalesced_group_is_one_launch_over_several_slots_and_never_duplicated() {
        let (mut run, mut ledger, t0) = table(4);
        let solo = run.launch(vec![0], &mut ledger);
        let group = run.launch(vec![1, 2, 3], &mut ledger);
        assert_eq!((group.partitions.len(), run.unsettled), (3, 4));
        assert!(matches!(
            run.on_outcome(0, solo.id, Ok(()), &mut ledger),
            Ok(Step::Settled)
        ));
        // Frozen far past the watchdog interval: still no duplicate.
        let executing = on_executor(0, &group, t0, 0);
        assert!(run
            .scan(t0 + ms(10), &executing, &mut ledger)
            .unwrap()
            .is_empty());
        let dups = run.scan(t0 + ms(60_000), &executing, &mut ledger).unwrap();
        assert!(dups.is_empty());
        // One event per partition, all under the group's one id; a member
        // that fails is relaunched alone, its group-mates' outcomes stand.
        assert!(matches!(
            run.on_outcome(1, group.id, Ok(()), &mut ledger),
            Ok(Step::Settled)
        ));
        let alone = launched(run.on_outcome(2, group.id, Err(TaskError::Injected), &mut ledger));
        assert_eq!((alone.partitions.as_slice(), alone.attempt), (&[2][..], 1));
        assert!(matches!(
            run.on_outcome(3, group.id, Ok(()), &mut ledger),
            Ok(Step::Settled)
        ));
        assert_eq!((run.unsettled, group.token.is_cancelled()), (1, false));
        // An abort cancels what is live, and counts it.
        run.cancel_all(&ledger);
        assert!(alone.token.is_cancelled());
        assert_eq!(run.report.counts.tasks_cancelled, 1);
    }
}
