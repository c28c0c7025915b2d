//! A job's stage graph: one *map stage* per shuffle dependency reachable
//! from the action's lineage plus one *result stage*, and the
//! demand-driven walk that activates it.
//!
//! Activation is race-free: a map stage first
//! [`ShuffleService::try_claim`]s its shuffle. Exactly one job becomes the
//! owner and runs the stage; a job that finds the shuffle `Completed`
//! skips the stage (Spark's skipped-stage reuse, without even visiting its
//! ancestors), and a job that finds it `InFlight` treats the stage as
//! *external*, registering a completion callback on the shuffle service
//! ([`ShuffleService::subscribe`]) that posts an event into the waiting
//! job's own channel. No thread is ever parked on an awaited shuffle, and
//! an aborting owner wakes its externals immediately.
//!
//! [`ShuffleService::try_claim`]: crate::shuffle::ShuffleService::try_claim
//! [`ShuffleService::subscribe`]: crate::shuffle::ShuffleService::subscribe

use super::attempts::StageRun;
use super::{ErasedResult, Event, JobError, JobRun, StageWork, TaskContext};
use crate::metrics::{MetricField, StageOutcome};
use crate::plan::{self, StagePlan};
use crate::rdd::pair::ShuffleDepDyn;
use crate::rdd::{Dependency, LineageNode, Rdd};
use crate::shuffle::ShuffleClaim;
use crate::Data;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Lifecycle of one stage inside one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum StageState {
    /// Not reached by activation yet.
    Idle,
    /// This job owns the stage and is waiting for every parent to be
    /// satisfied.
    Waiting,
    /// Another job is running the stage; a completion callback will post
    /// into this job's channel when it resolves.
    External,
    /// Tasks submitted; `Stage::run` holds the run's attempt table.
    Running,
    /// All tasks done (and the shuffle, if any, marked complete).
    Finished,
    /// Satisfied without running: the shuffle output already existed.
    Skipped,
}

/// One node of the job's stage graph.
pub(super) struct Stage {
    /// The shuffle this map stage feeds; `None` for the result stage.
    pub(super) shuffle_id: Option<usize>,
    pub(super) work: StageWork,
    /// Stage indices this stage reads shuffle output from.
    pub(super) parents: Vec<usize>,
    /// Stage indices that read this stage's shuffle output.
    pub(super) children: Vec<usize>,
    pub(super) num_tasks: usize,
    /// RDD id used as the failure-injection site for this stage's tasks.
    pub(super) site_rdd: usize,
    /// Fused chains and elided shuffle edges this stage's task bodies
    /// execute (see [`plan::analyze_stages`]).
    pub(super) plan: StagePlan,
    pub(super) state: StageState,
    /// The current run: `Some` exactly while the stage is `Running`.
    pub(super) run: Option<StageRun>,
}

impl Stage {
    pub(super) fn new(
        shuffle_id: Option<usize>,
        work: StageWork,
        num_tasks: usize,
        site_rdd: usize,
        plan: StagePlan,
    ) -> Self {
        Stage {
            shuffle_id,
            work,
            parents: Vec::new(),
            children: Vec::new(),
            num_tasks,
            site_rdd,
            plan,
            state: StageState::Idle,
            run: None,
        }
    }

    /// Whether dependents of this stage can read its shuffle output.
    pub(super) fn is_satisfied(&self) -> bool {
        matches!(self.state, StageState::Finished | StageState::Skipped)
    }
}

/// Builds the job's stage graph: one map stage per reachable shuffle
/// (parents before children, so indices are topological) plus the result
/// stage at the end.
pub(super) fn build_stages<T: Data, R: Send + 'static>(
    rdd: &Rdd<T>,
    task: impl Fn(&Rdd<T>, &TaskContext) -> R + Send + Sync + 'static,
) -> Vec<Stage> {
    let deps = topo_shuffle_deps(rdd.lineage());
    let mut by_shuffle: HashMap<usize, usize> = HashMap::new();
    let mut stages: Vec<Stage> = Vec::with_capacity(deps.len() + 1);

    // One plan territory per stage, in stage order: each shuffle's map-side
    // parent lineage, then the result lineage. The planner attributes fused
    // chains and elided shuffle edges to the stage that executes them.
    let territories: Vec<Arc<dyn LineageNode>> = deps
        .iter()
        .map(|dep| dep.parent_lineage())
        .chain(std::iter::once(rdd.lineage()))
        .collect();
    let plans = plan::analyze_stages(&territories);

    for (idx, dep) in deps.iter().enumerate() {
        by_shuffle.insert(dep.shuffle_id(), stages.len());
        let work: StageWork = {
            let dep = Arc::clone(dep);
            Arc::new(move |tc: &TaskContext| {
                dep.run_map_task(tc.partition, tc);
                None
            })
        };
        stages.push(Stage::new(
            Some(dep.shuffle_id()),
            work,
            dep.num_map_partitions(),
            dep.parent_rdd_id(),
            plans[idx],
        ));
    }

    // Wire map-stage edges: a stage's parents are the shuffles its map
    // side reads, i.e. the shuffle dependencies reachable from its parent
    // lineage without crossing another shuffle boundary.
    for (idx, dep) in deps.iter().enumerate() {
        for parent in direct_parent_shuffles(dep.parent_lineage()) {
            let p = by_shuffle[&parent.shuffle_id()];
            stages[p].children.push(idx);
            stages[idx].parents.push(p);
        }
    }

    let result_idx = stages.len();
    let work: StageWork = {
        let target = rdd.clone();
        Arc::new(move |tc: &TaskContext| Some(Box::new(task(&target, tc)) as ErasedResult))
    };
    let mut result = Stage::new(
        None,
        work,
        rdd.num_partitions(),
        rdd.id(),
        plans[result_idx],
    );
    for parent in direct_parent_shuffles(rdd.lineage()) {
        let p = by_shuffle[&parent.shuffle_id()];
        stages[p].children.push(result_idx);
        result.parents.push(p);
    }
    stages.push(result);
    stages
}

/// Collects all shuffle dependencies reachable from `root`, ordered so
/// that every shuffle appears after the shuffles its map stage reads from.
fn topo_shuffle_deps(root: Arc<dyn LineageNode>) -> Vec<Arc<dyn ShuffleDepDyn>> {
    struct Walk {
        order: Vec<Arc<dyn ShuffleDepDyn>>,
        seen_shuffles: HashSet<usize>,
        seen_nodes: HashSet<usize>,
    }

    impl Walk {
        fn visit_node(&mut self, node: Arc<dyn LineageNode>) {
            if !self.seen_nodes.insert(node.rdd_id()) {
                return;
            }
            for dep in node.dependencies() {
                match dep {
                    Dependency::Narrow(parent) => self.visit_node(parent),
                    Dependency::Shuffle(shuffle) => self.visit_shuffle(shuffle),
                }
            }
        }

        fn visit_shuffle(&mut self, shuffle: Arc<dyn ShuffleDepDyn>) {
            if !self.seen_shuffles.insert(shuffle.shuffle_id()) {
                return;
            }
            self.visit_node(shuffle.parent_lineage());
            self.order.push(shuffle);
        }
    }

    let mut walk = Walk {
        order: Vec::new(),
        seen_shuffles: HashSet::new(),
        seen_nodes: HashSet::new(),
    };
    walk.visit_node(root);
    walk.order
}

/// The shuffle dependencies `root` reads *directly*: reachable through
/// narrow edges only, without descending past another shuffle boundary.
fn direct_parent_shuffles(root: Arc<dyn LineageNode>) -> Vec<Arc<dyn ShuffleDepDyn>> {
    let mut out: Vec<Arc<dyn ShuffleDepDyn>> = Vec::new();
    let mut seen_nodes = HashSet::new();
    let mut seen_shuffles = HashSet::new();
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        if !seen_nodes.insert(node.rdd_id()) {
            continue;
        }
        for dep in node.dependencies() {
            match dep {
                Dependency::Narrow(parent) => stack.push(parent),
                Dependency::Shuffle(shuffle) => {
                    if seen_shuffles.insert(shuffle.shuffle_id()) {
                        out.push(shuffle);
                    }
                }
            }
        }
    }
    out
}

/// The walk over the graph: activation, skipping, watching, and waking
/// children as stages resolve.
impl JobRun {
    /// Demand-driven activation: resolves the stage to `Skipped`,
    /// `External`, `Running`, or `Waiting` (and recursively activates its
    /// ancestors when this job owns it). Idempotent.
    pub(super) fn activate(&mut self, idx: usize) -> Result<(), JobError> {
        if self.stages[idx].state != StageState::Idle {
            return Ok(());
        }
        match self.stages[idx].shuffle_id {
            // The result stage is always ours to run.
            None => self.activate_owned(idx),
            Some(shuffle_id) => {
                match self.ctx.inner.shuffle.try_claim(shuffle_id) {
                    ShuffleClaim::Completed => self.skip(idx),
                    ShuffleClaim::InFlight => self.watch(idx, shuffle_id),
                    ShuffleClaim::Owner => {
                        self.owned.insert(shuffle_id);
                        return self.activate_owned(idx);
                    }
                }
                Ok(())
            }
        }
    }

    /// Activates a stage this job owns: activates its parents, then either
    /// submits it (all parents satisfied) or leaves it in `Waiting`.
    fn activate_owned(&mut self, idx: usize) -> Result<(), JobError> {
        self.stages[idx].state = StageState::Waiting;
        for p in self.stages[idx].parents.clone() {
            self.activate(p)?;
        }
        self.submit_if_ready(idx)
    }

    /// Submits the `Waiting` stage `idx` once every parent is satisfied.
    /// Readiness is read off the parents' states each time rather than
    /// counted down: a parent that finished and is running again — a
    /// recovery re-run of map output it lost — is unsatisfied for as long
    /// as that run lasts, and finishing it twice counts once.
    fn submit_if_ready(&mut self, idx: usize) -> Result<(), JobError> {
        let stage = &self.stages[idx];
        let waiting = stage.state == StageState::Waiting;
        if waiting && stage.parents.iter().all(|&p| self.stages[p].is_satisfied()) {
            self.submit_stage(idx)?;
        }
        Ok(())
    }

    /// Marks a stage satisfied-without-running and accounts the skip.
    pub(super) fn skip(&mut self, idx: usize) {
        self.stages[idx].state = StageState::Skipped;
        let (now, snap) = (Instant::now(), self.ctx.metrics_snapshot());
        let stage_id = self.ctx.new_stage_id();
        let mut empty = StageRun::new(&self.stages[idx], stage_id, 0, now, snap);
        empty.count(&self.ledger, MetricField::StagesSkipped, 1);
        empty.close(StageOutcome::Skipped, snap, now);
        self.reports.push(empty.report);
    }

    /// Subscribes to an in-flight external shuffle: when the owning job
    /// completes (or abandons) it, the callback posts into this job's
    /// channel. If this job resolved meanwhile, the send finds the channel
    /// gone and the event is dropped.
    pub(super) fn watch(&mut self, idx: usize, shuffle_id: usize) {
        self.stages[idx].state = StageState::External;
        let tx = self.tx.clone();
        self.ctx.inner.shuffle.subscribe(
            shuffle_id,
            Box::new(move |completed| {
                let _ = tx.send(Event::External {
                    stage_idx: idx,
                    completed,
                });
            }),
        );
    }

    /// An external (other-job) map stage resolved.
    pub(super) fn on_external(&mut self, idx: usize, completed: bool) -> Result<(), JobError> {
        if completed {
            self.skip(idx);
            return self.satisfy_children(idx);
        }
        // The owning job abandoned the shuffle; race to re-claim it (we
        // may become the owner now).
        self.stages[idx].state = StageState::Idle;
        self.activate(idx)?;
        // If activation skipped or finished it already, wake the children
        // that were counting on it.
        if self.stages[idx].is_satisfied() {
            self.satisfy_children(idx)?;
        }
        Ok(())
    }

    /// Submits every child waiting on this (now satisfied) stage that has
    /// no other parent left to wait for. A *running* child can only be
    /// here because its attempts parked on a fetch failure against this
    /// stage's shuffle — whole again now, so they relaunch.
    pub(super) fn satisfy_children(&mut self, idx: usize) -> Result<(), JobError> {
        for child in self.stages[idx].children.clone() {
            match self.stages[child].state {
                StageState::Running => {
                    if let Some(shuffle_id) = self.stages[idx].shuffle_id {
                        self.flush_parked(child, shuffle_id)?;
                    }
                }
                _ => self.submit_if_ready(child)?,
            }
        }
        Ok(())
    }
}
