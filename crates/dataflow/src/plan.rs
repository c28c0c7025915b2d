//! The plan layer between lineage and stage submission.
//!
//! The scheduler does not execute the lineage graph exactly as the user
//! wrote it. Two rewrites change the physical execution, always, with no
//! switch — Spark's pipelining of narrow dependencies and its use of a
//! known partitioner:
//!
//! 1. **Narrow-chain fusion** — chains of one-parent narrow operators
//!    (map/filter/flat_map/map_partitions) execute as one fused streaming
//!    task: elements flow through the composed operators without an
//!    intermediate `Arc<Vec<T>>` per lineage node. Persisted nodes are
//!    barriers (they must materialise into the block manager), and chains
//!    through a multi-consumer node are not *counted* as fused because the
//!    node's work is recomputed per consumer either way. The rewrite is
//!    purely physical: lineage, cache semantics, and recovery are
//!    untouched.
//! 2. **Shuffle elision** — a shuffle whose map-side parent already
//!    carries the target [`PartitionerSig`] is rewritten into a narrow
//!    pass-through at plan (node-lowering) time, at every shuffle site:
//!    `partition_by`, `reduce_by_key`, `group_by_key`, `combine_by_key`
//!    and `cogroup`. Elided nodes carry a marker ([`PlanNodeInfo`]) so
//!    the planner can attribute them to the stage that executes them.
//!
//! Every stage runs one executor task per partition.
//!
//! `analyze_stages` walks the type-erased [`LineageNode`] graph before
//! the scheduler submits anything and produces per-stage plan statistics
//! that a stage's first run counts as `stages_fused` and `shuffles_elided`
//! (DESIGN.md, "Counters and reports").

use crate::rdd::{Dependency, LineageNode};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

#[cfg(doc)]
use crate::partitioner::PartitionerSig;

/// Planner-visible attributes of one lineage node, reported through
/// [`LineageNode::plan_info`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanNodeInfo {
    /// A one-parent narrow operator that streams element-by-element from
    /// its parent under narrow-chain fusion.
    pub fusable: bool,
    /// Wide edges this node's construction rewrote into narrow
    /// pass-throughs because the parent already carried the target
    /// partitioner signature (0, 1, or — for a cogroup — up to 2).
    pub elided_shuffles: usize,
    /// Persist-marked: a fusion barrier, since the node's partitions must
    /// materialise into the block manager.
    pub persisted: bool,
}

/// Per-stage plan statistics produced by [`analyze_stages`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StagePlan {
    /// Narrow operator chains (length ≥ 2) collapsed into fused streaming
    /// execution within this stage's task bodies.
    pub(crate) fused_chains: usize,
    /// Shuffle edges rewritten to narrow pass-throughs that this stage
    /// executes locally.
    pub(crate) elided_shuffles: usize,
}

/// Walks the lineage graph once and attributes plan statistics to each
/// stage territory. `territories` holds one root per stage in stage order:
/// the map-side parent of each shuffle dependency, then the result RDD.
/// A node reachable from several territories is attributed to the first
/// (parents come before children, matching stage build order).
pub(crate) fn analyze_stages(territories: &[Arc<dyn LineageNode>]) -> Vec<StagePlan> {
    // Pass 1: full-graph walk (crossing shuffle edges) to count how many
    // edges consume each node. A node feeding two consumers is a fusion
    // barrier for accounting: its output is recomputed per consumer, so
    // nothing was collapsed.
    let mut consumers: HashMap<usize, usize> = HashMap::new();
    let mut info: HashMap<usize, PlanNodeInfo> = HashMap::new();
    let mut narrow_parents: HashMap<usize, Vec<usize>> = HashMap::new();
    {
        let mut seen: HashSet<usize> = HashSet::new();
        let mut stack: Vec<Arc<dyn LineageNode>> = territories.to_vec();
        while let Some(node) = stack.pop() {
            let id = node.rdd_id();
            if !seen.insert(id) {
                continue;
            }
            info.insert(id, node.plan_info());
            for dep in node.dependencies() {
                match dep {
                    Dependency::Narrow(parent) => {
                        *consumers.entry(parent.rdd_id()).or_default() += 1;
                        narrow_parents.entry(id).or_default().push(parent.rdd_id());
                        stack.push(parent);
                    }
                    Dependency::Shuffle(shuffle) => {
                        let parent = shuffle.parent_lineage();
                        *consumers.entry(parent.rdd_id()).or_default() += 1;
                        stack.push(parent);
                    }
                }
            }
        }
    }

    // Pass 2: claim each territory's narrow subgraph (stopping at shuffle
    // edges; shared nodes go to the first claimer) and count its fused
    // edges and elided shuffles. An edge child→parent is fused when both
    // ends are streaming operators, the parent is not persisted, and the
    // parent has exactly one consumer. A maximal run of fused edges is one
    // collapsed chain; in a run, exactly one child is not itself the
    // parent of another fused edge, so counting those tail children counts
    // the chains.
    let mut claimed: HashSet<usize> = HashSet::new();
    territories
        .iter()
        .map(|root| {
            let mut territory: Vec<usize> = Vec::new();
            let mut stack = vec![root.clone()];
            while let Some(node) = stack.pop() {
                let id = node.rdd_id();
                if !claimed.insert(id) {
                    continue;
                }
                territory.push(id);
                for dep in node.dependencies() {
                    if let Dependency::Narrow(parent) = dep {
                        stack.push(parent);
                    }
                }
            }

            let fused_edge = |child: usize, parent: usize| -> bool {
                info.get(&child).is_some_and(|i| i.fusable)
                    && info.get(&parent).is_some_and(|i| i.fusable && !i.persisted)
                    && consumers.get(&parent).copied().unwrap_or(0) == 1
            };
            let mut plan = StagePlan::default();
            let mut fused_parents: HashSet<usize> = HashSet::new();
            let mut fused_children: Vec<(usize, usize)> = Vec::new();
            for &id in &territory {
                plan.elided_shuffles += info.get(&id).map_or(0, |i| i.elided_shuffles);
                for &parent in narrow_parents.get(&id).map_or(&[][..], |v| &v[..]) {
                    if fused_edge(id, parent) {
                        fused_parents.insert(parent);
                        fused_children.push((id, parent));
                    }
                }
            }
            plan.fused_chains = fused_children
                .iter()
                .filter(|(child, _)| !fused_parents.contains(child))
                .count();
            plan
        })
        .collect()
}
