//! Pair-RDD operations: shuffles, joins and co-grouping.
//!
//! These are the wide operations that cut the lineage graph into stages.
//! The one deliberate deviation from vanilla Spark is first-class support
//! for *co-partitioned narrow joins*: when both sides of a
//! [`PairRdd::cogroup`] already carry the target partitioner's signature,
//! the shuffle is elided and the join runs inside one stage — exactly the
//! "local join" Spangle's matrix multiplication relies on (paper §VI-A).

use super::{Dependency, LineageNode, PassThroughRdd, Rdd, RddBase, RddNode};
use crate::executor::{cancellation_point, CancelGauge};
use crate::memsize::MemSize;
use crate::partitioner::{HashPartitioner, Partitioner, PartitionerSig};
use crate::plan::PlanNodeInfo;
use crate::scheduler::TaskContext;
use crate::shuffle::BlockId;
use crate::{Data, Key};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Type-erased view of a shuffle dependency, used by the DAG scheduler to
/// build and run map stages without knowing key/value types.
pub trait ShuffleDepDyn: Send + Sync {
    /// Identity of the shuffle.
    fn shuffle_id(&self) -> usize;
    /// Number of map-side partitions.
    fn num_map_partitions(&self) -> usize;
    /// RDD id of the map-side parent (failure-injection site of the map
    /// tasks).
    fn parent_rdd_id(&self) -> usize;
    /// Type-erased lineage of the map-side parent.
    fn parent_lineage(&self) -> Arc<dyn LineageNode>;
    /// Runs one map task: computes parent partition `map_id`, routes its
    /// records into per-reduce buckets and writes them to the shuffle
    /// service.
    fn run_map_task(&self, map_id: usize, tc: &TaskContext);
}

/// A shuffle edge from a pair dataset to its re-partitioned child.
///
/// `route` encapsulates both the partitioner and the optional map-side
/// combine: given one partition's records it produces the per-reduce-bucket
/// outputs of type `(K, C)`.
pub struct ShuffleDependency<K: Key, V: Data, C: Data> {
    shuffle_id: usize,
    parent: Rdd<(K, V)>,
    num_reduce_partitions: usize,
    route: RouteFn<K, V, C>,
}

/// One map partition's records, delivered as a push stream: the route
/// calls the feed with a per-record sink. Records arrive by value straight
/// off the parent's (possibly fused) stream, so routing needs no input
/// buffer and no clone.
pub type RecordFeed<'a, K, V> = &'a mut dyn FnMut(&mut dyn FnMut((K, V)));

/// Map-side routing: one partition's record stream in, per-reduce-bucket
/// outputs out.
type RouteFn<K, V, C> =
    Arc<dyn for<'a> Fn(RecordFeed<'a, K, V>, usize) -> Vec<Vec<(K, C)>> + Send + Sync>;

impl<K: Key, V: Data> ShuffleDependency<K, V, V> {
    /// A plain shuffle: records are routed by `partitioner`, duplicates
    /// preserved, no combining.
    pub fn plain(parent: Rdd<(K, V)>, partitioner: Arc<dyn Partitioner<K>>) -> Arc<Self> {
        let shuffle_id = parent.context().new_shuffle_id();
        let num_reduce = partitioner.num_partitions();
        Arc::new(ShuffleDependency {
            shuffle_id,
            parent,
            num_reduce_partitions: num_reduce,
            route: Arc::new(move |feed: RecordFeed<K, V>, n| {
                let mut buckets: Vec<Vec<(K, V)>> = vec![Vec::new(); n];
                feed(&mut |(k, v)| {
                    buckets[partitioner.partition(&k)].push((k, v));
                });
                buckets
            }),
        })
    }
}

impl<K: Key, V: Data, C: Data> ShuffleDependency<K, V, C> {
    /// A combining shuffle: records are pre-aggregated per key on the map
    /// side (Spark's map-side combine), which is what keeps `reduce_by_key`
    /// network volume proportional to distinct keys rather than records.
    pub fn combining(
        parent: Rdd<(K, V)>,
        partitioner: Arc<dyn Partitioner<K>>,
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(C, V) -> C + Send + Sync + 'static,
    ) -> Arc<Self> {
        let shuffle_id = parent.context().new_shuffle_id();
        let num_reduce = partitioner.num_partitions();
        Arc::new(ShuffleDependency {
            shuffle_id,
            parent,
            num_reduce_partitions: num_reduce,
            route: Arc::new(move |feed: RecordFeed<K, V>, n| {
                let mut buckets: Vec<Combiners<K, C>> = vec![HashMap::new(); n];
                feed(&mut |(k, v)| {
                    let bucket = &mut buckets[partitioner.partition(&k)];
                    combine_owned(bucket, k, v, &create, &merge_value);
                });
                buckets.into_iter().map(drain_combiners).collect()
            }),
        })
    }

    fn context(&self) -> &crate::SpangleContext {
        self.parent.context()
    }

    /// The reduce side's read: visits this shuffle's block for reduce
    /// partition `split` from every map partition, in map order. Zero-copy
    /// — `fetch_block` hands back the map side's block by `Arc`, so
    /// visitors clone records one at a time (or keep the handle and clone
    /// none), never the whole vector.
    fn fetch_each(&self, split: usize, mut visit: impl FnMut(Arc<Vec<(K, C)>>)) {
        let ctx = self.context();
        for map_id in 0..self.parent.num_partitions() {
            cancellation_point();
            let id = BlockId {
                shuffle_id: self.shuffle_id,
                map_id,
                reduce_id: split,
            };
            visit(ctx.inner.shuffle.fetch_block::<(K, C)>(ctx, id));
        }
    }
}

impl<K: Key, V: Data, C: Data> ShuffleDepDyn for ShuffleDependency<K, V, C> {
    fn shuffle_id(&self) -> usize {
        self.shuffle_id
    }

    fn num_map_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn parent_rdd_id(&self) -> usize {
        self.parent.id()
    }

    fn parent_lineage(&self) -> Arc<dyn LineageNode> {
        self.parent.lineage()
    }

    fn run_map_task(&self, map_id: usize, tc: &TaskContext) {
        let ctx = self.context().clone();
        let mut gauge = CancelGauge::new();
        let mut feed = |sink: &mut dyn FnMut((K, V))| {
            self.parent.stream(map_id, tc, &mut |record| {
                gauge.tick();
                sink(record);
            })
        };
        let buckets = (self.route)(&mut feed, self.num_reduce_partitions);
        cancellation_point();
        // All buckets land in one atomic commit (first-write-wins), so a
        // late attempt of the same map task (see `commit_map_output`) can
        // never interleave its output with the winner's. An all-empty
        // commit still registers the map: the registry is how a
        // reduce-side fetch tells "empty bucket" from "output lost with
        // its executor".
        let deposits: Vec<_> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, bucket)| !bucket.is_empty())
            .map(|(reduce_id, bucket)| {
                let bytes = bucket.iter().map(MemSize::mem_size).sum();
                (reduce_id, bucket, bytes)
            })
            .collect();
        ctx.inner
            .shuffle
            .commit_map_output(&ctx, self.shuffle_id, map_id, deposits, tc.origin());
    }
}

impl<K: Key, V: Data, C: Data> Drop for ShuffleDependency<K, V, C> {
    fn drop(&mut self) {
        // Free the shuffle outputs when the last reader disappears so that
        // iterative jobs (20 PageRank rounds, hundreds of SGD steps) do not
        // accumulate dead blocks.
        self.context().inner.shuffle.remove_shuffle(self.shuffle_id);
    }
}

/// Per-key combiners under construction. A slot is `None` only while its
/// combiner is out being merged, so a record costs one hash: look the slot
/// up, take the combiner, put the merged one back.
type Combiners<K, C> = HashMap<K, Option<C>>;

/// Folds one owned record into `combiners`.
fn combine_owned<K: Key, V, C>(
    combiners: &mut Combiners<K, C>,
    k: K,
    v: V,
    create: impl Fn(V) -> C,
    merge_value: impl Fn(C, V) -> C,
) {
    match combiners.entry(k) {
        Entry::Occupied(mut slot) => {
            let c = slot.get_mut().take().expect("combiner slot left empty");
            *slot.get_mut() = Some(merge_value(c, v));
        }
        Entry::Vacant(slot) => {
            slot.insert(Some(create(v)));
        }
    }
}

fn drain_combiners<K: Key, C>(combiners: Combiners<K, C>) -> Vec<(K, C)> {
    combiners
        .into_iter()
        .map(|(k, c)| (k, c.expect("combiner slot left empty")))
        .collect()
}

/// Where a shuffled dataset's records come from: the shuffle service
/// (wide), or — when the planner proved the parent already follows the
/// target partitioner — straight from the co-partitioned parent partition
/// (the elided-shuffle rewrite: no shuffle id, no blocks, no map stage).
enum ShuffleInput<K: Key, V: Data, C: Data> {
    Wide(Arc<ShuffleDependency<K, V, C>>),
    Elided {
        parent: Rdd<(K, V)>,
        create: Arc<dyn Fn(V) -> C + Send + Sync>,
        merge_value: Arc<dyn Fn(C, V) -> C + Send + Sync>,
    },
}

/// Reduce side of a shuffle. With `merge` set, equal keys are merged
/// (reduce/combine semantics); without it all routed pairs are concatenated
/// (`partition_by` semantics). Element order within a partition is
/// unspecified when merging.
pub struct ShuffledRdd<K: Key, V: Data, C: Data> {
    base: RddBase,
    input: ShuffleInput<K, V, C>,
    merge: Option<Arc<dyn Fn(C, C) -> C + Send + Sync>>,
    sig: PartitionerSig,
}

impl<K: Key, V: Data, C: Data> ShuffledRdd<K, V, C> {
    pub(crate) fn create(
        dep: Arc<ShuffleDependency<K, V, C>>,
        sig: PartitionerSig,
        merge: Option<Arc<dyn Fn(C, C) -> C + Send + Sync>>,
    ) -> Rdd<(K, C)> {
        let base = RddBase::new(dep.parent.context());
        Rdd::from_node(Arc::new(ShuffledRdd {
            base,
            input: ShuffleInput::Wide(dep),
            merge,
            sig,
        }))
    }

    /// The narrow form of a combining shuffle whose parent is already
    /// partitioned by `sig`: every record of reduce partition `i` is
    /// already in parent partition `i`, so the per-key combine runs
    /// locally and nothing touches the shuffle service.
    pub(crate) fn create_elided(
        parent: Rdd<(K, V)>,
        sig: PartitionerSig,
        create: Arc<dyn Fn(V) -> C + Send + Sync>,
        merge_value: Arc<dyn Fn(C, V) -> C + Send + Sync>,
    ) -> Rdd<(K, C)> {
        debug_assert_eq!(parent.partitioner_sig(), Some(sig));
        let base = RddBase::new(parent.context());
        Rdd::from_node(Arc::new(ShuffledRdd {
            base,
            input: ShuffleInput::Elided {
                parent,
                create,
                merge_value,
            },
            merge: None,
            sig,
        }))
    }
}

impl<K: Key, V: Data, C: Data> RddNode<(K, C)> for ShuffledRdd<K, V, C> {
    fn base(&self) -> &RddBase {
        &self.base
    }

    fn num_partitions(&self) -> usize {
        self.sig.num_partitions
    }

    fn dependencies(&self) -> Vec<Dependency> {
        match &self.input {
            ShuffleInput::Wide(dep) => vec![Dependency::Shuffle(dep.clone())],
            ShuffleInput::Elided { parent, .. } => vec![Dependency::Narrow(parent.lineage())],
        }
    }

    fn partitioner_sig(&self) -> Option<PartitionerSig> {
        Some(self.sig)
    }

    fn plan_info(&self) -> PlanNodeInfo {
        PlanNodeInfo {
            fusable: false,
            elided_shuffles: match self.input {
                ShuffleInput::Wide(_) => 0,
                ShuffleInput::Elided { .. } => 1,
            },
            persisted: false,
        }
    }

    fn compute_into(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut((K, C))) {
        let mut merged: Combiners<K, C> = HashMap::new();
        match (&self.input, &self.merge) {
            (
                ShuffleInput::Elided {
                    parent,
                    create,
                    merge_value,
                },
                _,
            ) => {
                // Per-key combine over the already co-located partition —
                // the map-side and reduce-side combines of the wide path
                // collapse into one local pass.
                parent.stream(split, tc, &mut |(k, v)| {
                    combine_owned(&mut merged, k, v, &**create, &**merge_value);
                });
            }
            (ShuffleInput::Wide(dep), None) => {
                // The concatenating wide path streams each fetched block
                // straight into the sink — no per-partition output vector
                // at all when this node heads a fused chain.
                dep.fetch_each(split, |block| block.iter().cloned().for_each(&mut *sink));
                return;
            }
            (ShuffleInput::Wide(dep), Some(merge)) => {
                dep.fetch_each(split, |block| {
                    for (k, c) in block.iter() {
                        // The key is cloned for the first record of a key
                        // only; every later one is a lookup by reference.
                        match merged.get_mut(k) {
                            Some(slot) => {
                                let existing = slot.take().expect("combiner slot left empty");
                                *slot = Some(merge(existing, c.clone()));
                            }
                            None => {
                                merged.insert(k.clone(), Some(c.clone()));
                            }
                        }
                    }
                });
            }
        }
        drain_combiners(merged).into_iter().for_each(sink);
    }
}

/// A reduce partition as its reader meets it — one slice per map
/// partition, in map order — and the sink its output goes to.
type BucketsFn<K, V, U> = Arc<dyn Fn(&[&[(K, V)]], &mut dyn FnMut(U)) + Send + Sync>;

/// Reduce side of a plain shuffle that is *transformed where it lands*
/// instead of being concatenated first: the node behind
/// [`PairRdd::map_shuffled_partitions`]. It fetches through the same
/// [`ShuffleDependency::plain`] edge as `partition_by` — so lost map
/// output, first-write-wins commits and spilled blocks behave exactly as
/// they do there — but keeps the fetched blocks' handles and lends them
/// to the closure, so no record is cloned between the map side's commit
/// and the closure's own reads.
struct ShuffleReadRdd<K: Key, V: Data, U: Data> {
    base: RddBase,
    dep: Arc<ShuffleDependency<K, V, V>>,
    f: BucketsFn<K, V, U>,
}

impl<K: Key, V: Data, U: Data> RddNode<U> for ShuffleReadRdd<K, V, U> {
    fn base(&self) -> &RddBase {
        &self.base
    }

    fn num_partitions(&self) -> usize {
        self.dep.num_reduce_partitions
    }

    fn dependencies(&self) -> Vec<Dependency> {
        vec![Dependency::Shuffle(self.dep.clone())]
    }

    fn compute_into(&self, split: usize, _tc: &TaskContext, sink: &mut dyn FnMut(U)) {
        // Holds one reduce partition's blocks for the length of the call:
        // what a concatenating reader would have copied, not more.
        let mut blocks = Vec::with_capacity(self.dep.num_map_partitions());
        self.dep.fetch_each(split, |block| blocks.push(block));
        let buckets: Vec<&[(K, V)]> = blocks.iter().map(|block| block.as_slice()).collect();
        cancellation_point();
        (self.f)(&buckets, sink);
    }
}

/// One input of a co-group: either already co-partitioned (narrow, local)
/// or behind a shuffle.
enum CoSide<K: Key, V: Data> {
    Local(Rdd<(K, V)>),
    Shuffled(Arc<ShuffleDependency<K, V, V>>),
}

impl<K: Key, V: Data> CoSide<K, V> {
    /// Chooses this side's path: the narrow (local) rewrite fires when
    /// the side already carries the target partitioner's signature.
    fn prepare(rdd: &Rdd<(K, V)>, partitioner: &Arc<dyn Partitioner<K>>) -> Self {
        if rdd.partitioner_sig() == Some(partitioner.sig()) {
            CoSide::Local(rdd.clone())
        } else {
            CoSide::Shuffled(ShuffleDependency::plain(rdd.clone(), partitioner.clone()))
        }
    }

    fn dependency(&self) -> Dependency {
        match self {
            CoSide::Local(rdd) => Dependency::Narrow(rdd.lineage()),
            CoSide::Shuffled(dep) => Dependency::Shuffle(dep.clone()),
        }
    }

    fn gather_each(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut((K, V))) {
        match self {
            CoSide::Local(rdd) => rdd.stream(split, tc, sink),
            CoSide::Shuffled(dep) => {
                dep.fetch_each(split, |block| block.iter().cloned().for_each(&mut *sink))
            }
        }
    }
}

/// Co-grouping of two pair datasets on a shared partitioner. Each side
/// independently chooses the narrow (local) or shuffled path.
pub struct CoGroupedRdd<K: Key, V: Data, W: Data> {
    base: RddBase,
    left: CoSide<K, V>,
    right: CoSide<K, W>,
    sig: PartitionerSig,
}

/// Result shape of [`PairRdd::cogroup`]: per key, both sides' values.
pub type CoGrouped<K, V, W> = Rdd<(K, (Vec<V>, Vec<W>))>;

impl<K: Key, V: Data, W: Data> CoGroupedRdd<K, V, W> {
    pub(crate) fn create(
        left: &Rdd<(K, V)>,
        right: &Rdd<(K, W)>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> CoGrouped<K, V, W> {
        let base = RddBase::new(left.context());
        Rdd::from_node(Arc::new(CoGroupedRdd {
            base,
            left: CoSide::prepare(left, &partitioner),
            right: CoSide::prepare(right, &partitioner),
            sig: partitioner.sig(),
        }))
    }
}

impl<K: Key, V: Data, W: Data> RddNode<(K, (Vec<V>, Vec<W>))> for CoGroupedRdd<K, V, W> {
    fn base(&self) -> &RddBase {
        &self.base
    }

    fn num_partitions(&self) -> usize {
        self.sig.num_partitions
    }

    fn dependencies(&self) -> Vec<Dependency> {
        vec![self.left.dependency(), self.right.dependency()]
    }

    fn partitioner_sig(&self) -> Option<PartitionerSig> {
        Some(self.sig)
    }

    fn plan_info(&self) -> PlanNodeInfo {
        let local_sides = [
            matches!(self.left, CoSide::Local(_)),
            matches!(self.right, CoSide::Local(_)),
        ]
        .iter()
        .filter(|&&local| local)
        .count();
        PlanNodeInfo {
            fusable: false,
            elided_shuffles: local_sides,
            persisted: false,
        }
    }

    fn compute_into(
        &self,
        split: usize,
        tc: &TaskContext,
        sink: &mut dyn FnMut((K, (Vec<V>, Vec<W>))),
    ) {
        let mut groups: HashMap<K, (Vec<V>, Vec<W>)> = HashMap::new();
        self.left.gather_each(split, tc, &mut |(k, v)| {
            groups.entry(k).or_default().0.push(v);
        });
        self.right.gather_each(split, tc, &mut |(k, w)| {
            groups.entry(k).or_default().1.push(w);
        });
        groups.into_iter().for_each(sink);
    }
}

/// Key-value operations on `Rdd<(K, V)>`.
pub trait PairRdd<K: Key, V: Data> {
    /// Re-partitions by key, preserving duplicates.
    fn partition_by(&self, partitioner: Arc<dyn Partitioner<K>>) -> Rdd<(K, V)>;

    /// Re-partitions by key like [`PairRdd::partition_by`] and transforms
    /// each reduce partition where it lands, *by reference*: `f` receives
    /// the partition as the buckets the map side deposited for it — one
    /// slice per map partition, in map order, an empty slice where a map
    /// partition had nothing for it — and no record is cloned on the way.
    /// Where each key's records sit inside a bucket is the order the map
    /// partition emitted them in. `f` hands each output to the sink it is
    /// given as soon as it is built: a fold action over the result then
    /// holds one output at a time, not the partition's.
    ///
    /// This is the reduce for values that are large and only *read* to be
    /// combined (sorted runs summed into an accumulator): `reduce_by_key`
    /// would clone every fetched value to own it. Always a real shuffle,
    /// never elided — the closure's contract is the map partitions'
    /// buckets — and the output carries no partitioner signature, since
    /// `f` may emit anything; re-attach one with
    /// [`Rdd::assert_partitioned`] when `f` keeps the keys.
    fn map_shuffled_partitions<U: Data>(
        &self,
        partitioner: Arc<dyn Partitioner<K>>,
        f: impl Fn(&[&[(K, V)]], &mut dyn FnMut(U)) + Send + Sync + 'static,
    ) -> Rdd<U>;

    /// Merges all values of each key with `f`, combining map-side first.
    fn reduce_by_key(
        &self,
        partitioner: Arc<dyn Partitioner<K>>,
        f: impl Fn(V, V) -> V + Send + Sync + Clone + 'static,
    ) -> Rdd<(K, V)>;

    /// General combine: per-key accumulator of type `C`.
    fn combine_by_key<C: Data>(
        &self,
        partitioner: Arc<dyn Partitioner<K>>,
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(C, V) -> C + Send + Sync + 'static,
        merge_combiners: impl Fn(C, C) -> C + Send + Sync + 'static,
    ) -> Rdd<(K, C)>;

    /// Groups all values of each key.
    fn group_by_key(&self, partitioner: Arc<dyn Partitioner<K>>) -> Rdd<(K, Vec<V>)>;

    /// Groups both datasets' values per key. Sides already partitioned by
    /// an equal partitioner are read locally without a shuffle.
    fn cogroup<W: Data>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> CoGrouped<K, V, W>;

    /// Inner join: the cross product of both sides' values per key.
    fn join<W: Data>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<(K, (V, W))>;

    /// Transforms values, keeping keys and partitioning.
    fn map_values<U: Data>(&self, f: impl Fn(V) -> U + Send + Sync + 'static) -> Rdd<(K, U)>;

    /// Convenience `reduce_by_key` with a hash partitioner sized like the
    /// parent.
    fn reduce_by_key_hash(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + Clone + 'static,
    ) -> Rdd<(K, V)>;

    /// Collects into a `HashMap` (later duplicates of a key win).
    fn collect_as_map(&self) -> Result<HashMap<K, V>, crate::JobError>;
}

impl<K: Key, V: Data> PairRdd<K, V> for Rdd<(K, V)> {
    fn partition_by(&self, partitioner: Arc<dyn Partitioner<K>>) -> Rdd<(K, V)> {
        let sig = partitioner.sig();
        if self.partitioner_sig() == Some(sig) {
            // Already laid out exactly this way: the shuffle is elided to
            // a zero-copy pass-through (marked so the planner counts it).
            return PassThroughRdd::create(self.clone(), sig, 1);
        }
        let dep = ShuffleDependency::plain(self.clone(), partitioner);
        ShuffledRdd::create(dep, sig, None)
    }

    fn map_shuffled_partitions<U: Data>(
        &self,
        partitioner: Arc<dyn Partitioner<K>>,
        f: impl Fn(&[&[(K, V)]], &mut dyn FnMut(U)) + Send + Sync + 'static,
    ) -> Rdd<U> {
        Rdd::from_node(Arc::new(ShuffleReadRdd {
            base: RddBase::new(self.context()),
            dep: ShuffleDependency::plain(self.clone(), partitioner),
            f: Arc::new(f),
        }))
    }

    fn reduce_by_key(
        &self,
        partitioner: Arc<dyn Partitioner<K>>,
        f: impl Fn(V, V) -> V + Send + Sync + Clone + 'static,
    ) -> Rdd<(K, V)> {
        let merge = f.clone();
        self.combine_by_key(partitioner, |v| v, f, merge)
    }

    fn combine_by_key<C: Data>(
        &self,
        partitioner: Arc<dyn Partitioner<K>>,
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(C, V) -> C + Send + Sync + 'static,
        merge_combiners: impl Fn(C, C) -> C + Send + Sync + 'static,
    ) -> Rdd<(K, C)> {
        let sig = partitioner.sig();
        if self.partitioner_sig() == Some(sig) {
            // Every record of each target partition is already local:
            // rewrite the wide edge to a narrow per-partition combine.
            // `merge_combiners` is unreachable on this path — at most one
            // combiner per key ever exists.
            return ShuffledRdd::create_elided(
                self.clone(),
                sig,
                Arc::new(create),
                Arc::new(merge_value),
            );
        }
        let dep = ShuffleDependency::combining(self.clone(), partitioner, create, merge_value);
        ShuffledRdd::create(dep, sig, Some(Arc::new(merge_combiners)))
    }

    fn group_by_key(&self, partitioner: Arc<dyn Partitioner<K>>) -> Rdd<(K, Vec<V>)> {
        self.combine_by_key(
            partitioner,
            |v| vec![v],
            |mut c, v| {
                c.push(v);
                c
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        )
    }

    fn cogroup<W: Data>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> CoGrouped<K, V, W> {
        CoGroupedRdd::create(self, other, partitioner)
    }

    fn join<W: Data>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<(K, (V, W))> {
        self.cogroup(other, partitioner).flat_map(|(k, (vs, ws))| {
            let mut out = Vec::with_capacity(vs.len() * ws.len());
            for v in &vs {
                for w in &ws {
                    out.push((k.clone(), (v.clone(), w.clone())));
                }
            }
            out
        })
    }

    fn map_values<U: Data>(&self, f: impl Fn(V) -> U + Send + Sync + 'static) -> Rdd<(K, U)> {
        // map_values cannot move keys, so the partitioning survives: a
        // streaming map that moves each pair, re-tagged with the signature.
        let mapped = self.map(move |(k, v)| (k, f(v)));
        match self.partitioner_sig() {
            Some(sig) => PassThroughRdd::create(mapped, sig, 0),
            None => mapped,
        }
    }

    fn reduce_by_key_hash(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + Clone + 'static,
    ) -> Rdd<(K, V)> {
        let n = self.num_partitions();
        self.reduce_by_key(Arc::new(HashPartitioner::new(n)), f)
    }

    fn collect_as_map(&self) -> Result<HashMap<K, V>, crate::JobError> {
        Ok(self.collect()?.into_iter().collect())
    }
}
