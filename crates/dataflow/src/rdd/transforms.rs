//! Narrow transformations: computed in the same stage as their parent.

use super::{Dependency, Rdd, RddBase, RddNode};
use crate::executor::{cancellation_point, CancelGauge};
use crate::partitioner::PartitionerSig;
use crate::plan::PlanNodeInfo;
use crate::scheduler::TaskContext;
use crate::Data;
use std::sync::Arc;

/// Marker shared by the one-parent streaming operators below: the planner
/// may fuse chains of them into one task without intermediate
/// materialisation.
const FUSABLE: PlanNodeInfo = PlanNodeInfo {
    fusable: true,
    elided_shuffles: 0,
    persisted: false,
};

/// Element-wise `map`.
pub struct MapRdd<T: Data, U: Data> {
    base: RddBase,
    parent: Rdd<T>,
    f: Arc<dyn Fn(T) -> U + Send + Sync>,
}

impl<T: Data, U: Data> MapRdd<T, U> {
    pub(crate) fn create(parent: Rdd<T>, f: impl Fn(T) -> U + Send + Sync + 'static) -> Rdd<U> {
        Rdd::from_node(Arc::new(MapRdd {
            base: RddBase::new(parent.context()),
            parent,
            f: Arc::new(f),
        }))
    }
}

impl<T: Data, U: Data> RddNode<U> for MapRdd<T, U> {
    fn base(&self) -> &RddBase {
        &self.base
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn dependencies(&self) -> Vec<Dependency> {
        vec![Dependency::Narrow(self.parent.lineage())]
    }
    fn compute_into(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut(U)) {
        let mut gauge = CancelGauge::new();
        self.parent.stream(split, tc, &mut |t| {
            gauge.tick();
            sink((self.f)(t));
        });
    }
    fn plan_info(&self) -> PlanNodeInfo {
        FUSABLE
    }
}

/// Element-wise `filter`. Keeps the parent's partitioning: dropping
/// elements never moves the survivors.
pub struct FilterRdd<T: Data> {
    base: RddBase,
    parent: Rdd<T>,
    pred: Arc<dyn Fn(&T) -> bool + Send + Sync>,
}

impl<T: Data> FilterRdd<T> {
    pub(crate) fn create(
        parent: Rdd<T>,
        pred: impl Fn(&T) -> bool + Send + Sync + 'static,
    ) -> Rdd<T> {
        Rdd::from_node(Arc::new(FilterRdd {
            base: RddBase::new(parent.context()),
            parent,
            pred: Arc::new(pred),
        }))
    }
}

impl<T: Data> RddNode<T> for FilterRdd<T> {
    fn base(&self) -> &RddBase {
        &self.base
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn dependencies(&self) -> Vec<Dependency> {
        vec![Dependency::Narrow(self.parent.lineage())]
    }
    fn compute_into(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut(T)) {
        let mut gauge = CancelGauge::new();
        self.parent.stream(split, tc, &mut |t| {
            gauge.tick();
            if (self.pred)(&t) {
                sink(t);
            }
        });
    }
    fn partitioner_sig(&self) -> Option<PartitionerSig> {
        // Filtering keys out of a keyed dataset cannot move keys between
        // partitions, so the parent's partitioning survives.
        self.parent.partitioner_sig()
    }
    fn plan_info(&self) -> PlanNodeInfo {
        FUSABLE
    }
}

/// One-to-many `flat_map`.
pub struct FlatMapRdd<T: Data, U: Data> {
    base: RddBase,
    parent: Rdd<T>,
    f: Arc<dyn Fn(T) -> Vec<U> + Send + Sync>,
}

impl<T: Data, U: Data> FlatMapRdd<T, U> {
    pub(crate) fn create(
        parent: Rdd<T>,
        f: impl Fn(T) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        Rdd::from_node(Arc::new(FlatMapRdd {
            base: RddBase::new(parent.context()),
            parent,
            f: Arc::new(f),
        }))
    }
}

impl<T: Data, U: Data> RddNode<U> for FlatMapRdd<T, U> {
    fn base(&self) -> &RddBase {
        &self.base
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn dependencies(&self) -> Vec<Dependency> {
        vec![Dependency::Narrow(self.parent.lineage())]
    }
    fn compute_into(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut(U)) {
        let mut gauge = CancelGauge::new();
        self.parent.stream(split, tc, &mut |t| {
            gauge.tick();
            for u in (self.f)(t) {
                sink(u);
            }
        });
    }
    fn plan_info(&self) -> PlanNodeInfo {
        FUSABLE
    }
}

/// Whole-partition transformation with the partition index.
pub struct MapPartitionsRdd<T: Data, U: Data> {
    base: RddBase,
    parent: Rdd<T>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(usize, &[T]) -> Vec<U> + Send + Sync>,
}

impl<T: Data, U: Data> MapPartitionsRdd<T, U> {
    pub(crate) fn create(
        parent: Rdd<T>,
        f: impl Fn(usize, &[T]) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        Rdd::from_node(Arc::new(MapPartitionsRdd {
            base: RddBase::new(parent.context()),
            parent,
            f: Arc::new(f),
        }))
    }
}

impl<T: Data, U: Data> RddNode<U> for MapPartitionsRdd<T, U> {
    fn base(&self) -> &RddBase {
        &self.base
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn dependencies(&self) -> Vec<Dependency> {
        vec![Dependency::Narrow(self.parent.lineage())]
    }
    fn compute_into(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut(U)) {
        // The operator's `&[T]` contract forces its *input* to
        // materialise, but the upstream chain still fuses to a single
        // buffer inside `parent.iterator`, and downstream operators
        // stream from this node's output.
        let data = self.parent.iterator(split, tc);
        cancellation_point();
        (self.f)(split, &data).into_iter().for_each(sink);
    }
    fn plan_info(&self) -> PlanNodeInfo {
        FUSABLE
    }
}

/// Concatenation of two datasets: child partitions `0..n` come from the
/// left parent, `n..n+m` from the right.
pub struct UnionRdd<T: Data> {
    base: RddBase,
    left: Rdd<T>,
    right: Rdd<T>,
}

impl<T: Data> UnionRdd<T> {
    pub(crate) fn create(left: Rdd<T>, right: Rdd<T>) -> Rdd<T> {
        Rdd::from_node(Arc::new(UnionRdd {
            base: RddBase::new(left.context()),
            left,
            right,
        }))
    }
}

impl<T: Data> RddNode<T> for UnionRdd<T> {
    fn base(&self) -> &RddBase {
        &self.base
    }
    fn num_partitions(&self) -> usize {
        self.left.num_partitions() + self.right.num_partitions()
    }
    fn dependencies(&self) -> Vec<Dependency> {
        vec![
            Dependency::Narrow(self.left.lineage()),
            Dependency::Narrow(self.right.lineage()),
        ]
    }
    fn compute_into(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut(T)) {
        let n = self.left.num_partitions();
        if split < n {
            self.left.stream(split, tc, sink);
        } else {
            self.right.stream(split - n, tc, sink);
        }
    }
    fn compute_arc(&self, split: usize, tc: &TaskContext) -> Arc<Vec<T>> {
        // Identity per partition: share the parent's block.
        let n = self.left.num_partitions();
        if split < n {
            self.left.iterator(split, tc)
        } else {
            self.right.iterator(split - n, tc)
        }
    }
}

/// Pairs equal-indexed partitions of two datasets — the narrow join that
/// the local-join optimisation (paper §VI-A) lowers matrix multiplication
/// to when both sides are co-partitioned.
pub struct ZipPartitionsRdd<T: Data, U: Data, O: Data> {
    base: RddBase,
    left: Rdd<T>,
    right: Rdd<U>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&[T], &[U]) -> Vec<O> + Send + Sync>,
}

impl<T: Data, U: Data, O: Data> ZipPartitionsRdd<T, U, O> {
    pub(crate) fn create(
        left: Rdd<T>,
        right: Rdd<U>,
        f: impl Fn(&[T], &[U]) -> Vec<O> + Send + Sync + 'static,
    ) -> Rdd<O> {
        assert_eq!(
            left.num_partitions(),
            right.num_partitions(),
            "zip_partitions requires equal partition counts"
        );
        Rdd::from_node(Arc::new(ZipPartitionsRdd {
            base: RddBase::new(left.context()),
            left,
            right,
            f: Arc::new(f),
        }))
    }
}

impl<T: Data, U: Data, O: Data> RddNode<O> for ZipPartitionsRdd<T, U, O> {
    fn base(&self) -> &RddBase {
        &self.base
    }
    fn num_partitions(&self) -> usize {
        self.left.num_partitions()
    }
    fn dependencies(&self) -> Vec<Dependency> {
        vec![
            Dependency::Narrow(self.left.lineage()),
            Dependency::Narrow(self.right.lineage()),
        ]
    }
    fn compute_into(&self, split: usize, tc: &TaskContext, sink: &mut dyn FnMut(O)) {
        let l = self.left.iterator(split, tc);
        let r = self.right.iterator(split, tc);
        cancellation_point();
        (self.f)(&l, &r).into_iter().for_each(sink);
    }
}

#[cfg(test)]
mod tests {
    use crate::SpangleContext;

    #[test]
    fn map_filter_flat_map_compose() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..20).collect(), 4);
        let out = rdd
            .map(|x| x * 2)
            .filter(|x| x % 3 == 0)
            .flat_map(|x| vec![x, x + 1])
            .collect()
            .unwrap();
        let expected: Vec<u64> = (0u64..20)
            .map(|x| x * 2)
            .filter(|x| x % 3 == 0)
            .flat_map(|x| vec![x, x + 1])
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn map_partitions_with_index_sees_every_partition_once() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize((0u64..12).collect(), 3);
        let out = rdd
            .map_partitions_with_index(|idx, data| vec![(idx, data.len())])
            .collect()
            .unwrap();
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4)]);
    }

    #[test]
    fn union_concatenates_in_partition_order() {
        let ctx = SpangleContext::new(2);
        let a = ctx.parallelize(vec![1u64, 2], 1);
        let b = ctx.parallelize(vec![3u64, 4], 2);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 3);
        assert_eq!(u.collect().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn zip_partitions_pairs_equal_indices() {
        let ctx = SpangleContext::new(2);
        let a = ctx.parallelize((0u64..8).collect(), 4);
        let b = ctx.parallelize((100u64..108).collect(), 4);
        let z = a.zip_partitions(&b, |l, r| {
            l.iter().zip(r.iter()).map(|(&x, &y)| x + y).collect()
        });
        assert_eq!(
            z.collect().unwrap(),
            (0u64..8).map(|i| i + 100 + i).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "equal partition counts")]
    fn zip_partitions_rejects_mismatched_counts() {
        let ctx = SpangleContext::new(1);
        let a = ctx.parallelize(vec![1u64], 1);
        let b = ctx.parallelize(vec![1u64], 2);
        let _ = a.zip_partitions(&b, |_, _| Vec::<u64>::new());
    }

    #[test]
    fn reduce_and_aggregate_actions() {
        let ctx = SpangleContext::new(3);
        let rdd = ctx.parallelize((1u64..=100).collect(), 7);
        assert_eq!(rdd.reduce(|a, b| a + b).unwrap(), Some(5050));
        let sum = rdd
            .aggregate(0u64, |acc, &x| acc + x, |a, b| a + b)
            .unwrap();
        assert_eq!(sum, 5050);
        let empty = ctx.parallelize(Vec::<u64>::new(), 2);
        assert_eq!(empty.reduce(|a, b| a + b).unwrap(), None);
    }

    #[test]
    fn key_by_builds_pairs() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize(vec![10u64, 21, 32], 2);
        let pairs = rdd.key_by(|x| x % 10).collect().unwrap();
        assert_eq!(pairs, vec![(0, 10), (1, 21), (2, 32)]);
    }
}
