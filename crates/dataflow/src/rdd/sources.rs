//! Source RDDs: where lineage graphs begin.

use super::{Dependency, Rdd, RddBase, RddNode};
use crate::scheduler::TaskContext;
use crate::{Data, SpangleContext};
use std::sync::Arc;

/// A dataset created from a driver-local vector, split into equal slices.
pub struct ParallelizeRdd<T: Data> {
    base: RddBase,
    /// Pre-sliced partitions; shared, never mutated.
    partitions: Arc<Vec<Vec<T>>>,
}

impl<T: Data> ParallelizeRdd<T> {
    /// Slices `data` into `num_partitions` contiguous, near-equal pieces.
    pub fn create(ctx: &SpangleContext, data: Vec<T>, num_partitions: usize) -> Rdd<T> {
        assert!(num_partitions > 0, "need at least one partition");
        let n = data.len();
        let mut partitions = Vec::with_capacity(num_partitions);
        let mut iter = data.into_iter();
        for p in 0..num_partitions {
            // Contiguous slicing that distributes the remainder evenly.
            let start = p * n / num_partitions;
            let end = (p + 1) * n / num_partitions;
            partitions.push(iter.by_ref().take(end - start).collect());
        }
        Rdd::from_node(Arc::new(ParallelizeRdd {
            base: RddBase::new(ctx),
            partitions: Arc::new(partitions),
        }))
    }
}

impl<T: Data> RddNode<T> for ParallelizeRdd<T> {
    fn base(&self) -> &RddBase {
        &self.base
    }

    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    fn dependencies(&self) -> Vec<Dependency> {
        Vec::new()
    }

    fn compute_into(&self, split: usize, _tc: &TaskContext, sink: &mut dyn FnMut(T)) {
        self.partitions[split].iter().cloned().for_each(sink);
    }
}

/// A dataset whose partitions are generated on demand by a function —
/// the source used by data generators, so that large synthetic inputs are
/// produced *on the executors* instead of being shipped from the driver
/// (the trick Spangle's ingest pipeline relies on).
pub struct GeneratedRdd<T: Data> {
    base: RddBase,
    num_partitions: usize,
    generate: Arc<dyn Fn(usize) -> Vec<T> + Send + Sync>,
}

impl<T: Data> GeneratedRdd<T> {
    /// Creates a dataset whose partition `p` holds `generate(p)`.
    ///
    /// `generate` must be deterministic: it is the lineage used to
    /// recompute lost partitions.
    pub fn create(
        ctx: &SpangleContext,
        num_partitions: usize,
        generate: impl Fn(usize) -> Vec<T> + Send + Sync + 'static,
    ) -> Rdd<T> {
        assert!(num_partitions > 0, "need at least one partition");
        Rdd::from_node(Arc::new(GeneratedRdd {
            base: RddBase::new(ctx),
            num_partitions,
            generate: Arc::new(generate),
        }))
    }
}

impl<T: Data> RddNode<T> for GeneratedRdd<T> {
    fn base(&self) -> &RddBase {
        &self.base
    }

    fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    fn dependencies(&self) -> Vec<Dependency> {
        Vec::new()
    }

    fn compute_into(&self, split: usize, _tc: &TaskContext, sink: &mut dyn FnMut(T)) {
        (self.generate)(split).into_iter().for_each(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelize_preserves_order_and_cardinality() {
        let ctx = SpangleContext::new(2);
        let data: Vec<u64> = (0..103).collect();
        let rdd = ctx.parallelize(data.clone(), 7);
        assert_eq!(rdd.num_partitions(), 7);
        assert_eq!(rdd.collect().unwrap(), data);
    }

    #[test]
    fn parallelize_handles_fewer_elements_than_partitions() {
        let ctx = SpangleContext::new(2);
        let rdd = ctx.parallelize(vec![1u64, 2], 5);
        assert_eq!(rdd.num_partitions(), 5);
        assert_eq!(rdd.collect().unwrap(), vec![1, 2]);
        assert_eq!(rdd.count().unwrap(), 2);
    }

    #[test]
    fn generated_rdd_builds_partitions_on_demand() {
        let ctx = SpangleContext::new(3);
        let rdd = GeneratedRdd::create(&ctx, 4, |p| vec![p as u64; p + 1]);
        let collected = rdd.collect().unwrap();
        assert_eq!(collected, vec![0, 1, 1, 2, 2, 2, 3, 3, 3, 3]);
    }
}
