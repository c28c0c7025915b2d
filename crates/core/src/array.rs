//! ArrayRDD: the distributed chunked array (paper §III).
//!
//! An [`ArrayRdd`] is a pair RDD of `(ChunkId, Chunk)` records plus shared
//! [`ArrayMeta`]. Chunks are placed by hashing their IDs, and the ingest
//! path *generates each chunk on the partition it belongs to*, so the
//! dataset is born co-partitioned — later chunk-aligned joins are local.
//! Empty chunks are never materialised.
//!
//! That layout is kept in one place. Every operator that keeps chunk ids
//! where they are goes through `map_chunks`, which carries the input's
//! partitioner over; every chunk-aligned join goes through
//! `join_chunks`, which puts both sides on the hash layout (a
//! pass-through for a side already on it) and claims it for its result. A
//! chain of such operators over co-partitioned inputs never shuffles.

use crate::aggregate::Aggregator;
use crate::chunk::{Chunk, ChunkMode, ChunkPolicy};
use crate::element::Element;
use crate::meta::{ArrayMeta, ChunkId, Mapper};
use spangle_bitmask::Bitmask;
use spangle_dataflow::rdd::sources::GeneratedRdd;
use spangle_dataflow::{
    cancellation_point, Data, HashPartitioner, JobError, PairRdd, Partitioner, Rdd, SpangleContext,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A distributed multi-dimensional array: chunked, bitmasked, lazily
/// evaluated and fault tolerant.
pub struct ArrayRdd<E: Element> {
    ctx: SpangleContext,
    meta: Arc<ArrayMeta>,
    policy: ChunkPolicy,
    rdd: Rdd<(ChunkId, Chunk<E>)>,
}

impl<E: Element> Clone for ArrayRdd<E> {
    fn clone(&self) -> Self {
        ArrayRdd {
            ctx: self.ctx.clone(),
            meta: self.meta.clone(),
            policy: self.policy,
            rdd: self.rdd.clone(),
        }
    }
}

/// Builds [`ArrayRdd`]s from generator functions or cell lists.
pub struct ArrayBuilder<E: Element> {
    ctx: SpangleContext,
    meta: ArrayMeta,
    policy: ChunkPolicy,
    num_partitions: usize,
    #[allow(clippy::type_complexity)]
    ingest: Option<Arc<dyn Fn(&[usize]) -> Option<E> + Send + Sync>>,
}

impl<E: Element> ArrayBuilder<E> {
    /// Starts a builder for an array of geometry `meta` on `ctx`.
    pub fn new(ctx: &SpangleContext, meta: ArrayMeta) -> Self {
        ArrayBuilder {
            ctx: ctx.clone(),
            num_partitions: ctx.num_executors() * 2,
            meta,
            policy: ChunkPolicy::default(),
            ingest: None,
        }
    }

    /// Overrides the chunk-mode policy.
    pub fn policy(mut self, policy: ChunkPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the number of partitions (default: 2 × executors).
    pub fn num_partitions(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one partition");
        self.num_partitions = n;
        self
    }

    /// Sets the cell generator: `f(coords)` returns the value of a cell or
    /// `None` for null. Must be deterministic (it is the lineage).
    pub fn ingest(mut self, f: impl Fn(&[usize]) -> Option<E> + Send + Sync + 'static) -> Self {
        self.ingest = Some(Arc::new(f));
        self
    }

    /// Materialises the lineage head. Chunks are generated lazily, each on
    /// the partition its ChunkID hashes to.
    pub fn build(self) -> ArrayRdd<E> {
        let f = self
            .ingest
            .expect("ArrayBuilder::build called without an ingest function");
        let meta = Arc::new(self.meta);
        let mapper = meta.mapper();
        let policy = self.policy;
        let num_partitions = self.num_partitions;
        let sig = Partitioner::<u64>::sig(&HashPartitioner::new(num_partitions));
        let gen_meta = meta.clone();
        let rdd = GeneratedRdd::create(&self.ctx, num_partitions, move |p| {
            let partitioner = HashPartitioner::new(num_partitions);
            let mapper = gen_meta.mapper();
            let mut out = Vec::new();
            for chunk_id in 0..mapper.num_chunks() as u64 {
                if partitioner.partition(&chunk_id) != p {
                    continue;
                }
                cancellation_point();
                let volume = mapper.chunk_volume(chunk_id);
                let origin = mapper.chunk_origin(chunk_id);
                let extent = mapper.chunk_extent(chunk_id);
                let mut coords = vec![0usize; origin.len()];
                let mut payload = vec![E::default(); volume];
                let mut mask = Bitmask::zeros(volume);
                for (local, slot) in payload.iter_mut().enumerate() {
                    crate::meta::Mapper::unravel(&origin, &extent, local, &mut coords);
                    if let Some(v) = f(&coords) {
                        *slot = v;
                        mask.set(local, true);
                    }
                }
                if let Some(chunk) = Chunk::build(payload, mask, &policy) {
                    out.push((chunk_id, chunk));
                }
            }
            out
        })
        .assert_partitioned(sig);
        let _ = mapper;
        ArrayRdd {
            ctx: self.ctx,
            meta,
            policy,
            rdd,
        }
    }
}

impl<E: Element> ArrayRdd<E> {
    /// Wraps an existing chunk RDD. `rdd` must only contain non-empty
    /// chunks whose IDs and volumes agree with `meta`.
    pub fn from_parts(
        ctx: &SpangleContext,
        meta: Arc<ArrayMeta>,
        policy: ChunkPolicy,
        rdd: Rdd<(ChunkId, Chunk<E>)>,
    ) -> Self {
        ArrayRdd {
            ctx: ctx.clone(),
            meta,
            policy,
            rdd,
        }
    }

    /// Ingests a driver-local cell list through the full distributed
    /// pipeline of §III: key every cell by its ChunkID (Algorithm 1),
    /// shuffle-group per chunk, then assemble payload and bitmask.
    pub fn from_cells(
        ctx: &SpangleContext,
        meta: ArrayMeta,
        policy: ChunkPolicy,
        cells: Vec<(Vec<usize>, E)>,
        num_partitions: usize,
    ) -> Self {
        let meta = Arc::new(meta);
        let mapper = meta.mapper();
        let keyed = ctx
            .parallelize(cells, num_partitions)
            .map(move |(coords, v)| {
                let chunk_id = mapper.chunk_id_of(&coords);
                let local = mapper.local_index_of(&coords);
                (chunk_id, (local, v))
            });
        let partitioner: Arc<HashPartitioner> = Arc::new(HashPartitioner::new(num_partitions));
        let grouped = keyed.group_by_key(partitioner);
        let build_meta = meta.clone();
        let rdd = grouped.map_partitions(move |records| {
            let mapper = build_meta.mapper();
            records
                .iter()
                .filter_map(|(chunk_id, cells)| {
                    let volume = mapper.chunk_volume(*chunk_id);
                    Chunk::from_cells(volume, cells.iter().copied(), &policy)
                        .map(|c| (*chunk_id, c))
                })
                .collect()
        });
        // group_by_key partitioned by hash(chunk_id); the per-partition map
        // keeps keys in place.
        let sig = Partitioner::<u64>::sig(&HashPartitioner::new(num_partitions));
        let rdd = rdd.assert_partitioned(sig);
        ArrayRdd {
            ctx: ctx.clone(),
            meta,
            policy,
            rdd,
        }
    }

    /// Array geometry.
    pub fn meta(&self) -> &ArrayMeta {
        &self.meta
    }

    /// Shared geometry handle.
    pub fn meta_arc(&self) -> Arc<ArrayMeta> {
        self.meta.clone()
    }

    /// The chunk-mode policy used by derived arrays.
    pub fn policy(&self) -> ChunkPolicy {
        self.policy
    }

    /// The underlying chunk RDD.
    pub fn rdd(&self) -> &Rdd<(ChunkId, Chunk<E>)> {
        &self.rdd
    }

    /// The cluster handle.
    pub fn context(&self) -> &SpangleContext {
        &self.ctx
    }

    /// Marks the chunk RDD for caching.
    pub fn persist(&self) -> &Self {
        self.rdd.persist();
        self
    }

    /// Number of materialised (non-empty) chunks.
    pub fn num_chunks(&self) -> Result<usize, JobError> {
        self.rdd.count()
    }

    /// Number of valid cells across all chunks.
    pub fn count_valid(&self) -> Result<usize, JobError> {
        self.rdd
            .aggregate(0usize, |acc, (_, c)| acc + c.valid_count(), |a, b| a + b)
    }

    /// Deep in-memory size of all chunks, in bytes (Fig. 9a's metric).
    pub fn mem_bytes(&self) -> Result<usize, JobError> {
        self.rdd
            .aggregate(0usize, |acc, (_, c)| acc + c.mem_bytes(), |a, b| a + b)
    }

    /// Histogram of chunk modes.
    pub fn mode_counts(&self) -> Result<HashMap<&'static str, usize>, JobError> {
        let counts = self.rdd.run_partitions(|_, chunks| {
            let mut m = [0usize; 3];
            for (_, c) in chunks {
                match c.mode() {
                    ChunkMode::Dense => m[0] += 1,
                    ChunkMode::Sparse => m[1] += 1,
                    ChunkMode::SuperSparse => m[2] += 1,
                }
            }
            m
        })?;
        let mut out = HashMap::new();
        for m in counts {
            *out.entry("dense").or_insert(0) += m[0];
            *out.entry("sparse").or_insert(0) += m[1];
            *out.entry("super-sparse").or_insert(0) += m[2];
        }
        Ok(out)
    }

    /// Point query: the value at `coords`, or `None` when null.
    pub fn get(&self, coords: &[usize]) -> Result<Option<E>, JobError> {
        let mapper = self.meta.mapper();
        let target = mapper.chunk_id_of(coords);
        let local = mapper.local_index_of(coords);
        let hits = self
            .rdd
            .filter(move |(id, _)| *id == target)
            .map(move |(_, c)| c.get(local))
            .collect()?;
        Ok(hits.into_iter().flatten().next())
    }

    /// Subarray (§V-A1): keeps the cells inside the box `[lo, hi)`.
    /// Chunks fully outside the range are pruned by ID before any mask
    /// work; intersecting chunks get a virtual range mask ANDed in.
    pub fn subarray(&self, lo: &[usize], hi: &[usize]) -> ArrayRdd<E> {
        assert_eq!(lo.len(), self.meta.rank(), "range rank mismatch");
        assert_eq!(hi.len(), self.meta.rank(), "range rank mismatch");
        let mapper = self.meta.mapper();
        let selected: std::collections::HashSet<ChunkId> =
            mapper.chunks_in_range(lo, hi).into_iter().collect();
        let lo = lo.to_vec();
        let hi = hi.to_vec();
        let policy = self.policy;
        let meta = self.meta.clone();
        let rdd = map_chunks(&self.rdd, move |id, chunk| {
            if !selected.contains(&id) {
                return None;
            }
            let mapper = meta.mapper();
            // Interior chunks survive unchanged; only boundary chunks
            // pay for the virtual-mask AND.
            if mapper.chunk_within_range(id, &lo, &hi) {
                return Some(chunk);
            }
            chunk.restrict(&range_mask(&mapper, id, chunk.volume(), &lo, &hi), &policy)
        });
        ArrayRdd::from_parts(&self.ctx, self.meta.clone(), self.policy, rdd)
    }

    /// Filter (§V-A2): keeps cells whose value satisfies `pred`; all other
    /// cells become null. Chunks left without valid cells disappear.
    pub fn filter(&self, pred: impl Fn(E) -> bool + Send + Sync + 'static) -> ArrayRdd<E> {
        let policy = self.policy;
        let rdd = map_chunks(&self.rdd, move |_, chunk| chunk.filter(&pred, &policy));
        ArrayRdd::from_parts(&self.ctx, self.meta.clone(), self.policy, rdd)
    }

    /// Element-wise value transformation (nulls stay null).
    pub fn map_values<F: Element>(
        &self,
        f: impl Fn(E) -> F + Send + Sync + 'static,
    ) -> ArrayRdd<F> {
        let rdd = map_chunks(&self.rdd, move |_, chunk| Some(chunk.map_values(&f)));
        ArrayRdd::from_parts(&self.ctx, self.meta.clone(), self.policy, rdd)
    }

    /// Cell-wise combination of two arrays over the same geometry: `f`
    /// receives both sides' values (or `None`) and decides the output.
    /// `and`-joins pass `|a, b| a.zip(b).map(..)`, `or`-joins keep either.
    /// Runs locally when both sides are co-partitioned.
    pub fn zip_with<F: Element, O: Element>(
        &self,
        other: &ArrayRdd<F>,
        f: impl Fn(Option<E>, Option<F>) -> Option<O> + Send + Sync + 'static,
    ) -> ArrayRdd<O> {
        assert_eq!(
            *self.meta, *other.meta,
            "zip_with requires identical array geometry"
        );
        let policy = self.policy;
        let rdd = join_chunks(&self.rdd, &other.rdd, move |_, left, right| {
            let volume = left
                .map(Chunk::volume)
                .or_else(|| right.map(Chunk::volume))?;
            let mut lvals: Vec<Option<E>> = vec![None; volume];
            if let Some(c) = left {
                for (i, v) in c.iter_valid() {
                    lvals[i] = Some(v);
                }
            }
            let mut cells = Vec::new();
            let mut rvals: Vec<Option<F>> = vec![None; volume];
            if let Some(c) = right {
                for (i, v) in c.iter_valid() {
                    rvals[i] = Some(v);
                }
            }
            for i in 0..volume {
                if let Some(o) = f(lvals[i], rvals[i]) {
                    cells.push((i, o));
                }
            }
            Chunk::from_cells(volume, cells, &policy)
        });
        ArrayRdd::from_parts(&self.ctx, self.meta.clone(), self.policy, rdd)
    }

    /// Re-encodes every chunk under `policy` (e.g. dense ⇄ sparse).
    pub fn reencode(&self, policy: ChunkPolicy) -> ArrayRdd<E> {
        let rdd = map_chunks(&self.rdd, move |_, chunk| chunk.reencode(&policy));
        ArrayRdd::from_parts(&self.ctx, self.meta.clone(), policy, rdd)
    }

    /// Aggregates every valid cell with `agg` (§V-B). Returns `None` for
    /// an array with no valid cells.
    pub fn aggregate<A: Aggregator<E>>(&self, agg: A) -> Option<A::Output> {
        let agg = Arc::new(agg);
        let task_agg = agg.clone();
        let merged = self
            .rdd
            .aggregate(
                agg.initialize(),
                move |mut state, (_, chunk)| {
                    chunk.for_each_valid(|_, v| task_agg.accumulate(&mut state, v));
                    state
                },
                |a, b| agg.merge(a, b),
            )
            .expect("aggregate job failed");
        agg.evaluate(merged)
    }

    /// Grouped aggregation: groups valid cells by `key(coords)` and
    /// aggregates each group with `agg`, reducing group states through a
    /// shuffle (this is how Q5's spatial density query runs).
    ///
    /// A task decodes a cell's coordinates once per dim-0 line that holds
    /// a valid cell and steps `coords[0]` along the line, and keeps its
    /// group table under an Fx-style hasher; the shuffle that reduces the
    /// tables partitions as every other one does.
    pub fn aggregate_by<K, A>(
        &self,
        key: impl Fn(&[usize]) -> K + Send + Sync + 'static,
        agg: A,
    ) -> Result<Vec<(K, A::Output)>, JobError>
    where
        K: spangle_dataflow::Key,
        A: Aggregator<E>,
    {
        let agg = Arc::new(agg);
        let meta = self.meta.clone();
        let map_agg = agg.clone();
        let states = self.rdd.map_partitions(move |chunks| {
            let mapper = meta.mapper();
            let mut groups: HashMap<K, A::State, FxBuildHasher> = HashMap::default();
            let mut coords = vec![0usize; meta.rank()];
            for (id, chunk) in chunks {
                let origin = mapper.chunk_origin(*id);
                let extent = mapper.chunk_extent(*id);
                // Offsets `line_start..line_end` form the dim-0 line
                // `coords[1..]` names; offsets only ascend.
                let (mut line_start, mut line_end) = (0, 0);
                chunk.for_each_valid(|local, v| {
                    if local >= line_end {
                        Mapper::unravel(&origin, &extent, local, &mut coords);
                        line_start = local - (coords[0] - origin[0]);
                        line_end = line_start + extent[0];
                    } else {
                        coords[0] = origin[0] + (local - line_start);
                    }
                    let state = groups
                        .entry(key(&coords))
                        .or_insert_with(|| map_agg.initialize());
                    map_agg.accumulate(state, v);
                });
            }
            groups.into_iter().collect()
        });
        let merge_agg = agg.clone();
        let n = self.rdd.num_partitions();
        let reduced = states.reduce_by_key(Arc::new(HashPartitioner::new(n)), move |a, b| {
            merge_agg.merge(a, b)
        });
        let collected = reduced.collect()?;
        Ok(collected
            .into_iter()
            .filter_map(|(k, s)| agg.evaluate(s).map(|o| (k, o)))
            .collect())
    }

    /// The named-axis form of the Aggregator (§V-B): collapses the named
    /// dimensions and aggregates per group of the *remaining* dimensions
    /// — "while aggregating an array, Spangle generates the new schema
    /// determined by the given conditions". Returns `(remaining coords,
    /// output)` pairs; aggregating over every dimension yields one group
    /// keyed by the empty coordinate vector.
    ///
    /// Requires the metadata to carry dimension names
    /// ([`ArrayMeta::with_dim_names`]).
    #[allow(clippy::type_complexity)]
    pub fn aggregate_over<A>(
        &self,
        collapse: &[&str],
        agg: A,
    ) -> Result<Vec<(Vec<u64>, A::Output)>, JobError>
    where
        A: Aggregator<E>,
    {
        let collapsed: Vec<usize> = collapse.iter().map(|n| self.meta.dim_index(n)).collect();
        let keep: Vec<usize> = (0..self.meta.rank())
            .filter(|d| !collapsed.contains(d))
            .collect();
        self.aggregate_by(
            move |coords| keep.iter().map(|&d| coords[d] as u64).collect::<Vec<u64>>(),
            agg,
        )
    }

    /// Gathers every valid cell as `(coords, value)` on the driver — a
    /// testing/debug action, not part of the paper's API.
    pub fn collect_cells(&self) -> Result<Vec<(Vec<usize>, E)>, JobError> {
        let meta = self.meta.clone();
        let mut cells: Vec<(Vec<usize>, E)> = self
            .rdd
            .flat_map(move |(id, chunk)| {
                let mapper = meta.mapper();
                chunk
                    .iter_valid()
                    .map(|(local, v)| (mapper.global_coords_of(id, local), v))
                    .collect()
            })
            .collect()?;
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(cells)
    }

    /// Materialises the full logical array on the driver, indexed by the
    /// mapper's global linear order. A testing/debug action.
    pub fn to_dense(&self) -> Result<Vec<Option<E>>, JobError> {
        let mapper = self.meta.mapper();
        let mut out = vec![None; self.meta.volume()];
        for (coords, v) in self.collect_cells()? {
            out[mapper.global_linear_index(&coords)] = Some(v);
        }
        Ok(out)
    }
}

/// The chunk-wise map every layout-keeping operator goes through: `f`
/// turns each chunk into its replacement under the same id, or drops it.
/// Ids never move, so the result keeps the input's partitioner.
pub(crate) fn map_chunks<V: Data, W: Data>(
    rdd: &Rdd<(ChunkId, V)>,
    f: impl Fn(ChunkId, V) -> Option<W> + Send + Sync + 'static,
) -> Rdd<(ChunkId, W)> {
    let mapped = rdd.flat_map(move |(id, v)| f(id, v).map(|w| (id, w)).into_iter().collect());
    match rdd.partitioner_sig() {
        Some(sig) => mapped.assert_partitioned(sig),
        None => mapped,
    }
}

/// The chunk-aligned join every two-input operator goes through. Both
/// sides are put on `HashPartitioner(left.num_partitions())` — a
/// pass-through for a side already on it, a shuffle otherwise — and each
/// partition pair is read by reference: `f` runs once per chunk id present
/// on either side, ids ascending, with that id's chunk from each side (at
/// most one per side). The result claims the hash layout, so joining it
/// again is local.
pub(crate) fn join_chunks<A: Data, B: Data, C: Data>(
    left: &Rdd<(ChunkId, A)>,
    right: &Rdd<(ChunkId, B)>,
    f: impl Fn(ChunkId, Option<&A>, Option<&B>) -> Option<C> + Send + Sync + 'static,
) -> Rdd<(ChunkId, C)> {
    let partitioner = Arc::new(HashPartitioner::new(left.num_partitions()));
    let sig = Partitioner::<u64>::sig(&*partitioner);
    let left = left.partition_by(partitioner.clone());
    let right = right.partition_by(partitioner);
    left.zip_partitions(&right, move |ls, rs| {
        let mut ls: Vec<_> = ls.iter().collect();
        let mut rs: Vec<_> = rs.iter().collect();
        ls.sort_unstable_by_key(|(id, _)| *id);
        rs.sort_unstable_by_key(|(id, _)| *id);
        let (mut ls, mut rs) = (ls.into_iter().peekable(), rs.into_iter().peekable());
        let mut out = Vec::new();
        loop {
            let id = match (ls.peek(), rs.peek()) {
                (Some(l), Some(r)) => l.0.min(r.0),
                (Some(l), None) => l.0,
                (None, Some(r)) => r.0,
                (None, None) => return out,
            };
            let l = ls.next_if(|(lid, _)| *lid == id).map(|(_, a)| a);
            let r = rs.next_if(|(rid, _)| *rid == id).map(|(_, b)| b);
            out.extend(f(id, l, r).map(|c| (id, c)));
        }
    })
    .assert_partitioned(sig)
}

/// Builds the "virtual bitmask" of Subarray: bits set for the cells of
/// chunk `chunk_id` falling inside `[lo, hi)`. Painted as contiguous
/// dim-0 runs over the chunk∩range intersection box, so cost scales with
/// the intersection, not the chunk volume.
pub(crate) fn range_mask(
    mapper: &Mapper,
    chunk_id: ChunkId,
    volume: usize,
    lo: &[usize],
    hi: &[usize],
) -> Bitmask {
    let origin = mapper.chunk_origin(chunk_id);
    let extent = mapper.chunk_extent(chunk_id);
    let mut mask = Bitmask::zeros(volume);
    // Intersection box in chunk-local coordinates.
    let loc_lo: Vec<usize> = origin
        .iter()
        .zip(lo)
        .map(|(&o, &l)| l.saturating_sub(o))
        .collect();
    let loc_hi: Vec<usize> = origin
        .iter()
        .zip(extent.iter().zip(hi))
        .map(|(&o, (&e, &h))| h.saturating_sub(o).min(e))
        .collect();
    if loc_lo.iter().zip(&loc_hi).any(|(l, h)| l >= h) {
        return mask;
    }
    // Odometer over dims 1.. ; dim 0 is a contiguous run per line.
    let rank = extent.len();
    let mut strides = vec![1usize; rank];
    for i in 1..rank {
        strides[i] = strides[i - 1] * extent[i - 1];
    }
    let run_len = loc_hi[0] - loc_lo[0];
    let mut cursor = loc_lo.clone();
    loop {
        let base: usize = cursor.iter().zip(&strides).map(|(&c, &s)| c * s).sum();
        mask.set_range(base, base + run_len);
        // Increment dims 1..rank.
        let mut d = 1;
        loop {
            if d == rank {
                return mask;
            }
            cursor[d] += 1;
            if cursor[d] < loc_hi[d] {
                break;
            }
            cursor[d] = loc_lo[d];
            d += 1;
        }
    }
}

/// An Fx-style multiply-rotate hasher for task-local tables whose keys
/// come from the program, not from outside: far cheaper per key than
/// SipHash and with no flooding resistance. Partitioners and the shuffle
/// keep `RandomState`, so no record moves because of it.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

/// [`FxHasher`] for `HashMap::default()`.
pub(crate) type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's high bits are its well-mixed ones, but hashbrown picks
    /// a bucket by the low bits: rotate the high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::builtin::{Avg, Count, Max, Sum};

    fn ctx() -> SpangleContext {
        SpangleContext::new(4)
    }

    /// 60x40 array chunked 16x16; value x*100+y on even x, null on odd x.
    fn sample_array(ctx: &SpangleContext) -> ArrayRdd<f64> {
        ArrayBuilder::new(ctx, ArrayMeta::new(vec![60, 40], vec![16, 16]))
            .ingest(|c| c[0].is_multiple_of(2).then(|| (c[0] * 100 + c[1]) as f64))
            .build()
    }

    #[test]
    fn ingest_materialises_only_valid_cells() {
        let ctx = ctx();
        let arr = sample_array(&ctx);
        assert_eq!(arr.count_valid().unwrap(), 30 * 40);
        // 60/16 -> 4 grid cols, 40/16 -> 3 grid rows: 12 chunks, all with
        // at least one even-x column.
        assert_eq!(arr.num_chunks().unwrap(), 12);
    }

    #[test]
    fn ingest_drops_empty_chunks() {
        let ctx = ctx();
        let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![64, 64], vec![16, 16]))
            .ingest(|c| (c[0] < 16).then_some(1.0f64))
            .build();
        // Only the 4 chunks of the first grid column are non-empty.
        assert_eq!(arr.num_chunks().unwrap(), 4);
        assert_eq!(arr.count_valid().unwrap(), 16 * 64);
    }

    /// Bugfix regression: the generator stamped no progress, so a partition
    /// whose ingest was merely slow looked wedged to the no-progress
    /// watchdog (and could not be cancelled until it returned).
    #[test]
    fn slow_ingest_over_many_chunks_trips_no_watchdog() {
        use std::time::Duration;
        let ctx = SpangleContext::builder()
            .executors(2)
            .watchdog_interval(Duration::from_millis(200))
            .build();
        let before = ctx.metrics_snapshot();
        // 320 one-row chunks over two partitions, 5 ms of modelled ingest
        // cost per chunk: each generator lives ≈ 0.8 s — four watchdog
        // intervals — while reaching a chunk boundary every 5 ms.
        let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![320, 2], vec![1, 2]))
            .num_partitions(2)
            .ingest(|c| {
                if c[1] == 0 {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Some(1.0f64)
            })
            .build();
        assert_eq!(arr.count_valid().unwrap(), 640);
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.watchdog_trips, 0, "a clean run tripped: {delta:?}");
        assert_eq!(delta.tasks_speculated, 0);
    }

    #[test]
    fn point_queries_hit_values_and_nulls() {
        let ctx = ctx();
        let arr = sample_array(&ctx);
        assert_eq!(arr.get(&[2, 3]).unwrap(), Some(203.0));
        assert_eq!(arr.get(&[3, 3]).unwrap(), None);
        assert_eq!(arr.get(&[58, 39]).unwrap(), Some(5839.0));
    }

    #[test]
    fn subarray_keeps_exactly_the_box() {
        let ctx = ctx();
        let arr = sample_array(&ctx);
        let sub = arr.subarray(&[10, 5], &[20, 15]);
        // x in 10..20 even -> 5 values of x, y in 5..15 -> 10 values.
        assert_eq!(sub.count_valid().unwrap(), 5 * 10);
        assert_eq!(sub.get(&[10, 5]).unwrap(), Some(1005.0));
        assert_eq!(sub.get(&[9, 5]).unwrap(), None);
        assert_eq!(sub.get(&[10, 15]).unwrap(), None);
    }

    #[test]
    fn subarray_prunes_chunks_by_id() {
        let ctx = ctx();
        let arr = sample_array(&ctx);
        let sub = arr.subarray(&[0, 0], &[16, 16]);
        assert_eq!(sub.num_chunks().unwrap(), 1);
    }

    #[test]
    fn filter_invalidates_non_matching_cells() {
        let ctx = ctx();
        let arr = sample_array(&ctx);
        let f = arr.filter(|v| v >= 3000.0);
        // x in {30..58 even} -> 15 x-values, all 40 y.
        assert_eq!(f.count_valid().unwrap(), 15 * 40);
        assert_eq!(f.get(&[28, 0]).unwrap(), None);
        assert_eq!(f.get(&[30, 0]).unwrap(), Some(3000.0));
    }

    #[test]
    fn map_values_is_cellwise() {
        let ctx = ctx();
        let arr = sample_array(&ctx);
        let doubled = arr.map_values(|v| v * 2.0);
        assert_eq!(doubled.get(&[2, 3]).unwrap(), Some(406.0));
        assert_eq!(doubled.count_valid().unwrap(), arr.count_valid().unwrap());
    }

    #[test]
    fn aggregates_cover_all_valid_cells() {
        let ctx = ctx();
        let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![10, 10], vec![4, 4]))
            .ingest(|c| (c[0] >= 5).then(|| (c[0] * 10 + c[1]) as f64))
            .build();
        let expected: Vec<f64> = (5..10)
            .flat_map(|x| (0..10).map(move |y| (x * 10 + y) as f64))
            .collect();
        let sum: f64 = expected.iter().sum();
        assert_eq!(arr.aggregate(Sum), Some(sum));
        assert_eq!(arr.aggregate(Count), Some(50));
        assert_eq!(arr.aggregate(Max), Some(99.0));
        let avg = arr.aggregate(Avg).unwrap();
        assert!((avg - sum / 50.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_by_groups_spatially() {
        let ctx = ctx();
        // 8x8 array, all valid, value 1; group into 4x4 quadrants.
        let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![8, 8], vec![4, 4]))
            .ingest(|_| Some(1.0f64))
            .build();
        let mut groups = arr
            .aggregate_by(|c| ((c[0] / 4) as u64, (c[1] / 4) as u64), Count)
            .unwrap();
        groups.sort();
        assert_eq!(
            groups,
            vec![((0, 0), 16), ((0, 1), 16), ((1, 0), 16), ((1, 1), 16)]
        );
    }

    /// `aggregate_by` equals a driver-side fold of `collect_cells` into a
    /// `BTreeMap`: ranks 1–3, clipped boundary chunks, keys finer and
    /// coarser than a dim-0 line, every chunk mode, several partitions.
    #[test]
    fn aggregate_by_equals_a_fold_of_collected_cells() {
        use std::collections::BTreeMap;
        let ctx = SpangleContext::new(2);
        spangle_testkit::run_cases(0xA66B, 40, |rng| {
            let rank = rng.usize_in(1..4);
            let max_dim = [0, 300, 45, 16][rank];
            let dims: Vec<usize> = (0..rank).map(|_| rng.usize_in(1..max_dim)).collect();
            let chunk_shape: Vec<usize> = dims.iter().map(|&d| rng.usize_in(1..d + 3)).collect();
            // A key width of 1 along dim 0 is finer than a line; one wider
            // than the chunk's dim-0 extent spans lines and chunks.
            let widths: Vec<usize> = chunk_shape
                .iter()
                .map(|&c| [1, 2, 3, c + 1][rng.usize_in(0..4)])
                .collect();
            let policy = match rng.usize_in(0..3) {
                0 => ChunkPolicy::always_dense(),
                1 => ChunkPolicy::default(),
                _ => ChunkPolicy::naive_sparse(),
            };
            let keep_one_in = [1, 2, 5, 40][rng.usize_in(0..4)] as u64;
            let salt = rng.next_u64();
            let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(dims, chunk_shape))
                .policy(policy)
                .num_partitions(rng.usize_in(1..6))
                .ingest(move |c| {
                    let h = c.iter().fold(salt, |h, &x| {
                        (h ^ x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    }) >> 7;
                    // Small integers: sums are exact in any order.
                    h.is_multiple_of(keep_one_in).then_some((h % 100) as f64)
                })
                .build();
            let key = move |c: &[usize]| -> Vec<u64> {
                c.iter()
                    .zip(&widths)
                    .map(|(&x, &w)| (x / w) as u64)
                    .collect()
            };

            let mut expected: BTreeMap<Vec<u64>, (f64, usize)> = BTreeMap::new();
            for (coords, v) in arr.collect_cells().unwrap() {
                let group = expected.entry(key(&coords)).or_default();
                group.0 += v;
                group.1 += 1;
            }
            let counts: BTreeMap<Vec<u64>, usize> = arr
                .aggregate_by(key.clone(), Count)
                .unwrap()
                .into_iter()
                .collect();
            let got: BTreeMap<Vec<u64>, (f64, usize)> = arr
                .aggregate_by(key, Sum)
                .unwrap()
                .into_iter()
                .map(|(k, sum)| {
                    let n = counts[&k];
                    (k, (sum, n))
                })
                .collect();
            assert_eq!(got.len(), counts.len(), "one group per key");
            assert_eq!(got, expected);
        });
    }

    #[test]
    fn from_cells_pipeline_equals_ingest() {
        let ctx = ctx();
        let by_ingest = sample_array(&ctx);
        let cells: Vec<(Vec<usize>, f64)> = (0..60)
            .step_by(2)
            .flat_map(|x| (0..40).map(move |y| (vec![x, y], (x * 100 + y) as f64)))
            .collect();
        let by_cells = ArrayRdd::from_cells(
            &ctx,
            ArrayMeta::new(vec![60, 40], vec![16, 16]),
            ChunkPolicy::default(),
            cells,
            8,
        );
        assert_eq!(
            by_ingest.collect_cells().unwrap(),
            by_cells.collect_cells().unwrap()
        );
    }

    #[test]
    fn zip_with_implements_and_join_semantics() {
        let ctx = ctx();
        let meta = ArrayMeta::new(vec![20, 20], vec![8, 8]);
        let a = ArrayBuilder::new(&ctx, meta.clone())
            .ingest(|c| (c[0] < 10).then(|| c[0] as f64))
            .build();
        let b = ArrayBuilder::new(&ctx, meta)
            .ingest(|c| (c[0] >= 5).then(|| c[1] as f64))
            .build();
        // AND join: both valid.
        let and = a.zip_with(&b, |x, y| x.zip(y).map(|(x, y)| x + y));
        assert_eq!(and.count_valid().unwrap(), 5 * 20);
        assert_eq!(and.get(&[7, 3]).unwrap(), Some(10.0));
        assert_eq!(and.get(&[2, 3]).unwrap(), None);
        // OR join: either valid.
        let or = a.zip_with(&b, |x, y| {
            x.or(y).map(|_| x.unwrap_or(0.0) + y.unwrap_or(0.0))
        });
        assert_eq!(or.count_valid().unwrap(), 20 * 20);
    }

    #[test]
    fn zip_with_is_local_for_copartitioned_arrays() {
        let ctx = SpangleContext::new(4);
        let meta = ArrayMeta::new(vec![32, 32], vec![8, 8]);
        let a = ArrayBuilder::new(&ctx, meta.clone())
            .ingest(|c| Some(c[0] as f64))
            .build();
        let b = ArrayBuilder::new(&ctx, meta)
            .ingest(|c| Some(c[1] as f64))
            .build();
        let before = ctx.metrics_snapshot();
        let sum = a.zip_with(&b, |x, y| x.zip(y).map(|(x, y)| x + y));
        sum.count_valid().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.shuffle_write_bytes, 0, "chunk-aligned zip is local");
        assert_eq!(delta.stages_run, 1);
    }

    /// Three persisted, materialised 64² arrays of 16² chunks on two
    /// executors.
    fn persisted_inputs(ctx: &SpangleContext) -> [ArrayRdd<f64>; 3] {
        let meta = ArrayMeta::new(vec![64, 64], vec![16, 16]);
        [0usize, 1, 2].map(|k| {
            let arr = ArrayBuilder::new(ctx, meta.clone())
                .ingest(move |c| {
                    (c[0] + c[1] + k)
                        .is_multiple_of(3)
                        .then(|| (c[0] + k) as f64)
                })
                .build();
            arr.persist();
            arr.count_valid().unwrap();
            arr
        })
    }

    /// Bugfix regression: a zip's result forgot the layout its cogroup
    /// had, so zipping it again shuffled it.
    #[test]
    fn chained_zips_stay_local() {
        let ctx = SpangleContext::new(2);
        let [a, b, c] = persisted_inputs(&ctx);
        let sum =
            |x: Option<f64>, y: Option<f64>| x.or(y).map(|_| x.unwrap_or(0.0) + y.unwrap_or(0.0));
        let ab = a.zip_with(&b, sum);
        ab.persist();
        ab.count_valid().unwrap();
        let before = ctx.metrics_snapshot();
        let abc = ab.zip_with(&c, sum);
        assert_eq!(abc.count_valid().unwrap(), 64 * 64);
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.shuffle_write_bytes, 0, "the second zip is local");
        assert_eq!(delta.stages_run, 1);
    }

    fn sorted(rdd: &Rdd<(ChunkId, u64)>) -> Vec<(ChunkId, u64)> {
        let mut records = rdd.collect().unwrap();
        records.sort_unstable();
        records
    }

    /// `join_chunks` calls `f` once per id on either side, ids ascending
    /// within a partition, shuffles only a side that is not on the hash
    /// layout, and claims that layout for its result.
    #[test]
    fn join_chunks_meets_every_id_once_and_claims_the_hash_layout() {
        let ctx = SpangleContext::new(2);
        let n = 4;
        let on_layout = |ids: Vec<u64>| {
            ctx.parallelize(ids.into_iter().map(|id| (id, id * 10)).collect(), 3)
                .partition_by(Arc::new(HashPartitioner::new(n)))
        };
        // Overlapping ids 4..8, ids only on the left 0..4, only on the
        // right 8..12.
        let left = on_layout((0..8).collect());
        let right = on_layout((4..12).collect());
        left.persist();
        right.persist();
        left.count().unwrap();
        right.count().unwrap();
        let joined = join_chunks(&left, &right, |id, l, r| {
            Some(id * 1000 + l.map_or(0, |v| v + 1) * 100 + r.map_or(0, |v| v + 1))
        });
        let per_partition = joined
            .run_partitions(|p, records| (p, records.to_vec()))
            .unwrap();
        for (p, records) in &per_partition {
            assert!(records.windows(2).all(|w| w[0].0 < w[1].0), "ids ascend");
            for (id, _) in records {
                assert_eq!(
                    Partitioner::<u64>::partition(&HashPartitioner::new(n), id),
                    *p
                );
            }
        }
        let expected: Vec<(ChunkId, u64)> = (0..12)
            .map(|id| {
                let l = if id < 8 { id * 10 + 1 } else { 0 };
                let r = if id >= 4 { id * 10 + 1 } else { 0 };
                (id, id * 1000 + l * 100 + r)
            })
            .collect();
        assert_eq!(sorted(&joined), expected);

        // `f` may drop an id; an empty side meets every id of the other.
        let empty = on_layout(Vec::new());
        let evens = join_chunks(&left, &empty, |id, l, r| {
            assert!(r.is_none());
            id.is_multiple_of(2).then(|| *l.unwrap())
        });
        assert_eq!(sorted(&evens), vec![(0, 0), (2, 20), (4, 40), (6, 60)]);

        // Both sides on the layout: one stage, nothing shuffled — and the
        // result claims `HashPartitioner(n)`, so putting it on that layout
        // is a pass-through too. A side off the layout is shuffled — one
        // map stage — and the other is not.
        let before = ctx.metrics_snapshot();
        let rehashed = joined.partition_by(Arc::new(HashPartitioner::new(n)));
        assert_eq!(rehashed.count().unwrap(), 12);
        let local = ctx.metrics_snapshot() - before;
        assert_eq!((local.stages_run, local.shuffle_write_bytes), (1, 0));
        let off_layout = ctx.parallelize((4..12).map(|id| (id, id)).collect::<Vec<_>>(), n);
        let mixed = join_chunks(&left, &off_layout, |_, l, r| {
            Some(l.or(r).copied().unwrap())
        });
        let before = ctx.metrics_snapshot();
        assert_eq!(mixed.count().unwrap(), 12);
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.stages_run, 2, "one map stage for the off-layout side");
        assert_eq!(delta.shuffle_records, 8, "only that side's records");
    }

    #[test]
    fn to_dense_reconstructs_the_logical_array() {
        let ctx = ctx();
        let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![6, 5], vec![4, 2]))
            .ingest(|c| (c[0] != 3).then(|| (c[0] + c[1] * 10) as f64))
            .build();
        let dense = arr.to_dense().unwrap();
        let mapper = arr.meta().mapper();
        for x in 0..6 {
            for y in 0..5 {
                let expected = (x != 3).then(|| (x + y * 10) as f64);
                assert_eq!(dense[mapper.global_linear_index(&[x, y])], expected);
            }
        }
    }

    #[test]
    fn reencode_changes_modes_not_content() {
        let ctx = ctx();
        let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![64, 64], vec![32, 32]))
            .ingest(|c| c[0].is_multiple_of(10).then_some(1.0f64))
            .build();
        let dense = arr.reencode(ChunkPolicy::always_dense());
        assert_eq!(arr.collect_cells().unwrap(), dense.collect_cells().unwrap());
        assert_eq!(dense.mode_counts().unwrap()["dense"], 4);
        assert!(dense.mem_bytes().unwrap() > arr.mem_bytes().unwrap());
    }

    #[test]
    fn lineage_recomputes_evicted_array_chunks() {
        let ctx = ctx();
        let arr = sample_array(&ctx);
        arr.persist();
        let first = arr.collect_cells().unwrap();
        // Evict a cached partition and inject a task failure: both recover.
        assert!(ctx.evict_cached_partition(arr.rdd().id(), 0));
        ctx.failure_injector().fail_task(arr.rdd().id(), 1, 1);
        let second = arr.collect_cells().unwrap();
        assert_eq!(first, second);
    }
}
