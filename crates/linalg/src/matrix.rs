//! Distributed block matrices (paper §V-A4, §VI-A).
//!
//! A [`DistMatrix`] is a rank-2 ArrayRDD whose chunks are matrix blocks.
//! Multiplication is available in two physical plans:
//!
//! * the **shuffle plan** ([`DistMatrix::multiply`]): both operands are
//!   re-keyed by the contraction index and joined — Spark's "two Join
//!   stages and one Reduce stage";
//! * the **local-join plan** ([`DistMatrix::multiply_local`] over
//!   [`InnerPartitioned`] operands): when "left and right matrices are
//!   partitioned by row IDs and column IDs respectively, Spangle does not
//!   shuffle them" — the join collapses into a single narrow stage and only
//!   the output reduction crosses the network.
//!
//! [`DistMatrix::gram`] needs no join at all: `M` and `Mᵀ` are the same
//! blocks, so one shuffle lays them out by row block (the contraction index
//! of `MᵀM`) and each partition contracts its blocks where the shuffle left
//! them, indexing every block once as itself and once as its transpose. It
//! computes only the upper block triangle of the symmetric product; the
//! reduce mirrors it into the lower one.
//!
//! Matrix–vector products keep the vector on the driver and broadcast it,
//! which is how the tailored PageRank and SGD avoid shuffling anything but
//! tiny partial vectors.

use crate::block::{block_multiply_sparse, block_transpose, ColumnIndex, SparseAccumulator};
use crate::vector::{DenseVector, Orientation};
use spangle_core::{ArrayBuilder, ArrayMeta, ArrayRdd, Chunk, ChunkPolicy, ColumnWalk};
use spangle_dataflow::{
    cancellation_point, HashPartitioner, JobError, ModPartitioner, PairRdd, Rdd, SpangleContext,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A distributed block matrix over bitmask chunks.
pub struct DistMatrix {
    array: ArrayRdd<f64>,
}

impl Clone for DistMatrix {
    fn clone(&self) -> Self {
        DistMatrix {
            array: self.array.clone(),
        }
    }
}

impl DistMatrix {
    /// Wraps a rank-2 array as a matrix (dim 0 = rows, dim 1 = columns).
    pub fn from_array(array: ArrayRdd<f64>) -> Self {
        assert_eq!(array.meta().rank(), 2, "matrices are rank-2 arrays");
        DistMatrix { array }
    }

    /// Generates a matrix from an entry function; `f(r, c)` returning
    /// `None` or `Some(0.0)` both mean a zero (invalid) entry.
    pub fn generate(
        ctx: &SpangleContext,
        rows: usize,
        cols: usize,
        block_shape: (usize, usize),
        policy: ChunkPolicy,
        f: impl Fn(usize, usize) -> Option<f64> + Send + Sync + 'static,
    ) -> Self {
        let meta = ArrayMeta::new(vec![rows, cols], vec![block_shape.0, block_shape.1]);
        let array = ArrayBuilder::new(ctx, meta)
            .policy(policy)
            .ingest(move |c| f(c[0], c[1]).filter(|v| *v != 0.0))
            .build();
        DistMatrix { array }
    }

    /// Builds from `(row, col, value)` triplets through the distributed
    /// ingest pipeline.
    pub fn from_triplets(
        ctx: &SpangleContext,
        rows: usize,
        cols: usize,
        block_shape: (usize, usize),
        policy: ChunkPolicy,
        triplets: Vec<(usize, usize, f64)>,
        num_partitions: usize,
    ) -> Self {
        let meta = ArrayMeta::new(vec![rows, cols], vec![block_shape.0, block_shape.1]);
        let cells = triplets
            .into_iter()
            .filter(|&(_, _, v)| v != 0.0)
            .map(|(r, c, v)| (vec![r, c], v))
            .collect();
        DistMatrix {
            array: ArrayRdd::from_cells(ctx, meta, policy, cells, num_partitions),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.array.meta().dims()[0]
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.array.meta().dims()[1]
    }

    /// Block shape `(block_rows, block_cols)`.
    pub fn block_shape(&self) -> (usize, usize) {
        let cs = self.array.meta().chunk_shape();
        (cs[0], cs[1])
    }

    /// The underlying array.
    pub fn array(&self) -> &ArrayRdd<f64> {
        &self.array
    }

    /// The cluster handle.
    pub fn context(&self) -> &SpangleContext {
        self.array.context()
    }

    /// Number of explicitly stored (non-zero) entries.
    pub fn nnz(&self) -> Result<usize, JobError> {
        self.array.count_valid()
    }

    /// Deep memory footprint of all blocks.
    pub fn mem_bytes(&self) -> Result<usize, JobError> {
        self.array.mem_bytes()
    }

    /// Marks the block RDD for caching.
    pub fn persist(&self) -> &Self {
        self.array.persist();
        self
    }

    /// Entry accessor for tests: zero when invalid.
    pub fn to_local(&self) -> Result<Vec<f64>, JobError> {
        let rows = self.rows();
        let mut out = vec![0.0; rows * self.cols()];
        for (coords, v) in self.array.collect_cells()? {
            out[coords[0] + coords[1] * rows] = v;
        }
        Ok(out)
    }

    /// Block-grid dimensions `(grid_rows, grid_cols)`.
    pub fn grid(&self) -> (usize, usize) {
        let g = self.array.meta().grid_dims();
        (g[0], g[1])
    }

    /// Matrix multiplication through the shuffle plan.
    pub fn multiply(&self, other: &DistMatrix) -> DistMatrix {
        self.multiply_impl(other, None)
    }

    /// Matrix multiplication through the local-join plan: both operands
    /// must be [`InnerPartitioned`] over the same partition count (§VI-A).
    pub fn multiply_local(left: &InnerPartitioned, right: &InnerPartitioned) -> DistMatrix {
        assert_eq!(
            left.num_partitions, right.num_partitions,
            "local join requires matching partition counts"
        );
        assert_eq!(
            left.matrix.cols(),
            right.matrix.rows(),
            "inner dimensions must agree"
        );
        left.matrix
            .multiply_impl(&right.matrix, Some((left, right)))
    }

    /// The product through the shuffle plan, or through the local-join plan
    /// over `prepared` operands.
    fn multiply_impl(
        &self,
        other: &DistMatrix,
        prepared: Option<(&InnerPartitioned, &InnerPartitioned)>,
    ) -> DistMatrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "inner dimensions must agree: {}x{} * {}x{}",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let (a_br, a_bc) = self.block_shape();
        let (b_br, b_bc) = other.block_shape();
        assert_eq!(
            a_bc, b_br,
            "inner block sizes must agree for block multiplication"
        );
        let ctx = self.context().clone();
        let out_meta = Arc::new(ArrayMeta::new(
            vec![self.rows(), other.cols()],
            vec![a_br, b_bc],
        ));
        let a_meta = self.array.meta_arc();
        let b_meta = other.array.meta_arc();
        let policy = self.array.policy();

        // Key both operands by the contraction (inner) block index.
        type Keyed = Rdd<(u64, (u64, Chunk<f64>))>;
        let (keyed_a, keyed_b, partitioner): (
            Keyed,
            Keyed,
            Arc<dyn spangle_dataflow::Partitioner<u64>>,
        ) = match prepared {
            Some((l, r)) => (
                l.rdd.clone(),
                r.rdd.clone(),
                Arc::new(ModPartitioner::new(l.num_partitions)),
            ),
            None => {
                let ga = self.grid();
                let a = self.array.rdd().map(move |(id, chunk)| {
                    let (gr, gc) = (id % ga.0 as u64, id / ga.0 as u64);
                    (gc, (gr, chunk))
                });
                let gb = other.grid();
                let b = other.array.rdd().map(move |(id, chunk)| {
                    let (gr, gc) = (id % gb.0 as u64, id / gb.0 as u64);
                    (gr, (gc, chunk))
                });
                let n = self.array.rdd().num_partitions();
                (a, b, Arc::new(HashPartitioner::new(n)) as _)
            }
        };

        // Join on the inner index, index every block once — under its key
        // it meets every block of the other side — and contract. Keys are
        // visited in ascending order: a cogrouped partition lists them in
        // an order that differs from run to run.
        let out_grid_rows = out_meta.grid_dims()[0] as u64;
        let contraction_meta = (a_meta.clone(), b_meta.clone());
        let partials = keyed_a
            .cogroup(&keyed_b, partitioner)
            .map_partitions(move |groups| {
                let (a_meta, b_meta) = &contraction_meta;
                let a_mapper = a_meta.mapper();
                let b_mapper = b_meta.mapper();
                let a_grid_rows = a_meta.grid_dims()[0] as u64;
                let b_grid_rows = b_meta.grid_dims()[0] as u64;
                let mut groups: Vec<_> = groups.iter().collect();
                groups.sort_unstable_by_key(|(kb, _)| *kb);
                let keys: Vec<(Indexed, Indexed)> = groups
                    .into_iter()
                    .map(|(kb, (a_blocks, b_blocks))| {
                        let a_indexed = a_blocks.iter().map(|(gr, chunk)| {
                            let extent = a_mapper.chunk_extent(gr + kb * a_grid_rows);
                            (*gr, ColumnIndex::of_block(chunk, extent[0], extent[1]))
                        });
                        let b_indexed = b_blocks.iter().map(|(gc, chunk)| {
                            let extent = b_mapper.chunk_extent(kb + gc * b_grid_rows);
                            (*gc, ColumnIndex::of_block(chunk, extent[0], extent[1]))
                        });
                        (a_indexed.collect(), b_indexed.collect())
                    })
                    .collect();
                contract(&keys, out_grid_rows, false)
            });
        let n_out = self.array.rdd().num_partitions();
        let sig = spangle_dataflow::Partitioner::<u64>::sig(&HashPartitioner::new(n_out));
        let rdd = reduce_partials(&partials, out_meta.clone(), policy, n_out, false)
            .assert_partitioned(sig);
        DistMatrix {
            array: ArrayRdd::from_parts(&ctx, out_meta, policy, rdd),
        }
    }

    /// Re-partitions this matrix by its *column* (inner, when used as the
    /// left operand) block index — half of the local-join layout.
    pub fn partition_left_by_inner(&self, num_partitions: usize) -> InnerPartitioned {
        let (grid_rows, _) = self.grid();
        let grid_rows = grid_rows as u64;
        let keyed = self.array.rdd().map(move |(id, chunk)| {
            let (gr, gc) = (id % grid_rows, id / grid_rows);
            (gc, (gr, chunk))
        });
        let rdd = keyed.partition_by(Arc::new(ModPartitioner::new(num_partitions)));
        rdd.persist();
        InnerPartitioned {
            matrix: self.clone(),
            rdd,
            num_partitions,
        }
    }

    /// Re-partitions this matrix by its *row* (inner, when used as the
    /// right operand) block index — the other half of the local-join
    /// layout.
    pub fn partition_right_by_inner(&self, num_partitions: usize) -> InnerPartitioned {
        let (grid_rows, _) = self.grid();
        let grid_rows = grid_rows as u64;
        let keyed = self.array.rdd().map(move |(id, chunk)| {
            let (gr, gc) = (id % grid_rows, id / grid_rows);
            (gr, (gc, chunk))
        });
        let rdd = keyed.partition_by(Arc::new(ModPartitioner::new(num_partitions)));
        rdd.persist();
        InnerPartitioned {
            matrix: self.clone(),
            rdd,
            num_partitions,
        }
    }

    /// Physical transpose: every block moves to its mirrored grid slot and
    /// is transposed in place. (For *vectors* Spangle never does this —
    /// see [`DenseVector::transpose`].)
    pub fn transpose(&self) -> DistMatrix {
        let (grid_rows, grid_cols) = self.grid();
        let (br, bc) = self.block_shape();
        let meta = self.array.meta_arc();
        let policy = self.array.policy();
        let out_meta = Arc::new(ArrayMeta::new(vec![self.cols(), self.rows()], vec![bc, br]));
        let rdd = self.array.rdd().flat_map(move |(id, chunk)| {
            let mapper = meta.mapper();
            let extent = mapper.chunk_extent(id);
            let (gr, gc) = (id % grid_rows as u64, id / grid_rows as u64);
            let t_id = gc + gr * grid_cols as u64;
            block_transpose(&chunk, extent[0], extent[1], &policy)
                .map(|c| (t_id, c))
                .into_iter()
                .collect::<Vec<_>>()
        });
        // Keys moved: restore the canonical hash layout.
        let n = self.array.rdd().num_partitions();
        let rdd = rdd.partition_by(Arc::new(HashPartitioner::new(n)));
        DistMatrix {
            array: ArrayRdd::from_parts(self.context(), out_meta, policy, rdd),
        }
    }

    /// Gram matrix `MᵀM` — the transpose-and-multiply benchmark of
    /// Fig. 10.
    ///
    /// Both operands are views of the *same* blocks, and both sit on their
    /// contraction index once the blocks are laid out by row block, so
    /// Spangle "does not shuffle them" (§VI-A) beyond that one layout
    /// shuffle. Each contraction partition then reads its blocks where the
    /// shuffle left them, by reference, and indexes every block once per
    /// side: as itself for `M` ([`ColumnIndex::of_block`]) and as its
    /// transpose for `Mᵀ` ([`ColumnIndex::of_transpose`]), no transposed
    /// block built. Under one key every block of `Mᵀ` meets every block of
    /// `M`, so a pair costs only its multiplications. Nothing is persisted:
    /// the op leaves no cached partition behind.
    ///
    /// `MᵀM` is symmetric, so only the output blocks on or above the block
    /// diagonal are multiplied, shuffled and reduced — at a `g × g` output
    /// grid, `g(g + 1)/2` of `g²` — and the reduce emits each off-diagonal
    /// block's transpose as its mirror, bit-identical to the block the
    /// full product would compute (MLlib's `computeGramianMatrix` sums the
    /// packed upper triangle the same way). A mirror lives in its twin's
    /// partition, so the result claims no partitioner: a later zip with it
    /// shuffles.
    pub fn gram(&self) -> DistMatrix {
        let n = self.array.rdd().num_partitions();
        let (grid_rows, grid_cols) = self.grid();
        let gr64 = grid_rows as u64;
        let bc = self.block_shape().1;
        let meta = self.array.meta_arc();
        let policy = self.array.policy();
        let out_meta = Arc::new(ArrayMeta::new(vec![self.cols(), self.cols()], vec![bc, bc]));
        let out_grid_rows = grid_cols as u64;
        // Block `(r, c)` keyed by its row block `r`, the contraction index.
        let keyed = self
            .array
            .rdd()
            .map(move |(id, chunk)| (id % gr64, (id / gr64, chunk)));
        let partials =
            keyed.map_shuffled_partitions(Arc::new(ModPartitioner::new(n)), move |buckets| {
                let mapper = meta.mapper();
                let mut blocks: Vec<_> = buckets.iter().flat_map(|bucket| bucket.iter()).collect();
                blocks.sort_unstable_by_key(|(k, (c, _))| (*k, *c));
                let keys: Vec<(Indexed, Indexed)> = blocks
                    .chunk_by(|a, b| a.0 == b.0)
                    .map(|key_blocks| {
                        key_blocks
                            .iter()
                            .map(|(k, (c, chunk))| {
                                let extent = mapper.chunk_extent(k + c * gr64);
                                let (rows, cols) = (extent[0], extent[1]);
                                (
                                    (*c, ColumnIndex::of_transpose(chunk, rows, cols)),
                                    (*c, ColumnIndex::of_block(chunk, rows, cols)),
                                )
                            })
                            .unzip()
                    })
                    .collect();
                contract(&keys, out_grid_rows, true)
            });
        let rdd = reduce_partials(&partials, out_meta.clone(), policy, n, true);
        DistMatrix {
            array: ArrayRdd::from_parts(self.context(), out_meta, policy, rdd),
        }
    }

    /// `y = M·x` with a broadcast column vector: every partition sums its
    /// blocks into one row segment per block row, segments are reduced per
    /// block row. No matrix data moves.
    pub fn matvec(&self, x: &DenseVector) -> Result<DenseVector, JobError> {
        assert_eq!(
            x.orientation(),
            Orientation::Column,
            "matvec needs a column vector; transpose() is metadata-only"
        );
        assert_eq!(x.len(), self.cols(), "dimension mismatch in M·x");
        self.broadcast_product(x.as_slice(), 0)
            .map(DenseVector::column)
    }

    /// `yᵀ = xᵀ·M` with a broadcast row vector, reduced per block column.
    pub fn vecmat(&self, x: &DenseVector) -> Result<DenseVector, JobError> {
        assert_eq!(
            x.orientation(),
            Orientation::Row,
            "vecmat needs a row vector; transpose() is metadata-only"
        );
        assert_eq!(x.len(), self.rows(), "dimension mismatch in xᵀ·M");
        self.broadcast_product(x.as_slice(), 1)
            .map(DenseVector::row)
    }

    /// The product of the matrix with a broadcast vector, contracted over
    /// the *other* dimension than `out_dim`: `out_dim == 0` is `M·x` (the
    /// result runs along the rows), `out_dim == 1` is `xᵀ·M`.
    ///
    /// Each partition walks its cached blocks in place and accumulates
    /// into one segment per output block index, opened on first use — a
    /// non-zero costs its multiply-add and nothing else: no block clone, no
    /// vector per block, no division to find its row and column. The
    /// segments (one per partition and key, in key order) are then summed
    /// per key in map-partition order, so the result is a fixed function of
    /// the layout.
    fn broadcast_product(&self, x: &[f64], out_dim: usize) -> Result<Vec<f64>, JobError> {
        let bc = self.context().broadcast(x.to_vec());
        let meta = self.array.meta_arc();
        let block_len = meta.chunk_shape()[out_dim];
        let partials = self.array.rdd().map_partitions(move |blocks| {
            let mapper = meta.mapper();
            let x = bc.value();
            let mut segments: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
            for (id, chunk) in blocks {
                let extent = mapper.chunk_extent(*id);
                let origin = mapper.chunk_origin(*id);
                let key = (origin[out_dim] / block_len) as u64;
                let segment = segments
                    .entry(key)
                    .or_insert_with(|| vec![0.0; extent[out_dim]]);
                let x_block = &x[origin[1 - out_dim]..];
                let mut walk = ColumnWalk::new(extent[0]);
                if out_dim == 0 {
                    chunk.for_each_valid(|local, v| {
                        let (r, c) = walk.locate(local);
                        segment[r] += v * x_block[c];
                    });
                } else {
                    chunk.for_each_valid(|local, v| {
                        let (r, c) = walk.locate(local);
                        segment[c] += v * x_block[r];
                    });
                }
            }
            segments.into_iter().collect()
        });
        let n = self.array.rdd().num_partitions();
        let reduced = partials.reduce_by_key(Arc::new(HashPartitioner::new(n)), |mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        });
        let mut out = vec![0.0; self.array.meta().dims()[out_dim]];
        for (key, segment) in reduced.collect()? {
            let base = key as usize * block_len;
            out[base..base + segment.len()].copy_from_slice(&segment);
        }
        Ok(out)
    }

    /// Element-wise sum — embarrassingly parallel, shuffle-free when the
    /// operands are co-partitioned.
    pub fn add(&self, other: &DistMatrix) -> DistMatrix {
        self.elementwise(other, |a, b| a + b)
    }

    /// Hadamard (element-wise) product; the bitmask AND makes this skip
    /// every pair with an invalid side (Fig. 5's element-wise case).
    pub fn hadamard(&self, other: &DistMatrix) -> DistMatrix {
        DistMatrix {
            array: self
                .array
                .zip_with(&other.array, |a, b| a.zip(b).map(|(x, y)| x * y)),
        }
    }

    /// Scales every entry.
    pub fn scale(&self, s: f64) -> DistMatrix {
        DistMatrix {
            array: self.array.map_values(move |v| v * s),
        }
    }

    fn elementwise(
        &self,
        other: &DistMatrix,
        f: impl Fn(f64, f64) -> f64 + Send + Sync + 'static,
    ) -> DistMatrix {
        DistMatrix {
            array: self.array.zip_with(&other.array, move |a, b| {
                let v = f(a.unwrap_or(0.0), b.unwrap_or(0.0));
                (v != 0.0).then_some(v)
            }),
        }
    }
}

/// The blocks of one contraction key, each indexed: the left operand's by
/// output block row, the right operand's by output block column.
type Indexed = Vec<(u64, ColumnIndex)>;

/// The multiply stage's work in one partition: `keys` in ascending
/// contraction order, contracted into one sorted `(local offset, value)`
/// run per output block — the form partial products cross the shuffle in.
/// With `upper_triangle` — only when the product is known to be symmetric,
/// as `MᵀM` is — only the output blocks on or above the block diagonal are
/// computed.
///
/// Every output block the partition contributes to is summed over *all*
/// its keys in one accumulator of the block's volume (allocated once per
/// task, drained through its touched words) before it is emitted, so a term
/// costs its multiply-add and an entry is written once; hyper-sparse
/// contractions (the `MᵀM` cases that OOM dense systems, §VII-C) stay
/// proportional to their non-zeros. A block's pairs are listed in key
/// order, so every cell's terms are added in ascending `k` and the runs are
/// a fixed function of the layout.
fn contract(
    keys: &[(Indexed, Indexed)],
    out_grid_rows: u64,
    upper_triangle: bool,
) -> Vec<(u64, Vec<(u32, f64)>)> {
    let mut by_output: BTreeMap<u64, Vec<(&ColumnIndex, &ColumnIndex)>> = BTreeMap::new();
    for (a_indexed, b_indexed) in keys {
        for (gr, a_index) in a_indexed {
            for (gc, b_index) in b_indexed {
                if upper_triangle && gr > gc {
                    continue;
                }
                by_output
                    .entry(gr + gc * out_grid_rows)
                    .or_default()
                    .push((a_index, b_index));
            }
        }
    }
    let mut acc = SparseAccumulator::default();
    let mut out = Vec::with_capacity(by_output.len());
    for (out_id, pairs) in by_output {
        // One poll per output block: a straggling or deadlined contraction
        // yields between GEMM kernels rather than finishing the tile walk.
        cancellation_point();
        let run = block_multiply_sparse(&pairs, &mut acc);
        if !run.is_empty() {
            out.push((out_id, run));
        }
    }
    out
}

/// The reduce stage: the shuffled runs are read where the map side left
/// them, a block's runs scatter-added, in map order, into one accumulator
/// of the block's volume, and the chunk encoded straight from its touched
/// mask and sums.
///
/// With `mirror` an off-diagonal block `(a, b)` also yields block `(b, a)`
/// as its transpose. The mirror is bit-identical to the block the full
/// product would compute: `G[j, i]` there sums the same products as
/// `G[i, j]` here, each with its factors commuted, in the same order —
/// ascending contraction index inside a map partition, then map-partition
/// order — and a partial cancels to zero in one exactly when it does in the
/// other.
fn reduce_partials(
    partials: &Rdd<(u64, Vec<(u32, f64)>)>,
    out_meta: Arc<ArrayMeta>,
    policy: ChunkPolicy,
    num_partitions: usize,
    mirror: bool,
) -> Rdd<(u64, Chunk<f64>)> {
    let out_grid_rows = out_meta.grid_dims()[0] as u64;
    partials.map_shuffled_partitions(
        Arc::new(HashPartitioner::new(num_partitions)),
        move |buckets| {
            let mapper = out_meta.mapper();
            // Stable: a block's runs keep their bucket (= map) order.
            let mut runs: Vec<_> = buckets.iter().flat_map(|bucket| bucket.iter()).collect();
            runs.sort_by_key(|(id, _)| *id);
            let mut acc = SparseAccumulator::default();
            let mut out = Vec::new();
            for block_runs in runs.chunk_by(|a, b| a.0 == b.0) {
                cancellation_point();
                let id = block_runs[0].0;
                acc.fit(mapper.chunk_volume(id));
                acc.add_runs(block_runs.iter().map(|(_, run)| run.as_slice()));
                let Some(chunk) = acc.take_chunk(&policy) else {
                    continue;
                };
                let (gr, gc) = (id % out_grid_rows, id / out_grid_rows);
                let mirrored = (mirror && gr != gc).then(|| {
                    let extent = mapper.chunk_extent(id);
                    let t = block_transpose(&chunk, extent[0], extent[1], &policy)
                        .expect("transposing a non-empty block yields a non-empty block");
                    (gc + gr * out_grid_rows, t)
                });
                out.push((id, chunk));
                out.extend(mirrored);
            }
            out
        },
    )
}

/// A matrix re-partitioned by its contraction index, ready for
/// [`DistMatrix::multiply_local`]. Building one costs a shuffle; reusing it
/// across iterations (PageRank, SGD) amortises that cost to zero, which is
/// the entire point of §VI-A.
pub struct InnerPartitioned {
    matrix: DistMatrix,
    rdd: Rdd<(u64, (u64, Chunk<f64>))>,
    num_partitions: usize,
}

impl InnerPartitioned {
    /// The wrapped matrix.
    pub fn matrix(&self) -> &DistMatrix {
        &self.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> SpangleContext {
        SpangleContext::new(4)
    }

    fn dense_mat(
        ctx: &SpangleContext,
        rows: usize,
        cols: usize,
        block: (usize, usize),
    ) -> DistMatrix {
        DistMatrix::generate(ctx, rows, cols, block, ChunkPolicy::default(), |r, c| {
            Some(((r * 31 + c * 17) % 7) as f64 - 3.0)
        })
    }

    fn sparse_mat(
        ctx: &SpangleContext,
        rows: usize,
        cols: usize,
        block: (usize, usize),
    ) -> DistMatrix {
        DistMatrix::generate(ctx, rows, cols, block, ChunkPolicy::default(), |r, c| {
            (r + 2 * c).is_multiple_of(11).then_some((r + c + 1) as f64)
        })
    }

    fn reference_multiply(a: &[f64], m: usize, k: usize, b: &[f64], p: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * p];
        for c in 0..p {
            for kk in 0..k {
                let vb = b[kk + c * k];
                for r in 0..m {
                    out[r + c * m] += a[r + kk * m] * vb;
                }
            }
        }
        out
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn shuffle_multiply_matches_reference() {
        let ctx = ctx();
        // Non-square, edge blocks on both operands.
        let a = dense_mat(&ctx, 30, 22, (8, 8));
        let b = sparse_mat(&ctx, 22, 17, (8, 8));
        let got = a.multiply(&b).to_local().unwrap();
        let expected =
            reference_multiply(&a.to_local().unwrap(), 30, 22, &b.to_local().unwrap(), 17);
        assert_close(&got, &expected);
    }

    #[test]
    fn local_multiply_matches_shuffle_multiply() {
        let ctx = ctx();
        let a = dense_mat(&ctx, 24, 24, (8, 8));
        let b = sparse_mat(&ctx, 24, 16, (8, 8));
        let shuffle = a.multiply(&b).to_local().unwrap();
        let left = a.partition_left_by_inner(4);
        let right = b.partition_right_by_inner(4);
        let local = DistMatrix::multiply_local(&left, &right)
            .to_local()
            .unwrap();
        assert_close(&local, &shuffle);
    }

    #[test]
    fn local_multiply_joins_without_shuffling_inputs() {
        let ctx = SpangleContext::new(4);
        let a = dense_mat(&ctx, 24, 24, (8, 8));
        let b = dense_mat(&ctx, 24, 24, (8, 8));
        let left = a.partition_left_by_inner(4);
        let right = b.partition_right_by_inner(4);
        // Materialise the prepared layouts.
        left.matrix().nnz().unwrap();
        DistMatrix::multiply_local(&left, &right).nnz().unwrap();

        // A second multiply against the same prepared layout re-shuffles
        // nothing on the join side; only the output reduction shuffles, and
        // its volume is far below the input volume.
        let before = ctx.metrics_snapshot();
        let c = DistMatrix::multiply_local(&left, &right);
        c.nnz().unwrap();
        let local_delta = ctx.metrics_snapshot() - before;

        let before = ctx.metrics_snapshot();
        let c2 = a.multiply(&b);
        c2.nnz().unwrap();
        let shuffle_delta = ctx.metrics_snapshot() - before;

        assert!(
            local_delta.shuffle_write_bytes < shuffle_delta.shuffle_write_bytes,
            "local join should move less data: {} vs {}",
            local_delta.shuffle_write_bytes,
            shuffle_delta.shuffle_write_bytes
        );
        assert!(
            local_delta.stages_run < shuffle_delta.stages_run,
            "local join should run fewer stages: {} vs {}",
            local_delta.stages_run,
            shuffle_delta.stages_run
        );
    }

    #[test]
    fn transpose_mirrors_entries() {
        let ctx = ctx();
        let a = sparse_mat(&ctx, 14, 9, (4, 4));
        let t = a.transpose();
        assert_eq!(t.rows(), 9);
        assert_eq!(t.cols(), 14);
        let a_local = a.to_local().unwrap();
        let t_local = t.to_local().unwrap();
        for r in 0..14 {
            for c in 0..9 {
                assert_eq!(a_local[r + c * 14], t_local[c + r * 9], "({r},{c})");
            }
        }
    }

    #[test]
    fn gram_matches_reference() {
        let ctx = ctx();
        let a = sparse_mat(&ctx, 20, 12, (6, 6));
        let local = a.to_local().unwrap();
        let t: Vec<f64> = {
            let mut t = vec![0.0; 12 * 20];
            for r in 0..20 {
                for c in 0..12 {
                    t[c + r * 12] = local[r + c * 20];
                }
            }
            t
        };
        let expected = reference_multiply(&t, 12, 20, &local, 12);
        assert_close(&a.gram().to_local().unwrap(), &expected);
    }

    #[test]
    fn matvec_and_vecmat_match_reference() {
        let ctx = ctx();
        let a = dense_mat(&ctx, 18, 11, (5, 4));
        let local = a.to_local().unwrap();
        let x = DenseVector::column((0..11).map(|i| i as f64 * 0.5 - 2.0).collect());
        let y = a.matvec(&x).unwrap();
        for r in 0..18 {
            let expected: f64 = (0..11).map(|c| local[r + c * 18] * x.as_slice()[c]).sum();
            assert!((y.as_slice()[r] - expected).abs() < 1e-9, "row {r}");
        }

        let xr = DenseVector::row((0..18).map(|i| (i % 5) as f64).collect());
        let yt = a.vecmat(&xr).unwrap();
        for c in 0..11 {
            let expected: f64 = (0..18).map(|r| local[r + c * 18] * xr.as_slice()[r]).sum();
            assert!((yt.as_slice()[c] - expected).abs() < 1e-9, "col {c}");
        }
    }

    /// Ragged extents in both dimensions (37 = 4·8 + 5 rows, 29 = 3·8 + 5
    /// columns, neither a power of two at the edge), a band of block
    /// columns with no blocks at all, single-cell blocks next to full
    /// ones, and every chunk mode the default policy picks.
    #[test]
    fn matvec_and_vecmat_match_reference_with_empty_blocks_and_ragged_edges() {
        let ctx = ctx();
        let entry = |r: usize, c: usize| -> Option<f64> {
            let v = ((r * 31 + c * 17) % 13) as f64 - 6.5;
            match (r / 8, c / 8) {
                (_, 1) => None,                             // an empty block column
                (2, _) => None,                             // an empty block row
                (0, 0) => Some(v),                          // dense
                (1, 2) => (r == 9 && c == 17).then_some(v), // one cell
                _ => (r + 2 * c).is_multiple_of(5).then_some(v),
            }
        };
        let a = DistMatrix::generate(&ctx, 37, 29, (8, 8), ChunkPolicy::default(), entry);
        let x: Vec<f64> = (0..29).map(|i| i as f64 * 0.25 - 3.0).collect();
        let y = a.matvec(&DenseVector::column(x.clone())).unwrap();
        for r in 0..37 {
            let expected: f64 = (0..29).filter_map(|c| entry(r, c).map(|v| v * x[c])).sum();
            assert!((y.as_slice()[r] - expected).abs() < 1e-9, "row {r}");
        }
        let xr: Vec<f64> = (0..37).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let yt = a.vecmat(&DenseVector::row(xr.clone())).unwrap();
        for c in 0..29 {
            let expected: f64 = (0..37).filter_map(|r| entry(r, c).map(|v| v * xr[r])).sum();
            assert!((yt.as_slice()[c] - expected).abs() < 1e-9, "col {c}");
        }
        // A fixed function of the layout: a second call returns the same bits.
        let again = a.matvec(&DenseVector::column(x)).unwrap();
        assert!(y
            .as_slice()
            .iter()
            .zip(again.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn matvec_moves_no_matrix_blocks() {
        let ctx = ctx();
        let a = dense_mat(&ctx, 64, 64, (16, 16));
        a.persist();
        a.nnz().unwrap();
        let block_bytes = a.mem_bytes().unwrap();
        let x = DenseVector::column(vec![1.0; 64]);
        let before = ctx.metrics_snapshot();
        a.matvec(&x).unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert!(
            (delta.shuffle_write_bytes as usize) < block_bytes / 4,
            "only small partial vectors may cross the shuffle: {} vs {} block bytes",
            delta.shuffle_write_bytes,
            block_bytes
        );
    }

    #[test]
    fn elementwise_ops_match_reference() {
        let ctx = ctx();
        let a = sparse_mat(&ctx, 10, 10, (4, 4));
        let b = dense_mat(&ctx, 10, 10, (4, 4));
        let al = a.to_local().unwrap();
        let bl = b.to_local().unwrap();

        let sum = a.add(&b).to_local().unwrap();
        let had = a.hadamard(&b).to_local().unwrap();
        let scaled = a.scale(-2.0).to_local().unwrap();
        for i in 0..100 {
            assert!((sum[i] - (al[i] + bl[i])).abs() < 1e-12);
            assert!((had[i] - al[i] * bl[i]).abs() < 1e-12);
            assert!((scaled[i] - al[i] * -2.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_is_rejected() {
        let ctx = ctx();
        let a = dense_mat(&ctx, 8, 8, (4, 4));
        let b = dense_mat(&ctx, 9, 8, (4, 4));
        let _ = a.multiply(&b);
    }

    #[test]
    fn zero_rich_product_drops_zero_entries() {
        let ctx = ctx();
        // a * b where the product has exact zeros: those cells must be
        // invalid, not stored zeros.
        let a = DistMatrix::generate(&ctx, 4, 4, (2, 2), ChunkPolicy::default(), |r, c| {
            (r == c).then_some(if r < 2 { 1.0 } else { 0.0 })
        });
        let b = dense_mat(&ctx, 4, 4, (2, 2));
        let product = a.multiply(&b);
        let nnz = product.nnz().unwrap();
        assert!(
            nnz <= 8,
            "rows 2..4 are zero and must not be stored, nnz={nnz}"
        );
    }
}
