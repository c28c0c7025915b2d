//! Customised PageRank (paper §VI-B).
//!
//! The transition matrix `A` (column `j` = `1/outdeg(j)` on `j`'s
//! out-neighbours) is decomposed into `A = A' diag(w)`: a 0/1 structure
//! matrix `A'` (entry `(i, j)` = 1 iff edge `j → i`) and the vector
//! `w = 1/outdeg`. Because `A'` is binary it is stored as *bitmask-only
//! adjacency blocks* — one bit per potential edge, hierarchical when the
//! block is super-sparse — and each iteration computes
//!
//! ```text
//! p ← α · A'(w ∘ p) + (1 − α)/n
//! ```
//!
//! where `w ∘ p` is a cheap driver-side Hadamard product and `A'(·)` is a
//! broadcast mask-matvec that never moves a block.

use crate::graph::Graph;
use spangle_bitmask::{Bitmask, HierarchicalBitmask};
use spangle_dataflow::{
    JobError, MemSize, ModPartitioner, PairRdd, Partitioner, PartitionerSig, Rdd, SpangleContext,
};
use spangle_linalg::DenseVector;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Routes a block id to the partition that owns its block *row*
/// (`(id % grid) % n`). Laying the adjacency out this way at build time
/// co-locates every block that contributes to one output row segment, so
/// the per-iteration reduce in [`AdjacencyMatrix::matvec`] — keyed by
/// block row — is provably local and the planner elides its shuffle.
struct RowBlockPartitioner {
    grid: u64,
    num_partitions: usize,
}

impl Partitioner<u64> for RowBlockPartitioner {
    fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    fn partition(&self, key: &u64) -> usize {
        ((key % self.grid) % self.num_partitions as u64) as usize
    }

    fn sig(&self) -> PartitionerSig {
        PartitionerSig {
            kind: "row-block",
            num_partitions: self.num_partitions,
            param: self.grid,
        }
    }
}

/// One adjacency block: pure structure, no payload.
#[derive(Clone, Debug)]
pub enum AdjBlock {
    /// Flat bitmask (sparse blocks).
    Flat(Bitmask),
    /// Two-level mask (super-sparse blocks).
    Hier(HierarchicalBitmask),
}

impl AdjBlock {
    fn from_mask(mask: Bitmask, super_sparse: bool) -> Self {
        if super_sparse {
            AdjBlock::Hier(HierarchicalBitmask::compress(&mask))
        } else {
            AdjBlock::Flat(mask)
        }
    }

    /// Iterates set bits (edges) as local offsets.
    fn for_each_edge(&self, mut f: impl FnMut(usize)) {
        match self {
            AdjBlock::Flat(m) => {
                for i in m.iter_ones() {
                    f(i)
                }
            }
            AdjBlock::Hier(m) => {
                for i in m.iter_ones() {
                    f(i)
                }
            }
        }
    }

    /// Number of edges in the block.
    pub fn num_edges(&self) -> usize {
        match self {
            AdjBlock::Flat(m) => m.count_ones(),
            AdjBlock::Hier(m) => m.count_ones(),
        }
    }
}

impl MemSize for AdjBlock {
    fn mem_size(&self) -> usize {
        match self {
            AdjBlock::Flat(m) => m.mem_size(),
            AdjBlock::Hier(m) => m.mem_size(),
        }
    }

    fn spillable() -> bool {
        true
    }

    fn spill_encode(&self, out: &mut Vec<u8>) {
        // Both variants travel in flat form; `compress` is deterministic,
        // so the hierarchical layout is rebuilt identically on decode.
        match self {
            AdjBlock::Flat(m) => {
                out.push(0);
                m.write_le(out);
            }
            AdjBlock::Hier(m) => {
                out.push(1);
                m.decompress().write_le(out);
            }
        }
    }

    fn spill_decode(input: &mut spangle_dataflow::SpillCursor<'_>) -> Option<Self> {
        let tag = input.u8()?;
        let (mask, used) = Bitmask::read_le(input.rest())?;
        input.skip(used)?;
        match tag {
            0 => Some(AdjBlock::Flat(mask)),
            1 => Some(AdjBlock::Hier(HierarchicalBitmask::compress(&mask))),
            _ => None,
        }
    }
}

/// The structure matrix `A'` as bitmask-only blocks: entry `(i, j)` = 1
/// iff there is an edge `j → i` ("rows are destination vertices, columns
/// are source vertices").
pub struct AdjacencyMatrix {
    num_vertices: usize,
    block_size: usize,
    grid: usize,
    rdd: Rdd<(u64, AdjBlock)>,
}

impl AdjacencyMatrix {
    /// Builds the blocks from a graph's edges through one shuffle
    /// (edge → owning block), storing each block as a flat or hierarchical
    /// bitmask depending on its density. `super_sparse` forces the
    /// hierarchical mode (the setting used for LiveJournal in §VII-C).
    pub fn from_graph(
        graph: &Graph,
        block_size: usize,
        super_sparse: bool,
    ) -> Result<Self, JobError> {
        let n = graph.num_vertices();
        let grid = n.div_ceil(block_size);
        let num_partitions = graph.edges().num_partitions().max(1);

        // Key each edge by its block id; rows (destinations) vary fastest,
        // matching the ArrayRDD mapper convention.
        let bs = block_size as u64;
        let grid64 = grid as u64;
        let keyed = graph.edges().map(move |(src, dst)| {
            let (gr, gc) = (dst / bs, src / bs);
            let block_id = gr + gc * grid64;
            let local = (dst % bs) + (src % bs) * bs;
            (block_id, local as u32)
        });
        // Place every block on the partition of its block row, so each
        // iteration's partial-segment reduce (`matvec`) is shuffle-free.
        let partitioner = Arc::new(RowBlockPartitioner {
            grid: grid64,
            num_partitions,
        });
        let sig = partitioner.sig();
        let grouped = keyed.group_by_key(partitioner);
        let n_copy = n;
        let rdd = grouped.map(move |(block_id, locals)| {
            let gr = (block_id % grid64) as usize;
            let gc = (block_id / grid64) as usize;
            let rows = block_size.min(n_copy - gr * block_size);
            let cols = block_size.min(n_copy - gc * block_size);
            // Locals were computed with the nominal block size; re-map to
            // the clipped extent.
            let mut mask = Bitmask::zeros(rows * cols);
            for l in &locals {
                let r = (*l as usize) % block_size;
                let c = (*l as usize) / block_size;
                mask.set(r + c * rows, true);
            }
            (block_id, AdjBlock::from_mask(mask, super_sparse))
        });
        let rdd = rdd.assert_partitioned(sig);
        rdd.persist();
        Ok(AdjacencyMatrix {
            num_vertices: n,
            block_size,
            grid,
            rdd,
        })
    }

    /// Number of vertices (`A'` is `n × n`).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The block RDD.
    pub fn rdd(&self) -> &Rdd<(u64, AdjBlock)> {
        &self.rdd
    }

    /// Total bytes of mask storage — the memory the bitmask representation
    /// saves over an 8-bytes-per-edge payload matrix.
    pub fn mem_bytes(&self) -> Result<usize, JobError> {
        self.rdd
            .aggregate(0usize, |acc, (_, b)| acc + b.mem_size(), |a, b| a + b)
    }

    /// `y = A'·q` with a broadcast vector: per block, every set bit
    /// `(i, j)` contributes `q[j]` to `y[i]`; partial row segments reduce
    /// per block row.
    pub fn matvec(&self, q: &[f64]) -> Result<Vec<f64>, JobError> {
        assert_eq!(q.len(), self.num_vertices, "dimension mismatch in A'q");
        let ctx = self.context();
        let bc = ctx.broadcast(q.to_vec());
        let bs = self.block_size;
        let grid = self.grid as u64;
        let n = self.num_vertices;
        let partials = self.rdd.map(move |(block_id, block)| {
            let gr = (block_id % grid) as usize;
            let gc = (block_id / grid) as usize;
            let rows = bs.min(n - gr * bs);
            let col_base = gc * bs;
            let q = bc.value();
            let mut acc = vec![0.0f64; rows];
            block.for_each_edge(|local| {
                let i = local % rows;
                let j = local / rows;
                acc[i] += q[col_base + j];
            });
            (block_id % grid, acc)
        });
        let n_parts = self.rdd.num_partitions();
        // The build-time layout put every block of block row `gr` on
        // partition `gr % n_parts`, so the re-keyed partials already sit
        // exactly where a modulo reduce wants them; assert that invariant
        // and the planner turns the per-iteration shuffle into a narrow
        // pass-through.
        let partials =
            partials.assert_partitioned(Partitioner::<u64>::sig(&ModPartitioner::new(n_parts)));
        let reduced = partials.reduce_by_key(Arc::new(ModPartitioner::new(n_parts)), |mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        });
        let mut out = vec![0.0; self.num_vertices];
        for (gr, seg) in reduced.collect()? {
            let base = gr as usize * self.block_size;
            out[base..base + seg.len()].copy_from_slice(&seg);
        }
        Ok(out)
    }

    /// Distinct out-degree of every vertex: the column population counts
    /// of `A'`. Because the bitmask stores each edge once, this is the
    /// degree vector consistent with the structure matrix even when the
    /// input edge list contains duplicates.
    pub fn col_counts(&self) -> Result<Vec<u64>, JobError> {
        let bs = self.block_size;
        let grid = self.grid as u64;
        let n = self.num_vertices;
        let counts = self.rdd.run_partitions(move |_, blocks| {
            let mut local: Vec<(u64, Vec<u64>)> = Vec::new();
            for (block_id, block) in blocks {
                let gr = (block_id % grid) as usize;
                let gc = (block_id / grid) as usize;
                let rows = bs.min(n - gr * bs);
                let cols = bs.min(n - gc * bs);
                let mut acc = vec![0u64; cols];
                block.for_each_edge(|local_off| {
                    acc[local_off / rows] += 1;
                });
                local.push((gc as u64, acc));
            }
            local
        })?;
        let mut out = vec![0u64; self.num_vertices];
        for part in counts {
            for (gc, acc) in part {
                let base = gc as usize * self.block_size;
                for (j, c) in acc.iter().enumerate() {
                    out[base + j] += c;
                }
            }
        }
        Ok(out)
    }

    fn context(&self) -> SpangleContext {
        self.rdd.context().clone()
    }
}

/// Outcome of a PageRank run, including the paper's per-step timing
/// (Fig. 11 reports both end-to-end and per-iteration times).
pub struct PageRankResult {
    /// Final rank vector (sums to ~1 with no dangling mass correction).
    pub ranks: DenseVector,
    /// Wall time of every iteration.
    pub iteration_times: Vec<Duration>,
    /// Wall time of matrix construction (graph → adjacency blocks).
    pub build_time: Duration,
}

/// Runs the customised PageRank of §VI-B on `graph`.
///
/// The adjacency matrix is built and cached for the iterations of this
/// call; its blocks leave the cache with the matrix when the call returns.
pub fn pagerank(
    graph: &Graph,
    block_size: usize,
    super_sparse: bool,
    alpha: f64,
    iterations: usize,
) -> Result<PageRankResult, JobError> {
    let n = graph.num_vertices();
    let t0 = Instant::now();
    let adj = AdjacencyMatrix::from_graph(graph, block_size, super_sparse)?;
    // Materialise the blocks (they are persisted).
    adj.rdd().count()?;
    // w = 1/outdeg over *distinct* out-edges (the bitmask stores each edge
    // once); 0 for dangling vertices.
    let w: Vec<f64> = adj
        .col_counts()?
        .into_iter()
        .map(|d| if d == 0 { 0.0 } else { 1.0 / d as f64 })
        .collect();
    let build_time = t0.elapsed();

    let mut p = vec![1.0 / n as f64; n];
    let mut iteration_times = Vec::with_capacity(iterations);
    let teleport = (1.0 - alpha) / n as f64;
    for _ in 0..iterations {
        let t = Instant::now();
        // q = w ∘ p on the driver (both vectors are |V|-sized).
        let q: Vec<f64> = w.iter().zip(&p).map(|(w, p)| w * p).collect();
        let y = adj.matvec(&q)?;
        for (pi, yi) in p.iter_mut().zip(&y) {
            *pi = alpha * yi + teleport;
        }
        iteration_times.push(t.elapsed());
    }
    Ok(PageRankResult {
        ranks: DenseVector::column(p),
        iteration_times,
        build_time,
    })
}

/// Reference single-machine PageRank over an explicit edge list, for
/// correctness checks. Duplicate edges are collapsed, matching the 0/1
/// connectivity-matrix semantics of §VI-B.
pub fn pagerank_reference(
    num_vertices: usize,
    edges: &[(u64, u64)],
    alpha: f64,
    iterations: usize,
) -> Vec<f64> {
    let n = num_vertices;
    let edges: Vec<(u64, u64)> = edges
        .iter()
        .copied()
        .collect::<std::collections::HashSet<_>>()
        .into_iter()
        .collect();
    let mut outdeg = vec![0u64; n];
    for &(s, _) in &edges {
        outdeg[s as usize] += 1;
    }
    let mut p = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let mut next = vec![(1.0 - alpha) / n as f64; n];
        for &(s, d) in &edges {
            next[d as usize] += alpha * p[s as usize] / outdeg[s as usize] as f64;
        }
        p = next;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond(ctx: &SpangleContext) -> Graph {
        // 0 -> {1,2}, 1 -> 3, 2 -> 3, 3 -> 0.
        Graph::from_edges(ctx, 4, vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)], 2)
    }

    #[test]
    fn adjacency_blocks_store_every_edge_once() {
        let ctx = SpangleContext::new(2);
        let g = diamond(&ctx);
        let adj = AdjacencyMatrix::from_graph(&g, 2, false).unwrap();
        let total: usize = adj
            .rdd()
            .aggregate(0usize, |acc, (_, b)| acc + b.num_edges(), |a, b| a + b)
            .unwrap();
        assert_eq!(total, 5);
    }

    #[test]
    fn mask_matvec_matches_dense_reference() {
        let ctx = SpangleContext::new(2);
        let edges = vec![(0u64, 1u64), (0, 2), (1, 3), (2, 3), (3, 0), (3, 1)];
        let g = Graph::from_edges(&ctx, 5, edges.clone(), 2);
        let adj = AdjacencyMatrix::from_graph(&g, 2, false).unwrap();
        let q: Vec<f64> = (0..5).map(|i| (i + 1) as f64).collect();
        let got = adj.matvec(&q).unwrap();
        let mut expected = vec![0.0; 5];
        for (s, d) in edges {
            expected[d as usize] += q[s as usize];
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn pagerank_matches_reference_on_small_graph() {
        let ctx = SpangleContext::new(2);
        let edges = vec![(0u64, 1u64), (0, 2), (1, 3), (2, 3), (3, 0)];
        let g = Graph::from_edges(&ctx, 4, edges.clone(), 2);
        for super_sparse in [false, true] {
            let result = pagerank(&g, 2, super_sparse, 0.85, 20).unwrap();
            let expected = pagerank_reference(4, &edges, 0.85, 20);
            for (i, (a, b)) in result.ranks.as_slice().iter().zip(&expected).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "vertex {i} (super_sparse={super_sparse}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn pagerank_matches_reference_on_power_law_graph() {
        let ctx = SpangleContext::new(4);
        let g = Graph::power_law(&ctx, 300, 3000, 11, 4);
        let edges = g.edges().collect().unwrap();
        let result = pagerank(&g, 64, false, 0.85, 10).unwrap();
        let expected = pagerank_reference(300, &edges, 0.85, 10);
        for (i, (a, b)) in result.ranks.as_slice().iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-9, "vertex {i}: {a} vs {b}");
        }
        assert_eq!(result.iteration_times.len(), 10);
    }

    #[test]
    fn bitmask_blocks_beat_payload_blocks_on_memory() {
        let ctx = SpangleContext::new(2);
        // ~3% density: the regime where the paper keeps flat masks
        // (1 bit/cell beats 8 B/edge above ~1.6% density).
        let g = Graph::power_law(&ctx, 4096, 500_000, 5, 4);
        let adj = AdjacencyMatrix::from_graph(&g, 512, false).unwrap();
        let mask_bytes = adj.mem_bytes().unwrap();
        let edges = g.num_edges().unwrap();
        assert!(
            mask_bytes < edges * 8,
            "bitmask blocks ({mask_bytes} B) should undercut 8 B/edge ({} B)",
            edges * 8
        );
    }

    #[test]
    fn hierarchical_blocks_shrink_super_sparse_graphs() {
        let ctx = SpangleContext::new(2);
        // 16k vertices, only 2k edges: blocks are overwhelmingly empty.
        let g = Graph::power_law(&ctx, 16_384, 2_000, 9, 4);
        let flat = AdjacencyMatrix::from_graph(&g, 2048, false)
            .unwrap()
            .mem_bytes()
            .unwrap();
        let hier = AdjacencyMatrix::from_graph(&g, 2048, true)
            .unwrap()
            .mem_bytes()
            .unwrap();
        assert!(
            hier * 2 < flat,
            "hierarchical masks ({hier} B) should at least halve flat masks ({flat} B)"
        );
    }
}
