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
use spangle_core::{ChunkMode, ChunkPolicy, ColumnWalk};
use spangle_dataflow::{JobError, MemSize, PairRdd, Partitioner, PartitionerSig, Rdd};
use spangle_linalg::DenseVector;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Routes a block id to the partition that owns its block *row*
/// (`id % grid`). Laying the adjacency out this way at build time puts
/// every block that contributes to one output row segment in one
/// partition, so [`AdjacencyMatrix::matvec`] finishes each segment where it
/// starts it and has nothing to reduce.
///
/// Block rows are dealt to partitions by a multiplicative hash, not by
/// `row % n`: in a power-law graph a block row's weight follows the bits of
/// its index, so the rows that agree modulo `n` are heavy or light
/// *together* (R-MAT at eight partitions: 44 % of all edges in one
/// partition, 1.4 % in another). Hashed, the heaviest partition holds
/// about twice the median instead of five times — every task of a build or
/// an iteration stays within sight of the others.
struct RowBlockPartitioner {
    layout: BlockGrid,
    num_partitions: usize,
}

impl Partitioner<u64> for RowBlockPartitioner {
    fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    fn partition(&self, key: &u64) -> usize {
        let (block_row, _) = self.layout.position(*key);
        let hashed = (block_row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (hashed % self.num_partitions as u64) as usize
    }

    fn sig(&self) -> PartitionerSig {
        PartitionerSig {
            kind: "row-block",
            num_partitions: self.num_partitions,
            param: self.layout.grid as u64,
        }
    }
}

/// The block grid of an `n × n` structure matrix: block ids number the
/// grid with rows varying fastest (the ArrayRDD mapper convention), and
/// the last block row and column are clipped at `n`.
#[derive(Clone, Copy)]
struct BlockGrid {
    num_vertices: usize,
    block_size: usize,
    grid: usize,
}

impl BlockGrid {
    /// `(block row, block column)` of a block id.
    fn position(&self, block_id: u64) -> (usize, usize) {
        let grid = self.grid as u64;
        ((block_id % grid) as usize, (block_id / grid) as usize)
    }

    /// Clipped extent of block row (or column) `g`.
    fn extent(&self, g: usize) -> usize {
        self.block_size.min(self.num_vertices - g * self.block_size)
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
    /// Builds a block of `volume` cells from its sorted, distinct edge
    /// offsets. The mask is chosen per block by the rule chunks follow
    /// ([`ChunkPolicy::mode_for`]: hierarchical once the flat mask would
    /// outweigh an 8-byte payload per edge) unless `hierarchical_everywhere`
    /// forces it; a hierarchical block never allocates its flat mask.
    fn from_sorted_edges(volume: usize, edges: &[u32], hierarchical_everywhere: bool) -> Self {
        let ones = edges.iter().map(|&e| e as usize);
        let mode = ChunkPolicy::default().mode_for(volume, edges.len());
        if hierarchical_everywhere || mode == ChunkMode::SuperSparse {
            AdjBlock::Hier(HierarchicalBitmask::from_sorted_ones(volume, ones))
        } else {
            AdjBlock::Flat(Bitmask::from_ones(volume, ones))
        }
    }

    /// Calls `f` with the local offset of every edge, ascending.
    #[inline]
    fn for_each_edge(&self, f: impl FnMut(usize)) {
        match self {
            AdjBlock::Flat(m) => m.for_each_one(f),
            AdjBlock::Hier(m) => m.for_each_one(f),
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
        // Each variant travels in its own form, so a block spills at the
        // size it is held at and comes back as the variant it was.
        match self {
            AdjBlock::Flat(m) => {
                out.push(0);
                m.write_le(out);
            }
            AdjBlock::Hier(m) => {
                out.push(1);
                m.write_le(out);
            }
        }
    }

    fn spill_decode(input: &mut spangle_dataflow::SpillCursor<'_>) -> Option<Self> {
        let (block, used) = match input.u8()? {
            0 => {
                let (mask, used) = Bitmask::read_le(input.rest())?;
                (AdjBlock::Flat(mask), used)
            }
            1 => {
                let (mask, used) = HierarchicalBitmask::read_le(input.rest())?;
                (AdjBlock::Hier(mask), used)
            }
            _ => return None,
        };
        input.skip(used)?;
        Some(block)
    }
}

/// The structure matrix `A'` as bitmask-only blocks: entry `(i, j)` = 1
/// iff there is an edge `j → i` ("rows are destination vertices, columns
/// are source vertices").
///
/// Every partition holds its blocks in `(block row, block column)` order,
/// and every block row lives in exactly one partition. The products below
/// rely on both: a partition's pass over its blocks opens each output
/// segment once, and sums into it in an order fixed at build time.
pub struct AdjacencyMatrix {
    layout: BlockGrid,
    rdd: Rdd<(u64, AdjBlock)>,
}

impl AdjacencyMatrix {
    /// Builds the blocks from a graph's edges through one shuffle
    /// (edge → owning block). Each block picks its own mask from its
    /// density — flat, or hierarchical where the flat mask would outweigh
    /// the edges it marks; `super_sparse` stores every block hierarchically
    /// regardless (the setting used for LiveJournal in §VII-C).
    pub fn from_graph(
        graph: &Graph,
        block_size: usize,
        super_sparse: bool,
    ) -> Result<Self, JobError> {
        let n = graph.num_vertices();
        let layout = BlockGrid {
            num_vertices: n,
            block_size,
            grid: n.div_ceil(block_size),
        };
        let num_partitions = graph.edges().num_partitions().max(1);

        // Key each edge by its block id and place it inside the block's
        // clipped extent, rows (destinations) varying fastest.
        let bs = block_size as u64;
        let grid = layout.grid as u64;
        let keyed = graph.edges().map(move |(src, dst)| {
            let (gr, gc) = (dst / bs, src / bs);
            let rows = layout.extent(gr as usize) as u64;
            (gr + gc * grid, ((dst % bs) + (src % bs) * rows) as u32)
        });
        let grouped = keyed.group_by_key(Arc::new(RowBlockPartitioner {
            layout,
            num_partitions,
        }));
        let rdd = grouped.map_partitions(move |groups| {
            let mut blocks: Vec<(u64, AdjBlock)> = groups
                .iter()
                .map(|(block_id, locals)| {
                    let (gr, gc) = layout.position(*block_id);
                    let volume = layout.extent(gr) * layout.extent(gc);
                    let mut edges = locals.clone();
                    edges.sort_unstable();
                    edges.dedup();
                    let block = AdjBlock::from_sorted_edges(volume, &edges, super_sparse);
                    (*block_id, block)
                })
                .collect();
            // Groups arrive in hash order, which differs from build to
            // build; the layout (and with it every sum's order) must not.
            blocks.sort_unstable_by_key(|(block_id, _)| layout.position(*block_id));
            blocks
        });
        rdd.persist();
        Ok(AdjacencyMatrix { layout, rdd })
    }

    /// Number of vertices (`A'` is `n × n`).
    pub fn num_vertices(&self) -> usize {
        self.layout.num_vertices
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

    /// `y = A'·q` with a broadcast vector: every set bit `(i, j)` adds
    /// `q[j]` to `y[i]`. Each partition walks its cached blocks in place
    /// and emits one finished segment per block row it owns — no block is
    /// copied, nothing is shuffled or reduced, and the driver only
    /// concatenates.
    pub fn matvec(&self, q: &[f64]) -> Result<Vec<f64>, JobError> {
        assert_eq!(q.len(), self.num_vertices(), "dimension mismatch in A'q");
        let bc = self.rdd.context().broadcast(q.to_vec());
        let layout = self.layout;
        let segments = self.rdd.map_partitions(move |blocks| {
            let q = bc.value();
            let mut segments: Vec<(usize, Vec<f64>)> = Vec::new();
            for (block_id, block) in blocks {
                let (gr, gc) = layout.position(*block_id);
                let rows = layout.extent(gr);
                // Blocks are sorted by block row: a new row opens a segment.
                if segments.last().is_none_or(|(open, _)| *open != gr) {
                    segments.push((gr, vec![0.0; rows]));
                }
                let (_, segment) = segments.last_mut().expect("a segment is open");
                let q_block = &q[gc * layout.block_size..];
                let mut walk = ColumnWalk::new(rows);
                block.for_each_edge(|local| {
                    let (i, j) = walk.locate(local);
                    segment[i] += q_block[j];
                });
            }
            segments
        });
        let mut out = vec![0.0; self.num_vertices()];
        for (gr, segment) in segments.collect()? {
            let base = gr * self.layout.block_size;
            out[base..base + segment.len()].copy_from_slice(&segment);
        }
        Ok(out)
    }

    /// Distinct out-degree of every vertex: the column population counts
    /// of `A'`. Because the bitmask stores each edge once, this is the
    /// degree vector consistent with the structure matrix even when the
    /// input edge list contains duplicates.
    pub fn col_counts(&self) -> Result<Vec<u64>, JobError> {
        let layout = self.layout;
        let per_partition = self.rdd.run_partitions(move |_, blocks| {
            let mut counts = vec![0u64; layout.num_vertices];
            for (block_id, block) in blocks {
                let (gr, gc) = layout.position(*block_id);
                let block_counts = &mut counts[gc * layout.block_size..];
                let mut walk = ColumnWalk::new(layout.extent(gr));
                block.for_each_edge(|local| block_counts[walk.locate(local).1] += 1);
            }
            counts
        })?;
        let mut out = vec![0u64; self.num_vertices()];
        for counts in per_partition {
            for (total, c) in out.iter_mut().zip(counts) {
                *total += c;
            }
        }
        Ok(out)
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
/// Each block is stored flat or hierarchically by its own density;
/// `super_sparse` stores all of them hierarchically (see
/// [`AdjacencyMatrix::from_graph`]). Ranks are a pure function of the
/// graph and the parameters: repeated calls, and calls that lose tasks on
/// the way, return the same bits.
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
    use spangle_dataflow::SpangleContext;

    /// `(flat, hierarchical)` block counts of an adjacency matrix.
    fn variant_counts(adj: &AdjacencyMatrix) -> (usize, usize) {
        let count = |acc: (usize, usize), (_, b): &(u64, AdjBlock)| match b {
            AdjBlock::Flat(_) => (acc.0 + 1, acc.1),
            AdjBlock::Hier(_) => (acc.0, acc.1 + 1),
        };
        adj.rdd()
            .aggregate((0, 0), count, |a, b| (a.0 + b.0, a.1 + b.1))
            .unwrap()
    }

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
        // ~3% density overall: the regime where the paper keeps flat masks
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
        // The power law concentrates the edges: the blocks that hold most
        // of them (over two thirds) are above 1/64 density and stay flat;
        // the far corners of the grid are not.
        let (in_flat, total) = adj
            .rdd()
            .aggregate(
                (0usize, 0usize),
                |acc, (_, b)| {
                    let flat = matches!(b, AdjBlock::Flat(_)) as usize;
                    (acc.0 + flat * b.num_edges(), acc.1 + b.num_edges())
                },
                |a, b| (a.0 + b.0, a.1 + b.1),
            )
            .unwrap();
        assert!(
            in_flat * 3 > total * 2,
            "{in_flat} of {total} edges sit in flat blocks"
        );
        let (flat, hier) = variant_counts(&adj);
        assert!(flat > 0 && hier > 0, "{flat} flat, {hier} hierarchical");
    }

    #[test]
    fn hierarchical_blocks_shrink_super_sparse_graphs() {
        let ctx = SpangleContext::new(2);
        // 16k vertices, only 2k edges: blocks are overwhelmingly empty, so
        // the per-block rule picks the hierarchical mask for every one.
        let g = Graph::power_law(&ctx, 16_384, 2_000, 9, 4);
        let per_block = AdjacencyMatrix::from_graph(&g, 2048, false).unwrap();
        let (flat, hier) = variant_counts(&per_block);
        assert_eq!(flat, 0, "no block of this graph reaches 1/64 density");
        let forced = AdjacencyMatrix::from_graph(&g, 2048, true).unwrap();
        let per_block = per_block.mem_bytes().unwrap();
        let forced = forced.mem_bytes().unwrap();
        // The per-block choice never exceeds either uniform one: here it
        // *is* the hierarchical one, and both sit far below flat masks.
        assert_eq!(per_block, forced);
        let all_flat = hier * (2048 * 2048 / 8);
        assert!(
            per_block * 16 < all_flat,
            "hierarchical masks ({per_block} B) should be a fraction of flat masks ({all_flat} B)"
        );
    }

    /// A dense community inside a sparse graph: both variants occur under
    /// the per-block rule, no choice costs more than a uniform one, and the
    /// ranks do not care.
    #[test]
    fn mixed_density_graph_uses_both_masks_and_matches_reference() {
        let ctx = SpangleContext::new(3);
        let n = 200usize;
        // Vertices 0..48 form a dense community (one block at block size
        // 64, clipped nowhere); the rest is a sparse ring with chords, and
        // the last block row and column are clipped to 8.
        let mut edges: Vec<(u64, u64)> = Vec::new();
        for s in 0..48u64 {
            for d in 0..48u64 {
                if (s * 7 + d * 3) % 4 != 0 {
                    edges.push((s, d));
                }
            }
        }
        for v in 0..n as u64 {
            edges.push((v, (v + 1) % n as u64));
            edges.push((v, (v * 37 + 11) % n as u64));
        }
        let g = Graph::from_edges(&ctx, n, edges.clone(), 3);
        let expected = pagerank_reference(n, &edges, 0.85, 12);
        let per_block = AdjacencyMatrix::from_graph(&g, 64, false).unwrap();
        let (flat, hier) = variant_counts(&per_block);
        assert!(flat > 0 && hier > 0, "{flat} flat, {hier} hierarchical");
        let forced = AdjacencyMatrix::from_graph(&g, 64, true).unwrap();
        let per_block = per_block.mem_bytes().unwrap();
        let all_flat: usize = (0..n.div_ceil(64))
            .flat_map(|gr| (0..n.div_ceil(64)).map(move |gc| (gr, gc)))
            .map(|(gr, gc)| {
                let extent = |g: usize| 64.min(n - g * 64);
                Bitmask::zeros(extent(gr) * extent(gc)).mem_size()
            })
            .sum();
        assert!(per_block <= forced.mem_bytes().unwrap());
        assert!(per_block <= all_flat);
        for super_sparse in [false, true] {
            let got = pagerank(&g, 64, super_sparse, 0.85, 12).unwrap();
            for (v, (a, b)) in got.ranks.as_slice().iter().zip(&expected).enumerate() {
                assert!((a - b).abs() < 1e-12, "vertex {v}: {a} vs {b}");
            }
        }
    }

    /// Aim 3: the blocks are ordered at build time and each output segment
    /// is summed by one task in that order, so a second run — which groups
    /// its edges in a different hash order — returns the same bits.
    #[test]
    fn repeated_pagerank_calls_are_bit_identical() {
        let ctx = SpangleContext::new(4);
        let g = Graph::power_law(&ctx, 1000, 20_000, 7, 5);
        let bits = |r: &PageRankResult| -> Vec<u64> {
            r.ranks.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        let first = bits(&pagerank(&g, 128, false, 0.85, 10).unwrap());
        for _ in 0..3 {
            assert_eq!(bits(&pagerank(&g, 128, false, 0.85, 10).unwrap()), first);
        }
    }

    #[test]
    fn partitions_hold_their_blocks_in_row_then_column_order() {
        let ctx = SpangleContext::new(2);
        let g = Graph::power_law(&ctx, 700, 9_000, 3, 3);
        let adj = AdjacencyMatrix::from_graph(&g, 64, false).unwrap();
        let grid = 700usize.div_ceil(64) as u64;
        let per_partition = adj
            .rdd()
            .run_partitions(move |split, blocks| {
                let positions: Vec<(u64, u64)> = blocks
                    .iter()
                    .map(|(id, _)| (id % grid, id / grid))
                    .collect();
                (split, positions)
            })
            .unwrap();
        let mut owner = std::collections::HashMap::new();
        for (split, positions) in per_partition {
            assert!(positions.windows(2).all(|w| w[0] < w[1]), "{positions:?}");
            for (gr, _) in positions {
                let owned_by = *owner.entry(gr).or_insert(split);
                assert_eq!(owned_by, split, "block row {gr} in two partitions");
            }
        }
        assert_eq!(owner.len(), grid as usize);
    }

    fn encoded(block: &AdjBlock) -> Vec<u8> {
        let mut buf = Vec::new();
        block.spill_encode(&mut buf);
        buf
    }

    #[test]
    fn spill_codec_keeps_the_variant_and_its_size() {
        let edges: Vec<u32> = vec![3, 64, 65, 4000, 65_535];
        for forced in [false, true] {
            for volume in [65_536usize, 256] {
                let edges: Vec<u32> = edges
                    .iter()
                    .copied()
                    .filter(|&e| (e as usize) < volume)
                    .collect();
                let block = AdjBlock::from_sorted_edges(volume, &edges, forced);
                let buf = encoded(&block);
                let mut cur = spangle_dataflow::SpillCursor::new(&buf);
                let back = AdjBlock::spill_decode(&mut cur).expect("decode");
                assert_eq!(cur.remaining(), 0, "codec must be self-delimiting");
                assert_eq!(
                    std::mem::discriminant(&back),
                    std::mem::discriminant(&block)
                );
                assert_eq!(back.mem_size(), block.mem_size());
                assert_eq!(encoded(&back), buf);
                let mut walked = Vec::new();
                back.for_each_edge(|e| walked.push(e as u32));
                assert_eq!(walked, edges);
            }
        }
        // Five edges of 65 536 cells travel as a few words, not as the
        // 8 KiB flat mask.
        let sparse = AdjBlock::from_sorted_edges(65_536, &edges, false);
        assert!(matches!(sparse, AdjBlock::Hier(_)));
        assert!(encoded(&sparse).len() < 256);
        // Three of 256 cells is above 1/64: flat unless forced.
        let dense = AdjBlock::from_sorted_edges(256, &[3, 64, 65, 200], false);
        assert!(matches!(dense, AdjBlock::Flat(_)));
    }

    /// Mutation fuzzing of both variants' frames: the decoder never
    /// panics, and whatever it accepts is a well-formed block — it walks
    /// within its volume, counts what it walks, and re-encodes to the
    /// bytes it was read from.
    #[test]
    fn spill_codec_survives_mutation_fuzzing() {
        // 1000 cells: the last word of either mask is partial.
        let edges: Vec<u32> = vec![0, 1, 63, 64, 130, 500, 997, 999];
        for forced in [false, true] {
            let frame = encoded(&AdjBlock::from_sorted_edges(1000, &edges, forced));
            spangle_testkit::for_each_mutation(&frame, |bytes| {
                let mut cur = spangle_dataflow::SpillCursor::new(bytes);
                let Some(block) = AdjBlock::spill_decode(&mut cur) else {
                    return;
                };
                let consumed = bytes.len() - cur.remaining();
                let volume = match &block {
                    AdjBlock::Flat(m) => m.len(),
                    AdjBlock::Hier(m) => m.len(),
                };
                let mut walked = 0;
                block.for_each_edge(|e| {
                    assert!(e < volume, "edge {e} beyond volume {volume}");
                    walked += 1;
                });
                assert_eq!(walked, block.num_edges());
                assert!(encoded(&block) == bytes[..consumed], "re-encoding differs");
            });
        }
    }
}
