//! `pagerank_iter`: iterations of the bitmask-adjacency PageRank on a
//! twitter-like power-law graph.
//!
//! `pagerank` takes its iteration count up front and builds (and caches,
//! for the life of the context) a new adjacency matrix on every call, so
//! the measuring window is *one* call, its iteration count sized from the
//! warm-up call's iteration time; the ops are its `iteration_times`.

use super::{all_close, executors, Batch, Prepared, Running, Spec, Traced};
use crate::gen::sub_seed;
use crate::stats;
use spangle_dataflow::SpangleContext;
use spangle_ml::pagerank::pagerank_reference;
use spangle_ml::{pagerank, Graph};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SPEC: Spec = Spec {
    name: "pagerank_iter",
    why: "iterative reuse: cache hits, elided shuffles and a driver round trip per iteration",
    work_unit: "edges traversed",
    prepare,
};

const VERTICES: usize = 65_536;
const EDGES: usize = 1_500_000;
const EDGE_PARTITIONS: usize = 8;
const BLOCK: usize = 256;
const ALPHA: f64 = 0.85;
/// Iterations of the warm-up call, which is checked against
/// `pagerank_reference` exactly. Its adjacency build counts to `setup_s`.
const WARM_ITERATIONS: usize = 10;
/// The graph as the oracle sees it: distinct edges and out-degrees.
struct Reference {
    edges: Vec<(u64, u64)>,
    out_degree: Vec<u64>,
    /// `pagerank_reference` after [`WARM_ITERATIONS`].
    warm_ranks: Vec<f64>,
}

impl Reference {
    /// `‖F(p) − p‖₁` for one sequential PageRank step `F`.
    ///
    /// `F` contracts the L1 norm by `α`, so ranks after `n` iterations
    /// from any start satisfy `‖F(p) − p‖₁ ≤ α ⁿ·‖p₁ − p₀‖₁ ≤ 2·αⁿ`: a
    /// check of an `n`-iteration result that does not need `n` reference
    /// iterations.
    fn residual(&self, ranks: &[f64]) -> f64 {
        let n = ranks.len() as f64;
        let mut next = vec![(1.0 - ALPHA) / n; ranks.len()];
        for &(src, dst) in &self.edges {
            next[dst as usize] +=
                ALPHA * ranks[src as usize] / self.out_degree[src as usize] as f64;
        }
        next.iter().zip(ranks).map(|(a, b)| (a - b).abs()).sum()
    }
}

struct PageRankPrepared {
    seed: u64,
    reference: Arc<Reference>,
    oracle_op: Duration,
}

fn prepare(seed: u64) -> Box<dyn Prepared> {
    let seed = sub_seed(seed, 1);
    let ctx = SpangleContext::new(executors());
    let graph = Graph::power_law(&ctx, VERTICES, EDGES, seed, EDGE_PARTITIONS);
    let mut edges = graph.edges().collect().expect("edge generation");
    super::retire_context(ctx, graph);
    let started = Instant::now();
    let warm_ranks = pagerank_reference(VERTICES, &edges, ALPHA, WARM_ITERATIONS);
    let oracle_op = started.elapsed() / WARM_ITERATIONS as u32;
    edges.sort_unstable();
    edges.dedup();
    let mut out_degree = vec![0u64; VERTICES];
    for &(src, _) in &edges {
        out_degree[src as usize] += 1;
    }
    Box::new(PageRankPrepared {
        seed,
        reference: Arc::new(Reference {
            edges,
            out_degree,
            warm_ranks,
        }),
        oracle_op,
    })
}

impl Prepared for PageRankPrepared {
    fn set_up(&self) -> Box<dyn Running> {
        let ctx = SpangleContext::new(executors());
        let graph = Graph::power_law(&ctx, VERTICES, EDGES, self.seed, EDGE_PARTITIONS);
        graph.edges().persist();
        graph.num_edges().expect("graph generation");
        let mut running = PageRankRunning {
            ctx,
            graph,
            reference: self.reference.clone(),
            iteration_estimate: None,
            warm_ok: false,
            rank_sum: 0.0,
        };
        running.warm_ok = running.run(Duration::ZERO).failed == 0;
        Box::new(running)
    }

    fn work_per_op(&self) -> f64 {
        self.reference.edges.len() as f64
    }

    fn oracle_op(&self) -> Duration {
        self.oracle_op
    }
}

struct PageRankRunning {
    ctx: SpangleContext,
    graph: Graph,
    reference: Arc<Reference>,
    /// Median iteration time of the previous call; `None` before the
    /// warm-up.
    iteration_estimate: Option<Duration>,
    warm_ok: bool,
    /// Sum of the warm-up's ranks, for the checksum. (The ranks themselves
    /// differ in their last bits from call to call: `AdjacencyMatrix::
    /// matvec` adds partial segments in arrival order.)
    rank_sum: f64,
}

impl Running for PageRankRunning {
    fn run(&mut self, budget: Duration) -> Batch {
        let iterations = match self.iteration_estimate {
            None => WARM_ITERATIONS,
            Some(estimate) => {
                let fit = budget.as_secs_f64() / estimate.as_secs_f64();
                (fit.ceil() as usize).clamp(WARM_ITERATIONS, 100_000)
            }
        };
        let Ok(result) = pagerank(&self.graph, BLOCK, false, ALPHA, iterations) else {
            return Batch {
                op_times: vec![Duration::ZERO; iterations],
                failed: iterations,
                parts: Vec::new(),
                fills_window: true,
            };
        };
        let ranks = result.ranks.as_slice();
        let warm_up = self.iteration_estimate.is_none();
        if warm_up {
            self.rank_sum = ranks.iter().sum();
        }
        let ok = (warm_up || self.warm_ok)
            && (iterations != WARM_ITERATIONS || all_close(ranks, &self.reference.warm_ranks))
            && self.reference.residual(ranks) <= 2.0 * ALPHA.powi(iterations as i32) + 1e-9;
        let millis: Vec<f64> = result
            .iteration_times
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        self.iteration_estimate = Some(Duration::from_secs_f64(stats::median(&millis) / 1e3));
        Batch {
            failed: if ok { 0 } else { iterations },
            parts: vec![
                ("adjacency_build", result.build_time),
                ("iterations", result.iteration_times.iter().sum()),
            ],
            op_times: result.iteration_times,
            fills_window: true,
        }
    }

    fn layer_metrics(&mut self, traced: &Traced) -> Vec<(&'static str, f64)> {
        let iter_ms = traced.op_time.as_secs_f64() * 1e3;
        vec![
            ("ml.pagerank_build_ms", traced.part_ms("adjacency_build")),
            ("ml.pagerank_iter_ms", iter_ms),
            (
                "ml.pagerank_ns_per_edge",
                iter_ms * 1e6 / self.reference.edges.len() as f64,
            ),
        ]
    }

    fn ctx(&self) -> &SpangleContext {
        &self.ctx
    }

    fn checksum(&self) -> String {
        format!("rank_sum={:.12}", self.rank_sum)
    }
}
