//! The three `MᵀM` workloads: one kernel-bound, one shuffle-bound, and the
//! shuffle-bound one again under a memory watermark so blocks take the
//! spill tier.

use super::{close, executors, Batch, Prepared, Running, Spec, Traced};
use crate::gen::{sparse_entry, sub_seed};
use crate::stats;
use spangle_core::aggregate::builtin::{Stats, StatsSummary};
use spangle_core::ChunkPolicy;
use spangle_dataflow::SpangleContext;
use spangle_linalg::DistMatrix;
use std::time::{Duration, Instant};

pub const HYPERSPARSE: Spec = Spec {
    name: "gram_hypersparse",
    why: "block-GEMM kernel-bound (hardesty-like): shuffle and scheduler are negligible",
    work_unit: "block products",
    prepare: |seed| prepare_gram(seed, &HYPERSPARSE_SHAPE),
};

pub const SHUFFLE: Spec = Spec {
    name: "gram_shuffle",
    why: "the most shuffle- and memory-heavy user-facing op (mouse-like): coalescing, fetch and speculation show here",
    work_unit: "block products",
    prepare: |seed| prepare_gram(seed, &SHUFFLE_SHAPE),
};

pub const SPILL: Spec = Spec {
    name: "gram_spill",
    why: "gram_shuffle under a 64 MiB watermark: the same shuffle layer through the spill tier, so a gain that costs spilling shows",
    work_unit: "block products",
    prepare: |seed| prepare_gram(seed, &SPILL_SHAPE),
};

struct Shape {
    n: usize,
    block: usize,
    per_million: u64,
    /// The one non-default setting in the benchmark.
    watermark_bytes: Option<usize>,
}

/// Hardesty-like: density 1e-3.
const HYPERSPARSE_SHAPE: Shape = Shape {
    n: 12288,
    block: 512,
    per_million: 1_000,
    watermark_bytes: None,
};

/// Mouse-like: density 0.014.
const SHUFFLE_SHAPE: Shape = Shape {
    n: 4096,
    block: 256,
    per_million: 14_000,
    watermark_bytes: None,
};

const SPILL_SHAPE: Shape = Shape {
    watermark_bytes: Some(64 << 20),
    ..SHUFFLE_SHAPE
};

/// What the oracle knows about `MᵀM`.
#[derive(Clone, Copy)]
struct GramOracle {
    input_nnz: usize,
    nnz: usize,
    sum: f64,
    /// Pairs of non-empty blocks `(Mᵀ)[a, i] · M[i, b]` the engine must
    /// multiply: the op's work unit.
    block_products: usize,
}

struct GramPrepared {
    shape: &'static Shape,
    seed: u64,
    oracle: GramOracle,
    oracle_op: Duration,
}

fn prepare_gram(seed: u64, shape: &'static Shape) -> Box<dyn Prepared> {
    // All three draw the same stream, so `gram_spill` multiplies exactly
    // the matrix `gram_shuffle` does and their checksums must agree.
    let seed = sub_seed(seed, shape.per_million);
    let entry = sparse_entry(seed, shape.per_million);
    let n = shape.n;
    let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for (c, col) in cols.iter_mut().enumerate() {
        for (r, row) in rows.iter_mut().enumerate() {
            if let Some(v) = entry(r, c) {
                col.push((r as u32, v));
                row.push((c as u32, v));
            }
        }
    }
    let started = Instant::now();
    let oracle = reference_gram(shape, &rows, &cols);
    Box::new(GramPrepared {
        shape,
        seed,
        oracle,
        oracle_op: started.elapsed(),
    })
}

/// Sequential `MᵀM`, one output column at a time:
/// `G[k, j] = Σ_i M[i, k]·M[i, j]` over a dense accumulator that is reset
/// through its touched list.
fn reference_gram(shape: &Shape, rows: &[Vec<(u32, f64)>], cols: &[Vec<(u32, f64)>]) -> GramOracle {
    let n = shape.n;
    let grid = n.div_ceil(shape.block);
    let mut acc = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    let (mut nnz, mut sum) = (0usize, 0.0f64);
    for col in cols {
        for &(i, vij) in col {
            for &(k, vik) in &rows[i as usize] {
                if acc[k as usize] == 0.0 {
                    touched.push(k);
                }
                acc[k as usize] += vik * vij;
            }
        }
        nnz += touched.len();
        for k in touched.drain(..) {
            sum += std::mem::take(&mut acc[k as usize]);
        }
    }
    // Non-empty blocks per block row; every pair within a row is one
    // product the engine performs.
    let mut occupied = vec![false; grid * grid];
    for (c, col) in cols.iter().enumerate() {
        for &(r, _) in col {
            occupied[r as usize / shape.block + (c / shape.block) * grid] = true;
        }
    }
    let block_products = (0..grid)
        .map(|gr| {
            let in_row = (0..grid).filter(|gc| occupied[gr + gc * grid]).count();
            in_row * in_row
        })
        .sum();
    GramOracle {
        input_nnz: cols.iter().map(Vec::len).sum(),
        nnz,
        sum,
        block_products,
    }
}

/// Context, generated matrix, persist, count.
fn ingest(
    seed: u64,
    shape: &Shape,
    watermark_bytes: Option<usize>,
) -> (SpangleContext, DistMatrix, usize) {
    let ctx = match watermark_bytes {
        Some(bytes) => SpangleContext::builder()
            .executors(executors())
            .memory_high_watermark_bytes(bytes)
            .build(),
        None => SpangleContext::new(executors()),
    };
    let matrix = DistMatrix::generate(
        &ctx,
        shape.n,
        shape.n,
        (shape.block, shape.block),
        ChunkPolicy::default(),
        sparse_entry(seed, shape.per_million),
    );
    matrix.persist();
    let ingested = matrix.nnz().expect("ingest");
    (ctx, matrix, ingested)
}

impl Prepared for GramPrepared {
    fn set_up(&self) -> Box<dyn Running> {
        let shape = self.shape;
        let (ctx, matrix, ingested) = ingest(self.seed, shape, shape.watermark_bytes);
        // The warm-up evaluates the same product through an aggregate, so
        // the sum of `MᵀM` is checked once as well as its non-zero count.
        let warm = matrix.gram().array().aggregate(Stats);
        let warm_ok = ingested == self.oracle.input_nnz
            && warm.is_some_and(|s| {
                s.count as usize == self.oracle.nnz
                    && close(s.mean, self.oracle.sum / self.oracle.nnz as f64)
            });
        Box::new(GramRunning {
            shape,
            seed: self.seed,
            ctx,
            matrix,
            oracle: self.oracle,
            warm,
            warm_ok,
        })
    }

    fn work_per_op(&self) -> f64 {
        self.oracle.block_products as f64
    }

    fn oracle_op(&self) -> Duration {
        self.oracle_op
    }
}

struct GramRunning {
    ctx: SpangleContext,
    matrix: DistMatrix,
    oracle: GramOracle,
    /// Count and mean of the warm-up's `MᵀM`.
    warm: Option<StatsSummary>,
    warm_ok: bool,
    shape: &'static Shape,
    seed: u64,
}

impl Running for GramRunning {
    fn run(&mut self, _budget: Duration) -> Batch {
        let started = Instant::now();
        let nnz = self.matrix.gram().nnz();
        let elapsed = started.elapsed();
        let spilled = self.ctx.metrics_snapshot().blocks_spilled > 0;
        let ok = self.warm_ok
            && nnz.is_ok_and(|nnz| nnz == self.oracle.nnz)
            && (spilled || self.shape.watermark_bytes.is_none());
        Batch {
            op_times: vec![elapsed],
            failed: usize::from(!ok),
            parts: vec![("gram", elapsed)],
            fills_window: false,
        }
    }

    fn layer_metrics(&mut self, traced: &Traced) -> Vec<(&'static str, f64)> {
        // The op's job runs three stages: lay the blocks out by row block,
        // multiply co-located pairs, reduce partial products per output
        // block (the result stage).
        let stage_ms = |from_end: usize| {
            let walls: Vec<f64> = traced
                .calls
                .iter()
                .filter_map(|call| call.reports.last())
                .filter_map(|job| job.stages.iter().rev().nth(from_end))
                .map(|stage| stage.wall_nanos as f64 / 1e6)
                .collect();
            if walls.is_empty() {
                0.0
            } else {
                stats::quiet(&walls)
            }
        };
        let mut out = vec![
            ("linalg.gram_multiply_stage_ms", stage_ms(1)),
            ("linalg.gram_reduce_stage_ms", stage_ms(0)),
            (
                "linalg.gram_block_products_per_op",
                self.oracle.block_products as f64,
            ),
        ];
        if self.shape.watermark_bytes.is_some() {
            // The same matrix without the watermark, for the price of the
            // spill tier: base is the faster of two unspilled ops after
            // one warm-up.
            let (twin_ctx, twin, _) = ingest(self.seed, self.shape, None);
            let mut times = Vec::new();
            for _ in 0..3 {
                let started = Instant::now();
                twin.gram().nnz().expect("unspilled twin");
                times.push(started.elapsed().as_secs_f64());
            }
            super::retire_context(twin_ctx, twin);
            out.push((
                "spill.slowdown_ratio",
                traced.op_time.as_secs_f64() / times[1].min(times[2]),
            ));
        }
        out
    }

    fn ctx(&self) -> &SpangleContext {
        &self.ctx
    }

    fn checksum(&self) -> String {
        self.warm.map_or_else(String::new, |s| {
            format!("nnz={} mean={:.9e}", s.count, s.mean)
        })
    }
}
