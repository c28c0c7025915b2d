//! `matvec_stream`: `M·x` then `xᵀ·M` on a persisted sparse matrix.

use super::{all_close, digest, executors, Batch, Prepared, Running, Spec, Traced};
use crate::gen::{dense_vector, sparse_entry, sub_seed};
use spangle_core::ChunkPolicy;
use spangle_dataflow::SpangleContext;
use spangle_linalg::{DenseVector, DistMatrix};
use std::time::{Duration, Instant};

pub const SPEC: Spec = Spec {
    name: "matvec_stream",
    why: "the per-non-zero bitmask-iteration kernel with a tiny shuffle and one job per call",
    work_unit: "non-zeros visited",
    prepare,
};

const N: usize = 8192;
const BLOCK: usize = 256;
/// Density 0.05.
const PER_MILLION: u64 = 50_000;

struct MatvecPrepared {
    seed: u64,
    x_col: Vec<f64>,
    x_row: Vec<f64>,
    /// Reference `M·x_col` and `x_rowᵀ·M`.
    oracle: (Vec<f64>, Vec<f64>),
    nnz: usize,
    oracle_op: Duration,
}

fn prepare(seed: u64) -> Box<dyn Prepared> {
    let matrix_seed = sub_seed(seed, 1);
    let x_col = dense_vector(sub_seed(seed, 2), N);
    let x_row = dense_vector(sub_seed(seed, 3), N);
    let entry = sparse_entry(matrix_seed, PER_MILLION);
    let started = Instant::now();
    let mut y = vec![0.0f64; N];
    let mut z = vec![0.0f64; N];
    let mut nnz = 0usize;
    for c in 0..N {
        for r in 0..N {
            if let Some(v) = entry(r, c) {
                y[r] += v * x_col[c];
                z[c] += v * x_row[r];
                nnz += 1;
            }
        }
    }
    Box::new(MatvecPrepared {
        seed: matrix_seed,
        x_col,
        x_row,
        oracle: (y, z),
        nnz,
        oracle_op: started.elapsed(),
    })
}

impl Prepared for MatvecPrepared {
    fn set_up(&self) -> Box<dyn Running> {
        let ctx = SpangleContext::new(executors());
        let matrix = DistMatrix::generate(
            &ctx,
            N,
            N,
            (BLOCK, BLOCK),
            ChunkPolicy::default(),
            sparse_entry(self.seed, PER_MILLION),
        );
        matrix.persist();
        let ingested = matrix.nnz().expect("ingest");
        let mut running = MatvecRunning {
            ctx,
            matrix,
            x_col: DenseVector::column(self.x_col.clone()),
            x_row: DenseVector::row(self.x_row.clone()),
            oracle: self.oracle.clone(),
            nnz: ingested,
            ingest_ok: ingested == self.nnz,
            first: None,
        };
        running.run(Duration::ZERO);
        Box::new(running)
    }

    fn work_per_op(&self) -> f64 {
        (2 * self.nnz) as f64
    }

    fn oracle_op(&self) -> Duration {
        self.oracle_op
    }
}

struct MatvecRunning {
    ctx: SpangleContext,
    matrix: DistMatrix,
    x_col: DenseVector,
    x_row: DenseVector,
    oracle: (Vec<f64>, Vec<f64>),
    nnz: usize,
    ingest_ok: bool,
    /// Digests of the first op's two results.
    first: Option<(u64, u64)>,
}

impl Running for MatvecRunning {
    fn run(&mut self, _budget: Duration) -> Batch {
        let started = Instant::now();
        let y = self.matrix.matvec(&self.x_col);
        let mid = Instant::now();
        let z = self.matrix.vecmat(&self.x_row);
        let done = Instant::now();
        let ok = match (&y, &z) {
            (Ok(y), Ok(z)) => {
                let digests = (digest(y.as_slice()), digest(z.as_slice()));
                self.ingest_ok
                    && all_close(y.as_slice(), &self.oracle.0)
                    && all_close(z.as_slice(), &self.oracle.1)
                    && *self.first.get_or_insert(digests) == digests
            }
            _ => false,
        };
        Batch {
            op_times: vec![done - started],
            failed: usize::from(!ok),
            parts: vec![("matvec", mid - started), ("vecmat", done - mid)],
            fills_window: false,
        }
    }

    fn layer_metrics(&mut self, traced: &Traced) -> Vec<(&'static str, f64)> {
        let per_nnz = |part: &str| traced.part_ms(part) * 1e6 / self.nnz as f64;
        vec![
            ("linalg.matvec_ns_per_nnz", per_nnz("matvec")),
            ("linalg.vecmat_ns_per_nnz", per_nnz("vecmat")),
        ]
    }

    fn ctx(&self) -> &SpangleContext {
        &self.ctx
    }

    fn checksum(&self) -> String {
        self.first
            .map_or_else(String::new, |(y, z)| format!("y={y:016x} z={z:016x}"))
    }
}
