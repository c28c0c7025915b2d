//! `sgd_steps`: logistic-regression training runs of a few hundred tiny
//! jobs each, on a KDD10-like training set.

use super::{digest, executors, Batch, Prepared, Running, Spec, Traced};
use crate::gen::sub_seed;
use spangle_dataflow::SpangleContext;
use spangle_ml::datasets::{synthetic_logreg, KDD10_LIKE};
use spangle_ml::sgd::SampleBlock;
use spangle_ml::{LogisticRegression, SgdConfig, TrainSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SPEC: Spec = Spec {
    name: "sgd_steps",
    why: "thousands of tiny jobs: scheduler and executor per-job and per-task overhead is a large share, kernels a small one",
    work_unit: "SGD steps",
    prepare,
};

const PARTITIONS: usize = 8;
/// Steps per `train` call: fewer than the 256 job reports a default
/// context retains, so the traced run sees every job of an op.
const STEPS: usize = 200;
const BATCH_CHUNKS: usize = 4;
/// How far below the sequential reference's training accuracy the
/// system's may fall: the two sample different batches.
const ACCURACY_SLACK: f64 = 0.03;

fn config() -> SgdConfig {
    SgdConfig {
        max_iters: STEPS,
        batch_chunks: BATCH_CHUNKS,
        tolerance: 0.0,
        ..SgdConfig::default()
    }
}

fn train_set(ctx: &SpangleContext, seed: u64) -> TrainSet {
    synthetic_logreg(
        ctx,
        PARTITIONS,
        KDD10_LIKE.chunks_per_partition,
        KDD10_LIKE.rows_per_chunk,
        KDD10_LIKE.num_features,
        KDD10_LIKE.nnz_per_row,
        seed,
    )
}

struct SgdPrepared {
    seed: u64,
    blocks: Arc<Vec<SampleBlock>>,
    accuracy_floor: f64,
    oracle_op: Duration,
}

fn prepare(seed: u64) -> Box<dyn Prepared> {
    let seed = sub_seed(seed, 1);
    let ctx = SpangleContext::new(executors());
    let data = train_set(&ctx, seed);
    let mut keyed = data.rdd().collect().expect("row generation");
    super::retire_context(ctx, data);
    keyed.sort_unstable_by_key(|(id, _)| *id);
    let blocks: Vec<SampleBlock> = keyed.into_iter().map(|(_, block)| block).collect();
    let started = Instant::now();
    let weights = reference_train(&blocks);
    let oracle_op = started.elapsed();
    Box::new(SgdPrepared {
        seed,
        accuracy_floor: accuracy(&blocks, &weights) - ACCURACY_SLACK,
        blocks: Arc::new(blocks),
        oracle_op,
    })
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Sequential mini-batch SGD with the op's step count, batch size and
/// step size, walking the chunks round-robin.
fn reference_train(blocks: &[SampleBlock]) -> Vec<f64> {
    let cfg = config();
    let mut x = vec![0.0f64; KDD10_LIKE.num_features];
    let per_step = BATCH_CHUNKS * PARTITIONS;
    for step in 0..STEPS {
        let mut grad = vec![0.0f64; x.len()];
        let mut total = 0usize;
        for i in 0..per_step {
            let block = &blocks[(step * per_step + i) % blocks.len()];
            for (row, &label) in block.rows.iter().zip(&block.labels) {
                let margin: f64 = row.iter().map(|&(j, v)| x[j as usize] * v).sum();
                let err = sigmoid(margin) - label;
                for &(j, v) in row {
                    grad[j as usize] += err * v;
                }
            }
            total += block.rows.len();
        }
        let scale = cfg.step_size / total as f64;
        for (xi, gi) in x.iter_mut().zip(&grad) {
            *xi -= scale * gi;
        }
    }
    x
}

/// Training accuracy of `weights`, computed by the benchmark.
fn accuracy(blocks: &[SampleBlock], weights: &[f64]) -> f64 {
    let (mut correct, mut total) = (0usize, 0usize);
    for block in blocks {
        for (row, &label) in block.rows.iter().zip(&block.labels) {
            let margin: f64 = row.iter().map(|&(j, v)| weights[j as usize] * v).sum();
            correct += usize::from((margin >= 0.0) == (label == 1.0));
            total += 1;
        }
    }
    correct as f64 / total as f64
}

impl Prepared for SgdPrepared {
    fn set_up(&self) -> Box<dyn Running> {
        let ctx = SpangleContext::new(executors());
        let data = train_set(&ctx, self.seed);
        data.persist();
        data.rdd().count().expect("ingest");
        let mut running = SgdRunning {
            ctx,
            data,
            blocks: self.blocks.clone(),
            accuracy_floor: self.accuracy_floor,
            first: None,
        };
        running.run(Duration::ZERO);
        Box::new(running)
    }

    fn work_per_op(&self) -> f64 {
        STEPS as f64
    }

    fn oracle_op(&self) -> Duration {
        self.oracle_op
    }
}

struct SgdRunning {
    ctx: SpangleContext,
    data: TrainSet,
    blocks: Arc<Vec<SampleBlock>>,
    accuracy_floor: f64,
    first: Option<u64>,
}

impl Running for SgdRunning {
    fn run(&mut self, _budget: Duration) -> Batch {
        let started = Instant::now();
        let model = LogisticRegression::train(&self.data, config());
        let elapsed = started.elapsed();
        let ok = model.is_ok_and(|model| {
            let weights = model.weights.as_slice();
            let digest = digest(weights);
            model.iterations == STEPS
                && *self.first.get_or_insert(digest) == digest
                && accuracy(&self.blocks, weights) >= self.accuracy_floor
        });
        Batch {
            op_times: vec![elapsed],
            failed: usize::from(!ok),
            parts: vec![("train", elapsed)],
            fills_window: false,
        }
    }

    fn layer_metrics(&mut self, traced: &Traced) -> Vec<(&'static str, f64)> {
        let steps = (traced.ops() * STEPS) as f64;
        let nnz_per_step =
            (BATCH_CHUNKS * PARTITIONS * KDD10_LIKE.rows_per_chunk * KDD10_LIKE.nnz_per_row) as f64;
        let step_s = traced.op_time.as_secs_f64() / STEPS as f64;
        vec![
            ("ml.sgd_step_us", step_s * 1e6),
            ("ml.sgd_jobs_per_step", traced.jobs() as f64 / steps),
            ("ml.sgd_ns_per_nnz", step_s * 1e9 / nnz_per_step),
        ]
    }

    fn ctx(&self) -> &SpangleContext {
        &self.ctx
    }

    fn checksum(&self) -> String {
        self.first
            .map_or_else(String::new, |d| format!("weights={d:016x}"))
    }
}
