//! Parallel mini-batch SGD for logistic regression (paper §VI-C).
//!
//! Training data lives in row-block chunks whose IDs follow Eq. 2,
//! `Cn = nP · rID + pID`: partition `pID` *generates* its own chunk IDs in
//! parallel, and at every step it samples chunks by drawing `rID`s and
//! evaluating the equation in reverse — no shuffle ever touches the
//! training matrix. Each step computes the logistic-regression update
//!
//! ```text
//! x ← x − θ · ((h(M_t·x) − y_t)ᵀ M_t)ᵀ          (Eq. 3)
//! ```
//!
//! in one of three optimisation levels (the Fig. 12b ablation):
//!
//! * [`OptLevel::None`] — the textbook `Mᵀ(h(Mx) − y)`: each sampled block
//!   is physically transposed every step;
//! * [`OptLevel::Opt1`] — Eq. 3's reformulation: accumulate each block's
//!   `errᵀM` row by row, then physically transpose that result vector;
//! * [`OptLevel::Opt1Opt2`] — additionally replace the vector transposes by
//!   one metadata flip ([`DenseVector::transpose`]). A task scatters every
//!   sampled row's `err · v` into one row accumulator, in one pass per row,
//!   and flips it once: `(Σ_t errᵀM_t)ᵀ = Σ_t (errᵀM_t)ᵀ`. A step then
//!   costs its sampled non-zeros plus one dense vector per task.
//!
//! The driver folds the task gradients into the first one, in partition
//! order, so a training run is bit-reproducible. It then hands the task
//! vectors back for the next step's tasks to zero and reuse, so after the
//! first step a task allocates no feature-length vector at all.

use crate::graph::mix;
use spangle_dataflow::rdd::sources::GeneratedRdd;
use spangle_dataflow::{JobError, MemSize, ModPartitioner, Partitioner, Rdd, SpangleContext};
use spangle_linalg::DenseVector;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One sample's features: sorted `(feature index, value)` pairs.
pub type SparseRow = Vec<(u32, f64)>;

/// A chunk of training samples: a row block of the matrix `M` plus the
/// label segment of `y` (Fig. 6).
#[derive(Clone, Debug)]
pub struct SampleBlock {
    /// Feature rows.
    pub rows: Vec<SparseRow>,
    /// Labels in `{0, 1}`, aligned with `rows`.
    pub labels: Vec<f64>,
}

impl MemSize for SampleBlock {
    fn mem_size(&self) -> usize {
        std::mem::size_of::<Self>() + self.rows.mem_size() + self.labels.mem_size()
    }

    fn spillable() -> bool {
        true
    }

    fn spill_encode(&self, out: &mut Vec<u8>) {
        self.rows.spill_encode(out);
        self.labels.spill_encode(out);
    }

    fn spill_decode(input: &mut spangle_dataflow::SpillCursor<'_>) -> Option<Self> {
        Some(SampleBlock {
            rows: Vec::spill_decode(input)?,
            labels: Vec::spill_decode(input)?,
        })
    }
}

/// A distributed training set in Eq. 2 layout.
pub struct TrainSet {
    ctx: SpangleContext,
    num_features: usize,
    num_partitions: usize,
    chunks_per_partition: usize,
    rows_per_chunk: usize,
    rdd: Rdd<(u64, SampleBlock)>,
}

impl TrainSet {
    /// Generates a training set of
    /// `num_partitions × chunks_per_partition × rows_per_chunk` samples.
    /// `row_gen(global_row)` must be deterministic — it is the lineage.
    pub fn generate(
        ctx: &SpangleContext,
        num_partitions: usize,
        chunks_per_partition: usize,
        rows_per_chunk: usize,
        num_features: usize,
        row_gen: impl Fn(u64) -> (SparseRow, f64) + Send + Sync + 'static,
    ) -> Self {
        let n_p = num_partitions as u64;
        let rpc = rows_per_chunk as u64;
        let rdd = GeneratedRdd::create(ctx, num_partitions, move |p| {
            let mut out = Vec::with_capacity(chunks_per_partition);
            for r_id in 0..chunks_per_partition as u64 {
                // Eq. 2: Cn = nP · rID + pID.
                let c_n = n_p * r_id + p as u64;
                let mut rows = Vec::with_capacity(rows_per_chunk);
                let mut labels = Vec::with_capacity(rows_per_chunk);
                for k in 0..rpc {
                    let (row, label) = row_gen(c_n * rpc + k);
                    rows.push(row);
                    labels.push(label);
                }
                out.push((c_n, SampleBlock { rows, labels }));
            }
            out
        });
        // Eq. 2 numbering IS the mod layout: Cn mod nP == pID.
        let rdd = rdd.assert_partitioned(ModPartitioner::new(num_partitions).sig());
        TrainSet {
            ctx: ctx.clone(),
            num_features,
            num_partitions,
            chunks_per_partition,
            rows_per_chunk,
            rdd,
        }
    }

    /// Number of feature dimensions.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Total number of samples.
    pub fn num_rows(&self) -> usize {
        self.num_partitions * self.chunks_per_partition * self.rows_per_chunk
    }

    /// Number of partitions (the `nP` of Eq. 2).
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// The chunk RDD.
    pub fn rdd(&self) -> &Rdd<(u64, SampleBlock)> {
        &self.rdd
    }

    /// Marks the chunks for caching (training iterates over them).
    pub fn persist(&self) -> &Self {
        self.rdd.persist();
        self
    }

    /// Flattens into a per-sample RDD `(label, row)` — the layout the
    /// MLlib-style baseline trains on.
    pub fn to_row_rdd(&self) -> Rdd<(f64, SparseRow)> {
        self.rdd.flat_map(|(_, block)| {
            block
                .labels
                .iter()
                .zip(&block.rows)
                .map(|(&l, r)| (l, r.clone()))
                .collect()
        })
    }

    /// Fraction of rows classified correctly by `weights`.
    pub fn accuracy(&self, weights: &DenseVector) -> Result<f64, JobError> {
        let bc = self.ctx.broadcast(weights.as_slice().to_vec());
        let stats = self.rdd.run_partitions(move |_, blocks| {
            let w = bc.value();
            let mut correct = 0usize;
            let mut total = 0usize;
            for (_, block) in blocks {
                for (row, &label) in block.rows.iter().zip(&block.labels) {
                    let predicted = if sigmoid(margin(row, w)) >= 0.5 {
                        1.0
                    } else {
                        0.0
                    };
                    if predicted == label {
                        correct += 1;
                    }
                    total += 1;
                }
            }
            (correct, total)
        })?;
        let (correct, total) = stats
            .into_iter()
            .fold((0, 0), |(c, t), (dc, dt)| (c + dc, t + dt));
        Ok(if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        })
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Which of the §VI-C optimisations are active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptLevel {
    /// Textbook gradient with a physical block transpose per step.
    None,
    /// Eq. 3 reformulation; result vector still physically transposed.
    Opt1,
    /// Eq. 3 plus metadata-only vector transpose.
    Opt1Opt2,
}

/// SGD hyper-parameters (defaults follow §VII-C: step 0.6, tol 1e-4).
#[derive(Clone, Copy, Debug)]
pub struct SgdConfig {
    /// Step size θ.
    pub step_size: f64,
    /// Stop when the L2 norm of the update drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Chunks sampled per partition per step (the mini-batch parameter α).
    pub batch_chunks: usize,
    /// Optimisation level (Fig. 12b).
    pub opt: OptLevel,
    /// RNG seed for batch sampling.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            step_size: 0.6,
            tolerance: 1e-4,
            max_iters: 200,
            batch_chunks: 1,
            opt: OptLevel::Opt1Opt2,
            seed: 42,
        }
    }
}

/// A trained logistic-regression model plus training telemetry.
pub struct LogisticRegression {
    /// Learned weights (column orientation).
    pub weights: DenseVector,
    /// Iterations actually run.
    pub iterations: usize,
    /// Total training wall time.
    pub training_time: Duration,
}

impl LogisticRegression {
    /// Trains on `data` with `config` using the parallel SGD of §VI-C.
    pub fn train(data: &TrainSet, config: SgdConfig) -> Result<Self, JobError> {
        let f = data.num_features();
        let ctx = data.ctx.clone();
        let mut x = vec![0.0f64; f];
        let started = Instant::now();
        let mut iterations = 0usize;
        // Task gradient vectors the driver hands back after each fold, for
        // the next step's tasks to accumulate into. Their pages stay mapped;
        // a fresh feature-length vector per task faults every page in again
        // (twice, since the scatter reads before it writes).
        let spare: Arc<Mutex<Vec<Vec<f64>>>> = Arc::default();

        for t in 0..config.max_iters {
            iterations = t + 1;
            let bc = ctx.broadcast(x.clone());
            let cpp = data.chunks_per_partition;
            let n_p = data.num_partitions as u64;
            let batch = config.batch_chunks.min(cpp);
            let opt = config.opt;
            let seed = config.seed;
            let spare_for_tasks = Arc::clone(&spare);
            let partials = data.rdd.run_partitions(move |p, blocks| {
                // Reverse Eq. 2: draw rIDs and recover this partition's
                // chunk IDs. `generate` emits a partition's chunks in rID
                // order, so chunk `rID` is `blocks[rID]`.
                let mut chosen = Vec::with_capacity(batch);
                let mut cursor = mix(seed ^ ((t as u64) << 32) ^ p as u64);
                while chosen.len() < batch {
                    cursor = mix(cursor);
                    let r_id = cursor % cpp as u64;
                    if !chosen.contains(&r_id) {
                        chosen.push(r_id);
                    }
                }
                let sampled = chosen.into_iter().map(|r_id| {
                    let (c_n, block) = &blocks[r_id as usize];
                    assert_eq!(
                        *c_n,
                        n_p * r_id + p as u64,
                        "Eq. 2 reversal must land on a local chunk"
                    );
                    block
                });
                let reused = spare_for_tasks.lock().expect("spare vectors").pop();
                task_gradient(sampled, bc.value(), opt, reused)
            })?;

            // Fold the task gradients into the first, in partition order.
            let mut partials = partials.into_iter();
            let Some((mut grad, mut total)) = partials.next() else {
                break;
            };
            for (g, c) in partials {
                for (a, b) in grad.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *a += b;
                }
                total += c;
                spare.lock().expect("spare vectors").push(g.into_vec());
            }
            if total == 0 {
                break;
            }
            let scale = config.step_size / total as f64;
            let mut norm2 = 0.0;
            for (xi, gi) in x.iter_mut().zip(grad.as_slice()) {
                let delta = scale * gi;
                *xi -= delta;
                norm2 += delta * delta;
            }
            spare.lock().expect("spare vectors").push(grad.into_vec());
            if norm2.sqrt() < config.tolerance {
                break;
            }
        }

        Ok(LogisticRegression {
            weights: DenseVector::column(x),
            iterations,
            training_time: started.elapsed(),
        })
    }
}

/// `row · x` for a sparse sample row.
#[inline]
fn margin(row: &SparseRow, x: &[f64]) -> f64 {
    row.iter().map(|&(j, v)| x[j as usize] * v).sum()
}

/// One task's gradient `Σ_t ((h(M_t·x) − y_t)ᵀ M_t)ᵀ` over its sampled
/// blocks, as a column vector, with the number of samples it covers. It is
/// summed into `reused` (a vector of an earlier step, zeroed here) when one
/// is given, else into a fresh vector.
///
/// Under [`OptLevel::Opt1Opt2`] that vector is the task's one row
/// accumulator: each sample's error is computed and scattered into it in
/// one pass, and one metadata flip (opt₂) turns `Σ_t errᵀM_t` into the
/// column — equal to the sum of the per-block flips, since a flip moves no
/// data. The other two levels keep their per-block transposes, which are
/// what Fig. 12b measures.
fn task_gradient<'a>(
    sampled: impl IntoIterator<Item = &'a SampleBlock>,
    x: &[f64],
    opt: OptLevel,
    reused: Option<Vec<f64>>,
) -> (DenseVector, usize) {
    let mut grad = reused.unwrap_or_default();
    grad.clear();
    grad.resize(x.len(), 0.0);
    let mut count = 0usize;
    if opt != OptLevel::Opt1Opt2 {
        for block in sampled {
            add_block_gradient(block, x, opt, &mut grad);
            count += block.rows.len();
        }
        return (DenseVector::column(grad), count);
    }
    let mut acc = DenseVector::row(grad);
    let buf = acc.as_mut_slice();
    for block in sampled {
        for (row, &y) in block.rows.iter().zip(&block.labels) {
            let err = sigmoid(margin(row, x)) - y;
            for &(j, v) in row {
                buf[j as usize] += err * v;
            }
        }
        count += block.rows.len();
    }
    (acc.transpose(), count)
}

/// Adds one block's gradient into `grad` with a physical transpose per
/// block: of the block itself ([`OptLevel::None`]) or of its `errᵀM`
/// result vector ([`OptLevel::Opt1`]).
fn add_block_gradient(block: &SampleBlock, x: &[f64], opt: OptLevel, grad: &mut [f64]) {
    let errs: Vec<f64> = block
        .rows
        .iter()
        .zip(&block.labels)
        .map(|(row, &y)| sigmoid(margin(row, x)) - y)
        .collect();

    if opt == OptLevel::None {
        // Physically transpose the sampled block: materialise Mᵀ as a
        // column-major triplet list (gather + sort, the real cost of a
        // sparse transpose), then contract it against err.
        let mut transposed: Vec<(u32, u32, f64)> = Vec::new();
        for (r, row) in block.rows.iter().enumerate() {
            for &(j, v) in row {
                transposed.push((j, r as u32, v));
            }
        }
        transposed.sort_unstable_by_key(|&(j, r, _)| (j, r));
        for (j, r, v) in transposed {
            grad[j as usize] += errs[r as usize] * v;
        }
        return;
    }
    // Eq. 3: accumulate errᵀM row by row — no block transpose — then
    // physically transpose the row vector back.
    let mut partial = DenseVector::row(vec![0.0; grad.len()]);
    {
        let buf = partial.as_mut_slice();
        for (row, &e) in block.rows.iter().zip(&errs) {
            for &(j, v) in row {
                buf[j as usize] += e * v;
            }
        }
    }
    for (g, p) in grad.iter_mut().zip(partial.transpose_physical().as_slice()) {
        *g += p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use spangle_linalg::Orientation;

    #[test]
    fn eq2_numbering_is_unique_and_mod_partitioned() {
        let ctx = SpangleContext::new(3);
        let data = TrainSet::generate(&ctx, 3, 4, 5, 8, |r| (vec![(0, r as f64)], 0.0));
        let ids: Vec<u64> = data.rdd().map(|(id, _)| id).collect().unwrap();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12, "12 unique chunk ids");
        // Every chunk sits on partition id % nP.
        let placed: Vec<(usize, Vec<u64>)> = data
            .rdd()
            .run_partitions(|p, blocks| (p, blocks.iter().map(|(id, _)| *id).collect()))
            .unwrap();
        for (p, ids) in placed {
            for id in ids {
                assert_eq!(id % 3, p as u64, "Eq. 2: Cn mod nP == pID");
            }
        }
    }

    #[test]
    fn global_rows_cover_the_dataset_exactly_once() {
        let ctx = SpangleContext::new(2);
        let data = TrainSet::generate(&ctx, 2, 3, 4, 4, |r| (vec![(0, r as f64)], 1.0));
        assert_eq!(data.num_rows(), 24);
        let mut seen: Vec<u64> = data
            .rdd()
            .flat_map(|(_, b)| b.rows.iter().map(|r| r[0].1 as u64).collect())
            .collect()
            .unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn all_opt_levels_learn_a_separable_problem() {
        let ctx = SpangleContext::new(4);
        let data = datasets::synthetic_logreg(&ctx, 4, 4, 64, 32, 5, 99);
        data.persist();
        for opt in [OptLevel::None, OptLevel::Opt1, OptLevel::Opt1Opt2] {
            let model = LogisticRegression::train(
                &data,
                SgdConfig {
                    max_iters: 120,
                    batch_chunks: 2,
                    opt,
                    ..SgdConfig::default()
                },
            )
            .unwrap();
            let acc = data.accuracy(&model.weights).unwrap();
            assert!(acc > 0.9, "opt={opt:?}: accuracy {acc}");
        }
    }

    /// Mutation fuzzing of the sample-block codec: no truncation, bit flip
    /// or length lie panics, a prefix never decodes, and whatever decodes
    /// was not allocated past its input and re-encodes to the bytes it read.
    #[test]
    fn sample_block_codec_survives_mutation_fuzzing() {
        let block = SampleBlock {
            rows: vec![vec![(0, 1.0), (2, -2.0)], vec![], vec![(7, f64::NAN)]],
            labels: vec![1.0, 0.0, 1.0],
        };
        let mut frame = Vec::new();
        block.spill_encode(&mut frame);
        spangle_testkit::for_each_mutation(&frame, |bytes| {
            let mut cur = spangle_dataflow::SpillCursor::new(bytes);
            let Some(back) = SampleBlock::spill_decode(&mut cur) else {
                return;
            };
            assert!(bytes.len() >= frame.len(), "a truncation decoded");
            let held = back.rows.capacity()
                + back.rows.iter().map(Vec::capacity).sum::<usize>()
                + back.labels.capacity();
            assert!(held <= bytes.len(), "allocated past the input");
            let mut again = Vec::new();
            back.spill_encode(&mut again);
            assert!(again == bytes[..bytes.len() - cur.remaining()]);
        });
    }

    /// Several blocks accumulated into one task gradient: the per-block
    /// transposes of `None` and `Opt1` and `Opt1Opt2`'s single flip of
    /// the task's row accumulator agree, in a fresh vector or in a reused
    /// one of any length and content.
    #[test]
    fn opt_levels_agree_on_the_gradient() {
        let blocks = [
            SampleBlock {
                rows: vec![
                    vec![(0, 1.0), (2, -2.0)],
                    vec![(1, 0.5)],
                    vec![(0, -1.0), (3, 3.0)],
                ],
                labels: vec![1.0, 0.0, 1.0],
            },
            SampleBlock {
                rows: vec![vec![(1, -1.5), (3, 0.25)], vec![]],
                labels: vec![0.0, 1.0],
            },
            SampleBlock {
                rows: vec![vec![(0, 2.0), (1, 1.0), (2, 0.5), (3, -0.75)]],
                labels: vec![1.0],
            },
        ];
        let x = vec![0.1, -0.2, 0.3, 0.0];
        let (reference, n) = task_gradient(&blocks, &x, OptLevel::None, None);
        assert_eq!(n, 6);
        assert_eq!(reference.orientation(), Orientation::Column);
        assert!(reference.as_slice().iter().all(|g| *g != 0.0));
        for opt in [OptLevel::None, OptLevel::Opt1, OptLevel::Opt1Opt2] {
            for reused in [None, Some(vec![7.0; 3]), Some(vec![-1.0; 9])] {
                let (got, count) = task_gradient(&blocks, &x, opt, reused.clone());
                let case = format!("opt={opt:?} reused={reused:?}");
                assert_eq!(count, n, "{case}");
                assert_eq!(got.orientation(), Orientation::Column, "{case}");
                assert_eq!(got.len(), x.len(), "{case}");
                for (a, b) in got.as_slice().iter().zip(reference.as_slice()) {
                    assert!((a - b).abs() < 1e-12, "{case}");
                }
            }
        }
    }

    /// Two `train` calls on one training set give bit-identical weights:
    /// task results are folded in partition order, whichever task ends
    /// first.
    #[test]
    fn training_is_bit_reproducible() {
        let ctx = SpangleContext::new(4);
        let data = datasets::synthetic_logreg(&ctx, 4, 4, 32, 64, 6, 5);
        data.persist();
        let config = SgdConfig {
            max_iters: 30,
            tolerance: 0.0,
            batch_chunks: 2,
            ..SgdConfig::default()
        };
        let bits = || -> Vec<u64> {
            let model = LogisticRegression::train(&data, config).unwrap();
            model
                .weights
                .as_slice()
                .iter()
                .map(|w| w.to_bits())
                .collect()
        };
        assert_eq!(bits(), bits());
    }

    #[test]
    fn training_never_shuffles_the_training_matrix() {
        let ctx = SpangleContext::new(4);
        let data = datasets::synthetic_logreg(&ctx, 4, 2, 32, 16, 4, 7);
        data.persist();
        data.rdd().count().unwrap(); // materialise the cache
        let before = ctx.metrics_snapshot();
        LogisticRegression::train(
            &data,
            SgdConfig {
                max_iters: 10,
                ..SgdConfig::default()
            },
        )
        .unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(
            delta.shuffle_write_bytes, 0,
            "Eq. 2 sampling must be shuffle-free"
        );
    }
}
