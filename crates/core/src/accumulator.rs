//! The directional Accumulator (paper §V-B).
//!
//! `Accumulator` scans cell values along one axis (e.g. a running sum per
//! row). Null cells are skipped: they stay null and do not contribute. Two
//! execution strategies are provided, as in the paper:
//!
//! * **synchronous** — chunk waves along the axis run one after another,
//!   each wave waiting for the carry values of the previous one ("all
//!   chunks require synchronization in the chunk boundary at every step");
//! * **asynchronous** — every chunk scans internally in parallel, then a
//!   single reconciliation distributes per-line offsets ("every chunk
//!   computes its values internally and then synchronizes").
//!
//! For associative operators the two strategies agree exactly; the paper's
//! accuracy caveat concerns non-associative updates, which this API rules
//! out by construction.

use crate::array::{map_chunks, ArrayRdd};
use crate::chunk::Chunk;
use crate::element::Element;
use crate::meta::ChunkId;
use spangle_dataflow::JobError;
use std::collections::HashMap;
use std::sync::Arc;

/// A directional scan along `axis` with an associative operator.
pub struct Accumulator<E: Element> {
    axis: usize,
    op: Arc<dyn Fn(E, E) -> E + Send + Sync>,
    zero: E,
}

/// Key of one scan line: the global coordinates with the scan axis removed.
type LineKey = Vec<u64>;

impl<E: Element> Accumulator<E> {
    /// A scan along `axis` combining with `op` starting from `zero`.
    /// `op` must be associative with `zero` as identity.
    pub fn new(axis: usize, zero: E, op: impl Fn(E, E) -> E + Send + Sync + 'static) -> Self {
        Accumulator {
            axis,
            zero,
            op: Arc::new(op),
        }
    }

    /// Running sum along `axis`.
    pub fn prefix_sum(axis: usize) -> Accumulator<f64> {
        Accumulator::new(axis, 0.0, |a, b| a + b)
    }

    /// Synchronous execution: one job per chunk wave along the axis, with
    /// a driver barrier carrying boundary values between waves.
    pub fn run_sync(&self, array: &ArrayRdd<E>) -> Result<ArrayRdd<E>, JobError> {
        let axis = self.axis;
        let meta = array.meta_arc();
        assert!(axis < meta.rank(), "axis out of range");
        let ctx = array.context().clone();
        let waves = meta.grid_dims()[axis];
        let policy = array.policy();

        let mut carries: HashMap<LineKey, E> = HashMap::new();
        let mut wave_outputs: Option<spangle_dataflow::Rdd<(ChunkId, Chunk<E>)>> = None;

        for w in 0..waves {
            let wave_meta = meta.clone();
            let wave = array
                .rdd()
                .filter(move |(id, _)| wave_meta.mapper().grid_coords_of(*id)[axis] == w);
            let carry_list: Vec<(LineKey, E)> =
                carries.iter().map(|(k, v)| (k.clone(), *v)).collect();
            let bc = ctx.broadcast(carry_list);
            let op = self.op.clone();
            let zero = self.zero;
            let scan_meta = meta.clone();
            let scanned = wave.map(move |(id, chunk)| {
                let carries: HashMap<LineKey, E> = bc.value().iter().cloned().collect();
                let mapper = scan_meta.mapper();
                let (new_chunk, _totals) =
                    scan_chunk(&mapper, id, &chunk, axis, &carries, zero, &*op, &policy);
                (id, new_chunk)
            });
            scanned.persist();
            // Barrier: pull this wave's end-of-line totals to the driver.
            let op = self.op.clone();
            let zero = self.zero;
            let total_meta = meta.clone();
            let carry_list: Vec<(LineKey, E)> =
                carries.iter().map(|(k, v)| (k.clone(), *v)).collect();
            let bc2 = ctx.broadcast(carry_list);
            let totals: Vec<(LineKey, E)> = array
                .rdd()
                .filter(move |(id, _)| total_meta.mapper().grid_coords_of(*id)[axis] == w)
                .flat_map({
                    let meta = meta.clone();
                    move |(id, chunk)| {
                        let carries: HashMap<LineKey, E> = bc2.value().iter().cloned().collect();
                        let mapper = meta.mapper();
                        let (_, totals) =
                            scan_chunk(&mapper, id, &chunk, axis, &carries, zero, &*op, &policy);
                        totals
                    }
                })
                .collect()?;
            for (k, v) in totals {
                carries.insert(k, v);
            }
            wave_outputs = Some(match wave_outputs {
                None => scanned,
                Some(prev) => prev.union(&scanned),
            });
        }

        let rdd = wave_outputs.unwrap_or_else(|| ctx.parallelize(Vec::new(), 1));
        Ok(ArrayRdd::from_parts(&ctx, meta, policy, rdd))
    }

    /// Asynchronous execution: one parallel internal-scan job, one driver
    /// reconciliation, one parallel offset-application job.
    pub fn run_async(&self, array: &ArrayRdd<E>) -> Result<ArrayRdd<E>, JobError> {
        let axis = self.axis;
        let meta = array.meta_arc();
        assert!(axis < meta.rank(), "axis out of range");
        let ctx = array.context().clone();
        let policy = array.policy();

        // Phase 1: internal scans (no carries) + per-line totals.
        let op = self.op.clone();
        let zero = self.zero;
        let scan_meta = meta.clone();
        let internal = map_chunks(array.rdd(), move |id, chunk| {
            let mapper = scan_meta.mapper();
            let empty = HashMap::new();
            Some(scan_chunk(
                &mapper, id, &chunk, axis, &empty, zero, &*op, &policy,
            ))
        });
        internal.persist();

        // Phase 2 (driver): exclusive prefix of chunk totals per line.
        let totals: Vec<(ChunkId, Vec<(LineKey, E)>)> =
            internal.map(|(id, (_, totals))| (id, totals)).collect()?;
        let mapper = meta.mapper();
        // Order chunks per line by their axis grid coordinate.
        let mut per_line: HashMap<LineKey, Vec<(usize, ChunkId, E)>> = HashMap::new();
        for (id, chunk_totals) in totals {
            let g = mapper.grid_coords_of(id)[axis];
            for (line, total) in chunk_totals {
                per_line.entry(line).or_default().push((g, id, total));
            }
        }
        // offsets[(chunk, line)] = combined totals of all earlier chunks.
        let mut offsets: Vec<((u64, LineKey), E)> = Vec::new();
        for (line, mut entries) in per_line {
            entries.sort_by_key(|(g, _, _)| *g);
            let mut running = self.zero;
            for (_, id, total) in entries {
                offsets.push(((id, line.clone()), running));
                running = (self.op)(running, total);
            }
        }

        // Phase 3: apply offsets.
        let bc = ctx.broadcast(offsets);
        let op = self.op.clone();
        let zero = self.zero;
        let apply_meta = meta.clone();
        let rdd = map_chunks(&internal, move |id, (chunk, _)| {
            let offsets: HashMap<(u64, LineKey), E> = bc.value().iter().cloned().collect();
            let mapper = apply_meta.mapper();
            // Rebuild with per-line offsets applied.
            let mut cells = Vec::with_capacity(chunk.valid_count());
            for (local, v) in chunk.iter_valid() {
                let coords = mapper.global_coords_of(id, local);
                let line = line_key(&coords, axis);
                let off = offsets.get(&(id, line)).copied().unwrap_or(zero);
                cells.push((local, op(off, v)));
            }
            let chunk = Chunk::from_cells(chunk.volume(), cells, &policy);
            Some(chunk.expect("scan preserves non-emptiness"))
        });
        Ok(ArrayRdd::from_parts(&ctx, meta, policy, rdd))
    }
}

fn line_key(coords: &[usize], axis: usize) -> LineKey {
    coords
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != axis)
        .map(|(_, &c)| c as u64)
        .collect()
}

/// Scans one chunk along `axis` starting each line from its carry.
/// Returns the scanned chunk and the end-of-chunk running value per line.
#[allow(clippy::too_many_arguments)]
fn scan_chunk<E: Element>(
    mapper: &crate::meta::Mapper,
    id: ChunkId,
    chunk: &Chunk<E>,
    axis: usize,
    carries: &HashMap<LineKey, E>,
    zero: E,
    op: &(dyn Fn(E, E) -> E + Send + Sync),
    policy: &crate::chunk::ChunkPolicy,
) -> (Chunk<E>, Vec<(LineKey, E)>) {
    let volume = chunk.volume();
    // Valid cells in local-offset order are already in axis-ascending order
    // *within* a line only if axis is dimension 0; in general we bucket per
    // line and sort by the axis coordinate.
    let mut lines: HashMap<LineKey, Vec<(usize, usize, E)>> = HashMap::new();
    for (local, v) in chunk.iter_valid() {
        let coords = mapper.global_coords_of(id, local);
        lines
            .entry(line_key(&coords, axis))
            .or_default()
            .push((coords[axis], local, v));
    }
    let mut cells = Vec::with_capacity(chunk.valid_count());
    let mut totals = Vec::with_capacity(lines.len());
    for (line, mut entries) in lines {
        entries.sort_by_key(|(a, _, _)| *a);
        let mut running = carries.get(&line).copied().unwrap_or(zero);
        for (_, local, v) in entries {
            running = op(running, v);
            cells.push((local, running));
        }
        totals.push((line, running));
    }
    let chunk = Chunk::from_cells(volume, cells, policy).expect("chunk was non-empty");
    (chunk, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayBuilder;
    use crate::meta::ArrayMeta;
    use spangle_dataflow::SpangleContext;

    fn reference_prefix_sum(
        dims: (usize, usize),
        axis: usize,
        value: impl Fn(usize, usize) -> Option<f64>,
    ) -> Vec<Option<f64>> {
        let (nx, ny) = dims;
        let mut out = vec![None; nx * ny];
        if axis == 0 {
            for y in 0..ny {
                let mut run = 0.0;
                for x in 0..nx {
                    if let Some(v) = value(x, y) {
                        run += v;
                        out[x + y * nx] = Some(run);
                    }
                }
            }
        } else {
            for x in 0..nx {
                let mut run = 0.0;
                for y in 0..ny {
                    if let Some(v) = value(x, y) {
                        run += v;
                        out[x + y * nx] = Some(run);
                    }
                }
            }
        }
        out
    }

    fn check(axis: usize, holes: bool) {
        let ctx = SpangleContext::new(4);
        let value = move |x: usize, y: usize| {
            if holes && (x + y).is_multiple_of(3) {
                None
            } else {
                Some((x * 7 + y) as f64)
            }
        };
        let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![20, 12], vec![6, 5]))
            .ingest(move |c| value(c[0], c[1]))
            .build();
        let expected = reference_prefix_sum((20, 12), axis, value);

        let acc = Accumulator::<f64>::prefix_sum(axis);
        let sync = acc.run_sync(&arr).unwrap().to_dense().unwrap();
        let asyn = acc.run_async(&arr).unwrap().to_dense().unwrap();

        let mapper = arr.meta().mapper();
        for x in 0..20 {
            for y in 0..12 {
                let i = mapper.global_linear_index(&[x, y]);
                let to_cmp = [("sync", sync[i]), ("async", asyn[i])];
                for (name, got) in to_cmp {
                    match (got, expected[x + y * 20]) {
                        (Some(a), Some(b)) => {
                            assert!((a - b).abs() < 1e-9, "{name} ({x},{y}): {a} vs {b}")
                        }
                        (a, b) => assert_eq!(a, b, "{name} ({x},{y})"),
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_sum_along_axis0_matches_reference() {
        check(0, false);
    }

    #[test]
    fn prefix_sum_along_axis1_matches_reference() {
        check(1, false);
    }

    #[test]
    fn prefix_sum_skips_null_cells() {
        check(0, true);
        check(1, true);
    }

    #[test]
    fn sync_runs_one_wave_per_grid_step() {
        let ctx = SpangleContext::new(2);
        let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![32, 8], vec![8, 8]))
            .ingest(|_| Some(1.0f64))
            .build();
        arr.persist();
        arr.count_valid().unwrap();
        let before = ctx.metrics_snapshot();
        Accumulator::<f64>::prefix_sum(0).run_sync(&arr).unwrap();
        let delta = ctx.metrics_snapshot() - before;
        // 4 waves, each runs a totals-collection job (the barrier).
        assert!(
            delta.stages_run >= 4,
            "expected at least one stage per wave, got {}",
            delta.stages_run
        );
    }

    #[test]
    fn async_mode_uses_constant_number_of_jobs() {
        let ctx = SpangleContext::new(2);
        let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![64, 8], vec![8, 8]))
            .ingest(|_| Some(1.0f64))
            .build();
        arr.persist();
        arr.count_valid().unwrap();
        let before = ctx.metrics_snapshot();
        let out = Accumulator::<f64>::prefix_sum(0).run_async(&arr).unwrap();
        out.count_valid().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        // Internal-scan job + offset application job (+ the final count):
        // independent of the 8 grid waves.
        assert!(
            delta.stages_run <= 3,
            "async should not scale stages with grid depth, got {}",
            delta.stages_run
        );
    }
}
