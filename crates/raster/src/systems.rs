//! The Table I benchmark queries and the systems that answer them.
//!
//! Every system implements [`RasterSystem`]: the five SS-DB-derived
//! queries of Table I against identical data. The implementations differ
//! exactly where the paper says the real systems differ:
//!
//! * [`SpangleRaster`] — sparse bitmask chunks, chunk pruning by ID in
//!   Subarray, lazy pipelines;
//! * [`DenseRaster`] — SciSpark-like: every chunk dense, no chunk pruning
//!   (full scans with per-cell range tests);
//! * [`TileRaster`] — RasterFrames-like: dense 2-D tiles built *on the
//!   driver* and parallelised, with tile bounding-box pruning.

use spangle_core::aggregate::builtin::{Avg, Count};
use spangle_core::{ArrayBuilder, ArrayMeta, ArrayRdd, ChunkPolicy, Mapper};
use spangle_dataflow::{cancellation_point, MemSize, Rdd, SpangleContext};

/// An axis-aligned query box `[lo, hi)` over all array dimensions.
#[derive(Clone, Debug)]
pub struct QueryRange {
    /// Inclusive lower corner.
    pub lo: Vec<usize>,
    /// Exclusive upper corner.
    pub hi: Vec<usize>,
}

impl QueryRange {
    /// A box over the full array.
    pub fn full(meta: &ArrayMeta) -> Self {
        QueryRange {
            lo: vec![0; meta.rank()],
            hi: meta.dims().to_vec(),
        }
    }
}

/// The five Table I queries. All counts/averages are over *valid* cells.
pub trait RasterSystem {
    /// System label, as printed in the Fig. 7 harness.
    fn name(&self) -> &'static str;

    /// Q1 (aggregation): average value of cells in a range.
    fn q1_avg(&self, range: &QueryRange) -> Option<f64>;

    /// Q2 (regridding): mean over aligned `k × k` spatial blocks of the
    /// range; returns `(blocks produced, sum of block means)` so systems
    /// can be cross-checked.
    fn q2_regrid(&self, range: &QueryRange, k: usize) -> (usize, f64);

    /// Q3 (conditional aggregation): average of in-range cells above a
    /// threshold.
    fn q3_cond_avg(&self, range: &QueryRange, threshold: f64) -> Option<f64>;

    /// Q4 (polygons/filter): number of in-range cells with values in
    /// `[vlo, vhi)`.
    fn q4_filter_count(&self, range: &QueryRange, vlo: f64, vhi: f64) -> usize;

    /// Q5 (density): number of `cell × cell` spatial groups (over the
    /// first two dimensions) holding more than `min_count` observations.
    fn q5_density(&self, range: &QueryRange, cell: usize, min_count: usize) -> usize;

    /// Resident bytes of the ingested data.
    fn mem_bytes(&self) -> usize;
}

// --------------------------------------------------------------------
// Spangle
// --------------------------------------------------------------------

/// Spangle's own pipeline: sparse chunks, Subarray pruning, Aggregator.
pub struct SpangleRaster {
    arr: ArrayRdd<f64>,
}

impl SpangleRaster {
    /// Ingests `f` over `meta` with the default (sparse-aware) policy.
    pub fn ingest(
        ctx: &SpangleContext,
        meta: ArrayMeta,
        f: impl Fn(&[usize]) -> Option<f64> + Send + Sync + 'static,
    ) -> Self {
        let arr = ArrayBuilder::new(ctx, meta).ingest(f).build();
        arr.persist();
        arr.num_chunks().expect("ingest failed");
        SpangleRaster { arr }
    }

    /// The ingested array (for composing with other operators).
    pub fn array(&self) -> &ArrayRdd<f64> {
        &self.arr
    }
}

impl RasterSystem for SpangleRaster {
    fn name(&self) -> &'static str {
        "spangle"
    }

    fn q1_avg(&self, range: &QueryRange) -> Option<f64> {
        self.arr.subarray(&range.lo, &range.hi).aggregate(Avg)
    }

    fn q2_regrid(&self, range: &QueryRange, k: usize) -> (usize, f64) {
        let sub = self.arr.subarray(&range.lo, &range.hi);
        let groups = sub
            .aggregate_by(move |c| ((c[0] / k) as u64, (c[1] / k) as u64), Avg)
            .expect("q2 failed");
        let count = groups.len();
        let sum = groups.iter().map(|(_, m)| m).sum();
        (count, sum)
    }

    fn q3_cond_avg(&self, range: &QueryRange, threshold: f64) -> Option<f64> {
        self.arr
            .subarray(&range.lo, &range.hi)
            .filter(move |v| v > threshold)
            .aggregate(Avg)
    }

    fn q4_filter_count(&self, range: &QueryRange, vlo: f64, vhi: f64) -> usize {
        self.arr
            .subarray(&range.lo, &range.hi)
            .filter(move |v| v >= vlo && v < vhi)
            .count_valid()
            .expect("q4 failed")
    }

    fn q5_density(&self, range: &QueryRange, cell: usize, min_count: usize) -> usize {
        self.arr
            .subarray(&range.lo, &range.hi)
            .aggregate_by(move |c| ((c[0] / cell) as u64, (c[1] / cell) as u64), Count)
            .expect("q5 failed")
            .into_iter()
            .filter(|(_, n)| *n > min_count)
            .count()
    }

    fn mem_bytes(&self) -> usize {
        self.arr.mem_bytes().expect("size probe failed")
    }
}

// --------------------------------------------------------------------
// SciSpark-like dense engine
// --------------------------------------------------------------------

/// SciSpark-like comparator: loads everything dense ("SciSpark manages
/// data as dense, which requires more memory") and answers every query by
/// a full scan with per-cell range tests — it has no chunk-ID pruning.
pub struct DenseRaster {
    arr: ArrayRdd<f64>,
}

impl DenseRaster {
    /// Ingests `f` with the always-dense policy.
    pub fn ingest(
        ctx: &SpangleContext,
        meta: ArrayMeta,
        f: impl Fn(&[usize]) -> Option<f64> + Send + Sync + 'static,
    ) -> Self {
        let arr = ArrayBuilder::new(ctx, meta)
            .policy(ChunkPolicy::always_dense())
            .ingest(f)
            .build();
        arr.persist();
        arr.num_chunks().expect("ingest failed");
        DenseRaster { arr }
    }

    /// Full scan folding every valid in-range cell.
    fn scan<A: Clone + Send + Sync + 'static>(
        &self,
        range: &QueryRange,
        zero: A,
        fold: impl Fn(&mut A, &[usize], f64) + Send + Sync + 'static,
        merge: impl Fn(A, A) -> A,
    ) -> A {
        let meta = self.arr.meta_arc();
        let lo = range.lo.clone();
        let hi = range.hi.clone();
        let zero_task = zero.clone();
        let partials = self
            .arr
            .rdd()
            .run_partitions(move |_, chunks| {
                let mapper = meta.mapper();
                let mut acc = zero_task.clone();
                let mut coords = vec![0usize; lo.len()];
                for (id, chunk) in chunks {
                    // One poll per chunk: a cancelled scan stops at the
                    // next chunk boundary instead of finishing the sweep.
                    cancellation_point();
                    let origin = mapper.chunk_origin(*id);
                    let extent = mapper.chunk_extent(*id);
                    for (local, v) in chunk.iter_valid() {
                        Mapper::unravel(&origin, &extent, local, &mut coords);
                        if Mapper::in_range(&coords, &lo, &hi) {
                            fold(&mut acc, &coords, v);
                        }
                    }
                }
                acc
            })
            .expect("dense scan failed");
        partials.into_iter().fold(zero, merge)
    }
}

impl RasterSystem for DenseRaster {
    fn name(&self) -> &'static str {
        "scispark-dense"
    }

    fn q1_avg(&self, range: &QueryRange) -> Option<f64> {
        let (sum, n) = self.scan(
            range,
            (0.0f64, 0usize),
            |acc, _, v| {
                acc.0 += v;
                acc.1 += 1;
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        (n > 0).then(|| sum / n as f64)
    }

    fn q2_regrid(&self, range: &QueryRange, k: usize) -> (usize, f64) {
        let groups = self.scan(
            range,
            std::collections::HashMap::<(u64, u64), (f64, usize)>::new(),
            move |acc, coords, v| {
                let key = ((coords[0] / k) as u64, (coords[1] / k) as u64);
                let e = acc.entry(key).or_insert((0.0, 0));
                e.0 += v;
                e.1 += 1;
            },
            |mut a, b| {
                for (k, (s, n)) in b {
                    let e = a.entry(k).or_insert((0.0, 0));
                    e.0 += s;
                    e.1 += n;
                }
                a
            },
        );
        let count = groups.len();
        let sum = groups.values().map(|(s, n)| s / *n as f64).sum();
        (count, sum)
    }

    fn q3_cond_avg(&self, range: &QueryRange, threshold: f64) -> Option<f64> {
        let (sum, n) = self.scan(
            range,
            (0.0f64, 0usize),
            move |acc, _, v| {
                if v > threshold {
                    acc.0 += v;
                    acc.1 += 1;
                }
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        (n > 0).then(|| sum / n as f64)
    }

    fn q4_filter_count(&self, range: &QueryRange, vlo: f64, vhi: f64) -> usize {
        self.scan(
            range,
            0usize,
            move |acc, _, v| {
                if v >= vlo && v < vhi {
                    *acc += 1;
                }
            },
            |a, b| a + b,
        )
    }

    fn q5_density(&self, range: &QueryRange, cell: usize, min_count: usize) -> usize {
        let groups = self.scan(
            range,
            std::collections::HashMap::<(u64, u64), usize>::new(),
            move |acc, coords, _| {
                *acc.entry(((coords[0] / cell) as u64, (coords[1] / cell) as u64))
                    .or_insert(0) += 1;
            },
            |mut a, b| {
                for (k, n) in b {
                    *a.entry(k).or_insert(0) += n;
                }
                a
            },
        );
        groups.values().filter(|n| **n > min_count).count()
    }

    fn mem_bytes(&self) -> usize {
        self.arr.mem_bytes().expect("size probe failed")
    }
}

// --------------------------------------------------------------------
// RasterFrames-like tile store
// --------------------------------------------------------------------

/// One dense 2-D tile of a single z-slice (image/time step).
#[derive(Clone, Debug)]
pub struct Tile {
    /// Global origin `[x, y, z]`.
    pub origin: Vec<usize>,
    /// Extent `[w, h]` (z extent is always 1).
    pub extent: Vec<usize>,
    /// Dense values, x-fastest; `None` encoded as NaN (RasterFrames'
    /// nodata convention).
    pub data: Vec<f64>,
}

impl MemSize for Tile {
    fn mem_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.data.len() * 8
            + (self.origin.len() + self.extent.len()) * std::mem::size_of::<usize>()
    }

    fn spillable() -> bool {
        true
    }

    fn spill_encode(&self, out: &mut Vec<u8>) {
        self.origin.spill_encode(out);
        self.extent.spill_encode(out);
        self.data.spill_encode(out);
    }

    fn spill_decode(input: &mut spangle_dataflow::SpillCursor<'_>) -> Option<Self> {
        Some(Tile {
            origin: Vec::spill_decode(input)?,
            extent: Vec::spill_decode(input)?,
            data: Vec::spill_decode(input)?,
        })
    }
}

/// RasterFrames-like comparator: dense tiles with nodata sentinels, built
/// on the driver ("it reads them in the master node and spread them to
/// workers") and pruned by bounding box.
pub struct TileRaster {
    meta: ArrayMeta,
    tiles: Rdd<(u64, Tile)>,
}

impl TileRaster {
    /// The ingested geometry.
    pub fn meta(&self) -> &ArrayMeta {
        &self.meta
    }
}

impl TileRaster {
    /// Ingests `f` on the driver into `tile × tile` tiles per z-slice,
    /// then parallelises.
    pub fn ingest(
        ctx: &SpangleContext,
        meta: ArrayMeta,
        tile: usize,
        f: impl Fn(&[usize]) -> Option<f64>,
    ) -> Self {
        assert_eq!(meta.rank(), 3, "tile stores hold [x, y, z] rasters");
        let dims = meta.dims();
        let mut tiles = Vec::new();
        let mut id = 0u64;
        for z in 0..dims[2] {
            for ty in (0..dims[1]).step_by(tile) {
                for tx in (0..dims[0]).step_by(tile) {
                    let w = tile.min(dims[0] - tx);
                    let h = tile.min(dims[1] - ty);
                    let mut data = vec![f64::NAN; w * h];
                    for dy in 0..h {
                        for dx in 0..w {
                            if let Some(v) = f(&[tx + dx, ty + dy, z]) {
                                data[dx + dy * w] = v;
                            }
                        }
                    }
                    tiles.push((
                        id,
                        Tile {
                            origin: vec![tx, ty, z],
                            extent: vec![w, h],
                            data,
                        },
                    ));
                    id += 1;
                }
            }
        }
        let tiles = ctx.parallelize(tiles, ctx.num_executors() * 2);
        tiles.persist();
        tiles.count().expect("tile ingest failed");
        TileRaster { meta, tiles }
    }

    fn scan<A: Clone + Send + Sync + 'static>(
        &self,
        range: &QueryRange,
        zero: A,
        fold: impl Fn(&mut A, &[usize], f64) + Send + Sync + 'static,
        merge: impl Fn(A, A) -> A,
    ) -> A {
        let lo = range.lo.clone();
        let hi = range.hi.clone();
        let zero_task = zero.clone();
        let partials = self
            .tiles
            .run_partitions(move |_, tiles| {
                let mut acc = zero_task.clone();
                for (_, t) in tiles {
                    cancellation_point();
                    // Bounding-box pruning.
                    let z = t.origin[2];
                    if z < lo[2]
                        || z >= hi[2]
                        || t.origin[0] + t.extent[0] <= lo[0]
                        || t.origin[0] >= hi[0]
                        || t.origin[1] + t.extent[1] <= lo[1]
                        || t.origin[1] >= hi[1]
                    {
                        continue;
                    }
                    let (w, h) = (t.extent[0], t.extent[1]);
                    for dy in 0..h {
                        let y = t.origin[1] + dy;
                        if y < lo[1] || y >= hi[1] {
                            continue;
                        }
                        for dx in 0..w {
                            let x = t.origin[0] + dx;
                            if x < lo[0] || x >= hi[0] {
                                continue;
                            }
                            let v = t.data[dx + dy * w];
                            if !v.is_nan() {
                                fold(&mut acc, &[x, y, z], v);
                            }
                        }
                    }
                }
                acc
            })
            .expect("tile scan failed");
        partials.into_iter().fold(zero, merge)
    }
}

impl RasterSystem for TileRaster {
    fn name(&self) -> &'static str {
        "rasterframes-tiles"
    }

    fn q1_avg(&self, range: &QueryRange) -> Option<f64> {
        let (sum, n) = self.scan(
            range,
            (0.0f64, 0usize),
            |acc, _, v| {
                acc.0 += v;
                acc.1 += 1;
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        (n > 0).then(|| sum / n as f64)
    }

    fn q2_regrid(&self, range: &QueryRange, k: usize) -> (usize, f64) {
        let groups = self.scan(
            range,
            std::collections::HashMap::<(u64, u64), (f64, usize)>::new(),
            move |acc, coords, v| {
                let e = acc
                    .entry(((coords[0] / k) as u64, (coords[1] / k) as u64))
                    .or_insert((0.0, 0));
                e.0 += v;
                e.1 += 1;
            },
            |mut a, b| {
                for (k, (s, n)) in b {
                    let e = a.entry(k).or_insert((0.0, 0));
                    e.0 += s;
                    e.1 += n;
                }
                a
            },
        );
        (
            groups.len(),
            groups.values().map(|(s, n)| s / *n as f64).sum(),
        )
    }

    fn q3_cond_avg(&self, range: &QueryRange, threshold: f64) -> Option<f64> {
        let (sum, n) = self.scan(
            range,
            (0.0f64, 0usize),
            move |acc, _, v| {
                if v > threshold {
                    acc.0 += v;
                    acc.1 += 1;
                }
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        (n > 0).then(|| sum / n as f64)
    }

    fn q4_filter_count(&self, range: &QueryRange, vlo: f64, vhi: f64) -> usize {
        self.scan(
            range,
            0usize,
            move |acc, _, v| {
                if v >= vlo && v < vhi {
                    *acc += 1;
                }
            },
            |a, b| a + b,
        )
    }

    fn q5_density(&self, range: &QueryRange, cell: usize, min_count: usize) -> usize {
        let groups = self.scan(
            range,
            std::collections::HashMap::<(u64, u64), usize>::new(),
            move |acc, coords, _| {
                *acc.entry(((coords[0] / cell) as u64, (coords[1] / cell) as u64))
                    .or_insert(0) += 1;
            },
            |mut a, b| {
                for (k, n) in b {
                    *a.entry(k).or_insert(0) += n;
                }
                a
            },
        );
        groups.values().filter(|n| **n > min_count).count()
    }

    fn mem_bytes(&self) -> usize {
        self.tiles
            .aggregate(0usize, |acc, (_, t)| acc + t.mem_size(), |a, b| a + b)
            .expect("size probe failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ChlConfig, SdssConfig};
    use spangle_core::ArrayMeta;

    fn small_chl() -> ChlConfig {
        ChlConfig {
            lon: 96,
            lat: 64,
            time: 3,
            land_cell: 16,
            ..ChlConfig::default()
        }
    }

    fn systems(ctx: &SpangleContext, cfg: ChlConfig) -> (SpangleRaster, DenseRaster, TileRaster) {
        let meta = ArrayMeta::new(cfg.dims(), vec![32, 32, 1]);
        let spangle = SpangleRaster::ingest(ctx, meta.clone(), cfg.value_fn());
        let dense = DenseRaster::ingest(ctx, meta.clone(), cfg.value_fn());
        let tiles = TileRaster::ingest(ctx, meta, 32, cfg.value_fn());
        (spangle, dense, tiles)
    }

    /// Mutation fuzzing of the tile codec: no truncation, bit flip or
    /// length lie panics, a prefix never decodes, and whatever decodes was
    /// not allocated past its input and re-encodes to the bytes it read.
    #[test]
    fn tile_codec_survives_mutation_fuzzing() {
        let tile = Tile {
            origin: vec![32, 64, 2],
            extent: vec![3, 2],
            data: vec![0.5, f64::NAN, -1.0, 2.0, 0.0, 7.25],
        };
        let mut frame = Vec::new();
        tile.spill_encode(&mut frame);
        spangle_testkit::for_each_mutation(&frame, |bytes| {
            let mut cur = spangle_dataflow::SpillCursor::new(bytes);
            let Some(back) = Tile::spill_decode(&mut cur) else {
                return;
            };
            assert!(bytes.len() >= frame.len(), "a truncation decoded");
            let held = back.origin.capacity() + back.extent.capacity() + back.data.capacity();
            assert!(held <= bytes.len(), "allocated past the input");
            let mut again = Vec::new();
            back.spill_encode(&mut again);
            assert!(again == bytes[..bytes.len() - cur.remaining()]);
        });
    }

    #[test]
    fn all_systems_agree_on_every_query() {
        let ctx = SpangleContext::new(4);
        let cfg = small_chl();
        let (spangle, dense, tiles) = systems(&ctx, cfg);
        let all: Vec<&dyn RasterSystem> = vec![&spangle, &dense, &tiles];
        let range = QueryRange {
            lo: vec![8, 8, 0],
            hi: vec![80, 56, 2],
        };
        let q1: Vec<Option<f64>> = all.iter().map(|s| s.q1_avg(&range)).collect();
        let q2: Vec<(usize, f64)> = all.iter().map(|s| s.q2_regrid(&range, 8)).collect();
        let q3: Vec<Option<f64>> = all.iter().map(|s| s.q3_cond_avg(&range, 0.3)).collect();
        let q4: Vec<usize> = all
            .iter()
            .map(|s| s.q4_filter_count(&range, 0.1, 0.6))
            .collect();
        let q5: Vec<usize> = all.iter().map(|s| s.q5_density(&range, 16, 180)).collect();

        for i in 1..all.len() {
            let name = all[i].name();
            assert!(
                (q1[i].unwrap() - q1[0].unwrap()).abs() < 1e-9,
                "q1 {name}: {:?} vs {:?}",
                q1[i],
                q1[0]
            );
            assert_eq!(q2[i].0, q2[0].0, "q2 count {name}");
            assert!((q2[i].1 - q2[0].1).abs() < 1e-6, "q2 sum {name}");
            assert!((q3[i].unwrap() - q3[0].unwrap()).abs() < 1e-9, "q3 {name}");
            assert_eq!(q4[i], q4[0], "q4 {name}");
            assert_eq!(q5[i], q5[0], "q5 {name}");
        }
        // Sanity: queries returned something non-trivial.
        assert!(q4[0] > 0, "q4 found cells");
        assert!(q5[0] > 0, "q5 found dense groups");
    }

    #[test]
    fn sparse_spangle_uses_less_memory_than_dense_systems() {
        let ctx = SpangleContext::new(4);
        let cfg = SdssConfig {
            width: 128,
            height: 128,
            images: 4,
            ..SdssConfig::default()
        };
        let meta = ArrayMeta::new(cfg.dims(), vec![32, 32, 1]);
        let spangle = SpangleRaster::ingest(&ctx, meta.clone(), cfg.band_fn(2));
        let dense = DenseRaster::ingest(&ctx, meta.clone(), cfg.band_fn(2));
        let tiles = TileRaster::ingest(&ctx, meta, 32, cfg.band_fn(2));
        let (s, d, t) = (spangle.mem_bytes(), dense.mem_bytes(), tiles.mem_bytes());
        assert!(s * 2 < d, "sparse chunks beat dense chunks: {s} vs {d}");
        assert!(s * 2 < t, "sparse chunks beat dense tiles: {s} vs {t}");
    }

    #[test]
    fn subarray_pruning_reads_fewer_chunks_than_full_scans() {
        let ctx = SpangleContext::new(4);
        let cfg = small_chl();
        let meta = ArrayMeta::new(cfg.dims(), vec![32, 32, 1]);
        let spangle = SpangleRaster::ingest(&ctx, meta.clone(), cfg.value_fn());
        let dense = DenseRaster::ingest(&ctx, meta, cfg.value_fn());
        let range = QueryRange {
            lo: vec![0, 0, 0],
            hi: vec![32, 32, 1],
        };
        // Spangle prunes to 1 chunk; the dense engine still iterates all
        // its chunks' cells. The observable proxy: both give the same
        // answer but Spangle's subarray materialises a single chunk.
        let sub = spangle.array().subarray(&range.lo, &range.hi);
        assert_eq!(sub.num_chunks().unwrap(), 1);
        assert!((spangle.q1_avg(&range).unwrap() - dense.q1_avg(&range).unwrap()).abs() < 1e-9);
    }
}
