//! Overlap (ghost cells) and window operators (paper §III-A1).
//!
//! Operators that combine a cell with its neighbours (blurring, regridding,
//! interpolation) would need data from adjacent chunks at every chunk
//! boundary — a shuffle per window operation. Spangle instead lets a chunk
//! carry `overlap` extra cells along each dimension at ingest time; window
//! operators then run entirely chunk-locally.

use crate::array::{map_chunks, ArrayRdd};
use crate::chunk::{Chunk, ChunkPolicy};
use crate::element::Element;
use crate::meta::{ArrayMeta, ChunkId};
use spangle_bitmask::Bitmask;
use spangle_dataflow::rdd::sources::GeneratedRdd;
use spangle_dataflow::{HashPartitioner, MemSize, Partitioner, Rdd, SpangleContext};
use std::sync::Arc;

/// A chunk whose payload covers its core box *plus* a halo of neighbour
/// cells (clipped at the array boundary).
#[derive(Clone, Debug)]
pub struct OverlapChunk<E: Element> {
    /// Origin of the expanded (halo-included) box in global coordinates.
    pub expanded_origin: Vec<usize>,
    /// Extent of the expanded box.
    pub expanded_extent: Vec<usize>,
    /// Origin of the core box.
    pub core_origin: Vec<usize>,
    /// Extent of the core box.
    pub core_extent: Vec<usize>,
    /// Values over the expanded box, row-major by dimension 0.
    pub payload: Vec<E>,
    /// Validity over the expanded box.
    pub mask: Bitmask,
}

impl<E: Element> MemSize for OverlapChunk<E> {
    fn mem_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.payload.len() * std::mem::size_of::<E>()
            + self.mask.mem_size()
            + (self.expanded_origin.len() * 4) * std::mem::size_of::<usize>()
    }
}

impl<E: Element> OverlapChunk<E> {
    /// Value at *global* coordinates, or `None` if null or outside the
    /// expanded box.
    pub fn get_global(&self, pos: &[usize]) -> Option<E> {
        let mut idx = 0usize;
        let mut stride = 1usize;
        for (i, &p) in pos.iter().enumerate() {
            if p < self.expanded_origin[i] || p >= self.expanded_origin[i] + self.expanded_extent[i]
            {
                return None;
            }
            idx += (p - self.expanded_origin[i]) * stride;
            stride *= self.expanded_extent[i];
        }
        self.mask.get(idx).then(|| self.payload[idx])
    }
}

/// An array whose chunks carry halo cells, supporting shuffle-free window
/// operators.
pub struct OverlapArrayRdd<E: Element> {
    ctx: SpangleContext,
    meta: Arc<ArrayMeta>,
    halo: Vec<usize>,
    policy: ChunkPolicy,
    rdd: Rdd<(ChunkId, OverlapChunk<E>)>,
}

impl<E: Element> OverlapArrayRdd<E> {
    /// Ingests an array with `halo` overlap cells per dimension; `f` is the
    /// deterministic cell generator, exactly as in
    /// [`crate::array::ArrayBuilder::ingest`].
    pub fn ingest(
        ctx: &SpangleContext,
        meta: ArrayMeta,
        halo: Vec<usize>,
        policy: ChunkPolicy,
        f: impl Fn(&[usize]) -> Option<E> + Send + Sync + 'static,
    ) -> Self {
        assert_eq!(halo.len(), meta.rank(), "halo rank mismatch");
        let meta = Arc::new(meta);
        let num_partitions = ctx.num_executors() * 2;
        let gen_meta = meta.clone();
        let gen_halo = halo.clone();
        let f = Arc::new(f);
        let rdd = GeneratedRdd::create(ctx, num_partitions, move |p| {
            let partitioner = HashPartitioner::new(num_partitions);
            let mapper = gen_meta.mapper();
            let mut out = Vec::new();
            for chunk_id in 0..mapper.num_chunks() as u64 {
                if partitioner.partition(&chunk_id) != p {
                    continue;
                }
                let core_origin = mapper.chunk_origin(chunk_id);
                let core_extent = mapper.chunk_extent(chunk_id);
                let expanded_origin: Vec<usize> = core_origin
                    .iter()
                    .zip(&gen_halo)
                    .map(|(&o, &h)| o.saturating_sub(h))
                    .collect();
                let expanded_end: Vec<usize> = core_origin
                    .iter()
                    .zip(core_extent.iter().zip(gen_halo.iter().zip(gen_meta.dims())))
                    .map(|(&o, (&e, (&h, &d)))| (o + e + h).min(d))
                    .collect();
                let expanded_extent: Vec<usize> = expanded_origin
                    .iter()
                    .zip(&expanded_end)
                    .map(|(&o, &e)| e - o)
                    .collect();
                let volume: usize = expanded_extent.iter().product();
                let mut payload = vec![E::default(); volume];
                let mut mask = Bitmask::zeros(volume);
                let mut any_core_valid = false;
                let mut pos = vec![0usize; expanded_origin.len()];
                for (idx, slot) in payload.iter_mut().enumerate() {
                    crate::meta::Mapper::unravel(&expanded_origin, &expanded_extent, idx, &mut pos);
                    if let Some(v) = f(&pos) {
                        *slot = v;
                        mask.set(idx, true);
                        let in_core = pos
                            .iter()
                            .zip(core_origin.iter().zip(&core_extent))
                            .all(|(&p, (&o, &e))| p >= o && p < o + e);
                        any_core_valid |= in_core;
                    }
                }
                if any_core_valid {
                    out.push((
                        chunk_id,
                        OverlapChunk {
                            expanded_origin: expanded_origin.clone(),
                            expanded_extent,
                            core_origin,
                            core_extent,
                            payload,
                            mask,
                        },
                    ));
                }
            }
            out
        });
        let sig = Partitioner::<u64>::sig(&HashPartitioner::new(num_partitions));
        let rdd = rdd.assert_partitioned(sig);
        OverlapArrayRdd {
            ctx: ctx.clone(),
            meta,
            halo,
            policy,
            rdd,
        }
    }

    /// Array geometry.
    pub fn meta(&self) -> &ArrayMeta {
        &self.meta
    }

    /// Halo width per dimension.
    pub fn halo(&self) -> &[usize] {
        &self.halo
    }

    /// The underlying RDD.
    pub fn rdd(&self) -> &Rdd<(ChunkId, OverlapChunk<E>)> {
        &self.rdd
    }

    /// Drops the halo, yielding a plain [`ArrayRdd`].
    pub fn to_array(&self) -> ArrayRdd<E> {
        let meta = self.meta.clone();
        let policy = self.policy;
        let rdd = map_chunks(&self.rdd, move |id, oc| {
            let mapper = meta.mapper();
            let volume = mapper.chunk_volume(id);
            let mut cells = Vec::new();
            for local in 0..volume {
                let pos = mapper.global_coords_of(id, local);
                if let Some(v) = oc.get_global(&pos) {
                    cells.push((local, v));
                }
            }
            Chunk::from_cells(volume, cells, &policy)
        });
        ArrayRdd::from_parts(&self.ctx, self.meta.clone(), self.policy, rdd)
    }
}

impl OverlapArrayRdd<f64> {
    /// Box-window mean with per-dimension radii: each valid core cell
    /// becomes the mean of the valid cells in its `Π(2rᵢ+1)` neighbourhood
    /// (pass radius 0 for dimensions the window should not cross, e.g.
    /// time). Requires `halo[i] >= radii[i]`, which is what makes the
    /// operator shuffle-free.
    pub fn window_mean(&self, radii: &[usize]) -> ArrayRdd<f64> {
        assert_eq!(radii.len(), self.meta.rank(), "one radius per dimension");
        assert!(
            self.halo.iter().zip(radii).all(|(&h, &r)| h >= r),
            "window radii {radii:?} exceed the ingested halo {:?}",
            self.halo
        );
        let radii = radii.to_vec();
        let meta = self.meta.clone();
        let policy = self.policy;
        let rdd = map_chunks(&self.rdd, move |id, oc| {
            let mapper = meta.mapper();
            let volume = mapper.chunk_volume(id);
            let mut cells = Vec::new();
            for local in 0..volume {
                let pos = mapper.global_coords_of(id, local);
                if oc.get_global(&pos).is_none() {
                    continue; // output validity follows input validity
                }
                let mut sum = 0.0;
                let mut n = 0usize;
                // Enumerate the neighbourhood box clipped to the array.
                let lo: Vec<usize> = pos
                    .iter()
                    .zip(&radii)
                    .map(|(&p, &r)| p.saturating_sub(r))
                    .collect();
                let hi: Vec<usize> = pos
                    .iter()
                    .zip(meta.dims().iter().zip(&radii))
                    .map(|(&p, (&d, &r))| (p + r + 1).min(d))
                    .collect();
                let mut cursor = lo.clone();
                'outer: loop {
                    if let Some(v) = oc.get_global(&cursor) {
                        sum += v;
                        n += 1;
                    }
                    let mut d = 0;
                    loop {
                        cursor[d] += 1;
                        if cursor[d] < hi[d] {
                            break;
                        }
                        cursor[d] = lo[d];
                        d += 1;
                        if d == cursor.len() {
                            break 'outer;
                        }
                    }
                }
                if n > 0 {
                    cells.push((local, sum / n as f64));
                }
            }
            Chunk::from_cells(volume, cells, &policy)
        });
        ArrayRdd::from_parts(&self.ctx, self.meta.clone(), self.policy, rdd)
    }
}

impl<E: Element> ArrayRdd<E> {
    /// Regrids by block-averaging aligned blocks of per-dimension extents
    /// `factors` (the Q2 operation; pass `1` for dimensions that keep
    /// their resolution, e.g. time). Requires every chunk dimension and
    /// array dimension to be divisible by its factor, which keeps each
    /// output block inside one input chunk — the whole regrid is then
    /// chunk-local.
    pub fn regrid_mean(&self, factors: &[usize]) -> ArrayRdd<f64>
    where
        E: Into<f64>,
    {
        let meta = self.meta_arc();
        assert_eq!(factors.len(), meta.rank(), "one factor per dimension");
        assert!(factors.iter().all(|&k| k > 0), "factors must be positive");
        assert!(
            meta.dims().iter().zip(factors).all(|(d, k)| d % k == 0),
            "array dims {:?} not divisible by regrid factors {factors:?}",
            meta.dims()
        );
        assert!(
            meta.chunk_shape()
                .iter()
                .zip(factors)
                .all(|(c, k)| c % k == 0),
            "chunk shape {:?} not divisible by regrid factors {factors:?}",
            meta.chunk_shape()
        );
        let out_meta = Arc::new(ArrayMeta::new(
            meta.dims()
                .iter()
                .zip(factors)
                .map(|(d, k)| d / k)
                .collect(),
            meta.chunk_shape()
                .iter()
                .zip(factors)
                .map(|(c, k)| c / k)
                .collect(),
        ));
        let factors = factors.to_vec();
        let policy = self.policy();
        let in_meta = meta.clone();
        let gen_out_meta = out_meta.clone();
        let rdd = map_chunks(self.rdd(), move |id, chunk| {
            let in_mapper = in_meta.mapper();
            let out_mapper = gen_out_meta.mapper();
            // Input chunk id == output chunk id: the grids coincide.
            let out_volume = out_mapper.chunk_volume(id);
            let mut sums = vec![0.0f64; out_volume];
            let mut counts = vec![0usize; out_volume];
            for (local, v) in chunk.iter_valid() {
                let pos = in_mapper.global_coords_of(id, local);
                let out_pos: Vec<usize> = pos.iter().zip(&factors).map(|(&p, &k)| p / k).collect();
                let out_local = out_mapper.local_index_of(&out_pos);
                sums[out_local] += v.into();
                counts[out_local] += 1;
            }
            let cells: Vec<(usize, f64)> = sums
                .into_iter()
                .zip(counts)
                .enumerate()
                .filter(|(_, (_, n))| *n > 0)
                .map(|(i, (s, n))| (i, s / n as f64))
                .collect();
            Chunk::from_cells(out_volume, cells, &policy)
        });
        ArrayRdd::from_parts(self.context(), out_meta, policy, rdd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayBuilder;

    #[test]
    fn overlap_chunks_expose_neighbour_cells() {
        let ctx = SpangleContext::new(2);
        let ov = OverlapArrayRdd::ingest(
            &ctx,
            ArrayMeta::new(vec![16, 16], vec![8, 8]),
            vec![2, 2],
            ChunkPolicy::default(),
            |c| Some((c[0] * 100 + c[1]) as f64),
        );
        // Chunk 3 is at origin (8, 8); its expanded box starts at (6, 6).
        let chunks = ov.rdd().collect().unwrap();
        let (_, oc) = chunks.iter().find(|(id, _)| *id == 3).unwrap();
        assert_eq!(oc.expanded_origin, vec![6, 6]);
        assert_eq!(oc.expanded_extent, vec![10, 10]);
        assert_eq!(oc.get_global(&[6, 7]), Some(607.0));
        assert_eq!(oc.get_global(&[5, 7]), None, "outside the halo");
    }

    #[test]
    fn to_array_recovers_the_core_cells() {
        let ctx = SpangleContext::new(2);
        let f = |c: &[usize]| (!c[0].is_multiple_of(3)).then_some((c[0] + c[1]) as f64);
        let ov = OverlapArrayRdd::ingest(
            &ctx,
            ArrayMeta::new(vec![20, 10], vec![8, 8]),
            vec![1, 1],
            ChunkPolicy::default(),
            f,
        );
        let direct = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![20, 10], vec![8, 8]))
            .ingest(f)
            .build();
        assert_eq!(
            ov.to_array().collect_cells().unwrap(),
            direct.collect_cells().unwrap()
        );
    }

    #[test]
    fn window_mean_matches_reference_and_is_shuffle_free() {
        let ctx = SpangleContext::new(2);
        let f = |c: &[usize]| Some((c[0] * 10 + c[1]) as f64);
        let ov = OverlapArrayRdd::ingest(
            &ctx,
            ArrayMeta::new(vec![12, 12], vec![4, 4]),
            vec![1, 1],
            ChunkPolicy::default(),
            f,
        );
        let before = ctx.metrics_snapshot();
        let blurred = ov.window_mean(&[1, 1]);
        let dense = blurred.to_dense().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.shuffle_write_bytes, 0, "window op must stay local");

        let mapper = blurred.meta().mapper();
        for x in 0..12usize {
            for y in 0..12usize {
                let mut sum = 0.0;
                let mut n = 0;
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        let (nx, ny) = (x as i64 + dx, y as i64 + dy);
                        if (0..12).contains(&nx) && (0..12).contains(&ny) {
                            sum += (nx * 10 + ny) as f64;
                            n += 1;
                        }
                    }
                }
                let got = dense[mapper.global_linear_index(&[x, y])].unwrap();
                assert!((got - sum / n as f64).abs() < 1e-9, "({x},{y})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed the ingested halo")]
    fn window_radius_beyond_halo_is_rejected() {
        let ctx = SpangleContext::new(1);
        let ov = OverlapArrayRdd::ingest(
            &ctx,
            ArrayMeta::new(vec![8, 8], vec![4, 4]),
            vec![1, 1],
            ChunkPolicy::default(),
            |_| Some(1.0f64),
        );
        let _ = ov.window_mean(&[2, 2]);
    }

    #[test]
    fn regrid_mean_averages_aligned_blocks() {
        let ctx = SpangleContext::new(2);
        let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![8, 8], vec![4, 4]))
            .ingest(|c| Some((c[0] * 8 + c[1]) as f64))
            .build();
        let before = ctx.metrics_snapshot();
        let regridded = arr.regrid_mean(&[2, 2]);
        let dense = regridded.to_dense().unwrap();
        let delta = ctx.metrics_snapshot() - before;
        assert_eq!(delta.shuffle_write_bytes, 0, "aligned regrid stays local");
        assert_eq!(regridded.meta().dims(), &[4, 4]);
        let mapper = regridded.meta().mapper();
        for bx in 0..4usize {
            for by in 0..4usize {
                let mut sum = 0.0;
                for x in bx * 2..bx * 2 + 2 {
                    for y in by * 2..by * 2 + 2 {
                        sum += (x * 8 + y) as f64;
                    }
                }
                let got = dense[mapper.global_linear_index(&[bx, by])].unwrap();
                assert!((got - sum / 4.0).abs() < 1e-9, "block ({bx},{by})");
            }
        }
    }

    #[test]
    fn regrid_mean_ignores_null_cells() {
        let ctx = SpangleContext::new(2);
        let arr = ArrayBuilder::new(&ctx, ArrayMeta::new(vec![4, 4], vec![4, 4]))
            .ingest(|c| (c[0] == 0).then_some(10.0f64))
            .build();
        let regridded = arr.regrid_mean(&[2, 2]);
        let cells = regridded.collect_cells().unwrap();
        // Each 2x2 block in the x=0 column has two valid cells of 10.0.
        assert_eq!(cells, vec![(vec![0, 0], 10.0), (vec![0, 1], 10.0)]);
    }
}
