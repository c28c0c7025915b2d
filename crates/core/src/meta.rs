//! Array metadata and the logical↔physical mapper (paper §III-C).
//!
//! The metadata records the array geometry (dimension sizes, chunk shape);
//! the [`Mapper`] translates between global coordinates, chunk IDs and
//! local in-chunk offsets. Algorithm 1 of the paper — computing a chunk ID
//! from coordinates — is [`Mapper::chunk_id_of`].

/// A chunk's unique identifier: a single value standing in for the chunk's
/// multi-dimensional grid position, "which supports any arrays without
/// concern for the number of dimensions and reduces the key length".
pub type ChunkId = u64;

/// Description of one array: dimension sizes, chunking, and optional
/// dimension names ("such as x-axis and y-axis names", §V-B).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayMeta {
    /// Size of each dimension, in cells.
    dims: Vec<usize>,
    /// Chunk extent along each dimension.
    chunk_shape: Vec<usize>,
    /// Optional dimension names, e.g. `["lon", "lat", "time"]`.
    dim_names: Option<Vec<String>>,
}

impl ArrayMeta {
    /// Describes an array of extent `dims` cut into chunks of extent
    /// `chunk_shape` (edge chunks are clipped when the sizes do not
    /// divide).
    ///
    /// # Panics
    /// Panics on empty/zero dimensions or mismatched ranks.
    pub fn new(dims: Vec<usize>, chunk_shape: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "arrays need at least one dimension");
        assert_eq!(
            dims.len(),
            chunk_shape.len(),
            "chunk shape rank must match array rank"
        );
        assert!(dims.iter().all(|&d| d > 0), "zero-sized dimension");
        assert!(chunk_shape.iter().all(|&c| c > 0), "zero-sized chunk");
        ArrayMeta {
            dims,
            chunk_shape,
            dim_names: None,
        }
    }

    /// Attaches dimension names (one per dimension, unique).
    pub fn with_dim_names(mut self, names: &[&str]) -> Self {
        assert_eq!(names.len(), self.dims.len(), "one name per dimension");
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b, "duplicate dimension name {a:?}");
            }
        }
        self.dim_names = Some(names.iter().map(|s| s.to_string()).collect());
        self
    }

    /// The dimension names, if set.
    pub fn dim_names(&self) -> Option<Vec<&str>> {
        self.dim_names
            .as_ref()
            .map(|n| n.iter().map(String::as_str).collect())
    }

    /// Index of the named dimension.
    ///
    /// # Panics
    /// Panics when names were never attached or the name is unknown.
    pub fn dim_index(&self, name: &str) -> usize {
        let names = self
            .dim_names
            .as_ref()
            .expect("this array has no dimension names; use ArrayMeta::with_dim_names");
        names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("unknown dimension {name:?}, have {names:?}"))
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Chunk extent along each dimension.
    pub fn chunk_shape(&self) -> &[usize] {
        &self.chunk_shape
    }

    /// Total number of cells.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Number of chunks along each dimension (`ceil(dim / chunk)`).
    pub fn grid_dims(&self) -> Vec<usize> {
        self.dims
            .iter()
            .zip(&self.chunk_shape)
            .map(|(&d, &c)| d.div_ceil(c))
            .collect()
    }

    /// Total number of chunk slots in the grid.
    pub fn num_chunks(&self) -> usize {
        self.grid_dims().iter().product()
    }

    /// The mapper for this geometry.
    pub fn mapper(&self) -> Mapper {
        Mapper::new(self.clone())
    }
}

/// Translates between coordinates, chunk IDs and local offsets.
///
/// Conventions: dimension 0 varies fastest, both in the chunk-ID numbering
/// (Algorithm 1: `length` accumulates over ascending `i`) and in the local
/// row-major-by-dim-0 cell layout.
#[derive(Clone, Debug)]
pub struct Mapper {
    meta: ArrayMeta,
    grid_dims: Vec<usize>,
}

impl Mapper {
    /// Builds the mapper for `meta`.
    pub fn new(meta: ArrayMeta) -> Self {
        let grid_dims = meta.grid_dims();
        Mapper { meta, grid_dims }
    }

    /// The geometry this mapper translates for.
    pub fn meta(&self) -> &ArrayMeta {
        &self.meta
    }

    /// Algorithm 1: chunk ID of the chunk containing `pos`.
    pub fn chunk_id_of(&self, pos: &[usize]) -> ChunkId {
        debug_assert_eq!(pos.len(), self.meta.rank());
        let mut chunk_id: u64 = 0;
        let mut length: u64 = 1;
        for (i, &p) in pos.iter().enumerate() {
            debug_assert!(p < self.meta.dims[i], "coordinate out of bounds");
            chunk_id += (p / self.meta.chunk_shape[i]) as u64 * length;
            length *= self.grid_dims[i] as u64;
        }
        chunk_id
    }

    /// Grid position (per-dimension chunk index) of a chunk ID.
    pub fn grid_coords_of(&self, chunk_id: ChunkId) -> Vec<usize> {
        let mut rem = chunk_id as usize;
        let mut out = Vec::with_capacity(self.meta.rank());
        for &g in &self.grid_dims {
            out.push(rem % g);
            rem /= g;
        }
        debug_assert_eq!(rem, 0, "chunk id out of range");
        out
    }

    /// Global coordinates of a chunk's origin (lowest corner).
    pub fn chunk_origin(&self, chunk_id: ChunkId) -> Vec<usize> {
        self.grid_coords_of(chunk_id)
            .iter()
            .zip(&self.meta.chunk_shape)
            .map(|(&g, &c)| g * c)
            .collect()
    }

    /// Actual extent of a chunk: the nominal chunk shape, clipped at the
    /// array boundary for edge chunks.
    pub fn chunk_extent(&self, chunk_id: ChunkId) -> Vec<usize> {
        let origin = self.chunk_origin(chunk_id);
        origin
            .iter()
            .zip(self.meta.chunk_shape.iter().zip(&self.meta.dims))
            .map(|(&o, (&c, &d))| c.min(d - o))
            .collect()
    }

    /// Number of cells in a chunk (after edge clipping).
    pub fn chunk_volume(&self, chunk_id: ChunkId) -> usize {
        self.chunk_extent(chunk_id).iter().product()
    }

    /// Local (in-chunk) offset of global coordinates `pos`, in the chunk's
    /// clipped row-major-by-dim-0 layout.
    pub fn local_index_of(&self, pos: &[usize]) -> usize {
        let chunk_id = self.chunk_id_of(pos);
        let origin = self.chunk_origin(chunk_id);
        let extent = self.chunk_extent(chunk_id);
        let mut idx = 0usize;
        let mut stride = 1usize;
        for i in 0..pos.len() {
            idx += (pos[i] - origin[i]) * stride;
            stride *= extent[i];
        }
        idx
    }

    /// Global coordinates of the cell at `local` offset inside `chunk_id`.
    pub fn global_coords_of(&self, chunk_id: ChunkId, local: usize) -> Vec<usize> {
        let mut out = vec![0; self.meta.rank()];
        let origin = self.chunk_origin(chunk_id);
        let extent = self.chunk_extent(chunk_id);
        Self::unravel(&origin, &extent, local, &mut out);
        out
    }

    /// Allocation-free coordinate decoding for hot loops: writes the
    /// global coordinates of `local` into `out`, given the chunk's
    /// pre-computed `origin` and `extent`.
    #[inline]
    pub fn unravel(origin: &[usize], extent: &[usize], local: usize, out: &mut [usize]) {
        let mut rem = local;
        for i in 0..origin.len() {
            out[i] = origin[i] + rem % extent[i];
            rem /= extent[i];
        }
        debug_assert_eq!(rem, 0, "local offset out of chunk");
    }

    /// Whether the chunk's box lies entirely inside `[lo, hi)` — lets
    /// Subarray pass interior chunks through untouched.
    pub fn chunk_within_range(&self, chunk_id: ChunkId, lo: &[usize], hi: &[usize]) -> bool {
        let origin = self.chunk_origin(chunk_id);
        let extent = self.chunk_extent(chunk_id);
        origin
            .iter()
            .zip(extent.iter().zip(lo.iter().zip(hi)))
            .all(|(&o, (&e, (&l, &h)))| o >= l && o + e <= h)
    }

    /// Total number of chunk slots.
    pub fn num_chunks(&self) -> usize {
        self.grid_dims.iter().product()
    }

    /// Iterates the IDs of all chunks intersecting the axis-aligned box
    /// `[lo, hi)` — the chunk-selection step of Subarray.
    pub fn chunks_in_range(&self, lo: &[usize], hi: &[usize]) -> Vec<ChunkId> {
        debug_assert_eq!(lo.len(), self.meta.rank());
        debug_assert_eq!(hi.len(), self.meta.rank());
        if lo.iter().zip(hi).any(|(l, h)| l >= h) {
            return Vec::new(); // empty cell box
        }
        // Grid-space bounds (inclusive lo, exclusive hi).
        let g_lo: Vec<usize> = lo
            .iter()
            .zip(&self.meta.chunk_shape)
            .map(|(&l, &c)| l / c)
            .collect();
        let g_hi: Vec<usize> = hi
            .iter()
            .zip(self.meta.chunk_shape.iter().zip(&self.grid_dims))
            .map(|(&h, (&c, &g))| h.div_ceil(c).min(g))
            .collect();
        if g_lo.iter().zip(&g_hi).any(|(l, h)| l >= h) {
            return Vec::new();
        }
        // Enumerate the grid box.
        let mut out = Vec::new();
        let mut cursor = g_lo.clone();
        loop {
            // Convert grid coords to chunk id.
            let mut id: u64 = 0;
            let mut stride: u64 = 1;
            for (c, g) in cursor.iter().zip(&self.grid_dims) {
                id += *c as u64 * stride;
                stride *= *g as u64;
            }
            out.push(id);
            // Odometer increment.
            let mut d = 0;
            loop {
                cursor[d] += 1;
                if cursor[d] < g_hi[d] {
                    break;
                }
                cursor[d] = g_lo[d];
                d += 1;
                if d == cursor.len() {
                    return out;
                }
            }
        }
    }

    /// Row-major (dim 0 fastest) linear index of `pos` over the whole
    /// array — the canonical cell ordering used by dense materialisation.
    pub fn global_linear_index(&self, pos: &[usize]) -> usize {
        let mut idx = 0usize;
        let mut stride = 1usize;
        for (p, d) in pos.iter().zip(self.meta.dims()) {
            debug_assert!(p < d);
            idx += p * stride;
            stride *= d;
        }
        idx
    }

    /// Whether global coordinates fall inside `[lo, hi)`.
    pub fn in_range(pos: &[usize], lo: &[usize], hi: &[usize]) -> bool {
        pos.iter()
            .zip(lo.iter().zip(hi))
            .all(|(&p, (&l, &h))| p >= l && p < h)
    }
}

/// [`Mapper::unravel`] without the division, for the walk every matrix
/// kernel makes: the valid cells of one `rows × cols` block (local offset
/// `row + col * rows`) visited in ascending offset, each needing its
/// `(row, column)`.
///
/// When `rows` is a power of two the split is a mask and a shift; otherwise
/// the walk keeps the boundary of the column it is in and steps it forward
/// — offsets only ascend, so each column boundary is crossed once per block
/// rather than a quotient taken once per cell.
#[derive(Clone, Copy, Debug)]
pub struct ColumnWalk {
    rows: usize,
    /// `log2(rows)` when `rows` is a power of two.
    shift: Option<u32>,
    col: usize,
    /// One past the last offset of column `col`.
    col_end: usize,
}

impl ColumnWalk {
    /// A walk positioned before the first cell of a block `rows` tall.
    pub fn new(rows: usize) -> Self {
        assert!(rows > 0, "blocks have at least one row");
        ColumnWalk {
            rows,
            shift: rows.is_power_of_two().then(|| rows.trailing_zeros()),
            col: 0,
            col_end: rows,
        }
    }

    /// `(local % rows, local / rows)`. Offsets must not descend from one
    /// call to the next.
    #[inline]
    pub fn locate(&mut self, local: usize) -> (usize, usize) {
        if let Some(shift) = self.shift {
            return (local & (self.rows - 1), local >> shift);
        }
        while local >= self.col_end {
            self.col += 1;
            self.col_end += self.rows;
        }
        debug_assert!(local + self.rows >= self.col_end, "offsets must ascend");
        (local + self.rows - self.col_end, self.col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_walk_equals_division_for_every_extent() {
        // Powers of two, clipped edge extents, single rows and columns.
        for rows in [1usize, 2, 3, 7, 44, 64, 100, 256] {
            for cols in [1usize, 2, 5, 33] {
                // Every cell, then sparse walks with empty leading,
                // interior and trailing columns.
                for step in [1, 2, rows, rows + 1, 3 * rows + 2, rows * cols] {
                    let mut walk = ColumnWalk::new(rows);
                    for local in (step - 1..rows * cols).step_by(step) {
                        assert_eq!(
                            walk.locate(local),
                            (local % rows, local / rows),
                            "rows={rows} cols={cols} step={step} local={local}"
                        );
                    }
                }
            }
        }
    }

    fn mapper_2d() -> Mapper {
        // 100 x 60 array in 32 x 32 chunks => 4 x 2 grid, edge clipping on
        // both dimensions.
        ArrayMeta::new(vec![100, 60], vec![32, 32]).mapper()
    }

    #[test]
    fn grid_dims_use_ceiling_division() {
        let m = mapper_2d();
        assert_eq!(m.meta().grid_dims(), vec![4, 2]);
        assert_eq!(m.num_chunks(), 8);
    }

    #[test]
    fn algorithm1_matches_manual_computation() {
        let m = mapper_2d();
        // pos (33, 40): grid (1, 1); id = 1*1 + 1*4 = 5.
        assert_eq!(m.chunk_id_of(&[33, 40]), 5);
        assert_eq!(m.chunk_id_of(&[0, 0]), 0);
        assert_eq!(m.chunk_id_of(&[99, 59]), 3 + 4);
    }

    #[test]
    fn chunk_id_roundtrips_through_grid_coords() {
        let m = ArrayMeta::new(vec![50, 40, 30], vec![16, 16, 16]).mapper();
        for id in 0..m.num_chunks() as u64 {
            let grid = m.grid_coords_of(id);
            let origin = m.chunk_origin(id);
            assert_eq!(m.chunk_id_of(&origin), id, "grid={grid:?}");
        }
    }

    #[test]
    fn edge_chunks_are_clipped() {
        let m = mapper_2d();
        // Chunk at grid (3, 1): origin (96, 32); extent (4, 28).
        let id = m.chunk_id_of(&[96, 32]);
        assert_eq!(m.chunk_origin(id), vec![96, 32]);
        assert_eq!(m.chunk_extent(id), vec![4, 28]);
        assert_eq!(m.chunk_volume(id), 4 * 28);
        // Interior chunk keeps the nominal shape.
        let id0 = m.chunk_id_of(&[0, 0]);
        assert_eq!(m.chunk_extent(id0), vec![32, 32]);
    }

    #[test]
    fn local_and_global_coordinates_roundtrip() {
        let m = mapper_2d();
        for &pos in &[[0usize, 0], [31, 31], [32, 0], [99, 59], [96, 32], [45, 17]] {
            let id = m.chunk_id_of(&pos);
            let local = m.local_index_of(&pos);
            assert!(local < m.chunk_volume(id));
            assert_eq!(m.global_coords_of(id, local), pos.to_vec(), "pos={pos:?}");
        }
    }

    #[test]
    fn every_cell_maps_to_exactly_one_chunk_slot() {
        let m = ArrayMeta::new(vec![10, 7], vec![4, 3]).mapper();
        let mut seen = std::collections::HashSet::new();
        for x in 0..10 {
            for y in 0..7 {
                let id = m.chunk_id_of(&[x, y]);
                let local = m.local_index_of(&[x, y]);
                assert!(seen.insert((id, local)), "collision at ({x},{y})");
            }
        }
        assert_eq!(seen.len(), 70);
    }

    #[test]
    fn chunks_in_range_selects_the_intersecting_grid_box() {
        let m = mapper_2d();
        // Whole array.
        assert_eq!(m.chunks_in_range(&[0, 0], &[100, 60]).len(), 8);
        // A box inside chunk (0,0).
        assert_eq!(m.chunks_in_range(&[1, 1], &[10, 10]), vec![0]);
        // A box spanning grid columns 1..3 in row 0.
        let ids = m.chunks_in_range(&[40, 0], &[96, 20]);
        assert_eq!(ids, vec![1, 2]);
        // Empty box.
        assert!(m.chunks_in_range(&[10, 10], &[10, 20]).is_empty());
    }

    #[test]
    fn one_dimensional_arrays_work() {
        let m = ArrayMeta::new(vec![100], vec![30]).mapper();
        assert_eq!(m.num_chunks(), 4);
        assert_eq!(m.chunk_id_of(&[95]), 3);
        assert_eq!(m.chunk_extent(3), vec![10]);
        assert_eq!(m.global_coords_of(3, 5), vec![95]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn mismatched_rank_is_rejected() {
        ArrayMeta::new(vec![10, 10], vec![4]);
    }
}
