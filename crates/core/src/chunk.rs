//! Chunks: payload + bitmask, in the paper's three management modes (§IV-A).
//!
//! A chunk clusters geographically contiguous cells. Its payload holds the
//! actual values (physically a one-dimensional array), its bitmask records
//! which cells are valid. Depending on density, Spangle keeps the chunk in
//! one of three modes:
//!
//! * **Dense** — payload stores every slot; random access is direct
//!   indexing.
//! * **Sparse** — invalid cells are physically dropped; accessing a cell
//!   requires the *rank* of its position in the mask. A milestone
//!   directory accelerates random access (the "opt" series of Fig. 8).
//! * **SuperSparse** — so few valid cells that the flat mask itself would
//!   dominate; the mask is stored hierarchically (§IV-A's two-level
//!   bitmask).
//!
//! A chunk is immutable once built; operators produce new chunks.

use crate::element::Element;
use spangle_bitmask::{Bitmask, DeltaCursor, HierarchicalBitmask, Milestones};
use spangle_dataflow::MemSize;

/// Density thresholds steering mode selection.
#[derive(Clone, Copy, Debug)]
pub struct ChunkPolicy {
    /// Chunks at or above this density stay dense (no compression).
    pub dense_threshold: f64,
    /// Build the milestone rank directory for sparse chunks (the paper's
    /// "opt"); disable to reproduce the "naive" series of Fig. 8.
    pub build_milestones: bool,
}

impl Default for ChunkPolicy {
    fn default() -> Self {
        ChunkPolicy {
            dense_threshold: 0.5,
            build_milestones: true,
        }
    }
}

impl ChunkPolicy {
    /// Policy that always stores chunks dense (the SciSpark-like baseline
    /// and the `dense` series of Fig. 8/9a).
    pub fn always_dense() -> Self {
        ChunkPolicy {
            dense_threshold: 0.0,
            build_milestones: false,
        }
    }

    /// Default policy without the milestone directory — the `naive` series
    /// of Fig. 8.
    pub fn naive_sparse() -> Self {
        ChunkPolicy {
            build_milestones: false,
            ..ChunkPolicy::default()
        }
    }

    /// Picks a mode for a chunk of `volume` cells of which `valid` are set.
    pub fn mode_for(&self, volume: usize, valid: usize) -> ChunkMode {
        debug_assert!(valid <= volume);
        let density = if volume == 0 {
            0.0
        } else {
            valid as f64 / volume as f64
        };
        if density >= self.dense_threshold {
            ChunkMode::Dense
        } else if valid * 64 < volume {
            // The flat mask (1 bit/cell) outweighs the payload
            // (≤ 8 bytes/valid) — hierarchical compression pays off.
            ChunkMode::SuperSparse
        } else {
            ChunkMode::Sparse
        }
    }
}

/// Which of the three management modes a chunk is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkMode {
    /// Every slot materialised; direct indexing.
    Dense,
    /// Invalid cells dropped; access ranks the bitmask.
    Sparse,
    /// Sparse payload plus a hierarchically compressed mask.
    SuperSparse,
}

/// One chunk of an ArrayRDD: payload plus validity.
#[derive(Clone, Debug)]
pub enum Chunk<E: Element> {
    /// Every slot materialised; clear mask bits mark nulls in place.
    Dense {
        /// One value per cell slot (invalid slots hold `E::default()`).
        payload: Vec<E>,
        /// Validity bits, one per slot.
        mask: Bitmask,
    },
    /// Only valid cells materialised, in mask order.
    Sparse {
        /// Values of the valid cells, in ascending offset order.
        payload: Vec<E>,
        /// Validity bits over the full volume.
        mask: Bitmask,
        /// Optional rank directory accelerating random access.
        milestones: Option<Milestones>,
    },
    /// Only valid cells materialised; the mask itself is compressed.
    SuperSparse {
        /// Values of the valid cells, in ascending offset order.
        payload: Vec<E>,
        /// Two-level compressed validity.
        mask: HierarchicalBitmask,
    },
}

impl<E: Element> Chunk<E> {
    /// Builds a chunk from a full slot vector and its validity mask,
    /// choosing the mode by `policy`. Returns `None` when no cell is valid
    /// — Spangle never creates empty chunks (§III-B).
    pub fn build(payload: Vec<E>, mask: Bitmask, policy: &ChunkPolicy) -> Option<Self> {
        assert_eq!(payload.len(), mask.len(), "payload/mask length mismatch");
        let valid = mask.count_ones();
        if valid == 0 {
            return None;
        }
        Some(match policy.mode_for(mask.len(), valid) {
            ChunkMode::Dense => Chunk::Dense { payload, mask },
            mode => {
                let compact = mask.iter_ones().map(|i| payload[i]).collect();
                Chunk::compressed(mode, compact, mask, policy)
            }
        })
    }

    /// A Sparse or SuperSparse chunk over `mask` whose valid cells are
    /// already compacted in `payload`, in ascending offset order.
    fn compressed(mode: ChunkMode, payload: Vec<E>, mask: Bitmask, policy: &ChunkPolicy) -> Self {
        debug_assert_eq!(payload.len(), mask.count_ones());
        match mode {
            ChunkMode::Dense => unreachable!("dense chunks keep their full payload"),
            ChunkMode::Sparse => Chunk::Sparse {
                milestones: policy.build_milestones.then(|| Milestones::build(&mask)),
                payload,
                mask,
            },
            ChunkMode::SuperSparse => Chunk::SuperSparse {
                payload,
                mask: HierarchicalBitmask::compress(&mask),
            },
        }
    }

    /// Builds directly from `(local offset, value)` pairs (offsets need not
    /// be sorted). Returns `None` when `cells` is empty.
    pub fn from_cells(
        volume: usize,
        cells: impl IntoIterator<Item = (usize, E)>,
        policy: &ChunkPolicy,
    ) -> Option<Self> {
        let mut payload = vec![E::default(); volume];
        let mut mask = Bitmask::zeros(volume);
        let mut any = false;
        for (off, v) in cells {
            payload[off] = v;
            mask.set(off, true);
            any = true;
        }
        if !any {
            return None;
        }
        Chunk::build(payload, mask, policy)
    }

    /// [`Chunk::from_cells`] for pairs that arrive in strictly ascending
    /// offset order: they are already the compact payload of a Sparse or
    /// SuperSparse chunk, so only the mask is sized by `volume` — the
    /// full-volume payload is materialised only when the policy picks
    /// Dense. Cost is O(cells + volume / 64) instead of O(volume).
    pub fn from_sorted_cells(
        volume: usize,
        cells: impl IntoIterator<Item = (usize, E)>,
        policy: &ChunkPolicy,
    ) -> Option<Self> {
        let cells = cells.into_iter();
        let mut compact = Vec::with_capacity(cells.size_hint().0);
        let mut mask = Bitmask::zeros(volume);
        let mut next_free = 0;
        for (off, v) in cells {
            assert!(
                next_free <= off && off < volume,
                "cell offsets must ascend strictly within the chunk volume"
            );
            next_free = off + 1;
            mask.set(off, true);
            compact.push(v);
        }
        Chunk::from_compact(compact, mask, policy)
    }

    /// Builds from the valid cells' values alone — `compact[k]` is the
    /// value of the cell at `mask`'s `k`-th set bit — which is already the
    /// payload of a Sparse or SuperSparse chunk: the full-volume payload is
    /// materialised only when the policy picks Dense. Returns `None` when
    /// no cell is valid.
    pub fn from_compact(compact: Vec<E>, mask: Bitmask, policy: &ChunkPolicy) -> Option<Self> {
        assert_eq!(compact.len(), mask.count_ones(), "one value per valid cell");
        if compact.is_empty() {
            return None;
        }
        Some(match policy.mode_for(mask.len(), compact.len()) {
            ChunkMode::Dense => {
                let mut payload = vec![E::default(); mask.len()];
                for (off, v) in mask.iter_ones().zip(compact) {
                    payload[off] = v;
                }
                Chunk::Dense { payload, mask }
            }
            mode => Chunk::compressed(mode, compact, mask, policy),
        })
    }

    /// The mode this chunk is managed in.
    pub fn mode(&self) -> ChunkMode {
        match self {
            Chunk::Dense { .. } => ChunkMode::Dense,
            Chunk::Sparse { .. } => ChunkMode::Sparse,
            Chunk::SuperSparse { .. } => ChunkMode::SuperSparse,
        }
    }

    /// Number of cell slots (the chunk's clipped volume).
    pub fn volume(&self) -> usize {
        match self {
            Chunk::Dense { mask, .. } | Chunk::Sparse { mask, .. } => mask.len(),
            Chunk::SuperSparse { mask, .. } => mask.len(),
        }
    }

    /// Number of valid cells.
    pub fn valid_count(&self) -> usize {
        match self {
            Chunk::Dense { mask, .. } => mask.count_ones(),
            Chunk::Sparse { payload, .. } | Chunk::SuperSparse { payload, .. } => payload.len(),
        }
    }

    /// Fraction of valid cells.
    pub fn density(&self) -> f64 {
        if self.volume() == 0 {
            0.0
        } else {
            self.valid_count() as f64 / self.volume() as f64
        }
    }

    /// A copy of the validity mask as a flat bitmask.
    pub fn mask(&self) -> Bitmask {
        match self {
            Chunk::Dense { mask, .. } | Chunk::Sparse { mask, .. } => mask.clone(),
            Chunk::SuperSparse { mask, .. } => mask.decompress(),
        }
    }

    /// Random access: the value at local offset `i`, or `None` when the
    /// cell is null. Sparse chunks use the milestone directory when built,
    /// falling back to the naive full-prefix rank otherwise.
    pub fn get(&self, i: usize) -> Option<E> {
        match self {
            Chunk::Dense { payload, mask } => mask.get(i).then(|| payload[i]),
            Chunk::Sparse {
                payload,
                mask,
                milestones,
            } => {
                if !mask.get(i) {
                    return None;
                }
                let rank = match milestones {
                    Some(ms) => ms.rank(mask, i),
                    None => mask.rank_naive(i),
                };
                Some(payload[rank])
            }
            Chunk::SuperSparse { payload, mask } => {
                if !mask.get(i) {
                    return None;
                }
                Some(payload[mask.rank(i)])
            }
        }
    }

    /// Random access forced onto the naive rank path, regardless of any
    /// milestone directory — the `naive` series of Fig. 8.
    pub fn get_naive(&self, i: usize) -> Option<E> {
        match self {
            Chunk::Sparse { payload, mask, .. } => {
                if !mask.get(i) {
                    return None;
                }
                Some(payload[mask.rank_naive(i)])
            }
            _ => self.get(i),
        }
    }

    /// Sequential scan of valid cells as `(local offset, value)` pairs, in
    /// offset order. Sparse chunks use the delta-count cursor (§IV-B1):
    /// payload slots are consumed in lockstep with the mask, so no rank is
    /// ever recomputed from scratch.
    pub fn iter_valid(&self) -> Box<dyn Iterator<Item = (usize, E)> + '_> {
        match self {
            Chunk::Dense { payload, mask } => {
                Box::new(mask.iter_ones().map(move |i| (i, payload[i])))
            }
            Chunk::Sparse { payload, mask, .. } => {
                // A DeltaCursor-style pairing: the k-th set bit owns payload
                // slot k.
                Box::new(
                    mask.iter_ones()
                        .enumerate()
                        .map(move |(slot, i)| (i, payload[slot])),
                )
            }
            Chunk::SuperSparse { payload, mask } => Box::new(
                mask.iter_ones()
                    .enumerate()
                    .map(move |(slot, i)| (i, payload[slot])),
            ),
        }
    }

    /// [`Chunk::iter_valid`] as an internal walk: calls `f(local offset,
    /// value)` for every valid cell in offset order. The mode is matched
    /// once and `f` is inlined into the mask's word loop, so a kernel pays
    /// neither a boxed iterator nor a virtual call per cell.
    #[inline]
    pub fn for_each_valid(&self, mut f: impl FnMut(usize, E)) {
        match self {
            Chunk::Dense { payload, mask } => mask.for_each_one(|i| f(i, payload[i])),
            Chunk::Sparse { payload, mask, .. } => {
                let mut slot = 0;
                mask.for_each_one(|i| {
                    f(i, payload[slot]);
                    slot += 1;
                });
            }
            Chunk::SuperSparse { payload, mask } => {
                let mut slot = 0;
                mask.for_each_one(|i| {
                    f(i, payload[slot]);
                    slot += 1;
                });
            }
        }
    }

    /// Sequential scan that *demonstrates* the delta-count discipline
    /// explicitly: ranks each valid position through a [`DeltaCursor`].
    /// Semantically identical to [`Chunk::iter_valid`]; used by the Fig. 8
    /// harness to time the sequential-access strategy in isolation.
    pub fn scan_with_delta_cursor(&self) -> Vec<(usize, E)> {
        match self {
            Chunk::Sparse { payload, mask, .. } => {
                let mut cursor = DeltaCursor::new(mask);
                mask.iter_ones()
                    .map(|i| {
                        let rank = cursor.rank(i);
                        (i, payload[rank])
                    })
                    .collect()
            }
            _ => self.iter_valid().collect(),
        }
    }

    /// Element-wise transformation of valid cells; mode is preserved. `f`
    /// sees valid cells only: a Dense result's invalid slots hold
    /// `F::default()`.
    pub fn map_values<F: Element>(&self, f: impl Fn(E) -> F) -> Chunk<F> {
        match self {
            Chunk::Dense { payload, mask } => {
                let mut mapped = vec![F::default(); payload.len()];
                mask.for_each_one(|i| mapped[i] = f(payload[i]));
                Chunk::Dense {
                    payload: mapped,
                    mask: mask.clone(),
                }
            }
            Chunk::Sparse {
                payload,
                mask,
                milestones,
            } => Chunk::Sparse {
                payload: payload.iter().map(|&v| f(v)).collect(),
                mask: mask.clone(),
                milestones: milestones.clone(),
            },
            Chunk::SuperSparse { payload, mask } => Chunk::SuperSparse {
                payload: payload.iter().map(|&v| f(v)).collect(),
                mask: mask.clone(),
            },
        }
    }

    /// Keeps only the cells whose bit is set in `keep` (bitwise AND of the
    /// validity mask, §V-A). Returns `None` when nothing survives. The
    /// masks are ANDed word by word and the survivors' values gathered in
    /// one walk of the valid cells, so a compressed result costs the cells
    /// read, never the chunk volume.
    pub fn restrict(&self, keep: &Bitmask, policy: &ChunkPolicy) -> Option<Chunk<E>> {
        assert_eq!(
            keep.len(),
            self.volume(),
            "restriction mask length mismatch"
        );
        let mut mask = self.mask();
        mask.and_assign(keep);
        let kept = mask.count_ones();
        if kept == 0 {
            return None;
        }
        let mut compact = Vec::with_capacity(kept);
        self.for_each_valid(|i, v| {
            if keep.get(i) {
                compact.push(v);
            }
        });
        Chunk::from_compact(compact, mask, policy)
    }

    /// Keeps only cells satisfying `pred` — the per-chunk half of the
    /// Filter operator. Returns `None` when nothing survives. One walk of
    /// the valid cells sets the survivors' bits and gathers their values.
    pub fn filter(&self, pred: impl Fn(E) -> bool, policy: &ChunkPolicy) -> Option<Chunk<E>> {
        let mut mask = Bitmask::zeros(self.volume());
        // Room for every valid cell, trimmed in place afterwards: one
        // allocation instead of a reallocation per doubling.
        let mut compact = Vec::with_capacity(self.valid_count());
        self.for_each_valid(|i, v| {
            if pred(v) {
                mask.set(i, true);
                compact.push(v);
            }
        });
        compact.shrink_to_fit();
        Chunk::from_compact(compact, mask, policy)
    }

    /// Rebuilds the chunk under a different policy (e.g. re-encoding a
    /// dense chunk sparsely). Returns `None` only for empty chunks, which
    /// cannot exist by construction.
    pub fn reencode(&self, policy: &ChunkPolicy) -> Option<Chunk<E>> {
        let mut compact = Vec::with_capacity(self.valid_count());
        self.for_each_valid(|_, v| compact.push(v));
        Chunk::from_compact(compact, self.mask(), policy)
    }

    /// Deep in-memory size in bytes — the quantity Fig. 9a plots per mode.
    pub fn mem_bytes(&self) -> usize {
        let header = std::mem::size_of::<Self>();
        match self {
            Chunk::Dense { payload, mask } => {
                header + payload.len() * std::mem::size_of::<E>() + mask.mem_size()
            }
            Chunk::Sparse {
                payload,
                mask,
                milestones,
            } => {
                header
                    + payload.len() * std::mem::size_of::<E>()
                    + mask.mem_size()
                    + milestones.as_ref().map_or(0, |m| m.mem_size())
            }
            Chunk::SuperSparse { payload, mask } => {
                header + payload.len() * std::mem::size_of::<E>() + mask.mem_size()
            }
        }
    }
}

impl<E: Element> MemSize for Chunk<E> {
    fn mem_size(&self) -> usize {
        self.mem_bytes()
    }

    fn spillable() -> bool {
        E::spillable()
    }

    fn spill_encode(&self, out: &mut Vec<u8>) {
        match self {
            Chunk::Dense { payload, mask } => {
                out.push(0);
                payload.spill_encode(out);
                mask.write_le(out);
            }
            Chunk::Sparse {
                payload,
                mask,
                milestones,
            } => {
                out.push(1);
                payload.spill_encode(out);
                mask.write_le(out);
                // The directory is derived data; a presence flag suffices
                // and it is rebuilt deterministically from the mask.
                out.push(milestones.is_some() as u8);
            }
            Chunk::SuperSparse { payload, mask } => {
                // The hierarchical mask round-trips through its flat form:
                // compress() is deterministic, so re-compressing on decode
                // reproduces the identical structure.
                out.push(2);
                payload.spill_encode(out);
                mask.decompress().write_le(out);
            }
        }
    }

    fn spill_decode(input: &mut spangle_dataflow::SpillCursor<'_>) -> Option<Self> {
        fn take_mask(input: &mut spangle_dataflow::SpillCursor<'_>) -> Option<Bitmask> {
            let (mask, used) = Bitmask::read_le(input.rest())?;
            input.skip(used)?;
            Some(mask)
        }
        match input.u8()? {
            0 => {
                let payload = Vec::<E>::spill_decode(input)?;
                let mask = take_mask(input)?;
                (payload.len() == mask.len()).then_some(Chunk::Dense { payload, mask })
            }
            1 => {
                let payload = Vec::<E>::spill_decode(input)?;
                let mask = take_mask(input)?;
                let milestones = match input.u8()? {
                    0 => None,
                    1 => Some(Milestones::build(&mask)),
                    _ => return None,
                };
                (payload.len() == mask.count_ones()).then_some(Chunk::Sparse {
                    payload,
                    mask,
                    milestones,
                })
            }
            2 => {
                let payload = Vec::<E>::spill_decode(input)?;
                let mask = take_mask(input)?;
                (payload.len() == mask.count_ones()).then_some(Chunk::SuperSparse {
                    payload,
                    mask: HierarchicalBitmask::compress(&mask),
                })
            }
            _ => None,
        }
    }
}

impl<E: Element> PartialEq for Chunk<E> {
    /// Logical equality: same volume, same valid cells, same values —
    /// regardless of mode.
    fn eq(&self, other: &Self) -> bool {
        self.volume() == other.volume()
            && self.valid_count() == other.valid_count()
            && self.iter_valid().eq(other.iter_valid())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_chunk(volume: usize, every: usize, policy: &ChunkPolicy) -> Chunk<f64> {
        let payload: Vec<f64> = (0..volume).map(|i| i as f64).collect();
        let mask = Bitmask::from_fn(volume, |i| i % every == 0);
        Chunk::build(payload, mask, policy).expect("non-empty chunk")
    }

    #[test]
    fn mode_selection_follows_density() {
        let policy = ChunkPolicy::default();
        assert_eq!(make_chunk(4096, 1, &policy).mode(), ChunkMode::Dense);
        assert_eq!(make_chunk(4096, 2, &policy).mode(), ChunkMode::Dense);
        assert_eq!(make_chunk(4096, 3, &policy).mode(), ChunkMode::Sparse);
        assert_eq!(make_chunk(4096, 50, &policy).mode(), ChunkMode::Sparse);
        // 4096 cells, 64ths of them valid => super-sparse boundary: valid =
        // 41 < 64 => super-sparse.
        assert_eq!(
            make_chunk(4096, 100, &policy).mode(),
            ChunkMode::SuperSparse
        );
    }

    #[test]
    fn empty_chunks_are_never_created() {
        let policy = ChunkPolicy::default();
        let mask = Bitmask::zeros(100);
        assert!(Chunk::<f64>::build(vec![0.0; 100], mask, &policy).is_none());
        assert!(Chunk::<f64>::from_cells(100, std::iter::empty(), &policy).is_none());
    }

    #[test]
    fn get_agrees_across_all_modes() {
        for policy in [
            ChunkPolicy::always_dense(),
            ChunkPolicy::default(),
            ChunkPolicy::naive_sparse(),
        ] {
            for every in [2, 7, 100] {
                let c = make_chunk(1000, every, &policy);
                for i in 0usize..1000 {
                    let expected = i.is_multiple_of(every).then_some(i as f64);
                    assert_eq!(c.get(i), expected, "mode={:?} i={i}", c.mode());
                    assert_eq!(c.get_naive(i), expected);
                }
            }
        }
    }

    #[test]
    fn iter_valid_matches_get() {
        for every in [3, 64, 200] {
            let c = make_chunk(2000, every, &ChunkPolicy::default());
            let via_iter: Vec<(usize, f64)> = c.iter_valid().collect();
            let via_get: Vec<(usize, f64)> =
                (0..2000).filter_map(|i| c.get(i).map(|v| (i, v))).collect();
            assert_eq!(via_iter, via_get);
            assert_eq!(c.scan_with_delta_cursor(), via_iter);
        }
    }

    /// The in-place walk visits what `iter_valid` yields, and a
    /// [`ColumnWalk`](crate::ColumnWalk) over it splits every offset as the
    /// division does — in all three modes, for clipped extents, single
    /// rows and columns, and blocks whose first or last columns are empty.
    #[test]
    fn for_each_valid_and_column_walk_match_iter_valid_and_division() {
        let mut modes_seen = [false; 3];
        spangle_testkit::run_cases(0xC01A, 300, |rng| {
            let rows = [1, 2, 3, 17, 44, 64, 100][rng.usize_in(0..7)];
            let cols = [1, 2, 9, 40][rng.usize_in(0..4)];
            let volume = rows * cols;
            let policy = match rng.usize_in(0..3) {
                0 => ChunkPolicy::always_dense(),
                1 => ChunkPolicy::default(),
                _ => ChunkPolicy::naive_sparse(),
            };
            // Valid cells only inside a band of columns, so leading and
            // trailing columns are empty in most cases.
            let (a, b) = (rng.usize_in(0..cols), rng.usize_in(0..cols));
            let band = a.min(b) * rows..(a.max(b) + 1) * rows;
            let keep_one_in = [1, 3, 70, volume][rng.usize_in(0..4)];
            let mut cells: Vec<(usize, f64)> = band
                .clone()
                .filter(|_| rng.usize_in(0..keep_one_in) == 0)
                .map(|i| (i, i as f64 + 0.5))
                .collect();
            if cells.is_empty() {
                cells.push((band.start, 1.0));
            }
            let chunk = Chunk::from_sorted_cells(volume, cells.clone(), &policy).unwrap();
            modes_seen[chunk.mode() as usize] = true;

            let mut walked = Vec::new();
            let mut walk = crate::ColumnWalk::new(rows);
            chunk.for_each_valid(|local, v| {
                assert_eq!(walk.locate(local), (local % rows, local / rows));
                walked.push((local, v));
            });
            assert_eq!(walked, cells);
            assert_eq!(walked, chunk.iter_valid().collect::<Vec<_>>());
        });
        assert_eq!(modes_seen, [true; 3], "every mode must be generated");
    }

    #[test]
    fn from_cells_accepts_unsorted_offsets() {
        let policy = ChunkPolicy::default();
        let c = Chunk::from_cells(10, vec![(7, 7.0), (2, 2.0), (5, 5.0)], &policy).unwrap();
        assert_eq!(c.valid_count(), 3);
        assert_eq!(c.get(2), Some(2.0));
        assert_eq!(c.get(5), Some(5.0));
        assert_eq!(c.get(7), Some(7.0));
        assert_eq!(c.get(0), None);
    }

    #[test]
    fn from_sorted_cells_equals_from_cells_in_every_mode() {
        let mut modes_seen = [false; 3];
        spangle_testkit::run_cases(0x50C7, 300, |rng| {
            let volume = rng.usize_in(1..3000);
            let policy = match rng.usize_in(0..3) {
                0 => ChunkPolicy::always_dense(),
                1 => ChunkPolicy::default(),
                _ => ChunkPolicy::naive_sparse(),
            };
            // From a single cell through super-sparse and sparse to full.
            let keep_one_in = [1, 2, 3, 20, 200, volume][rng.usize_in(0..6)];
            let mut cells: Vec<(usize, f64)> = Vec::new();
            for i in 0..volume {
                if rng.usize_in(0..keep_one_in) == 0 {
                    cells.push((i, rng.f64_unit() - 0.5));
                }
            }
            if cells.is_empty() {
                cells.push((rng.usize_in(0..volume), 1.0));
            }
            let sorted = Chunk::from_sorted_cells(volume, cells.clone(), &policy).unwrap();
            let unsorted = Chunk::from_cells(volume, cells, &policy).unwrap();
            modes_seen[sorted.mode() as usize] = true;
            // Physically identical, not merely logically equal: the
            // encodings agree byte for byte.
            let (mut a, mut b) = (Vec::new(), Vec::new());
            sorted.spill_encode(&mut a);
            unsorted.spill_encode(&mut b);
            assert_eq!(a, b);
            assert_eq!(sorted.mem_bytes(), unsorted.mem_bytes());
            assert!((0..volume).all(|i| sorted.get(i) == unsorted.get(i)));
        });
        assert_eq!(modes_seen, [true; 3], "every mode must be generated");
        assert!(Chunk::<f64>::from_sorted_cells(9, [], &ChunkPolicy::default()).is_none());
    }

    #[test]
    #[should_panic(expected = "ascend strictly")]
    fn from_sorted_cells_rejects_unsorted_offsets() {
        let _ = Chunk::from_sorted_cells(10, [(5, 5.0), (2, 2.0)], &ChunkPolicy::default());
    }

    #[test]
    fn filter_drops_non_matching_cells() {
        let c = make_chunk(100, 2, &ChunkPolicy::default());
        let f = c.filter(|v| v >= 50.0, &ChunkPolicy::default()).unwrap();
        assert_eq!(f.valid_count(), 25);
        assert_eq!(f.get(48), None);
        assert_eq!(f.get(50), Some(50.0));
        // Filtering everything out yields no chunk.
        assert!(c.filter(|_| false, &ChunkPolicy::default()).is_none());
    }

    #[test]
    fn restrict_is_bitwise_and_semantics() {
        let c = make_chunk(100, 2, &ChunkPolicy::default());
        let keep = Bitmask::from_fn(100, |i| i % 3 == 0);
        let r = c.restrict(&keep, &ChunkPolicy::default()).unwrap();
        for i in 0usize..100 {
            let expected = (i.is_multiple_of(2) && i.is_multiple_of(3)).then_some(i as f64);
            assert_eq!(r.get(i), expected, "i={i}");
        }
    }

    /// Bugfix regression: `map_values` ran `f` on a Dense chunk's null
    /// slots, so `100 / v` panicked on a null's `0`; and a Dense `filter`
    /// or `restrict` result kept the dropped cells' values in their slots,
    /// where the spill codec wrote them. Every invalid slot of a Dense
    /// result holds `default()`.
    #[test]
    fn dense_results_hold_default_in_every_invalid_slot() {
        fn assert_invalid_slots_default(c: &Chunk<i64>) {
            let Chunk::Dense { payload, mask } = c else {
                panic!("expected a dense chunk, got {:?}", c.mode());
            };
            for (i, &v) in payload.iter().enumerate() {
                assert!(mask.get(i) || v == 0, "invalid slot {i} holds {v}");
            }
        }
        let dense = ChunkPolicy::always_dense();
        // Cell 0 is null; its slot holds 0.
        let c = Chunk::from_cells(64, (1..64).map(|i| (i, i as i64)), &dense).unwrap();
        let inverted = c.map_values(|v: i64| 100 / v);
        assert_eq!((inverted.get(0), inverted.get(7)), (None, Some(14)));
        assert_invalid_slots_default(&inverted);
        assert_invalid_slots_default(&c.filter(|v| v % 3 == 0, &dense).unwrap());
        let keep = Bitmask::from_fn(64, |i| i % 5 == 0);
        assert_invalid_slots_default(&c.restrict(&keep, &dense).unwrap());
    }

    /// `filter`, `restrict` and `reencode` build, from every source mode
    /// and under every policy, keeping none, some or all cells, the very
    /// chunk `from_cells` builds from the survivors of `iter_valid`: the
    /// same cells and encoding, so the mode is `policy.mode_for(volume,
    /// kept)` and a Sparse result has milestones exactly when the policy
    /// asks.
    #[test]
    fn filter_restrict_and_reencode_equal_an_iter_valid_reference() {
        let policies = [
            ChunkPolicy::default(),
            ChunkPolicy::always_dense(),
            ChunkPolicy::naive_sparse(),
        ];
        let (mut sources_seen, mut results_seen) = ([false; 3], [false; 3]);
        spangle_testkit::run_cases(0xF17E, 300, |rng| {
            let volume = rng.usize_in(1..3000);
            let keep_one_in = [1, 2, 3, 20, 200, volume][rng.usize_in(0..6)];
            let mut cells: Vec<(usize, f64)> = Vec::new();
            for i in 0..volume {
                if rng.usize_in(0..keep_one_in) == 0 {
                    cells.push((i, rng.f64_unit()));
                }
            }
            if cells.is_empty() {
                cells.push((rng.usize_in(0..volume), 0.5));
            }
            let source_policy = policies[rng.usize_in(0..3)];
            let source = Chunk::from_sorted_cells(volume, cells, &source_policy).unwrap();
            sources_seen[source.mode() as usize] = true;
            let policy = policies[rng.usize_in(0..3)];
            // Keep none, some or all of the cells.
            let (threshold, keep) = match rng.usize_in(0..3) {
                0 => (0.0, Bitmask::zeros(volume)),
                1 => (1.0, Bitmask::ones(volume)),
                _ => {
                    let one_in = rng.usize_in(1..6);
                    let keep = Bitmask::from_fn(volume, |_| rng.usize_in(0..one_in) == 0);
                    (rng.f64_unit(), keep)
                }
            };
            let reference: Vec<(usize, f64)> = source.iter_valid().collect();
            let mut check = |got: Option<Chunk<f64>>, kept: Vec<(usize, f64)>| {
                let expected = Chunk::from_cells(volume, kept.iter().copied(), &policy);
                let (Some(got), Some(expected)) = (got, expected) else {
                    assert!(kept.is_empty(), "{} cells kept, no chunk built", kept.len());
                    return;
                };
                results_seen[got.mode() as usize] = true;
                assert_eq!(got, expected);
                assert_eq!(got.mode(), policy.mode_for(volume, kept.len()));
                if let Chunk::Sparse { milestones, .. } = &got {
                    assert_eq!(milestones.is_some(), policy.build_milestones);
                }
                let (mut a, mut b) = (Vec::new(), Vec::new());
                got.spill_encode(&mut a);
                expected.spill_encode(&mut b);
                assert!(a == b, "encodings differ");
            };
            let filtered = reference.iter().filter(|(_, v)| *v < threshold);
            check(
                source.filter(|v| v < threshold, &policy),
                filtered.copied().collect(),
            );
            let restricted = reference.iter().filter(|(i, _)| keep.get(*i));
            check(
                source.restrict(&keep, &policy),
                restricted.copied().collect(),
            );
            check(source.reencode(&policy), reference.clone());
        });
        assert_eq!(
            sources_seen, [true; 3],
            "every source mode must be generated"
        );
        assert_eq!(results_seen, [true; 3], "every result mode must be built");
    }

    #[test]
    fn map_values_transforms_and_preserves_mode() {
        let c = make_chunk(1000, 7, &ChunkPolicy::default());
        let m = c.map_values(|v| v * 2.0);
        assert_eq!(m.mode(), c.mode());
        for i in 0..1000 {
            assert_eq!(m.get(i), c.get(i).map(|v| v * 2.0));
        }
    }

    #[test]
    fn sparse_mode_is_smaller_than_dense_for_sparse_data() {
        let dense = make_chunk(65536, 20, &ChunkPolicy::always_dense());
        let sparse = make_chunk(65536, 20, &ChunkPolicy::default());
        assert_eq!(dense.mode(), ChunkMode::Dense);
        assert_eq!(sparse.mode(), ChunkMode::Sparse);
        assert!(
            sparse.mem_bytes() * 2 < dense.mem_bytes(),
            "sparse {} vs dense {}",
            sparse.mem_bytes(),
            dense.mem_bytes()
        );
    }

    #[test]
    fn super_sparse_mask_compression_pays_off() {
        let sparse = Chunk::Sparse {
            payload: vec![1.0f64; 4],
            mask: Bitmask::from_fn(1 << 18, |i| i % (1 << 16) == 0),
            milestones: None,
        };
        let ss = sparse.reencode(&ChunkPolicy::default()).unwrap();
        assert_eq!(ss.mode(), ChunkMode::SuperSparse);
        assert!(ss.mem_bytes() * 4 < sparse.mem_bytes());
        assert_eq!(ss.valid_count(), 4);
    }

    #[test]
    fn reencode_preserves_logical_content() {
        let c = make_chunk(5000, 9, &ChunkPolicy::always_dense());
        let r = c.reencode(&ChunkPolicy::default()).unwrap();
        assert_eq!(c, r);
        assert_ne!(c.mode(), r.mode());
    }

    #[test]
    fn spill_codec_roundtrips_every_mode() {
        assert!(<Chunk<f64> as MemSize>::spillable());
        for (every, policy) in [
            (1, ChunkPolicy::default()),      // dense
            (7, ChunkPolicy::default()),      // sparse with milestones
            (7, ChunkPolicy::naive_sparse()), // sparse without milestones
            (200, ChunkPolicy::default()),    // super-sparse
        ] {
            let c = make_chunk(4096, every, &policy);
            let mut buf = Vec::new();
            c.spill_encode(&mut buf);
            let mut cur = spangle_dataflow::SpillCursor::new(&buf);
            let back = Chunk::<f64>::spill_decode(&mut cur).expect("decode");
            assert_eq!(cur.remaining(), 0, "codec must be self-delimiting");
            // Bit-identical, not merely logically equal: same mode, same
            // physical size, same cells.
            assert_eq!(back.mode(), c.mode());
            assert_eq!(back.mem_bytes(), c.mem_bytes());
            assert_eq!(back, c);
            assert!(
                (0..4096).all(|i| back.get(i) == c.get(i)),
                "random access must agree after rehydration"
            );
        }
    }

    #[test]
    fn spill_codec_rejects_corrupt_frames() {
        let c = make_chunk(1000, 7, &ChunkPolicy::default());
        let mut buf = Vec::new();
        c.spill_encode(&mut buf);
        let truncated = &buf[..buf.len() - 3];
        assert!(
            Chunk::<f64>::spill_decode(&mut spangle_dataflow::SpillCursor::new(truncated))
                .is_none()
        );
        let mut bad_tag = buf.clone();
        bad_tag[0] = 9;
        assert!(
            Chunk::<f64>::spill_decode(&mut spangle_dataflow::SpillCursor::new(&bad_tag)).is_none()
        );
    }

    /// Mutation fuzzing of the element codec: no truncation, bit flip or
    /// lying length makes the decoder panic, and whatever still decodes is
    /// a chunk whose payload and mask agree — it scans, answers random
    /// access and re-encodes to the bytes it was read from.
    #[test]
    fn spill_codec_survives_mutation_fuzzing() {
        for (every, policy) in [
            (1, ChunkPolicy::default()),      // dense
            (7, ChunkPolicy::default()),      // sparse with milestones
            (7, ChunkPolicy::naive_sparse()), // sparse without milestones
            (90, ChunkPolicy::default()),     // super-sparse
        ] {
            let c = make_chunk(200, every, &policy);
            let mut frame = Vec::new();
            c.spill_encode(&mut frame);
            spangle_testkit::for_each_mutation(&frame, |bytes| {
                let mut cur = spangle_dataflow::SpillCursor::new(bytes);
                let Some(back) = Chunk::<f64>::spill_decode(&mut cur) else {
                    return;
                };
                let consumed = bytes.len() - cur.remaining();
                let cells: Vec<(usize, f64)> = back.iter_valid().collect();
                assert_eq!(cells.len(), back.valid_count());
                assert!(cells.iter().all(|&(i, _)| i < back.volume()));
                for &(i, v) in &cells {
                    assert_eq!(back.get(i).map(f64::to_bits), Some(v.to_bits()));
                }
                let mut again = Vec::new();
                back.spill_encode(&mut again);
                assert!(again == bytes[..consumed], "re-encoding differs");
            });
        }
    }

    #[test]
    fn logical_equality_ignores_mode() {
        let a = make_chunk(1000, 5, &ChunkPolicy::always_dense());
        let b = make_chunk(1000, 5, &ChunkPolicy::default());
        assert_eq!(a, b);
        let c = make_chunk(1000, 7, &ChunkPolicy::default());
        assert_ne!(a, c);
    }
}
