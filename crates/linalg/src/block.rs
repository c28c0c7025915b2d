//! Per-block kernels: where the bitmask earns its keep (paper Fig. 5).
//!
//! A block is a [`Chunk<f64>`] of extent `rows × cols`, stored column-last
//! (local offset `r + c * rows`, matching the array mapper's dim-0-fastest
//! layout). Zero entries are invalid cells; multiplication only touches
//! pairs that survive the bitmask AND, "avoid\[ing\] the multiplication if
//! one of them is zero".
//!
//! Every product here is a Gustavson walk over a [`ColumnIndex`]: `A` is
//! indexed once as compressed columns, `B`'s valid cells are visited in
//! offset order (column by column, `k` ascending inside a column, empty
//! columns never visited), and each `B[k, c]` scales column `k` of `A` into
//! output column `c`. Work is proportional to the non-zeros and the
//! multiplications they imply, never to the block volume or its column
//! count, and every output cell receives its terms in ascending `k` — so
//! all kernels below agree bit for bit. The sparse-output kernel sums into
//! a [`SparseAccumulator`] of the output block's volume whose two-level
//! touched mask names the occupied words, so draining it costs the
//! entries, not the volume.

use spangle_bitmask::{
    choose_validity_repr, for_each_bit, Bitmask, HierarchicalBitmask, OffsetArray, ValidityRepr,
    WORD_BITS,
};
use spangle_core::{Chunk, ChunkMode, ChunkPolicy, ColumnWalk};

/// Builds a block chunk from a dense column-last buffer, dropping zeros
/// into the mask (zero == invalid in matrix mode).
pub fn block_from_dense(values: Vec<f64>, policy: &ChunkPolicy) -> Option<Chunk<f64>> {
    let mask = Bitmask::from_fn(values.len(), |i| values[i] != 0.0);
    Chunk::build(values, mask, policy)
}

/// Builds a block chunk from `(row, col, value)` triplets.
pub fn block_from_triplets(
    rows: usize,
    cols: usize,
    triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    policy: &ChunkPolicy,
) -> Option<Chunk<f64>> {
    let cells = triplets
        .into_iter()
        .filter(|&(_, _, v)| v != 0.0)
        .map(|(r, c, v)| {
            debug_assert!(r < rows && c < cols, "triplet out of block bounds");
            (r + c * rows, v)
        });
    Chunk::from_cells(rows * cols, cells, policy)
}

/// A block's valid cells as compressed columns: column `c` owns the slots
/// `col_ptr[c]..col_ptr[c + 1]` of `row` / `val`, rows ascending, and `col`
/// names each cell's column, so a walk of the cells in offset order never
/// visits an empty column.
///
/// One pass over the block's valid cells builds it (they arrive in offset
/// order, which is column-major), with no division per cell. A block that
/// meets many partners under one contraction key is indexed once and the
/// index reused for every pair.
pub struct ColumnIndex {
    rows: usize,
    col_ptr: Vec<u32>,
    col: Vec<u32>,
    row: Vec<u32>,
    val: Vec<f64>,
}

impl ColumnIndex {
    /// Indexes a `rows × cols` block.
    pub fn of_block(block: &Chunk<f64>, rows: usize, cols: usize) -> Self {
        debug_assert_eq!(block.volume(), rows * cols, "block extent mismatch");
        let nnz = block.valid_count();
        let mut col_ptr = Vec::with_capacity(cols + 1);
        // Written by slot, not pushed: the walk's closure then keeps no
        // vector length to reload and store per cell.
        let (mut col, mut row, mut val) = (vec![0; nnz], vec![0; nnz], vec![0.0; nnz]);
        let mut walk = ColumnWalk::new(rows);
        let mut slot = 0;
        block.for_each_valid(|local, v| {
            let (r, c) = walk.locate(local);
            open_columns(&mut col_ptr, c, slot);
            (col[slot], row[slot], val[slot]) = (c as u32, r as u32, v);
            slot += 1;
        });
        Self::closed(rows, cols, col_ptr, col, row, val)
    }

    /// Indexes a `rows × cols` block given as its valid cells' ascending
    /// offsets and their values.
    fn of_offsets(offsets: &[u32], values: &[f64], rows: usize, cols: usize) -> Self {
        let mut col_ptr = Vec::with_capacity(cols + 1);
        let mut col = Vec::with_capacity(offsets.len());
        let mut row = Vec::with_capacity(offsets.len());
        let mut walk = ColumnWalk::new(rows);
        for (slot, &local) in offsets.iter().enumerate() {
            let (r, c) = walk.locate(local as usize);
            open_columns(&mut col_ptr, c, slot);
            col.push(c as u32);
            row.push(r as u32);
        }
        Self::closed(rows, cols, col_ptr, col, row, values.to_vec())
    }

    /// The index of its parts, the columns no cell opened closed.
    fn closed(
        rows: usize,
        cols: usize,
        mut col_ptr: Vec<u32>,
        col: Vec<u32>,
        row: Vec<u32>,
        val: Vec<f64>,
    ) -> Self {
        debug_assert!(col_ptr.len() <= cols, "cell beyond the block extent");
        col_ptr.resize(cols + 1, val.len() as u32);
        ColumnIndex {
            rows,
            col_ptr,
            col,
            row,
            val,
        }
    }

    /// Indexes the `cols × rows` transpose of a `rows × cols` block without
    /// building it: a counting sort of the block's cells by row. Column `r`
    /// of the transpose is row `r` of the block, and the cells of a row
    /// arrive in ascending column, so each lands in its column's slots
    /// already in order. Equal, field for field, to [`ColumnIndex::of_block`]
    /// of [`block_transpose`]'s chunk.
    pub fn of_transpose(block: &Chunk<f64>, rows: usize, cols: usize) -> Self {
        debug_assert_eq!(block.volume(), rows * cols, "block extent mismatch");
        let nnz = block.valid_count();
        // col_ptr[r + 1]: the cells of row r, then their running sums.
        let mut col_ptr = vec![0u32; rows + 1];
        let mut walk = ColumnWalk::new(rows);
        block.for_each_valid(|local, _| col_ptr[walk.locate(local).0 + 1] += 1);
        for r in 0..rows {
            col_ptr[r + 1] += col_ptr[r];
        }
        // next[r]: the slot the next cell of row r lands in.
        let mut next = col_ptr[..rows].to_vec();
        let (mut col, mut row, mut val) = (vec![0; nnz], vec![0; nnz], vec![0.0; nnz]);
        let mut walk = ColumnWalk::new(rows);
        block.for_each_valid(|local, v| {
            let (r, c) = walk.locate(local);
            let slot = next[r] as usize;
            next[r] += 1;
            (col[slot], row[slot], val[slot]) = (r as u32, c as u32, v);
        });
        ColumnIndex {
            rows: cols,
            col_ptr,
            col,
            row,
            val,
        }
    }

    fn cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// The valid cells of column `c` as parallel `(rows, values)` slices.
    fn column(&self, c: usize) -> (&[u32], &[f64]) {
        let span = self.col_ptr[c] as usize..self.col_ptr[c + 1] as usize;
        (&self.row[span.clone()], &self.val[span])
    }
}

/// Opens every column up to `c` in `col_ptr`, the first of them at `slot`:
/// an index's cells arrive in ascending offset order, so a cell of column
/// `c` closes all the columns before it.
#[inline]
fn open_columns(col_ptr: &mut Vec<u32>, c: usize, slot: usize) {
    while col_ptr.len() <= c {
        col_ptr.push(slot as u32);
    }
}

/// Running sums over one block's volume plus a two-level mask of the slots
/// touched so far — the [`HierarchicalBitmask`] layout: `touched` has one
/// bit per slot, `upper` one bit per `touched` word that holds any. Every
/// drain — [`SparseAccumulator::take_chunk`] on the reduce side,
/// [`block_multiply_sparse`]'s run on the multiply side — walks `upper`'s
/// set bits to the occupied words and their set bits, which yields the
/// non-zeros already sorted, at a cost of the entries plus `volume / 4096`
/// upper words; and it leaves all three all-zero, so one accumulator serves
/// any number of blocks in a row.
#[derive(Default)]
pub struct SparseAccumulator {
    sums: Vec<f64>,
    touched: Vec<u64>,
    upper: Vec<u64>,
}

impl SparseAccumulator {
    /// Sizes the (all-zero) accumulator to exactly `len` slots, writing
    /// only the slots it grows by. Those are filled by stores, not handed
    /// out as zero pages: the kernel read-modify-writes its first touch of a
    /// slot, which on a zero page faults twice (see
    /// [`SparseAccumulator::add_runs`]).
    pub fn fit(&mut self, len: usize) {
        debug_assert!(self.is_drained(), "accumulator not drained");
        let words = len.div_ceil(WORD_BITS);
        self.sums.resize(len, 0.0);
        self.touched.resize(words, 0);
        self.upper.resize(words.div_ceil(WORD_BITS), 0);
    }

    /// The sums, and a [`Marker`] of the touched mask.
    fn split(&mut self) -> (&mut [f64], Marker<'_>) {
        let marker = Marker {
            touched: &mut self.touched,
            upper: &mut self.upper,
            at: 0,
            bits: 0,
        };
        (&mut self.sums, marker)
    }

    /// The number of touched slots, counted over the occupied words alone.
    fn touched_count(&self) -> usize {
        let mut count = 0;
        for (u, &live) in self.upper.iter().enumerate() {
            for_each_bit(live, u * WORD_BITS, &mut |w| {
                count += self.touched[w].count_ones() as usize
            });
        }
        count
    }

    /// Calls `f(w, word, sums)` for every non-zero `touched` word, in
    /// ascending `w`, found through `upper` without visiting an empty word,
    /// and clears both mask levels as it goes; `f` owns resetting the sums.
    fn drain_words(&mut self, mut f: impl FnMut(usize, u64, &mut [f64])) {
        let SparseAccumulator {
            sums,
            touched,
            upper,
        } = self;
        for (u, live) in upper.iter_mut().enumerate() {
            for_each_bit(std::mem::take(live), u * WORD_BITS, &mut |w| {
                f(w, std::mem::take(&mut touched[w]), sums)
            });
        }
    }

    /// True when no slot is touched.
    fn is_drained(&self) -> bool {
        self.upper.iter().all(|&live| live == 0)
    }

    /// Sums sorted partial-product runs into the accumulator, in the order
    /// given. The accumulator must be drained (all-zero), which is what
    /// lets the first run be *stored* rather than added: `0.0 + v` is `v`,
    /// and a store never reads its slot.
    ///
    /// The store is worth more than the load it saves. A Dense chunk takes
    /// the sums buffer with it ([`SparseAccumulator::take_chunk`]), so the
    /// next block's sums are pages fresh from the allocator, and a
    /// read-modify-write of an untouched page faults twice — the read maps
    /// the shared zero page, the write then replaces it, with a TLB
    /// shootdown — where a store faults once. Any run dense enough to sum
    /// to a Dense chunk touches every page, so after the first run no slot
    /// is on a fresh page. On the 2-vCPU box, when a `gram_shuffle` reduce
    /// task still summed all 64 of its output blocks (3 M entries, before
    /// `gram` computed only the upper block triangle), they took 7–20 ms
    /// this way and 125–205 ms with the first run added like the rest.
    pub fn add_runs<'a>(&mut self, runs: impl IntoIterator<Item = &'a [(u32, f64)]>) {
        debug_assert!(self.is_drained(), "accumulator not drained");
        let (sums, mut marker) = self.split();
        let mut runs = runs.into_iter();
        if let Some(first) = runs.next() {
            for &(i, v) in first {
                sums[i as usize] = v;
                marker.mark(i as usize);
            }
        }
        for run in runs {
            for &(i, v) in run {
                sums[i as usize] += v;
                marker.mark(i as usize);
            }
        }
    }

    /// Drains the accumulator into the chunk of its non-zero sums — the
    /// mask from the touched words, the payload from the sums, with no cell
    /// list in between — and resets it. `None` when nothing is left: exact
    /// cancellations are zeros, and zeros are invalid cells.
    pub fn take_chunk(&mut self, policy: &ChunkPolicy) -> Option<Chunk<f64>> {
        let (volume, words) = (self.sums.len(), self.touched.len());
        let touched = self.touched_count();
        if policy.mode_for(volume, touched) == ChunkMode::Dense {
            // The sums are the payload as they stand: the chunk takes the
            // buffer and the accumulator a fresh one. Untouched slots are
            // zero like cancelled ones, so a touched word's valid bits are
            // exactly its non-zero slots.
            let mut valid = vec![0; words];
            self.drain_words(|w, _, sums| {
                let slots = sums[w * WORD_BITS..].iter().take(WORD_BITS);
                valid[w] = slots
                    .enumerate()
                    .fold(0, |bits, (j, v)| bits | u64::from(*v != 0.0) << j);
            });
            let payload = std::mem::replace(&mut self.sums, vec![0.0; volume]);
            return Chunk::build(payload, Bitmask::from_words(volume, valid), policy);
        }
        // Fewer valid cells only lower the density: not Dense either. One
        // walk over the touched words copies the non-zero sums out in mask
        // order, resets every slot it passes and keeps each word's surviving
        // bits — the two levels of a hierarchical mask, cancelled cells and
        // words left empty by them already gone.
        let mut compact = Vec::with_capacity(touched);
        let mut upper = vec![0; words.div_ceil(WORD_BITS)];
        let mut lower = Vec::new();
        self.drain_words(|w, word, sums| {
            let mut valid = 0;
            for_each_bit(word, 0, &mut |j| {
                let v = std::mem::take(&mut sums[w * WORD_BITS + j]);
                if v != 0.0 {
                    compact.push(v);
                    valid |= 1 << j;
                }
            });
            if valid != 0 {
                upper[w / WORD_BITS] |= 1 << (w % WORD_BITS);
                lower.push(valid);
            }
        });
        if compact.is_empty() {
            return None;
        }
        let upper = Bitmask::from_words(words, upper);
        if policy.mode_for(volume, compact.len()) == ChunkMode::SuperSparse {
            let mask = HierarchicalBitmask::from_parts(volume, upper, lower);
            return Some(Chunk::SuperSparse {
                payload: compact,
                mask,
            });
        }
        let mut flat = vec![0; words];
        for (w, word) in upper.iter_ones().zip(lower) {
            flat[w] = word;
        }
        Chunk::from_compact(compact, Bitmask::from_words(volume, flat), policy)
    }
}

/// Marks slots touched in a [`SparseAccumulator`]'s two levels. The upper
/// word being filled stays in a register, stored when the marks move on to
/// another one and when the marker drops: marks come clustered — a run
/// ascends, a kernel column stays inside one 4096-slot span — and a
/// read-modify-write of the same upper word per mark would chain every mark
/// on the previous one's store (`microbench`'s `partial_reduce/accumulate`
/// read 60 % slower that way).
struct Marker<'a> {
    touched: &'a mut [u64],
    upper: &'a mut [u64],
    at: usize,
    bits: u64,
}

impl Marker<'_> {
    #[inline]
    fn mark(&mut self, i: usize) {
        let w = i / WORD_BITS;
        self.touched[w] |= 1 << (i % WORD_BITS);
        let u = w / WORD_BITS;
        if u != self.at {
            self.upper[self.at] |= self.bits;
            (self.at, self.bits) = (u, 0);
        }
        self.bits |= 1 << (w % WORD_BITS);
    }
}

impl Drop for Marker<'_> {
    fn drop(&mut self) {
        if let Some(word) = self.upper.get_mut(self.at) {
            *word |= self.bits;
        }
    }
}

/// `Σ A_k · B_k` over `pairs` of indexed blocks `A_k (rows × inner_k)` and
/// `B_k (inner_k × cols)` — every contribution to one output block — as the
/// sorted `(local offset, value)` run of its non-zeros, the form partial
/// products cross the shuffle in. Exact cancellations are dropped.
///
/// The whole output block is summed in `acc` (`rows × cols` slots): pair
/// after pair, `B`'s non-zeros are walked in offset order and each
/// `B[k, c]` scatters column `k` of `A` into `sums[r + c · rows]`; then one
/// drain through the touched mask emits the block. Every entry is written
/// once however many pairs feed it, offsets come out strictly ascending,
/// and there is no merge and no sort; an empty column of `B` and an
/// untouched word of the output cost nothing. Each cell receives its terms
/// in pair order, then ascending `k` — with `pairs` in ascending
/// contraction order, ascending global `k`.
pub fn block_multiply_sparse(
    pairs: &[(&ColumnIndex, &ColumnIndex)],
    acc: &mut SparseAccumulator,
) -> Vec<(u32, f64)> {
    let Some(&(first_a, first_b)) = pairs.first() else {
        return Vec::new();
    };
    let (rows, cols) = (first_a.rows, first_b.cols());
    debug_assert!(
        pairs
            .iter()
            .all(|(a, b)| a.rows == rows && b.cols() == cols && a.cols() == b.rows),
        "pairs must share the output extent and agree on their inner extents"
    );
    acc.fit(rows * cols);
    let (sums, mut marker) = acc.split();
    for (a, b) in pairs {
        for ((&k, &c), &vb) in b.row.iter().zip(&b.col).zip(&b.val) {
            let base = c as usize * rows;
            let (rs, vas) = a.column(k as usize);
            for (&r, &va) in rs.iter().zip(vas) {
                let i = base + r as usize;
                sums[i] += va * vb;
                marker.mark(i);
            }
        }
    }
    drop(marker);
    let mut out = Vec::with_capacity(acc.touched_count());
    acc.drain_words(|w, word, sums| {
        for_each_bit(word, w * WORD_BITS, &mut |i| {
            let v = std::mem::take(&mut sums[i]);
            if v != 0.0 {
                out.push((i as u32, v));
            }
        })
    });
    out
}

/// `out[r + c * a.rows] += A · B` into a dense column-last buffer: the
/// same walk as [`block_multiply_sparse`] with `B`'s cells visited where
/// they are stored, through [`Chunk::for_each_valid`], and the buffer
/// itself as the accumulator.
fn multiply_into_dense(a: &ColumnIndex, b: &Chunk<f64>, inner: usize, out: &mut [f64]) {
    let mut walk = ColumnWalk::new(inner);
    b.for_each_valid(|local, vb| {
        let (k, c) = walk.locate(local);
        let out_col = &mut out[c * a.rows..(c + 1) * a.rows];
        let (rs, vas) = a.column(k);
        for (&r, &va) in rs.iter().zip(vas) {
            out_col[r as usize] += va * vb;
        }
    });
}

/// `out[r + c*a_rows] += A · B` for blocks `A (a_rows × inner)` and
/// `B (inner × b_cols)`, skipping invalid (zero) pairs via the sparsity
/// the bitmask preserved — the bitmask-AND of Fig. 5 evaluated lazily:
/// only `B` cells whose `k` names a non-empty column of `A` cost anything.
pub fn block_multiply_into(
    a: &Chunk<f64>,
    a_rows: usize,
    b: &Chunk<f64>,
    inner: usize,
    b_cols: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(b.volume(), inner * b_cols, "B block extent mismatch");
    debug_assert_eq!(out.len(), a_rows * b_cols);
    let a = ColumnIndex::of_block(a, a_rows, inner);
    multiply_into_dense(&a, b, inner, out);
}

/// Dense reference kernel: ignores the mask entirely and multiplies every
/// slot (invalid slots read as 0). This is the SciSpark-style baseline.
pub fn block_multiply_dense_into(
    a: &Chunk<f64>,
    a_rows: usize,
    b: &Chunk<f64>,
    inner: usize,
    b_cols: usize,
    out: &mut [f64],
) {
    let mut a_dense = vec![0.0; a_rows * inner];
    a.for_each_valid(|local, v| a_dense[local] = v);
    let mut b_dense = vec![0.0; inner * b_cols];
    b.for_each_valid(|local, v| b_dense[local] = v);
    for c in 0..b_cols {
        for k in 0..inner {
            let vb = b_dense[k + c * inner];
            if vb == 0.0 {
                continue;
            }
            let out_col = &mut out[c * a_rows..(c + 1) * a_rows];
            let a_col = &a_dense[k * a_rows..(k + 1) * a_rows];
            for r in 0..a_rows {
                out_col[r] += a_col[r] * vb;
            }
        }
    }
}

/// Offset-array kernel (§V-A4): the same contraction as
/// [`block_multiply_into`] but reading A's cells from an explicit
/// [`OffsetArray`] instead of the bitmask — profitable for static,
/// hyper-sparse blocks where the offsets are smaller than the mask.
pub fn block_multiply_offsets_into(
    a_offsets: &OffsetArray,
    a_values: &[f64],
    a_rows: usize,
    b: &Chunk<f64>,
    inner: usize,
    b_cols: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(a_offsets.count_ones(), a_values.len());
    debug_assert_eq!(b.volume(), inner * b_cols);
    let a = ColumnIndex::of_offsets(a_offsets.offsets(), a_values, a_rows, inner);
    multiply_into_dense(&a, b, inner, out);
}

/// The validity representation a static block should use for repeated
/// multiplication (bitmask vs offset array), per the paper's size rule.
pub fn preferred_repr(block: &Chunk<f64>) -> ValidityRepr {
    choose_validity_repr(block.volume(), block.valid_count())
}

/// Transposes a block: `(rows × cols)` column-last to `(cols × rows)`
/// column-last.
///
/// A Dense block is moved as it stands: its payload is copied in 32 × 32
/// tiles and its mask transposed 64 × 64 bits at a time, so validity is
/// carried over bit for bit, never re-derived from the values. A Sparse or
/// SuperSparse block is indexed as its transpose
/// ([`ColumnIndex::of_transpose`], a counting sort by row), whose cells are
/// the transposed block's in offset order, so the result is encoded without
/// a scratch of the block's volume.
pub fn block_transpose(
    block: &Chunk<f64>,
    rows: usize,
    cols: usize,
    policy: &ChunkPolicy,
) -> Option<Chunk<f64>> {
    if let Chunk::Dense { payload, mask } = block {
        debug_assert_eq!(payload.len(), rows * cols, "block extent mismatch");
        let payload = transpose_payload(payload, rows, cols);
        return Chunk::build(payload, transpose_mask(mask, rows, cols), policy);
    }
    let t = ColumnIndex::of_transpose(block, rows, cols);
    let cells = (t.row.iter().zip(&t.col).zip(&t.val))
        .map(|((&r, &c), &v)| (r as usize + c as usize * cols, v));
    Chunk::from_sorted_cells(rows * cols, cells, policy)
}

/// `out[c + r * cols] = payload[r + c * rows]`, one 32 × 32 tile at a time:
/// a tile's strided reads and its row-long writes both stay in L1.
fn transpose_payload(payload: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    const TILE: usize = 32;
    let mut out = vec![0.0; rows * cols];
    for r0 in (0..rows).step_by(TILE) {
        for c0 in (0..cols).step_by(TILE) {
            let c1 = (c0 + TILE).min(cols);
            for r in r0..(r0 + TILE).min(rows) {
                let target = &mut out[c0 + r * cols..c1 + r * cols];
                for (c, slot) in (c0..c1).zip(target) {
                    *slot = payload[r + c * rows];
                }
            }
        }
    }
    out
}

/// The mask of the transposed block: bit `r + c * rows` moves to
/// `c + r * cols`. A tile of 64 source rows by 64 columns is gathered as
/// one word per source column, transposed as a 64 × 64 bit matrix, and
/// scattered as one word per target column, so a bit costs a fraction of
/// a word operation instead of a test and a set.
fn transpose_mask(mask: &Bitmask, rows: usize, cols: usize) -> Bitmask {
    let source = mask.words();
    let mut out = vec![0u64; (rows * cols).div_ceil(WORD_BITS)];
    let mut tile = [0u64; WORD_BITS];
    for r0 in (0..rows).step_by(WORD_BITS) {
        let height = (rows - r0).min(WORD_BITS);
        for c0 in (0..cols).step_by(WORD_BITS) {
            let width = (cols - c0).min(WORD_BITS);
            for (j, word) in tile.iter_mut().enumerate() {
                *word = if j < width {
                    read_bits(source, r0 + (c0 + j) * rows, height)
                } else {
                    0
                };
            }
            transpose_bit_matrix(&mut tile);
            for (i, &word) in tile[..height].iter().enumerate() {
                or_bits(&mut out, c0 + (r0 + i) * cols, word);
            }
        }
    }
    Bitmask::from_words(rows * cols, out)
}

/// The `len ≤ 64` bits of `words` from bit `at` on, as a word's low bits.
fn read_bits(words: &[u64], at: usize, len: usize) -> u64 {
    let (w, shift) = (at / WORD_BITS, at % WORD_BITS);
    let mut bits = words[w] >> shift;
    if shift + len > WORD_BITS {
        bits |= words[w + 1] << (WORD_BITS - shift);
    }
    if len < WORD_BITS {
        bits &= (1 << len) - 1;
    }
    bits
}

/// ORs the word `bits` into `words` from bit `at` on; no set bit of it may
/// land past the last word.
fn or_bits(words: &mut [u64], at: usize, bits: u64) {
    let (w, shift) = (at / WORD_BITS, at % WORD_BITS);
    words[w] |= bits << shift;
    if shift != 0 && bits >> (WORD_BITS - shift) != 0 {
        words[w + 1] |= bits >> (WORD_BITS - shift);
    }
}

/// Transposes a 64 × 64 bit matrix in place — bit `i` of word `j` trades
/// places with bit `j` of word `i` — in six rounds, each swapping the
/// off-diagonal halves of every diagonal block at half the previous width
/// (Hacker's Delight, §7-3).
fn transpose_bit_matrix(m: &mut [u64; WORD_BITS]) {
    let mut width = WORD_BITS / 2;
    let mut low = u64::MAX >> width;
    while width != 0 {
        for k in (0..WORD_BITS).filter(|k| k & width == 0) {
            let t = ((m[k] >> width) ^ m[k + width]) & low;
            m[k] ^= t << width;
            m[k + width] ^= t;
        }
        width /= 2;
        low ^= low << width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_of(chunk: &Chunk<f64>) -> Vec<f64> {
        let mut out = vec![0.0; chunk.volume()];
        for (i, v) in chunk.iter_valid() {
            out[i] = v;
        }
        out
    }

    fn reference_multiply(
        a: &[f64],
        a_rows: usize,
        b: &[f64],
        inner: usize,
        b_cols: usize,
    ) -> Vec<f64> {
        let mut out = vec![0.0; a_rows * b_cols];
        for r in 0..a_rows {
            for c in 0..b_cols {
                for k in 0..inner {
                    out[r + c * a_rows] += a[r + k * a_rows] * b[k + c * inner];
                }
            }
        }
        out
    }

    fn sample_block(rows: usize, cols: usize, density_mod: usize, seed: usize) -> Chunk<f64> {
        block_from_triplets(
            rows,
            cols,
            (0..rows).flat_map(|r| {
                (0..cols)
                    .filter(move |c| (r * cols + c + seed).is_multiple_of(density_mod))
                    .map(move |c| (r, c, (r * 10 + c + 1) as f64))
            }),
            &ChunkPolicy::default(),
        )
        .expect("non-empty block")
    }

    #[test]
    fn masked_kernel_matches_dense_reference() {
        for density in [1, 2, 5, 17] {
            let a = sample_block(6, 5, density, 0);
            let b = sample_block(5, 7, density, 3);
            let expected = reference_multiply(&dense_of(&a), 6, &dense_of(&b), 5, 7);
            let mut got = vec![0.0; 6 * 7];
            block_multiply_into(&a, 6, &b, 5, 7, &mut got);
            assert_eq!(got, expected, "density={density}");
            let mut dense_got = vec![0.0; 6 * 7];
            block_multiply_dense_into(&a, 6, &b, 5, 7, &mut dense_got);
            assert_eq!(dense_got, expected, "dense kernel, density={density}");
        }
    }

    #[test]
    fn offset_kernel_matches_masked_kernel() {
        let a = sample_block(8, 8, 7, 1);
        let b = sample_block(8, 6, 3, 2);
        let mut expected = vec![0.0; 8 * 6];
        block_multiply_into(&a, 8, &b, 8, 6, &mut expected);

        let offsets = OffsetArray::from_mask(&a.mask());
        let values: Vec<f64> = a.iter_valid().map(|(_, v)| v).collect();
        let mut got = vec![0.0; 8 * 6];
        block_multiply_offsets_into(&offsets, &values, 8, &b, 8, 6, &mut got);
        assert_eq!(got, expected);
    }

    /// The retired operator path, kept as the bit-identity reference: a
    /// dense scratch of the output block's volume, filled by walking A's
    /// cells against B's per-row cell lists, then scanned for non-zeros.
    fn retired_dense_scratch_product(
        a: &Chunk<f64>,
        a_rows: usize,
        b: &Chunk<f64>,
        inner: usize,
        b_cols: usize,
    ) -> Vec<(u32, f64)> {
        let mut b_by_row: Vec<(usize, usize, f64)> = b
            .iter_valid()
            .map(|(local, v)| (local % inner, local / inner, v))
            .collect();
        b_by_row.sort_by_key(|&(k, c, _)| (k, c));
        let mut scratch = vec![0.0f64; a_rows * b_cols];
        for (local, va) in a.iter_valid() {
            let (r, k) = (local % a_rows, local / a_rows);
            let row = &b_by_row[b_by_row.partition_point(|e| e.0 < k)..];
            for &(_, c, vb) in row.iter().take_while(|e| e.0 == k) {
                scratch[r + c * a_rows] += va * vb;
            }
        }
        scratch
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, &v)| (i as u32, v))
            .collect()
    }

    /// The retired multiply-side kernel, kept as the bit-identity reference
    /// for the volume accumulator: output column by output column, every
    /// pair's contribution summed in a `rows`-long scratch and flushed
    /// through its touched rows before the next column starts.
    fn retired_column_walk(pairs: &[(&ColumnIndex, &ColumnIndex)]) -> Vec<(u32, f64)> {
        let Some(&(first_a, first_b)) = pairs.first() else {
            return Vec::new();
        };
        let (rows, cols) = (first_a.rows, first_b.cols());
        let mut sums = vec![0.0; rows];
        let mut touched = Bitmask::zeros(rows);
        let mut out = Vec::new();
        for c in 0..cols {
            for (a, b) in pairs {
                let (ks, vbs) = b.column(c);
                for (&k, &vb) in ks.iter().zip(vbs) {
                    let (rs, vas) = a.column(k as usize);
                    for (&r, &va) in rs.iter().zip(vas) {
                        sums[r as usize] += va * vb;
                        touched.set(r as usize, true);
                    }
                }
            }
            for r in touched.iter_ones() {
                let v = std::mem::take(&mut sums[r]);
                if v != 0.0 {
                    out.push(((c * rows + r) as u32, v));
                }
            }
            touched.clear();
        }
        out
    }

    /// Panics unless the sums and both mask levels are all zero.
    fn assert_drained(acc: &SparseAccumulator, after: &str) {
        assert!(
            acc.sums.iter().all(|v| v.to_bits() == 0),
            "sums not zero after {after}"
        );
        assert!(
            acc.touched.iter().all(|&w| w == 0),
            "touched not zero after {after}"
        );
        assert!(
            acc.upper.iter().all(|&w| w == 0),
            "upper not zero after {after}"
        );
    }

    /// A `rows × cols` block of `nnz` distinct cells under `policy`.
    /// `integral` values are small integers of both signs (sums cancel
    /// exactly); otherwise reals of both signs (sums round).
    fn generated_block(
        rng: &mut spangle_testkit::Rng,
        rows: usize,
        cols: usize,
        nnz: usize,
        integral: bool,
        policy: &ChunkPolicy,
    ) -> Chunk<f64> {
        let mut slots: Vec<usize> = (0..rows * cols).collect();
        for i in 0..nnz {
            let j = rng.usize_in(i..slots.len());
            slots.swap(i, j);
        }
        let cells = slots[..nnz].iter().map(|&local| {
            let v = if integral {
                [-2.0, -1.0, 1.0, 2.0][rng.usize_in(0..4)]
            } else {
                rng.f64_unit() - 0.5
            };
            (local % rows, local / rows, v)
        });
        block_from_triplets(rows, cols, cells.collect::<Vec<_>>(), policy).expect("nnz >= 1")
    }

    /// Non-zero counts from a single cell to a full block.
    fn generated_nnz(rng: &mut spangle_testkit::Rng, volume: usize) -> usize {
        match rng.usize_in(0..6) {
            0 => 1,
            1 => rng.usize_in(1..4),
            2 => volume.div_ceil(100),
            3 => volume.div_ceil(10),
            4 => volume.div_ceil(2),
            _ => volume,
        }
        .min(volume)
    }

    fn generated_policy(rng: &mut spangle_testkit::Rng) -> ChunkPolicy {
        match rng.usize_in(0..3) {
            0 => ChunkPolicy::always_dense(),
            1 => ChunkPolicy::default(),
            _ => ChunkPolicy::naive_sparse(),
        }
    }

    #[test]
    fn column_walk_is_bit_identical_to_the_retired_path_over_generated_blocks() {
        // One accumulator for the whole run: reuse across products is part
        // of what is under test.
        let mut acc = SparseAccumulator::default();
        let mut modes_seen = [[false; 3]; 2];
        let mut cancellations = 0usize;
        spangle_testkit::run_cases(0xB10C, 400, |rng| {
            // Ragged extents: rows != cols, smaller than any block size.
            let (a_rows, inner, b_cols) = (
                rng.usize_in(1..40),
                rng.usize_in(1..40),
                rng.usize_in(1..40),
            );
            let integral = rng.bool();
            let a_nnz = generated_nnz(rng, a_rows * inner);
            let b_nnz = generated_nnz(rng, inner * b_cols);
            let (a_policy, b_policy) = (generated_policy(rng), generated_policy(rng));
            let a = generated_block(rng, a_rows, inner, a_nnz, integral, &a_policy);
            let b = generated_block(rng, inner, b_cols, b_nnz, integral, &b_policy);
            for (side, block) in [&a, &b].into_iter().enumerate() {
                modes_seen[side][block.mode() as usize] = true;
            }

            let a_index = ColumnIndex::of_block(&a, a_rows, inner);
            let b_index = ColumnIndex::of_block(&b, inner, b_cols);
            let got = block_multiply_sparse(&[(&a_index, &b_index)], &mut acc);
            assert_drained(&acc, "a product");
            assert!(
                got.windows(2).all(|w| w[0].0 < w[1].0),
                "offsets must ascend strictly"
            );
            assert!(got.iter().all(|&(_, v)| v != 0.0), "zeros are not emitted");

            let retired = retired_dense_scratch_product(&a, a_rows, &b, inner, b_cols);
            assert_eq!(bits(&got), bits(&retired), "partials must be bit-identical");

            // Terms that summed to an exact zero were dropped.
            let mut structural = vec![false; a_rows * b_cols];
            for (la, _) in a.iter_valid() {
                for (lb, _) in b.iter_valid() {
                    if la / a_rows == lb % inner {
                        structural[la % a_rows + (lb / inner) * a_rows] = true;
                    }
                }
            }
            cancellations += structural.iter().filter(|s| **s).count() - got.len();

            let mut got_dense = vec![0.0; a_rows * b_cols];
            for &(i, v) in &got {
                got_dense[i as usize] = v;
            }
            let mut dense = vec![0.0; a_rows * b_cols];
            block_multiply_dense_into(&a, a_rows, &b, inner, b_cols, &mut dense);
            for (i, (x, y)) in got_dense.iter().zip(&dense).enumerate() {
                assert!((x - y).abs() <= 1e-12, "cell {i}: {x} vs dense {y}");
            }

            // The dense-output kernels are the same walk: same bits (a
            // cancelled cell reads 0.0 there and is absent here).
            let mut masked = vec![0.0; a_rows * b_cols];
            block_multiply_into(&a, a_rows, &b, inner, b_cols, &mut masked);
            let offsets = OffsetArray::from_mask(&a.mask());
            let values: Vec<f64> = a.iter_valid().map(|(_, v)| v).collect();
            let mut via_offsets = vec![0.0; a_rows * b_cols];
            block_multiply_offsets_into(
                &offsets,
                &values,
                a_rows,
                &b,
                inner,
                b_cols,
                &mut via_offsets,
            );
            for kernel in [&masked, &via_offsets] {
                for (i, (x, y)) in got_dense.iter().zip(kernel).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits() || (*x == 0.0 && *y == 0.0),
                        "cell {i}"
                    );
                }
            }
        });
        assert_eq!(
            modes_seen, [[true; 3]; 2],
            "every chunk mode must occur on both sides"
        );
        assert!(cancellations > 0, "no case exercised an exact cancellation");
    }

    /// Merge-adds two sorted sparse partial blocks — how partial products
    /// were combined before the kernel summed all of a block's pairs
    /// itself: one fresh vector per merge. Kept as the reference.
    fn merge_sparse_partials(a: Vec<(u32, f64)>, b: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }

    fn bits(run: &[(u32, f64)]) -> Vec<(u32, u64)> {
        run.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    fn dense_of_run(run: &[(u32, f64)], volume: usize) -> Vec<f64> {
        let mut out = vec![0.0; volume];
        for &(i, v) in run {
            out[i as usize] = v;
        }
        out
    }

    /// The multi-pair product against the retired path — one run emitted
    /// per pair, the runs merge-added in ascending key order, zeros dropped
    /// at the end — and against the dense kernels.
    ///
    /// Both paths add the same terms; they associate them differently. The
    /// retired path closes each pair's sum before adding it to the total,
    /// `(t₁ + t₂) + (t₃ + t₄)`; one accumulator across the pairs is the
    /// running sum `((t₁ + t₂) + t₃) + t₄`. So the runs are compared bit
    /// for bit wherever the arithmetic is exact — integral values, which
    /// is also where sums cancel, and any product of at most one pair —
    /// and to 1e-12 otherwise; and *always* bit for bit against the
    /// dense-output kernel accumulating pair after pair into one buffer,
    /// which is the same running sum.
    #[test]
    fn multi_pair_product_matches_the_retired_merge_path_over_generated_blocks() {
        let mut acc = SparseAccumulator::default();
        let mut modes_seen = [[false; 3]; 2];
        let mut pair_counts_seen = [false; 3];
        let (mut cancellations, mut reassociated) = (0usize, 0usize);
        spangle_testkit::run_cases(0xACC5, 400, |rng| {
            let (rows, cols) = (rng.usize_in(1..40), rng.usize_in(1..40));
            let volume = rows * cols;
            let integral = rng.bool();
            let num_pairs = [0, 1, rng.usize_in(2..7)][rng.usize_in(0..3)];
            pair_counts_seen[num_pairs.min(2)] = true;
            // Each pair has its own inner extent: the last contraction
            // block of a ragged matrix is narrower than the others.
            let blocks: Vec<(usize, Chunk<f64>, Chunk<f64>)> = (0..num_pairs)
                .map(|_| {
                    let inner = rng.usize_in(1..40);
                    let a_nnz = generated_nnz(rng, rows * inner);
                    let b_nnz = generated_nnz(rng, inner * cols);
                    let (a_policy, b_policy) = (generated_policy(rng), generated_policy(rng));
                    let a = generated_block(rng, rows, inner, a_nnz, integral, &a_policy);
                    let b = generated_block(rng, inner, cols, b_nnz, integral, &b_policy);
                    modes_seen[0][a.mode() as usize] = true;
                    modes_seen[1][b.mode() as usize] = true;
                    (inner, a, b)
                })
                .collect();
            let indexed: Vec<(ColumnIndex, ColumnIndex)> = blocks
                .iter()
                .map(|(inner, a, b)| {
                    (
                        ColumnIndex::of_block(a, rows, *inner),
                        ColumnIndex::of_block(b, *inner, cols),
                    )
                })
                .collect();
            let pairs: Vec<(&ColumnIndex, &ColumnIndex)> =
                indexed.iter().map(|(a, b)| (a, b)).collect();

            let got = block_multiply_sparse(&pairs, &mut acc);
            assert_drained(&acc, "a product");
            assert!(
                got.windows(2).all(|w| w[0].0 < w[1].0),
                "offsets must ascend strictly"
            );
            assert!(got.iter().all(|&(_, v)| v != 0.0), "zeros are not emitted");
            let got_dense = dense_of_run(&got, volume);

            let mut retired = pairs
                .iter()
                .map(|&pair| block_multiply_sparse(&[pair], &mut acc))
                .fold(Vec::new(), merge_sparse_partials);
            let merged_len = retired.len();
            retired.retain(|&(_, v)| v != 0.0);
            cancellations += merged_len - retired.len();
            if integral || num_pairs <= 1 {
                assert_eq!(
                    bits(&got),
                    bits(&retired),
                    "exact sums must agree to the bit"
                );
            } else {
                let retired_dense = dense_of_run(&retired, volume);
                for (i, (x, y)) in got_dense.iter().zip(&retired_dense).enumerate() {
                    assert!((x - y).abs() <= 1e-12, "cell {i}: {x} vs retired {y}");
                }
                reassociated += usize::from(bits(&got) != bits(&retired));
            }

            let mut masked = vec![0.0; volume];
            let mut dense = vec![0.0; volume];
            for (inner, a, b) in &blocks {
                block_multiply_into(a, rows, b, *inner, cols, &mut masked);
                block_multiply_dense_into(a, rows, b, *inner, cols, &mut dense);
            }
            for (i, (x, y)) in got_dense.iter().zip(&masked).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits() || (*x == 0.0 && *y == 0.0),
                    "cell {i}: {x} vs the running dense sum {y}"
                );
            }
            for (i, (x, y)) in got_dense.iter().zip(&dense).enumerate() {
                assert!((x - y).abs() <= 1e-12, "cell {i}: {x} vs dense {y}");
            }
        });
        assert_eq!(
            modes_seen, [[true; 3]; 2],
            "every chunk mode must occur on both sides"
        );
        assert_eq!(pair_counts_seen, [true; 3], "0, 1 and many pairs");
        assert!(cancellations > 0, "no case exercised an exact cancellation");
        assert!(
            reassociated > 0,
            "no real-valued case told the two associations apart"
        );
    }

    /// The reduce side's drain: runs scatter-added in order, the chunk
    /// taken from the touched mask and the sums, against the retired
    /// merge-then-`from_sorted_cells` encode — byte-identical chunks in
    /// every mode, cancelled cells invalid, the accumulator all-zero after.
    #[test]
    fn take_chunk_equals_merging_runs_and_encoding_their_cells() {
        let mut acc = SparseAccumulator::default();
        let mut modes_seen = [false; 3];
        let (mut cancellations, mut empties) = (0usize, 0usize);
        spangle_testkit::run_cases(0x7A4E, 300, |rng| {
            let volume = rng.usize_in(1..1600);
            let policy = generated_policy(rng);
            let integral = rng.bool();
            let keep_one_in = [1, 2, 3, 20, 200, volume][rng.usize_in(0..6)];
            let runs: Vec<Vec<(u32, f64)>> = (0..rng.usize_in(0..5))
                .map(|_| {
                    (0..volume)
                        .filter_map(|i| {
                            if rng.usize_in(0..keep_one_in) != 0 {
                                return None;
                            }
                            let v = if integral {
                                [-1.0, 1.0][rng.usize_in(0..2)]
                            } else {
                                rng.f64_unit() - 0.5
                            };
                            Some((i as u32, v))
                        })
                        .collect()
                })
                .collect();
            acc.fit(volume);
            acc.add_runs(runs.iter().map(Vec::as_slice));
            let got = acc.take_chunk(&policy);
            assert_drained(&acc, "a drain");
            assert_eq!(acc.sums.len(), volume);

            let merged = runs.iter().cloned().fold(Vec::new(), merge_sparse_partials);
            let cells: Vec<(usize, f64)> = merged
                .iter()
                .filter(|(_, v)| *v != 0.0)
                .map(|&(i, v)| (i as usize, v))
                .collect();
            cancellations += merged.len() - cells.len();
            let expected = Chunk::from_sorted_cells(volume, cells, &policy);
            match (&got, &expected) {
                (None, None) => empties += 1,
                (Some(got), Some(expected)) => {
                    modes_seen[got.mode() as usize] = true;
                    use spangle_dataflow::MemSize;
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    got.spill_encode(&mut a);
                    expected.spill_encode(&mut b);
                    assert_eq!(a, b, "encodings must agree byte for byte");
                    assert_eq!(got.mem_bytes(), expected.mem_bytes());
                }
                _ => panic!("one path built a chunk, the other none"),
            }
        });
        assert_eq!(modes_seen, [true; 3], "every mode must be generated");
        assert!(cancellations > 0 && empties > 0);
    }

    /// A `rows × cols` block of one cell up to `volume / 200` cells
    /// (duplicate draws merge), built from its sorted cells with no scratch
    /// of its volume. Values never cancel to zero on their own.
    fn hypersparse_block(
        rng: &mut spangle_testkit::Rng,
        rows: usize,
        cols: usize,
        integral: bool,
    ) -> Chunk<f64> {
        let volume = rows * cols;
        let nnz = match rng.usize_in(0..3) {
            0 => 1,
            1 => rng.usize_in(1..8),
            _ => rng.usize_in(1..(volume / 200).max(1) + 1),
        };
        let mut offsets: Vec<usize> = (0..nnz).map(|_| rng.usize_in(0..volume)).collect();
        offsets.sort_unstable();
        offsets.dedup();
        let cells: Vec<(usize, f64)> = offsets
            .into_iter()
            .map(|local| {
                let sign = [-1.0, 1.0][rng.usize_in(0..2)];
                let magnitude = if integral {
                    rng.usize_in(1..3) as f64
                } else {
                    rng.f64_unit() + 0.5
                };
                (local, sign * magnitude)
            })
            .collect();
        Chunk::from_sorted_cells(volume, cells, &ChunkPolicy::default()).expect("nnz >= 1")
    }

    /// The sizes the benchmark's gram workloads run — output blocks of
    /// 4 097 cells up to 512², ragged extents, hypersparse operands, 1–24
    /// pairs per output block — where the upper mask level spans several
    /// words. The product equals the retired column walk bit for bit; the
    /// runs of the same pairs split over up to four map partitions, summed
    /// as the reduce side sums them, drain into the chunk `from_sorted_cells`
    /// builds from their merge, byte for byte and — SuperSparse — mask
    /// structure included. Every product and every drain leaves the sums
    /// and both mask levels all-zero.
    #[test]
    fn benchmark_sized_hypersparse_products_match_the_column_walk_and_drain_clean() {
        let mut acc = SparseAccumulator::default();
        let mut modes_seen = [false; 3];
        let (mut cancellations, mut pair_counts) = (0usize, Vec::new());
        spangle_testkit::run_cases(0x5A12, 64, |rng| {
            let (rows, cols) = if rng.usize_in(0..4) == 0 {
                (512, 512)
            } else {
                let rows = rng.usize_in(9..513);
                (rows, rng.usize_in(4097usize.div_ceil(rows)..513))
            };
            let volume = rows * cols;
            let integral = rng.bool();
            let num_pairs = rng.usize_in(1..25);
            pair_counts.push(num_pairs);
            let mut blocks: Vec<(usize, Chunk<f64>, Chunk<f64>)> = (0..num_pairs)
                .map(|_| {
                    let inner = rng.usize_in(1..513);
                    let a = hypersparse_block(rng, rows, inner, integral);
                    let b = hypersparse_block(rng, inner, cols, integral);
                    (inner, a, b)
                })
                .collect();
            // Hypersparse terms rarely meet; a last pair that negates the
            // first makes every one of its cells cancel in exact arithmetic.
            if num_pairs > 1 && rng.bool() {
                let (inner, a, b) = &blocks[0];
                blocks[num_pairs - 1] = (*inner, a.map_values(|v| -v), b.clone());
            }
            let indexed: Vec<(ColumnIndex, ColumnIndex)> = blocks
                .iter()
                .map(|(inner, a, b)| {
                    (
                        ColumnIndex::of_block(a, rows, *inner),
                        ColumnIndex::of_block(b, *inner, cols),
                    )
                })
                .collect();
            let pairs: Vec<(&ColumnIndex, &ColumnIndex)> =
                indexed.iter().map(|(a, b)| (a, b)).collect();

            let got = block_multiply_sparse(&pairs, &mut acc);
            assert_drained(&acc, "a product");
            assert_eq!(
                bits(&got),
                bits(&retired_column_walk(&pairs)),
                "{rows}x{cols}, {num_pairs} pairs: runs must be bit-identical"
            );

            let per_partition = num_pairs.div_ceil(rng.usize_in(1..5));
            let runs: Vec<Vec<(u32, f64)>> = pairs
                .chunks(per_partition)
                .map(|partition| block_multiply_sparse(partition, &mut acc))
                .collect();
            assert_drained(&acc, "a product");
            let policy = generated_policy(rng);
            acc.fit(volume);
            acc.add_runs(runs.iter().map(Vec::as_slice));
            let chunk = acc.take_chunk(&policy);
            assert_drained(&acc, "a drain");

            let merged = runs.into_iter().fold(Vec::new(), merge_sparse_partials);
            let cells: Vec<(usize, f64)> = merged
                .iter()
                .filter(|(_, v)| *v != 0.0)
                .map(|&(i, v)| (i as usize, v))
                .collect();
            cancellations += merged.len() - cells.len();
            let expected = Chunk::from_sorted_cells(volume, cells, &policy);
            match (&chunk, &expected) {
                (None, None) => {}
                (Some(got), Some(expected)) => {
                    modes_seen[got.mode() as usize] = true;
                    assert_eq!(got.mode(), expected.mode());
                    use spangle_dataflow::MemSize;
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    got.spill_encode(&mut a);
                    expected.spill_encode(&mut b);
                    assert_eq!(a, b, "encodings must agree byte for byte");
                    assert_eq!(got.mem_bytes(), expected.mem_bytes());
                    if let (
                        Chunk::SuperSparse { mask: got, .. },
                        Chunk::SuperSparse { mask: expected, .. },
                    ) = (got, expected)
                    {
                        assert_eq!(got, expected, "hierarchical masks must agree");
                    }
                }
                _ => panic!("one path built a chunk, the other none"),
            }
        });
        assert!(
            modes_seen[ChunkMode::SuperSparse as usize] && modes_seen[ChunkMode::Dense as usize],
            "SuperSparse and Dense drains must both occur: {modes_seen:?}"
        );
        assert!(cancellations > 0, "no case exercised an exact cancellation");
        assert!(
            pair_counts.contains(&1) && pair_counts.iter().any(|&n| n > 16),
            "one pair and many pairs: {pair_counts:?}"
        );
    }

    #[test]
    fn transpose_matches_the_unsorted_cell_constructor_in_every_mode() {
        spangle_testkit::run_cases(0x7A05, 200, |rng| {
            let (rows, cols) = (rng.usize_in(1..48), rng.usize_in(1..48));
            let nnz = generated_nnz(rng, rows * cols);
            let policy = generated_policy(rng);
            let block = generated_block(rng, rows, cols, nnz, false, &policy);
            let got = block_transpose(&block, rows, cols, &policy).expect("non-empty");
            let unsorted = block
                .iter_valid()
                .map(|(local, v)| (local / rows + (local % rows) * cols, v));
            let expected = Chunk::from_cells(rows * cols, unsorted, &policy).expect("non-empty");
            assert_eq!(got.mode(), expected.mode());
            assert_eq!(got.mem_bytes(), expected.mem_bytes());
            assert_eq!(got, expected);
        });
    }

    /// An index's fields, values as bits.
    fn fields(index: &ColumnIndex) -> (usize, &[u32], &[u32], &[u32], Vec<u64>) {
        let val = index.val.iter().map(|v| v.to_bits()).collect();
        (index.rows, &index.col_ptr, &index.col, &index.row, val)
    }

    /// The retired indexer, kept as the reference for
    /// [`ColumnIndex::of_block`]: the boxed [`Chunk::iter_valid`] walk, each
    /// cell's column found by stepping a running column end past it.
    fn retired_of_block(block: &Chunk<f64>, rows: usize, cols: usize) -> ColumnIndex {
        let nnz = block.valid_count();
        let mut col_ptr = Vec::with_capacity(cols + 1);
        let (mut col, mut row, mut val) = (
            Vec::with_capacity(nnz),
            Vec::with_capacity(nnz),
            Vec::with_capacity(nnz),
        );
        let mut col_end = 0;
        for (local, v) in block.iter_valid() {
            while local >= col_end {
                col_ptr.push(row.len() as u32);
                col_end += rows;
            }
            col.push((col_ptr.len() - 1) as u32);
            row.push((local + rows - col_end) as u32);
            val.push(v);
        }
        col_ptr.resize(cols + 1, row.len() as u32);
        ColumnIndex {
            rows,
            col_ptr,
            col,
            row,
            val,
        }
    }

    /// A `rows × cols` block of one kind, picked at random: a single cell;
    /// `generated_block`'s cells; or cells confined to some rows and some
    /// columns, so that whole rows and columns are empty. Under `policy`.
    fn block_with_empty_lines(
        rng: &mut spangle_testkit::Rng,
        rows: usize,
        cols: usize,
        policy: &ChunkPolicy,
    ) -> Chunk<f64> {
        let kind = rng.usize_in(0..3);
        if kind == 1 {
            let nnz = generated_nnz(rng, rows * cols);
            return generated_block(rng, rows, cols, nnz, false, policy);
        }
        let (r0, c0) = (rng.usize_in(0..rows), rng.usize_in(0..cols));
        let mut cells = vec![(r0, c0, rng.f64_unit() + 0.5)];
        if kind == 2 {
            let live_rows: Vec<bool> = (0..rows).map(|r| r == r0 || rng.bool()).collect();
            let live_cols: Vec<bool> = (0..cols).map(|c| c == c0 || rng.bool()).collect();
            let keep_one_in = [1, 4, 50][rng.usize_in(0..3)];
            for c in (0..cols).filter(|&c| live_cols[c]) {
                for r in (0..rows).filter(|&r| live_rows[r] && (r, c) != (r0, c0)) {
                    if rng.usize_in(0..keep_one_in) == 0 {
                        cells.push((r, c, rng.f64_unit() - 0.5));
                    }
                }
            }
        }
        block_from_triplets(rows, cols, cells, policy).expect("one cell at least")
    }

    /// `of_block` builds the index the retired `iter_valid` walk built, and
    /// `of_transpose` the index of the transposed chunk, field for field —
    /// in every mode, at ragged extents, with empty rows and columns and
    /// with single-cell blocks. A Dense block's valid zero and a stale value
    /// behind a clear bit are indexed as the mask says.
    #[test]
    fn column_indexes_equal_the_retired_walk_and_the_transposed_chunks_index() {
        let mut modes_seen = [false; 3];
        let (mut single_cells, mut empty_rows, mut empty_cols) = (0, 0, 0);
        spangle_testkit::run_cases(0x1DE5, 400, |rng| {
            let (rows, cols) = (rng.usize_in(1..150), rng.usize_in(1..150));
            let policy = generated_policy(rng);
            let mut block = block_with_empty_lines(rng, rows, cols, &policy);
            if let Chunk::Dense { payload, mask } = &mut block {
                let valid = mask.iter_ones().next().expect("non-empty");
                payload[valid] = 0.0;
                if let Some(invalid) = (0..rows * cols).find(|&i| !mask.get(i)) {
                    payload[invalid] = 7.0;
                }
            }
            modes_seen[block.mode() as usize] = true;
            single_cells += usize::from(block.valid_count() == 1);

            let index = ColumnIndex::of_block(&block, rows, cols);
            assert_eq!(
                fields(&index),
                fields(&retired_of_block(&block, rows, cols)),
                "of_block, {rows}x{cols}"
            );
            let transposed = block_transpose(&block, rows, cols, &policy).expect("non-empty");
            let t = ColumnIndex::of_transpose(&block, rows, cols);
            assert_eq!(
                fields(&t),
                fields(&ColumnIndex::of_block(&transposed, cols, rows)),
                "of_transpose, {rows}x{cols}"
            );
            let has_empty = |col_ptr: &[u32]| col_ptr.windows(2).any(|w| w[0] == w[1]);
            empty_cols += usize::from(has_empty(&index.col_ptr));
            empty_rows += usize::from(has_empty(&t.col_ptr));
        });
        assert_eq!(modes_seen, [true; 3], "every mode must occur");
        assert!(
            single_cells > 0 && empty_rows > 0 && empty_cols > 0,
            "single cells {single_cells}, empty rows {empty_rows}, empty columns {empty_cols}"
        );
    }

    /// A chunk's mode, every payload slot's bits and its flat mask words.
    fn raw_bits(chunk: &Chunk<f64>) -> (ChunkMode, Vec<u64>, Vec<u64>) {
        let payload = match chunk {
            Chunk::Dense { payload, .. }
            | Chunk::Sparse { payload, .. }
            | Chunk::SuperSparse { payload, .. } => payload,
        };
        let payload = payload.iter().map(|v| v.to_bits()).collect();
        (chunk.mode(), payload, chunk.mask().words().to_vec())
    }

    /// Transposing twice returns the block bit for bit — mode, every
    /// payload slot and every mask word — in each mode, at ragged extents
    /// that straddle the Dense arm's 64-bit tiles. The Dense arm moves the
    /// mask instead of re-deriving it from the values, so a valid zero and
    /// a stale value behind a clear bit both survive the round trip.
    #[test]
    fn transposing_twice_is_the_identity_bit_for_bit_in_every_mode() {
        let mut modes_seen = [false; 3];
        spangle_testkit::run_cases(0x7A06, 200, |rng| {
            let (rows, cols) = (rng.usize_in(1..150), rng.usize_in(1..150));
            let nnz = generated_nnz(rng, rows * cols);
            let policy = generated_policy(rng);
            let mut block = generated_block(rng, rows, cols, nnz, false, &policy);
            if let Chunk::Dense { payload, mask } = &mut block {
                let valid = mask.iter_ones().next().expect("non-empty");
                payload[valid] = 0.0;
                if let Some(invalid) = (0..rows * cols).find(|&i| !mask.get(i)) {
                    payload[invalid] = 7.0;
                }
            }
            modes_seen[block.mode() as usize] = true;
            let once = block_transpose(&block, rows, cols, &policy).expect("non-empty");
            assert_eq!(once.valid_count(), block.valid_count());
            for (local, v) in block.iter_valid() {
                let mirrored = once.get(local / rows + (local % rows) * cols);
                assert_eq!(mirrored.map(f64::to_bits), Some(v.to_bits()));
            }
            let twice = block_transpose(&once, cols, rows, &policy).expect("non-empty");
            assert_eq!(raw_bits(&twice), raw_bits(&block), "{rows}x{cols}");
        });
        assert_eq!(modes_seen, [true; 3], "every mode must occur");
    }

    #[test]
    fn block_from_dense_drops_zeros_into_the_mask() {
        let block = block_from_dense(vec![0.0, 1.0, 0.0, 2.0], &ChunkPolicy::default()).unwrap();
        assert_eq!(block.valid_count(), 2);
        assert_eq!(block.get(0), None, "zero entries are invalid cells");
        assert_eq!(block.get(1), Some(1.0));
    }

    #[test]
    fn all_zero_block_is_not_created() {
        assert!(block_from_dense(vec![0.0; 16], &ChunkPolicy::default()).is_none());
        assert!(block_from_triplets(4, 4, vec![(0, 0, 0.0)], &ChunkPolicy::default()).is_none());
    }

    #[test]
    fn transpose_flips_coordinates() {
        let a = sample_block(4, 6, 3, 0);
        let t = block_transpose(&a, 4, 6, &ChunkPolicy::default()).unwrap();
        for r in 0..4 {
            for c in 0..6 {
                assert_eq!(a.get(r + c * 4), t.get(c + r * 6), "({r},{c})");
            }
        }
    }

    #[test]
    fn preferred_repr_switches_with_sparsity() {
        // 64x64 block (4096 slots), 2 valid cells: offsets (8 B) < mask
        // (512 B).
        let hyper = block_from_triplets(
            64,
            64,
            vec![(0, 0, 1.0), (63, 63, 2.0)],
            &ChunkPolicy::default(),
        )
        .unwrap();
        assert_eq!(preferred_repr(&hyper), ValidityRepr::Offsets);
        let dense = sample_block(64, 64, 1, 0);
        assert_eq!(preferred_repr(&dense), ValidityRepr::Bitmask);
    }
}
