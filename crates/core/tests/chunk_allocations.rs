//! Allocation pin for the chunk operators: filtering or restricting a
//! Sparse or SuperSparse chunk gathers the survivors straight into their
//! compact payload, so no call allocates a full-volume payload.
//!
//! A counting global allocator wraps the system one and counts the
//! allocations of exactly `VOLUME × 8` bytes. No other allocation of the
//! test has that size: masks take `VOLUME / 64` words, and a compressed
//! source has fewer than `VOLUME / 2` cells to gather.

use spangle_bitmask::Bitmask;
use spangle_core::{Chunk, ChunkMode, ChunkPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

const VOLUME: usize = 12_007;
const WATCHED_BYTES: usize = VOLUME * std::mem::size_of::<f64>();

/// The allocation size being counted; 0 counts nothing.
static WATCHED: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn note(size: usize) {
        if size == WATCHED.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only reads the size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Counts the watched allocations `f` makes.
fn full_volume_allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    COUNT.store(0, Ordering::Relaxed);
    WATCHED.store(WATCHED_BYTES, Ordering::Relaxed);
    let out = f();
    WATCHED.store(0, Ordering::Relaxed);
    (COUNT.load(Ordering::Relaxed), out)
}

#[test]
fn filter_and_restrict_of_compressed_chunks_allocate_no_full_volume_payload() {
    let policy = ChunkPolicy::default();
    let chunk = |every: usize| {
        let cells = (0..VOLUME).step_by(every).map(|i| (i, i as f64));
        Chunk::from_sorted_cells(VOLUME, cells, &policy).unwrap()
    };
    let sparse = chunk(7);
    let super_sparse = chunk(101);
    assert_eq!(sparse.mode(), ChunkMode::Sparse);
    assert_eq!(super_sparse.mode(), ChunkMode::SuperSparse);
    let keep = Bitmask::from_fn(VOLUME, |i| i % 3 != 0);

    for source in [&sparse, &super_sparse] {
        let (count, filtered) =
            full_volume_allocations(|| source.filter(|v| v % 2.0 == 0.0, &policy).unwrap());
        assert_eq!(count, 0, "filter of a {:?} chunk", source.mode());
        assert_eq!(filtered.valid_count(), source.valid_count().div_ceil(2));

        let (count, restricted) = full_volume_allocations(|| source.restrict(&keep, &policy));
        assert_eq!(count, 0, "restrict of a {:?} chunk", source.mode());
        let kept = source.iter_valid().filter(|&(i, _)| keep.get(i)).count();
        assert_eq!(restricted.unwrap().valid_count(), kept);
    }

    // The counter sees the one payload a Dense result does need.
    let (count, dense) =
        full_volume_allocations(|| sparse.reencode(&ChunkPolicy::always_dense()).unwrap());
    assert_eq!(dense.mode(), ChunkMode::Dense);
    assert_eq!(count, 1, "a dense re-encoding allocates its payload once");
}
