//! Allocation pin for `Opt1Opt2` SGD steps: besides the sampled non-zeros,
//! a step may cost one feature-length vector for the broadcast copy of the
//! weights. Each task's row accumulator is allocated in the first step
//! only, and reused after the driver's fold; there is no vector per sampled
//! chunk and no zeroed vector for the fold. The weights themselves are one
//! more, once per `train` call.
//!
//! A counting global allocator wraps the system one and counts the
//! allocations of exactly `NUM_FEATURES × 8` bytes. `NUM_FEATURES` is a
//! prime no other allocation of the run shares as a size — not a chunk's
//! rows or labels, not a spilled chunk's rehydrated buffers.

use spangle_dataflow::SpangleContext;
use spangle_ml::{datasets, LogisticRegression, OptLevel, SgdConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

const NUM_FEATURES: usize = 1021;
const PARTITIONS: usize = 4;
const STEPS: usize = 12;

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

#[test]
fn opt1opt2_steps_allocate_only_the_broadcast_once_the_accumulators_exist() {
    let ctx = SpangleContext::new(2);
    let data = datasets::synthetic_logreg(&ctx, PARTITIONS, 4, 24, NUM_FEATURES, 6, 3);
    data.persist();
    data.rdd().count().unwrap();
    let config = SgdConfig {
        max_iters: STEPS,
        tolerance: 0.0,
        batch_chunks: 3,
        opt: OptLevel::Opt1Opt2,
        ..SgdConfig::default()
    };

    WATCHED.store(NUM_FEATURES * 8, Ordering::Relaxed);
    let model = LogisticRegression::train(&data, config).unwrap();
    WATCHED.store(0, Ordering::Relaxed);
    let count = COUNT.load(Ordering::Relaxed);

    assert_eq!(model.iterations, STEPS);
    assert!(
        count >= STEPS,
        "the counter missed the broadcast copies: {count}"
    );
    let allowed = STEPS + PARTITIONS + 1;
    assert!(
        count <= allowed,
        "{count} feature-length allocations in {STEPS} steps; at most {allowed} allowed"
    );
}
