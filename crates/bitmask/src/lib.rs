#![warn(missing_docs)]

//! Bitmask data structures and population-count strategies for Spangle.
//!
//! Spangle (ICDE 2021, §IV) represents the validity of array cells with a
//! *bitmask*: one bit per cell, set when the cell holds a real value and
//! clear when the cell is null (no-data). On top of the plain bit vector
//! this crate provides the three access disciplines the paper evaluates in
//! Figure 8:
//!
//! * **naive** — every random access ranks the mask by scanning from word 0
//!   ([`Bitmask::rank_naive`]);
//! * **sequential / delta count** — a cursor that advances monotonically and
//!   only counts bits between the previous and the current position
//!   ([`DeltaCursor`]);
//! * **opt** — a milestone directory storing the running population count of
//!   every 64-word block, combined with a Harley–Seal style block popcount,
//!   standing in for the paper's AVX2+JNI path ([`Milestones`],
//!   [`harley_seal`]).
//!
//! For *super-sparse* chunks the paper compresses the mask itself with a
//! two-level [`HierarchicalBitmask`]; for static matrices it switches to an
//! [`OffsetArray`] (a one-dimensional COO) whenever that is smaller than the
//! mask (§V-A4).

pub mod bitvec;
pub mod hierarchical;
pub mod offsets;
pub mod popcount;

pub use bitvec::{for_each_bit, Bitmask};
pub use hierarchical::HierarchicalBitmask;
pub use offsets::{choose_validity_repr, OffsetArray, ValidityRepr};
pub use popcount::{harley_seal, DeltaCursor, Milestones};

/// Number of bits per machine word used by all mask structures.
pub const WORD_BITS: usize = 64;

/// Number of words per milestone / hierarchical block (the paper's "64
/// words" granularity, i.e. 4096 cells).
pub const BLOCK_WORDS: usize = 64;
