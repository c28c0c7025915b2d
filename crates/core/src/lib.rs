#![warn(missing_docs)]

//! ArrayRDD, chunks, MaskRDD and array operators: the Spangle core.
//!
//! This crate implements the paper's primary contribution on top of the
//! [`spangle_dataflow`] runtime:
//!
//! * [`meta`] — array metadata and the coordinate↔ChunkID mapper
//!   (Algorithm 1);
//! * [`chunk`] — payload+bitmask chunks in Dense / Sparse / SuperSparse
//!   modes (§IV);
//! * [`mod@array`] — the [`ArrayRdd`] itself with the Subarray / Filter /
//!   Join(zip) operators (§V-A);
//! * [`aggregate`] — the Aggregator framework (§V-B);
//! * [`maskrdd`] — multi-attribute arrays in column-store layout with the
//!   lazily evaluated MaskRDD (§III-B1);
//! * [`accumulator`] — the directional Accumulator in synchronous and
//!   asynchronous flavours (§V-B);
//! * [`overlap`] — overlap (ghost-cell) ingest and window operators
//!   (§III-A1).

pub mod accumulator;
pub mod aggregate;
pub mod array;
pub mod chunk;
pub mod element;
pub mod maskrdd;
pub mod meta;
pub mod overlap;

pub use aggregate::Aggregator;
pub use array::{ArrayBuilder, ArrayRdd};
pub use chunk::{Chunk, ChunkMode, ChunkPolicy};
pub use element::Element;
pub use maskrdd::{AttrMask, JoinMode, MaskRdd, SpangleArray};
pub use meta::{ArrayMeta, ChunkId, ColumnWalk, Mapper};
