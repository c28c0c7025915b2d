#![warn(missing_docs)]

//! Machine learning tailored for Spangle (paper §VI).
//!
//! * [`graph`] — graphs as edge sets plus a deterministic power-law
//!   (R-MAT-style) generator standing in for the SNAP datasets of
//!   Table IIb;
//! * [`mod@pagerank`] — the customised PageRank of §VI-B: the transition
//!   matrix is decomposed as `A = A' ∘ w` so the 0/1 structure matrix `A'`
//!   lives in *bitmask-only* adjacency blocks (one bit per edge; the
//!   hierarchical mask for super-sparse blocks) and the power iteration is
//!   `p ← α·A'(w ∘ p) + (1-α)/n`;
//! * [`sgd`] — the parallel mini-batch SGD of §VI-C with the Eq. 2 chunk
//!   numbering (`Cn = nP·rID + pID`, reversed for shuffle-free sampling)
//!   and the opt₁ (reformulated gradient, Eq. 3) / opt₂ (metadata
//!   transpose) optimisation levels ablated in Fig. 12b;
//! * [`datasets`] — synthetic classification data scaled after Table IIc.

pub mod datasets;
pub mod graph;
pub mod pagerank;
pub mod sgd;

pub use graph::Graph;
pub use pagerank::{pagerank, AdjacencyMatrix, PageRankResult};
pub use sgd::{LogisticRegression, OptLevel, SgdConfig, TrainSet};
