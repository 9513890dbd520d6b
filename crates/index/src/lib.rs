//! # sapla-index
//!
//! Memory-resident similarity-search indexes over reduced time series,
//! reproducing Section 5 of the SAPLA paper:
//!
//! * [`RTree`] — Guttman's R-tree over per-method feature MBRs (quadratic
//!   split, minimum-enlargement branch picking). For adaptive-length
//!   methods this uses the APCA-style MBR whose overlap problem the paper
//!   demonstrates.
//! * [`DbchTree`] — the paper's Distance-Based Covering with Convex Hull
//!   tree: node bounds are the two farthest member representations under
//!   `Dist_PAR`, and splitting/branch-picking/filtering all run on that
//!   distance.
//! * [`scheme`] — per-method indexing strategies (features, MINDIST,
//!   representation distances).
//! * [`knn`] / [`linear_scan`] — GEMINI best-first k-NN with exact
//!   refinement, plus the linear-scan baseline; pruning power (Eq. 14) and
//!   accuracy (Eq. 15) metrics.
//! * [`stats`] — tree-shape statistics for Figs. 15–16.
//! * [`engine`] — [`Engine`]: parallel build and multi-query k-NN /
//!   ε-range over one or more shards, bit-for-bit equal to the sequential
//!   per-tree paths on one shard; snapshot save / load.
//! * [`parallel`] — what callers share with the engine's batch path:
//!   parallel query preparation and the batch-wide counters.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub(crate) mod arena;
pub(crate) mod batched;
pub mod dbch;
pub mod engine;
pub(crate) mod envelope;
pub mod knn;
pub mod linear_scan;
pub mod parallel;
pub mod rect;
pub mod rtree;
pub mod scheme;
pub(crate) mod snapshot;
pub mod stats;
pub(crate) mod topology;

pub use arena::RepRef;
pub use batched::DEFAULT_QUERY_BLOCK;
pub use dbch::{DbchTree, NodeDistRule};
pub use engine::{Engine, EngineConfig, TreeKind};
pub use knn::{KnnScratch, SearchStats};
pub use linear_scan::{linear_scan_knn, linear_scan_range};
pub use parallel::{prepare_queries, BatchStats};
pub use rect::HyperRect;
pub use rtree::RTree;
/// The hardware thread count that `threads = 0` resolves to in every
/// call of this crate that takes a thread count.
pub use sapla_parallel::max_threads;
pub use scheme::{scheme_for, Query, Scheme};
pub use stats::TreeShape;
