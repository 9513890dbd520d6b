//! # sapla-bench
//!
//! The experiment harness reproducing every table and figure of the SAPLA
//! paper's evaluation (Section 6). Each figure has a bench target under
//! `benches/` (run with `cargo bench`); the heavy lifting lives here so
//! integration tests can reuse it.
//!
//! ## Scaling knobs (environment variables)
//!
//! | Variable | Default | Meaning |
//! |----------|---------|---------|
//! | `SAPLA_DATASETS` | 24 | catalogue prefix to evaluate (≤ 117) |
//! | `SAPLA_SERIES`   | 40 | database series per dataset |
//! | `SAPLA_QUERIES`  | 3  | query series per dataset |
//! | `SAPLA_LEN`      | 1024 (reduction) / 256 (indexing) | series length |
//! | `SAPLA_THREADS`  | 0 (hardware) | worker threads for parallel ingest / multi-query k-NN |
//! | `SAPLA_FULL=1`   | —  | the paper's full protocol: 117 × 100 × 5, `n = 1024` everywhere |
//! | `SAPLA_CSV_DIR`  | —  | also write every printed table as a CSV file for plotting |
//!
//! The split default (`n = 1024` for reduction-quality experiments,
//! `n = 256` for index experiments) keeps the `O(N n²)` APLA comparator
//! affordable while preserving every comparison's *shape*; `SAPLA_FULL=1`
//! runs the verbatim protocol.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod harness;
pub mod table;

pub use harness::{load_datasets, time_it, RunConfig};
pub use table::Table;
