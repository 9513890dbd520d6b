//! # sapla-core
//!
//! Core library for **SAPLA** (Self-Adaptive Piecewise Linear Approximation),
//! the adaptive-length time-series dimensionality reduction method of
//! Xue, Yu and Wang, *"An Indexable Time Series Dimensionality Reduction
//! Method for Maximum Deviation Reduction and Similarity Search"*, EDBT 2022.
//!
//! The crate provides:
//!
//! * [`TimeSeries`] — an owned, immutable sequence of `f64` samples with
//!   z-normalisation and prefix sums for `O(1)` window statistics.
//! * [`fit`] — exact least-squares line fitting of any window in `O(1)`.
//! * [`repr`] — the reduced representations shared by SAPLA and the
//!   baseline methods: adaptive piecewise-linear ([`PiecewiseLinear`]),
//!   piecewise-constant ([`PiecewiseConstant`]), polynomial-coefficient and
//!   symbolic forms, each with reconstruction and max-deviation evaluation.
//! * [`equations`] — the paper's closed-form `O(1)` coefficient updates
//!   (Eq. 1–11), property-tested against the prefix-sum fits.
//! * [`area`] — the Increment Area (Definition 4.1) and Reconstruction Area
//!   (Definition 4.2) used to prune redundant computation.
//! * [`bounds`] — the `β` segment upper bounds of Sections 4.1.2–4.4.1.
//! * [`sapla`] — the three-stage SAPLA driver: [`sapla::Sapla`].
//!
//! ## Quick example
//!
//! ```
//! use sapla_core::{TimeSeries, sapla::Sapla};
//!
//! // The worked example from Figure 1 of the paper (n = 20, M = 12).
//! let ts = TimeSeries::new(vec![
//!     7.0, 8.0, 20.0, 15.0, 18.0, 8.0, 8.0, 15.0, 10.0, 1.0,
//!     4.0, 3.0, 3.0, 5.0, 4.0, 9.0, 2.0, 9.0, 10.0, 10.0,
//! ]).unwrap();
//! let repr = Sapla::with_coefficients(12).unwrap().reduce(&ts).unwrap();
//! assert_eq!(repr.num_segments(), 4); // N = M / 3
//! let dev = repr.max_deviation(&ts).unwrap();
//! assert!(dev < 12.0, "max deviation {dev} should beat APCA/PLA (~18-19)");
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod area;
pub mod bounds;
pub mod codec;
pub mod equations;
pub mod error;
pub mod fit;
pub mod metrics;
pub mod ordf64;
pub mod repr;
pub mod sapla;
pub mod series;
pub mod simd;
pub mod temp;

mod endpoint_move;
mod init;
mod split_merge;
mod work;

/// The pre-heap reference kernel, retained to pin the optimised kernel's
/// bit-identity in property tests.
#[cfg(test)]
mod naive;

#[cfg(feature = "strict-invariants")]
mod strict;

pub use bytes::Bytes;
pub use error::{Error, Result};
pub use fit::{LineFit, SegStats};
pub use ordf64::OrdF64;
pub use repr::{
    ConstantSegment, LinearSegment, PiecewiseConstant, PiecewiseLinear, PolyCoeffs, Representation,
    SymbolicWord,
};
pub use series::{PrefixSums, TimeSeries};
pub use simd::SimdLevel;
