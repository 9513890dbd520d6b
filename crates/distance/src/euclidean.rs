//! Exact Euclidean distances over raw series.
//!
//! All three entry points delegate to the blocked multi-accumulator
//! kernel [`TimeSeries::euclidean_sq_bounded`], so full and abandoning
//! evaluations — and [`TimeSeries::euclidean`] itself — agree
//! bit-for-bit on every survivor.

use sapla_core::{Error, Result, TimeSeries};

/// Squared Euclidean distance between two equal-length series.
///
/// # Errors
///
/// [`sapla_core::Error::LengthMismatch`] when the lengths differ.
pub fn euclidean_sq(a: &TimeSeries, b: &TimeSeries) -> Result<f64> {
    Ok(a.euclidean_sq_bounded(b, f64::INFINITY)?.unwrap_or(0.0))
}

/// Euclidean distance between two equal-length series.
///
/// # Errors
///
/// [`sapla_core::Error::LengthMismatch`] when the lengths differ.
pub fn euclidean(a: &TimeSeries, b: &TimeSeries) -> Result<f64> {
    euclidean_sq(a, b).map(f64::sqrt)
}

/// Early-abandoning Euclidean distance: returns `None` as soon as the
/// block-level partial squared sum exceeds `best_sq` (the
/// kth-nearest-so-far bound in a k-NN refinement loop), otherwise the
/// exact distance — bit-identical to [`euclidean`] on survivors.
///
/// # Errors
///
/// [`sapla_core::Error::LengthMismatch`] when the lengths differ.
pub fn euclidean_early_abandon(
    a: &TimeSeries,
    b: &TimeSeries,
    best_sq: f64,
) -> Result<Option<f64>> {
    euclidean_early_abandon_slices(a.values(), b.values(), best_sq)
}

/// [`euclidean_early_abandon`] over bare sample slices — for series that
/// live in a flat arena rather than in a [`TimeSeries`]. Same kernel,
/// same bits.
///
/// # Errors
///
/// [`sapla_core::Error::LengthMismatch`] when the lengths differ.
pub fn euclidean_early_abandon_slices(a: &[f64], b: &[f64], best_sq: f64) -> Result<Option<f64>> {
    if a.len() != b.len() {
        return Err(Error::LengthMismatch { left: a.len(), right: b.len() });
    }
    Ok(sapla_core::simd::euclidean_sq_bounded(a, b, best_sq).map(f64::sqrt))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> TimeSeries {
        TimeSeries::new(v.to_vec()).unwrap()
    }

    #[test]
    fn matches_hand_computation() {
        let a = ts(&[0.0, 0.0, 3.0]);
        let b = ts(&[0.0, 4.0, 3.0]);
        assert_eq!(euclidean_sq(&a, &b).unwrap(), 16.0);
        assert_eq!(euclidean(&a, &b).unwrap(), 4.0);
    }

    #[test]
    fn rejects_length_mismatch() {
        let a = ts(&[1.0]);
        let b = ts(&[1.0, 2.0]);
        assert!(euclidean(&a, &b).is_err());
        assert!(euclidean_early_abandon(&a, &b, 1.0).is_err());
        assert!(euclidean_early_abandon_slices(a.values(), b.values(), 1.0).is_err());
    }

    #[test]
    fn early_abandon_triggers_and_matches() {
        let a = ts(&[0.0; 8]);
        let b = ts(&[2.0; 8]);
        // Full distance² = 32.
        assert_eq!(euclidean_early_abandon(&a, &b, 10.0).unwrap(), None);
        let exact = euclidean_early_abandon(&a, &b, 100.0).unwrap().unwrap();
        assert!((exact - 32f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_for_identical_series() {
        let a = ts(&[1.5, -2.5, 3.0]);
        assert_eq!(euclidean(&a, &a).unwrap(), 0.0);
        assert_eq!(euclidean_early_abandon(&a, &a, 0.0).unwrap(), Some(0.0));
    }
}
