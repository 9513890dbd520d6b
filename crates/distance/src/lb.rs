//! `Dist_LB` — APCA's guaranteed lower bound, adapted to linear segments.
//!
//! The query's **raw data** is projected onto the candidate's segment
//! windows (an orthogonal projection onto the candidate's piecewise-linear
//! function space, `O(N)` with the query's prefix sums), after which the
//! aligned windows compare with Eq. 12. Because both operands are now
//! least-squares fits over the *same* windows, the projection argument of
//! Appendix A.5 applies unconditionally:
//! `Dist_LB(Q, Ĉ) ≤ Dist(Q, C)` for any series `C` with representation
//! `Ĉ`.

use sapla_core::{Error, LineFit, PrefixSums, Result};

use crate::dist_s::dist_s_sq;
use crate::par::SegSource;

/// `Dist_LB(Q, Ĉ)` given the raw query's prefix sums; `Ĉ` is a stored
/// representation or a [`crate::SoaSegs`] view — same bits.
///
/// # Errors
///
/// [`Error::LengthMismatch`] when the query and representation cover
/// different lengths.
pub fn dist_lb<C: SegSource>(query_sums: &PrefixSums, c: C) -> Result<f64> {
    dist_lb_sq(query_sums, c).map(f64::sqrt)
}

/// Squared [`dist_lb`].
///
/// # Errors
///
/// [`Error::LengthMismatch`] when the query and representation cover
/// different lengths.
pub fn dist_lb_sq<C: SegSource>(query_sums: &PrefixSums, c: C) -> Result<f64> {
    if query_sums.len() != c.series_len() {
        return Err(Error::LengthMismatch { left: query_sums.len(), right: c.series_len() });
    }
    let mut sum = 0.0;
    let mut start = 0usize;
    for i in 0..c.count() {
        let end = c.r(i) + 1;
        let q = LineFit::over_window(query_sums, start, end)?;
        let term = dist_s_sq(q.a, q.b, c.a(i), c.b(i), end - start);
        // `+∞` is a valid term: finite samples near ±1e300 overflow the
        // squared window distance. NaN or a negative term is a bug.
        #[cfg(feature = "strict-invariants")]
        assert!(
            term >= 0.0,
            "strict-invariants: Dist_S² over [{start}, {end}) must be non-negative and not NaN, \
             got {term}"
        );
        sum += term;
        start = end;
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapla_core::sapla::Sapla;
    use sapla_core::TimeSeries;

    fn ts(v: Vec<f64>) -> TimeSeries {
        TimeSeries::new(v).unwrap()
    }

    #[test]
    fn lower_bounds_euclidean_always() {
        // The projection argument is unconditional: check on a grid of
        // series pairs and segment counts.
        let shapes: Vec<Vec<f64>> = vec![
            (0..40).map(|t| (t as f64 * 0.3).sin() * 4.0).collect(),
            (0..40).map(|t| 0.2 * t as f64).collect(),
            (0..40).map(|t| ((t * 13) % 11) as f64).collect(),
            (0..40).map(|t| if t % 9 < 4 { 3.0 } else { -3.0 }).collect(),
        ];
        for (i, qv) in shapes.iter().enumerate() {
            for (j, cv) in shapes.iter().enumerate() {
                let q = ts(qv.clone());
                let c = ts(cv.clone());
                for n in [2usize, 4, 6] {
                    let c_rep = Sapla::with_segments(n).reduce(&c).unwrap();
                    let lb = dist_lb(&q.prefix_sums(), &c_rep).unwrap();
                    let exact = q.euclidean(&c).unwrap();
                    assert!(lb <= exact + 1e-9, "pair ({i},{j}), N={n}: lb {lb} > exact {exact}");
                }
            }
        }
    }

    #[test]
    fn zero_for_query_equal_to_reconstruction() {
        let c_rep = Sapla::with_segments(3)
            .reduce(&ts((0..30).map(|t| (t as f64 * 0.2).sin()).collect()))
            .unwrap();
        let rec = c_rep.reconstruct();
        let lb = dist_lb(&rec.prefix_sums(), &c_rep).unwrap();
        assert!(lb < 1e-9);
    }

    #[test]
    fn rejects_length_mismatch() {
        let c_rep =
            Sapla::with_segments(2).reduce(&ts((0..10).map(|t| t as f64).collect())).unwrap();
        let q = ts((0..12).map(|t| t as f64).collect());
        assert!(dist_lb(&q.prefix_sums(), &c_rep).is_err());
    }

    #[test]
    fn less_tight_than_dist_par_on_average() {
        // The paper's claim Dist_LB ≤ Dist_PAR (A.6). Verify on average
        // over a few pairs (pointwise the partition detail can differ).
        let mk =
            |phase: f64| ts((0..48).map(|t| ((t as f64 * 0.25) + phase).sin() * 5.0).collect());
        let (mut lb_sum, mut par_sum) = (0.0, 0.0);
        for k in 0..6 {
            let q = mk(0.0);
            let c = mk(0.4 + 0.3 * k as f64);
            let qr = Sapla::with_segments(5).reduce(&q).unwrap();
            let cr = Sapla::with_segments(5).reduce(&c).unwrap();
            lb_sum += dist_lb(&q.prefix_sums(), &cr).unwrap();
            par_sum += crate::dist_par(&qr, &cr).unwrap();
        }
        assert!(lb_sum <= par_sum * 1.05, "lb {lb_sum} vs par {par_sum}");
    }
}
