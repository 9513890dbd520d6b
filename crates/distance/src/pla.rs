//! `Dist_PLA` — Chen et al.'s lower bound for equal-length linear
//! representations: the per-segment Eq. 12 sum over identical windows.

use sapla_core::{Error, Result};

use crate::dist_s::dist_s_sq;
use crate::par::SegSource;

/// `Dist_PLA` between two linear representations with identical segment
/// endpoints (the equal-length PLA case; also the aligned-window primitive
/// `Dist_PAR` reduces to after partitioning). Either side may be a stored
/// representation or a [`crate::SoaSegs`] view — same bits.
///
/// # Errors
///
/// [`Error::LengthMismatch`] on different series lengths and
/// [`Error::MalformedRepresentation`] on mismatched endpoints.
pub fn dist_pla<Q: SegSource, C: SegSource>(q: Q, c: C) -> Result<f64> {
    if q.series_len() != c.series_len() {
        return Err(Error::LengthMismatch { left: q.series_len(), right: c.series_len() });
    }
    if q.count() != c.count() {
        return Err(Error::MalformedRepresentation {
            reason: "Dist_PLA requires identical segmentations",
        });
    }
    let mut sum = 0.0;
    let mut start = 0usize;
    for i in 0..q.count() {
        let r = q.r(i);
        if r != c.r(i) {
            return Err(Error::MalformedRepresentation {
                reason: "Dist_PLA requires identical segmentations",
            });
        }
        sum += dist_s_sq(q.a(i), q.b(i), c.a(i), c.b(i), r + 1 - start);
        start = r + 1;
    }
    Ok(sum.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapla_baselines::Pla;
    use sapla_core::TimeSeries;

    fn ts(v: Vec<f64>) -> TimeSeries {
        TimeSeries::new(v).unwrap()
    }

    #[test]
    fn lower_bounds_euclidean() {
        let q = ts((0..60).map(|t| (t as f64 * 0.21).sin() * 2.0 + 0.05 * t as f64).collect());
        let c = ts((0..60).map(|t| (t as f64 * 0.19).cos() * 2.0).collect());
        for k in [3usize, 6, 10] {
            let qr = Pla.reduce_to_segments(&q, k).unwrap();
            let cr = Pla.reduce_to_segments(&c, k).unwrap();
            let lb = dist_pla(&qr, &cr).unwrap();
            let exact = q.euclidean(&c).unwrap();
            assert!(lb <= exact + 1e-9, "k={k}: {lb} > {exact}");
        }
    }

    #[test]
    fn agrees_with_dist_par_on_aligned_reps() {
        let q = ts((0..40).map(|t| ((t * 5) % 17) as f64).collect());
        let c = ts((0..40).map(|t| ((t * 3) % 13) as f64).collect());
        let qr = Pla.reduce_to_segments(&q, 5).unwrap();
        let cr = Pla.reduce_to_segments(&c, 5).unwrap();
        let a = dist_pla(&qr, &cr).unwrap();
        let b = crate::dist_par(&qr, &cr).unwrap();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn exact_on_truly_linear_pieces() {
        let q = ts((0..10).map(|t| t as f64).collect());
        let c = ts((0..10).map(|t| 2.0 * t as f64 + 1.0).collect());
        let qr = Pla.reduce_to_segments(&q, 2).unwrap();
        let cr = Pla.reduce_to_segments(&c, 2).unwrap();
        let lb = dist_pla(&qr, &cr).unwrap();
        let exact = q.euclidean(&c).unwrap();
        assert!((lb - exact).abs() < 1e-9);
    }
}
