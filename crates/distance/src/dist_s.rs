//! `Dist_S` — the closed-form squared distance between two reconstruction
//! lines over an aligned window (Eq. 12 of the paper).

/// Squared distance between the lines `qa·u + qb` and `ca·u + cb` sampled
/// at `u = 0 … l−1` (Eq. 12):
///
/// ```text
/// Σ (q̌_u − č_u)² = l(l−1)(2l−1)/6 · Δa² + l(l−1) · Δa·Δb + l · Δb²
/// ```
#[inline(always)]
pub fn dist_s_sq(qa: f64, qb: f64, ca: f64, cb: f64, l: usize) -> f64 {
    sapla_obs::counter!("dist.s.evals");
    dist_s_sq_terms(qa - ca, qb - cb, l as f64)
}

/// The Eq. 12 polynomial over the line *deltas* `Δa = qa − ca`,
/// `Δb = qb − cb` and the window length as a float. This is the **single**
/// arithmetic body shared by every `Dist_S` evaluation path — the scalar
/// [`dist_s_sq`], the streaming/buffered `Dist_PAR` walks, and the
/// query-planned SoA kernel — so their results are bit-for-bit identical
/// by construction (same expression, same operation order, no fused
/// multiply-adds: `f64::mul_add` lowers to a libm call on the baseline
/// x86-64 target, while this form autovectorises to packed multiplies).
#[inline(always)]
pub(crate) fn dist_s_sq_terms(da: f64, db: f64, lf: f64) -> f64 {
    guard_term(eq12(da, db, lf), da, db, lf)
}

#[inline(always)]
fn eq12(da: f64, db: f64, lf: f64) -> f64 {
    lf * (lf - 1.0) * (2.0 * lf - 1.0) / 6.0 * da * da + lf * (lf - 1.0) * da * db + lf * db * db
}

/// `s`, the plain Eq. 12 evaluation over `(da, db, lf)`, made a window
/// term; the SIMD kernels apply it per lane. `s` is never `−0.0` (its
/// last term `l·Δb²` is not), so for every `s ≥ 0` this is `s` bit for
/// bit, as `s.max(0.0)` was.
#[inline(always)]
pub(crate) fn guard_term(s: f64, da: f64, db: f64, lf: f64) -> f64 {
    if s >= 0.0 {
        s
    } else {
        guard_rare(s, da, db, lf)
    }
}

/// The rare rest of [`guard_term`]. A tiny negative `s` is rounding when
/// `Δa·Δb < 0` and the terms cancel: it becomes 0. Keeping every term
/// non-negative is also what makes partial window sums monotone — the
/// property early-abandoning refinement relies on.
///
/// A NaN `s` is, with finite deltas, a term overflowing to `+∞` beside
/// one overflowing to `−∞`, although the true value may be finite. The
/// deltas are scaled by the power of two `2^−e` that brings
/// `max(|Δa|, |Δb|)` into `[1, 2)`, the form is evaluated there, and the
/// result scaled back by `2^e · 2^e`. Scaling by a power of two is exact,
/// so only a true value beyond `f64::MAX` comes back `+∞`. A NaN or
/// infinite delta or window length keeps the old guarded `0.0`.
#[cold]
#[inline(never)]
fn guard_rare(s: f64, da: f64, db: f64, lf: f64) -> f64 {
    let big = da.abs().max(db.abs());
    if !(s.is_nan() && big.is_finite() && big >= f64::MIN_POSITIVE && lf.is_finite()) {
        return 0.0;
    }
    // `2^e`, the largest power of two not above `big`: its exponent bits.
    let up = f64::from_bits(big.to_bits() & (0x7ff << 52));
    let down = 1.0 / up;
    (eq12(da * down, db * down, lf) * up * up).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(qa: f64, qb: f64, ca: f64, cb: f64, l: usize) -> f64 {
        (0..l)
            .map(|u| {
                let d = (qa - ca) * u as f64 + (qb - cb);
                d * d
            })
            .sum()
    }

    #[test]
    fn matches_brute_force() {
        let cases = [
            (1.0, 0.0, 0.5, 2.0, 7),
            (0.0, 0.0, 0.0, 0.0, 5),
            (-2.0, 3.0, 1.0, -1.0, 12),
            (0.3, -0.7, 0.3, 0.7, 1),
        ];
        for (qa, qb, ca, cb, l) in cases {
            let fast = dist_s_sq(qa, qb, ca, cb, l);
            let slow = brute(qa, qb, ca, cb, l);
            assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
        }
    }

    #[test]
    fn is_nonnegative_and_symmetric() {
        let d1 = dist_s_sq(1.3, -2.0, -0.8, 4.0, 9);
        let d2 = dist_s_sq(-0.8, 4.0, 1.3, -2.0, 9);
        assert!(d1 >= 0.0);
        assert!((d1 - d2).abs() < 1e-12);
    }

    /// Terms that overflow to `+∞` and `−∞` sum to NaN, which the guard
    /// alone would turn into 0. The rescaled evaluation gives `+∞` where
    /// the true value overflows and the finite value where it does not.
    #[test]
    fn overflowing_terms_are_rescaled_not_zeroed() {
        for (da, db) in [(2e300, -2e300), (1e200, -2e200)] {
            assert_eq!(dist_s_sq_terms(da, db, 5.0), f64::INFINITY, "({da}, {db})");
        }
        let (da, db) = (3e149, -3e149 * 1023.5);
        let got = dist_s_sq_terms(da, db, 2048.0);
        let want = 6.442449408000012e307;
        assert!(got.is_finite() && (got - want).abs() <= 1e-12 * want, "{got} vs {want}");
        // A NaN delta is no overflow: it keeps the guarded 0.
        assert_eq!(dist_s_sq_terms(f64::NAN, 1.0, 5.0), 0.0);
    }

    #[test]
    fn single_point_window_uses_intercept_only() {
        assert_eq!(dist_s_sq(5.0, 1.0, -5.0, 3.0, 1), 4.0);
    }
}
