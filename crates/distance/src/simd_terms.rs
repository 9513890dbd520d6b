//! SIMD evaluation of the Eq. 12 window terms, four windows at a time.
//!
//! The fused `Dist_PAR` merge-walk is sequentially data-dependent (the
//! next window depends on which endpoint list advances), but the
//! *arithmetic* per window — [`crate::dist_s::dist_s_sq_terms`] over
//! `(Δa, Δb, l)` — is independent across windows. The planned kernel
//! therefore stages up to four windows' deltas and evaluates their terms
//! with one packed pass here, then **accumulates them sequentially** in
//! walk order with the abandon check after every term, exactly as the
//! scalar walk does.
//!
//! Bit-identity: each vector lane executes the scalar term's operation
//! sequence — `(((lf·(lf−1))·(2lf−1))/6·Δa)·Δa + ((lf·(lf−1))·Δa)·Δb +
//! (lf·Δb)·Δb`, summed `(t1 + t2) + t3` — with correctly rounded IEEE-754
//! ops and no FMA, so every lane equals the scalar term bitwise. The
//! final guard is applied *scalar*, per lane, after extraction: it
//! zeroes a rounding-negative lane and rescales a NaN one (terms
//! overflowing to `+∞` and `−∞`), which no packed max can express.
#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(test)]
use sapla_core::simd::SimdLevel;

#[cfg(test)]
use crate::dist_s::dist_s_sq_terms;

#[cfg(target_arch = "aarch64")]
pub(crate) use arm::terms_neon;
#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{terms_avx2, terms_sse2};

/// Evaluate four Eq. 12 terms at once: `out[k] = dist_s_sq_terms(da[k],
/// db[k], lf[k])`, bitwise, whichever level runs (levels this CPU/build
/// cannot execute fall back to scalar). The production walk dispatches
/// whole-walk wrappers instead (`crate::plan`) so the kernels inline;
/// this level-switched form is the harness the bit-identity tests sweep.
#[cfg(test)]
pub(crate) fn dist_s_sq_terms_x4(
    level: SimdLevel,
    da: &[f64; 4],
    db: &[f64; 4],
    lf: &[f64; 4],
    out: &mut [f64; 4],
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            // SAFETY: SSE2 is part of the x86-64 baseline — always available.
            unsafe { x86::terms_sse2(da, db, lf, out) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if SimdLevel::Avx2.is_supported() => {
            // SAFETY: the guard verified AVX2 support at runtime.
            unsafe { x86::terms_avx2(da, db, lf, out) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            // SAFETY: NEON is mandatory on AArch64 — always available.
            unsafe { arm::terms_neon(da, db, lf, out) }
        }
        _ => {
            for k in 0..4 {
                out[k] = dist_s_sq_terms(da[k], db[k], lf[k]);
            }
        }
    }
}

/// The scalar guard applied to every lane after extraction — the one
/// [`crate::dist_s::dist_s_sq_terms`] applies, so its semantics cannot
/// diverge.
#[inline]
fn guard4(da: &[f64; 4], db: &[f64; 4], lf: &[f64; 4], out: &mut [f64; 4]) {
    for k in 0..4 {
        out[k] = crate::dist_s::guard_term(out[k], da[k], db[k], lf[k]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_div_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm256_storeu_pd, _mm256_sub_pd, _mm_add_pd, _mm_div_pd, _mm_loadu_pd, _mm_mul_pd,
        _mm_set1_pd, _mm_storeu_pd, _mm_sub_pd,
    };

    /// Two 2-lane passes over the Eq. 12 term body (see module docs).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) unsafe fn terms_sse2(
        da: &[f64; 4],
        db: &[f64; 4],
        lf: &[f64; 4],
        out: &mut [f64; 4],
    ) {
        // SAFETY: all loads/stores cover `ptr .. ptr + 2` within the
        // fixed-size `[f64; 4]` arrays (offsets 0 and 2); unaligned
        // load/store intrinsics have no alignment requirement.
        unsafe {
            let one = _mm_set1_pd(1.0);
            let two = _mm_set1_pd(2.0);
            let six = _mm_set1_pd(6.0);
            for half in [0usize, 2] {
                let vlf = _mm_loadu_pd(lf.as_ptr().add(half));
                let vda = _mm_loadu_pd(da.as_ptr().add(half));
                let vdb = _mm_loadu_pd(db.as_ptr().add(half));
                let p = _mm_mul_pd(vlf, _mm_sub_pd(vlf, one)); // lf·(lf−1)
                let q = _mm_sub_pd(_mm_mul_pd(two, vlf), one); // 2lf−1
                let t1 = _mm_mul_pd(_mm_mul_pd(_mm_div_pd(_mm_mul_pd(p, q), six), vda), vda);
                let t2 = _mm_mul_pd(_mm_mul_pd(p, vda), vdb);
                let t3 = _mm_mul_pd(_mm_mul_pd(vlf, vdb), vdb);
                let s = _mm_add_pd(_mm_add_pd(t1, t2), t3);
                _mm_storeu_pd(out.as_mut_ptr().add(half), s);
            }
        }
        super::guard4(da, db, lf, out);
    }

    /// One 4-lane pass over the Eq. 12 term body (see module docs).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn terms_avx2(
        da: &[f64; 4],
        db: &[f64; 4],
        lf: &[f64; 4],
        out: &mut [f64; 4],
    ) {
        // SAFETY: loads/stores cover exactly the four elements of the
        // fixed-size `[f64; 4]` arrays; unaligned intrinsics have no
        // alignment requirement.
        unsafe {
            let one = _mm256_set1_pd(1.0);
            let vlf = _mm256_loadu_pd(lf.as_ptr());
            let vda = _mm256_loadu_pd(da.as_ptr());
            let vdb = _mm256_loadu_pd(db.as_ptr());
            let p = _mm256_mul_pd(vlf, _mm256_sub_pd(vlf, one)); // lf·(lf−1)
            let q = _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), vlf), one); // 2lf−1
            let t1 = _mm256_mul_pd(
                _mm256_mul_pd(_mm256_div_pd(_mm256_mul_pd(p, q), _mm256_set1_pd(6.0)), vda),
                vda,
            );
            let t2 = _mm256_mul_pd(_mm256_mul_pd(p, vda), vdb);
            let t3 = _mm256_mul_pd(_mm256_mul_pd(vlf, vdb), vdb);
            let s = _mm256_add_pd(_mm256_add_pd(t1, t2), t3);
            _mm256_storeu_pd(out.as_mut_ptr(), s);
        }
        super::guard4(da, db, lf, out);
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use std::arch::aarch64::{
        vaddq_f64, vdivq_f64, vdupq_n_f64, vld1q_f64, vmulq_f64, vst1q_f64, vsubq_f64,
    };

    /// Two 2-lane passes over the Eq. 12 term body (see module docs).
    #[inline]
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn terms_neon(
        da: &[f64; 4],
        db: &[f64; 4],
        lf: &[f64; 4],
        out: &mut [f64; 4],
    ) {
        // SAFETY: all loads/stores cover `ptr .. ptr + 2` within the
        // fixed-size `[f64; 4]` arrays (offsets 0 and 2).
        unsafe {
            let one = vdupq_n_f64(1.0);
            let two = vdupq_n_f64(2.0);
            let six = vdupq_n_f64(6.0);
            for half in [0usize, 2] {
                let vlf = vld1q_f64(lf.as_ptr().add(half));
                let vda = vld1q_f64(da.as_ptr().add(half));
                let vdb = vld1q_f64(db.as_ptr().add(half));
                let p = vmulq_f64(vlf, vsubq_f64(vlf, one)); // lf·(lf−1)
                let q = vsubq_f64(vmulq_f64(two, vlf), one); // 2lf−1
                let t1 = vmulq_f64(vmulq_f64(vdivq_f64(vmulq_f64(p, q), six), vda), vda);
                let t2 = vmulq_f64(vmulq_f64(p, vda), vdb);
                let t3 = vmulq_f64(vmulq_f64(vlf, vdb), vdb);
                let s = vaddq_f64(vaddq_f64(t1, t2), t3);
                vst1q_f64(out.as_mut_ptr().add(half), s);
            }
        }
        super::guard4(da, db, lf, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapla_core::simd::supported_levels;

    #[test]
    fn all_levels_match_scalar_terms_bitwise() {
        let cases: [([f64; 4], [f64; 4], [f64; 4]); 3] = [
            ([0.5, -1.25, 2.0, 0.0], [1.0, -3.0, 0.25, 7.5], [1.0, 2.0, 9.0, 31.0]),
            ([1e-8, -1e8, 3.7, -0.1], [-1e-8, 1e8, -3.7, 0.1], [2.0, 5.0, 7.0, 64.0]),
            ([0.0, 0.0, 0.0, 0.0], [0.0, -0.0, 1.0, -1.0], [1.0, 1.0, 3.0, 3.0]),
        ];
        for (da, db, lf) in cases {
            let mut want = [0.0f64; 4];
            for k in 0..4 {
                want[k] = dist_s_sq_terms(da[k], db[k], lf[k]);
            }
            for level in supported_levels() {
                let mut got = [0.0f64; 4];
                dist_s_sq_terms_x4(level, &da, &db, &lf, &mut got);
                assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits), "level {}", level.name());
            }
        }
    }

    /// Lanes whose terms overflow to `+∞` and `−∞` are NaN before the
    /// guard. At every level they come back as the scalar term's rescaled
    /// value: `+∞` where the true value is beyond `f64::MAX` (the first
    /// two), the finite 6.44e307 where it is not (the third).
    #[test]
    fn overflowing_lanes_are_rescaled_at_every_level() {
        let da = [2e300, 1e200, 3e149, 0.5];
        let db = [-2e300, -2e200, -3e149 * 1023.5, 1.0];
        let lf = [5.0, 5.0, 2048.0, 4.0];
        let want = 6.442449408000012e307;
        for level in supported_levels() {
            let mut got = [0.0f64; 4];
            dist_s_sq_terms_x4(level, &da, &db, &lf, &mut got);
            let what = format!("level {}", level.name());
            assert_eq!(got[..2], [f64::INFINITY; 2], "{what}");
            assert!((got[2] - want).abs() <= 1e-12 * want, "{what}: {} vs {want}", got[2]);
            for k in 0..4 {
                assert_eq!(got[k].to_bits(), dist_s_sq_terms(da[k], db[k], lf[k]).to_bits());
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Tier-1 pin: each vector lane equals the scalar Eq. 12 term
        /// bitwise on arbitrary deltas and window lengths.
        #[test]
        fn term_lanes_are_bit_identical(
            da_v in proptest::collection::vec(-1e4f64..1e4, 4),
            db_v in proptest::collection::vec(-1e4f64..1e4, 4),
            l_v in proptest::collection::vec(1.0f64..10_000.0, 4),
        ) {
            let da: [f64; 4] = [da_v[0], da_v[1], da_v[2], da_v[3]];
            let db: [f64; 4] = [db_v[0], db_v[1], db_v[2], db_v[3]];
            let lf: [f64; 4] = [l_v[0].trunc(), l_v[1].trunc(), l_v[2].trunc(), l_v[3].trunc()];
            let mut want = [0.0f64; 4];
            for k in 0..4 {
                want[k] = dist_s_sq_terms(da[k], db[k], lf[k]);
            }
            for level in supported_levels() {
                let mut got = [0.0f64; 4];
                dist_s_sq_terms_x4(level, &da, &db, &lf, &mut got);
                proptest::prop_assert_eq!(
                    want.map(f64::to_bits),
                    got.map(f64::to_bits),
                    "level {}",
                    level.name()
                );
            }
        }
    }
}
