//! Query-compiled `Dist_PAR` plans.
//!
//! Definition 5.1 partitions *both* representations onto the union of
//! their endpoints, but in k-NN/range search the query side is fixed
//! while thousands of candidates stream past. A [`QueryPlan`] compiles
//! the query half once — its endpoint list and per-segment line
//! coefficients in contiguous struct-of-arrays form — so per-candidate
//! evaluation is a single merge-walk of the candidate's endpoints into
//! the plan: no re-partitioning of the query, no per-call allocation
//! (accumulation is fused into the walk, nothing is buffered), and an
//! optional early-abandon bound that stops the walk once the partial sum
//! provably exceeds the current k-th-best (or range) threshold.
//!
//! Bit-identity contract: without abandoning (bound = `+∞`) the planned
//! kernels return values **bit-for-bit identical** to
//! [`crate::dist_par_sq`] — same generic endpoint-union walker, same
//! Eq. 12 term arithmetic, same left-to-right summation order. When a
//! SIMD level is active ([`sapla_core::simd::active`]), the walk stages
//! up to four windows' deltas in fixed stack arrays and evaluates their
//! terms with one packed pass (`simd_terms`), then adds them to the
//! running sum **sequentially in walk order** with the abandon check
//! after every term — each lane replays the scalar term's operation
//! sequence, so sums, abandon decisions, and therefore results stay
//! bitwise identical across all dispatch widths. See DESIGN.md §"SIMD
//! dispatch & the per-query walk".

use sapla_core::{Error, PiecewiseLinear, Result};

use crate::dist_s::dist_s_sq_terms;
use crate::par::{walk_windows_until, SegSource};

/// A query's half of the `Dist_PAR` endpoint-union partition, compiled
/// once per query: per-segment slopes/intercepts/endpoints plus segment
/// start offsets, laid out contiguously. Built by `Query` preparation in
/// `sapla-index` and threaded through tree refinement, linear scan, and
/// the parallel k-NN engine's per-worker scratch.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    slopes: Vec<f64>,
    intercepts: Vec<f64>,
    endpoints: Vec<usize>,
    series_len: usize,
}

impl QueryPlan {
    /// Compile a plan from the query's linear representation.
    pub fn new(q: &PiecewiseLinear) -> QueryPlan {
        let segs = q.segments();
        QueryPlan {
            slopes: segs.iter().map(|s| s.a).collect(),
            intercepts: segs.iter().map(|s| s.b).collect(),
            endpoints: segs.iter().map(|s| s.r).collect(),
            series_len: q.series_len(),
        }
    }

    /// Number of original points the plan's query covers.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Number of query segments in the plan.
    pub fn num_segments(&self) -> usize {
        self.slopes.len()
    }
}

impl SegSource for &QueryPlan {
    fn count(self) -> usize {
        self.slopes.len()
    }
    fn a(self, i: usize) -> f64 {
        self.slopes[i]
    }
    fn b(self, i: usize) -> f64 {
        self.intercepts[i]
    }
    fn r(self, i: usize) -> usize {
        self.endpoints[i]
    }
}

/// Squared early-abandon bound for a *distance-domain* threshold `t`:
/// abandoning when a partial squared sum `s` satisfies
/// `s > safe_sq_bound(t)` guarantees the reference comparison
/// `total.sqrt() <= t` would also fail.
///
/// Why the slack: partial sums of the (non-negative, `max(0)`-guarded)
/// Eq. 12 terms are monotone non-decreasing even in floating point
/// (`fl(s + x) ≥ s` for `x ≥ 0`), so `partial > B ⇒ total > B`. With
/// `B = nextup(nextup(t²))`, `total > B` implies `total.sqrt() > t`: two
/// ulps of head-room dominate the one rounding of `t*t` and the
/// correctly-rounded `sqrt`. Non-finite `t²` (including `t = +∞`, the
/// "no threshold yet" state, and NaN) maps to `+∞` — never abandon.
pub fn safe_sq_bound(threshold: f64) -> f64 {
    let sq = threshold * threshold;
    if !sq.is_finite() {
        return f64::INFINITY;
    }
    f64::from_bits(sq.to_bits() + 2)
}

/// Planned `Dist_PAR²` against one candidate — a view into a tree's
/// representation store, or a stored [`PiecewiseLinear`]; the bits do
/// not depend on which (see [`SegSource`]).
///
/// With `abandon_sq = f64::INFINITY` the result is bit-identical to
/// [`crate::dist_par_sq`]`(query, cand)`. With a finite bound (from
/// [`safe_sq_bound`]), returns `f64::INFINITY` as the *abandoned*
/// sentinel as soon as the partial window sum exceeds the bound — the
/// caller treats it as "pruned", which [`safe_sq_bound`] proves agrees
/// with the non-abandoning comparison.
///
/// # Errors
///
/// [`Error::LengthMismatch`] when plan and candidate cover different
/// series lengths.
// audit: no_alloc — a fused walk, nothing buffered.
pub fn dist_par_sq_planned<C: SegSource>(
    plan: &QueryPlan,
    cand: C,
    abandon_sq: f64,
) -> Result<f64> {
    if plan.series_len() != cand.series_len() {
        return Err(Error::LengthMismatch { left: plan.series_len(), right: cand.series_len() });
    }
    // The process-wide SIMD level, resolved once and cached.
    Ok(planned_eval_with(sapla_core::simd::active(), plan, cand, abandon_sq))
}

/// Windows staged per packed term evaluation. Matches the widest vector
/// width (AVX2: four f64 lanes); narrower levels run the same group as
/// two 2-lane passes so the staging pattern — and thus the abandon
/// schedule — is identical at every level.
const GROUP: usize = 4;

/// The merge-walk behind [`dist_par_sq_planned`] with the SIMD level
/// pinned — the hook width-sweeping bit-identity tests drive.
///
/// `Scalar` runs the original fused walk: one pass over the endpoint
/// union, per-window Eq. 12 term added to a single running sum in walk
/// order, the walk cut short the moment the partial sum exceeds
/// `abandon_sq`. (The obvious `f64::mul_add` formulation of the term is
/// *slower* here: the baseline x86-64 target has no FMA, so `mul_add`
/// lowers to a libm call per term.)
///
/// SIMD levels stage up to [`GROUP`] windows' `(Δa, Δb, l)` in stack
/// arrays, evaluate the group's terms with one packed pass
/// ([`crate::simd_terms`], bit-identical per lane), then accumulate
/// them sequentially with the abandon check after every term; the tail
/// group flushes through the scalar term. Same adds in the same order ⇒
/// same sum bits and the same abandon decision as the scalar walk — the
/// only divergence is that the walk itself may advance up to `GROUP − 1`
/// windows past the abandon point before the group boundary notices,
/// which is invisible in the result (the abandoned sentinel is `+∞`
/// either way; only the observability window counters shift).
// audit: no_alloc — a fused walk over fixed stack arrays.
pub(crate) fn planned_eval_with<C: SegSource>(
    level: sapla_core::SimdLevel,
    plan: &QueryPlan,
    cand: C,
    abandon_sq: f64,
) -> f64 {
    sapla_obs::counter!("dist.par.evals");
    sapla_obs::counter!("dist.par.plan_hits");
    // Each arm is a whole-walk function compiled under its own target
    // feature so the packed term kernel inlines into the walk (a
    // per-group call into a `#[target_feature]` function costs more than
    // the packed pass saves at typical union sizes).
    let (sum, abandoned, _windows) = match level {
        #[cfg(target_arch = "x86_64")]
        sapla_core::SimdLevel::Sse2 => {
            // SAFETY: SSE2 is part of the x86-64 baseline — always available.
            unsafe { staged_walk_sse2(plan, cand, abandon_sq) }
        }
        #[cfg(target_arch = "x86_64")]
        sapla_core::SimdLevel::Avx2 if sapla_core::SimdLevel::Avx2.is_supported() => {
            // SAFETY: the guard verified AVX2 support at runtime.
            unsafe { staged_walk_avx2(plan, cand, abandon_sq) }
        }
        #[cfg(target_arch = "aarch64")]
        sapla_core::SimdLevel::Neon => {
            // SAFETY: NEON is mandatory on AArch64 — always available.
            unsafe { staged_walk_neon(plan, cand, abandon_sq) }
        }
        // Scalar, and SIMD levels this CPU/build cannot run: the fused
        // reference walk (same bits by the bit-identity contract).
        _ => scalar_walk(plan, cand, abandon_sq),
    };
    sapla_obs::counter!("dist.s.evals", _windows);
    sapla_obs::hist!("dist.par.windows", _windows);
    if abandoned {
        sapla_obs::counter!("dist.par.abandoned");
        f64::INFINITY
    } else {
        sum
    }
}

/// The original fused reference walk: per-window Eq. 12 term added to a
/// single running sum in walk order, cut short the moment the partial
/// sum exceeds `abandon_sq`. Returns `(sum, abandoned, windows)`.
// audit: no_alloc — a single fused walk, nothing staged.
fn scalar_walk<C: SegSource>(plan: &QueryPlan, cand: C, abandon_sq: f64) -> (f64, bool, u64) {
    let mut sum = 0.0f64;
    let mut abandoned = false;
    let mut windows = 0u64;
    walk_windows_until(plan, cand, |w| {
        sum += dist_s_sq_terms(w.qa - w.ca, w.qb - w.cb, w.len as f64);
        windows += 1;
        abandoned = sum > abandon_sq;
        !abandoned
    });
    (sum, abandoned, windows)
}

/// The staged walk body shared by every vector level: group windows in
/// stack arrays, evaluate each full group with `terms4` (a packed pass),
/// accumulate sequentially with the abandon check after every term, and
/// flush the tail group through the scalar term. Must stay
/// `#[inline(always)]` — the level wrappers below rely on the whole body
/// (walker included) collapsing into their `#[target_feature]` frame so
/// the packed kernel inlines.
// audit: no_alloc — a fused walk over fixed stack arrays.
#[inline(always)]
fn staged_walk<C: SegSource>(
    plan: &QueryPlan,
    cand: C,
    abandon_sq: f64,
    mut terms4: impl FnMut(&[f64; GROUP], &[f64; GROUP], &[f64; GROUP], &mut [f64; GROUP]),
) -> (f64, bool, u64) {
    let mut sum = 0.0f64;
    let mut abandoned = false;
    let mut windows = 0u64;
    let mut da = [0.0f64; GROUP];
    let mut db = [0.0f64; GROUP];
    let mut lf = [0.0f64; GROUP];
    let mut terms = [0.0f64; GROUP];
    let mut fill = 0usize;
    walk_windows_until(plan, cand, |w| {
        da[fill] = w.qa - w.ca;
        db[fill] = w.qb - w.cb;
        lf[fill] = w.len as f64;
        fill += 1;
        windows += 1;
        if fill < GROUP {
            return true;
        }
        fill = 0;
        terms4(&da, &db, &lf, &mut terms);
        for &t in &terms {
            sum += t;
            if sum > abandon_sq {
                abandoned = true;
                return false;
            }
        }
        true
    });
    if !abandoned {
        for k in 0..fill {
            sum += dist_s_sq_terms(da[k], db[k], lf[k]);
            if sum > abandon_sq {
                abandoned = true;
                break;
            }
        }
    }
    (sum, abandoned, windows)
}

// SAFETY contract: safe despite `#[target_feature]` — callers outside
// SSE2 code must (and do, in `planned_eval_with`) verify SSE2 before
// the call; the body has no other requirement.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn staged_walk_sse2<C: SegSource>(plan: &QueryPlan, cand: C, abandon_sq: f64) -> (f64, bool, u64) {
    // The closure inherits this function's target feature, so the packed
    // kernel call inlines instead of going through a cross-feature call.
    staged_walk(plan, cand, abandon_sq, |da, db, lf, out| {
        // SAFETY: this wrapper (and thus the closure) runs with SSE2
        // enabled — the kernel's only requirement.
        unsafe { crate::simd_terms::terms_sse2(da, db, lf, out) }
    })
}

// SAFETY contract: safe despite `#[target_feature]` — callers outside
// AVX2 code must (and do, in `planned_eval_with`) verify AVX2 before
// the call; the body has no other requirement.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn staged_walk_avx2<C: SegSource>(plan: &QueryPlan, cand: C, abandon_sq: f64) -> (f64, bool, u64) {
    staged_walk(plan, cand, abandon_sq, |da, db, lf, out| {
        // SAFETY: this wrapper (and thus the closure) runs with AVX2
        // enabled — the kernel's only requirement.
        unsafe { crate::simd_terms::terms_avx2(da, db, lf, out) }
    })
}

// SAFETY contract: safe despite `#[target_feature]` — NEON is
// mandatory on AArch64, so any caller on this target already has it.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
fn staged_walk_neon<C: SegSource>(plan: &QueryPlan, cand: C, abandon_sq: f64) -> (f64, bool, u64) {
    staged_walk(plan, cand, abandon_sq, |da, db, lf, out| {
        // SAFETY: this wrapper (and thus the closure) runs with NEON
        // enabled — the kernel's only requirement.
        unsafe { crate::simd_terms::terms_neon(da, db, lf, out) }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{dist_par_sq, SoaSegs};
    use sapla_core::LinearSegment;

    fn pl(segs: &[(f64, f64, usize)]) -> PiecewiseLinear {
        PiecewiseLinear::new(segs.iter().map(|&(a, b, r)| LinearSegment { a, b, r }).collect())
            .unwrap()
    }

    #[test]
    fn planned_matches_streaming_bitwise() {
        let q = pl(&[(1.0, 0.0, 1), (0.0, 2.0, 6), (2.0, 2.0, 9), (0.0, 8.0, 15)]);
        let c = pl(&[(0.0, 1.0, 3), (1.0, 1.0, 10), (-1.0, 8.0, 15)]);
        let plan = QueryPlan::new(&q);
        for _ in 0..3 {
            let reference = dist_par_sq(&q, &c).unwrap();
            let planned = dist_par_sq_planned(&plan, &c, f64::INFINITY).unwrap();
            assert_eq!(reference.to_bits(), planned.to_bits());
        }
    }

    #[test]
    fn soa_view_matches_aos_bitwise() {
        let q = pl(&[(0.3, -1.0, 4), (-0.2, 2.0, 11), (0.0, 0.5, 15)]);
        let c = pl(&[(0.0, 1.0, 3), (1.0, 1.0, 10), (-1.0, 8.0, 15)]);
        let plan = QueryPlan::new(&q);
        let slopes: Vec<f64> = c.segments().iter().map(|s| s.a).collect();
        let intercepts: Vec<f64> = c.segments().iter().map(|s| s.b).collect();
        let endpoints: Vec<usize> = c.segments().iter().map(|s| s.r).collect();
        let view = SoaSegs::new(&slopes, &intercepts, &endpoints).unwrap();
        let aos = dist_par_sq_planned(&plan, &c, f64::INFINITY).unwrap();
        let soa = dist_par_sq_planned(&plan, view, f64::INFINITY).unwrap();
        assert_eq!(aos.to_bits(), soa.to_bits());
        assert_eq!(aos.to_bits(), dist_par_sq(&q, &c).unwrap().to_bits());
    }

    #[test]
    fn abandon_sentinel_only_on_provably_pruned() {
        let q = pl(&[(1.0, 0.0, 7), (0.0, 8.0, 15)]);
        let c = pl(&[(0.0, 3.0, 15)]);
        let plan = QueryPlan::new(&q);
        let full = dist_par_sq_planned(&plan, &c, f64::INFINITY).unwrap();
        let d = full.sqrt();
        // Threshold below the true distance: abandoned or naturally
        // above-threshold — either way the caller prunes, as the
        // reference would.
        let tight = d * 0.5;
        let sq = dist_par_sq_planned(&plan, &c, safe_sq_bound(tight)).unwrap();
        assert!(sq.is_infinite() || sq.sqrt() > tight);
        // Threshold above the true distance: must not abandon, and must
        // return the exact bit pattern.
        let loose = d * 2.0;
        let sq = dist_par_sq_planned(&plan, &c, safe_sq_bound(loose)).unwrap();
        assert_eq!(sq.to_bits(), full.to_bits());
    }

    #[test]
    fn safe_sq_bound_edge_cases() {
        assert!(safe_sq_bound(f64::INFINITY).is_infinite());
        assert!(safe_sq_bound(f64::NAN).is_infinite());
        assert!(safe_sq_bound(1e200).is_infinite()); // t² overflows
        let b = safe_sq_bound(3.0);
        assert!(b > 9.0 && b < 9.0 + 1e-9);
        assert!(safe_sq_bound(0.0) > 0.0);
    }

    #[test]
    fn planned_rejects_length_mismatch() {
        let plan = QueryPlan::new(&pl(&[(0.0, 0.0, 3)]));
        let c = pl(&[(0.0, 0.0, 4)]);
        assert!(dist_par_sq_planned(&plan, &c, f64::INFINITY).is_err());
    }

    /// Build a representation covering exactly `len` points from cyclic
    /// gap/coefficient pools — random *interleaved* segmentations.
    fn build_pl(len: usize, gaps: &[usize], coeffs: &[(f64, f64)]) -> PiecewiseLinear {
        let mut segs = Vec::new();
        let mut end = 0usize;
        let mut i = 0usize;
        while end < len {
            let gap = gaps[i % gaps.len()].max(1);
            end = (end + gap).min(len);
            let (a, b) = coeffs[i % coeffs.len()];
            segs.push(LinearSegment { a, b, r: end - 1 });
            i += 1;
        }
        PiecewiseLinear::new(segs).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Tier-1 bit-identity pin: the planned kernel (stored and SoA
        /// candidate layouts, no abandoning) returns the same bits as the
        /// unplanned streaming walk on arbitrary
        /// interleaved segmentations; with an abandon bound, survivors
        /// keep the exact bits and abandoned candidates are exactly the
        /// ones the reference comparison would prune.
        #[test]
        fn planned_paths_are_bit_identical_and_abandon_safely(
            len in 16usize..96,
            q_gaps in proptest::collection::vec(1usize..7, 24),
            c_gaps in proptest::collection::vec(1usize..7, 24),
            q_coeffs in proptest::collection::vec((-2.0f64..2.0, -5.0f64..5.0), 24),
            c_coeffs in proptest::collection::vec((-2.0f64..2.0, -5.0f64..5.0), 24),
            frac in 0.0f64..2.0,
        ) {
            let q = build_pl(len, &q_gaps, &q_coeffs);
            let c = build_pl(len, &c_gaps, &c_coeffs);
            let plan = QueryPlan::new(&q);

            let reference = dist_par_sq(&q, &c).unwrap();
            let planned =
                dist_par_sq_planned(&plan, &c, f64::INFINITY).unwrap();
            let slopes: Vec<f64> = c.segments().iter().map(|s| s.a).collect();
            let intercepts: Vec<f64> = c.segments().iter().map(|s| s.b).collect();
            let endpoints: Vec<usize> = c.segments().iter().map(|s| s.r).collect();
            let view = SoaSegs::new(&slopes, &intercepts, &endpoints).unwrap();
            let soa =
                dist_par_sq_planned(&plan, view, f64::INFINITY).unwrap();
            proptest::prop_assert!(reference.to_bits() == planned.to_bits());
            proptest::prop_assert!(reference.to_bits() == soa.to_bits());

            // Abandoning agreement: prune iff the reference would prune.
            let threshold = reference.sqrt() * frac;
            let bounded =
                dist_par_sq_planned(&plan, &c, safe_sq_bound(threshold)).unwrap();
            let ref_keep = reference.sqrt() <= threshold;
            if bounded.is_finite() {
                proptest::prop_assert!(bounded.to_bits() == reference.to_bits());
                proptest::prop_assert!((bounded.sqrt() <= threshold) == ref_keep);
            } else {
                // Abandoned: the reference must prune this candidate too.
                proptest::prop_assert!(!ref_keep);
            }
        }

        /// Tier-1 SIMD pin: every supported dispatch width returns the
        /// scalar walk's exact bits — with and without an abandon bound,
        /// and with the same abandon decision — on arbitrary interleaved
        /// segmentations.
        #[test]
        fn planned_eval_is_bit_identical_across_simd_widths(
            len in 16usize..96,
            q_gaps in proptest::collection::vec(1usize..7, 24),
            c_gaps in proptest::collection::vec(1usize..7, 24),
            q_coeffs in proptest::collection::vec((-2.0f64..2.0, -5.0f64..5.0), 24),
            c_coeffs in proptest::collection::vec((-2.0f64..2.0, -5.0f64..5.0), 24),
            frac in 0.0f64..2.0,
        ) {
            use sapla_core::simd::{supported_levels, SimdLevel};

            let q = build_pl(len, &q_gaps, &q_coeffs);
            let c = build_pl(len, &c_gaps, &c_coeffs);
            let plan = QueryPlan::new(&q);
                let scalar = planned_eval_with(
                SimdLevel::Scalar, &plan, &c, f64::INFINITY);
            let bound = safe_sq_bound(scalar.sqrt() * frac);
            let scalar_bounded = planned_eval_with(
                SimdLevel::Scalar, &plan, &c, bound);
            for level in supported_levels() {
                let full = planned_eval_with(
                    level, &plan, &c, f64::INFINITY);
                proptest::prop_assert_eq!(
                    scalar.to_bits(), full.to_bits(), "full, level {}", level.name());
                let bounded = planned_eval_with(
                    level, &plan, &c, bound);
                proptest::prop_assert_eq!(
                    scalar_bounded.to_bits(),
                    bounded.to_bits(),
                    "bounded, level {}",
                    level.name()
                );
            }
        }
    }
}
