//! `Dist_PAR` — the paper's lower-bounding distance for adaptive-length
//! representations (Definition 5.1).
//!
//! Both representations are *partitioned* onto the union of their segment
//! endpoints `R = Q̂_R ∪ Ĉ_R` (each sub-segment keeps its covering line, so
//! the reconstructions are unchanged), after which the windows align and
//! the squared distances of Eq. 12 sum directly. The result is tighter
//! than `Dist_LB` and, unlike `Dist_AE`, respects the lower-bounding lemma
//! (Appendices A.5–A.6; the guarantee is conditional on the two
//! segmentations — see DESIGN.md — which the integration tests measure).
//!
//! Complexity: `O(N_Q + N_C)` — strictly cheaper than the `O(n)` of
//! `Dist_LB`/`Dist_AE`.

use sapla_core::{Error, PiecewiseLinear, Result};

use crate::dist_s::dist_s_sq;

/// `Dist_PAR(Q̂, Ĉ)` between two adaptive-length linear representations of
/// equal-length series.
///
/// ```
/// use sapla_core::{TimeSeries, sapla::Sapla};
/// use sapla_distance::dist_par;
///
/// let q = TimeSeries::new((0..64).map(|t| (t as f64 * 0.1).sin()).collect())?;
/// let c = TimeSeries::new((0..64).map(|t| (t as f64 * 0.1).cos()).collect())?;
/// let qr = Sapla::with_segments(4).reduce(&q)?;
/// let cr = Sapla::with_segments(4).reduce(&c)?;
/// let approx = dist_par(&qr, &cr)?;          // O(N), not O(n)
/// let exact = q.euclidean(&c)?;
/// assert!((approx - exact).abs() / exact < 0.2, "tight estimate");
/// # Ok::<(), sapla_core::Error>(())
/// ```
///
/// Either side may be a stored [`PiecewiseLinear`] or a [`SoaSegs`] view
/// (see [`SegSource`]); the result is bitwise the same.
///
/// # Errors
///
/// [`Error::LengthMismatch`] when the two representations cover different
/// series lengths.
pub fn dist_par<Q: SegSource, C: SegSource>(q: Q, c: C) -> Result<f64> {
    dist_par_sq(q, c).map(f64::sqrt)
}

/// Squared [`dist_par`] (avoids the square root inside search loops).
///
/// # Errors
///
/// [`Error::LengthMismatch`] when the two representations cover different
/// series lengths.
// audit: no_alloc — the windows are streamed into the sum, none buffered.
pub fn dist_par_sq<Q: SegSource, C: SegSource>(q: Q, c: C) -> Result<f64> {
    sapla_obs::counter!("dist.par.evals");
    let mut sum = 0.0f64;
    let mut _windows = 0u64;
    for_each_window(q, c, |w| {
        sum += dist_s_sq(w.qa, w.qb, w.ca, w.cb, w.len);
        _windows += 1;
    })?;
    sapla_obs::hist!("dist.par.windows", _windows);
    Ok(sum)
}

/// One aligned window of the endpoint-union partition `R = Q̂_R ∪ Ĉ_R`:
/// both lines restricted to the same `len` points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignedWindow {
    /// Query line slope over this window.
    pub qa: f64,
    /// Query line value at the window's first point.
    pub qb: f64,
    /// Candidate line slope over this window.
    pub ca: f64,
    /// Candidate line value at the window's first point.
    pub cb: f64,
    /// Window length in points.
    pub len: usize,
}

/// Contiguous struct-of-arrays view of a linear segmentation: parallel
/// `slopes`/`intercepts`/`endpoints` slices, one element per segment.
/// This is how a tree's representation store in `sapla-index` hands out
/// one entry — every reader walks cache-linear coefficient arrays instead
/// of pointer-hopping per-entry [`PiecewiseLinear`] structs.
#[derive(Debug, Clone, Copy)]
pub struct SoaSegs<'a> {
    slopes: &'a [f64],
    intercepts: &'a [f64],
    endpoints: &'a [usize],
}

impl<'a> SoaSegs<'a> {
    /// Wrap three parallel coefficient slices as a segmentation view.
    ///
    /// # Errors
    ///
    /// [`Error::MalformedRepresentation`] when the slices are empty or
    /// their lengths disagree. (Strictly increasing endpoints are the
    /// producer's contract, as they are for [`PiecewiseLinear::new`]'s
    /// inputs: the representation store in `sapla-index` holds only
    /// coefficients flattened from validated representations or passed
    /// through its own validation pass on a snapshot load.)
    pub fn new(slopes: &'a [f64], intercepts: &'a [f64], endpoints: &'a [usize]) -> Result<Self> {
        if slopes.is_empty() || slopes.len() != intercepts.len() || slopes.len() != endpoints.len()
        {
            return Err(Error::MalformedRepresentation {
                reason: "SoA segmentation view needs equal-length non-empty coefficient slices",
            });
        }
        Ok(SoaSegs { slopes, intercepts, endpoints })
    }
}

/// A linear segmentation as the distance walkers read it: segment `i` is
/// the line `a(i)·u + b(i)` ending at the inclusive global index `r(i)`,
/// endpoints strictly increasing, at least one segment. Implemented for
/// `&`[`PiecewiseLinear`] (a stored representation), [`SoaSegs`] (a view
/// into flat coefficient arrays) and `&`[`crate::QueryPlan`]. Every
/// distance over linear segments (`Dist_PAR`, `Dist_PLA`, `Dist_LB`) is
/// generic over this trait and does the same arithmetic in the same
/// order whichever layout it reads — so moving coefficients between
/// layouts cannot change a result bit.
pub trait SegSource: Copy {
    /// Number of segments (never zero).
    fn count(self) -> usize;
    /// Slope of segment `i`.
    fn a(self, i: usize) -> f64;
    /// Value of segment `i` at its first point.
    fn b(self, i: usize) -> f64;
    /// Inclusive global index of segment `i`'s last point.
    fn r(self, i: usize) -> usize;
    /// Number of original points the segmentation covers.
    fn series_len(self) -> usize {
        self.r(self.count() - 1) + 1
    }
}

impl SegSource for &PiecewiseLinear {
    fn count(self) -> usize {
        self.num_segments()
    }
    fn a(self, i: usize) -> f64 {
        self.segments()[i].a
    }
    fn b(self, i: usize) -> f64 {
        self.segments()[i].b
    }
    fn r(self, i: usize) -> usize {
        self.segments()[i].r
    }
}

impl SegSource for SoaSegs<'_> {
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

/// The whole walk, length-checked. Every `Dist_PAR` variant
/// ([`dist_par_sq`] and the planned kernel in [`crate::plan`]) goes
/// through the same generic walker, so their window sequences cannot
/// diverge.
// audit: no_alloc — the window walk must stay allocation-free.
fn for_each_window<Q: SegSource, C: SegSource>(
    q: Q,
    c: C,
    mut visit: impl FnMut(AlignedWindow),
) -> Result<()> {
    if q.series_len() != c.series_len() {
        return Err(Error::LengthMismatch { left: q.series_len(), right: c.series_len() });
    }
    walk_windows_until(q, c, |w| {
        visit(w);
        true
    });
    Ok(())
}

/// The single implementation of the endpoint-union walk (Definition 5.1):
/// visits every aligned window in order without allocating, generic over
/// the segment layout of either side (stored representations, store
/// views, query plans), until `visit` returns `false`. Callers must have
/// checked that both sides cover the same number of points. The windows
/// visited up to an early exit are exactly the prefix of the full walk,
/// which is what lets the planned kernel's early abandoning stay
/// decision-identical to the complete evaluation.
// audit: no_alloc — the window walk must stay allocation-free.
// `inline(always)`: the planned kernel's level-specialised wrappers need
// the walker collapsed into their `#[target_feature]` frame so the packed
// term kernel inlines (see `crate::plan::staged_walk`).
#[inline(always)]
pub(crate) fn walk_windows_until<Q: SegSource, C: SegSource>(
    qs: Q,
    cs: C,
    mut visit: impl FnMut(AlignedWindow) -> bool,
) {
    // Walk the union of endpoints: window [start, end] is the largest
    // aligned window below both current endpoints.
    let (mut qi, mut ci) = (0usize, 0usize);
    let mut start = 0usize;
    let (mut q_start, mut c_start) = (0usize, 0usize);
    loop {
        let qe = qs.r(qi);
        let ce = cs.r(ci);
        let end = qe.min(ce);
        let l = end + 1 - start;
        // Lines restricted to [start, end]: slope unchanged, intercept
        // shifted to the window's first point.
        let qa = qs.a(qi);
        let qb = qs.b(qi) + qa * (start - q_start) as f64;
        let ca = cs.a(ci);
        let cb = cs.b(ci) + ca * (start - c_start) as f64;
        if !visit(AlignedWindow { qa, qb, ca, cb, len: l }) {
            break;
        }

        if qe == ce && qi + 1 == qs.count() {
            break;
        }
        if qe == end {
            qi += 1;
            q_start = qe + 1;
        }
        if ce == end {
            ci += 1;
            c_start = ce + 1;
        }
        start = end + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapla_core::{LinearSegment, TimeSeries};

    fn pl(segs: &[(f64, f64, usize)]) -> PiecewiseLinear {
        PiecewiseLinear::new(segs.iter().map(|&(a, b, r)| LinearSegment { a, b, r }).collect())
            .unwrap()
    }

    /// Reference implementation: reconstruct both and take the Euclidean
    /// distance — identical because partitioning preserves reconstructions.
    fn brute(q: &PiecewiseLinear, c: &PiecewiseLinear) -> f64 {
        let qr = q.reconstruct();
        let cr = c.reconstruct();
        qr.euclidean(&cr).unwrap()
    }

    #[test]
    fn equals_reconstruction_distance() {
        let q = pl(&[(1.0, 0.0, 4), (-0.5, 5.0, 9)]);
        let c = pl(&[(0.0, 2.0, 2), (2.0, 1.0, 6), (0.0, 0.0, 9)]);
        let d = dist_par(&q, &c).unwrap();
        assert!((d - brute(&q, &c)).abs() < 1e-9, "{d} vs {}", brute(&q, &c));
    }

    #[test]
    fn identical_representations_have_zero_distance() {
        let q = pl(&[(0.3, -1.0, 3), (0.0, 2.0, 7)]);
        assert!(dist_par(&q, &q).unwrap() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let q = pl(&[(1.0, 0.0, 5), (0.0, 5.0, 11)]);
        let c = pl(&[(0.5, 1.0, 2), (-1.0, 4.0, 8), (0.0, -2.0, 11)]);
        let ab = dist_par(&q, &c).unwrap();
        let ba = dist_par(&c, &q).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn rejects_length_mismatch() {
        let q = pl(&[(0.0, 0.0, 3)]);
        let c = pl(&[(0.0, 0.0, 4)]);
        assert!(dist_par(&q, &c).is_err());
    }

    #[test]
    fn many_segment_alignment() {
        // Exercise the endpoint-union walker with interleaved endpoints.
        let q = pl(&[(1.0, 0.0, 1), (0.0, 2.0, 6), (2.0, 2.0, 9), (0.0, 8.0, 15)]);
        let c = pl(&[(0.0, 1.0, 3), (1.0, 1.0, 10), (-1.0, 8.0, 15)]);
        let d = dist_par(&q, &c).unwrap();
        assert!((d - brute(&q, &c)).abs() < 1e-9);
    }

    #[test]
    fn windows_tile_the_series_in_either_operand_order() {
        let q = pl(&[(1.0, 0.0, 1), (0.0, 2.0, 6), (2.0, 2.0, 9), (0.0, 8.0, 15)]);
        let c = pl(&[(0.0, 1.0, 3), (1.0, 1.0, 10), (-1.0, 8.0, 15)]);
        let mut forward = Vec::new();
        for_each_window(&q, &c, |w| forward.push(w)).unwrap();
        let mut swapped = Vec::new();
        for_each_window(&c, &q, |w| swapped.push(w)).unwrap();
        // The endpoint union is 1, 3, 6, 9, 10, 15 whichever side leads,
        // and the windows tile the series exactly.
        let lens = |windows: &[AlignedWindow]| windows.iter().map(|w| w.len).collect::<Vec<_>>();
        assert_eq!(lens(&forward), vec![2, 2, 3, 3, 1, 5]);
        assert_eq!(lens(&swapped), lens(&forward));
        assert_eq!(lens(&forward).iter().sum::<usize>(), q.series_len());
        for (f, s) in forward.iter().zip(&swapped) {
            assert_eq!((f.qa, f.qb, f.ca, f.cb), (s.ca, s.cb, s.qa, s.qb));
        }
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

        /// Definition 5.1's partition preserves both reconstructions, so
        /// Dist_PAR must equal reconstruct-then-Euclidean on *any* pair of
        /// segmentations of the same length — however their endpoints
        /// interleave.
        #[test]
        fn dist_par_equals_reconstruction_distance(
            len in 16usize..96,
            q_gaps in proptest::collection::vec(1usize..7, 24),
            c_gaps in proptest::collection::vec(1usize..7, 24),
            q_coeffs in proptest::collection::vec((-2.0f64..2.0, -5.0f64..5.0), 24),
            c_coeffs in proptest::collection::vec((-2.0f64..2.0, -5.0f64..5.0), 24),
        ) {
            let q = build_pl(len, &q_gaps, &q_coeffs);
            let c = build_pl(len, &c_gaps, &c_coeffs);
            let d = dist_par(&q, &c).unwrap();
            let reference = brute(&q, &c);
            proptest::prop_assert!(
                (d - reference).abs() <= 1e-6 * (1.0 + reference),
                "dist_par {} vs reconstruction {} (len {}, {} vs {} segments)",
                d, reference, len, q.num_segments(), c.num_segments()
            );
        }
    }

    /// `rep`'s coefficients as the three flat arrays a [`SoaSegs`] views.
    fn flatten(rep: &PiecewiseLinear) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
        let segs = rep.segments();
        (
            segs.iter().map(|s| s.a).collect(),
            segs.iter().map(|s| s.b).collect(),
            segs.iter().map(|s| s.r).collect(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The reference did not change when its data moved: the
        /// unplanned walk, the pair distance,
        /// `Dist_PLA` and `Dist_LB` over [`SoaSegs`] views are bitwise
        /// what they are over the [`PiecewiseLinear`] the views were
        /// flattened from — on either side and on both.
        #[test]
        fn distances_over_soa_views_are_bitwise_the_stored_ones(
            len in 16usize..96,
            q_gaps in proptest::collection::vec(1usize..7, 24),
            c_gaps in proptest::collection::vec(1usize..7, 24),
            q_coeffs in proptest::collection::vec((-2.0f64..2.0, -5.0f64..5.0), 24),
            c_coeffs in proptest::collection::vec((-2.0f64..2.0, -5.0f64..5.0), 24),
            raw in proptest::collection::vec(-4.0f64..4.0, 96),
        ) {
            let q = build_pl(len, &q_gaps, &q_coeffs);
            let c = build_pl(len, &c_gaps, &c_coeffs);
            let (qa, qb, qr) = flatten(&q);
            let (ca, cb, cr) = flatten(&c);
            let qv = SoaSegs::new(&qa, &qb, &qr).unwrap();
            let cv = SoaSegs::new(&ca, &cb, &cr).unwrap();
            proptest::prop_assert_eq!((qv.series_len(), cv.count()), (len, c.num_segments()));

            let stored = dist_par_sq(&q, &c).unwrap().to_bits();
            proptest::prop_assert_eq!(dist_par_sq(&q, cv).unwrap().to_bits(), stored);
            proptest::prop_assert_eq!(dist_par_sq(qv, &c).unwrap().to_bits(), stored);
            proptest::prop_assert_eq!(dist_par_sq(qv, cv).unwrap().to_bits(), stored);
            proptest::prop_assert_eq!(
                dist_par(qv, cv).unwrap().to_bits(), dist_par(&q, &c).unwrap().to_bits());

            // Dist_PLA needs one segmentation on both sides: `c`'s, under
            // `q`'s coefficients.
            let aligned = build_pl(len, &c_gaps, &q_coeffs);
            let (aa, ab, ar) = flatten(&aligned);
            let av = SoaSegs::new(&aa, &ab, &ar).unwrap();
            let pla = crate::dist_pla(&aligned, &c).unwrap().to_bits();
            proptest::prop_assert_eq!(crate::dist_pla(&aligned, cv).unwrap().to_bits(), pla);
            proptest::prop_assert_eq!(crate::dist_pla(av, cv).unwrap().to_bits(), pla);

            let sums = TimeSeries::new(raw[..len].to_vec()).unwrap().prefix_sums();
            proptest::prop_assert_eq!(
                crate::lb::dist_lb_sq(&sums, cv).unwrap().to_bits(),
                crate::lb::dist_lb_sq(&sums, &c).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn paper_example_relation_to_euclid() {
        // Dist_PAR is a *tight, conditionally lower-bounding* estimate
        // (the paper's Fig. 10 shows Dist_LB ≤ Dist_PAR ≤ Dist for its
        // example; Appendix A.5's guarantee assumes compatible
        // segmentations — see DESIGN.md). On this sin/cos pair with
        // independently chosen segmentations the estimate lands within a
        // fraction of a percent of the Euclidean distance, far tighter
        // than Dist_LB; the integration suite measures violation rates
        // over the whole catalogue.
        let qv: Vec<f64> = (0..32).map(|t| (t as f64 * 0.4).sin() * 3.0).collect();
        let cv: Vec<f64> = (0..32).map(|t| (t as f64 * 0.4).cos() * 3.0).collect();
        let qts = TimeSeries::new(qv).unwrap();
        let cts = TimeSeries::new(cv).unwrap();
        let reduce = |s: &TimeSeries| sapla_core::sapla::Sapla::with_segments(4).reduce(s).unwrap();
        let d_par = dist_par(&reduce(&qts), &reduce(&cts)).unwrap();
        let d_euc = qts.euclidean(&cts).unwrap();
        assert!(d_par <= 1.02 * d_euc, "Dist_PAR {d_par} vs Euclid {d_euc}");
        assert!(d_par > 0.8 * d_euc, "Dist_PAR should be a tight estimate");
    }
}
