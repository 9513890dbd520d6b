//! Per-method indexing schemes: feature vectors for R-tree MBRs,
//! query-to-MBR lower bounds (MINDIST), query-to-representation distances
//! and representation-pair distances (for DBCH hulls).
//!
//! The adaptive methods use the APCA-style MBR over interleaved
//! coefficients (the construction whose overlap problem motivates the
//! DBCH-tree); equal-length methods use their classic coefficient-space
//! bounds.

use sapla_baselines::sax::gaussian_breakpoints;
use sapla_baselines::{ReduceScratch, Reducer};
use sapla_core::{Error, PrefixSums, Representation, Result, TimeSeries};
use sapla_distance::{
    dist_paa, dist_par, dist_par_sq, dist_par_sq_planned, dist_pla, dist_s_sq, mindist,
    rep_distance, safe_sq_bound, QueryPlan, SegSource,
};

use crate::arena::RepRef;
use crate::rect::HyperRect;

/// A query prepared for index search: raw series, its prefix sums, its
/// reduced representation under the indexed method, and — for linear
/// representations — the query-compiled `Dist_PAR` plan.
#[derive(Debug, Clone)]
pub struct Query {
    /// The raw query series.
    pub raw: TimeSeries,
    /// Prefix sums of the raw series (for `Dist_LB`-style projections).
    pub sums: PrefixSums,
    /// The query's own reduced representation.
    pub rep: Representation,
    /// Query-compiled `Dist_PAR` plan (linear representations only).
    /// `None` disables the planned kernel — the scheme falls back to the
    /// unplanned reference walk with identical results; the equivalence
    /// proptests strip this field to pin that.
    pub plan: Option<QueryPlan>,
}

impl Query {
    /// Reduce `raw` with `reducer` at budget `m` and package the query.
    ///
    /// # Errors
    ///
    /// Propagates reduction failures.
    pub fn new(raw: &TimeSeries, reducer: &dyn Reducer, m: usize) -> Result<Query> {
        Self::with_scratch(raw, reducer, m, &mut ReduceScratch::new())
    }

    /// [`Query::new`] with a caller-provided reduction workspace — same
    /// result, reused buffers. The batch preparation path
    /// ([`crate::parallel::prepare_queries`]) holds one per worker.
    ///
    /// # Errors
    ///
    /// Propagates reduction failures.
    pub fn with_scratch(
        raw: &TimeSeries,
        reducer: &dyn Reducer,
        m: usize,
        scratch: &mut ReduceScratch,
    ) -> Result<Query> {
        let rep = reducer.reduce_with_scratch(raw, m, scratch)?;
        let plan = rep.as_linear().map(QueryPlan::new);
        Ok(Query { raw: raw.clone(), sums: raw.prefix_sums(), rep, plan })
    }
}

/// `strict-invariants`: `Dist_LB` is the unconditional lower bound
/// (`Dist_LB(Q, Ĉ) ≤ Dist(Q, C)` for *any* series `C` with linear
/// representation `Ĉ`) — whenever a refinement step has both the
/// representation and the exact Euclidean distance in hand, recompute the
/// bound and require it to hold. `Dist_PAR` is deliberately **not**
/// checked here: the paper's Theorems 4.2/4.3 make it conditional.
///
/// The comparison allows for rounding in two parts. `1e-6 · (1 + exact)`
/// covers the errors relative to the distances themselves: evaluating
/// Eq. 12 from the line deltas (a positive definite form with condition
/// ≈ 2l², so a relative error of order `l²·ε`) and the square roots.
/// `16 · n^2.5 · ε · A`, with `A = Σ|q_t|` over the `n` query samples
/// and `u = ε / 2`, covers the query's prefix sums, which cancel badly
/// when a window follows a huge sample. To first order in `u`:
/// 1. `Σ q_t` and `Σ t·q_t` are running sums of `n` terms whose partial
///    sums stay within `A` and `n·A`, so each entry is off by at most
///    `n·u·A` and `2n²·u·A` (the second counts the rounded products).
/// 2. A window reads two entries of each. Its `Σ c` is then off by at most
///    `3n·u·A`, its local `Σ u·c` (which subtracts `start · Σ c`) by
///    `10n²·u·A`, and its centred moment `m` by `13n²·u·A`.
/// 3. The fitted line is the window's orthogonal projection, with norm²
///    `(Σ c)²/l + 12·m²/(l(l² − 1))`. So it moves by at most
///    `3n·u·A + √2 · 13n²·u·A ≤ 22n²·u·A` in the window's L2 norm.
/// 4. `Dist_LB` is an L2 norm over at most `n` windows, so by the
///    triangle inequality it moves by at most `√n · 22n²·u·A`, which is
///    `11 · n^2.5 · ε · A`. The factor 16 leaves room for the relative
///    roundings of the fit's own divisions, which are of order `u·A`.
///
/// On ordinary data the second part is negligible (`n = 64`, `A ≈ 100`:
/// ≈ 1e-8). For a query with a 1e300 sample it is above 1e287, so the
/// audit then checks nothing beyond the arithmetic's own precision.
#[cfg(feature = "strict-invariants")]
pub(crate) fn assert_lb_le_exact(q: &Query, rep: RepRef<'_>, exact: f64) -> Result<()> {
    let lb = match rep {
        RepRef::Linear(view) => sapla_distance::dist_lb(&q.sums, view)?,
        RepRef::Stored(Representation::Linear(linear)) => sapla_distance::dist_lb(&q.sums, linear)?,
        RepRef::Stored(_) => return Ok(()),
    };
    let samples = q.raw.values();
    // audit: cast_ok — a series length is far below 2^53.
    let n = samples.len() as f64;
    let magnitude: f64 = samples.iter().map(|v| v.abs()).sum();
    let rounding = 16.0 * n * n * n.sqrt() * f64::EPSILON * magnitude;
    assert!(
        lb <= exact + 1e-6 * (1.0 + exact) + rounding,
        "strict-invariants: Dist_LB = {lb} exceeds the exact Euclidean distance {exact} \
         (+ rounding {rounding}); the lower-bound contract is broken"
    );
    Ok(())
}

/// The per-method indexing strategy.
pub trait Scheme: Send + Sync {
    /// Scheme name (matches the reducer name).
    fn name(&self) -> &'static str;

    /// Feature vector whose MBRs the R-tree maintains.
    fn feature(&self, rep: &Representation) -> Result<Vec<f64>>;

    /// Lower-bound distance from the query to anything inside `rect`
    /// (the R-tree node filter).
    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64>;

    /// Distance estimate from the query to a candidate's representation
    /// (the leaf-level filter; `Dist_PAR` for the adaptive methods). The
    /// candidate is one borrowed [`RepRef`] — a view into a tree's store
    /// or a [`Representation`] of the caller's — and the result does not
    /// depend on which.
    fn rep_dist(&self, q: &Query, rep: RepRef<'_>) -> Result<f64>;

    /// [`Scheme::rep_dist`] — the **identical** value — plus its
    /// memoisable squared form.
    /// Schemes that compute the distance as `sq.sqrt()` over an exact
    /// squared accumulation return `(sq.sqrt(), Some(sq))` and promise
    /// that **every** filter decision ([`Scheme::rep_within`]) is
    /// equivalent to `sq.sqrt() <= threshold` — that lets callers cache
    /// `sq` per (query, entry) and replay later evaluations of the same
    /// pair bitwise (the DBCH hull memo in [`crate::knn`]). The default
    /// returns no square, which disables such caching.
    fn rep_dist_sq(&self, q: &Query, rep: RepRef<'_>) -> Result<(f64, Option<f64>)> {
        Ok((self.rep_dist(q, rep)?, None))
    }

    /// Threshold-aware leaf filter: whether the candidate passes. The
    /// contract is exact agreement with
    /// `rep_dist(..) <= threshold` — schemes may early-abandon the
    /// distance computation as long as that holds. The default computes
    /// the full distance and compares.
    fn rep_within(&self, q: &Query, rep: RepRef<'_>, threshold: f64) -> Result<bool> {
        Ok(self.rep_dist_sq(q, rep)?.0 <= threshold)
    }

    /// Distance between two representations of one tree (DBCH hull
    /// construction and node volumes): `Dist_PAR` between linear ones,
    /// [`rep_distance`] otherwise.
    fn pair_dist(&self, a: RepRef<'_>, b: RepRef<'_>) -> Result<f64> {
        match (a, b) {
            (RepRef::Linear(a), RepRef::Linear(b)) => dist_par(a, b),
            (RepRef::Stored(a), RepRef::Stored(b)) => rep_distance(a, b),
            (RepRef::Linear(a), RepRef::Stored(b)) => dist_par(a, expect_linear(b)?),
            (RepRef::Stored(a), RepRef::Linear(b)) => dist_par(expect_linear(a)?, b),
        }
    }
}

/// Pick the scheme matching a reducer name.
///
/// # Errors
///
/// [`Error::UnknownMethod`] on a name outside the closed set of Table 1.
pub fn scheme_for(name: &str) -> Result<Box<dyn Scheme>> {
    match name {
        "SAPLA" | "APLA" => Ok(Box::new(AdaptiveLinearScheme::default())),
        "APCA" => Ok(Box::new(ApcaScheme)),
        "PLA" => Ok(Box::new(PlaScheme)),
        "PAA" | "PAALM" => Ok(Box::new(PaaScheme)),
        "CHEBY" => Ok(Box::new(ChebyScheme)),
        "SAX" => Ok(Box::new(SaxScheme)),
        other => Err(Error::UnknownMethod { name: other.to_string() }),
    }
}

fn expect_linear(rep: &Representation) -> Result<&sapla_core::PiecewiseLinear> {
    rep.as_linear().ok_or(Error::UnsupportedRepresentation { operation: "linear scheme" })
}

/// The candidate of a non-linear scheme: never a view into a linear store.
fn expect_stored<'a>(rep: RepRef<'a>, operation: &'static str) -> Result<&'a Representation> {
    match rep {
        RepRef::Stored(rep) => Ok(rep),
        RepRef::Linear(_) => Err(Error::UnsupportedRepresentation { operation }),
    }
}

/// Interval distance squared from a point to `[lo, hi]`.
#[inline]
fn interval_sq(x: f64, lo: f64, hi: f64) -> f64 {
    let d = if x < lo {
        lo - x
    } else if x > hi {
        x - hi
    } else {
        0.0
    };
    d * d
}

/// Shared APCA-MBR point bound: given per-region `(t_min, t_max, v_min,
/// v_max)`, lower-bound the per-point distance of the raw query to any
/// member series' reconstruction region, summed over all points.
fn region_mindist(regions: &[(usize, usize, f64, f64)], raw: &[f64]) -> f64 {
    let n = raw.len();
    let mut best = vec![f64::INFINITY; n];
    for &(t0, t1, vmin, vmax) in regions {
        for t in t0..=t1.min(n - 1) {
            let d = interval_sq(raw[t], vmin, vmax);
            if d < best[t] {
                best[t] = d;
            }
        }
    }
    best.iter().map(|&d| if d.is_finite() { d } else { 0.0 }).sum::<f64>().sqrt()
}

// ---------------------------------------------------------------------
// Adaptive linear (SAPLA, APLA): features ⟨a_i, b_i, r_i⟩ interleaved.
// ---------------------------------------------------------------------

/// Scheme for SAPLA/APLA representations.
///
/// When the query carries a [`QueryPlan`], every representation distance
/// runs the query-compiled kernels (bit-identical results); with
/// `abandon` set (the default), the threshold-aware leaf filter
/// additionally early-abandons the window accumulation against
/// [`safe_sq_bound`] of the running threshold — provably
/// decision-identical to the full comparison.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveLinearScheme {
    /// Early-abandon the planned leaf filter (on by default; turning it
    /// off is for the on/off equivalence tests and stock benchmarks).
    pub abandon: bool,
}

impl Default for AdaptiveLinearScheme {
    fn default() -> Self {
        AdaptiveLinearScheme { abandon: true }
    }
}

impl Scheme for AdaptiveLinearScheme {
    fn name(&self) -> &'static str {
        "AdaptiveLinear"
    }

    fn feature(&self, rep: &Representation) -> Result<Vec<f64>> {
        let lin = expect_linear(rep)?;
        let mut out = Vec::with_capacity(3 * lin.num_segments());
        for seg in lin.segments() {
            out.push(seg.a);
            out.push(seg.b);
            out.push(seg.r as f64);
        }
        Ok(out)
    }

    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64> {
        let n = q.raw.len();
        let segs = rect.dims() / 3;
        let mut regions = Vec::with_capacity(segs);
        let mut prev_r_lo = -1.0f64;
        for i in 0..segs {
            let (alo, ahi) = rect.dim(3 * i);
            let (blo, bhi) = rect.dim(3 * i + 1);
            let (rlo, rhi) = rect.dim(3 * i + 2);
            // audit: cast_ok — window start, clamped non-negative by max(0.0).
            let t0 = (prev_r_lo + 1.0).max(0.0) as usize;
            // audit: cast_ok — window end, clamped into [0, n) by min().
            let t1 = (rhi.min((n - 1) as f64)) as usize;
            let lmax = (t1 as f64 - prev_r_lo).max(1.0);
            // Value envelope of a·u + b over u ∈ [0, lmax−1], a ∈ [alo,
            // ahi], b ∈ [blo, bhi]: extremes at the u-endpoints.
            let vmin = blo.min(alo * (lmax - 1.0) + blo);
            let vmax = bhi.max(ahi * (lmax - 1.0) + bhi);
            regions.push((t0, t1, vmin, vmax));
            prev_r_lo = rlo;
        }
        Ok(region_mindist(&regions, q.raw.values()))
    }

    fn rep_dist(&self, q: &Query, rep: RepRef<'_>) -> Result<f64> {
        self.rep_dist_sq(q, rep).map(|(d, _)| d)
    }

    // `Dist_PAR` is `sq.sqrt()` in every path, the planned filter
    // decides via `within` (abandon ⟺ full square > bound, by the
    // monotone ≥ 0 Eq. 12 terms), and the unplanned filter compares
    // `sq.sqrt() <= threshold` directly — so the square is memoisable
    // per the trait contract.
    fn rep_dist_sq(&self, q: &Query, rep: RepRef<'_>) -> Result<(f64, Option<f64>)> {
        let sq = par_sq(q, rep, f64::INFINITY)?;
        Ok((sq.sqrt(), Some(sq)))
    }

    fn rep_within(&self, q: &Query, rep: RepRef<'_>, threshold: f64) -> Result<bool> {
        let abandon_at = if self.abandon { safe_sq_bound(threshold) } else { f64::INFINITY };
        Ok(within(par_sq(q, rep, abandon_at)?, threshold))
    }
}

/// `Dist_PAR²` from the query to a linear candidate, in whichever layout
/// it comes.
fn par_sq(q: &Query, rep: RepRef<'_>, abandon_at: f64) -> Result<f64> {
    match rep {
        RepRef::Linear(view) => par_sq_over(q, view, abandon_at),
        RepRef::Stored(rep) => par_sq_over(q, expect_linear(rep)?, abandon_at),
    }
}

/// The planned kernel when the query carries a plan — abandoning beyond
/// `abandon_at`, bit-identical to the unplanned walk when it does not
/// abandon — else the unplanned reference walk, which never abandons.
fn par_sq_over<C: SegSource>(q: &Query, cand: C, abandon_at: f64) -> Result<f64> {
    match &q.plan {
        Some(plan) => dist_par_sq_planned(plan, cand, abandon_at),
        None => dist_par_sq(expect_linear(&q.rep)?, cand),
    }
}

/// Turn a (possibly abandoned) `Dist_PAR²` into the leaf-filter
/// decision. The `f64::INFINITY` abandon sentinel only arises under a
/// finite threshold, which it fails — as the reference comparison on the
/// full square would; under `threshold = +∞` abandoning is disabled, so
/// a *genuine* infinite squared distance keeps (`INF <= INF`) exactly as
/// the reference does.
fn within(sq: f64, threshold: f64) -> bool {
    sq.sqrt() <= threshold
}

// ---------------------------------------------------------------------
// APCA: features ⟨v_i, r_i⟩ interleaved.
// ---------------------------------------------------------------------

/// Scheme for APCA representations.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApcaScheme;

impl Scheme for ApcaScheme {
    fn name(&self) -> &'static str {
        "APCA"
    }

    fn feature(&self, rep: &Representation) -> Result<Vec<f64>> {
        let con = rep
            .as_constant()
            .ok_or(Error::UnsupportedRepresentation { operation: "APCA scheme" })?;
        let mut out = Vec::with_capacity(2 * con.num_segments());
        for seg in con.segments() {
            out.push(seg.v);
            out.push(seg.r as f64);
        }
        Ok(out)
    }

    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64> {
        let n = q.raw.len();
        let segs = rect.dims() / 2;
        let mut regions = Vec::with_capacity(segs);
        let mut prev_r_lo = -1.0f64;
        for i in 0..segs {
            let (vlo, vhi) = rect.dim(2 * i);
            let (rlo, rhi) = rect.dim(2 * i + 1);
            // audit: cast_ok — window start, clamped non-negative by max(0.0).
            let t0 = (prev_r_lo + 1.0).max(0.0) as usize;
            // audit: cast_ok — window end, clamped into [0, n) by min().
            let t1 = (rhi.min((n - 1) as f64)) as usize;
            regions.push((t0, t1, vlo, vhi));
            prev_r_lo = rlo;
        }
        Ok(region_mindist(&regions, q.raw.values()))
    }

    fn rep_dist(&self, q: &Query, rep: RepRef<'_>) -> Result<f64> {
        rep_distance(&q.rep, expect_stored(rep, "APCA scheme")?)
    }
}

// ---------------------------------------------------------------------
// PLA: features ⟨a_i, b_i⟩, equal windows; per-segment box minimisation.
// ---------------------------------------------------------------------

/// Scheme for equal-length PLA representations.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaScheme;

/// Exact minimum of `Dist_S²` (Eq. 12) over a coefficient box: the form is
/// convex in `(Δa, Δb)`, so the minimum is either zero (box contains the
/// query's coefficients) or attained on one of the four edges, each a
/// clamped 1-D quadratic.
fn min_dist_s_sq_over_box(
    qa: f64,
    qb: f64,
    (alo, ahi): (f64, f64),
    (blo, bhi): (f64, f64),
    l: usize,
) -> f64 {
    if qa >= alo && qa <= ahi && qb >= blo && qb <= bhi {
        return 0.0;
    }
    let lf = l as f64;
    let big_a = lf * (lf - 1.0) * (2.0 * lf - 1.0) / 6.0;
    let big_b = lf * (lf - 1.0);
    let big_c = lf;
    let eval = |ca: f64, cb: f64| dist_s_sq(qa, qb, ca, cb, l);
    let mut best = f64::INFINITY;
    // Edges a = alo and a = ahi: minimise over cb.
    for ca in [alo, ahi] {
        let x = qa - ca;
        // d/dΔb (A x² + B x Δb + C Δb²) = 0 → Δb = −Bx / 2C.
        let cb = (qb + big_b * x / (2.0 * big_c)).clamp(blo, bhi);
        best = best.min(eval(ca, cb));
    }
    // Edges b = blo and b = bhi: minimise over ca.
    for cb in [blo, bhi] {
        let y = qb - cb;
        let ca = (qa + big_b * y / (2.0 * big_a)).clamp(alo, ahi);
        best = best.min(eval(ca, cb));
    }
    best
}

impl Scheme for PlaScheme {
    fn name(&self) -> &'static str {
        "PLA"
    }

    fn feature(&self, rep: &Representation) -> Result<Vec<f64>> {
        let lin = expect_linear(rep)?;
        let mut out = Vec::with_capacity(2 * lin.num_segments());
        for seg in lin.segments() {
            out.push(seg.a);
            out.push(seg.b);
        }
        Ok(out)
    }

    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64> {
        let qlin = expect_linear(&q.rep)?;
        let segs = rect.dims() / 2;
        if qlin.num_segments() != segs {
            return Err(Error::MalformedRepresentation {
                reason: "PLA query/index segment counts differ",
            });
        }
        let mut sum = 0.0;
        for (i, seg) in qlin.segments().iter().enumerate() {
            let l = qlin.seg_len(i);
            sum += min_dist_s_sq_over_box(seg.a, seg.b, rect.dim(2 * i), rect.dim(2 * i + 1), l);
        }
        Ok(sum.sqrt())
    }

    fn rep_dist(&self, q: &Query, rep: RepRef<'_>) -> Result<f64> {
        let q = expect_linear(&q.rep)?;
        match rep {
            RepRef::Linear(view) => dist_pla(q, view),
            RepRef::Stored(rep) => dist_pla(q, expect_linear(rep)?),
        }
    }
}

// ---------------------------------------------------------------------
// PAA / PAALM: features ⟨v_i⟩, equal windows.
// ---------------------------------------------------------------------

/// Scheme for PAA/PAALM representations.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaaScheme;

impl Scheme for PaaScheme {
    fn name(&self) -> &'static str {
        "PAA"
    }

    fn feature(&self, rep: &Representation) -> Result<Vec<f64>> {
        let con = rep
            .as_constant()
            .ok_or(Error::UnsupportedRepresentation { operation: "PAA scheme" })?;
        Ok(con.segments().iter().map(|s| s.v).collect())
    }

    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64> {
        let qcon = q
            .rep
            .as_constant()
            .ok_or(Error::UnsupportedRepresentation { operation: "PAA scheme" })?;
        if qcon.num_segments() != rect.dims() {
            return Err(Error::MalformedRepresentation {
                reason: "PAA query/index segment counts differ",
            });
        }
        let mut sum = 0.0;
        let mut start = 0usize;
        for (i, seg) in qcon.segments().iter().enumerate() {
            let l = (seg.r + 1 - start) as f64;
            let (lo, hi) = rect.dim(i);
            sum += l * interval_sq(seg.v, lo, hi);
            start = seg.r + 1;
        }
        Ok(sum.sqrt())
    }

    fn rep_dist(&self, q: &Query, rep: RepRef<'_>) -> Result<f64> {
        let qcon = q
            .rep
            .as_constant()
            .ok_or(Error::UnsupportedRepresentation { operation: "PAA scheme" })?;
        let ccon = expect_stored(rep, "PAA scheme")?
            .as_constant()
            .ok_or(Error::UnsupportedRepresentation { operation: "PAA scheme" })?;
        dist_paa(qcon, ccon)
    }
}

// ---------------------------------------------------------------------
// CHEBY: features = coefficients; Parseval point-to-box bound.
// ---------------------------------------------------------------------

/// Scheme for CHEBY (polynomial) representations.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChebyScheme;

impl Scheme for ChebyScheme {
    fn name(&self) -> &'static str {
        "CHEBY"
    }

    fn feature(&self, rep: &Representation) -> Result<Vec<f64>> {
        match rep {
            Representation::Polynomial(p) => Ok(p.coeffs.clone()),
            _ => Err(Error::UnsupportedRepresentation { operation: "CHEBY scheme" }),
        }
    }

    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64> {
        let qc = self.feature(&q.rep)?;
        if qc.len() != rect.dims() {
            return Err(Error::MalformedRepresentation {
                reason: "CHEBY query/index coefficient counts differ",
            });
        }
        Ok(rect.min_sq_dist_point(&qc).sqrt())
    }

    fn rep_dist(&self, q: &Query, rep: RepRef<'_>) -> Result<f64> {
        rep_distance(&q.rep, expect_stored(rep, "CHEBY scheme")?)
    }
}

// ---------------------------------------------------------------------
// SAX: features = symbol indices; MINDIST to the symbol box.
// ---------------------------------------------------------------------

/// Scheme for SAX words.
#[derive(Debug, Clone, Copy, Default)]
pub struct SaxScheme;

impl Scheme for SaxScheme {
    fn name(&self) -> &'static str {
        "SAX"
    }

    fn feature(&self, rep: &Representation) -> Result<Vec<f64>> {
        match rep {
            Representation::Symbolic(w) => Ok(w.symbols.iter().map(|&s| s as f64).collect()),
            _ => Err(Error::UnsupportedRepresentation { operation: "SAX scheme" }),
        }
    }

    fn mindist(&self, q: &Query, rect: &HyperRect) -> Result<f64> {
        let qw = match &q.rep {
            Representation::Symbolic(w) => w,
            _ => return Err(Error::UnsupportedRepresentation { operation: "SAX scheme" }),
        };
        if qw.symbols.len() != rect.dims() {
            return Err(Error::MalformedRepresentation {
                reason: "SAX query/index word lengths differ",
            });
        }
        let bp = gaussian_breakpoints(qw.alphabet_size);
        let cell = |a: usize, b: usize| -> f64 {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if hi - lo <= 1 {
                0.0
            } else {
                bp[hi - 1] - bp[lo]
            }
        };
        let mut sum = 0.0;
        for (i, &qs) in qw.symbols.iter().enumerate() {
            let (lo, hi) = rect.dim(i);
            // Nearest symbol inside the box (cell distance is monotone in
            // symbol separation).
            let nearest = (qs as f64).clamp(lo.ceil(), hi.floor().max(lo.ceil()));
            let d = cell(qs as usize, nearest as usize);
            sum += d * d;
        }
        let w = qw.symbols.len() as f64;
        Ok((qw.n as f64 / w).sqrt() * sum.sqrt())
    }

    fn rep_dist(&self, q: &Query, rep: RepRef<'_>) -> Result<f64> {
        match (&q.rep, rep) {
            (Representation::Symbolic(a), RepRef::Stored(Representation::Symbolic(b))) => {
                mindist(a, b)
            }
            _ => Err(Error::UnsupportedRepresentation { operation: "SAX scheme" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapla_baselines::{all_reducers, Pla};

    fn series(seed: usize) -> TimeSeries {
        TimeSeries::new(
            (0..64)
                .map(|t| ((t * (seed + 3)) as f64 * 0.17).sin() * 2.0 + seed as f64 * 0.1)
                .collect(),
        )
        .unwrap()
        .znormalized()
    }

    /// A query and a candidate that both lie in the span of the
    /// candidate's window lines, so `Dist_LB` equals the exact distance:
    /// the audit accepts that, and rejects it when `Dist_LB` overshoots
    /// the exact distance by 1%.
    #[cfg(feature = "strict-invariants")]
    #[test]
    fn lb_audit_trips_on_a_one_percent_overshoot() {
        let reducer = sapla_baselines::SaplaReducer::new();
        let rep = reducer.reduce(&series(1), 12).unwrap();
        // The candidate is its own representation's reconstruction, and
        // the query is that shifted by a constant: both are piecewise
        // linear on the representation's windows.
        let candidate = rep.as_linear().unwrap().reconstruct();
        let shifted = candidate.values().iter().map(|v| v + 0.5).collect();
        let q = Query::new(&TimeSeries::new(shifted).unwrap(), &reducer, 12).unwrap();
        let exact = q.raw.euclidean(&candidate).unwrap();
        assert_lb_le_exact(&q, RepRef::Stored(&rep), exact).unwrap();
        let overshoot =
            std::panic::catch_unwind(|| assert_lb_le_exact(&q, RepRef::Stored(&rep), exact / 1.01));
        assert!(overshoot.is_err(), "a Dist_LB 1% above the exact distance passed the audit");
    }

    #[test]
    fn every_method_produces_features_and_distances() {
        let m = 12;
        let db = series(1);
        let qr = series(2);
        for reducer in all_reducers() {
            let scheme = scheme_for(reducer.name()).unwrap();
            let rep = reducer.reduce(&db, m).unwrap();
            let feat = scheme.feature(&rep).unwrap();
            assert!(!feat.is_empty(), "{}", reducer.name());
            let q = Query::new(&qr, reducer.as_ref(), m).unwrap();
            let d = scheme.rep_dist(&q, RepRef::Stored(&rep)).unwrap();
            assert!(d.is_finite() && d >= 0.0, "{}", reducer.name());
            let rect = HyperRect::point(&feat);
            let md = scheme.mindist(&q, &rect).unwrap();
            assert!(md.is_finite() && md >= 0.0, "{}", reducer.name());
        }
    }

    #[test]
    fn mindist_is_below_rep_dist_for_point_rects() {
        // A node containing exactly one entry must not filter more
        // aggressively than the leaf-level distance allows... for the
        // methods whose node bound provably relaxes the rep distance
        // (equal-length coefficient-space schemes).
        let m = 12;
        let db = series(5);
        let qr = series(7);
        for name in ["PLA", "PAA", "CHEBY", "SAX"] {
            let reducer: Box<dyn Reducer> = match name {
                "PLA" => Box::new(Pla),
                "PAA" => Box::new(sapla_baselines::Paa),
                "CHEBY" => Box::new(sapla_baselines::Cheby),
                _ => Box::new(sapla_baselines::Sax::default()),
            };
            let scheme = scheme_for(name).unwrap();
            let rep = reducer.reduce(&db, m).unwrap();
            let q = Query::new(&qr, reducer.as_ref(), m).unwrap();
            let rect = HyperRect::point(&scheme.feature(&rep).unwrap());
            let md = scheme.mindist(&q, &rect).unwrap();
            let rd = scheme.rep_dist(&q, RepRef::Stored(&rep)).unwrap();
            assert!(md <= rd + 1e-6, "{name}: mindist {md} > rep_dist {rd}");
        }
    }

    #[test]
    fn unknown_scheme_is_an_error() {
        let Err(err) = scheme_for("WAVELETS") else {
            panic!("WAVELETS must not resolve to a scheme");
        };
        assert_eq!(err, Error::UnknownMethod { name: "WAVELETS".to_string() });
        assert!(err.to_string().contains("WAVELETS"));
    }

    #[test]
    fn scheme_names_cover_every_method() {
        for reducer in all_reducers() {
            let scheme = scheme_for(reducer.name()).unwrap();
            assert!(!scheme.name().is_empty());
        }
    }

    #[test]
    fn min_dist_s_over_box_is_a_true_minimum() {
        let (qa, qb, l) = (1.2, -0.5, 9usize);
        let abox = (0.0, 0.5);
        let bbox = (0.5, 1.5);
        let bound = min_dist_s_sq_over_box(qa, qb, abox, bbox, l);
        // Grid-check that no box point does better.
        let mut grid_min = f64::INFINITY;
        for i in 0..=40 {
            for j in 0..=40 {
                let ca = abox.0 + (abox.1 - abox.0) * i as f64 / 40.0;
                let cb = bbox.0 + (bbox.1 - bbox.0) * j as f64 / 40.0;
                grid_min = grid_min.min(dist_s_sq(qa, qb, ca, cb, l));
            }
        }
        assert!(bound <= grid_min + 1e-9, "bound {bound} > grid {grid_min}");
        assert!(bound >= grid_min - 0.05 * grid_min.max(1e-9), "bound too loose");
        // Inside the box → zero.
        assert_eq!(min_dist_s_sq_over_box(0.2, 1.0, abox, bbox, l), 0.0);
    }

    #[test]
    fn mindist_lower_bounds_every_member_rep_dist() {
        // For any rect covering a set of features, mindist(q, rect) must
        // not exceed the smallest rep_dist(q, member) — otherwise the node
        // filter would prune entries its own leaf filter would keep.
        let m = 12;
        let members: Vec<TimeSeries> = (0..10).map(series).collect();
        let q_raw = series(99);
        for reducer in all_reducers() {
            let scheme = scheme_for(reducer.name()).unwrap();
            let reps: Vec<_> = members.iter().map(|s| reducer.reduce(s, m).unwrap()).collect();
            let mut rect = HyperRect::point(&scheme.feature(&reps[0]).unwrap());
            for rep in &reps[1..] {
                rect.extend_point(&scheme.feature(rep).unwrap());
            }
            let q = Query::new(&q_raw, reducer.as_ref(), m).unwrap();
            let md = scheme.mindist(&q, &rect).unwrap();
            let min_rep = reps
                .iter()
                .map(|r| scheme.rep_dist(&q, RepRef::Stored(r)).unwrap())
                .fold(f64::INFINITY, f64::min);
            // Adaptive schemes bound the *raw* query against reconstruction
            // regions rather than the rep distance, so give them headroom;
            // the equal-length schemes must hold exactly.
            let slack = match reducer.name() {
                "SAPLA" | "APLA" | "APCA" => 1.30,
                _ => 1.0 + 1e-9,
            };
            assert!(
                md <= min_rep * slack + 1e-9,
                "{}: mindist {md} > min member dist {min_rep}",
                reducer.name()
            );
        }
    }

    #[test]
    fn adaptive_mindist_grows_with_query_offset() {
        let reducer = sapla_baselines::SaplaReducer::new();
        let scheme = AdaptiveLinearScheme::default();
        let db = series(3);
        let rep = reducer.reduce(&db, 12).unwrap();
        let rect = HyperRect::point(&scheme.feature(&rep).unwrap());
        let q_near = Query::new(&db, &reducer, 12).unwrap();
        let far_series = TimeSeries::new(db.values().iter().map(|v| v + 5.0).collect()).unwrap();
        let q_far = Query {
            raw: far_series.clone(),
            sums: far_series.prefix_sums(),
            rep: q_near.rep.clone(),
            plan: q_near.plan.clone(),
        };
        let d_near = scheme.mindist(&q_near, &rect).unwrap();
        let d_far = scheme.mindist(&q_far, &rect).unwrap();
        assert!(d_far > d_near + 1.0, "near {d_near}, far {d_far}");
    }
}
