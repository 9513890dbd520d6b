//! The node envelope arena of an engine shard (DESIGN.md §"Search
//! arenas"): per node, the min/max over its subtree of every member's
//! eight PAA segment means, one cache line a node. It is an
//! *unconditional* lower bound on the Euclidean distance to every member,
//! so the search driver tests it before the tree's own node bound (two
//! full `Dist_PAR` evaluations for a DBCH node) and skips that bound for
//! the nodes it dismisses — without changing an answer.
//!
//! **The bound.** A series of `n` points is cut into `w = min(8, n)`
//! segments, segment `j` being `[j·n/w, (j+1)·n/w)`. For a query `Q` and
//! a member `C`, Cauchy–Schwarz over each segment gives
//! `len_j · (mean_j(Q) − mean_j(C))² ≤ Σ_{i ∈ j} (q_i − c_i)²`, so with
//! `gap_j` the distance from the query's mean to a node's `[lo_j, hi_j]`,
//! `MINDIST² = Σ_j len_j · gap_j²` is at most the exact Euclidean² to
//! every member below the node.
//!
//! **Rounding.** Means are computed, for the database and the query
//! alike, by one function ([`Segments::intervals`]) that also returns an
//! error bound on its own result, so each side is an interval known to
//! hold the true mean; a node's `lo` / `hi` are rounded *outward* to
//! `f32`. The comparison ([`NodeEnvelopes::prunes`]) then demands that
//! `MINDIST²` exceed `threshold²` by a relative margin larger than the
//! rounding of either square, so a node is dismissed only when no member
//! can reach the threshold — never at a tie, never under an infinite
//! threshold. A duplicate of the query has a gap of exactly zero.
//!
//! **Derived, never persisted.** The arena is a function of the tree's
//! node arena and the shard's leaf-ordered raw series
//! ([`crate::arena::RawArena`]): a leaf's members are one contiguous run
//! of slots, so one streaming pass over the samples in slot order
//! ([`EnvelopeFold`]) builds every leaf and, as the walk closes each
//! subtree, every internal node. A built shard runs that pass over its
//! freshly gathered arena; a loaded shard runs it inside the pass that
//! already checks every raw sample for finiteness, so a load reads the
//! samples once, as before.

use crate::topology::{Hierarchy, NodeView};

/// Segments per series (fewer when the series is shorter).
pub(crate) const LANES: usize = 8;

/// Where the [`LANES`] segments of a series of `stride` points lie.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segments {
    stride: usize,
    /// Segments in use: `min(LANES, stride)`.
    w: usize,
    /// Segment `j` is `starts[j]..starts[j + 1]` (empty for `j ≥ w`).
    starts: [usize; LANES + 1],
    /// Segment lengths (`0.0` for `j ≥ w`).
    len: [f64; LANES],
    /// `1 / len` (`0.0` for `j ≥ w`): a mean is `sum · inv_len`.
    inv_len: [f64; LANES],
    /// What a mean's error bound is `Σ|x| ·`: `(len + 4)·ε / len`,
    /// comfortably above the `len − 1` roundings of the sum (in whatever
    /// order it is taken), the rounded reciprocal, the product and the
    /// final `mean ± err`.
    err_per_abs: [f64; LANES],
}

/// Per-segment sum and absolute sum of one series.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentSums {
    sum: [f64; LANES],
    abs: [f64; LANES],
}

impl SegmentSums {
    /// Every absolute sum finite — so every sample is finite (a NaN or
    /// an infinity makes its segment's absolute sum non-finite). A
    /// `false` is also what finite samples whose sum overflows give.
    pub(crate) fn finite(&self) -> bool {
        self.abs.iter().all(|a| a.is_finite())
    }
}

/// The sums of a set of series, per lane: the least and the greatest
/// sum and the greatest absolute sum — all a mean interval is computed
/// from ([`Segments::intervals`]). For one series, its own sums.
#[derive(Debug, Clone, Copy)]
struct SumRange {
    min: [f64; LANES],
    max: [f64; LANES],
    abs: [f64; LANES],
}

impl SumRange {
    /// Holds no series yet.
    const EMPTY: SumRange = SumRange {
        min: [f64::INFINITY; LANES],
        max: [f64::NEG_INFINITY; LANES],
        abs: [0.0; LANES],
    };

    fn of(sums: &SegmentSums) -> SumRange {
        SumRange { min: sums.sum, max: sums.sum, abs: sums.abs }
    }

    /// Take in one more series. Branch-free per lane; a NaN sum is
    /// ignored, which is safe because it comes with an infinite
    /// absolute sum (an overflow), and that lane is unbounded anyway.
    #[inline]
    fn widen(&mut self, sums: &SegmentSums) {
        for j in 0..LANES {
            self.min[j] = if sums.sum[j] < self.min[j] { sums.sum[j] } else { self.min[j] };
            self.max[j] = if sums.sum[j] > self.max[j] { sums.sum[j] } else { self.max[j] };
            self.abs[j] = if sums.abs[j] > self.abs[j] { sums.abs[j] } else { self.abs[j] };
        }
    }
}

/// Sum and absolute sum of `seg` over four lanes — a fixed order, so
/// equal inputs give equal bits, and one the compiler vectorises.
#[inline]
fn lane_sums(seg: &[f64]) -> (f64, f64) {
    let (mut s, mut a) = ([0.0f64; 4], [0.0f64; 4]);
    let mut chunks = seg.chunks_exact(4);
    for c in &mut chunks {
        for i in 0..4 {
            s[i] += c[i];
            a[i] += c[i].abs();
        }
    }
    for (i, &x) in chunks.remainder().iter().enumerate() {
        s[i] += x;
        a[i] += x.abs();
    }
    ((s[0] + s[2]) + (s[1] + s[3]), (a[0] + a[2]) + (a[1] + a[3]))
}

impl Segments {
    /// The segmentation of a `stride`-point series.
    pub(crate) fn new(stride: usize) -> Segments {
        let w = stride.min(LANES);
        let mut starts = [stride; LANES + 1];
        let (mut len, mut inv_len, mut err_per_abs) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
        // `j·stride / w` without the product: a stride read from a file
        // that holds no series is not bounded by any allocation.
        let (q, r) = (stride.checked_div(w).unwrap_or(0), stride.checked_rem(w).unwrap_or(0));
        for (j, start) in starts.iter_mut().enumerate().take(w) {
            *start = j * q + j * r / w;
        }
        for j in 0..w {
            let points = starts[j + 1] - starts[j];
            // audit: cast_ok — a segment length is far below 2^53.
            len[j] = points as f64;
            inv_len[j] = 1.0 / len[j];
            err_per_abs[j] = (len[j] + 4.0) * f64::EPSILON * inv_len[j];
        }
        Segments { stride, w, starts, len, inv_len, err_per_abs }
    }

    /// Per-segment sums of `series` (`stride` points).
    // audit: no_alloc — the query path computes its means per search.
    #[inline]
    pub(crate) fn sums(&self, series: &[f64]) -> SegmentSums {
        let mut out = SegmentSums { sum: [0.0; LANES], abs: [0.0; LANES] };
        for j in 0..self.w {
            (out.sum[j], out.abs[j]) = lane_sums(&series[self.starts[j]..self.starts[j + 1]]);
        }
        out
    }

    /// Per lane, an interval holding the true segment mean of every
    /// series in `range`: the computed means `sum · (1/len)` of the least
    /// and greatest sum, widened by a bound on the rounding of either
    /// (the greatest absolute sum's). Every step rounds monotonically,
    /// so a series' own interval lies inside the interval of any range
    /// that holds it — a query equal to a member gets a gap of 0.
    /// Unbounded where the absolute sum is not finite; meaningless for
    /// lanes `≥ w`, which every caller overrides.
    #[inline]
    fn intervals(&self, range: &SumRange) -> ([f64; LANES], [f64; LANES]) {
        let (mut lo, mut hi) = ([0.0; LANES], [0.0; LANES]);
        for j in 0..LANES {
            // The absolute floor covers a product that underflows.
            let err = range.abs[j] * self.err_per_abs[j] + f64::MIN_POSITIVE;
            (lo[j], hi[j]) = if range.abs[j].is_finite() {
                (range.min[j] * self.inv_len[j] - err, range.max[j] * self.inv_len[j] + err)
            } else {
                (f64::NEG_INFINITY, f64::INFINITY)
            };
        }
        (lo, hi)
    }
}

/// How far outward a bound moves before it is rounded to `f32`: two of
/// its units in the last place at 2⁻²³, so the nearest `f32` cannot fall
/// back across `v` — plus one `f32` subnormal step (2⁻¹⁴⁹ ≈ 1.4e-45) for
/// values too small for a relative step.
const OUTWARD: f64 = 1.0 / 4_194_304.0;
const OUTWARD_ABS: f64 = 1.5e-45;

/// An `f32` not above `v` (not NaN), at most a few units in the last
/// place below it. Arithmetic, not a branch on which way `v` rounds:
/// that is a coin toss per lane, and a leaf closes sixteen of them.
#[inline]
fn f32_down(v: f64) -> f32 {
    let scale = if v < 0.0 { 1.0 + OUTWARD } else { 1.0 - OUTWARD };
    // audit: cast_ok — moved outward first, so the rounding stays below `v`.
    let r = (v * scale - OUTWARD_ABS) as f32;
    if r > f32::MAX {
        f32::MAX
    } else {
        r
    }
}

/// An `f32` not below `v` (not NaN); as [`f32_down`].
#[inline]
fn f32_up(v: f64) -> f32 {
    let scale = if v < 0.0 { 1.0 - OUTWARD } else { 1.0 + OUTWARD };
    // audit: cast_ok — moved outward first, so the rounding stays above `v`.
    let r = (v * scale + OUTWARD_ABS) as f32;
    if r < -f32::MAX {
        -f32::MAX
    } else {
        r
    }
}

/// One node's envelope: per segment, the smallest and largest member
/// mean, rounded outward — one 64-byte line.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, PartialEq)]
struct Envelope {
    lo: [f32; LANES],
    hi: [f32; LANES],
}

impl Envelope {
    /// Holds nothing yet: the identity of [`Envelope::widen`].
    const EMPTY: Envelope = Envelope { lo: [f32::INFINITY; LANES], hi: [f32::NEG_INFINITY; LANES] };
    /// Bounds nothing: never prunes.
    const UNBOUNDED: Envelope =
        Envelope { lo: [f32::NEG_INFINITY; LANES], hi: [f32::INFINITY; LANES] };

    fn widen(&mut self, other: &Envelope) {
        for j in 0..LANES {
            self.lo[j] = if other.lo[j] < self.lo[j] { other.lo[j] } else { self.lo[j] };
            self.hi[j] = if other.hi[j] > self.hi[j] { other.hi[j] } else { self.hi[j] };
        }
    }

    fn is_empty(&self) -> bool {
        self.lo[0] > self.hi[0]
    }
}

/// A query's segment means against one shard's envelopes: per lane, an
/// interval holding the true mean, and the segment length.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueryMeans {
    lo: [f64; LANES],
    hi: [f64; LANES],
    len: [f64; LANES],
}

/// Per node of one shard's tree, the envelope of its members' segment
/// means (see the module docs).
#[derive(Debug)]
pub(crate) struct NodeEnvelopes {
    segments: Segments,
    /// By node id; condensed-away slots and empty nodes are unbounded.
    nodes: Vec<Envelope>,
    /// `1 − margin`: what `MINDIST²` is scaled by before it is compared,
    /// so the comparison absorbs the rounding of both squares.
    keep: f64,
}

impl NodeEnvelopes {
    /// The envelopes of `hierarchy`'s nodes over `samples`, the shard's
    /// raw series in leaf-walk slot order at `stride` points each — the
    /// build-time pass (a load folds the same sums in its sample check).
    pub(crate) fn derive(hierarchy: &dyn Hierarchy, samples: &[f64], stride: usize) -> Self {
        let mut fold = EnvelopeFold::new(hierarchy, stride);
        if stride > 0 {
            for series in samples.chunks_exact(stride) {
                fold.push(&fold.segments.sums(series));
            }
        }
        fold.finish()
    }

    /// The query's means, or `None` when its length differs from the
    /// shard's series (the search then reports the mismatch the stock
    /// way, from the tree's own bound).
    // audit: no_alloc — computed once per query and search.
    pub(crate) fn query(&self, raw: &[f64]) -> Option<QueryMeans> {
        if raw.len() != self.segments.stride {
            return None;
        }
        let sums = self.segments.sums(raw);
        let (mut lo, mut hi) = self.segments.intervals(&SumRange::of(&sums));
        for j in self.segments.w..LANES {
            (lo[j], hi[j]) = (f64::NEG_INFINITY, f64::INFINITY);
        }
        Some(QueryMeans { lo, hi, len: self.segments.len })
    }

    /// `MINDIST²` from the query to node `nid`'s envelope. Branch-free
    /// per lane and summed pairwise, so it compiles to vector code.
    // audit: no_alloc — the per-node test of every search.
    #[inline]
    fn mindist_sq(&self, nid: usize, q: &QueryMeans) -> f64 {
        let env = &self.nodes[nid];
        let mut terms = [0.0f64; LANES];
        for (j, term) in terms.iter_mut().enumerate() {
            let below = f64::from(env.lo[j]) - q.hi[j];
            let above = q.lo[j] - f64::from(env.hi[j]);
            let gap = if below > above { below } else { above };
            let gap = if gap > 0.0 { gap } else { 0.0 };
            *term = q.len[j] * (gap * gap);
        }
        let half =
            [terms[0] + terms[4], terms[1] + terms[5], terms[2] + terms[6], terms[3] + terms[7]];
        (half[0] + half[2]) + (half[1] + half[3])
    }

    /// Can node `nid` be dismissed at `threshold` — does every member lie
    /// strictly beyond it, by more than rounding? Never at a tie, never
    /// under an infinite (or NaN) threshold.
    // audit: no_alloc — the per-node test of every search.
    #[inline]
    pub(crate) fn prunes(&self, nid: usize, q: &QueryMeans, threshold: f64) -> bool {
        self.mindist_sq(nid, q) * self.keep > threshold * threshold + f64::MIN_POSITIVE
    }

    /// The strict-invariants gate at every refinement: the envelope of
    /// the leaf holding a candidate must not dismiss it at its own exact
    /// distance.
    #[cfg(feature = "strict-invariants")]
    pub(crate) fn assert_sound(&self, leaf: usize, q: &QueryMeans, exact: f64) {
        assert!(
            !self.prunes(leaf, q, exact),
            "strict-invariants: the envelope of leaf {leaf} bounds MINDIST² = {} above the exact \
             squared distance {} of a member; the envelope contract is broken",
            self.mindist_sq(leaf, q) * self.keep,
            exact * exact
        );
    }
}

/// The streaming half of [`NodeEnvelopes`]' construction: series arrive
/// in slot (leaf-walk) order through [`EnvelopeFold::push`]; a
/// depth-first walk of the hierarchy, advanced one leaf at a time, says
/// which leaf each belongs to and closes every internal node once its
/// last child is done. One allocation for the arena, none per series: a
/// series only widens the open leaf's [`SumRange`]; its mean intervals
/// are computed and rounded to `f32` once, when the leaf is complete.
pub(crate) struct EnvelopeFold<'h> {
    hierarchy: &'h dyn Hierarchy,
    segments: Segments,
    nodes: Vec<Envelope>,
    /// The open path of the walk: node id, next child to enter.
    path: Vec<(usize, usize)>,
    /// The leaf being filled, how many of its members are still due, and
    /// the sums of those already folded.
    leaf: usize,
    due: usize,
    open: SumRange,
}

impl<'h> EnvelopeFold<'h> {
    /// A fold over `hierarchy`'s leaves for series of `stride` points.
    pub(crate) fn new(hierarchy: &'h dyn Hierarchy, stride: usize) -> Self {
        EnvelopeFold {
            hierarchy,
            segments: Segments::new(stride),
            nodes: vec![Envelope::EMPTY; hierarchy.slots()],
            path: vec![(hierarchy.root(), 0)],
            leaf: 0,
            due: 0,
            open: SumRange::EMPTY,
        }
    }

    /// Walk on to the next leaf with members, closing the internal nodes
    /// left behind. `false` once the walk is over.
    fn advance(&mut self) -> bool {
        while let Some(&(nid, next)) = self.path.last() {
            match self.hierarchy.node_view(nid) {
                NodeView::Internal(children) => match children.get(next) {
                    Some(&child) => {
                        if let Some(top) = self.path.last_mut() {
                            top.1 += 1;
                        }
                        self.path.push((child, 0));
                    }
                    None => {
                        self.path.pop();
                        let mut env = Envelope::EMPTY;
                        for &c in children {
                            env.widen(&self.nodes[c]);
                        }
                        self.nodes[nid] = env;
                    }
                },
                NodeView::Leaf(entries) => {
                    self.path.pop();
                    if !entries.is_empty() {
                        (self.leaf, self.due) = (nid, entries.len());
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Fold the next slot's series, given as its segment sums.
    pub(crate) fn push(&mut self, sums: &SegmentSums) {
        if self.due == 0 && !self.advance() {
            return;
        }
        self.open.widen(sums);
        self.due -= 1;
        if self.due == 0 {
            self.close_leaf();
        }
    }

    /// The complete leaf's mean intervals, rounded outward into the
    /// arena.
    fn close_leaf(&mut self) {
        let (lo, hi) = self.segments.intervals(&self.open);
        let env = &mut self.nodes[self.leaf];
        for j in 0..LANES {
            (env.lo[j], env.hi[j]) = if j < self.segments.w {
                (f32_down(lo[j]), f32_up(hi[j]))
            } else {
                (f32::NEG_INFINITY, f32::INFINITY)
            };
        }
        self.open = SumRange::EMPTY;
    }

    /// Close the walk; every node left holding nothing — an empty root
    /// leaf, a condensed-away slot — bounds nothing, and so does a leaf
    /// that was handed fewer series than it has members (no caller does
    /// that: the slots are the leaf walk).
    pub(crate) fn finish(mut self) -> NodeEnvelopes {
        while self.due > 0 || self.advance() {
            self.nodes[self.leaf] = Envelope::UNBOUNDED;
            self.due = 0;
        }
        for env in &mut self.nodes {
            if env.is_empty() {
                *env = Envelope::UNBOUNDED;
            }
        }
        // audit: cast_ok — a series length is far below 2^53.
        let rounding = (self.segments.stride as f64 + 32.0) * f64::EPSILON;
        let keep = if rounding < 0.5 { 1.0 - rounding } else { 0.0 };
        NodeEnvelopes { segments: self.segments, nodes: self.nodes, keep }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use sapla_baselines::SaplaReducer;
    use sapla_core::TimeSeries;
    use sapla_distance::euclidean_early_abandon_slices;

    use crate::arena::RawSource;
    use crate::batched::{knn_search, range_search};
    use crate::engine::{Engine, EngineConfig, Shard, ShardIndex, TreeKind};
    use crate::knn::{KnnScratch, SearchStats};
    use crate::scheme::Query;

    /// Series of `len` points with everything the bound must survive:
    /// exact duplicates (every fifth series repeats the one before),
    /// constant series (every seventh), and with `huge` the odd sample at
    /// ±1e300 (every sixth).
    fn database(
        count: usize,
        len: usize,
        huge: bool,
        params: &[(f64, f64, f64)],
    ) -> Vec<TimeSeries> {
        let mut out: Vec<TimeSeries> = Vec::with_capacity(count);
        for i in 0..count {
            let (lvl, slope, phase) = params[i % params.len()];
            let values: Vec<f64> = if i % 5 == 4 {
                out[i - 1].values().to_vec()
            } else if i % 7 == 6 {
                vec![lvl; len]
            } else {
                (0..len)
                    .map(|t| {
                        let x = t as f64;
                        if huge && i % 6 == 5 && t % 3 == 1 {
                            if t % 2 == 0 {
                                1e300
                            } else {
                                -1e300
                            }
                        } else {
                            lvl + slope * x + ((x * 0.4) + phase + i as f64).sin()
                        }
                    })
                    .collect()
            };
            out.push(TimeSeries::new(values).unwrap());
        }
        out
    }

    fn db_strategy() -> impl Strategy<Value = Vec<TimeSeries>> {
        (
            6usize..30,
            0usize..4,
            0usize..3,
            proptest::collection::vec(
                (-3.0f64..3.0, -0.2f64..0.2, 0.0f64..std::f64::consts::TAU),
                12,
            ),
        )
            .prop_map(|(count, len_pick, huge, params)| {
                database(count, [5, 7, 48, 64][len_pick], huge == 0, &params)
            })
    }

    fn engine(raws: &[TimeSeries], tree: TreeKind, shards: usize) -> Engine {
        let cfg = EngineConfig { tree, shards, ..EngineConfig::default() };
        Engine::build(cfg, Box::new(SaplaReducer::new()), raws.to_vec(), 2).unwrap()
    }

    /// Queries: every third database member (ties at distance 0) and a
    /// perturbed copy of each.
    fn queries(raws: &[TimeSeries]) -> Vec<TimeSeries> {
        let mut out = Vec::new();
        for s in raws.iter().step_by(3) {
            out.push(s.clone());
            let bent = s.values().iter().enumerate().map(|(t, v)| v + 0.05 * (t as f64).cos());
            out.push(TimeSeries::new(bent.collect()).unwrap());
        }
        out
    }

    fn members(shard: &Shard, nid: usize, out: &mut Vec<usize>) {
        match shard.index.hierarchy().node_view(nid) {
            NodeView::Leaf(entries) => out.extend_from_slice(entries),
            NodeView::Internal(children) => {
                for &c in children {
                    members(shard, c, out);
                }
            }
        }
    }

    /// Exact Euclidean distance as the search driver refines it.
    fn exact(q: &[f64], c: &[f64]) -> f64 {
        euclidean_early_abandon_slices(q, c, f64::INFINITY).unwrap().unwrap()
    }

    /// What `Engine::knn` / `Engine::range` answer with every shard run
    /// through the same driver without envelopes, merged the way the
    /// engine merges.
    pub(crate) fn envelope_free(
        engine: &Engine,
        queries: &[Query],
        k: usize,
        eps: f64,
    ) -> (Vec<SearchStats>, Vec<SearchStats>) {
        let n_shards = engine.shards.len();
        let scheme = engine.scheme.as_ref();
        let mut per_shard_knn = Vec::new();
        let mut per_shard_range = Vec::new();
        for shard in &engine.shards {
            let raws = shard.raws.view();
            let mut scratch = KnnScratch::new();
            let (knn, range) = match &shard.index {
                ShardIndex::Dbch(t) => (
                    queries
                        .iter()
                        .map(|q| knn_search(t, q, k, scheme, &raws, None, &mut scratch).unwrap())
                        .collect::<Vec<_>>(),
                    queries
                        .iter()
                        .map(|q| range_search(t, q, eps, scheme, &raws, None).unwrap())
                        .collect(),
                ),
                ShardIndex::Rtree(t) => (
                    queries
                        .iter()
                        .map(|q| knn_search(t, q, k, scheme, &raws, None, &mut scratch).unwrap())
                        .collect::<Vec<_>>(),
                    queries
                        .iter()
                        .map(|q| range_search(t, q, eps, scheme, &raws, None).unwrap())
                        .collect::<Vec<_>>(),
                ),
            };
            per_shard_knn.push(knn);
            per_shard_range.push(range);
        }
        let merge = |per_shard: &[Vec<SearchStats>], qi: usize, k: Option<usize>| {
            let mut merged = Vec::new();
            let mut measured = 0;
            for (si, stats) in per_shard.iter().enumerate() {
                measured += stats[qi].measured;
                for (&d, &local) in stats[qi].distances.iter().zip(&stats[qi].retrieved) {
                    merged.push((d, local * n_shards + si));
                }
            }
            merged.sort_unstable_by(|a: &(f64, usize), b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            merged.truncate(k.unwrap_or(merged.len()));
            SearchStats {
                retrieved: merged.iter().map(|&(_, id)| id).collect(),
                distances: merged.iter().map(|&(d, _)| d).collect(),
                measured,
                total: engine.len(),
            }
        };
        (
            (0..queries.len()).map(|qi| merge(&per_shard_knn, qi, Some(k))).collect(),
            (0..queries.len()).map(|qi| merge(&per_shard_range, qi, None)).collect(),
        )
    }

    /// Same ids, same distance bits, and never more refinements.
    pub(crate) fn same_answers(got: &[SearchStats], want: &[SearchStats], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (qi, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.retrieved, w.retrieved, "{what}, query {qi}");
            let bits =
                |s: &SearchStats| s.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{what}, query {qi}");
            assert!(
                g.measured <= w.measured,
                "{what}, query {qi}: {} > {}",
                g.measured,
                w.measured
            );
        }
    }

    #[test]
    fn segments_cover_the_series_and_short_series_use_one_point_each() {
        for (stride, want) in [
            (0usize, vec![]),
            (5, vec![1, 1, 1, 1, 1]),
            (8, vec![1; 8]),
            (20, vec![2, 3, 2, 3, 2, 3, 2, 3]),
            (128, vec![16; 8]),
        ] {
            let seg = Segments::new(stride);
            let lens: Vec<usize> = (0..seg.w).map(|j| seg.starts[j + 1] - seg.starts[j]).collect();
            assert_eq!(lens, want, "stride {stride}");
            assert_eq!(seg.starts[LANES], stride);
        }
        // A stride no allocation bounds (a file that holds no series).
        let seg = Segments::new(usize::MAX);
        assert_eq!((seg.starts[0], seg.starts[LANES]), (0, usize::MAX));
    }

    #[test]
    fn outward_rounding_brackets_the_value_within_a_few_ulps() {
        let values = [
            0.1f64,
            -0.1,
            1e-40,
            -1e-40,
            1e-46,
            -1e-46,
            1e39,
            -1e39,
            1e300,
            -1e300,
            0.0,
            -0.0,
            3.0,
            -3.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from(f32::MAX),
            3.5e38,
            -3.5e38,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in values {
            let (lo, hi) = (f32_down(v), f32_up(v));
            assert!(f64::from(lo) <= v && v <= f64::from(hi), "{v}: [{lo}, {hi}]");
            // Loose by a few units in the last place at most: eight steps
            // back toward `v` cross it (or `v` is beyond the `f32` range).
            let crossed = |x: f32, step: fn(f32) -> f32, beyond: fn(f64, f64) -> bool| {
                let back = (0..8).fold(x, |x, _| step(x));
                beyond(f64::from(back), v) || v.abs() > f64::from(f32::MAX)
            };
            assert!(crossed(lo, f32::next_up, |b, v| b >= v), "{v}: lo {lo}");
            assert!(crossed(hi, f32::next_down, |b, v| b <= v), "{v}: hi {hi}");
        }
    }

    #[test]
    fn a_query_of_another_length_gets_no_means() {
        let raws = database(12, 48, false, &[(0.5, 0.01, 1.0), (-1.0, 0.1, 2.0)]);
        let engine = engine(&raws, TreeKind::Dbch, 1);
        let env = &engine.shards[0].envelopes;
        assert!(env.query(raws[0].values()).is_some());
        assert!(env.query(&raws[0].values()[..40]).is_none());
    }

    #[test]
    fn leaves_and_internal_nodes_hold_their_members_means() {
        let raws = database(40, 48, false, &[(0.5, 0.01, 1.0), (-1.0, 0.1, 2.0), (2.0, -0.1, 0.3)]);
        for tree in [TreeKind::Dbch, TreeKind::Rtree] {
            let engine = engine(&raws, tree, 1);
            let shard = &engine.shards[0];
            let env = &shard.envelopes;
            let hierarchy = shard.index.hierarchy();
            let mut stack = vec![hierarchy.root()];
            while let Some(nid) = stack.pop() {
                if let NodeView::Internal(children) = hierarchy.node_view(nid) {
                    stack.extend_from_slice(children);
                }
                let mut ids = Vec::new();
                members(shard, nid, &mut ids);
                let node = &env.nodes[nid];
                let view = shard.raws.view();
                for j in 0..LANES {
                    // Tight: the envelope is the members' hull, rounded
                    // out by a few f32 steps each way.
                    let means = ids.iter().map(|&id| {
                        let raw = view.raw(id);
                        let seg = &raw[env.segments.starts[j]..env.segments.starts[j + 1]];
                        seg.iter().sum::<f64>() / seg.len() as f64
                    });
                    let lo = means.clone().fold(f64::INFINITY, f64::min);
                    let hi = means.fold(f64::NEG_INFINITY, f64::max);
                    assert!(
                        f64::from(node.lo[j]) <= lo && hi <= f64::from(node.hi[j]),
                        "{tree:?} {nid}"
                    );
                    let up8 = (0..8).fold(node.lo[j], |x, _| x.next_up());
                    let down8 = (0..8).fold(node.hi[j], |x, _| x.next_down());
                    assert!(f64::from(up8) >= lo, "{tree:?} {nid} lo");
                    assert!(f64::from(down8) <= hi, "{tree:?} {nid} hi");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        /// The bound: for every node of every shard, over both kinds of
        /// tree and shard counts {1, 2, 3, 7}, the envelope never
        /// dismisses a member at that member's own exact distance —
        /// `MINDIST² ≤ exact²` up to the comparison's margin — for
        /// queries that are members (distance 0, and their duplicates)
        /// and queries that are not.
        #[test]
        fn every_node_bounds_every_member(raws in db_strategy()) {
            for tree in [TreeKind::Dbch, TreeKind::Rtree] {
                for shards in [1usize, 2, 3, 7] {
                    let engine = engine(&raws, tree, shards);
                    for q in queries(&raws) {
                        for shard in &engine.shards {
                            let env = &shard.envelopes;
                            let means = env.query(q.values()).unwrap();
                            let (hierarchy, view) = (shard.index.hierarchy(), shard.raws.view());
                            let mut stack = vec![hierarchy.root()];
                            while let Some(nid) = stack.pop() {
                                if let NodeView::Internal(children) = hierarchy.node_view(nid) {
                                    stack.extend_from_slice(children);
                                }
                                let mut ids = Vec::new();
                                members(shard, nid, &mut ids);
                                for id in ids {
                                    let d = exact(q.values(), view.raw(id));
                                    prop_assert!(
                                        !env.prunes(nid, &means, d),
                                        "{:?} × {}: node {} dismisses a member at {}",
                                        tree, shards, nid, d
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }

        /// The answers: built engines and engines loaded from exact and
        /// from quantized images, over both kinds of tree, shard counts
        /// {1, 2, 3, 7} and thread counts {1, 2, 4}, return `retrieved`
        /// and `distances` bitwise equal to the same shards searched
        /// without envelopes, never refining more.
        #[test]
        fn envelopes_never_change_an_answer(raws in db_strategy(), k in 1usize..6, eps in 0.5f64..6.0) {
            for tree in [TreeKind::Dbch, TreeKind::Rtree] {
                for shards in [1usize, 2, 3, 7] {
                    let built = engine(&raws, tree, shards);
                    let mut engines = Vec::new();
                    let images = [(built.snapshot_image(None), "exact image"), (built.snapshot_image(Some(1e-3)), "quantized image")];
                    for (image, how) in images {
                        match image {
                            // Every image an engine writes, it loads.
                            Ok(image) => engines.push((Engine::from_snapshot_image(&image).unwrap(), how)),
                            // A DBCH hull over ±1e300 samples can have an
                            // infinite volume: the write refuses it with
                            // the loader's error.
                            Err(e) if e == (sapla_core::Error::CorruptIndex {
                                reason: "snapshot hull volume is not a finite non-negative value"
                            }) => prop_assert!(
                                tree == TreeKind::Dbch
                                    && raws.iter().any(|s| s.values().iter().any(|v| v.abs() > 1e299)),
                                "{how}: {e}"
                            ),
                            // Quantizing needs a DBCH-tree and coefficients
                            // an `i32` step count can hold.
                            Err(e) => prop_assert!(how == "quantized image", "{how}: {e}"),
                        }
                    }
                    engines.push((built, "built"));
                    for (engine, how) in &engines {
                        let prepared = engine.prepare(&queries(&raws), 2).unwrap();
                        let (want_knn, want_range) = envelope_free(engine, &prepared, k, eps);
                        for threads in [1usize, 2, 4] {
                            let what = format!("{how}, {tree:?} × {shards}, {threads} threads");
                            let (got, _) = engine.knn(&prepared, k, threads).unwrap();
                            same_answers(&got, &want_knn, &format!("knn, {what}"));
                        }
                        let got: Vec<_> = prepared.iter().map(|q| engine.range(q, eps).unwrap()).collect();
                        same_answers(&got, &want_range, &format!("range, {how}, {tree:?} × {shards}"));
                    }
                }
            }
        }
    }
}
