//! The classic R-tree (Guttman, SIGMOD 1984) over per-method feature
//! MBRs — the baseline index the DBCH-tree is compared against.
//!
//! Node splitting uses Guttman's quadratic algorithm (minimum combined
//! dead area), branch picking the minimum area enlargement. k-NN search is
//! best-first (GEMINI): nodes are filtered with the scheme's MINDIST,
//! entries with the scheme's representation distance, and survivors are
//! refined against the raw series.
//!
//! The MBR and its construction (`Rects`), the least-enlargement pick and
//! the quadratic split are all this module holds. The hierarchy they are
//! applied to lives once, in [`crate::topology`], for both trees: an
//! [`RTree`] is a `Topology<HyperRect>` (nodes, ids, walks,
//! condense-after-remove, structural validation, snapshot adoption) plus
//! the tree's [`RepStore`] and its feature vectors.

use std::cmp::Ordering;
use std::convert::Infallible;

use sapla_core::{Error, Representation, Result, TimeSeries};

use crate::arena::RepStore;
use crate::knn::{HullMemo, KnnScratch, SearchStats};
use crate::rect::HyperRect;
use crate::scheme::{Query, Scheme};
use crate::stats::TreeShape;
use crate::topology::{NodeView, Topology};

/// An R-tree over reduced representations.
///
/// ```
/// use sapla_baselines::{Paa, Reducer};
/// use sapla_core::TimeSeries;
/// use sapla_index::{scheme_for, Query, RTree};
///
/// let series: Vec<TimeSeries> = (0..20)
///     .map(|i| TimeSeries::new((0..32).map(|t| ((t + i) as f64 * 0.3).sin()).collect()).unwrap())
///     .collect();
/// let scheme = scheme_for("PAA")?;
/// let reps = series.iter().map(|s| Paa.reduce(s, 8)).collect::<Result<Vec<_>, _>>()?;
/// let tree = RTree::build(scheme.as_ref(), reps, 2, 5)?;
/// let q = Query::new(&series[0], &Paa, 8)?;
/// let knn = tree.knn(&q, 3, scheme.as_ref(), &series)?;
/// assert_eq!(knn.retrieved[0], 0); // a database member is its own 1-NN
/// # Ok::<(), sapla_core::Error>(())
/// ```
pub struct RTree {
    /// Nodes, ids and fill factors; each node's bound is its MBR.
    topology: Topology<HyperRect>,
    /// The indexed representations by entry id — what the leaf filter
    /// reads. Append-only: a removed entry stays behind as an
    /// unreferenced hole, so ids are stable.
    reps: RepStore,
    features: Vec<Vec<f64>>,
}

/// MBR construction over one tree's nodes and feature vectors — the
/// R-tree's bound policy, borrowed apart from the tree so that
/// [`Topology::remove_entry`] can call it while it holds the nodes.
struct Rects<'a> {
    topology: &'a Topology<HyperRect>,
    features: &'a [Vec<f64>],
}

impl Rects<'_> {
    /// MBR of a leaf's entries (their feature points); `None` for none.
    fn of_entries(&self, entries: &[usize]) -> Option<HyperRect> {
        let (&first, rest) = entries.split_first()?;
        let mut rect = HyperRect::point(&self.features[first]);
        for &e in rest {
            rect.extend_point(&self.features[e]);
        }
        Some(rect)
    }

    /// MBR of an internal node's children; `None` for none.
    fn of_children(&self, children: &[usize]) -> Option<HyperRect> {
        let (&first, rest) = children.split_first()?;
        let mut rect = self.topology.bound(first).clone();
        for &c in rest {
            rect.extend_rect(self.topology.bound(c));
        }
        Some(rect)
    }

    /// MBR of `members`, the entries of a leaf or the children of an
    /// internal node.
    fn of_members(&self, is_leaf: bool, members: &[usize]) -> Option<HyperRect> {
        if is_leaf {
            self.of_entries(members)
        } else {
            self.of_children(members)
        }
    }

    /// MBR of node `nid` over its current members. A node without
    /// members (an emptied root) keeps the rectangle it has: nothing
    /// reads it before the next insert replaces it.
    fn of_node(&self, nid: usize) -> HyperRect {
        match self.topology.node_view(nid) {
            NodeView::Leaf(entries) => self.of_entries(entries),
            NodeView::Internal(children) => self.of_children(children),
        }
        .unwrap_or_else(|| self.topology.bound(nid).clone())
    }
}

impl RTree {
    /// Build by sequential insertion (what the paper's ingest-time
    /// experiment measures). `min_fill`/`max_fill` follow Section 6
    /// (2 and 5).
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures from the scheme.
    pub fn build(
        scheme: &dyn Scheme,
        reps: Vec<Representation>,
        min_fill: usize,
        max_fill: usize,
    ) -> Result<RTree> {
        let topology = Topology::new(min_fill, max_fill, HyperRect { lo: vec![], hi: vec![] });
        let mut features = Vec::with_capacity(reps.len());
        for rep in &reps {
            features.push(scheme.feature(rep)?);
        }
        let mut tree = RTree { topology, reps: RepStore::from_reps(reps), features };
        for id in 0..tree.reps.len() {
            tree.insert_entry(id);
        }
        Ok(tree)
    }

    /// Number of indexed series.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// `true` iff no series are indexed.
    pub fn is_empty(&self) -> bool {
        self.reps.len() == 0
    }

    /// Insert one more representation, returning its entry id.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures from the scheme.
    pub fn insert(&mut self, scheme: &dyn Scheme, rep: Representation) -> Result<usize> {
        let id = self.reps.len();
        self.features.push(scheme.feature(&rep)?);
        self.reps.push(rep);
        self.insert_entry(id);
        Ok(id)
    }

    /// ε-range search: ids of all indexed series whose **exact** Euclidean
    /// distance to the query is at most `epsilon` (GEMINI filter over node
    /// MINDIST and representation distances, exact refinement over `raws`).
    ///
    /// With valid lower bounds (PAA/PLA/CHEBY/SAX schemes) the result is
    /// exact; for the adaptive schemes it inherits the conditional-bound
    /// caveat of `Dist_PAR`.
    ///
    /// # Errors
    ///
    /// Propagates distance-computation failures.
    pub fn range(
        &self,
        q: &Query,
        epsilon: f64,
        scheme: &dyn Scheme,
        raws: &[TimeSeries],
    ) -> Result<SearchStats> {
        debug_assert_eq!(raws.len(), self.reps.len());
        crate::batched::range_search(self, q, epsilon, scheme, raws, None)
    }

    /// Remove entry `id` from the index (its slot in the id space is
    /// retained so other ids stay stable). Underfull nodes are dissolved
    /// and their contents reinserted (Guttman's condense-tree), so the
    /// fill invariants keep holding.
    ///
    /// Returns `false` when `id` is not (or no longer) indexed.
    pub fn remove(&mut self, id: usize) -> bool {
        if id >= self.reps.len() {
            return false;
        }
        let features = self.features.as_slice();
        // Only descend where the entry's point can live.
        let point = &features[id];
        let Ok(removed) = self.topology.remove_entry(
            id,
            |rect| rect.min_sq_dist_point(point).partial_cmp(&0.0) != Some(Ordering::Greater),
            |topology, nid| Ok::<_, Infallible>(Rects { topology, features }.of_node(nid)),
        );
        let Some(orphans) = removed else { return false };
        for e in orphans {
            self.insert_entry(e);
        }
        true
    }

    /// Ids currently stored in leaves (sorted).
    pub fn entry_ids(&self) -> Vec<usize> {
        self.topology.entry_ids()
    }

    /// The extracted feature vectors, by entry id, for the snapshot
    /// writer (persisted so a load skips re-extraction).
    pub(crate) fn feature_vectors(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// Reassemble a tree from persisted parts without re-running the
    /// insertion build *or* feature extraction: `topology` has passed
    /// the structural adoption walk ([`Topology::adopt`]) and `reps` the
    /// store's validation ([`crate::arena::RepArena::adopt`]); what is
    /// left to check is the R-tree's own — one feature vector per rep,
    /// all of one arity, and every rectangle with matched lo/hi arity,
    /// finite bounds, `lo ≤ hi` per dimension and, in a tree that holds
    /// anything, the arity of the feature vectors (MINDIST reads a
    /// rectangle by the query's arity and would fail, or silently read
    /// the wrong coordinates, on any other). MINDIST containment of the
    /// stored rects is *not* re-derived — the proptest suite pins loaded
    /// answers to freshly-built ones instead.
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::CorruptIndex`] naming the violated invariant;
    /// never a panic.
    pub(crate) fn adopt(
        topology: Topology<HyperRect>,
        reps: RepStore,
        features: Vec<Vec<f64>>,
    ) -> Result<RTree> {
        if features.len() != reps.len() {
            return Err(corrupt("snapshot feature arena does not match the rep arena"));
        }
        let dims = features.first().map(Vec::len);
        if features.iter().any(|f| Some(f.len()) != dims) {
            return Err(corrupt("snapshot feature vectors differ in arity"));
        }
        for node in topology.nodes() {
            let rect = &node.bound;
            if rect.lo.len() != rect.hi.len() {
                return Err(corrupt("snapshot rectangle lo/hi arity mismatch"));
            }
            if dims.is_some_and(|dims| rect.dims() != dims) {
                return Err(corrupt("snapshot rectangle and feature vectors differ in arity"));
            }
            for (&lo, &hi) in rect.lo.iter().zip(&rect.hi) {
                if !lo.is_finite() || !hi.is_finite() || lo > hi {
                    return Err(corrupt("snapshot rectangle bounds are inverted or non-finite"));
                }
            }
        }
        Ok(RTree { topology, reps, features })
    }

    /// Structural integrity check, for stress tests and post-reload
    /// verification. On top of the shared structural pass
    /// ([`Topology::check_structure`]: fill bounds, ids in range, every
    /// entry in one leaf only) it verifies that
    ///
    /// * each reachable node's rectangle covers its children's rectangles
    ///   / its entries' feature points (what MINDIST pruning relies on),
    /// * there is one feature vector per entry id (removed entries are
    ///   holes: still in the store, referenced by no leaf).
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::CorruptIndex`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<()> {
        fn covers(outer: &HyperRect, inner: &HyperRect) -> bool {
            outer.dims() == inner.dims()
                && outer.lo.iter().zip(&inner.lo).all(|(o, i)| o <= i)
                && outer.hi.iter().zip(&inner.hi).all(|(o, i)| o >= i)
        }
        if self.features.len() != self.reps.len() {
            return Err(corrupt("feature arena does not cover the entry ids"));
        }
        self.topology.check_structure(self.reps.len())?;
        let mut stack = vec![self.topology.root()];
        while let Some(nid) = stack.pop() {
            let rect = self.topology.bound(nid);
            match self.topology.node_view(nid) {
                NodeView::Internal(children) => {
                    if children.iter().any(|&c| !covers(rect, self.topology.bound(c))) {
                        return Err(corrupt("node rectangle does not cover a child"));
                    }
                    stack.extend_from_slice(children);
                }
                NodeView::Leaf(entries) => {
                    if entries.iter().any(|&e| !covers(rect, &self.entry_rect(e))) {
                        return Err(corrupt("leaf rectangle does not cover an entry"));
                    }
                }
            }
        }
        Ok(())
    }

    fn rects(&self) -> Rects<'_> {
        Rects { topology: &self.topology, features: &self.features }
    }

    fn entry_rect(&self, id: usize) -> HyperRect {
        HyperRect::point(&self.features[id])
    }

    fn insert_entry(&mut self, id: usize) {
        let rect = self.entry_rect(id);
        let root = self.topology.root();
        if let Some(sibling) = self.insert_rec(root, id, &rect) {
            // Root split: grow the tree by one level.
            let cover = self.topology.bound(root).union(self.topology.bound(sibling));
            self.topology.grow_root(sibling, cover);
        }
    }

    /// Recursive insert; returns the id of a new sibling if `node` split.
    fn insert_rec(&mut self, node: usize, id: usize, rect: &HyperRect) -> Option<usize> {
        let (pushed, is_leaf) = match self.topology.node_view(node) {
            // The first entry of an empty root: its point is the rectangle.
            NodeView::Leaf([]) => {
                *self.topology.bound_mut(node) = rect.clone();
                (id, true)
            }
            NodeView::Leaf(_) => {
                self.topology.bound_mut(node).extend_rect(rect);
                (id, true)
            }
            NodeView::Internal(children) => {
                // Guttman: child whose rect needs least enlargement
                // (ties: smallest area).
                let mut best = (f64::INFINITY, f64::INFINITY, children[0]);
                for &c in children {
                    let enl = self.topology.bound(c).enlargement(rect);
                    let area = self.topology.bound(c).area();
                    if (enl, area) < (best.0, best.1) {
                        best = (enl, area, c);
                    }
                }
                self.topology.bound_mut(node).extend_rect(rect);
                (self.insert_rec(best.2, id, rect)?, false)
            }
        };
        let overfull = self.topology.push_member(node, pushed);
        if !is_leaf {
            *self.topology.bound_mut(node) = self.rects().of_node(node);
        }
        overfull.then(|| self.split(node))
    }

    /// Divide an overfull node by Guttman's quadratic split over its
    /// members' rectangles. Returns the new sibling's id.
    fn split(&mut self, node: usize) -> usize {
        let rects = self.rects();
        let (is_leaf, members) = match self.topology.node_view(node) {
            NodeView::Leaf(entries) => (true, entries),
            NodeView::Internal(children) => (false, children),
        };
        let member_rects: Vec<HyperRect> = members
            .iter()
            .map(|&m| if is_leaf { self.entry_rect(m) } else { self.topology.bound(m).clone() })
            .collect();
        let (ga, gb) = quadratic_split(&member_rects, self.topology.min_fill());
        let keep: Vec<usize> = ga.iter().map(|&i| members[i]).collect();
        let give: Vec<usize> = gb.iter().map(|&i| members[i]).collect();
        let (Some(keep_rect), Some(give_rect)) =
            (rects.of_members(is_leaf, &keep), rects.of_members(is_leaf, &give))
        else {
            unreachable!("a quadratic split seeds both groups")
        };
        self.topology.split(node, (keep, keep_rect), (give, give_rect))
    }

    /// Best-first k-NN (GEMINI) with exact refinement over `raws`.
    ///
    /// Nodes are visited in MINDIST order; entries are filtered with the
    /// scheme's representation distance and, if they survive, fetched and
    /// measured exactly (each fetch is one "disk access" — the paper's
    /// pruning-power unit). When the node bounds of adjacent leaves
    /// overlap (the APCA-MBR problem), leaves cannot be skipped and the
    /// measured count grows — exactly the effect Fig. 13 quantifies.
    ///
    /// # Errors
    ///
    /// Propagates distance-computation failures.
    pub fn knn(
        &self,
        q: &Query,
        k: usize,
        scheme: &dyn Scheme,
        raws: &[TimeSeries],
    ) -> Result<SearchStats> {
        self.knn_with_scratch(q, k, scheme, raws, &mut KnnScratch::new())
    }

    /// [`RTree::knn`] with caller-owned scratch buffers — the shared
    /// best-first driver in [`crate::batched`], the search state's
    /// allocations kept warm. Results are identical to
    /// [`RTree::knn`] whatever the scratch's history — every buffer is
    /// reset on entry.
    ///
    /// # Errors
    ///
    /// Propagates distance-computation failures.
    pub fn knn_with_scratch(
        &self,
        q: &Query,
        k: usize,
        scheme: &dyn Scheme,
        raws: &[TimeSeries],
        scratch: &mut KnnScratch,
    ) -> Result<SearchStats> {
        debug_assert_eq!(raws.len(), self.reps.len());
        crate::batched::knn_search(self, q, k, scheme, raws, None, scratch)
    }

    /// Structural statistics (Figs. 15–16).
    pub fn shape(&self) -> TreeShape {
        self.topology.shape()
    }
}

fn corrupt(reason: &'static str) -> Error {
    Error::CorruptIndex { reason }
}

impl crate::batched::BatchTree for RTree {
    type Bound = HyperRect;

    fn topology(&self) -> &Topology<HyperRect> {
        &self.topology
    }
    fn reps(&self) -> &RepStore {
        &self.reps
    }
    fn node_bound(
        &self,
        q: &Query,
        scheme: &dyn Scheme,
        nid: usize,
        // MINDIST bounds come from rectangles, not entry distances —
        // nothing to memoise; the memo stays empty and the leaf filter
        // always takes the stock evaluation.
        _memo: &mut HullMemo,
    ) -> Result<f64> {
        scheme.mindist(q, self.topology.bound(nid))
    }
}

/// Guttman's quadratic split over item rectangles. Returns the two groups
/// as index lists; both respect `min_fill`.
fn quadratic_split(rects: &[HyperRect], min_fill: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    debug_assert!(n >= 2 * min_fill);
    // Seeds: the pair wasting the most area when paired.
    let mut seeds = (0usize, 1usize);
    let mut worst = f64::NEG_INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
            if waste > worst {
                worst = waste;
                seeds = (i, j);
            }
        }
    }
    let mut ga = vec![seeds.0];
    let mut gb = vec![seeds.1];
    let mut ra = rects[seeds.0].clone();
    let mut rb = rects[seeds.1].clone();
    let mut rest: Vec<usize> = (0..n).filter(|&i| i != seeds.0 && i != seeds.1).collect();

    while let Some(pos) = pick_next(&rest, rects, &ra, &rb) {
        let i = rest.swap_remove(pos);
        // Force-assign to honour min_fill.
        let need_a = min_fill.saturating_sub(ga.len());
        let need_b = min_fill.saturating_sub(gb.len());
        let to_a = if rest.len() + 1 == need_a {
            true
        } else if rest.len() + 1 == need_b {
            false
        } else {
            let ea = ra.enlargement(&rects[i]);
            let eb = rb.enlargement(&rects[i]);
            match ea.partial_cmp(&eb) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => ra.area() <= rb.area(),
            }
        };
        if to_a {
            ga.push(i);
            ra.extend_rect(&rects[i]);
        } else {
            gb.push(i);
            rb.extend_rect(&rects[i]);
        }
    }
    (ga, gb)
}

/// Guttman's PickNext: the remaining item with the largest preference for
/// one group over the other.
fn pick_next(rest: &[usize], rects: &[HyperRect], ra: &HyperRect, rb: &HyperRect) -> Option<usize> {
    if rest.is_empty() {
        return None;
    }
    let mut best = (f64::NEG_INFINITY, 0usize);
    for (pos, &i) in rest.iter().enumerate() {
        let diff = (ra.enlargement(&rects[i]) - rb.enlargement(&rects[i])).abs();
        if diff > best.0 {
            best = (diff, pos);
        }
    }
    Some(best.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::scheme_for;
    use sapla_baselines::{Paa, Reducer};

    fn dataset(n_series: usize, len: usize) -> Vec<TimeSeries> {
        (0..n_series)
            .map(|i| {
                TimeSeries::new(
                    (0..len)
                        .map(|t| {
                            ((t + i * 7) as f64 * 0.21).sin() * (1.0 + i as f64 * 0.08)
                                + (i as f64 * 0.37).cos()
                        })
                        .collect(),
                )
                .unwrap()
                .znormalized()
            })
            .collect()
    }

    fn build_paa(raws: &[TimeSeries], m: usize) -> (RTree, Box<dyn Scheme>) {
        let scheme = scheme_for("PAA").unwrap();
        let reps: Vec<Representation> = raws.iter().map(|s| Paa.reduce(s, m).unwrap()).collect();
        let tree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        (tree, scheme)
    }

    #[test]
    fn shape_is_consistent() {
        let raws = dataset(60, 64);
        let (tree, _) = build_paa(&raws, 8);
        let shape = tree.shape();
        assert_eq!(shape.entries, 60);
        assert!(shape.leaf_nodes >= 60 / 5);
        assert!(shape.height >= 2);
        assert!(shape.total_nodes() > shape.internal_nodes);
    }

    #[test]
    fn knn_matches_linear_scan_for_paa() {
        // PAA's bounds are true lower bounds, so the GEMINI search is
        // exact: it must return precisely the true k-NN.
        let raws = dataset(50, 64);
        let (tree, scheme) = build_paa(&raws, 8);
        let query =
            TimeSeries::new((0..64).map(|t| (t as f64 * 0.23).sin() * 1.1).collect::<Vec<_>>())
                .unwrap()
                .znormalized();
        let q = Query::new(&query, &Paa, 8).unwrap();
        let stats = tree.knn(&q, 5, scheme.as_ref(), &raws).unwrap();
        // Ground truth by brute force.
        let mut truth: Vec<(f64, usize)> =
            raws.iter().enumerate().map(|(i, s)| (query.euclidean(s).unwrap(), i)).collect();
        truth.sort_by(|a, b| a.0.total_cmp(&b.0));
        let expect: Vec<usize> = truth[..5].iter().map(|&(_, i)| i).collect();
        assert_eq!(stats.retrieved, expect);
        assert!(stats.measured <= raws.len());
        assert!(stats.distances.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn knn_prunes_something_on_clusterable_data() {
        // Two well-separated clusters: the search should not measure the
        // entire database.
        let mut raws = dataset(30, 64);
        for s in dataset(30, 64) {
            let shifted = TimeSeries::new(s.values().iter().map(|v| v * 0.2 + 3.0).collect())
                .unwrap()
                .znormalized();
            raws.push(shifted);
        }
        let (tree, scheme) = build_paa(&raws, 8);
        let q = Query::new(&raws[3], &Paa, 8).unwrap();
        let stats = tree.knn(&q, 3, scheme.as_ref(), &raws).unwrap();
        assert!(stats.measured < raws.len(), "no pruning at all: {}", stats.measured);
        assert_eq!(stats.retrieved.len(), 3);
        assert!(stats.retrieved.contains(&3), "self should be in 3-NN of itself");
    }

    #[test]
    fn single_entry_tree() {
        let raws = dataset(1, 32);
        let (tree, scheme) = build_paa(&raws, 4);
        assert_eq!(tree.len(), 1);
        let q = Query::new(&raws[0], &Paa, 4).unwrap();
        let stats = tree.knn(&q, 1, scheme.as_ref(), &raws).unwrap();
        assert_eq!(stats.retrieved, vec![0]);
        assert!(stats.distances[0] < 1e-9);
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let rects: Vec<HyperRect> =
            (0..7).map(|i| HyperRect::point(&[i as f64, (i * i) as f64])).collect();
        let (a, b) = quadratic_split(&rects, 2);
        assert!(a.len() >= 2 && b.len() >= 2);
        assert_eq!(a.len() + b.len(), 7);
        let mut all: Vec<usize> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
    }

    /// The refactor's proof for the R-tree: the exported node arena —
    /// ids, slot order, rectangles, abandoned slots — after a build, a
    /// churn, a drain and a refill digests to the constants recorded on
    /// the tree as it was before `Topology` existed (PR 21's).
    #[test]
    fn built_and_churned_arenas_are_the_recorded_ones() {
        use crate::topology::tests::{digest, lcg, random_walks};

        let digest = |t: &RTree| {
            digest(&t.topology, |r| {
                let bits = r.lo.iter().chain(&r.hi).map(|x| x.to_bits());
                std::iter::once(r.lo.len() as u64).chain(bits).collect()
            })
        };
        let scheme = scheme_for("PAA").unwrap();
        let reps: Vec<Representation> =
            random_walks(200, 64, 11).iter().map(|s| Paa.reduce(s, 8).unwrap()).collect();
        let mut tree = RTree::build(scheme.as_ref(), reps[..48].to_vec(), 2, 5).unwrap();
        assert_eq!(digest(&tree), 0x8de7_c9a7_2175_8500, "built");

        let mut state = 99u64;
        let mut next_rep = 48usize;
        for _ in 0..140 {
            let live = tree.entry_ids();
            if lcg(&mut state).is_multiple_of(2) && next_rep < reps.len() {
                tree.insert(scheme.as_ref(), reps[next_rep].clone()).unwrap();
                next_rep += 1;
            } else if !live.is_empty() {
                let id = live[lcg(&mut state) as usize % live.len()];
                assert!(tree.remove(id));
            }
        }
        tree.validate().unwrap();
        assert_eq!((tree.entry_ids().len(), tree.shape().height), (56, 4));
        assert_eq!(digest(&tree), 0xeec6_9ec8_4c60_e400, "churned");

        for id in tree.entry_ids() {
            assert!(tree.remove(id));
        }
        tree.validate().unwrap();
        assert_eq!(digest(&tree), 0xf7de_5540_d1d9_7549, "drained");

        for rep in &reps[next_rep..next_rep + 12] {
            tree.insert(scheme.as_ref(), rep.clone()).unwrap();
        }
        tree.validate().unwrap();
        assert_eq!(digest(&tree), 0x45ad_6c39_d7f0_a087, "refilled");
    }

    #[test]
    fn incremental_insert_matches_bulk_build() {
        let raws = dataset(20, 64);
        let scheme = scheme_for("PAA").unwrap();
        let reps: Vec<Representation> = raws.iter().map(|s| Paa.reduce(s, 8).unwrap()).collect();
        let bulk = RTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
        let mut incr = RTree::build(scheme.as_ref(), vec![], 2, 5).unwrap();
        for rep in reps {
            incr.insert(scheme.as_ref(), rep).unwrap();
        }
        assert_eq!(incr.len(), bulk.len());
        // Same search results, whatever the internal structure.
        let q = Query::new(&raws[2], &Paa, 8).unwrap();
        let a = bulk.knn(&q, 4, scheme.as_ref(), &raws).unwrap();
        let b = incr.knn(&q, 4, scheme.as_ref(), &raws).unwrap();
        assert_eq!(a.retrieved, b.retrieved);
    }

    #[test]
    fn range_search_is_exact_for_paa() {
        let raws = dataset(40, 64);
        let (tree, scheme) = build_paa(&raws, 8);
        let q = Query::new(&raws[0], &Paa, 8).unwrap();
        for eps in [0.5, 2.0, 8.0, 100.0] {
            let got = tree.range(&q, eps, scheme.as_ref(), &raws).unwrap();
            let want = crate::linear_scan::linear_scan_range(&raws[0], &raws, eps).unwrap();
            assert_eq!(got.retrieved, want.retrieved, "eps={eps}");
            assert!(got.measured <= raws.len());
        }
    }

    #[test]
    fn remove_then_search_never_returns_removed_ids() {
        let raws = dataset(40, 64);
        let scheme = scheme_for("PAA").unwrap();
        let reps: Vec<Representation> = raws.iter().map(|s| Paa.reduce(s, 8).unwrap()).collect();
        let mut tree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        for id in [3usize, 17, 0, 39, 20, 21, 22, 23] {
            assert!(tree.remove(id), "remove {id}");
            assert!(!tree.remove(id), "double remove {id} must fail");
        }
        let ids = tree.entry_ids();
        assert_eq!(ids.len(), 32);
        for removed in [3usize, 17, 0, 39, 20, 21, 22, 23] {
            assert!(!ids.contains(&removed));
        }
        // Search still works and never returns removed entries.
        let q = Query::new(&raws[5], &Paa, 8).unwrap();
        let stats = tree.knn(&q, 6, scheme.as_ref(), &raws).unwrap();
        assert_eq!(stats.retrieved.len(), 6);
        for id in &stats.retrieved {
            assert!(ids.contains(id));
        }
    }

    #[test]
    fn remove_everything_leaves_an_empty_tree() {
        let raws = dataset(12, 32);
        let scheme = scheme_for("PAA").unwrap();
        let reps: Vec<Representation> = raws.iter().map(|s| Paa.reduce(s, 4).unwrap()).collect();
        let mut tree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        for id in 0..12 {
            assert!(tree.remove(id));
        }
        assert!(tree.entry_ids().is_empty());
        assert!(!tree.remove(0));
        assert!(!tree.remove(99));
        // And the tree accepts new inserts again.
        let rep = Paa.reduce(&raws[0], 4).unwrap();
        let id = tree.insert(scheme.as_ref(), rep).unwrap();
        assert_eq!(tree.entry_ids(), vec![id]);
    }

    #[test]
    fn knn_k_larger_than_db_returns_everything() {
        let raws = dataset(4, 32);
        let (tree, scheme) = build_paa(&raws, 4);
        let q = Query::new(&raws[0], &Paa, 4).unwrap();
        let stats = tree.knn(&q, 10, scheme.as_ref(), &raws).unwrap();
        assert_eq!(stats.retrieved.len(), 4);
    }
}
