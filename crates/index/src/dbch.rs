//! The DBCH-tree — Distance-Based Covering with Convex Hull
//! (Section 5.2–5.3 of the paper).
//!
//! Instead of an MBR, every node is bounded by the two member
//! representations with the **maximum `Dist_PAR`** (the "convex hull");
//! their distance is the node's *volume*. Node splitting picks those two
//! as seeds and assigns entries to the nearer seed; branch picking chooses
//! the child whose volume grows least; query filtering uses the hull
//! distances (Section 5.3). All of it runs on the representation distance
//! (`Dist_PAR` for adaptive methods), which is what fixes the APCA-MBR
//! overlap problem.
//!
//! Those three — the bound ([`Hull`] and its construction, `Hulls`), the
//! branch pick and the split — and the Section-5.3 query-to-node rule
//! are all this module holds. The hierarchy they are applied to is the
//! R-tree's, and it lives once, in [`crate::topology`]: a [`DbchTree`] is
//! a `Topology<Hull>` (nodes, ids, walks, condense-after-remove,
//! structural validation, snapshot adoption) plus the tree's
//! [`RepStore`] and its rule.

use sapla_core::{Error, Representation, Result, TimeSeries};

use crate::arena::RepStore;
use crate::knn::{HullMemo, KnnScratch, SearchStats};
use crate::scheme::{Query, Scheme};
use crate::stats::TreeShape;
use crate::topology::{NodeView, Topology};

/// How the query-to-node distance of Section 5.3 is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeDistRule {
    /// The paper's rule: zero when both hull distances are inside the
    /// volume, otherwise the smaller hull distance. Not guaranteed to
    /// lower-bound (the paper notes internal nodes lose the lemma).
    #[default]
    Paper,
    /// Triangle-inequality rule: `max(0, max(d_u, d_l) − volume)` — a true
    /// lower bound in the representation metric (ablation `ABL2`).
    Triangle,
}

/// A node's bound: the two member representations farthest apart.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hull {
    /// Entry id of one hull end ("upper bound" in the paper's wording).
    pub(crate) u: usize,
    /// Entry id of the other hull end ("lower bound").
    pub(crate) l: usize,
    /// `Dist_PAR(u, l)` — the node volume.
    pub(crate) volume: f64,
}

impl Hull {
    /// The hull of a node without members (an empty root leaf).
    const EMPTY: Hull = Hull { u: 0, l: 0, volume: 0.0 };
}

/// A DBCH-tree over reduced representations.
///
/// ```
/// use sapla_baselines::{Reducer, SaplaReducer};
/// use sapla_core::TimeSeries;
/// use sapla_index::{scheme_for, DbchTree, Query};
///
/// let series: Vec<TimeSeries> = (0..20)
///     .map(|i| TimeSeries::new((0..32).map(|t| ((t * (i + 2)) as f64 * 0.1).sin()).collect()).unwrap())
///     .collect();
/// let reducer = SaplaReducer::new();
/// let scheme = scheme_for("SAPLA")?;
/// let reps = series.iter().map(|s| reducer.reduce(s, 12)).collect::<Result<Vec<_>, _>>()?;
/// let tree = DbchTree::build(scheme.as_ref(), reps, 2, 5)?;
/// let q = Query::new(&series[5], &reducer, 12)?;
/// let knn = tree.knn(&q, 3, scheme.as_ref(), &series)?;
/// assert!(knn.retrieved.contains(&5));
/// assert!(knn.pruning_power() <= 1.0);
/// # Ok::<(), sapla_core::Error>(())
/// ```
pub struct DbchTree {
    /// Nodes, ids and fill factors; each node's bound is its [`Hull`].
    topology: Topology<Hull>,
    /// The indexed representations by entry id — what hull construction,
    /// hull bounds and the leaf filter read. Append-only: a removed
    /// entry stays behind as an unreferenced hole, so ids are stable.
    reps: RepStore,
    rule: NodeDistRule,
}

/// Hull construction over one tree's nodes and store — the DBCH-tree's
/// bound policy, borrowed apart from the tree so that
/// [`Topology::remove_entry`] can call it while it holds the nodes.
struct Hulls<'a> {
    topology: &'a Topology<Hull>,
    reps: &'a RepStore,
    scheme: &'a dyn Scheme,
}

impl Hulls<'_> {
    fn pair(&self, a: usize, b: usize) -> Result<f64> {
        self.scheme.pair_dist(self.reps.rep(a), self.reps.rep(b))
    }

    /// Hull of a leaf: the entry pair with maximum distance.
    fn of_entries(&self, entries: &[usize]) -> Result<Hull> {
        match *entries {
            [] => return Ok(Hull::EMPTY),
            [only] => return Ok(Hull { u: only, l: only, volume: 0.0 }),
            _ => {}
        }
        let mut best = Hull { u: entries[0], l: entries[1], volume: f64::NEG_INFINITY };
        for (i, &a) in entries.iter().enumerate() {
            for &b in &entries[i + 1..] {
                let d = self.pair(a, b)?;
                if d > best.volume {
                    best = Hull { u: a, l: b, volume: d };
                }
            }
        }
        Ok(best)
    }

    /// Hull of an internal node: the paper computes only pairs among the
    /// children's hull endpoints.
    fn of_children(&self, children: &[usize]) -> Result<Hull> {
        let mut candidates: Vec<usize> = Vec::with_capacity(2 * children.len());
        for &c in children {
            let h = self.topology.bound(c);
            candidates.push(h.u);
            if h.l != h.u {
                candidates.push(h.l);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        self.of_entries(&candidates)
    }

    /// Hull of `members`, the entries of a leaf or the children of an
    /// internal node.
    fn of_members(&self, is_leaf: bool, members: &[usize]) -> Result<Hull> {
        if is_leaf {
            self.of_entries(members)
        } else {
            self.of_children(members)
        }
    }

    /// Hull of node `nid` over its current members.
    fn of_node(&self, nid: usize) -> Result<Hull> {
        match self.topology.node_view(nid) {
            NodeView::Leaf(entries) => self.of_entries(entries),
            NodeView::Internal(children) => self.of_children(children),
        }
    }
}

impl DbchTree {
    /// Build by sequential insertion with the paper's node-distance rule.
    ///
    /// # Errors
    ///
    /// Propagates representation-distance failures from the scheme.
    pub fn build(
        scheme: &dyn Scheme,
        reps: Vec<Representation>,
        min_fill: usize,
        max_fill: usize,
    ) -> Result<DbchTree> {
        Self::build_with_rule(scheme, reps, min_fill, max_fill, NodeDistRule::Paper)
    }

    /// Build with an explicit node-distance rule.
    ///
    /// # Errors
    ///
    /// Propagates representation-distance failures from the scheme.
    pub fn build_with_rule(
        scheme: &dyn Scheme,
        reps: Vec<Representation>,
        min_fill: usize,
        max_fill: usize,
        rule: NodeDistRule,
    ) -> Result<DbchTree> {
        let mut tree = DbchTree {
            topology: Topology::new(min_fill, max_fill, Hull::EMPTY),
            reps: RepStore::from_reps(reps),
            rule,
        };
        for id in 0..tree.reps.len() {
            tree.insert_entry(id, scheme)?;
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
    /// Propagates representation-distance failures from the scheme.
    pub fn insert(&mut self, scheme: &dyn Scheme, rep: Representation) -> Result<usize> {
        let id = self.reps.len();
        self.reps.push(rep);
        self.insert_entry(id, scheme)?;
        Ok(id)
    }

    /// ε-range search: ids of all indexed series whose **exact** Euclidean
    /// distance to the query is at most `epsilon`, filtered through the
    /// Section-5.3 node distances and the representation distance.
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

    /// Remove entry `id` from the index (ids stay stable; underfull nodes
    /// are dissolved and their entries reinserted, hulls recomputed).
    ///
    /// Returns `Ok(false)` when `id` is not (or no longer) indexed.
    ///
    /// # Errors
    ///
    /// Propagates representation-distance failures during hull
    /// recomputation / reinsertion.
    pub fn remove(&mut self, scheme: &dyn Scheme, id: usize) -> Result<bool> {
        if id >= self.reps.len() {
            return Ok(false);
        }
        // A hull does not say which subtree holds an entry: every branch
        // is searched.
        let reps = &self.reps;
        let removed = self.topology.remove_entry(
            id,
            |_| true,
            |topology, nid| Hulls { topology, reps, scheme }.of_node(nid),
        )?;
        let Some(orphans) = removed else { return Ok(false) };
        for e in orphans {
            self.insert_entry(e, scheme)?;
        }
        Ok(true)
    }

    /// Ids currently stored in leaves (sorted).
    pub fn entry_ids(&self) -> Vec<usize> {
        self.topology.entry_ids()
    }

    /// Reassemble a tree from persisted parts without re-running the
    /// O(n log n) insertion build: `topology` has passed the structural
    /// adoption walk ([`Topology::adopt`]) and `reps` the store's
    /// validation ([`crate::arena::RepArena::adopt`]); what is left to
    /// check is the DBCH-tree's own — hull endpoints inside the store,
    /// volumes finite and non-negative. Semantic hull tightness is *not*
    /// re-derived here — a caller can run [`Self::validate`] on top.
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::CorruptIndex`] naming the violated invariant;
    /// never a panic.
    pub(crate) fn adopt(
        topology: Topology<Hull>,
        reps: RepStore,
        rule: NodeDistRule,
    ) -> Result<DbchTree> {
        for node in topology.nodes() {
            let h = node.bound;
            if h.u >= reps.len().max(1) || h.l >= reps.len().max(1) {
                return Err(corrupt("snapshot hull endpoint outside the rep arena"));
            }
            check_hull_volume(h.volume)?;
        }
        Ok(DbchTree { topology, reps, rule })
    }

    /// Full structural integrity check, for stress tests and post-reload
    /// verification. On top of the shared structural pass
    /// ([`Topology::check_structure`]: fill bounds, ids in range, every
    /// entry in one leaf only) it verifies of every reachable node that
    ///
    /// * its hull endpoints are members of its subtree and the stored
    ///   volume equals `Dist_PAR(u, l)` **bitwise**,
    /// * the volume equals a fresh recomputation over the node's current
    ///   membership (bitwise — hulls may not go stale).
    ///
    /// Both hull checks read the store the searches read — there is no
    /// second copy of a representation to compare it with (removed
    /// entries are holes: still in the store, referenced by no leaf).
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::CorruptIndex`] naming the first violated
    /// invariant; distance errors propagate unchanged.
    pub fn validate(&self, scheme: &dyn Scheme) -> Result<()> {
        self.topology.check_structure(self.reps.len())?;
        self.validate_hulls(self.topology.root(), &self.hulls(scheme), &mut Vec::new())
    }

    /// Hull legs of [`Self::validate`] for the subtree under `node`,
    /// whose entries are appended to `seen`. The structural pass has
    /// bounded the depth.
    fn validate_hulls(&self, node: usize, hulls: &Hulls<'_>, seen: &mut Vec<usize>) -> Result<()> {
        let h = *self.topology.bound(node);
        let before = seen.len();
        let fresh = match self.topology.node_view(node) {
            // Only the root may be empty, and an empty root has no hull.
            NodeView::Leaf([]) => return Ok(()),
            NodeView::Leaf(entries) => {
                seen.extend_from_slice(entries);
                hulls.of_entries(entries)?
            }
            NodeView::Internal(children) => {
                for &c in children {
                    self.validate_hulls(c, hulls, seen)?;
                }
                hulls.of_children(children)?
            }
        };
        if !seen[before..].contains(&h.u) || !seen[before..].contains(&h.l) {
            return Err(corrupt("hull endpoint is not an entry of the node's subtree"));
        }
        if hulls.pair(h.u, h.l)?.to_bits() != h.volume.to_bits() {
            return Err(corrupt("hull volume is not Dist(u, l)"));
        }
        if fresh.volume.to_bits() != h.volume.to_bits() {
            return Err(corrupt("stale hull volume"));
        }
        Ok(())
    }

    fn hulls<'a>(&'a self, scheme: &'a dyn Scheme) -> Hulls<'a> {
        Hulls { topology: &self.topology, reps: &self.reps, scheme }
    }

    fn insert_entry(&mut self, id: usize, scheme: &dyn Scheme) -> Result<()> {
        let root = self.topology.root();
        if let Some(sibling) = self.insert_rec(root, id, scheme)? {
            let hull = self.hulls(scheme).of_children(&[root, sibling])?;
            self.topology.grow_root(sibling, hull);
        }
        Ok(())
    }

    /// Recursive insert; returns the id of a new sibling if `node` split.
    fn insert_rec(&mut self, node: usize, id: usize, scheme: &dyn Scheme) -> Result<Option<usize>> {
        let pushed = match self.topology.node_view(node) {
            NodeView::Leaf(_) => Some(id),
            NodeView::Internal(children) => {
                // Branch picking: minimum volume increase (Section 5.3).
                let hulls = self.hulls(scheme);
                let mut best = (f64::INFINITY, f64::INFINITY, children[0]);
                for &c in children {
                    let h = *self.topology.bound(c);
                    let du = hulls.pair(id, h.u)?;
                    let dl = hulls.pair(id, h.l)?;
                    let new_vol = h.volume.max(du).max(dl);
                    let inc = new_vol - h.volume;
                    if (inc, h.volume) < (best.0, best.1) {
                        best = (inc, h.volume, c);
                    }
                }
                self.insert_rec(best.2, id, scheme)?
            }
        };
        if pushed.is_some_and(|member| self.topology.push_member(node, member)) {
            return self.split(node, scheme).map(Some);
        }
        *self.topology.bound_mut(node) = self.hulls(scheme).of_node(node)?;
        Ok(None)
    }

    /// Divide an overfull node (Section 5.3): the two members whose
    /// representatives — a leaf's entries themselves, an internal node's
    /// children by their hull end `u` — are farthest apart seed the two
    /// groups, every other member joins the nearer seed (`min_fill`
    /// honoured). Returns the new sibling's id.
    fn split(&mut self, node: usize, scheme: &dyn Scheme) -> Result<usize> {
        let hulls = self.hulls(scheme);
        let (is_leaf, members) = match self.topology.node_view(node) {
            NodeView::Leaf(entries) => (true, entries),
            NodeView::Internal(children) => (false, children),
        };
        let rep = |member: usize| if is_leaf { member } else { self.topology.bound(member).u };
        let mut seeds = (members[0], members[1]);
        let mut worst = f64::NEG_INFINITY;
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                let d = hulls.pair(rep(a), rep(b))?;
                if d > worst {
                    worst = d;
                    seeds = (a, b);
                }
            }
        }
        let mut ga = vec![seeds.0];
        let mut gb = vec![seeds.1];
        let min_fill = self.topology.min_fill();
        let rest: Vec<usize> =
            members.iter().copied().filter(|&m| m != seeds.0 && m != seeds.1).collect();
        let total = rest.len();
        for (done, m) in rest.into_iter().enumerate() {
            let remaining = total - done;
            if ga.len() + remaining <= min_fill {
                ga.push(m);
                continue;
            }
            if gb.len() + remaining <= min_fill {
                gb.push(m);
                continue;
            }
            let da = hulls.pair(rep(m), rep(seeds.0))?;
            let db = hulls.pair(rep(m), rep(seeds.1))?;
            if da <= db {
                ga.push(m);
            } else {
                gb.push(m);
            }
        }
        let ha = hulls.of_members(is_leaf, &ga)?;
        let hb = hulls.of_members(is_leaf, &gb)?;
        Ok(self.topology.split(node, (ga, ha), (gb, hb)))
    }

    /// Distance from the query to one hull representative, memoised per
    /// query: hull representatives recur across nodes (an internal
    /// hull's are drawn from its children's) and reappear as ordinary
    /// leaf entries, so the squared distance is cached on first
    /// evaluation and every re-use is `sq.sqrt()` — bitwise the fresh
    /// evaluation (see [`HullMemo`]).
    fn hull_rep_dist(
        &self,
        q: &Query,
        scheme: &dyn Scheme,
        entry: usize,
        memo: &mut HullMemo,
    ) -> Result<f64> {
        if let Some(sq) = memo.get(entry) {
            sapla_obs::counter!("index.hull_memo.hits");
            return Ok(sq.sqrt());
        }
        memo.count_eval();
        let (d, sq) = scheme.rep_dist_sq(q, self.reps.rep(entry))?;
        if let Some(sq) = sq {
            memo.insert(entry, sq);
        }
        Ok(d)
    }

    /// Best-first k-NN with exact refinement over `raws`.
    ///
    /// Nodes are visited in hull-distance order (Section 5.3); surviving
    /// leaf entries are filtered with the representation distance and
    /// fetched/measured exactly (one "disk access" each — the paper's
    /// pruning-power unit). Because hull distances separate far clusters
    /// even when their coefficient MBRs would overlap, whole leaves are
    /// skipped — the effect Fig. 13 quantifies.
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
        self.knn_with_scratch(q, k, scheme, raws, &mut KnnScratch::default())
    }

    /// [`DbchTree::knn`] reusing caller-owned buffers — same algorithm
    /// (the shared best-first driver in [`crate::batched`]), same results,
    /// the search state's allocations kept warm. Single-threaded callers
    /// looping over many queries benefit the way the parallel multi-query
    /// engine ([`crate::Engine::knn`]) does with its one scratch per
    /// worker.
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

/// The test every persisted hull volume passes: finite and non-negative.
/// [`DbchTree::adopt`] refuses an image whose volume fails it, and the
/// snapshot writer refuses, with the same error, to write one.
///
/// # Errors
///
/// [`sapla_core::Error::CorruptIndex`] for a NaN, infinite or negative
/// volume (a hull over samples near `f64::MAX` can overflow to `+∞`).
pub(crate) fn check_hull_volume(volume: f64) -> Result<()> {
    if !volume.is_finite() || volume < 0.0 {
        return Err(corrupt("snapshot hull volume is not a finite non-negative value"));
    }
    Ok(())
}

impl crate::batched::BatchTree for DbchTree {
    type Bound = Hull;

    fn topology(&self) -> &Topology<Hull> {
        &self.topology
    }
    fn reps(&self) -> &RepStore {
        &self.reps
    }
    /// Query-to-node distance (Section 5.3).
    fn node_bound(
        &self,
        q: &Query,
        scheme: &dyn Scheme,
        nid: usize,
        memo: &mut HullMemo,
    ) -> Result<f64> {
        let h = *self.topology.bound(nid);
        let du = self.hull_rep_dist(q, scheme, h.u, memo)?;
        let dl = self.hull_rep_dist(q, scheme, h.l, memo)?;
        Ok(match self.rule {
            NodeDistRule::Paper => {
                if du < h.volume && dl < h.volume {
                    0.0
                } else {
                    du.min(dl)
                }
            }
            NodeDistRule::Triangle => (du.max(dl) - h.volume).max(0.0),
        })
    }
    fn count_fanout(&self, depth: usize, children: usize) {
        let (_depth, _children) = (depth, children);
        sapla_obs::lane_counter!("index.knn.fanout", _depth, _children as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::scheme_for;
    use sapla_baselines::{Reducer, SaplaReducer};

    fn dataset(n_series: usize, len: usize) -> Vec<TimeSeries> {
        (0..n_series)
            .map(|i| {
                TimeSeries::new(
                    (0..len)
                        .map(|t| {
                            ((t + i * 11) as f64 * 0.17).sin() * (1.0 + (i % 5) as f64 * 0.2)
                                + (i as f64 * 0.61).sin() * 0.5
                        })
                        .collect(),
                )
                .unwrap()
                .znormalized()
            })
            .collect()
    }

    fn build_sapla(raws: &[TimeSeries], m: usize) -> (DbchTree, Box<dyn Scheme>) {
        let scheme = scheme_for("SAPLA").unwrap();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, m).unwrap()).collect();
        let tree = DbchTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        (tree, scheme)
    }

    #[test]
    fn shape_covers_all_entries() {
        let raws = dataset(60, 64);
        let (tree, _) = build_sapla(&raws, 12);
        let shape = tree.shape();
        assert_eq!(shape.entries, 60);
        assert!(shape.height >= 2);
    }

    #[test]
    fn validate_accepts_sound_trees_and_detects_planted_corruption() {
        let raws = dataset(40, 64);
        let (tree, scheme) = build_sapla(&raws, 12);
        tree.validate(scheme.as_ref()).unwrap();

        // Empty and singleton trees are sound too.
        let empty = DbchTree::build(scheme.as_ref(), vec![], 2, 5).unwrap();
        empty.validate(scheme.as_ref()).unwrap();
        let (single, scheme1) = build_sapla(&dataset(1, 64), 12);
        single.validate(scheme1.as_ref()).unwrap();

        // Plant a stale hull volume: validate must name it.
        let (mut bad, scheme) = build_sapla(&raws, 12);
        let leaves: Vec<usize> = (0..bad.topology.nodes().len())
            .filter(|&n| bad.topology.nodes()[n].is_leaf())
            .collect();
        assert!(leaves.len() >= 2);
        bad.topology.bound_mut(leaves[0]).volume += 1.0;
        match bad.validate(scheme.as_ref()).unwrap_err() {
            Error::CorruptIndex { reason } => assert!(reason.contains("hull"), "{reason}"),
            other => panic!("unexpected error: {other:?}"),
        }

        // Plant a duplicated entry id across two leaves.
        let (mut bad, scheme) = build_sapla(&raws, 12);
        let stolen = bad.topology.nodes()[leaves[0]].ids()[0];
        bad.topology.push_member(leaves[1], stolen);
        *bad.topology.bound_mut(leaves[1]) = bad.hulls(scheme.as_ref()).of_node(leaves[1]).unwrap();
        // Which invariant fires first depends on tree layout (the theft
        // can surface as a duplicate id, an overfull leaf, or a stale
        // ancestor hull) — any CorruptIndex is a successful detection.
        match bad.validate(scheme.as_ref()).unwrap_err() {
            Error::CorruptIndex { .. } => {}
            other => panic!("unexpected error: {other:?}"),
        }
    }

    /// The refactor's proof for the DBCH-tree: the exported node arena —
    /// ids, slot order, hulls, abandoned slots — after a build, a churn,
    /// a drain and a refill digests to the constants recorded on the tree
    /// as it was before `Topology` existed (PR 21's).
    #[test]
    fn built_and_churned_arenas_are_the_recorded_ones() {
        use crate::topology::tests::{digest, lcg, random_walks};

        let digest = |t: &DbchTree| {
            digest(&t.topology, |h| vec![h.u as u64, h.l as u64, h.volume.to_bits()])
        };
        let scheme = scheme_for("SAPLA").unwrap();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            random_walks(200, 64, 11).iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let mut tree = DbchTree::build(scheme.as_ref(), reps[..48].to_vec(), 2, 5).unwrap();
        assert_eq!(digest(&tree), 0x3593_133b_f970_63a6, "built");

        let mut state = 99u64;
        let mut next_rep = 48usize;
        for _ in 0..140 {
            let live = tree.entry_ids();
            if lcg(&mut state).is_multiple_of(2) && next_rep < reps.len() {
                tree.insert(scheme.as_ref(), reps[next_rep].clone()).unwrap();
                next_rep += 1;
            } else if !live.is_empty() {
                let id = live[lcg(&mut state) as usize % live.len()];
                assert!(tree.remove(scheme.as_ref(), id).unwrap());
            }
        }
        tree.validate(scheme.as_ref()).unwrap();
        assert_eq!((tree.entry_ids().len(), tree.shape().height), (56, 4));
        assert_eq!(digest(&tree), 0x9dbf_f862_6d06_eb2f, "churned");

        for id in tree.entry_ids() {
            assert!(tree.remove(scheme.as_ref(), id).unwrap());
        }
        tree.validate(scheme.as_ref()).unwrap();
        assert_eq!(digest(&tree), 0xdad0_d687_8540_2bc7, "drained");

        for rep in &reps[next_rep..next_rep + 12] {
            tree.insert(scheme.as_ref(), rep.clone()).unwrap();
        }
        tree.validate(scheme.as_ref()).unwrap();
        assert_eq!(digest(&tree), 0xa9b8_c566_beea_65c4, "refilled");
    }

    #[test]
    fn knn_finds_self_and_close_neighbours() {
        let raws = dataset(50, 64);
        let (tree, scheme) = build_sapla(&raws, 12);
        let reducer = SaplaReducer::new();
        let q = Query::new(&raws[7], &reducer, 12).unwrap();
        let stats = tree.knn(&q, 5, scheme.as_ref(), &raws).unwrap();
        assert_eq!(stats.retrieved.len(), 5);
        assert!(stats.retrieved.contains(&7));
        assert!(stats.distances[0] < 1e-9);
        assert!(stats.measured <= raws.len());
    }

    #[test]
    fn high_accuracy_against_exact_knn() {
        let raws = dataset(60, 64);
        let (tree, scheme) = build_sapla(&raws, 12);
        let reducer = SaplaReducer::new();
        let query = TimeSeries::new(
            (0..64).map(|t| (t as f64 * 0.18).sin() * 1.3 + 0.2).collect::<Vec<_>>(),
        )
        .unwrap()
        .znormalized();
        let q = Query::new(&query, &reducer, 12).unwrap();
        let stats = tree.knn(&q, 8, scheme.as_ref(), &raws).unwrap();
        let mut truth: Vec<(f64, usize)> =
            raws.iter().enumerate().map(|(i, s)| (query.euclidean(s).unwrap(), i)).collect();
        truth.sort_by(|a, b| a.0.total_cmp(&b.0));
        let expect: Vec<usize> = truth[..8].iter().map(|&(_, i)| i).collect();
        let acc = stats.accuracy(&expect);
        assert!(acc >= 0.5, "accuracy {acc} too low");
    }

    #[test]
    fn triangle_rule_never_misses_more_than_paper_rule_on_average() {
        let raws = dataset(40, 64);
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let paper =
            DbchTree::build_with_rule(scheme.as_ref(), reps.clone(), 2, 5, NodeDistRule::Paper)
                .unwrap();
        let tri =
            DbchTree::build_with_rule(scheme.as_ref(), reps, 2, 5, NodeDistRule::Triangle).unwrap();
        let (mut acc_p, mut acc_t) = (0.0, 0.0);
        for qi in 0..5 {
            let q = Query::new(&raws[qi], &reducer, 12).unwrap();
            let truth: Vec<usize> = {
                let mut d: Vec<(f64, usize)> = raws
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (raws[qi].euclidean(s).unwrap(), i))
                    .collect();
                d.sort_by(|a, b| a.0.total_cmp(&b.0));
                d[..4].iter().map(|&(_, i)| i).collect()
            };
            acc_p += paper.knn(&q, 4, scheme.as_ref(), &raws).unwrap().accuracy(&truth);
            acc_t += tri.knn(&q, 4, scheme.as_ref(), &raws).unwrap().accuracy(&truth);
        }
        // The triangle rule is conservative, so it cannot be (much) less
        // accurate; the paper rule prunes harder.
        assert!(acc_t + 1e-9 >= acc_p - 1.0, "tri {acc_t} vs paper {acc_p}");
        assert!(acc_t > 0.0 && acc_p > 0.0);
    }

    #[test]
    fn incremental_insert_equals_build_results() {
        let raws = dataset(25, 64);
        let scheme = scheme_for("SAPLA").unwrap();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let bulk = DbchTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
        let mut incr = DbchTree::build(scheme.as_ref(), vec![], 2, 5).unwrap();
        for rep in reps {
            incr.insert(scheme.as_ref(), rep).unwrap();
        }
        assert_eq!(incr.len(), bulk.len());
        let q = Query::new(&raws[1], &reducer, 12).unwrap();
        let a = bulk.knn(&q, 4, scheme.as_ref(), &raws).unwrap();
        let b = incr.knn(&q, 4, scheme.as_ref(), &raws).unwrap();
        assert_eq!(a.retrieved, b.retrieved);
    }

    #[test]
    fn range_search_returns_only_in_range_hits() {
        let raws = dataset(40, 64);
        let (tree, scheme) = build_sapla(&raws, 12);
        let reducer = SaplaReducer::new();
        let q = Query::new(&raws[3], &reducer, 12).unwrap();
        let eps = 4.0;
        let got = tree.range(&q, eps, scheme.as_ref(), &raws).unwrap();
        // Everything retrieved is truly within range, sorted, self found.
        assert!(got.retrieved.contains(&3));
        for (&id, &d) in got.retrieved.iter().zip(&got.distances) {
            assert!(d <= eps);
            assert!((raws[3].euclidean(&raws[id]).unwrap() - d).abs() < 1e-9);
        }
        assert!(got.distances.windows(2).all(|w| w[0] <= w[1]));
        // No false positives beyond the exact set (subset relation; the
        // conditional Dist_PAR bound may drop some true hits).
        let exact = crate::linear_scan::linear_scan_range(&raws[3], &raws, eps).unwrap();
        for id in &got.retrieved {
            assert!(exact.retrieved.contains(id));
        }
    }

    #[test]
    fn remove_keeps_search_consistent() {
        let raws = dataset(30, 64);
        let (mut tree, scheme) = build_sapla(&raws, 12);
        let reducer = SaplaReducer::new();
        for id in [0usize, 7, 15, 29, 16, 17] {
            assert!(tree.remove(scheme.as_ref(), id).unwrap(), "remove {id}");
            assert!(!tree.remove(scheme.as_ref(), id).unwrap(), "double remove {id}");
        }
        let ids = tree.entry_ids();
        assert_eq!(ids.len(), 24);
        let q = Query::new(&raws[3], &reducer, 12).unwrap();
        let stats = tree.knn(&q, 5, scheme.as_ref(), &raws).unwrap();
        assert_eq!(stats.retrieved.len(), 5);
        for id in &stats.retrieved {
            assert!(ids.contains(id), "returned removed id {id}");
        }
    }

    #[test]
    fn drain_and_refill() {
        let raws = dataset(10, 32);
        let (mut tree, scheme) = build_sapla(&raws, 6);
        for id in 0..10 {
            assert!(tree.remove(scheme.as_ref(), id).unwrap());
        }
        assert!(tree.entry_ids().is_empty());
        let reducer = SaplaReducer::new();
        let rep = reducer.reduce(&raws[2], 6).unwrap();
        let id = tree.insert(scheme.as_ref(), rep).unwrap();
        assert_eq!(tree.entry_ids(), vec![id]);
    }

    #[test]
    fn single_and_empty_edge_cases() {
        let raws = dataset(1, 32);
        let (tree, scheme) = build_sapla(&raws, 6);
        let reducer = SaplaReducer::new();
        let q = Query::new(&raws[0], &reducer, 6).unwrap();
        let stats = tree.knn(&q, 3, scheme.as_ref(), &raws).unwrap();
        assert_eq!(stats.retrieved, vec![0]);
        let empty = DbchTree::build(scheme.as_ref(), vec![], 2, 5).unwrap();
        assert!(empty.is_empty());
        let stats = empty.knn(&q, 3, scheme.as_ref(), &[]).unwrap();
        assert!(stats.retrieved.is_empty());
    }
}
