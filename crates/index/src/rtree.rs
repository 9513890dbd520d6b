//! The classic R-tree (Guttman, SIGMOD 1984) over per-method feature
//! MBRs — the baseline index the DBCH-tree is compared against.
//!
//! Node splitting uses Guttman's quadratic algorithm (minimum combined
//! dead area), branch picking the minimum area enlargement. k-NN search is
//! best-first (GEMINI): nodes are filtered with the scheme's MINDIST,
//! entries with the scheme's representation distance, and survivors are
//! refined against the raw series.

use sapla_core::{Representation, Result, TimeSeries};

use crate::arena::RepStore;
use crate::knn::{KnnScratch, SearchStats};
use crate::rect::HyperRect;
use crate::scheme::{Query, Scheme};
use crate::stats::TreeShape;

#[derive(Debug, Clone)]
enum NodeKind {
    /// Child node ids.
    Internal(Vec<usize>),
    /// Entry ids.
    Leaf(Vec<usize>),
}

#[derive(Debug, Clone)]
struct Node {
    rect: HyperRect,
    kind: NodeKind,
}

/// One node of an [`RTree`] in exported, layout-stable form — the unit
/// the snapshot writer persists and [`RTree::from_raw_parts`] consumes.
/// Node ids are positions in the exported arena, preserved verbatim so
/// a reloaded tree replays searches bit-for-bit.
#[derive(Debug, Clone)]
pub(crate) struct RawRtreeNode {
    /// Leaf (entry ids) or internal (child node ids)?
    pub is_leaf: bool,
    /// Children ids (internal) or entry ids (leaf).
    pub ids: Vec<usize>,
    /// Bounding rectangle, lower corner.
    pub rect_lo: Vec<f64>,
    /// Bounding rectangle, upper corner.
    pub rect_hi: Vec<f64>,
}

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
    min_fill: usize,
    max_fill: usize,
    root: usize,
    nodes: Vec<Node>,
    /// The indexed representations by entry id — what the leaf filter
    /// reads. Append-only: a removed entry stays behind as an
    /// unreferenced hole, so ids are stable.
    reps: RepStore,
    features: Vec<Vec<f64>>,
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
        assert!(min_fill >= 1 && max_fill >= 2 * min_fill, "invalid fill factors");
        let mut features = Vec::with_capacity(reps.len());
        for rep in &reps {
            features.push(scheme.feature(rep)?);
        }
        let mut tree = RTree {
            min_fill,
            max_fill,
            root: 0,
            nodes: vec![Node {
                rect: HyperRect { lo: vec![], hi: vec![] },
                kind: NodeKind::Leaf(vec![]),
            }],
            reps: RepStore::from_reps(reps),
            features,
        };
        for id in 0..tree.reps.len() {
            tree.insert_entry(id);
        }
        Ok(tree)
    }

    /// Bulk loading by sorted packing (a one-dimensional STR): entries are
    /// ordered by their first feature dimension and packed into full
    /// leaves, then each level is packed the same way. Produces fuller
    /// nodes and a shallower tree than sequential insertion — the
    /// bulk-ingest alternative the classic R-tree literature recommends.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures from the scheme.
    pub fn bulk_load_packed(
        scheme: &dyn Scheme,
        reps: Vec<Representation>,
        min_fill: usize,
        max_fill: usize,
    ) -> Result<RTree> {
        assert!(min_fill >= 1 && max_fill >= 2 * min_fill, "invalid fill factors");
        let mut features = Vec::with_capacity(reps.len());
        for rep in &reps {
            features.push(scheme.feature(rep)?);
        }
        let mut tree = RTree {
            min_fill,
            max_fill,
            root: 0,
            nodes: vec![Node {
                rect: HyperRect { lo: vec![], hi: vec![] },
                kind: NodeKind::Leaf(vec![]),
            }],
            reps: RepStore::from_reps(reps),
            features,
        };
        if tree.is_empty() {
            return Ok(tree);
        }
        tree.nodes.clear();

        // Pack entries into leaves, ordered by the first feature dim.
        let mut order: Vec<usize> = (0..tree.reps.len()).collect();
        order.sort_by(|&a, &b| {
            tree.features[a]
                .first()
                .copied()
                .unwrap_or(0.0)
                .total_cmp(&tree.features[b].first().copied().unwrap_or(0.0))
        });
        let mut level: Vec<usize> = Vec::new();
        for chunk in order.chunks(max_fill) {
            let mut rect = HyperRect::point(&tree.features[chunk[0]]);
            for &e in &chunk[1..] {
                rect.extend_point(&tree.features[e]);
            }
            tree.nodes.push(Node { rect, kind: NodeKind::Leaf(chunk.to_vec()) });
            level.push(tree.nodes.len() - 1);
        }
        // Pack internal levels until one root remains.
        while level.len() > 1 {
            level.sort_by(|&a, &b| {
                tree.nodes[a]
                    .rect
                    .lo
                    .first()
                    .copied()
                    .unwrap_or(0.0)
                    .total_cmp(&tree.nodes[b].rect.lo.first().copied().unwrap_or(0.0))
            });
            let mut next = Vec::with_capacity(level.len().div_ceil(max_fill));
            for chunk in level.chunks(max_fill) {
                let mut rect = tree.nodes[chunk[0]].rect.clone();
                for &c in &chunk[1..] {
                    rect.extend_rect(&tree.nodes[c].rect.clone());
                }
                tree.nodes.push(Node { rect, kind: NodeKind::Internal(chunk.to_vec()) });
                next.push(tree.nodes.len() - 1);
            }
            level = next;
        }
        tree.root = level[0];
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
        crate::batched::range_search(self, q, epsilon, scheme, raws)
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
        let mut orphans = Vec::new();
        let (found, root_empty) = self.remove_rec(self.root, id, &mut orphans);
        if !found {
            return false;
        }
        if root_empty {
            self.nodes[self.root].kind = NodeKind::Leaf(vec![]);
        }
        // Shrink a root that lost all but one child.
        loop {
            let next = match &self.nodes[self.root].kind {
                NodeKind::Internal(c) if c.len() == 1 => c[0],
                _ => break,
            };
            self.root = next;
        }
        for e in orphans {
            self.insert_entry(e);
        }
        true
    }

    /// Ids currently stored in leaves (sorted).
    pub fn entry_ids(&self) -> Vec<usize> {
        let mut out = self.leaf_walk();
        out.sort_unstable();
        out
    }

    fn collect_entries(&self, node: usize, out: &mut Vec<usize>) {
        match &self.nodes[node].kind {
            NodeKind::Internal(children) => {
                for &c in children {
                    self.collect_entries(c, out);
                }
            }
            NodeKind::Leaf(entries) => out.extend_from_slice(entries),
        }
    }

    /// Root node id, for the snapshot writer.
    pub(crate) fn root_id(&self) -> usize {
        self.root
    }

    /// The extracted feature vectors, by entry id, for the snapshot
    /// writer (persisted so a load skips re-extraction).
    pub(crate) fn feature_vectors(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// Export the node arena verbatim — same slot order, same ids — so a
    /// tree reconstructed from the export replays best-first searches
    /// bit-for-bit (the traversal heap tie-breaks on node id).
    pub(crate) fn raw_nodes(&self) -> Vec<RawRtreeNode> {
        self.nodes
            .iter()
            .map(|n| {
                let (is_leaf, ids) = match &n.kind {
                    NodeKind::Internal(c) => (false, c.clone()),
                    NodeKind::Leaf(e) => (true, e.clone()),
                };
                RawRtreeNode {
                    is_leaf,
                    ids,
                    rect_lo: n.rect.lo.clone(),
                    rect_hi: n.rect.hi.clone(),
                }
            })
            .collect()
    }

    /// Reassemble a tree from persisted parts without re-running the
    /// insertion build *or* feature extraction: nodes, rectangles and
    /// feature vectors are adopted verbatim after a structural walk, and
    /// `reps` — which the caller has already validated
    /// ([`crate::arena::RepArena::adopt`]) — becomes the tree's store as
    /// it is. Every malformed input is an `Err`, never a panic.
    ///
    /// Validated here: fill-factor sanity, root in range, the graph
    /// under `root` is a tree covering the whole arena, internal fanout
    /// non-empty, leaf entry ids unique / in range / covering `reps`
    /// exactly, one feature vector per rep, and rectangles with matched
    /// lo/hi arity, finite bounds and `lo ≤ hi` per dimension. MINDIST
    /// containment of the stored rects is *not* re-derived — the
    /// proptest suite pins loaded answers to freshly-built ones instead.
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::CorruptIndex`] naming the violated invariant.
    pub(crate) fn from_raw_parts(
        min_fill: usize,
        max_fill: usize,
        root: usize,
        raw: Vec<RawRtreeNode>,
        reps: RepStore,
        features: Vec<Vec<f64>>,
    ) -> Result<RTree> {
        fn corrupt(reason: &'static str) -> sapla_core::Error {
            sapla_core::Error::CorruptIndex { reason }
        }
        if min_fill < 1 || max_fill < 2 * min_fill {
            return Err(corrupt("snapshot fill factors violate min/max constraints"));
        }
        if features.len() != reps.len() {
            return Err(corrupt("snapshot feature arena does not match the rep arena"));
        }
        if root >= raw.len() {
            return Err(corrupt("snapshot root id outside the node arena"));
        }
        let mut visited = vec![false; raw.len()];
        let mut seen_entry = vec![false; reps.len()];
        let mut n_entries = 0usize;
        // Iterative walk (adversarial inputs could nest deeper than the
        // call stack tolerates).
        let mut stack = vec![root];
        while let Some(nid) = stack.pop() {
            let node =
                raw.get(nid).ok_or_else(|| corrupt("snapshot child id outside the node arena"))?;
            if std::mem::replace(&mut visited[nid], true) {
                return Err(corrupt("snapshot node arena contains a cycle or shared child"));
            }
            if node.rect_lo.len() != node.rect_hi.len() {
                return Err(corrupt("snapshot rectangle lo/hi arity mismatch"));
            }
            for (&lo, &hi) in node.rect_lo.iter().zip(&node.rect_hi) {
                if !lo.is_finite() || !hi.is_finite() || lo > hi {
                    return Err(corrupt("snapshot rectangle bounds are inverted or non-finite"));
                }
            }
            if node.is_leaf {
                for &e in &node.ids {
                    if e >= reps.len() {
                        return Err(corrupt("snapshot leaf entry outside the rep arena"));
                    }
                    if std::mem::replace(&mut seen_entry[e], true) {
                        return Err(corrupt("snapshot entry id stored in more than one leaf"));
                    }
                    n_entries += 1;
                }
            } else {
                if node.ids.is_empty() {
                    return Err(corrupt("snapshot internal node has no children"));
                }
                stack.extend(node.ids.iter().copied());
            }
        }
        if visited.iter().any(|v| !v) {
            return Err(corrupt("snapshot node arena contains detached nodes"));
        }
        if n_entries != reps.len() {
            return Err(corrupt("snapshot leaves do not cover the rep arena exactly"));
        }
        let nodes = raw
            .into_iter()
            .map(|n| Node {
                rect: HyperRect { lo: n.rect_lo, hi: n.rect_hi },
                kind: if n.is_leaf { NodeKind::Leaf(n.ids) } else { NodeKind::Internal(n.ids) },
            })
            .collect::<Vec<_>>();
        Ok(RTree { min_fill, max_fill, root, nodes, reps, features })
    }

    /// Structural integrity check, for stress tests and post-reload
    /// verification. Walks every reachable node and verifies:
    ///
    /// * fill bounds (`min_fill ≤ |node| ≤ max_fill`, root exempt below),
    /// * every entry id is unique and within the rep arena,
    /// * each node's rectangle covers its children's rectangles / its
    ///   entries' feature points (what MINDIST pruning relies on),
    /// * there is one feature vector per entry id (removed entries are
    ///   holes: still in the store, referenced by no leaf).
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::CorruptIndex`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<()> {
        fn corrupt(reason: &'static str) -> sapla_core::Error {
            sapla_core::Error::CorruptIndex { reason }
        }
        fn covers(outer: &HyperRect, inner: &HyperRect) -> bool {
            outer.dims() == inner.dims()
                && outer.lo.iter().zip(&inner.lo).all(|(o, i)| o <= i)
                && outer.hi.iter().zip(&inner.hi).all(|(o, i)| o >= i)
        }
        if self.features.len() != self.reps.len() {
            return Err(corrupt("feature arena does not cover the entry ids"));
        }
        let mut seen = vec![false; self.reps.len()];
        let mut stack = vec![self.root];
        while let Some(nid) = stack.pop() {
            let node = self.nodes.get(nid).ok_or_else(|| corrupt("child id outside the arena"))?;
            let (len, is_leaf) = match &node.kind {
                NodeKind::Internal(c) => (c.len(), false),
                NodeKind::Leaf(e) => (e.len(), true),
            };
            let is_root = nid == self.root;
            if len > self.max_fill {
                return Err(corrupt("overfull node"));
            }
            if !is_root && len < self.min_fill {
                return Err(corrupt("underfull non-root node"));
            }
            if len == 0 && !(is_root && is_leaf) {
                return Err(corrupt("empty node below the root"));
            }
            match &node.kind {
                NodeKind::Internal(children) => {
                    if is_root && children.len() < 2 {
                        return Err(corrupt("internal root not collapsed to its only child"));
                    }
                    for &c in children {
                        let child = self
                            .nodes
                            .get(c)
                            .ok_or_else(|| corrupt("child id outside the arena"))?;
                        if !covers(&node.rect, &child.rect) {
                            return Err(corrupt("node rectangle does not cover a child"));
                        }
                    }
                    stack.extend_from_slice(children);
                }
                NodeKind::Leaf(entries) => {
                    for &e in entries {
                        if e >= self.reps.len() {
                            return Err(corrupt("leaf entry outside the rep arena"));
                        }
                        if std::mem::replace(&mut seen[e], true) {
                            return Err(corrupt("entry id stored in more than one leaf"));
                        }
                        if !covers(&node.rect, &self.entry_rect(e)) {
                            return Err(corrupt("leaf rectangle does not cover an entry"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Returns `(found, this node should be detached)`.
    fn remove_rec(&mut self, node: usize, id: usize, orphans: &mut Vec<usize>) -> (bool, bool) {
        match &self.nodes[node].kind {
            NodeKind::Leaf(entries) => {
                let Some(pos) = entries.iter().position(|&e| e == id) else {
                    return (false, false);
                };
                let is_root = node == self.root;
                let mut detach = false;
                if let NodeKind::Leaf(entries) = &mut self.nodes[node].kind {
                    entries.remove(pos);
                    if entries.is_empty() {
                        detach = true;
                    } else if entries.len() < self.min_fill && !is_root {
                        orphans.append(entries);
                        detach = true;
                    }
                }
                if detach {
                    return (true, true);
                }
                self.recompute_rect(node);
                (true, false)
            }
            NodeKind::Internal(children) => {
                let children = children.clone();
                for (idx, &c) in children.iter().enumerate() {
                    // Only descend where the entry's point can live.
                    if self.nodes[c].rect.min_sq_dist_point(&self.features[id]) > 0.0 {
                        continue;
                    }
                    let (found, detach) = self.remove_rec(c, id, orphans);
                    if !found {
                        continue;
                    }
                    let is_root = node == self.root;
                    let mut dissolved = false;
                    if let NodeKind::Internal(kids) = &mut self.nodes[node].kind {
                        if detach {
                            kids.remove(idx);
                        }
                        if kids.is_empty() {
                            return (true, true);
                        }
                        if kids.len() < self.min_fill && !is_root {
                            dissolved = true;
                        }
                    }
                    if dissolved {
                        let kids = match &self.nodes[node].kind {
                            NodeKind::Internal(k) => k.clone(),
                            NodeKind::Leaf(_) => unreachable!(),
                        };
                        for k in kids {
                            self.collect_entries(k, orphans);
                        }
                        return (true, true);
                    }
                    self.recompute_rect(node);
                    return (true, false);
                }
                (false, false)
            }
        }
    }

    fn entry_rect(&self, id: usize) -> HyperRect {
        HyperRect::point(&self.features[id])
    }

    fn insert_entry(&mut self, id: usize) {
        let rect = self.entry_rect(id);
        if let NodeKind::Leaf(entries) = &self.nodes[self.root].kind {
            if entries.is_empty() {
                self.nodes[self.root].rect = rect;
                if let NodeKind::Leaf(entries) = &mut self.nodes[self.root].kind {
                    entries.push(id);
                }
                return;
            }
        }
        if let Some(sibling) = self.insert_rec(self.root, id, &rect) {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            let new_rect = self.nodes[old_root].rect.union(&self.nodes[sibling].rect);
            self.nodes
                .push(Node { rect: new_rect, kind: NodeKind::Internal(vec![old_root, sibling]) });
            self.root = self.nodes.len() - 1;
        }
    }

    /// Recursive insert; returns the id of a new sibling if `node` split.
    fn insert_rec(&mut self, node: usize, id: usize, rect: &HyperRect) -> Option<usize> {
        self.nodes[node].rect.extend_rect(rect);
        match &self.nodes[node].kind {
            NodeKind::Leaf(_) => {
                if let NodeKind::Leaf(entries) = &mut self.nodes[node].kind {
                    entries.push(id);
                }
                (self.leaf_len(node) > self.max_fill).then(|| self.split_leaf(node))
            }
            NodeKind::Internal(children) => {
                // Guttman: child whose rect needs least enlargement
                // (ties: smallest area).
                let mut best = (f64::INFINITY, f64::INFINITY, children[0]);
                for &c in children {
                    let enl = self.nodes[c].rect.enlargement(rect);
                    let area = self.nodes[c].rect.area();
                    if (enl, area) < (best.0, best.1) {
                        best = (enl, area, c);
                    }
                }
                let child = best.2;
                let sibling = self.insert_rec(child, id, rect)?;
                if let NodeKind::Internal(children) = &mut self.nodes[node].kind {
                    children.push(sibling);
                }
                self.recompute_rect(node);
                (self.internal_len(node) > self.max_fill).then(|| self.split_internal(node))
            }
        }
    }

    fn leaf_len(&self, node: usize) -> usize {
        match &self.nodes[node].kind {
            NodeKind::Leaf(e) => e.len(),
            NodeKind::Internal(_) => unreachable!("leaf_len on internal node"),
        }
    }

    fn internal_len(&self, node: usize) -> usize {
        match &self.nodes[node].kind {
            NodeKind::Internal(c) => c.len(),
            NodeKind::Leaf(_) => unreachable!("internal_len on leaf node"),
        }
    }

    fn recompute_rect(&mut self, node: usize) {
        // Option-accumulator folds: nodes are never empty here (splits
        // and condenses keep ≥ min_fill members), but an empty node
        // degrades to keeping its stale rect rather than panicking.
        let rect = match &self.nodes[node].kind {
            NodeKind::Internal(children) => {
                let mut rect: Option<HyperRect> = None;
                for &c in children {
                    match &mut rect {
                        Some(r) => r.extend_rect(&self.nodes[c].rect),
                        None => rect = Some(self.nodes[c].rect.clone()),
                    }
                }
                rect
            }
            NodeKind::Leaf(entries) => {
                let mut rect: Option<HyperRect> = None;
                for &e in entries {
                    match &mut rect {
                        Some(r) => r.extend_point(&self.features[e]),
                        None => rect = Some(self.entry_rect(e)),
                    }
                }
                rect
            }
        };
        let Some(rect) = rect else { return };
        self.nodes[node].rect = rect;
    }

    fn split_leaf(&mut self, node: usize) -> usize {
        let entries = match &mut self.nodes[node].kind {
            NodeKind::Leaf(e) => std::mem::take(e),
            NodeKind::Internal(_) => unreachable!(),
        };
        let rects: Vec<HyperRect> = entries.iter().map(|&e| self.entry_rect(e)).collect();
        let (ga, gb) = quadratic_split(&rects, self.min_fill);
        let keep: Vec<usize> = ga.iter().map(|&i| entries[i]).collect();
        let give: Vec<usize> = gb.iter().map(|&i| entries[i]).collect();
        self.nodes[node].kind = NodeKind::Leaf(keep);
        self.recompute_rect(node);
        self.nodes.push(Node {
            rect: HyperRect::point(&self.features[give[0]]),
            kind: NodeKind::Leaf(give),
        });
        let sib = self.nodes.len() - 1;
        self.recompute_rect(sib);
        sib
    }

    fn split_internal(&mut self, node: usize) -> usize {
        let children = match &mut self.nodes[node].kind {
            NodeKind::Internal(c) => std::mem::take(c),
            NodeKind::Leaf(_) => unreachable!(),
        };
        let rects: Vec<HyperRect> = children.iter().map(|&c| self.nodes[c].rect.clone()).collect();
        let (ga, gb) = quadratic_split(&rects, self.min_fill);
        let keep: Vec<usize> = ga.iter().map(|&i| children[i]).collect();
        let give: Vec<usize> = gb.iter().map(|&i| children[i]).collect();
        self.nodes[node].kind = NodeKind::Internal(keep);
        self.recompute_rect(node);
        let rect = self.nodes[give[0]].rect.clone();
        self.nodes.push(Node { rect, kind: NodeKind::Internal(give) });
        let sib = self.nodes.len() - 1;
        self.recompute_rect(sib);
        sib
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

    /// [`RTree::knn`] with caller-owned scratch buffers — a block of one
    /// through the shared driver in [`crate::batched`], the search
    /// state's allocations kept warm. Results are identical to
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
        crate::batched::knn_single(self, q, k, scheme, raws, scratch)
    }

    /// Entry ids in leaf-walk order (depth-first, children and entries
    /// in stored order) — the order an engine shard lays its raw series
    /// out in.
    pub(crate) fn leaf_walk(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.reps.len());
        self.collect_entries(self.root, &mut out);
        out
    }

    /// Structural statistics (Figs. 15–16).
    pub fn shape(&self) -> TreeShape {
        let mut shape = TreeShape::default();
        self.walk(self.root, 1, &mut shape);
        shape
    }
}

impl crate::batched::BatchTree for RTree {
    fn root(&self) -> usize {
        self.root
    }
    fn is_empty(&self) -> bool {
        RTree::is_empty(self)
    }
    fn reps(&self) -> &RepStore {
        &self.reps
    }
    fn node_view(&self, nid: usize) -> crate::batched::NodeView<'_> {
        match &self.nodes[nid].kind {
            NodeKind::Internal(c) => crate::batched::NodeView::Internal(c),
            NodeKind::Leaf(e) => crate::batched::NodeView::Leaf(e),
        }
    }
    fn node_bound(
        &self,
        q: &Query,
        scheme: &dyn Scheme,
        nid: usize,
        _dist: &mut sapla_distance::ParScratch,
        // MINDIST bounds come from rectangles, not entry distances —
        // nothing to memoise; the memo stays empty and the leaf filter
        // always takes the stock evaluation.
        _memo: &mut crate::knn::HullMemo,
    ) -> Result<f64> {
        scheme.mindist(q, &self.nodes[nid].rect)
    }
}

impl RTree {
    fn walk(&self, node: usize, depth: usize, shape: &mut TreeShape) {
        shape.height = shape.height.max(depth);
        match &self.nodes[node].kind {
            NodeKind::Internal(children) => {
                shape.internal_nodes += 1;
                for &c in children {
                    self.walk(c, depth + 1, shape);
                }
            }
            NodeKind::Leaf(entries) => {
                shape.leaf_nodes += 1;
                shape.entries += entries.len();
            }
        }
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

    #[test]
    fn packed_bulk_load_is_denser_and_still_exact() {
        let raws = dataset(60, 64);
        let scheme = scheme_for("PAA").unwrap();
        let reps: Vec<Representation> = raws.iter().map(|s| Paa.reduce(s, 8).unwrap()).collect();
        let seq = RTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
        let packed = RTree::bulk_load_packed(scheme.as_ref(), reps, 2, 5).unwrap();
        assert_eq!(packed.shape().entries, 60);
        assert!(
            packed.shape().total_nodes() <= seq.shape().total_nodes(),
            "packed {} vs sequential {}",
            packed.shape().total_nodes(),
            seq.shape().total_nodes()
        );
        assert!(packed.shape().avg_leaf_fill() >= seq.shape().avg_leaf_fill() - 1e-9);
        // Exactness is preserved (PAA bounds are true lower bounds).
        let q = Query::new(&raws[11], &Paa, 8).unwrap();
        let a = packed.knn(&q, 5, scheme.as_ref(), &raws).unwrap();
        let b = seq.knn(&q, 5, scheme.as_ref(), &raws).unwrap();
        assert_eq!(a.retrieved, b.retrieved);
    }

    #[test]
    fn packed_bulk_load_handles_empty_and_tiny() {
        let scheme = scheme_for("PAA").unwrap();
        let empty = RTree::bulk_load_packed(scheme.as_ref(), vec![], 2, 5).unwrap();
        assert!(empty.is_empty());
        let raws = dataset(3, 32);
        let reps: Vec<Representation> = raws.iter().map(|s| Paa.reduce(s, 4).unwrap()).collect();
        let t = RTree::bulk_load_packed(scheme.as_ref(), reps, 2, 5).unwrap();
        assert_eq!(t.shape().entries, 3);
        assert_eq!(t.shape().height, 1);
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
