//! The one owner of tree *shape*: the node arena, the root, the fill
//! factors and every id in them — shared by the DBCH-tree
//! ([`crate::dbch`], `Topology<Hull>`) and the R-tree ([`crate::rtree`],
//! `Topology<HyperRect>`).
//!
//! The paper's DBCH-tree is the R-tree's hierarchy with three things
//! swapped: the bounding volume, branch picking and the split. Everything
//! that is *not* swapped lives here, once: a node is `Internal(children)`
//! or `Leaf(entries)` together with its bound `B` (one push creates both,
//! there is no second array to keep in step), and this module alone
//! hands out node ids, walks the hierarchy ([`Topology::node_view`],
//! [`Topology::leaf_walk`], [`Topology::shape`]), splits and grows it
//! ([`Topology::split`], [`Topology::grow_root`]), condenses it after a
//! removal ([`Topology::remove_entry`]), checks it
//! ([`Topology::check_structure`]) and adopts it from a snapshot
//! ([`Topology::adopt`]). A tree supplies only policy: which child to
//! descend into, how to divide an overfull node, and what bounds a set of
//! members — [`Topology::remove_entry`] takes the last as a hook, the
//! insert paths of the two trees call the primitives directly.
//!
//! **Ids are part of the answers.** The search frontier tie-breaks on
//! node id and an engine shard lays its raw series out in leaf-walk
//! order, so the assignment is fixed: the tree starts as one empty leaf
//! in slot 0, a split keeps the node's slot and appends its sibling, a
//! root split appends the new root, a condensed node's slot is abandoned
//! (never reused). [`Topology::nodes`] exports the arena in slot order and
//! [`Topology::adopt`] takes it back verbatim, so a reloaded tree replays
//! a built one's searches bit for bit.

use sapla_core::{Error, Result};

use crate::stats::TreeShape;

fn corrupt(reason: &'static str) -> Error {
    Error::CorruptIndex { reason }
}

#[derive(Debug, Clone)]
enum NodeKind {
    /// Child node ids.
    Internal(Vec<usize>),
    /// Entry ids.
    Leaf(Vec<usize>),
}

/// One slot of the node arena: what the node holds and what bounds it.
/// Also the exported form — the snapshot writer reads these and the
/// loader builds them.
#[derive(Debug, Clone)]
pub(crate) struct Node<B> {
    /// The node's bounding volume (a hull, a rectangle).
    pub(crate) bound: B,
    kind: NodeKind,
}

impl<B> Node<B> {
    /// A leaf over entry `ids`, or an internal node over child `ids`.
    pub(crate) fn new(is_leaf: bool, ids: Vec<usize>, bound: B) -> Self {
        Node { bound, kind: if is_leaf { NodeKind::Leaf(ids) } else { NodeKind::Internal(ids) } }
    }

    /// Leaf (entry ids) or internal (child node ids)?
    pub(crate) fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf(_))
    }

    /// Entry ids of a leaf, child node ids of an internal node.
    pub(crate) fn ids(&self) -> &[usize] {
        match &self.kind {
            NodeKind::Internal(ids) | NodeKind::Leaf(ids) => ids,
        }
    }

    fn ids_mut(&mut self) -> &mut Vec<usize> {
        match &mut self.kind {
            NodeKind::Internal(ids) | NodeKind::Leaf(ids) => ids,
        }
    }
}

/// One node as a reader sees it.
pub(crate) enum NodeView<'a> {
    /// Child node ids.
    Internal(&'a [usize]),
    /// Entry ids held by a leaf.
    Leaf(&'a [usize]),
}

/// A node arena without its bounds: what code that walks either kind of
/// tree and reads no bound takes (the envelope fold of
/// [`crate::envelope`]).
pub(crate) trait Hierarchy {
    /// Root node id.
    fn root(&self) -> usize;
    /// Slots in the node arena, condensed-away ones included.
    fn slots(&self) -> usize;
    /// Children of an internal node / entries of a leaf.
    fn node_view(&self, nid: usize) -> NodeView<'_>;
}

impl<B> Hierarchy for Topology<B> {
    fn root(&self) -> usize {
        self.root
    }
    fn slots(&self) -> usize {
        self.nodes.len()
    }
    fn node_view(&self, nid: usize) -> NodeView<'_> {
        Topology::node_view(self, nid)
    }
}

/// Node arena + root + fill factors of one tree (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Topology<B> {
    min_fill: usize,
    max_fill: usize,
    root: usize,
    nodes: Vec<Node<B>>,
}

/// The structural walk under `root` that [`Topology::adopt`] and
/// [`Topology::check_structure`] share: every child id inside the arena,
/// no node reached twice (no cycle, no shared child), no internal node
/// without children, every leaf entry below `n_entries` and in one leaf
/// only. `check` sees each reached node once. Returns which slots were
/// reached and how many entries the leaves hold. Iterative — a hostile
/// arena could nest deeper than the call stack tolerates.
fn walk<B>(
    nodes: &[Node<B>],
    root: usize,
    n_entries: usize,
    mut check: impl FnMut(usize, &Node<B>) -> Result<()>,
) -> Result<(Vec<bool>, usize)> {
    if root >= nodes.len() {
        return Err(corrupt("root id outside the node arena"));
    }
    let mut reached = vec![false; nodes.len()];
    let mut seen_entry = vec![false; n_entries];
    let mut held = 0usize;
    let mut stack = vec![root];
    while let Some(nid) = stack.pop() {
        let node = nodes.get(nid).ok_or_else(|| corrupt("child id outside the node arena"))?;
        if std::mem::replace(&mut reached[nid], true) {
            return Err(corrupt("node arena contains a cycle or shared child"));
        }
        check(nid, node)?;
        match &node.kind {
            NodeKind::Internal(children) => {
                if children.is_empty() {
                    return Err(corrupt("internal node without children"));
                }
                stack.extend_from_slice(children);
            }
            NodeKind::Leaf(entries) => {
                for &e in entries {
                    let seen = seen_entry
                        .get_mut(e)
                        .ok_or_else(|| corrupt("leaf entry outside the rep arena"))?;
                    if std::mem::replace(seen, true) {
                        return Err(corrupt("entry id stored in more than one leaf"));
                    }
                }
                held += entries.len();
            }
        }
    }
    Ok((reached, held))
}

impl<B> Topology<B> {
    /// An empty tree: one empty leaf, the root, in slot 0 under `bound`.
    ///
    /// # Panics
    ///
    /// When the fill factors violate `1 ≤ min_fill`, `2·min_fill ≤
    /// max_fill` (a programming error, as in both trees' `build`).
    pub(crate) fn new(min_fill: usize, max_fill: usize, bound: B) -> Self {
        assert!(min_fill >= 1 && max_fill >= 2 * min_fill, "invalid fill factors");
        Topology { min_fill, max_fill, root: 0, nodes: vec![Node::new(true, vec![], bound)] }
    }

    /// Take an exported arena back, slot for slot, after the structural
    /// walk: fill factors sane, `root` and every child id inside the
    /// arena, the graph under `root` a tree (no node reached twice) that
    /// covers the whole arena (no detached slot), no internal node
    /// without children, and the leaves holding each of the store's
    /// `n_entries` ids exactly once. Fill *levels* are not checked — a
    /// sparse tree searches correctly. What a bound must satisfy is the
    /// adopting tree's business.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptIndex`] naming the violated invariant; never a
    /// panic.
    pub(crate) fn adopt(
        min_fill: usize,
        max_fill: usize,
        root: usize,
        nodes: Vec<Node<B>>,
        n_entries: usize,
    ) -> Result<Self> {
        if min_fill < 1 || max_fill < 2 * min_fill {
            return Err(corrupt("fill factors violate min/max constraints"));
        }
        let (reached, held) = walk(&nodes, root, n_entries, |_, _| Ok(()))?;
        if reached.iter().any(|r| !r) {
            return Err(corrupt("node arena contains detached nodes"));
        }
        if held != n_entries {
            return Err(corrupt("leaves do not cover the rep arena exactly"));
        }
        Ok(Topology { min_fill, max_fill, root, nodes })
    }

    /// Minimum node fill (the root is exempt).
    pub(crate) fn min_fill(&self) -> usize {
        self.min_fill
    }

    /// Root node id.
    pub(crate) fn root(&self) -> usize {
        self.root
    }

    /// The node arena in slot order — the export the snapshot writer
    /// persists (condensed-away slots included, as they lie).
    pub(crate) fn nodes(&self) -> &[Node<B>] {
        &self.nodes
    }

    /// Bound of node `nid`.
    pub(crate) fn bound(&self, nid: usize) -> &B {
        &self.nodes[nid].bound
    }

    /// Bound of node `nid`, to replace or grow in place.
    pub(crate) fn bound_mut(&mut self, nid: usize) -> &mut B {
        &mut self.nodes[nid].bound
    }

    /// Children of an internal node / entries of a leaf.
    pub(crate) fn node_view(&self, nid: usize) -> NodeView<'_> {
        match &self.nodes[nid].kind {
            NodeKind::Internal(c) => NodeView::Internal(c),
            NodeKind::Leaf(e) => NodeView::Leaf(e),
        }
    }

    /// Entry ids in leaf-walk order (depth-first, children and entries in
    /// stored order) — the order an engine shard lays its raw series out
    /// in.
    pub(crate) fn leaf_walk(&self) -> Vec<usize> {
        // Sized once (abandoned slots hold next to nothing): a doubling
        // vector's cast-off blocks change what a load leaves on the heap.
        let held = self.nodes.iter().filter(|n| n.is_leaf()).map(|n| n.ids().len()).sum();
        let mut out = Vec::with_capacity(held);
        self.collect_entries(self.root, &mut out);
        out
    }

    /// Ids currently stored in leaves, sorted.
    pub(crate) fn entry_ids(&self) -> Vec<usize> {
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

    /// Structural statistics (Figs. 15–16).
    pub(crate) fn shape(&self) -> TreeShape {
        let mut shape = TreeShape::default();
        let mut stack = vec![(self.root, 1usize)];
        while let Some((nid, depth)) = stack.pop() {
            shape.height = shape.height.max(depth);
            match &self.nodes[nid].kind {
                NodeKind::Internal(children) => {
                    shape.internal_nodes += 1;
                    stack.extend(children.iter().map(|&c| (c, depth + 1)));
                }
                NodeKind::Leaf(entries) => {
                    shape.leaf_nodes += 1;
                    shape.entries += entries.len();
                }
            }
        }
        shape
    }

    /// Append `id` to node `nid` — an entry to a leaf, a child to an
    /// internal node — and say whether the node is now overfull and must
    /// be [`Topology::split`].
    pub(crate) fn push_member(&mut self, nid: usize, id: usize) -> bool {
        let ids = self.nodes[nid].ids_mut();
        ids.push(id);
        ids.len() > self.max_fill
    }

    /// Divide node `nid`: it keeps its slot with `keep`, a new sibling of
    /// the same kind is appended with `give`. Returns the sibling's id.
    pub(crate) fn split(
        &mut self,
        nid: usize,
        keep: (Vec<usize>, B),
        give: (Vec<usize>, B),
    ) -> usize {
        let is_leaf = self.nodes[nid].is_leaf();
        self.nodes[nid] = Node::new(is_leaf, keep.0, keep.1);
        self.nodes.push(Node::new(is_leaf, give.0, give.1));
        self.nodes.len() - 1
    }

    /// Root split: a new root over the old root and its `sibling` is
    /// appended under `bound`, one level up.
    pub(crate) fn grow_root(&mut self, sibling: usize, bound: B) {
        self.nodes.push(Node::new(false, vec![self.root, sibling], bound));
        self.root = self.nodes.len() - 1;
    }

    /// Take entry `id` out of its leaf and condense the path above it
    /// (Guttman's condense-tree): a node left under `min_fill` is
    /// dissolved — detached from its parent, its entries handed back as
    /// orphans for the caller to reinsert — and every surviving node on
    /// the path gets a fresh bound. Then the root is repaired: emptied, it
    /// becomes an empty leaf again; left with one child, it collapses
    /// into it.
    ///
    /// Two policy hooks: `may_hold(bound)` — can the subtree under this
    /// bound hold the entry? (a tree whose bounds cannot tell answers
    /// `true` and every branch is searched) — and `rebound(topology,
    /// nid)` — the bound of node `nid` over its current members; it is
    /// also asked for the bound of an emptied root.
    ///
    /// Returns `None` when no leaf holds `id`, else the orphans.
    ///
    /// # Errors
    ///
    /// Whatever `rebound` fails with.
    pub(crate) fn remove_entry<E>(
        &mut self,
        id: usize,
        mut may_hold: impl FnMut(&B) -> bool,
        mut rebound: impl FnMut(&Self, usize) -> std::result::Result<B, E>,
    ) -> std::result::Result<Option<Vec<usize>>, E> {
        let mut orphans = Vec::new();
        let (found, root_empty) =
            self.condense(self.root, id, &mut orphans, &mut may_hold, &mut rebound)?;
        if !found {
            return Ok(None);
        }
        if root_empty {
            self.nodes[self.root].kind = NodeKind::Leaf(vec![]);
            self.nodes[self.root].bound = rebound(self, self.root)?;
        }
        while let NodeKind::Internal(children) = &self.nodes[self.root].kind {
            let &[only] = children.as_slice() else { break };
            self.root = only;
        }
        Ok(Some(orphans))
    }

    /// Returns `(found, this node should be detached)`.
    fn condense<E>(
        &mut self,
        node: usize,
        id: usize,
        orphans: &mut Vec<usize>,
        may_hold: &mut impl FnMut(&B) -> bool,
        rebound: &mut impl FnMut(&Self, usize) -> std::result::Result<B, E>,
    ) -> std::result::Result<(bool, bool), E> {
        let is_root = node == self.root;
        match &mut self.nodes[node].kind {
            NodeKind::Leaf(entries) => {
                let Some(pos) = entries.iter().position(|&e| e == id) else {
                    return Ok((false, false));
                };
                entries.remove(pos);
                if entries.is_empty() {
                    return Ok((true, true));
                }
                if entries.len() < self.min_fill && !is_root {
                    orphans.append(entries);
                    return Ok((true, true));
                }
            }
            NodeKind::Internal(children) => {
                let children = children.clone();
                let mut held_by = None;
                for (idx, &c) in children.iter().enumerate() {
                    if !may_hold(&self.nodes[c].bound) {
                        continue;
                    }
                    let (found, detach) = self.condense(c, id, orphans, may_hold, rebound)?;
                    if found {
                        held_by = Some((idx, detach));
                        break;
                    }
                }
                let Some((idx, detach)) = held_by else { return Ok((false, false)) };
                let kids = self.nodes[node].ids_mut();
                if detach {
                    kids.remove(idx);
                }
                if kids.is_empty() {
                    return Ok((true, true));
                }
                if kids.len() < self.min_fill && !is_root {
                    // Dissolved: the slot keeps its child list, unreachable.
                    for k in kids.clone() {
                        self.collect_entries(k, orphans);
                    }
                    return Ok((true, true));
                }
            }
        }
        self.nodes[node].bound = rebound(self, node)?;
        Ok((true, false))
    }

    /// The structural half of both trees' `validate`, over the nodes
    /// reachable from the root (condensed-away slots are garbage by
    /// design): the legs of the shared walk — ids in range, no node
    /// reached twice, every entry below `n_entries` and in one leaf only —
    /// plus the fill bounds an insert / remove history must keep
    /// (`min_fill ≤ |node| ≤ max_fill`, the root exempt below; nothing
    /// empty but a leaf root; an internal root has at least two children).
    /// Removed entries are holes: in the store, in no leaf.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptIndex`] naming the first violated invariant.
    pub(crate) fn check_structure(&self, n_entries: usize) -> Result<()> {
        walk(&self.nodes, self.root, n_entries, |nid, node| {
            let is_root = nid == self.root;
            let len = node.ids().len();
            if len > self.max_fill {
                return Err(corrupt("overfull node"));
            }
            if !is_root && len < self.min_fill {
                return Err(corrupt("underfull non-root node"));
            }
            if len == 0 && !(is_root && node.is_leaf()) {
                return Err(corrupt("empty node below the root"));
            }
            if is_root && !node.is_leaf() && len < 2 {
                return Err(corrupt("internal root not collapsed to its only child"));
            }
            Ok(())
        })
        .map(|_| ())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sapla_core::TimeSeries;

    /// FNV-1a over little-endian words — the digest the golden tests of
    /// both trees pin their exported arenas with.
    pub(crate) fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Digest of an exported arena: root, node count, then per slot the
    /// kind tag, the ids and the bound's words.
    pub(crate) fn digest<B>(t: &Topology<B>, bound_words: impl Fn(&B) -> Vec<u64>) -> u64 {
        let mut words = vec![t.root() as u64, t.nodes().len() as u64];
        for n in t.nodes() {
            words.push(u64::from(n.is_leaf()));
            words.push(n.ids().len() as u64);
            words.extend(n.ids().iter().map(|&i| i as u64));
            words.extend(bound_words(&n.bound));
        }
        fnv(words)
    }

    /// A deterministic generator for schedules and datasets that must not
    /// depend on the platform's libm.
    pub(crate) fn lcg(state: &mut u64) -> u64 {
        *state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    /// `n_series` z-normalised random walks of `len` points, from the
    /// same generator — arithmetic and `sqrt` only, so the golden
    /// constants built on them hold on any IEEE-754 platform.
    pub(crate) fn random_walks(n_series: usize, len: usize, seed: u64) -> Vec<TimeSeries> {
        let mut state = seed;
        (0..n_series)
            .map(|_| {
                let mut x = 0.0f64;
                let values = (0..len)
                    .map(|_| {
                        lcg(&mut state);
                        x += (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                        x
                    })
                    .collect();
                TimeSeries::new(values).unwrap().znormalized()
            })
            .collect()
    }

    /// A policy-free tree over the topology: the bound of a node is the
    /// number of entries below it, an insert descends into the child
    /// with the smallest bound (first on ties) and a split deals members
    /// out alternately. Enough to drive every primitive.
    struct Counting {
        topology: Topology<usize>,
        /// Orphans of dissolved nodes the removals have reinserted.
        reinserted: usize,
    }

    impl Counting {
        fn count(t: &Topology<usize>, nid: usize) -> usize {
            match t.node_view(nid) {
                NodeView::Leaf(e) => e.len(),
                NodeView::Internal(c) => c.iter().map(|&c| *t.bound(c)).sum(),
            }
        }

        fn insert(&mut self, id: usize) {
            let root = self.topology.root();
            if let Some(sibling) = self.insert_rec(root, id) {
                let bound = self.topology.bound(root) + self.topology.bound(sibling);
                self.topology.grow_root(sibling, bound);
            }
        }

        fn insert_rec(&mut self, nid: usize, id: usize) -> Option<usize> {
            let pushed = match self.topology.node_view(nid) {
                NodeView::Leaf(_) => id,
                NodeView::Internal(children) => {
                    let child = *children.iter().min_by_key(|&&c| *self.topology.bound(c))?;
                    match self.insert_rec(child, id) {
                        Some(sibling) => sibling,
                        None => {
                            *self.topology.bound_mut(nid) = Self::count(&self.topology, nid);
                            return None;
                        }
                    }
                }
            };
            if !self.topology.push_member(nid, pushed) {
                *self.topology.bound_mut(nid) = Self::count(&self.topology, nid);
                return None;
            }
            let members = match self.topology.node_view(nid) {
                NodeView::Leaf(m) | NodeView::Internal(m) => m.to_vec(),
            };
            let keep: Vec<usize> = members.iter().copied().step_by(2).collect();
            let give: Vec<usize> = members.iter().copied().skip(1).step_by(2).collect();
            let weigh = |ids: &[usize]| match self.topology.node_view(nid) {
                NodeView::Leaf(_) => ids.len(),
                NodeView::Internal(_) => ids.iter().map(|&c| *self.topology.bound(c)).sum(),
            };
            let (wk, wg) = (weigh(&keep), weigh(&give));
            Some(self.topology.split(nid, (keep, wk), (give, wg)))
        }

        fn remove(&mut self, id: usize) -> bool {
            let removed: std::result::Result<_, std::convert::Infallible> =
                self.topology.remove_entry(id, |_| true, |t, nid| Ok(Self::count(t, nid)));
            let Ok(Some(orphans)) = removed else { return false };
            self.reinserted += orphans.len();
            for e in orphans {
                self.insert(e);
            }
            true
        }

        /// `leaf_walk` is a permutation of `live`, `shape` agrees with it,
        /// the structure is sound and every bound counts its subtree.
        fn check(&self, live: &[usize], n_entries: usize) {
            let t = &self.topology;
            t.check_structure(n_entries).unwrap();
            assert_eq!(t.entry_ids(), live);
            let shape = t.shape();
            assert_eq!(shape.entries, live.len());
            let mut stack = vec![(t.root(), 1usize)];
            let (mut leaves, mut internals, mut height) = (0, 0, 0);
            while let Some((nid, depth)) = stack.pop() {
                height = height.max(depth);
                assert_eq!(*t.bound(nid), Self::count(t, nid), "bound of node {nid}");
                match t.node_view(nid) {
                    NodeView::Leaf(_) => leaves += 1,
                    NodeView::Internal(c) => {
                        internals += 1;
                        stack.extend(c.iter().map(|&c| (c, depth + 1)));
                    }
                }
            }
            assert_eq!(
                (shape.leaf_nodes, shape.internal_nodes, shape.height),
                (leaves, internals, height)
            );
        }
    }

    #[test]
    fn ids_follow_the_assignment_rule_through_splits_condenses_and_a_drain() {
        let mut tree = Counting { topology: Topology::new(2, 4, 0), reinserted: 0 };
        tree.check(&[], 0);
        // Five entries overfill the root leaf: it keeps slot 0, its
        // sibling is slot 1, the new root slot 2.
        for id in 0..5 {
            tree.insert(id);
        }
        assert_eq!((tree.topology.root(), tree.topology.nodes().len()), (2, 3));
        assert_eq!(tree.topology.leaf_walk(), vec![0, 2, 4, 1, 3]);
        let mut live: Vec<usize> = (0..5).collect();
        let mut next = 5usize;
        // Grow well past three levels …
        while next < 40 {
            tree.insert(next);
            live.push(next);
            next += 1;
            tree.check(&live, next);
        }
        // … churn: removals that dissolve leaves and internal nodes and
        // reinsert their orphans, inserts that split again …
        let mut state = 5u64;
        let mut arena_len = tree.topology.nodes().len();
        assert!(tree.topology.shape().height >= 3);
        for _ in 0..300 {
            if lcg(&mut state).is_multiple_of(2) {
                tree.insert(next);
                live.push(next);
                next += 1;
            } else if !live.is_empty() {
                let id = live.remove((lcg(&mut state) % live.len() as u64) as usize);
                assert!(tree.remove(id));
                assert!(!tree.remove(id), "entry {id} is gone");
            }
            tree.check(&live, next);
            // Slots are appended, never reused or dropped.
            assert!(tree.topology.nodes().len() >= arena_len);
            arena_len = tree.topology.nodes().len();
        }
        assert!(tree.reinserted > 0, "the schedule dissolves nodes and reinserts their orphans");
        // … thin out until the root collapses into a lone leaf, then
        // drain to empty: the root is an empty leaf again and accepts
        // entries.
        while let Some(id) = live.pop() {
            assert!(tree.remove(id));
            tree.check(&live, next);
        }
        let shape = tree.topology.shape();
        assert_eq!((shape.leaf_nodes, shape.internal_nodes, shape.height), (1, 0, 1));
        assert!(tree.topology.leaf_walk().is_empty());
        assert!(!tree.remove(0));
        tree.insert(next);
        tree.check(&[next], next + 1);
    }

    #[test]
    fn export_then_adopt_is_the_identity() {
        let mut tree = Counting { topology: Topology::new(2, 5, 0), reinserted: 0 };
        for id in 0..60 {
            tree.insert(id);
        }
        let t = &tree.topology;
        let back = Topology::adopt(2, 5, t.root(), t.nodes().to_vec(), 60).unwrap();
        let words = |b: &usize| vec![*b as u64];
        assert_eq!(digest(&back, words), digest(t, words));
        assert_eq!(back.leaf_walk(), t.leaf_walk());
        assert_eq!(back.shape(), t.shape());
        for nid in 0..t.nodes().len() {
            assert_eq!(back.nodes()[nid].is_leaf(), t.nodes()[nid].is_leaf());
            assert_eq!(back.nodes()[nid].ids(), t.nodes()[nid].ids());
        }
        // An empty tree is one empty leaf.
        let empty = Topology::new(2, 5, 0usize);
        Topology::adopt(2, 5, 0, empty.nodes().to_vec(), 0).unwrap();
    }

    #[test]
    fn adoption_and_validation_refuse_broken_structure() {
        let mut tree = Counting { topology: Topology::new(2, 5, 0), reinserted: 0 };
        for id in 0..40 {
            tree.insert(id);
        }
        let t = tree.topology.clone();
        let adopt = |root: usize, nodes: Vec<Node<usize>>, n: usize| match Topology::adopt(
            2, 5, root, nodes, n,
        ) {
            Err(Error::CorruptIndex { reason }) => reason,
            other => panic!("adopted: {:?}", other.map(|t| t.root())),
        };
        let nodes = || t.nodes().to_vec();
        let leaf = (0..nodes().len()).find(|&n| nodes()[n].is_leaf()).unwrap();
        let internal =
            (0..nodes().len()).find(|&n| n != t.root() && !nodes()[n].is_leaf()).unwrap();

        assert!(adopt(nodes().len(), nodes(), 40).contains("root id"));
        assert!(Topology::adopt(1, 1, t.root(), nodes(), 40).is_err(), "fill factors");
        let mut bad = nodes();
        bad[internal].ids_mut()[0] = 10_000;
        assert!(adopt(t.root(), bad, 40).contains("child id"));
        let mut bad = nodes();
        let stolen = bad[t.root()].ids()[0];
        bad[internal].ids_mut().push(stolen);
        assert!(adopt(t.root(), bad, 40).contains("shared child"));
        let mut bad = nodes();
        bad.push(Node::new(true, vec![], 0));
        assert!(adopt(t.root(), bad, 40).contains("detached"));
        let mut bad = nodes();
        bad[internal].ids_mut().clear();
        assert!(adopt(t.root(), bad, 40).contains("without children"));
        let mut bad = nodes();
        bad[leaf].ids_mut()[0] = 40;
        assert!(adopt(t.root(), bad, 40).contains("outside the rep arena"));
        let mut bad = nodes();
        let twice = bad[leaf].ids()[0];
        bad[leaf].ids_mut()[1] = twice;
        assert!(adopt(t.root(), bad, 40).contains("more than one leaf"));
        assert!(adopt(t.root(), nodes(), 41).contains("cover the rep arena"));

        // What only a history of inserts and removes promises.
        let check = |t: &Topology<usize>| match t.check_structure(40) {
            Err(Error::CorruptIndex { reason }) => reason,
            other => panic!("accepted: {other:?}"),
        };
        let mut bad = t.clone();
        let entries = bad.nodes[leaf].ids().to_vec();
        bad.nodes[leaf].ids_mut().truncate(1);
        assert!(check(&bad).contains("underfull"));
        bad.nodes[leaf] = Node::new(true, (100..106).collect(), 0);
        assert!(check(&bad).contains("overfull"));
        bad.nodes[leaf] = Node::new(true, entries, 0);
        bad.check_structure(40).unwrap();
        let only = bad.nodes[bad.root].ids()[0];
        bad.nodes[bad.root].ids_mut().truncate(1);
        assert!(check(&bad).contains("not collapsed"));
        bad.root = only;
        bad.check_structure(40).unwrap();
    }
}
