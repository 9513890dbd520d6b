//! The one search driver both trees share: best-first k-NN and the
//! ε-range walk, over the [`BatchTree`] trait.
//!
//! A k-NN query is one best-first walk ([`knn_search`], §5.3 of the
//! paper): nodes pop closest first, internal nodes are expanded inline and
//! a leaf's entries are filtered and refined the moment the leaf pops.
//! Each query's result is a pure function of the tree and its own search
//! state — candidate heap, node queue, thresholds — so a caller answering
//! many queries (the engine answers a chunk of [`DEFAULT_QUERY_BLOCK`]
//! queries per task) runs them one after another over one reusable
//! [`KnnScratch`], and gets bitwise what fresh searches return.
//!
//! **One owner per kind of data.** The shape the driver walks — root,
//! children, leaf entries, node ids — is the tree's [`Topology`], the
//! same type under both trees; only [`BatchTree::node_bound`] knows what
//! a node's bound is. Representations are read from the
//! tree's [`RepStore`], one borrowed entry at a time, and raw series
//! through [`RawSource`] (see [`crate::arena`]). The driver does not know
//! what a store holds or whether a query carries a plan: it hands
//! `store.rep(id)` to the [`Scheme`], which alone picks the kernel.
//!
//! **Envelopes first.** An engine shard also hands the driver its
//! [`NodeEnvelopes`] ([`crate::envelope`]): before a child node's (or, in
//! an ε-range walk, a node's) own bound is computed, its PAA envelope is
//! tested against the current threshold, and a node it dismisses is
//! pruned without a hull evaluation. The envelope is an unconditional
//! lower bound and dismisses only nodes whose every member lies strictly
//! beyond the threshold, so no member of such a subtree could have
//! entered the heap or the hit list: answers, tie order and the
//! best-first order of the surviving nodes are those of the search
//! without envelopes, which is what the tree-level `knn` / `range` run
//! (they pass `None` and keep reporting the paper's pruning power).

use std::cmp::Reverse;

use sapla_core::{OrdF64, Result};
use sapla_distance::{euclidean_early_abandon_slices, safe_sq_bound};

use crate::arena::{RawSource, RepStore};
use crate::envelope::{NodeEnvelopes, QueryMeans};
use crate::knn::{HullMemo, KnnHeap, KnnScratch, SearchStats, SearchTally};
use crate::scheme::{Query, Scheme};
use crate::topology::{NodeView, Topology};

/// How many queries [`crate::Engine::knn`] answers in one parallel task
/// (one chunk of queries over one shard, answered one after another with
/// the worker's scratch).
pub const DEFAULT_QUERY_BLOCK: usize = 16;

/// What the driver needs of a tree — implemented by
/// [`crate::dbch::DbchTree`] (hull bounds) and [`crate::rtree::RTree`]
/// (MINDIST bounds). The shape it walks is the tree's [`Topology`]; only
/// the bound is the tree's own.
pub(crate) trait BatchTree {
    /// What bounds a node of this tree.
    type Bound;
    /// Nodes, root and ids (the root is meaningless while
    /// [`BatchTree::reps`] is empty).
    fn topology(&self) -> &Topology<Self::Bound>;
    /// The tree's representations, by entry id.
    fn reps(&self) -> &RepStore;
    /// Query-to-node bound (hull rule / MINDIST). The DBCH-tree records
    /// the squared hull-representative distances it computes in `memo`
    /// for bitwise replay at the leaf filter; the R-tree's MINDIST has
    /// nothing to memoise and leaves it untouched.
    fn node_bound(
        &self,
        q: &Query,
        scheme: &dyn Scheme,
        nid: usize,
        memo: &mut HullMemo,
    ) -> Result<f64>;
    /// Per-level fanout accounting hook (the DBCH-tree's lane counter;
    /// the R-tree reports nothing).
    fn count_fanout(&self, _depth: usize, _children: usize) {}
}

/// The leaf filter for one entry: does its representation distance stay
/// within `prune_at`? A hull representative this query already evaluated
/// fully during node bounding replays the memoised square (the identical
/// decision, see [`HullMemo`]); otherwise the scheme evaluates the
/// entry as the store hands it out.
#[inline]
fn rep_within(
    q: &Query,
    scheme: &dyn Scheme,
    reps: &RepStore,
    e: usize,
    prune_at: f64,
    memo: &HullMemo,
) -> Result<bool> {
    if let Some(keep) = memo.within(e, prune_at) {
        sapla_obs::counter!("index.hull_memo.hits");
        return Ok(keep);
    }
    scheme.rep_within(q, reps.rep(e), prune_at)
}

/// Evaluate one leaf's entries for one k-NN query: representation filter
/// ([`rep_within`]) then early-abandoning exact refinement.
#[allow(clippy::too_many_arguments)] // the flattened per-query search state
#[cfg_attr(not(feature = "strict-invariants"), allow(unused_variables))]
fn eval_leaf_entries<R: RawSource + ?Sized>(
    q: &Query,
    scheme: &dyn Scheme,
    raws: &R,
    reps: &RepStore,
    (leaf, entries): (usize, &[usize]),
    // The shard's envelopes with this query's means (strict gate only).
    envelope: Option<(&NodeEnvelopes, &QueryMeans)>,
    results: &mut KnnHeap,
    memo: &HullMemo,
    tally: &mut SearchTally,
) -> Result<()> {
    tally.consider(entries.len());
    for &e in entries {
        let threshold = results.threshold();
        // While the result heap is not yet full the threshold is ∞ and
        // no filter can prune, so the representation distance is
        // skipped outright — the keep-decision is identical (`d ≤ ∞`).
        // Strict-invariants builds still evaluate it to keep the
        // lb ≤ exact audit on every candidate.
        let skip_filter = threshold.is_infinite() && !cfg!(feature = "strict-invariants");
        if skip_filter || rep_within(q, scheme, reps, e, threshold, memo)? {
            tally.measure();
            // Early-abandoning refinement: an abandoned candidate has
            // exact > threshold *strictly* (the safe_sq_bound slack
            // absorbs the t² rounding), so pushing it would pop it
            // straight back out — skipping the push leaves the heap
            // bit-identical.
            let bound = safe_sq_bound(results.threshold());
            match euclidean_early_abandon_slices(q.raw.values(), raws.raw(e), bound)? {
                Some(exact) => {
                    #[cfg(feature = "strict-invariants")]
                    {
                        crate::scheme::assert_lb_le_exact(q, reps.rep(e), exact)?;
                        if let Some((envelopes, means)) = envelope {
                            envelopes.assert_sound(leaf, means, exact);
                        }
                    }
                    results.push(exact, e);
                }
                // The invariant lb ≤ exact holds here by construction:
                // lb ≤ threshold < exact.
                None => sapla_obs::counter!("index.knn.refine_abandoned"),
            }
        } else {
            tally.prune();
        }
    }
    Ok(())
}

/// k-NN for one query: the best-first search both trees share. Nodes
/// pop closest first; a child is tested against `envelopes` (when given)
/// before its own bound, and a leaf's entries are filtered and refined as
/// soon as the leaf pops. The search ends when the closest queued node is
/// beyond the k-th-best threshold.
pub(crate) fn knn_search<T: BatchTree + ?Sized, R: RawSource + ?Sized>(
    tree: &T,
    q: &Query,
    k: usize,
    scheme: &dyn Scheme,
    raws: &R,
    envelopes: Option<&NodeEnvelopes>,
    scratch: &mut KnnScratch,
) -> Result<SearchStats> {
    scratch.reset(k);
    scratch.means = envelopes.and_then(|env| env.query(q.raw.values()));
    let KnnScratch { results, nodes, hull, means } = scratch;
    let envelope = envelopes.zip(means.as_ref());
    let (topology, reps) = (tree.topology(), tree.reps());
    let mut tally = SearchTally::default();
    if reps.len() > 0 {
        let root = topology.root();
        let d = tree.node_bound(q, scheme, root, hull)?;
        nodes.push(Reverse((OrdF64::new(d), root, 0)));
    }
    while let Some(Reverse((d, nid, depth))) = nodes.pop() {
        if d.get() > results.threshold() {
            // Best-first order: the popped node *and* everything still
            // queued behind it are beyond the threshold.
            tally.prune_nodes(1 + nodes.len());
            break;
        }
        tally.visit_node();
        match topology.node_view(nid) {
            NodeView::Internal(children) => {
                tree.count_fanout(depth, children.len());
                for &c in children {
                    let threshold = results.threshold();
                    if envelope.is_some_and(|(env, m)| env.prunes(c, m, threshold)) {
                        tally.prune_node_by_envelope();
                        continue;
                    }
                    let node_d = tree.node_bound(q, scheme, c, hull)?;
                    if node_d <= threshold {
                        nodes.push(Reverse((OrdF64::new(node_d), c, depth + 1)));
                    } else {
                        tally.prune_node();
                    }
                }
            }
            NodeView::Leaf(entries) => eval_leaf_entries(
                q,
                scheme,
                raws,
                reps,
                (nid, entries),
                envelope,
                results,
                hull,
                &mut tally,
            )?,
        }
    }
    let (mut retrieved, mut distances) = (Vec::with_capacity(k), Vec::with_capacity(k));
    results.drain_into(&mut retrieved, &mut distances);
    tally.hull_evals(hull.evals());
    Ok(SearchStats { retrieved, distances, measured: tally.finish_knn(), total: reps.len() })
}

/// ε-range search: every entry whose **exact** Euclidean distance to the
/// query is at most `epsilon`, sorted by `(distance, id)` — a strict
/// total order, so multi-shard engines merge per-shard hit lists
/// deterministically. Nodes are filtered by their envelope in `envelopes`
/// (when given), then by [`BatchTree::node_bound`], entries by
/// [`rep_within`], survivors refined exactly.
pub(crate) fn range_search<T: BatchTree + ?Sized, R: RawSource + ?Sized>(
    tree: &T,
    q: &Query,
    epsilon: f64,
    scheme: &dyn Scheme,
    raws: &R,
    envelopes: Option<&NodeEnvelopes>,
) -> Result<SearchStats> {
    let mut hits: Vec<(f64, usize)> = Vec::new();
    let mut tally = SearchTally::default();
    let mut memo = HullMemo::default();
    let means = envelopes.and_then(|env| env.query(q.raw.values()));
    let envelope = envelopes.zip(means.as_ref());
    let topology = tree.topology();
    let reps = tree.reps();
    let mut stack = if reps.len() == 0 { Vec::new() } else { vec![topology.root()] };
    while let Some(nid) = stack.pop() {
        if envelope.is_some_and(|(env, m)| env.prunes(nid, m, epsilon)) {
            tally.prune_node_by_envelope();
            continue;
        }
        if tree.node_bound(q, scheme, nid, &mut memo)? > epsilon {
            tally.prune_node();
            continue;
        }
        tally.visit_node();
        match topology.node_view(nid) {
            NodeView::Internal(children) => stack.extend_from_slice(children),
            NodeView::Leaf(entries) => {
                tally.consider(entries.len());
                for &e in entries {
                    if !rep_within(q, scheme, reps, e, epsilon, &memo)? {
                        tally.prune();
                        continue;
                    }
                    tally.measure();
                    // Abandoned ⇒ exact > epsilon strictly: not a hit,
                    // same as the full comparison.
                    let bound = safe_sq_bound(epsilon);
                    if let Some(exact) =
                        euclidean_early_abandon_slices(q.raw.values(), raws.raw(e), bound)?
                    {
                        #[cfg(feature = "strict-invariants")]
                        {
                            crate::scheme::assert_lb_le_exact(q, reps.rep(e), exact)?;
                            if let Some((envelopes, means)) = envelope {
                                envelopes.assert_sound(nid, means, exact);
                            }
                        }
                        if exact <= epsilon {
                            hits.push((exact, e));
                        }
                    }
                }
            }
        }
    }
    hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    tally.hull_evals(memo.evals());
    Ok(SearchStats {
        retrieved: hits.iter().map(|&(_, i)| i).collect(),
        distances: hits.iter().map(|&(d, _)| d).collect(),
        measured: tally.finish_range(),
        total: reps.len(),
    })
}
