//! Shared k-NN search result types and metrics (Eq. 14 and Eq. 15 of the
//! paper).

/// Outcome of one k-NN search through an index.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchStats {
    /// Ids of the retrieved k nearest neighbours, closest first.
    pub retrieved: Vec<usize>,
    /// Exact distances of the retrieved neighbours, closest first.
    pub distances: Vec<f64>,
    /// How many database series had their exact distance computed
    /// ("the number of time series which have to be measured").
    pub measured: usize,
    /// Database size.
    pub total: usize,
}

impl SearchStats {
    /// Pruning power `ρ` (Eq. 14): fraction of the database measured.
    /// Lower is better.
    pub fn pruning_power(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.measured as f64 / self.total as f64
        }
    }

    /// Accuracy (Eq. 15): `|retrieved ∩ true k-NN| / k`.
    pub fn accuracy(&self, truth: &[usize]) -> f64 {
        if truth.is_empty() {
            return 1.0;
        }
        let hits = self.retrieved.iter().filter(|id| truth.contains(id)).count();
        hits as f64 / truth.len() as f64
    }
}

/// Per-search candidate accounting, shared by every search path (DBCH
/// tree, R-tree, linear scan). This is the single source of truth that
/// used to be duplicated as ad-hoc `measured` locals in `dbch.rs`,
/// `rtree.rs`, and `linear_scan.rs`; the `finish_*` methods flush the
/// tally into the global obs counters and hand back the measured count
/// for [`SearchStats::measured`] (which stays — pruning power, Eq. 14,
/// is public API).
///
/// Invariant, asserted by `tests/obs_counters.rs`: every candidate
/// entry a leaf offers is either pruned by the representation distance
/// or measured exactly, so `considered == pruned + measured`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SearchTally {
    considered: usize,
    pruned: usize,
    measured: usize,
    nodes_visited: usize,
    nodes_pruned: usize,
    envelope_pruned: usize,
    hull_evals: usize,
}

impl SearchTally {
    /// A node was popped and expanded.
    pub fn visit_node(&mut self) {
        self.nodes_visited += 1;
    }

    /// A child node was discarded by its lower-bound distance.
    pub fn prune_node(&mut self) {
        self.nodes_pruned += 1;
    }

    /// A child node was discarded by its PAA envelope
    /// ([`crate::envelope`]) before any hull evaluation — one of the
    /// [`SearchTally::prune_node`] prunes, counted apart as well.
    pub fn prune_node_by_envelope(&mut self) {
        self.nodes_pruned += 1;
        self.envelope_pruned += 1;
    }

    /// `n` nodes were discarded at once — the best-first loop terminates
    /// as soon as the closest queued node is beyond the k-th-best
    /// threshold, which prunes that node *and* everything still queued
    /// behind it. (Before this existed, those nodes went uncounted and
    /// the quick-grid profile reported `nodes_pruned == 0` even though
    /// the trees were pruning.)
    pub fn prune_nodes(&mut self, n: usize) {
        self.nodes_pruned += n;
    }

    /// A leaf offered `n` candidate entries.
    pub fn consider(&mut self, n: usize) {
        self.considered += n;
    }

    /// A candidate was discarded by the representation distance.
    pub fn prune(&mut self) {
        self.pruned += 1;
    }

    /// A candidate survived filtering and its exact distance was computed
    /// (one "disk access" in the paper's pruning-power unit).
    pub fn measure(&mut self) {
        self.measured += 1;
    }

    /// The search made `n` full hull-representative distance
    /// evaluations for its node bounds ([`HullMemo::evals`]; stays 0 for
    /// the R-tree and the scans, which bound nodes without them).
    pub fn hull_evals(&mut self, n: usize) {
        self.hull_evals = n;
    }

    /// Flush into the `index.knn.*` counters; returns `measured`.
    pub fn finish_knn(self) -> usize {
        let SearchTally {
            considered: _considered,
            pruned: _pruned,
            measured,
            nodes_visited: _visited,
            nodes_pruned: _node_pruned,
            envelope_pruned: _envelope_pruned,
            hull_evals: _hull_evals,
        } = self;
        sapla_obs::counter!("index.knn.queries");
        sapla_obs::counter!("index.knn.nodes_visited", _visited as u64);
        sapla_obs::counter!("index.knn.nodes_pruned", _node_pruned as u64);
        sapla_obs::counter!("index.knn.entries_considered", _considered as u64);
        sapla_obs::counter!("index.knn.entries_pruned", _pruned as u64);
        sapla_obs::counter!("index.knn.refined", measured as u64);
        sapla_obs::counter!("index.knn.hull_evals", _hull_evals as u64);
        sapla_obs::counter!("index.knn.envelope_pruned", _envelope_pruned as u64);
        measured
    }

    /// Flush into the `index.range.*` counters; returns `measured`.
    pub fn finish_range(self) -> usize {
        let SearchTally {
            considered: _considered,
            pruned: _pruned,
            measured,
            nodes_visited: _visited,
            nodes_pruned: _node_pruned,
            envelope_pruned: _envelope_pruned,
            hull_evals: _hull_evals,
        } = self;
        sapla_obs::counter!("index.range.queries");
        sapla_obs::counter!("index.range.nodes_visited", _visited as u64);
        sapla_obs::counter!("index.range.nodes_pruned", _node_pruned as u64);
        sapla_obs::counter!("index.range.entries_considered", _considered as u64);
        sapla_obs::counter!("index.range.entries_pruned", _pruned as u64);
        sapla_obs::counter!("index.range.refined", measured as u64);
        sapla_obs::counter!("index.range.hull_evals", _hull_evals as u64);
        sapla_obs::counter!("index.range.envelope_pruned", _envelope_pruned as u64);
        measured
    }

    /// Flush into the `index.scan.*` counters; returns `measured`
    /// (which equals the database size — a scan never prunes).
    pub fn finish_scan(self) -> usize {
        let SearchTally { considered: _considered, measured, .. } = self;
        sapla_obs::counter!("index.scan.queries");
        sapla_obs::counter!("index.scan.measured", measured as u64);
        measured
    }
}

/// A bounded max-heap of the k best (distance, id) pairs seen so far.
#[derive(Debug)]
pub(crate) struct KnnHeap {
    k: usize,
    // Max-heap keyed on distance.
    heap: std::collections::BinaryHeap<(sapla_core::OrdF64, usize)>,
    // Reusable staging buffer for [`KnnHeap::drain_into`].
    sort_buf: Vec<(sapla_core::OrdF64, usize)>,
}

impl KnnHeap {
    pub fn new(k: usize) -> Self {
        KnnHeap {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k + 1),
            sort_buf: Vec::with_capacity(k + 1),
        }
    }

    /// Current pruning threshold: the kth best distance, or ∞ while the
    /// heap is not yet full.
    pub fn threshold(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |(d, _)| d.get())
        }
    }

    // audit: no_alloc — capacity k+1 is reserved up front.
    pub fn push(&mut self, dist: f64, id: usize) {
        self.heap.push((sapla_core::OrdF64::new(dist), id));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
    }

    /// Drain into (ids, distances), closest first.
    pub fn into_sorted(mut self) -> (Vec<usize>, Vec<f64>) {
        self.drain_sorted()
    }

    /// Drain into (ids, distances), closest first, keeping the heap's
    /// allocation for reuse.
    pub fn drain_sorted(&mut self) -> (Vec<usize>, Vec<f64>) {
        let (mut ids, mut dists) = (Vec::new(), Vec::new());
        self.drain_into(&mut ids, &mut dists);
        (ids, dists)
    }

    /// Drain into caller-owned `(ids, distances)` buffers (cleared first),
    /// closest first, keeping every internal allocation for reuse. Ids are
    /// unique, so the `(distance, id)` pairs are distinct and the unstable
    /// sort is deterministic — the output order matches the stable sort it
    /// replaced.
    // audit: no_alloc — steady-state reuse is the whole point of this path.
    pub fn drain_into(&mut self, ids: &mut Vec<usize>, dists: &mut Vec<f64>) {
        self.sort_buf.clear();
        self.sort_buf.extend(self.heap.drain());
        self.sort_buf.sort_unstable();
        ids.clear();
        dists.clear();
        ids.extend(self.sort_buf.iter().map(|&(_, i)| i));
        dists.extend(self.sort_buf.iter().map(|&(d, _)| d.get()));
    }

    /// Re-arm for a fresh search of `k` neighbours, keeping allocations.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }
}

impl Default for KnnHeap {
    /// A zero-capacity heap: a usable placeholder that
    /// [`KnnHeap::reset`] re-arms to the real `k` before every search.
    fn default() -> Self {
        KnnHeap::new(0)
    }
}

/// Per-query memo of squared hull-representative distances, keyed by
/// entry id — the same id that addresses the tree's
/// [`crate::arena::RepStore`], so a memo lookup and the coefficients a
/// miss goes on to read are found by one index. DBCH node bounds fully
/// evaluate the representation distance against the two hull
/// representatives of every node they score, and the same entries recur
/// — an internal hull's representatives are drawn from its children's,
/// and every hull representative is also an ordinary leaf entry. Caching
/// the **squared** distance lets each re-use return the identical value:
/// the distance is `sq.sqrt()` everywhere, the filter decision reduces
/// to `sq.sqrt() <= threshold` on the exact full square (early
/// abandoning only prunes candidates whose full square exceeds the
/// bound — the Eq. 12 terms are clamped ≥ 0, so partial sums are
/// monotone), and square-rooting the cached square is bit-for-bit the
/// fresh evaluation. Caching the root instead would *not* round-trip.
///
/// Only schemes that return a square from
/// [`crate::scheme::Scheme::rep_dist_sq`] participate; for others
/// the memo stays empty and every path takes the stock evaluation.
#[derive(Debug, Default)]
pub(crate) struct HullMemo {
    // Squared distance per entry id; NaN ⇒ not recorded.
    sq: Vec<f64>,
    touched: Vec<usize>,
    // Full hull-representative evaluations (memo misses) this query.
    evals: usize,
}

impl HullMemo {
    /// The memoised squared distance for entry `id`, if recorded.
    pub fn get(&self, id: usize) -> Option<f64> {
        match self.sq.get(id) {
            Some(v) if !v.is_nan() => Some(*v),
            _ => None,
        }
    }

    /// Replay a leaf-filter decision from the memo: `Some(keep)` when
    /// entry `id` is recorded, where `keep` is exactly what the scheme's
    /// threshold filter would decide (`sq.sqrt() <= threshold`).
    pub fn within(&self, id: usize, threshold: f64) -> Option<bool> {
        self.get(id).map(|sq| sq.sqrt() <= threshold)
    }

    /// Record the squared distance for entry `id`. First write wins —
    /// the square is a pure function of (query, entry), so any repeat
    /// is bitwise the stored value anyway. A NaN square is stored but
    /// never returned by [`HullMemo::get`]; re-evaluation reproduces it.
    // audit: no_alloc — grows to the largest entry id once, then reuses.
    pub fn insert(&mut self, id: usize, sq: f64) {
        if id >= self.sq.len() {
            self.sq.resize(id + 1, f64::NAN);
        }
        if self.sq[id].is_nan() {
            self.sq[id] = sq;
            self.touched.push(id);
        }
    }

    /// Count one full hull-representative evaluation (a memo miss).
    pub fn count_eval(&mut self) {
        self.evals += 1;
    }

    /// Full hull-representative evaluations since the last
    /// [`HullMemo::clear`] (`index.*.hull_evals`).
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// Forget every recorded entry in O(recorded), keeping allocations.
    pub fn clear(&mut self) {
        for &id in &self.touched {
            self.sq[id] = f64::NAN;
        }
        self.touched.clear();
        self.evals = 0;
    }
}

/// One k-NN query's search state, reusable across queries: the candidate
/// heap, the best-first node queue, the [`HullMemo`] and the query's
/// segment means for the shard's envelope test. The driver in
/// [`crate::batched`] resets it at the start of every search;
/// [`DbchTree::knn_with_scratch`] (`DbchTree` is in [`crate::dbch`]) and
/// [`RTree::knn_with_scratch`](crate::RTree) take one from the caller,
/// and the parallel multi-query engine ([`crate::Engine::knn`]) holds one
/// per worker, which turns steady-state k-NN into a loop that allocates
/// only the answers it returns.
///
/// Reusing a scratch **never changes results**: every buffer is reset at
/// the start of every search.
#[derive(Debug, Default)]
pub struct KnnScratch {
    pub(crate) results: KnnHeap,
    // Best-first queue of (node distance, node id, node depth). Depth
    // rides along purely for the per-level fanout lanes: node ids are
    // unique in the queue, so comparisons never reach the depth field
    // and the pop order is bit-identical to the (distance, id) queue.
    pub(crate) nodes:
        std::collections::BinaryHeap<std::cmp::Reverse<(sapla_core::OrdF64, usize, usize)>>,
    pub(crate) hull: HullMemo,
    // `None` when the search runs without envelopes (the tree-level
    // paths) or the query's length differs from the shard's series.
    pub(crate) means: Option<crate::envelope::QueryMeans>,
}

impl KnnScratch {
    /// Fresh scratch (equivalent to `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear all buffers and size the result heap for `k` neighbours.
    pub(crate) fn reset(&mut self, k: usize) {
        self.results.reset(k);
        self.nodes.clear();
        self.hull.clear();
        self.means = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics() {
        let s = SearchStats {
            retrieved: vec![3, 1, 4],
            distances: vec![0.5, 1.0, 2.0],
            measured: 20,
            total: 100,
        };
        assert!((s.pruning_power() - 0.2).abs() < 1e-12);
        assert!((s.accuracy(&[1, 2, 3]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.accuracy(&[]), 1.0);
    }

    #[test]
    fn drain_into_reuses_buffers_and_matches_drain_sorted() {
        let mut h = KnnHeap::new(3);
        let mut ids = vec![99, 98]; // stale content must be cleared
        let mut dists = vec![-1.0];
        for round in 0..3 {
            h.reset(3);
            for (d, id) in [(4.0, 7), (2.0, 1), (9.0, 5), (3.0, 2)] {
                h.push(d + round as f64 * 0.0, id);
            }
            h.drain_into(&mut ids, &mut dists);
            assert_eq!(ids, vec![1, 2, 7], "round {round}");
            assert_eq!(dists, vec![2.0, 3.0, 4.0], "round {round}");
        }
    }

    #[test]
    fn knn_heap_keeps_k_best() {
        let mut h = KnnHeap::new(2);
        assert_eq!(h.threshold(), f64::INFINITY);
        h.push(5.0, 0);
        h.push(1.0, 1);
        assert_eq!(h.threshold(), 5.0);
        h.push(3.0, 2);
        assert_eq!(h.threshold(), 3.0);
        let (ids, dists) = h.into_sorted();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(dists, vec![1.0, 3.0]);
    }
}
