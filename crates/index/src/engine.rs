//! [`Engine`] — reusable kNN / range orchestration over a (possibly
//! sharded) index, shared by the CLI, the bench harness, and
//! `sapla-serve`.
//!
//! The engine owns everything a query needs: the indexing [`Scheme`],
//! the [`Reducer`] that turns raw series into queries, the raw series
//! (for exact refinement; one flat leaf-ordered [`RawArena`] per shard —
//! its own allocation in a built engine, a view of the retained file
//! image in one loaded by [`Engine::from_snapshot_file`]), and one or
//! more index shards. Callers hand
//! it raw query series (or pre-built [`Query`]s) and get back per-query
//! [`SearchStats`] in query order plus the batch-wide [`BatchStats`].
//!
//! # Sharding and determinism
//!
//! Entries are partitioned round-robin over `shards` independent trees:
//! global id `g` lives in shard `g % shards` at local id `g / shards`.
//! A kNN scatter-gathers: every `(query chunk, shard)` pair runs top-`k`
//! independently (fanned over the parallel engine; a task answers
//! its chunk's queries one after another with the best-first driver of
//! [`crate::batched`] and its worker's warm scratch), and per-query
//! results merge by `(distance, global id)` — a strict total order, so
//! the merge is deterministic at every thread count.
//!
//! With `shards == 1` the engine is **bit-identical** to a sequential
//! [`DbchTree::knn`] loop over the sequentially built tree, at every
//! thread count (pinned by proptest). With more
//! shards the answer can differ from a single tree — the paper's
//! node-distance rule is conditional, not a sound lower bound, so
//! *which* candidates a tree refines depends on tree structure. The
//! shard count is therefore part of the index configuration, not a
//! tuning knob to vary between runs (see DESIGN.md, "Service
//! architecture").

use std::sync::Arc;

use sapla_baselines::{reduce_batch_parallel, Reducer};
use sapla_core::{Error, Representation, Result, TimeSeries};
use sapla_parallel::par_try_map_init;

use crate::arena::{RawArena, RepStore};
use crate::batched::{knn_search, range_search, BatchTree};
use crate::dbch::{DbchTree, NodeDistRule};
use crate::envelope::NodeEnvelopes;
use crate::knn::{KnnScratch, SearchStats};
use crate::parallel::{prepare_queries, BatchStats};
use crate::rtree::RTree;
use crate::scheme::{scheme_for, Query, Scheme};
use crate::topology::Hierarchy;

/// Which index structure backs each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TreeKind {
    /// The paper's DBCH-tree (hull bounds under `Dist_PAR`).
    #[default]
    Dbch,
    /// The R-tree baseline over per-method feature MBRs.
    Rtree,
}

impl TreeKind {
    /// Parse a CLI / wire name (`"dbch"` or `"rtree"`).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownMethod`] for anything else.
    pub fn parse(name: &str) -> Result<TreeKind> {
        match name {
            "dbch" => Ok(TreeKind::Dbch),
            "rtree" => Ok(TreeKind::Rtree),
            other => Err(Error::UnknownMethod { name: format!("tree {other}") }),
        }
    }

    /// The name [`TreeKind::parse`] accepts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TreeKind::Dbch => "dbch",
            TreeKind::Rtree => "rtree",
        }
    }
}

/// Structural configuration of an [`Engine`]. Everything here shapes
/// the index itself (and thus the answers, see the module docs on
/// sharding) — per-call knobs like thread counts stay out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Index structure per shard.
    pub tree: TreeKind,
    /// Coefficient budget `M` for reduction.
    pub m: usize,
    /// Minimum node fill.
    pub min_fill: usize,
    /// Maximum node fill.
    pub max_fill: usize,
    /// Number of index shards (`0` is treated as `1`).
    pub shards: usize,
    /// DBCH node-distance rule (ignored by the R-tree).
    pub rule: NodeDistRule,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            tree: TreeKind::Dbch,
            m: 12,
            min_fill: 2,
            max_fill: 5,
            shards: 1,
            rule: NodeDistRule::Paper,
        }
    }
}

pub(crate) enum ShardIndex {
    Dbch(DbchTree),
    Rtree(RTree),
}

impl ShardIndex {
    pub(crate) fn reps(&self) -> &RepStore {
        match self {
            ShardIndex::Dbch(t) => t.reps(),
            ShardIndex::Rtree(t) => t.reps(),
        }
    }

    /// Entry ids in the order the shard's [`RawArena`] stores them.
    pub(crate) fn leaf_walk(&self) -> Vec<usize> {
        match self {
            ShardIndex::Dbch(t) => t.topology().leaf_walk(),
            ShardIndex::Rtree(t) => t.topology().leaf_walk(),
        }
    }

    /// The tree's node arena, whichever kind of tree it is.
    pub(crate) fn hierarchy(&self) -> &dyn Hierarchy {
        match self {
            ShardIndex::Dbch(t) => t.topology(),
            ShardIndex::Rtree(t) => t.topology(),
        }
    }
}

pub(crate) struct Shard {
    pub(crate) index: ShardIndex,
    /// Raw series by local id, stored in the tree's leaf-walk order
    /// (exact refinement reads these).
    pub(crate) raws: RawArena,
    /// The PAA envelope of every node, keyed by the tree's node ids —
    /// derived from `raws`, never persisted.
    pub(crate) envelopes: NodeEnvelopes,
}

impl Shard {
    /// Pair a built tree with its raw series: `raw_of(local id)` is
    /// copied once, into leaf-walk order, and the node envelopes are
    /// derived from the copy.
    ///
    /// # Errors
    ///
    /// [`Error::LengthMismatch`] when the series differ in length, or a
    /// representation covers another length than the series do — every
    /// search of such a shard would fail on it.
    fn new<'a>(index: ShardIndex, raw_of: impl Fn(usize) -> &'a [f64]) -> Result<Shard> {
        let raws = RawArena::gather(&index.leaf_walk(), raw_of)?;
        if let Some(len) = index.reps().length_mismatch(raws.stride()) {
            return Err(Error::LengthMismatch { left: raws.stride(), right: len });
        }
        let envelopes = NodeEnvelopes::derive(index.hierarchy(), raws.samples(), raws.stride());
        Ok(Shard { index, raws, envelopes })
    }

    fn knn(
        &self,
        queries: &[Query],
        k: usize,
        scheme: &dyn Scheme,
        scratch: &mut KnnScratch,
    ) -> Result<Vec<SearchStats>> {
        let (raws, env) = (self.raws.view(), Some(&self.envelopes));
        // In query order, stopping at the first failure: the earliest
        // error by query index is the one reported.
        queries
            .iter()
            .map(|q| match &self.index {
                ShardIndex::Dbch(t) => knn_search(t, q, k, scheme, &raws, env, scratch),
                ShardIndex::Rtree(t) => knn_search(t, q, k, scheme, &raws, env, scratch),
            })
            .collect()
    }

    fn range(&self, q: &Query, epsilon: f64, scheme: &dyn Scheme) -> Result<SearchStats> {
        let (raws, env) = (self.raws.view(), Some(&self.envelopes));
        match &self.index {
            ShardIndex::Dbch(t) => range_search(t, q, epsilon, scheme, &raws, env),
            ShardIndex::Rtree(t) => range_search(t, q, epsilon, scheme, &raws, env),
        }
    }
}

/// A self-contained, shareable similarity-search engine (see module
/// docs). `Engine` is `Send + Sync`; long-lived services hold it in an
/// `Arc` and swap the `Arc` on reload so in-flight queries finish
/// against the index they started on.
pub struct Engine {
    pub(crate) cfg: EngineConfig,
    pub(crate) scheme: Arc<dyn Scheme>,
    pub(crate) reducer: Arc<dyn Reducer>,
    pub(crate) shards: Vec<Shard>,
    pub(crate) total: usize,
    /// Additive `Dist_LB` slack the strict-invariants audit must allow:
    /// `0.0` for engines built from raw series, the maximum per-record
    /// quantization perturbation for engines loaded from a quantized
    /// snapshot (see `crate::snapshot`). An exact re-save of such an
    /// engine stores it, because the reps stay perturbed relative to the
    /// raw series whatever format they are written in.
    pub(crate) lb_slack: f64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cfg", &self.cfg)
            .field("method", &self.reducer.name())
            .field("shards", &self.shards.len())
            .field("total", &self.total)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Reduce `raws` (on up to `threads` workers) and build the sharded
    /// index. The scheme is derived from the reducer's method name.
    ///
    /// # Errors
    ///
    /// Propagates reduction, scheme-resolution, and tree-build failures.
    pub fn build(
        cfg: EngineConfig,
        reducer: Box<dyn Reducer>,
        raws: Vec<TimeSeries>,
        threads: usize,
    ) -> Result<Engine> {
        let _span = sapla_obs::span!("engine.build");
        let scheme: Arc<dyn Scheme> = Arc::from(scheme_for(reducer.name())?);
        let reps = reduce_batch_parallel(reducer.as_ref(), &raws, cfg.m, threads)?;
        Self::assemble(cfg, scheme, Arc::from(reducer), reps, |g| raws[g].values())
    }

    /// Build from already-reduced representations: `reps[g]` must be
    /// the reduction of `raws[g]`.
    ///
    /// # Errors
    ///
    /// [`Error::LengthMismatch`] when `reps` and `raws` disagree in
    /// length, or a representation and the series in the length they
    /// cover; otherwise scheme-resolution / tree-build failures.
    pub fn from_parts(
        cfg: EngineConfig,
        reducer: Box<dyn Reducer>,
        reps: Vec<Representation>,
        raws: Vec<TimeSeries>,
    ) -> Result<Engine> {
        if reps.len() != raws.len() {
            return Err(Error::LengthMismatch { left: reps.len(), right: raws.len() });
        }
        let scheme: Arc<dyn Scheme> = Arc::from(scheme_for(reducer.name())?);
        Self::assemble(cfg, scheme, Arc::from(reducer), reps, |g| raws[g].values())
    }

    /// Split `reps` round-robin over the shards, build each shard's tree,
    /// then copy its raw series — `raw_of(global id)` — into the shard's
    /// leaf-ordered arena.
    fn assemble<'a>(
        cfg: EngineConfig,
        scheme: Arc<dyn Scheme>,
        reducer: Arc<dyn Reducer>,
        reps: Vec<Representation>,
        raw_of: impl Fn(usize) -> &'a [f64],
    ) -> Result<Engine> {
        let n_shards = cfg.shards.max(1);
        let total = reps.len();
        let mut shard_reps: Vec<Vec<Representation>> = (0..n_shards)
            .map(|s| Vec::with_capacity(total / n_shards + usize::from(s < total % n_shards)))
            .collect();
        for (g, rep) in reps.into_iter().enumerate() {
            shard_reps[g % n_shards].push(rep);
        }
        let mut shards = Vec::with_capacity(n_shards);
        for (si, reps) in shard_reps.into_iter().enumerate() {
            let index = match cfg.tree {
                TreeKind::Dbch => ShardIndex::Dbch(DbchTree::build_with_rule(
                    scheme.as_ref(),
                    reps,
                    cfg.min_fill,
                    cfg.max_fill,
                    cfg.rule,
                )?),
                TreeKind::Rtree => ShardIndex::Rtree(RTree::build(
                    scheme.as_ref(),
                    reps,
                    cfg.min_fill,
                    cfg.max_fill,
                )?),
            };
            shards.push(Shard::new(index, |local| raw_of(local * n_shards + si))?);
        }
        Ok(Engine { cfg, scheme, reducer, shards, total, lb_slack: 0.0 })
    }

    /// Number of indexed series (over all shards).
    #[must_use]
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` iff no series are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of index shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The engine's structural configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The reduction method name (e.g. `"SAPLA"`).
    #[must_use]
    pub fn method(&self) -> &'static str {
        self.reducer.name()
    }

    /// Reduce raw query series into [`Query`]s (parallel, warm
    /// scratches; output order is input order).
    ///
    /// # Errors
    ///
    /// Propagates the earliest (by input order) reduction failure.
    pub fn prepare(&self, raws: &[TimeSeries], threads: usize) -> Result<Vec<Query>> {
        prepare_queries(raws, self.reducer.as_ref(), self.cfg.m, threads)
    }

    /// Answer a batch of k-NN queries: chunk the queries by
    /// [`crate::DEFAULT_QUERY_BLOCK`], scatter every `(chunk, shard)`
    /// pair over up to `threads` workers, gather per
    /// query by `(distance, global id)`. With one shard this returns
    /// bit-for-bit what a sequential [`DbchTree::knn`] loop returns (see
    /// module docs).
    ///
    /// # Errors
    ///
    /// Propagates the earliest (by scatter order) search failure.
    pub fn knn(
        &self,
        queries: &[Query],
        k: usize,
        threads: usize,
    ) -> Result<(Vec<SearchStats>, BatchStats)> {
        let _span = sapla_obs::span!("engine.knn");
        let n_shards = self.shards.len();
        let block = crate::batched::DEFAULT_QUERY_BLOCK;
        let blocks: Vec<&[Query]> = queries.chunks(block).collect();
        let tasks: Vec<(usize, usize)> =
            (0..blocks.len()).flat_map(|b| (0..n_shards).map(move |s| (b, s))).collect();
        let partials =
            par_try_map_init(&tasks, threads, KnnScratch::new, |scratch, _, &(bi, si)| {
                let start_ns = sapla_obs::clock::now_ns();
                let stats = self.shards[si].knn(blocks[bi], k, self.scheme.as_ref(), scratch)?;
                // Per-shard execution time, windowed per shard lane so
                // `OP_METRICS` can surface a slow shard's last-minute
                // percentiles next to its lifetime totals.
                let dur = sapla_obs::clock::now_ns().saturating_sub(start_ns);
                sapla_obs::windowed!("engine.shard.knn.ns", si, dur);
                let _ = dur;
                sapla_obs::lane_counter!(
                    "engine.shard.measured",
                    si,
                    stats.iter().map(|s| s.measured as u64).sum::<u64>()
                );
                sapla_obs::lane_counter!("engine.shard.queries", si, blocks[bi].len() as u64);
                Ok(stats)
            })?;
        let mut out = Vec::with_capacity(queries.len());
        let mut measured_total = 0usize;
        let mut merged: Vec<(f64, usize)> = Vec::new();
        for qi in 0..queries.len() {
            merged.clear();
            let mut measured = 0usize;
            let (bi, off) = (qi / block, qi % block);
            for si in 0..n_shards {
                let stats = &partials[bi * n_shards + si][off];
                measured += stats.measured;
                for (&d, &local) in stats.distances.iter().zip(&stats.retrieved) {
                    merged.push((d, local * n_shards + si));
                }
            }
            // (distance, global id) is a strict total order over distinct
            // entries — the merge is deterministic however shards raced.
            merged.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            merged.truncate(k);
            measured_total += measured;
            out.push(SearchStats {
                retrieved: merged.iter().map(|&(_, id)| id).collect(),
                distances: merged.iter().map(|&(d, _)| d).collect(),
                measured,
                total: self.total,
            });
        }
        let batch = BatchStats {
            queries: queries.len(),
            measured: measured_total,
            candidates: queries.len() * self.total,
        };
        Ok((out, batch))
    }

    /// ε-range search over all shards, merged by `(distance, global id)`.
    ///
    /// # Errors
    ///
    /// Propagates distance-computation failures.
    pub fn range(&self, q: &Query, epsilon: f64) -> Result<SearchStats> {
        let _span = sapla_obs::span!("engine.range");
        let n_shards = self.shards.len();
        let mut merged: Vec<(f64, usize)> = Vec::new();
        let mut measured = 0usize;
        for (si, shard) in self.shards.iter().enumerate() {
            let stats = shard.range(q, epsilon, self.scheme.as_ref())?;
            measured += stats.measured;
            for (&d, &local) in stats.distances.iter().zip(&stats.retrieved) {
                merged.push((d, local * n_shards + si));
            }
        }
        merged.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Ok(SearchStats {
            retrieved: merged.iter().map(|&(_, id)| id).collect(),
            distances: merged.iter().map(|&(d, _)| d).collect(),
            measured,
            total: self.total,
        })
    }

    /// The indexed representations in global-id order (reassembled from
    /// the shards).
    #[must_use]
    pub fn reps(&self) -> Vec<Representation> {
        let n_shards = self.shards.len();
        let mut out = Vec::with_capacity(self.total);
        for g in 0..self.total {
            out.push(self.shards[g % n_shards].index.reps().rep(g / n_shards).to_representation());
        }
        out
    }

    /// The additive `Dist_LB` slack carried by this engine's trees —
    /// `0.0` unless the engine descends from a quantized snapshot (see
    /// [`Engine::write_snapshot_file`]).
    #[must_use]
    pub fn lb_slack(&self) -> f64 {
        self.lb_slack
    }

    /// Serialize the **whole** engine — raw series, representations
    /// (exact SoA coefficient arenas, or ε-quantized ones when
    /// `quantize` is set), and every shard's fully-built tree — into
    /// the `sapla-store` arena container, in memory.
    ///
    /// Loading the image with [`Engine::from_snapshot_image`] skips
    /// reduction *and* the O(n log n) tree build: arenas are validated,
    /// reinterpreted, and adopted verbatim.
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::UnsupportedRepresentation`] when `quantize`
    /// is combined with an R-tree engine, non-linear representations,
    /// or an engine that already descends from a quantized snapshot
    /// ([`Engine::lb_slack`] `> 0`: the new slack would bound only the
    /// second rounding); encoding failures otherwise.
    pub fn snapshot_image(&self, quantize: Option<f64>) -> Result<Vec<u8>> {
        crate::snapshot::write_image(self, quantize)
    }

    /// [`Engine::snapshot_image`] + write the image to `path`,
    /// returning the file size in bytes.
    ///
    /// # Errors
    ///
    /// Encoding failures, plus [`sapla_core::Error::Io`] on filesystem
    /// failures.
    pub fn write_snapshot_file(
        &self,
        path: &std::path::Path,
        quantize: Option<f64>,
    ) -> Result<u64> {
        let _span = sapla_obs::span!("engine.snapshot.write");
        crate::snapshot::write_file(self, path, quantize)
    }

    /// Reconstruct an engine from a snapshot image produced by
    /// [`Engine::snapshot_image`]: O(file size) validation and bulk
    /// materialization, no reduction, no insertion build.
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::CorruptIndex`] for any malformed, truncated
    /// or tampered image (never a panic); scheme/reducer resolution
    /// failures for unknown method names.
    pub fn from_snapshot_image(data: &[u8]) -> Result<Engine> {
        crate::snapshot::load_image(data)
    }

    /// Read `path` and reconstruct the engine it holds — the daemon
    /// cold-start path.
    ///
    /// # Errors
    ///
    /// [`sapla_core::Error::Io`] on filesystem failures, otherwise as
    /// [`Engine::from_snapshot_image`].
    pub fn from_snapshot_file(path: &std::path::Path) -> Result<Engine> {
        let _span = sapla_obs::span!("engine.snapshot.load");
        crate::snapshot::load_file(path)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sapla_baselines::SaplaReducer;

    pub(crate) fn dataset(n_series: usize, len: usize) -> Vec<TimeSeries> {
        (0..n_series)
            .map(|i| {
                TimeSeries::new(
                    (0..len)
                        .map(|t| {
                            ((t + i * 13) as f64 * 0.19).sin() * (1.0 + (i % 4) as f64 * 0.3)
                                + (i as f64 * 0.37).cos() * 0.4
                        })
                        .collect(),
                )
                .unwrap()
                .znormalized()
            })
            .collect()
    }

    pub(crate) fn engine_with(shards: usize, tree: TreeKind, raws: &[TimeSeries]) -> Engine {
        let cfg = EngineConfig { shards, tree, ..EngineConfig::default() };
        Engine::build(cfg, Box::new(SaplaReducer::new()), raws.to_vec(), 2).unwrap()
    }

    #[test]
    fn sharded_results_are_thread_count_invariant() {
        let raws = dataset(60, 64);
        for shards in [2usize, 3, 4] {
            let engine = engine_with(shards, TreeKind::Dbch, &raws);
            let queries = engine.prepare(&raws[..8], 2).unwrap();
            let (want, want_batch) = engine.knn(&queries, 4, 1).unwrap();
            for threads in [2usize, 4, 7] {
                let (got, got_batch) = engine.knn(&queries, 4, threads).unwrap();
                assert_eq!(got, want, "shards = {shards}, threads = {threads}");
                assert_eq!(got_batch, want_batch);
            }
        }
    }

    #[test]
    fn sharded_full_enumeration_matches_single_tree() {
        // With k = |database| nothing can be pruned away structurally:
        // every entry is retrieved, so shard layout must not change the
        // answer set or its (distance, id) order.
        let raws = dataset(30, 64);
        let single = engine_with(1, TreeKind::Dbch, &raws);
        let queries = single.prepare(&raws[..5], 2).unwrap();
        let (want, _) = single.knn(&queries, raws.len(), 2).unwrap();
        for shards in [2usize, 3] {
            let engine = engine_with(shards, TreeKind::Dbch, &raws);
            let (got, _) = engine.knn(&queries, raws.len(), 2).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.retrieved, w.retrieved, "shards = {shards}");
                for (gd, wd) in g.distances.iter().zip(&w.distances) {
                    assert_eq!(gd.to_bits(), wd.to_bits(), "shards = {shards}");
                }
            }
        }
    }

    #[test]
    fn rtree_engine_answers_whole_batches() {
        let raws = dataset(40, 64);
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let engine = engine_with(1, TreeKind::Rtree, &raws);
        let queries = engine.prepare(&raws[..6], 2).unwrap();
        let (got, batch) = engine.knn(&queries, 3, 2).unwrap();
        assert_eq!(got.len(), 6);
        assert_eq!(batch.queries, 6);
        assert_eq!(batch.candidates, 6 * raws.len());
        // Sequential reference loop over the same tree.
        let reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let tree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        for (qi, q) in queries.iter().enumerate() {
            let want = tree.knn(q, 3, scheme.as_ref(), &raws).unwrap();
            assert_eq!(got[qi], want, "query {qi}");
        }
    }

    #[test]
    fn range_merge_matches_single_tree_on_one_shard() {
        let raws = dataset(35, 64);
        let engine = engine_with(1, TreeKind::Dbch, &raws);
        let queries = engine.prepare(&raws[..3], 2).unwrap();
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let tree = DbchTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        for q in &queries {
            let want = tree.range(q, 4.0, scheme.as_ref(), &raws).unwrap();
            let got = engine.range(q, 4.0).unwrap();
            assert_eq!(got, want);
            assert!(!got.retrieved.is_empty(), "query itself is within epsilon");
        }
    }

    #[test]
    fn sharded_range_is_the_union_of_shard_hits() {
        let raws = dataset(40, 64);
        let single = engine_with(1, TreeKind::Dbch, &raws);
        let queries = single.prepare(&raws[..4], 2).unwrap();
        for shards in [2usize, 3] {
            let engine = engine_with(shards, TreeKind::Dbch, &raws);
            for q in &queries {
                let want = single.range(q, 5.0).unwrap();
                let got = engine.range(q, 5.0).unwrap();
                // Range is exact (every surviving candidate is measured
                // against epsilon), so the hit set is shard-invariant.
                assert_eq!(got.retrieved, want.retrieved, "shards = {shards}");
            }
        }
    }

    #[test]
    fn snapshot_image_roundtrip_is_bit_identical() {
        let raws = dataset(40, 64);
        for shards in [1usize, 3] {
            let engine = engine_with(shards, TreeKind::Dbch, &raws);
            let queries = engine.prepare(&raws[..6], 2).unwrap();
            let (want, _) = engine.knn(&queries, 4, 2).unwrap();
            let image = engine.snapshot_image(None).unwrap();
            let loaded = Engine::from_snapshot_image(&image).unwrap();
            assert_eq!(loaded.len(), engine.len());
            assert_eq!(loaded.shard_count(), engine.shard_count());
            assert_eq!(loaded.method(), engine.method());
            assert_eq!(loaded.config(), engine.config());
            assert_eq!(loaded.lb_slack(), 0.0);
            let (got, _) = loaded.knn(&queries, 4, 2).unwrap();
            // Includes `measured`: the loaded tree replays the exact
            // same traversal, not just the same answers.
            assert_eq!(got, want, "shards = {shards}");
            for (g, w) in got.iter().zip(&want) {
                for (gd, wd) in g.distances.iter().zip(&w.distances) {
                    assert_eq!(gd.to_bits(), wd.to_bits(), "shards = {shards}");
                }
            }
        }
    }

    #[test]
    fn rtree_snapshot_roundtrip_preserves_answers() {
        let raws = dataset(36, 64);
        let engine = engine_with(2, TreeKind::Rtree, &raws);
        let queries = engine.prepare(&raws[..5], 2).unwrap();
        let (want, _) = engine.knn(&queries, 3, 2).unwrap();
        let loaded = Engine::from_snapshot_image(&engine.snapshot_image(None).unwrap()).unwrap();
        let (got, _) = loaded.knn(&queries, 3, 2).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn constant_rep_snapshot_takes_the_blob_path() {
        // PAA produces Constant representations — no SoA arenas, the
        // hardened codec blob carries the collection instead.
        let raws = dataset(24, 64);
        let cfg = EngineConfig { shards: 2, ..EngineConfig::default() };
        let engine = Engine::build(cfg, Box::new(sapla_baselines::Paa), raws.clone(), 2).unwrap();
        let queries = engine.prepare(&raws[..4], 2).unwrap();
        let (want, _) = engine.knn(&queries, 3, 2).unwrap();
        let loaded = Engine::from_snapshot_image(&engine.snapshot_image(None).unwrap()).unwrap();
        assert_eq!(loaded.method(), "PAA");
        let (got, _) = loaded.knn(&queries, 3, 2).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn quantized_snapshot_loads_with_slack_and_finds_self() {
        let raws = dataset(40, 64);
        let engine = engine_with(1, TreeKind::Dbch, &raws);
        let exact = engine.snapshot_image(None).unwrap();
        let image = engine.snapshot_image(Some(1e-3)).unwrap();
        assert!(image.len() < exact.len(), "{} vs {}", image.len(), exact.len());
        let loaded = Engine::from_snapshot_image(&image).unwrap();
        assert!(loaded.lb_slack() > 0.0);
        let queries = engine.prepare(&raws[..6], 2).unwrap();
        let (got, _) = loaded.knn(&queries, 3, 2).unwrap();
        // Refinement distances are exact Euclidean over the raw series
        // (which the snapshot keeps bitwise), so every query still
        // finds itself at distance zero.
        for (qi, s) in got.iter().enumerate() {
            assert_eq!(s.retrieved[0], qi, "query {qi}");
            assert_eq!(s.distances[0], 0.0);
        }
    }

    #[test]
    fn quantize_rejects_rtree_and_bad_steps() {
        let raws = dataset(16, 64);
        let rt = engine_with(1, TreeKind::Rtree, &raws);
        assert!(rt.snapshot_image(Some(0.01)).is_err());
        let db = engine_with(1, TreeKind::Dbch, &raws);
        assert!(db.snapshot_image(Some(0.0)).is_err());
        assert!(db.snapshot_image(Some(-1.0)).is_err());
        assert!(db.snapshot_image(Some(f64::NAN)).is_err());
    }

    #[test]
    fn snapshot_file_roundtrip_via_disk() {
        let raws = dataset(20, 64);
        let engine = engine_with(2, TreeKind::Dbch, &raws);
        let path = sapla_core::temp::TempPath::new("sapla-engine-roundtrip", ".snap");
        let bytes = engine.write_snapshot_file(path.path(), None).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
        let loaded = Engine::from_snapshot_file(path.path()).unwrap();
        assert_eq!(loaded.len(), 20);
        assert_eq!(loaded.shard_count(), 2);
    }

    #[test]
    fn reload_keeps_quantized_slack() {
        // An engine descended from a quantized snapshot keeps its slack
        // through an exact re-save and load: the reps stay perturbed
        // relative to the raws whatever format they are written in.
        let raws = dataset(24, 64);
        for shards in [1usize, 3] {
            let engine = engine_with(shards, TreeKind::Dbch, &raws);
            let loaded =
                Engine::from_snapshot_image(&engine.snapshot_image(Some(0.01)).unwrap()).unwrap();
            assert!(loaded.lb_slack() > 0.0);
            let re = Engine::from_snapshot_image(&loaded.snapshot_image(None).unwrap()).unwrap();
            assert_eq!(re.lb_slack().to_bits(), loaded.lb_slack().to_bits());
            for (a, b) in re.shards.iter().zip(&loaded.shards) {
                let (ShardIndex::Dbch(a), ShardIndex::Dbch(b)) = (&a.index, &b.index) else {
                    panic!("quantized engines are DBCH-backed");
                };
                assert_eq!(a.lb_slack.to_bits(), b.lb_slack.to_bits(), "shards = {shards}");
            }
            // A second rounding's slack would not bound the first's.
            assert!(matches!(
                loaded.snapshot_image(Some(0.01)),
                Err(Error::UnsupportedRepresentation { .. })
            ));
        }
    }

    #[test]
    fn from_parts_refuses_reps_that_cover_another_length_than_the_series() {
        // Such an engine would build and then fail every search.
        let raws = dataset(12, 64);
        let reducer = SaplaReducer::new();
        let reps: Vec<_> =
            dataset(12, 100).iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        for (shards, tree) in [(1usize, TreeKind::Dbch), (3, TreeKind::Dbch), (2, TreeKind::Rtree)]
        {
            let cfg = EngineConfig { shards, tree, ..EngineConfig::default() };
            let built =
                Engine::from_parts(cfg, Box::new(reducer.clone()), reps.clone(), raws.clone());
            assert_eq!(
                built.map(|_| ()).unwrap_err(),
                Error::LengthMismatch { left: 64, right: 100 },
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn tree_kind_parses_both_ways() {
        assert_eq!(TreeKind::parse("dbch").unwrap(), TreeKind::Dbch);
        assert_eq!(TreeKind::parse("rtree").unwrap(), TreeKind::Rtree);
        assert!(TreeKind::parse("btree").is_err());
        assert_eq!(TreeKind::Dbch.name(), "dbch");
        assert_eq!(TreeKind::Rtree.name(), "rtree");
    }
}
