//! Parallel ingest and parallel multi-query k-NN over one [`DbchTree`].
//!
//! Two hot paths of the paper's protocol parallelise cleanly:
//!
//! * **Ingest** — reducing the raw series is embarrassingly parallel and
//!   dominates build time (APLA-family reductions are `O(N n²)`), so
//!   [`ingest_parallel`] fans the reduction out over the work-stealing
//!   engine and then builds the tree *sequentially*: DBCH insertion is
//!   order-dependent, and keeping it sequential makes the parallel tree
//!   structurally identical to the sequential one.
//! * **Multi-query k-NN** — each search only reads the tree, so
//!   [`knn_batch`] chunks queries into contiguous blocks and fans the
//!   blocks out across workers; each block runs through the query-major
//!   co-scheduled driver ([`crate::batched`]), which evaluates every
//!   query that reaches a leaf in the same round back-to-back while the
//!   leaf's entries are cache-hot. Every worker owns one
//!   [`crate::knn::KnnScratch`] (per-query search state, pending pairs)
//!   created once and reused for all its blocks, and batch-wide counters
//!   aggregate lock-free over atomics while the searches run.
//!
//! Both paths return **bit-for-bit** the sequential results for any
//! thread count: output order is input order, scratch reuse does not
//! perturb distances, and errors surface first-by-input-order (see
//! `sapla-parallel`).

use std::sync::atomic::{AtomicUsize, Ordering};

use sapla_baselines::{reduce_batch_parallel, ReduceScratch, Reducer};
use sapla_core::{Result, TimeSeries};
use sapla_parallel::par_try_map_init;

use crate::batched::{knn_query_major, DEFAULT_QUERY_BLOCK};
use crate::dbch::{DbchTree, NodeDistRule};
use crate::knn::{KnnScratch, SearchStats};
use crate::scheme::{Query, Scheme};

/// Batch-wide search counters, aggregated lock-free (atomic adds from
/// every worker) while a [`knn_batch`] run is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of queries searched.
    pub queries: usize,
    /// Exact-distance computations summed over all queries.
    pub measured: usize,
    /// Candidate pool summed over all queries (`queries × database`).
    pub candidates: usize,
}

impl BatchStats {
    /// Batch pruning power (Eq. 14 summed over the batch): fraction of
    /// all query-candidate pairs that had to be measured exactly.
    pub fn pruning_power(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.measured as f64 / self.candidates as f64
        }
    }
}

/// Reduce `series` in parallel and build a DBCH-tree over the results.
///
/// Reduction runs on up to `threads` work-stealing workers (`0` = the
/// hardware count); the insertion loop itself stays sequential so the
/// tree is structurally identical to
/// [`DbchTree::build_with_rule`] over the same inputs — searches return
/// bit-for-bit the same answers regardless of `threads`.
///
/// # Errors
///
/// Propagates the earliest (by input order) reduction failure, and any
/// distance failure from tree construction.
#[allow(clippy::too_many_arguments)] // mirrors DbchTree::build_with_rule + threads
pub fn ingest_parallel(
    scheme: &dyn Scheme,
    reducer: &dyn Reducer,
    series: &[TimeSeries],
    m: usize,
    min_fill: usize,
    max_fill: usize,
    rule: NodeDistRule,
    threads: usize,
) -> Result<DbchTree> {
    let _span = sapla_obs::span!("index.ingest");
    let reps = reduce_batch_parallel(reducer, series, m, threads)?;
    DbchTree::build_with_rule(scheme, reps, min_fill, max_fill, rule)
}

/// Prepare many queries in parallel (reduction dominates `Query::new`).
/// Each worker owns one [`ReduceScratch`] reused across its queries.
/// Output order is input order; the first failure by input order wins.
///
/// # Errors
///
/// Propagates the earliest (by input order) reduction failure.
pub fn prepare_queries(
    raws: &[TimeSeries],
    reducer: &dyn Reducer,
    m: usize,
    threads: usize,
) -> Result<Vec<Query>> {
    par_try_map_init(raws, threads, ReduceScratch::new, |scratch, _, raw| {
        Query::with_scratch(raw, reducer, m, scratch)
    })
}

/// Answer many k-NN queries against one tree on up to `threads`
/// work-stealing workers (`0` = the hardware count), with the default
/// query-major block size ([`DEFAULT_QUERY_BLOCK`]).
///
/// Per-query results come back in query order and are **bit-for-bit**
/// what a sequential [`DbchTree::knn`] loop returns — searches are
/// read-only, per-worker scratch reuse does not perturb distances, and
/// the query-major co-scheduling only reorders *which query runs next*,
/// never a query's own operation sequence (see [`crate::batched`]). The
/// returned [`BatchStats`] is aggregated lock-free while the batch runs
/// and always equals the sum over the per-query stats.
///
/// # Errors
///
/// Propagates the earliest (by query order) search failure.
pub fn knn_batch(
    tree: &DbchTree,
    queries: &[Query],
    k: usize,
    scheme: &dyn Scheme,
    raws: &[TimeSeries],
    threads: usize,
) -> Result<(Vec<SearchStats>, BatchStats)> {
    knn_batch_with_block(tree, queries, k, scheme, raws, threads, DEFAULT_QUERY_BLOCK)
}

/// [`knn_batch`] with an explicit query-major block size: queries are
/// chunked into contiguous blocks of `query_block` (≥ 1), each block is
/// answered by [`crate::batched`]'s round-based co-scheduled driver on
/// one worker, and blocks fan out over the work-stealing engine.
/// `query_block = 1` degenerates to query-at-a-time; results are
/// bit-identical at every block size and thread count (the perf harness
/// sweeps 1/4/16).
///
/// # Errors
///
/// Propagates the earliest (by query order) search failure.
#[allow(clippy::too_many_arguments)] // knn_batch + the block-size knob
pub fn knn_batch_with_block(
    tree: &DbchTree,
    queries: &[Query],
    k: usize,
    scheme: &dyn Scheme,
    raws: &[TimeSeries],
    threads: usize,
    query_block: usize,
) -> Result<(Vec<SearchStats>, BatchStats)> {
    let _span = sapla_obs::span!("index.knn_batch");
    let measured = AtomicUsize::new(0);
    let chunks: Vec<&[Query]> = queries.chunks(query_block.max(1)).collect();
    let per_chunk = par_try_map_init(&chunks, threads, KnnScratch::new, |scratch, _, &chunk| {
        let stats = knn_query_major(tree, chunk, k, scheme, raws, scratch)?;
        measured.fetch_add(stats.iter().map(|s| s.measured).sum(), Ordering::Relaxed);
        Ok(stats)
    })?;
    let per_query: Vec<SearchStats> = per_chunk.into_iter().flatten().collect();
    let batch = BatchStats {
        queries: queries.len(),
        measured: measured.into_inner(),
        candidates: queries.len() * tree.len(),
    };
    Ok((per_query, batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::scheme_for;
    use sapla_baselines::SaplaReducer;
    use sapla_core::Error;

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

    #[test]
    fn parallel_ingest_is_bit_identical_to_sequential_build() {
        let raws = dataset(40, 64);
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let seq_reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let seq_tree =
            DbchTree::build_with_rule(scheme.as_ref(), seq_reps, 2, 5, NodeDistRule::Paper)
                .unwrap();
        for threads in [1usize, 2, 4, 7] {
            let par_tree = ingest_parallel(
                scheme.as_ref(),
                &reducer,
                &raws,
                12,
                2,
                5,
                NodeDistRule::Paper,
                threads,
            )
            .unwrap();
            assert_eq!(par_tree.shape(), seq_tree.shape(), "threads = {threads}");
            for qi in [0usize, 7, 19] {
                let q = Query::new(&raws[qi], &reducer, 12).unwrap();
                let a = seq_tree.knn(&q, 5, scheme.as_ref(), &raws).unwrap();
                let b = par_tree.knn(&q, 5, scheme.as_ref(), &raws).unwrap();
                assert_eq!(a, b, "threads = {threads}, query {qi}");
            }
        }
    }

    #[test]
    fn knn_batch_matches_sequential_loop_bit_for_bit() {
        let raws = dataset(50, 64);
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let tree =
            ingest_parallel(scheme.as_ref(), &reducer, &raws, 12, 2, 5, NodeDistRule::Paper, 4)
                .unwrap();
        let queries = prepare_queries(&raws[..12], &reducer, 12, 4).unwrap();
        let sequential: Vec<SearchStats> =
            queries.iter().map(|q| tree.knn(q, 5, scheme.as_ref(), &raws).unwrap()).collect();
        for threads in [1usize, 2, 4, 7] {
            let (per_query, batch) =
                knn_batch(&tree, &queries, 5, scheme.as_ref(), &raws, threads).unwrap();
            assert_eq!(per_query, sequential, "threads = {threads}");
            // Exact-distance bitwise agreement, not just approximate.
            for (p, s) in per_query.iter().zip(&sequential) {
                for (pd, sd) in p.distances.iter().zip(&s.distances) {
                    assert_eq!(pd.to_bits(), sd.to_bits());
                }
            }
            assert_eq!(
                batch.measured,
                sequential.iter().map(|s| s.measured).sum::<usize>(),
                "lock-free aggregate must equal the per-query sum"
            );
            assert_eq!(batch.queries, queries.len());
            assert_eq!(batch.candidates, queries.len() * tree.len());
            assert!(batch.pruning_power() <= 1.0);
        }
    }

    #[test]
    fn query_block_size_never_changes_results() {
        let raws = dataset(60, 64);
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let tree =
            ingest_parallel(scheme.as_ref(), &reducer, &raws, 12, 2, 5, NodeDistRule::Paper, 2)
                .unwrap();
        let queries = prepare_queries(&raws[..17], &reducer, 12, 2).unwrap();
        let sequential: Vec<SearchStats> =
            queries.iter().map(|q| tree.knn(q, 5, scheme.as_ref(), &raws).unwrap()).collect();
        for block in [1usize, 4, 16, 64] {
            for threads in [1usize, 2, 4, 7] {
                let (per_query, _) = knn_batch_with_block(
                    &tree,
                    &queries,
                    5,
                    scheme.as_ref(),
                    &raws,
                    threads,
                    block,
                )
                .unwrap();
                assert_eq!(per_query, sequential, "block = {block}, threads = {threads}");
                for (p, s) in per_query.iter().zip(&sequential) {
                    for (pd, sd) in p.distances.iter().zip(&s.distances) {
                        assert_eq!(pd.to_bits(), sd.to_bits(), "block = {block}");
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let raws = dataset(30, 64);
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let tree =
            ingest_parallel(scheme.as_ref(), &reducer, &raws, 12, 2, 5, NodeDistRule::Paper, 0)
                .unwrap();
        let mut reused = KnnScratch::new();
        for qi in 0..10 {
            let q = Query::new(&raws[qi], &reducer, 12).unwrap();
            let fresh = tree.knn(&q, 4, scheme.as_ref(), &raws).unwrap();
            let warm = tree.knn_with_scratch(&q, 4, scheme.as_ref(), &raws, &mut reused).unwrap();
            assert_eq!(fresh, warm, "query {qi}");
        }
    }

    #[test]
    fn batch_errors_surface_first_by_query_order() {
        let raws = dataset(20, 64);
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let tree =
            ingest_parallel(scheme.as_ref(), &reducer, &raws, 12, 2, 5, NodeDistRule::Paper, 2)
                .unwrap();
        // Queries over a different series length fail in rep_dist with a
        // LengthMismatch carrying the query length — plant two failing
        // lengths and check the earlier query's error wins on every
        // thread count.
        let bad_a = dataset(1, 32).pop().unwrap();
        let bad_b = dataset(1, 48).pop().unwrap();
        let mut queries = prepare_queries(&raws[..8], &reducer, 12, 2).unwrap();
        queries[2] = Query::new(&bad_a, &reducer, 12).unwrap();
        queries[6] = Query::new(&bad_b, &reducer, 12).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let err = knn_batch(&tree, &queries, 3, scheme.as_ref(), &raws, threads).unwrap_err();
            match err {
                Error::LengthMismatch { left, right } => {
                    assert!(
                        left.min(right) == 32,
                        "threads = {threads}: expected the index-2 query's \
                         mismatch, got {left} vs {right}"
                    );
                }
                other => panic!("unexpected error: {other:?}"),
            }
        }
    }
}
