//! The two pieces of the parallel batch path that callers share with
//! [`crate::Engine`]: [`prepare_queries`] (query reduction fanned out
//! over the parallel engine, one warm [`ReduceScratch`] per worker)
//! and [`BatchStats`] (the batch-wide counters [`crate::Engine::knn`]
//! returns beside the per-query results).
//!
//! The tests here pin what [`crate::Engine::build`] / `knn` promise of
//! that fan-out: results are **bit-for-bit** the sequential build +
//! [`DbchTree::knn`](crate::DbchTree::knn) loop's at any thread count,
//! scratch reuse does not perturb distances, and errors surface
//! first-by-input-order (see `sapla-parallel`).

use sapla_baselines::{ReduceScratch, Reducer};
use sapla_core::{Result, TimeSeries};
use sapla_parallel::par_try_map_init;

use crate::scheme::Query;

/// Batch-wide search counters: the sum of the per-query stats of one
/// [`crate::Engine::knn`] call.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbch::{DbchTree, NodeDistRule};
    use crate::engine::tests::engine_with;
    use crate::engine::{Engine, EngineConfig, ShardIndex, TreeKind};
    use crate::knn::{KnnScratch, SearchStats};
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

    /// The fully sequential pipeline: one reduction after another, then
    /// the insertion build.
    fn sequential_tree(raws: &[TimeSeries]) -> DbchTree {
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        DbchTree::build_with_rule(scheme.as_ref(), reps, 2, 5, NodeDistRule::Paper).unwrap()
    }

    fn assert_bitwise_eq(got: &[SearchStats], want: &[SearchStats], what: &str) {
        assert_eq!(got, want, "{what}");
        for (g, w) in got.iter().zip(want) {
            for (gd, wd) in g.distances.iter().zip(&w.distances) {
                assert_eq!(gd.to_bits(), wd.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn parallel_ingest_is_bit_identical_to_sequential_build() {
        let raws = dataset(40, 64);
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let seq_tree = sequential_tree(&raws);
        for threads in [1usize, 2, 4, 7] {
            let cfg = EngineConfig::default();
            let engine =
                Engine::build(cfg, Box::new(SaplaReducer::new()), raws.clone(), threads).unwrap();
            let ShardIndex::Dbch(par_tree) = &engine.shards[0].index else {
                panic!("the default engine is DBCH-backed");
            };
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
        let scheme = scheme_for("SAPLA").unwrap();
        let tree = sequential_tree(&raws);
        let engine = engine_with(1, TreeKind::Dbch, &raws);
        // Three blocks, the last one ragged.
        let queries = prepare_queries(&raws[..37], &SaplaReducer::new(), 12, 4).unwrap();
        let sequential: Vec<SearchStats> =
            queries.iter().map(|q| tree.knn(q, 5, scheme.as_ref(), &raws).unwrap()).collect();
        for threads in [1usize, 2, 4, 7] {
            let (per_query, batch) = engine.knn(&queries, 5, threads).unwrap();
            assert_bitwise_eq(&per_query, &sequential, &format!("threads = {threads}"));
            assert_eq!(
                batch.measured,
                sequential.iter().map(|s| s.measured).sum::<usize>(),
                "the aggregate must equal the per-query sum"
            );
            assert_eq!(batch.queries, queries.len());
            assert_eq!(batch.candidates, queries.len() * tree.len());
            assert!(batch.pruning_power() <= 1.0);
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let raws = dataset(30, 64);
        let reducer = SaplaReducer::new();
        let scheme = scheme_for("SAPLA").unwrap();
        let tree = sequential_tree(&raws);
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
        let engine = engine_with(1, TreeKind::Dbch, &raws);
        // Queries over a different series length fail in rep_dist with a
        // LengthMismatch carrying the query length — plant one failing
        // length in each of the batch's two blocks and check the earlier
        // query's error wins on every thread count.
        let bad_a = dataset(1, 32).pop().unwrap();
        let bad_b = dataset(1, 48).pop().unwrap();
        let mut queries = prepare_queries(&raws, &reducer, 12, 2).unwrap();
        queries[2] = Query::new(&bad_a, &reducer, 12).unwrap();
        queries[crate::DEFAULT_QUERY_BLOCK + 1] = Query::new(&bad_b, &reducer, 12).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let err = engine.knn(&queries, 3, threads).unwrap_err();
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
