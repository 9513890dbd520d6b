//! End-to-end pins for the SIMD dispatch and the engine's chunked
//! scatter: whatever SIMD level is forced, and with queries spread over
//! two full chunks of [`DEFAULT_QUERY_BLOCK`] and a ragged one, every
//! search path — DBCH-tree, R-tree, one-shard and sharded engine — must
//! return bit-for-bit the scalar query-at-a-time answers.
//!
//! Everything runs inside one `#[test]` because `simd::force` is
//! process-global: parallel test threads would race the dispatch level.

use sapla_baselines::{Reducer, SaplaReducer};
use sapla_core::simd::{self, supported_levels, SimdLevel};
use sapla_core::TimeSeries;
use sapla_index::{
    prepare_queries, scheme_for, DbchTree, Engine, EngineConfig, RTree, SearchStats,
    DEFAULT_QUERY_BLOCK,
};

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

fn assert_bitwise_eq(got: &[SearchStats], want: &[SearchStats], what: &str) {
    assert_eq!(got, want, "{what}");
    for (g, w) in got.iter().zip(want) {
        for (gd, wd) in g.distances.iter().zip(&w.distances) {
            assert_eq!(gd.to_bits(), wd.to_bits(), "{what}");
        }
    }
}

#[test]
fn every_simd_level_and_block_size_matches_scalar_query_at_a_time() {
    let raws = dataset(48, 64);
    let reducer = SaplaReducer::new();
    let scheme = scheme_for("SAPLA").unwrap();
    let reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
    let dbch = DbchTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
    let rtree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
    let engine = |shards| {
        let cfg = EngineConfig { shards, ..EngineConfig::default() };
        Engine::build(cfg, Box::new(SaplaReducer::new()), raws.clone(), 2).unwrap()
    };
    let (single, sharded) = (engine(1), engine(3));
    // The engine chunks queries by DEFAULT_QUERY_BLOCK: two full chunks
    // and a ragged one.
    let queries = prepare_queries(&raws[..2 * DEFAULT_QUERY_BLOCK + 3], &reducer, 12, 2).unwrap();

    // Scalar query-at-a-time references for every path.
    simd::force(SimdLevel::Scalar).unwrap();
    let dbch_ref: Vec<SearchStats> =
        queries.iter().map(|q| dbch.knn(q, 5, scheme.as_ref(), &raws).unwrap()).collect();
    let rtree_ref: Vec<SearchStats> =
        queries.iter().map(|q| rtree.knn(q, 5, scheme.as_ref(), &raws).unwrap()).collect();
    let (sharded_ref, _) = sharded.knn(&queries, 5, 1).unwrap();

    for level in supported_levels() {
        simd::force(level).unwrap();
        let name = level.name();
        // Query-at-a-time under the forced level.
        let dbch_seq: Vec<SearchStats> =
            queries.iter().map(|q| dbch.knn(q, 5, scheme.as_ref(), &raws).unwrap()).collect();
        assert_bitwise_eq(&dbch_seq, &dbch_ref, name);
        let rtree_got: Vec<SearchStats> =
            queries.iter().map(|q| rtree.knn(q, 5, scheme.as_ref(), &raws).unwrap()).collect();
        assert_bitwise_eq(&rtree_got, &rtree_ref, name);
        // Query chunks through the engine's scatter path: one shard is
        // the sequential DBCH loop, three add the merge.
        for threads in [1usize, 2, 4, 7] {
            let (got, _) = single.knn(&queries, 5, threads).unwrap();
            assert_bitwise_eq(&got, &dbch_ref, &format!("{name} one shard x{threads}"));
            let (got, _) = sharded.knn(&queries, 5, threads).unwrap();
            assert_bitwise_eq(&got, &sharded_ref, &format!("{name} sharded x{threads}"));
        }
    }
    // Leave the process on the auto-detected level for any later tests.
    simd::force(simd::detect()).unwrap();
}
