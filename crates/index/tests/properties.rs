//! Property-based tests over the index structures: GEMINI exactness for
//! valid bounds, structural invariants, and build/insert equivalence.

use proptest::prelude::*;
use sapla_baselines::{reduce_batch, reduce_batch_parallel, Paa, Pla, Reducer, SaplaReducer};
use sapla_core::{Representation, TimeSeries};
use sapla_index::scheme::AdaptiveLinearScheme;
use sapla_index::{
    linear_scan_knn, linear_scan_range, scheme_for, DbchTree, Engine, EngineConfig, NodeDistRule,
    Query, RTree, Scheme,
};

/// Random small database of regime-style series.
fn db_strategy(n_series: std::ops::Range<usize>) -> impl Strategy<Value = Vec<TimeSeries>> {
    (
        n_series,
        proptest::collection::vec((-3.0f64..3.0, -0.2f64..0.2, 0.0f64..std::f64::consts::TAU), 40),
    )
        .prop_map(|(count, params)| {
            (0..count)
                .map(|i| {
                    let (lvl, slope, phase) = params[i % params.len()];
                    TimeSeries::new(
                        (0..48)
                            .map(|t| {
                                let x = t as f64;
                                lvl + slope * x + ((x * 0.4) + phase + i as f64).sin()
                            })
                            .collect(),
                    )
                    .unwrap()
                    .znormalized()
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With PAA's unconditional bounds, the R-tree k-NN equals the linear
    /// scan for every k (GEMINI's no-false-dismissal guarantee).
    #[test]
    fn rtree_paa_knn_is_exact(raws in db_strategy(8..30), k in 1usize..6) {
        let scheme = scheme_for("PAA").unwrap();
        let reps: Vec<Representation> =
            raws.iter().map(|s| Paa.reduce(s, 8).unwrap()).collect();
        let tree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        let q = Query::new(&raws[0], &Paa, 8).unwrap();
        let got = tree.knn(&q, k, scheme.as_ref(), &raws).unwrap();
        let want = linear_scan_knn(&raws[0], &raws, k).unwrap();
        prop_assert_eq!(got.retrieved, want.retrieved);
    }

    /// Same guarantee for PLA, through range queries.
    #[test]
    fn rtree_pla_range_is_exact(raws in db_strategy(8..30), eps in 0.5f64..15.0) {
        let scheme = scheme_for("PLA").unwrap();
        let reps: Vec<Representation> =
            raws.iter().map(|s| Pla.reduce(s, 8).unwrap()).collect();
        let tree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        let q = Query::new(&raws[0], &Pla, 8).unwrap();
        let got = tree.range(&q, eps, scheme.as_ref(), &raws).unwrap();
        let want = linear_scan_range(&raws[0], &raws, eps).unwrap();
        prop_assert_eq!(got.retrieved, want.retrieved);
    }

    /// DBCH structural invariants hold for any database and fill factors.
    #[test]
    fn dbch_shape_invariants(raws in db_strategy(3..40), max_fill in 4usize..9) {
        let scheme = scheme_for("SAPLA").unwrap();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let tree = DbchTree::build(scheme.as_ref(), reps, 2, max_fill).unwrap();
        let shape = tree.shape();
        prop_assert_eq!(shape.entries, raws.len());
        prop_assert!(shape.leaf_nodes >= raws.len().div_ceil(max_fill));
        prop_assert!(shape.height >= 1);
        // Every leaf holds at most max_fill entries on average.
        prop_assert!(shape.avg_leaf_fill() <= max_fill as f64 + 1e-9);
    }

    /// The k-NN result never contains duplicates and is sorted by exact
    /// distance, for both trees.
    #[test]
    fn knn_results_are_sound(raws in db_strategy(6..25), k in 1usize..8) {
        let scheme = scheme_for("SAPLA").unwrap();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let rtree = RTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
        let dbch = DbchTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
        let q = Query::new(&raws[raws.len() - 1], &reducer, 12).unwrap();
        for stats in [
            rtree.knn(&q, k, scheme.as_ref(), &raws).unwrap(),
            dbch.knn(&q, k, scheme.as_ref(), &raws).unwrap(),
        ] {
            prop_assert!(stats.retrieved.len() <= k);
            let mut ids = stats.retrieved.clone();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), stats.retrieved.len(), "duplicates in result");
            prop_assert!(stats.distances.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(stats.measured <= raws.len());
            for (&id, &d) in stats.retrieved.iter().zip(&stats.distances) {
                let exact = q.raw.euclidean(&raws[id]).unwrap();
                prop_assert!((exact - d).abs() < 1e-9);
            }
        }
    }

    /// The query-compiled `Dist_PAR` plan, the SoA leaf kernel, and the
    /// early-abandoning bound change *how* the filter is computed, never
    /// *what* it answers: with the plan on (abandoning on or off) and
    /// with the plan stripped (the stock re-partitioning path), both
    /// trees return bit-identical stats — retrieved ids, exact
    /// distances, and measured counts.
    #[test]
    fn planned_and_abandoning_searches_are_bit_identical(
        raws in db_strategy(6..25),
        k in 1usize..6,
    ) {
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let rtree = RTree::build(&AdaptiveLinearScheme::default(), reps.clone(), 2, 5).unwrap();
        let dbch = DbchTree::build(&AdaptiveLinearScheme::default(), reps, 2, 5).unwrap();
        let planned = Query::new(&raws[0], &reducer, 12).unwrap();
        prop_assert!(planned.plan.is_some(), "SAPLA queries must carry a plan");
        let mut stock = Query::new(&raws[0], &reducer, 12).unwrap();
        stock.plan = None;
        let abandon_on = AdaptiveLinearScheme::default();
        let abandon_off = AdaptiveLinearScheme { abandon: false };
        // (query, scheme) variants; the stripped-plan one is the
        // pre-plan reference implementation.
        let variants: [(&Query, &dyn Scheme, &str); 3] = [
            (&stock, &abandon_on, "stock"),
            (&planned, &abandon_on, "planned+abandon"),
            (&planned, &abandon_off, "planned"),
        ];
        for (path, search) in [
            ("rtree", Box::new(|q: &Query, s: &dyn Scheme| rtree.knn(q, k, s, &raws).unwrap())
                as Box<dyn Fn(&Query, &dyn Scheme) -> sapla_index::SearchStats>),
            ("dbch", Box::new(|q: &Query, s: &dyn Scheme| dbch.knn(q, k, s, &raws).unwrap())),
        ] {
            let want = search(variants[0].0, variants[0].1);
            for &(q, s, name) in &variants[1..] {
                let got = search(q, s);
                prop_assert_eq!(&got, &want, "{} / {}", path, name);
                for (gd, wd) in got.distances.iter().zip(&want.distances) {
                    prop_assert!(gd.to_bits() == wd.to_bits(), "{} / {}", path, name);
                }
            }
        }
    }

    /// Parallel batch reduction is bit-for-bit the sequential one for any
    /// database, segment budget, and thread count.
    #[test]
    fn parallel_reduction_is_bit_identical(
        raws in db_strategy(3..30),
        m in 2usize..6,
    ) {
        let reducer = SaplaReducer::new();
        let budget = 3 * m; // SAPLA coefficients come in ⟨a, b, r⟩ triples.
        let seq = reduce_batch(&reducer, &raws, budget).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let par = reduce_batch_parallel(&reducer, &raws, budget, threads).unwrap();
            prop_assert_eq!(&par, &seq, "threads = {}", threads);
        }
    }

    /// The parallel engine — work-stealing reduction + sequential build,
    /// then `(block, shard)` scatter over the workers — returns, per
    /// query, bit-for-bit what the fully sequential pipeline returns
    /// (one reduction after another, the insertion build, a `knn` loop):
    /// ids, exact distances and measured counts, at every thread count,
    /// and its batch aggregate equals the per-query sum.
    #[test]
    fn parallel_knn_batch_is_bit_identical(
        raws in db_strategy(6..25),
        k in 1usize..6,
        n_queries in 2usize..9,
    ) {
        let scheme = scheme_for("SAPLA").unwrap();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let tree = DbchTree::build_with_rule(
            scheme.as_ref(), reps, 2, 5, NodeDistRule::Paper,
        ).unwrap();
        let queries: Vec<Query> = raws[..n_queries.min(raws.len())]
            .iter()
            .map(|raw| Query::new(raw, &reducer, 12).unwrap())
            .collect();
        let seq: Vec<_> = queries
            .iter()
            .map(|q| tree.knn(q, k, scheme.as_ref(), &raws).unwrap())
            .collect();
        for threads in [1usize, 2, 4, 7] {
            let engine = Engine::build(
                EngineConfig::default(), Box::new(SaplaReducer::new()), raws.clone(), threads,
            ).unwrap();
            let (got, batch) = engine.knn(&queries, k, threads).unwrap();
            prop_assert_eq!(&got, &seq, "threads = {}", threads);
            for (g, s) in got.iter().zip(&seq) {
                for (gd, sd) in g.distances.iter().zip(&s.distances) {
                    prop_assert!(gd.to_bits() == sd.to_bits());
                }
            }
            prop_assert_eq!(batch.queries, queries.len());
            prop_assert_eq!(
                batch.measured,
                seq.iter().map(|s| s.measured).sum::<usize>()
            );
        }
    }
}
