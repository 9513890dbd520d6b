//! The node envelope test of an engine shard changes no answer: an
//! [`Engine`] — built, or loaded from an exact image or a file — answers
//! kNN and ε-range with the ids and distance bits of the tree-level
//! searches, which run without envelopes (per shard, merged by
//! `(distance, global id)` the way the engine merges), and never refines
//! more. Over both kinds of tree, shard counts {1, 2, 3, 7} and thread
//! counts {1, 2, 4}, on data with exact duplicates, constant series,
//! series shorter than the envelope's eight segments, ±1e300 samples and
//! queries that are database members. The strict-invariants build also
//! re-checks, at every refinement, that the refined entry's leaf
//! envelope does not exceed its exact distance.
//!
//! (The same property against the driver itself without envelopes is a
//! unit test of `sapla-index`.)

use proptest::prelude::*;
use sapla_baselines::{Reducer, SaplaReducer};
use sapla_core::{Representation, TimeSeries};
use sapla_index::{
    scheme_for, DbchTree, Engine, EngineConfig, Query, RTree, Scheme, SearchStats, TreeKind,
};

/// Series of `len` points: every fifth repeats the one before, every
/// seventh is constant, and with `huge` every sixth has ±1e300 samples.
fn database(count: usize, len: usize, huge: bool, params: &[(f64, f64, f64)]) -> Vec<TimeSeries> {
    let mut out: Vec<TimeSeries> = Vec::with_capacity(count);
    for i in 0..count {
        let (lvl, slope, phase) = params[i % params.len()];
        let values: Vec<f64> = if i % 5 == 4 {
            out[i - 1].values().to_vec()
        } else if i % 7 == 6 {
            vec![lvl; len]
        } else {
            (0..len)
                .map(|t| {
                    let x = t as f64;
                    match (huge && i % 6 == 5, t % 6) {
                        (true, 1) => 1e300,
                        (true, 4) => -1e300,
                        _ => lvl + slope * x + ((x * 0.4) + phase + i as f64).sin(),
                    }
                })
                .collect()
        };
        out.push(TimeSeries::new(values).unwrap());
    }
    out
}

fn db_strategy() -> impl Strategy<Value = Vec<TimeSeries>> {
    (
        6usize..30,
        0usize..4,
        0usize..3,
        proptest::collection::vec((-3.0f64..3.0, -0.2f64..0.2, 0.0f64..std::f64::consts::TAU), 12),
    )
        .prop_map(|(count, len, huge, params)| {
            database(count, [5, 7, 48, 64][len], huge == 0, &params)
        })
}

/// Every third member (a tie at distance 0, duplicates included) and a
/// perturbed copy of each.
fn query_series(raws: &[TimeSeries]) -> Vec<TimeSeries> {
    let mut out = Vec::new();
    for s in raws.iter().step_by(3) {
        out.push(s.clone());
        let bent = s.values().iter().enumerate().map(|(t, v)| v + 0.05 * (t as f64).cos());
        out.push(TimeSeries::new(bent.collect()).unwrap());
    }
    out
}

/// One shard's tree as the public API builds it.
enum Oracle {
    Dbch(DbchTree),
    Rtree(RTree),
}

/// The tree-level answers of an engine of `shards` shards over `raws`:
/// shard `s` holds global ids `g ≡ s (mod shards)` at local id
/// `g / shards`, built, searched and merged as the engine does — but
/// through `DbchTree` / `RTree::knn` and `range`, which test no envelope.
fn oracle(
    raws: &[TimeSeries],
    tree: TreeKind,
    shards: usize,
    queries: &[Query],
    k: usize,
    eps: f64,
) -> (Vec<SearchStats>, Vec<SearchStats>) {
    let cfg = EngineConfig::default();
    let scheme = scheme_for("SAPLA").unwrap();
    let reducer = SaplaReducer::new();
    let trees: Vec<(Oracle, Vec<TimeSeries>)> = (0..shards)
        .map(|s| {
            let mine: Vec<TimeSeries> = raws.iter().skip(s).step_by(shards).cloned().collect();
            let reps: Vec<Representation> =
                mine.iter().map(|r| reducer.reduce(r, cfg.m).unwrap()).collect();
            let t = match tree {
                TreeKind::Dbch => Oracle::Dbch(
                    DbchTree::build_with_rule(
                        scheme.as_ref(),
                        reps,
                        cfg.min_fill,
                        cfg.max_fill,
                        cfg.rule,
                    )
                    .unwrap(),
                ),
                TreeKind::Rtree => Oracle::Rtree(
                    RTree::build(scheme.as_ref(), reps, cfg.min_fill, cfg.max_fill).unwrap(),
                ),
            };
            (t, mine)
        })
        .collect();
    let search = |q: &Query, knn: bool, scheme: &dyn Scheme| -> SearchStats {
        let mut merged = Vec::new();
        let mut measured = 0;
        for (s, (t, mine)) in trees.iter().enumerate() {
            let stats = match (t, knn) {
                (Oracle::Dbch(t), true) => t.knn(q, k, scheme, mine),
                (Oracle::Dbch(t), false) => t.range(q, eps, scheme, mine),
                (Oracle::Rtree(t), true) => t.knn(q, k, scheme, mine),
                (Oracle::Rtree(t), false) => t.range(q, eps, scheme, mine),
            }
            .unwrap();
            measured += stats.measured;
            merged.extend(
                stats.distances.iter().zip(&stats.retrieved).map(|(&d, &l)| (d, l * shards + s)),
            );
        }
        merged.sort_unstable_by(|a: &(f64, usize), b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if knn {
            merged.truncate(k);
        }
        SearchStats {
            retrieved: merged.iter().map(|&(_, id)| id).collect(),
            distances: merged.iter().map(|&(d, _)| d).collect(),
            measured,
            total: raws.len(),
        }
    };
    (
        queries.iter().map(|q| search(q, true, scheme.as_ref())).collect(),
        queries.iter().map(|q| search(q, false, scheme.as_ref())).collect(),
    )
}

fn same_answers(got: &[SearchStats], want: &[SearchStats], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (qi, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.retrieved, w.retrieved, "{what}, query {qi}");
        let bits = |s: &SearchStats| s.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(g), bits(w), "{what}, query {qi}");
        assert!(g.measured <= w.measured, "{what}, query {qi}: {} > {}", g.measured, w.measured);
        assert_eq!(g.total, w.total, "{what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engines_answer_like_the_envelope_free_tree_oracles(
        raws in db_strategy(),
        k in 1usize..6,
        eps in 0.5f64..6.0,
    ) {
        let reducer = SaplaReducer::new();
        let queries: Vec<Query> =
            query_series(&raws).iter().map(|q| Query::new(q, &reducer, 12).unwrap()).collect();
        for tree in [TreeKind::Dbch, TreeKind::Rtree] {
            for shards in [1usize, 2, 3, 7] {
                let (want_knn, want_range) = oracle(&raws, tree, shards, &queries, k, eps);
                let cfg = EngineConfig { tree, shards, ..EngineConfig::default() };
                let built = Engine::build(cfg, Box::new(SaplaReducer::new()), raws.clone(), 2).unwrap();
                let image = built.snapshot_image(None);
                let mut engines = vec![(built, "built")];
                match image {
                    // Every image an engine writes, it loads.
                    Ok(image) => {
                        let file = sapla_core::temp::TempPath::new("sapla-envelope-props", ".snap");
                        std::fs::write(file.path(), &image).unwrap();
                        engines.push((Engine::from_snapshot_image(&image).unwrap(), "image"));
                        engines.push((Engine::from_snapshot_file(file.path()).unwrap(), "file"));
                    }
                    // A DBCH hull over ±1e300 samples can have an infinite
                    // volume: the write refuses it with the loader's error.
                    Err(e) => prop_assert!(
                        tree == TreeKind::Dbch
                            && e == sapla_core::Error::CorruptIndex {
                                reason: "snapshot hull volume is not a finite non-negative value"
                            }
                            && raws.iter().any(|s| s.values().iter().any(|v| v.abs() > 1e299)),
                        "{}", e
                    ),
                }
                for (engine, how) in &engines {
                    for threads in [1usize, 2, 4] {
                        let (got, _) = engine.knn(&queries, k, threads).unwrap();
                        let what = format!("knn, {how}, {tree:?} × {shards}, {threads} threads");
                        same_answers(&got, &want_knn, &what);
                    }
                    let got: Vec<_> = queries.iter().map(|q| engine.range(q, eps).unwrap()).collect();
                    same_answers(&got, &want_range, &format!("range, {how}, {tree:?} × {shards}"));
                }
            }
        }
    }
}

/// A query of another length than the indexed series skips the envelope
/// test and fails the way the tree's own bound fails — alone, inside a
/// block of well-formed queries, and in an ε-range search — never a
/// panic.
#[test]
fn a_wrong_length_query_returns_the_trees_error() {
    let params = [(0.5, 0.01, 1.0), (-1.0, 0.1, 2.0), (2.0, -0.1, 0.3)];
    let raws = database(30, 48, false, &params);
    let short = &database(3, 40, false, &params)[0];
    let reducer = SaplaReducer::new();
    let scheme = scheme_for("SAPLA").unwrap();
    let good = Query::new(&raws[1], &reducer, 12).unwrap();
    let bad = Query::new(short, &reducer, 12).unwrap();
    let reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
    for tree in [TreeKind::Dbch, TreeKind::Rtree] {
        let (want_knn, want_range) = match tree {
            TreeKind::Dbch => {
                let t = DbchTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
                (t.knn(&bad, 3, scheme.as_ref(), &raws), t.range(&bad, 2.0, scheme.as_ref(), &raws))
            }
            TreeKind::Rtree => {
                let t = RTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
                (t.knn(&bad, 3, scheme.as_ref(), &raws), t.range(&bad, 2.0, scheme.as_ref(), &raws))
            }
        };
        let (want_knn, want_range) = (want_knn.unwrap_err(), want_range.unwrap_err());
        for shards in [1usize, 3] {
            let cfg = EngineConfig { tree, shards, ..EngineConfig::default() };
            let engine =
                Engine::build(cfg, Box::new(SaplaReducer::new()), raws.clone(), 2).unwrap();
            let what = format!("{tree:?} × {shards}");
            assert_eq!(
                engine.knn(std::slice::from_ref(&bad), 3, 1).unwrap_err(),
                want_knn,
                "{what}"
            );
            let block = [good.clone(), bad.clone(), good.clone()];
            for threads in [1usize, 2] {
                assert_eq!(engine.knn(&block, 3, threads).unwrap_err(), want_knn, "{what} block");
            }
            assert_eq!(engine.range(&bad, 2.0).unwrap_err(), want_range, "{what} range");
            assert!(engine.knn(std::slice::from_ref(&good), 3, 1).is_ok(), "{what}");
        }
    }
}
