//! Property tests pinning snapshot persistence to the live engine:
//! snapshots must replay searches **bit-identically** (the
//! strict-invariants builds of CI re-check `Dist_LB ≤ exact` inside
//! every refinement these searches perform).

use proptest::prelude::*;
use sapla_baselines::SaplaReducer;
use sapla_core::TimeSeries;
use sapla_index::{Engine, EngineConfig, SearchStats, TreeKind};

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

fn engine(raws: &[TimeSeries], shards: usize, tree: TreeKind) -> Engine {
    let cfg = EngineConfig { shards, tree, ..EngineConfig::default() };
    Engine::build(cfg, Box::new(sapla_baselines::SaplaReducer::new()), raws.to_vec(), 2).unwrap()
}

/// kNN (at 1 and 2 threads) and ε-range answers for the first queries.
fn answers(engine: &Engine, raws: &[TimeSeries], k: usize, eps: f64) -> Vec<SearchStats> {
    let queries = engine.prepare(&raws[..raws.len().min(5)], 2).unwrap();
    let mut out = engine.knn(&queries, k, 1).unwrap().0;
    out.extend(engine.knn(&queries, k, 2).unwrap().0);
    out.extend(queries.iter().map(|q| engine.range(q, eps).unwrap()));
    out
}

fn assert_bit_identical(got: &[SearchStats], want: &[SearchStats], what: &str) {
    // Includes `measured`: the same traversal, not just the same answer.
    assert_eq!(got, want, "{what}");
    for (g, w) in got.iter().zip(want) {
        for (gd, wd) in g.distances.iter().zip(&w.distances) {
            assert_eq!(gd.to_bits(), wd.to_bits(), "{what}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exact-leaf snapshots are a pure serialization: the loaded engine
    /// answers every query with bit-identical distances, identical ids,
    /// and identical measured counts — i.e. it replays the very same
    /// traversal the builder would.
    #[test]
    fn exact_snapshot_knn_is_bit_identical(
        raws in db_strategy(6..28),
        k in 1usize..6,
        shards in 1usize..4,
        rtree in 0usize..2,
    ) {
        let tree = if rtree == 1 { TreeKind::Rtree } else { TreeKind::Dbch };
        let built = engine(&raws, shards, tree);
        let queries = built.prepare(&raws[..raws.len().min(5)], 2).unwrap();
        let (want, want_batch) = built.knn(&queries, k, 2).unwrap();
        let image = built.snapshot_image(None).unwrap();
        let loaded = Engine::from_snapshot_image(&image).unwrap();
        prop_assert_eq!(loaded.config(), built.config());
        let (got, got_batch) = loaded.knn(&queries, k, 2).unwrap();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_batch, want_batch);
        for (g, w) in got.iter().zip(&want) {
            for (gd, wd) in g.distances.iter().zip(&w.distances) {
                prop_assert!(gd.to_bits() == wd.to_bits());
            }
        }
    }

    /// The container rejects, never panics on, arbitrary corruption of
    /// a real snapshot image: any single-byte change is caught by the
    /// checksum, and truncation at any point is an error.
    #[test]
    fn corrupted_engine_snapshots_error_cleanly(
        raws in db_strategy(4..10),
        byte_seed in 0u64..u64::MAX,
    ) {
        let built = engine(&raws, 1, TreeKind::Dbch);
        let image = built.snapshot_image(None).unwrap();
        let at = (byte_seed as usize) % image.len();
        let mut mutated = image.clone();
        mutated[at] ^= 1u8 << (byte_seed % 8);
        prop_assert!(Engine::from_snapshot_image(&mutated).is_err());
        let cut = (byte_seed as usize) % image.len();
        prop_assert!(Engine::from_snapshot_image(&image[..cut]).is_err());
    }

    /// Every way of making an engine lays its raw series out in the
    /// tree's leaf-walk order (`RawArena`) from a different source:
    /// `build` and `from_parts` from the caller's series,
    /// `from_snapshot_image` from a copy of the image's arena (already in
    /// that order), `from_snapshot_file` borrowing it from the image it
    /// retains. The layout must be invisible: all four answer kNN and
    /// ε-range bit-identically, sharded or not.
    #[test]
    fn all_four_constructors_answer_bit_identically(
        raws in db_strategy(9..40),
        k in 1usize..6,
        eps in 2.0f64..7.0,
    ) {
        for shards in [1usize, 3] {
            let cfg = EngineConfig { shards, ..EngineConfig::default() };
            let reducer = || Box::new(SaplaReducer::new());
            let built = Engine::build(cfg, reducer(), raws.clone(), 2).unwrap();
            let want = answers(&built, &raws, k, eps);
            let parts = Engine::from_parts(cfg, reducer(), built.reps(), raws.clone()).unwrap();
            let loaded = Engine::from_snapshot_image(&built.snapshot_image(None).unwrap()).unwrap();
            let file = sapla_core::temp::TempPath::new("sapla-props-constructors", ".snap");
            built.write_snapshot_file(file.path(), None).unwrap();
            let from_file = Engine::from_snapshot_file(file.path()).unwrap();
            for (engine, name) in [
                (&parts, "from_parts"),
                (&loaded, "from_snapshot_image"),
                (&from_file, "from_snapshot_file"),
            ] {
                let what = format!("{name}, shards = {shards}");
                assert_bit_identical(&answers(engine, &raws, k, eps), &want, &what);
            }
        }
    }

    /// Saving is a fixpoint of loading: an engine loaded from a snapshot
    /// file (raw arenas borrowed from the retained image) or from an
    /// image (copied) writes the very bytes it was loaded from, answers
    /// like the engine that wrote them, and keeps doing so through
    /// another save/load.
    #[test]
    fn loading_then_saving_is_a_fixpoint(
        raws in db_strategy(5..40),
        k in 1usize..6,
        eps in 2.0f64..7.0,
        shards in 1usize..6,
        rtree in 0usize..2,
    ) {
        let tree = if rtree == 1 { TreeKind::Rtree } else { TreeKind::Dbch };
        let built = engine(&raws, shards, tree);
        let want = answers(&built, &raws, k, eps);
        let first = built.snapshot_image(None).unwrap();
        let file = sapla_core::temp::TempPath::new("sapla-props-fixpoint", ".snap");
        prop_assert_eq!(built.write_snapshot_file(file.path(), None).unwrap(), first.len() as u64);
        let from_file = Engine::from_snapshot_file(file.path()).unwrap();
        let from_image = Engine::from_snapshot_image(&first).unwrap();
        for (loaded, name) in [(&from_file, "file"), (&from_image, "image")] {
            prop_assert!(loaded.snapshot_image(None).unwrap() == first, "{} is no fixpoint", name);
            assert_bit_identical(&answers(loaded, &raws, k, eps), &want, name);
            let again =
                Engine::from_snapshot_image(&loaded.snapshot_image(None).unwrap()).unwrap();
            assert_bit_identical(&answers(&again, &raws, k, eps), &want, name);
        }
    }
}
