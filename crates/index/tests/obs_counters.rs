//! Cross-checks the `index.knn.*` observability counters against the
//! search invariants they are supposed to witness (satellite of the
//! sapla-obs PR): every candidate a leaf offers is either pruned by the
//! representation distance or refined exactly, a k-NN search must
//! refine at least k candidates to fill its result heap, and the nodes
//! an engine shard's envelope test dismisses are a share of the pruned
//! nodes (and none at all on the tree-level paths, which test none).
//!
//! One `#[test]` function on purpose: the obs registry is process-global
//! and the default test harness runs tests concurrently, so a single
//! test owns the whole reset/capture window.

use sapla_baselines::{Reducer, SaplaReducer};
use sapla_core::TimeSeries;
use sapla_data::{catalogue, Protocol};
use sapla_index::{scheme_for, DbchTree, Engine, EngineConfig, Query, RTree, TreeKind};
use sapla_obs::Snapshot;

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or_else(|| {
        panic!("counter {name:?} not in snapshot: {:?}", snap.counters);
    })
}

fn dataset() -> Vec<TimeSeries> {
    let spec = &catalogue()[0];
    let protocol = Protocol { series_len: 128, series_per_dataset: 40, queries_per_dataset: 1 };
    spec.load(&protocol).series
}

#[test]
fn knn_counters_obey_the_search_invariants() {
    if !sapla_obs::enabled() {
        return; // nothing to check in an uninstrumented build
    }
    let raws = dataset();
    let reducer = SaplaReducer::new();
    let scheme = scheme_for("SAPLA").unwrap();
    let m = 12;
    let k = 5;
    let queries = 3;
    let reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, m).unwrap()).collect();

    // --- DBCH-tree ---
    let tree = DbchTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
    sapla_obs::reset();
    let mut measured_total = 0usize;
    for qi in 0..queries {
        let q = Query::new(&raws[qi], &reducer, m).unwrap();
        let stats = tree.knn(&q, k, scheme.as_ref(), &raws).unwrap();
        assert_eq!(stats.retrieved.len(), k);
        measured_total += stats.measured;
    }
    let snap = Snapshot::capture();
    assert_eq!(counter(&snap, "index.knn.queries"), queries as u64);
    let considered = counter(&snap, "index.knn.entries_considered");
    let pruned = counter(&snap, "index.knn.entries_pruned");
    let refined = counter(&snap, "index.knn.refined");
    assert_eq!(
        considered,
        pruned + refined,
        "dbch: every considered candidate is either pruned or refined"
    );
    assert_eq!(refined, measured_total as u64, "dbch: counter agrees with SearchStats.measured");
    assert!(refined >= (queries * k) as u64, "dbch: each query refines at least k candidates");
    assert!(counter(&snap, "index.knn.nodes_visited") >= queries as u64, "root visited per query");
    // Every visited or pruned node was scored against its two hull
    // representatives: each one either a full evaluation or a memo hit.
    let hull_evals = counter(&snap, "index.knn.hull_evals");
    assert!(hull_evals >= queries as u64, "dbch: the root's hull is evaluated per query");
    assert!(
        hull_evals <= (queries * raws.len()) as u64,
        "dbch: the memo evaluates each entry at most once per query"
    );
    sapla_obs::reset();
    let q = Query::new(&raws[0], &reducer, m).unwrap();
    let hits = tree.range(&q, 3.0, scheme.as_ref(), &raws).unwrap();
    let snap = Snapshot::capture();
    assert_eq!(counter(&snap, "index.range.refined"), hits.measured as u64);
    let range_evals = counter(&snap, "index.range.hull_evals");
    assert!((1..=raws.len() as u64).contains(&range_evals), "dbch range: {range_evals}");

    // --- R*-tree baseline, same invariants ---
    let tree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
    sapla_obs::reset();
    let mut measured_total = 0usize;
    for qi in 0..queries {
        let q = Query::new(&raws[qi], &reducer, m).unwrap();
        let stats = tree.knn(&q, k, scheme.as_ref(), &raws).unwrap();
        assert_eq!(stats.retrieved.len(), k);
        measured_total += stats.measured;
    }
    let snap = Snapshot::capture();
    assert_eq!(counter(&snap, "index.knn.queries"), queries as u64);
    let considered = counter(&snap, "index.knn.entries_considered");
    let pruned = counter(&snap, "index.knn.entries_pruned");
    let refined = counter(&snap, "index.knn.refined");
    assert_eq!(
        considered,
        pruned + refined,
        "rtree: every considered candidate is either pruned or refined"
    );
    assert_eq!(refined, measured_total as u64, "rtree: counter agrees with SearchStats.measured");
    assert!(refined >= (queries * k) as u64, "rtree: each query refines at least k candidates");
    assert_eq!(counter(&snap, "index.knn.hull_evals"), 0, "rtree: MINDIST bounds, no hulls");

    // --- Engine shards: the envelope test runs before the node bound ---
    // The tree-level searches above test no envelope.
    assert_eq!(counter(&snap, "index.knn.envelope_pruned"), 0, "rtree: tree-level search");
    for tree in [TreeKind::Dbch, TreeKind::Rtree] {
        let cfg = EngineConfig { tree, ..EngineConfig::default() };
        let engine = Engine::build(cfg, Box::new(SaplaReducer::new()), raws.clone(), 1).unwrap();
        let prepared = engine.prepare(&raws[..queries], 1).unwrap();
        sapla_obs::reset();
        let (found, _) = engine.knn(&prepared, k, 1).unwrap();
        let snap = Snapshot::capture();
        let considered = counter(&snap, "index.knn.entries_considered");
        let pruned = counter(&snap, "index.knn.entries_pruned");
        let refined = counter(&snap, "index.knn.refined");
        assert_eq!(considered, pruned + refined, "{tree:?} engine: considered = pruned + refined");
        assert_eq!(refined, found.iter().map(|s| s.measured as u64).sum::<u64>(), "{tree:?}");
        let by_envelope = counter(&snap, "index.knn.envelope_pruned");
        let nodes_pruned = counter(&snap, "index.knn.nodes_pruned");
        assert!(by_envelope > 0, "{tree:?} engine: the envelope dismisses nodes");
        assert!(by_envelope <= nodes_pruned, "{tree:?}: {by_envelope} > {nodes_pruned}");

        sapla_obs::reset();
        let hits = engine.range(&prepared[0], 3.0).unwrap();
        let snap = Snapshot::capture();
        let considered = counter(&snap, "index.range.entries_considered");
        let pruned = counter(&snap, "index.range.entries_pruned");
        let refined = counter(&snap, "index.range.refined");
        assert_eq!(considered, pruned + refined, "{tree:?} engine range");
        assert_eq!(refined, hits.measured as u64, "{tree:?} engine range");
        let by_envelope = counter(&snap, "index.range.envelope_pruned");
        assert!(by_envelope > 0, "{tree:?} engine range: the envelope dismisses nodes");
        assert!(by_envelope <= counter(&snap, "index.range.nodes_pruned"), "{tree:?} range");
    }

    // --- Snapshot load: where the time goes, and who copies the raws ---
    let cfg = EngineConfig { shards: 3, ..EngineConfig::default() };
    let engine = Engine::build(cfg, Box::new(SaplaReducer::new()), raws.clone(), 1).unwrap();
    let file = sapla_core::temp::TempPath::new("sapla-obs-snapshot", ".snap");
    engine.write_snapshot_file(file.path(), None).unwrap();
    let spans = |snap: &Snapshot, name: &str| {
        snap.histograms.iter().find(|h| h.name == name).map_or(0, |h| h.count)
    };
    sapla_obs::reset();
    let loaded = Engine::from_snapshot_file(file.path()).unwrap();
    let snap = Snapshot::capture();
    assert_eq!(counter(&snap, "index.snapshot.raw_bytes_copied"), 0, "a file load borrows");
    for phase in ["engine.snapshot.load", "store.read", "store.verify", "index.adopt"] {
        assert_eq!(spans(&snap, phase), 1, "{phase}");
    }
    sapla_obs::reset();
    Engine::from_snapshot_image(&loaded.snapshot_image(None).unwrap()).unwrap();
    let snap = Snapshot::capture();
    let arena_bytes = (raws.len() * raws[0].len() * std::mem::size_of::<f64>()) as u64;
    assert_eq!(
        counter(&snap, "index.snapshot.raw_bytes_copied"),
        arena_bytes,
        "an image load copies"
    );
    assert_eq!((spans(&snap, "store.read"), spans(&snap, "store.verify")), (0, 1));
}
