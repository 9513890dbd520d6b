//! Regression for the `entries_pruned == 0` / `nodes_pruned == 0` profile
//! PR 4's first instrumented runs recorded: on a database big and
//! clustered enough that the k-th-best threshold must bite, both trees
//! have to *demonstrably* prune — fewer exact refinements than the
//! database size, and (in an instrumented build) non-zero entry and
//! node prune counters. Before the threshold-driven `rep_within` filter
//! and the break-drain node accounting, the counters stayed zero even
//! though the searches were doing the work.
//!
//! One `#[test]` function on purpose: the obs registry is process-global
//! and the default test harness runs tests concurrently, so a single
//! test owns the whole reset/capture window.

use sapla_baselines::{Reducer, SaplaReducer};
use sapla_core::TimeSeries;
use sapla_data::{catalogue, Protocol};
use sapla_index::{scheme_for, DbchTree, Query, RTree};
use sapla_obs::Snapshot;

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
}

/// Two well-separated families: 60 smooth catalogue series and 60
/// flattened + shifted variants. The second cluster is far from any
/// first-cluster query, so its leaves and entries are prunable.
fn clustered_dataset() -> Vec<TimeSeries> {
    let spec = &catalogue()[0];
    let protocol = Protocol { series_len: 128, series_per_dataset: 60, queries_per_dataset: 1 };
    let mut raws = spec.load(&protocol).series;
    let shifted: Vec<TimeSeries> = raws
        .iter()
        .map(|s| {
            TimeSeries::new(s.values().iter().map(|v| v * 0.15 + 6.0).collect())
                .unwrap()
                .znormalized()
        })
        .collect();
    raws.extend(shifted);
    raws
}

#[test]
fn both_trees_provably_prune_on_clustered_data() {
    let raws = clustered_dataset();
    assert_eq!(raws.len(), 120);
    let reducer = SaplaReducer::new();
    let scheme = scheme_for("SAPLA").unwrap();
    let m = 12;
    let k = 3;
    let reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, m).unwrap()).collect();
    let q = Query::new(&raws[5], &reducer, m).unwrap();

    let dbch = DbchTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
    sapla_obs::reset();
    let stats = dbch.knn(&q, k, scheme.as_ref(), &raws).unwrap();
    assert_eq!(stats.retrieved.len(), k);
    assert!(
        stats.measured < raws.len(),
        "dbch measured the whole database: {} of {}",
        stats.measured,
        raws.len()
    );
    if sapla_obs::enabled() {
        let snap = Snapshot::capture();
        assert!(counter(&snap, "index.knn.entries_pruned") > 0, "dbch pruned no entries");
        assert!(counter(&snap, "index.knn.nodes_pruned") > 0, "dbch pruned no nodes");
    }

    let rtree = RTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
    sapla_obs::reset();
    let stats = rtree.knn(&q, k, scheme.as_ref(), &raws).unwrap();
    assert_eq!(stats.retrieved.len(), k);
    assert!(
        stats.measured < raws.len(),
        "rtree measured the whole database: {} of {}",
        stats.measured,
        raws.len()
    );
    if sapla_obs::enabled() {
        let snap = Snapshot::capture();
        assert!(counter(&snap, "index.knn.entries_pruned") > 0, "rtree pruned no entries");
        assert!(counter(&snap, "index.knn.nodes_pruned") > 0, "rtree pruned no nodes");
    }
}
