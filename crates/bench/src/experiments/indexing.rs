//! Index experiments: Figs. 13 (pruning power & accuracy), 14 (ingest &
//! k-NN time), 15–16 (tree shape), and the DBCH node-distance ablation
//! (ABL2).

use std::collections::BTreeMap;
use std::time::Duration;

use sapla_baselines::{all_reducers, reduce_batch_parallel};
use sapla_index::{linear_scan_knn, scheme_for, DbchTree, NodeDistRule, Query, RTree};

use crate::harness::{load_datasets, time_it, RunConfig};
use crate::table::{dur, f, Table};

/// Aggregated outcome for one (method, tree) combination.
#[derive(Debug, Clone, Default)]
pub struct IndexOutcome {
    /// Mean pruning power ρ (Eq. 14) over queries × K.
    pub pruning: f64,
    /// Mean accuracy (Eq. 15) over queries × K.
    pub accuracy: f64,
    /// Mean ingest (batch reduction + tree build) time per dataset.
    pub ingest: Duration,
    /// Mean k-NN search time per query.
    pub knn_time: Duration,
    /// Mean internal-node count per tree.
    pub internal_nodes: f64,
    /// Mean leaf-node count per tree.
    pub leaf_nodes: f64,
    /// Mean total node count per tree.
    pub total_nodes: f64,
    /// Mean height per tree.
    pub height: f64,
    /// Mean leaf fill per tree.
    pub leaf_fill: f64,
}

#[derive(Debug, Clone, Default)]
struct Acc {
    pruning: f64,
    accuracy: f64,
    queries: usize,
    ingest: Duration,
    knn_time: Duration,
    knn_count: usize,
    internal: usize,
    leaf: usize,
    total: usize,
    height: usize,
    fill: f64,
    trees: usize,
}

/// Full indexing sweep. Returns `(outcomes keyed by (method, tree),
/// mean linear-scan time per query)`.
///
/// `with_queries = false` skips the k-NN phase (enough for Figs. 15–16).
pub fn run_indexing(
    cfg: &RunConfig,
    with_queries: bool,
) -> (BTreeMap<(String, String), IndexOutcome>, Duration) {
    run_indexing_with_rule(cfg, with_queries, NodeDistRule::Paper)
}

/// [`run_indexing`] with an explicit DBCH node-distance rule (ABL2).
pub fn run_indexing_with_rule(
    cfg: &RunConfig,
    with_queries: bool,
    rule: NodeDistRule,
) -> (BTreeMap<(String, String), IndexOutcome>, Duration) {
    let datasets = load_datasets(cfg.datasets, &cfg.index_protocol);
    let m = cfg.ms[0];
    let ks = cfg.effective_ks();
    let mut accs: BTreeMap<(String, String), Acc> = BTreeMap::new();
    let mut scan_time = Duration::ZERO;
    let mut scan_count = 0usize;

    for (di, ds) in datasets.iter().enumerate() {
        // Ground truth per query and K.
        let truths: Vec<Vec<Vec<usize>>> = if with_queries {
            ds.queries.iter().map(|q| ks.iter().map(|&k| ds.exact_knn(q, k)).collect()).collect()
        } else {
            Vec::new()
        };
        if with_queries {
            for q in &ds.queries {
                let (_, t) = time_it(|| {
                    linear_scan_knn(q, &ds.series, *ks.last().unwrap_or(&1)).expect("scan")
                });
                scan_time += t;
                scan_count += 1;
            }
        }

        for reducer in all_reducers() {
            if reducer.name() == "APLA" && di >= cfg.apla_dataset_cap {
                continue;
            }
            let scheme = scheme_for(reducer.name()).unwrap();
            // Ingest = reduction + tree build (the paper's ingest
            // experiment covers the whole pipeline; reduction dominates
            // and runs on the parallel pool at `cfg.threads`).
            let (reps, red_time) = time_it(|| {
                reduce_batch_parallel(reducer.as_ref(), &ds.series, m, cfg.threads)
                    .expect("valid budget")
            });
            let (rtree, rt_build) = time_it(|| {
                RTree::build(scheme.as_ref(), reps.clone(), cfg.min_fill, cfg.max_fill)
                    .expect("R-tree build")
            });
            let (dbch, db_build) = time_it(|| {
                DbchTree::build_with_rule(
                    scheme.as_ref(),
                    reps.clone(),
                    cfg.min_fill,
                    cfg.max_fill,
                    rule,
                )
                .expect("DBCH build")
            });

            for (tree_name, build_time, shape) in [
                ("R-tree", red_time + rt_build, rtree.shape()),
                ("DBCH-tree", red_time + db_build, dbch.shape()),
            ] {
                let acc =
                    accs.entry((reducer.name().to_string(), tree_name.to_string())).or_default();
                acc.ingest += build_time;
                acc.internal += shape.internal_nodes;
                acc.leaf += shape.leaf_nodes;
                acc.total += shape.total_nodes();
                acc.height += shape.height;
                acc.fill += shape.avg_leaf_fill();
                acc.trees += 1;
            }

            if !with_queries {
                continue;
            }
            for (qi, qraw) in ds.queries.iter().enumerate() {
                let q = Query::new(qraw, reducer.as_ref(), m).expect("query reduction");
                for (ki, &k) in ks.iter().enumerate() {
                    let truth = &truths[qi][ki];
                    let (r_stats, r_t) =
                        time_it(|| rtree.knn(&q, k, scheme.as_ref(), &ds.series).expect("knn"));
                    let (d_stats, d_t) =
                        time_it(|| dbch.knn(&q, k, scheme.as_ref(), &ds.series).expect("knn"));
                    for (tree_name, stats, t) in
                        [("R-tree", r_stats, r_t), ("DBCH-tree", d_stats, d_t)]
                    {
                        let acc = accs
                            .entry((reducer.name().to_string(), tree_name.to_string()))
                            .or_default();
                        acc.pruning += stats.pruning_power();
                        acc.accuracy += stats.accuracy(truth);
                        acc.queries += 1;
                        acc.knn_time += t;
                        acc.knn_count += 1;
                    }
                }
            }
        }
    }

    let outcomes = accs
        .into_iter()
        .map(|(key, a)| {
            let q = a.queries.max(1) as f64;
            let t = a.trees.max(1) as f64;
            (
                key,
                IndexOutcome {
                    pruning: a.pruning / q,
                    accuracy: a.accuracy / q,
                    ingest: a.ingest / a.trees.max(1) as u32,
                    knn_time: a.knn_time / a.knn_count.max(1) as u32,
                    internal_nodes: a.internal as f64 / t,
                    leaf_nodes: a.leaf as f64 / t,
                    total_nodes: a.total as f64 / t,
                    height: a.height as f64 / t,
                    leaf_fill: a.fill / t,
                },
            )
        })
        .collect();
    let scan = if scan_count == 0 { Duration::ZERO } else { scan_time / scan_count as u32 };
    (outcomes, scan)
}

/// Method order used by the paper's figures.
pub const METHOD_ORDER: [&str; 8] =
    ["SAPLA", "APLA", "APCA", "PLA", "PAA", "PAALM", "CHEBY", "SAX"];

fn two_tree_table(
    title: &str,
    col: &str,
    outcomes: &BTreeMap<(String, String), IndexOutcome>,
    get: impl Fn(&IndexOutcome) -> String,
) -> Table {
    let mut table =
        Table::new(title, &["method", &format!("{col} (R-tree)"), &format!("{col} (DBCH)")]);
    for name in METHOD_ORDER {
        let r = outcomes.get(&(name.to_string(), "R-tree".to_string()));
        let d = outcomes.get(&(name.to_string(), "DBCH-tree".to_string()));
        if r.is_none() && d.is_none() {
            continue;
        }
        table.row(vec![
            name.to_string(),
            r.map(&get).unwrap_or_else(|| "-".into()),
            d.map(&get).unwrap_or_else(|| "-".into()),
        ]);
    }
    table
}

/// Fig. 13a/13b from a finished sweep.
pub fn fig13_tables(outcomes: &BTreeMap<(String, String), IndexOutcome>) -> (Table, Table) {
    (
        two_tree_table(
            "Fig. 13a — mean pruning power ρ (lower is better)",
            "ρ",
            outcomes,
            |o| f(o.pruning),
        ),
        two_tree_table("Fig. 13b — mean accuracy (higher is better)", "acc", outcomes, |o| {
            f(o.accuracy)
        }),
    )
}

/// Fig. 14a/14b from a finished sweep (the linear-scan bar is appended to
/// 14b as in the paper).
pub fn fig14_tables(
    outcomes: &BTreeMap<(String, String), IndexOutcome>,
    scan: Duration,
) -> (Table, Table) {
    let a =
        two_tree_table("Fig. 14a — mean data ingest time per dataset", "build", outcomes, |o| {
            dur(o.ingest)
        });
    let mut b = two_tree_table("Fig. 14b — mean k-NN CPU time per query", "knn", outcomes, |o| {
        dur(o.knn_time)
    });
    b.row(vec!["LinearScan".into(), dur(scan), dur(scan)]);
    (a, b)
}

/// Fig. 15 (internal/leaf node counts) and Fig. 16 (total nodes & height).
pub fn fig15_16_tables(
    outcomes: &BTreeMap<(String, String), IndexOutcome>,
) -> (Table, Table, Table, Table) {
    (
        two_tree_table("Fig. 15a — mean internal node count", "internal", outcomes, |o| {
            f(o.internal_nodes)
        }),
        two_tree_table("Fig. 15b — mean leaf node count", "leaves", outcomes, |o| f(o.leaf_nodes)),
        two_tree_table("Fig. 16a — mean total node count", "nodes", outcomes, |o| {
            f(o.total_nodes)
        }),
        two_tree_table("Fig. 16b — mean tree height", "height", outcomes, |o| f(o.height)),
    )
}

/// K-sweep companion to Fig. 13: pruning power of SAPLA in both trees as
/// `K` grows through the paper's `{4, 8, 16, 32, 64}` (clipped to the
/// database size). Larger `K` forces more exact measurements, so ρ rises
/// for every index — the question is how fast.
pub fn k_sweep_table(cfg: &RunConfig) -> Table {
    let datasets = load_datasets(cfg.datasets, &cfg.index_protocol);
    let m = cfg.ms[0];
    let ks = cfg.effective_ks();
    let reducer = all_reducers()
        .into_iter()
        .find(|r| r.name() == "SAPLA")
        .expect("SAPLA is always registered");
    let scheme = scheme_for("SAPLA").unwrap();

    let mut rho_r = vec![0.0f64; ks.len()];
    let mut rho_d = vec![0.0f64; ks.len()];
    let mut acc_r = vec![0.0f64; ks.len()];
    let mut acc_d = vec![0.0f64; ks.len()];
    let mut count = 0usize;
    for ds in &datasets {
        let reps: Vec<_> =
            ds.series.iter().map(|s| reducer.reduce(s, m).expect("valid budget")).collect();
        let rtree = RTree::build(scheme.as_ref(), reps.clone(), cfg.min_fill, cfg.max_fill)
            .expect("R-tree build");
        let dbch =
            DbchTree::build(scheme.as_ref(), reps, cfg.min_fill, cfg.max_fill).expect("DBCH build");
        for qraw in &ds.queries {
            let q = Query::new(qraw, reducer.as_ref(), m).expect("query reduction");
            for (ki, &k) in ks.iter().enumerate() {
                let truth = ds.exact_knn(qraw, k);
                let r = rtree.knn(&q, k, scheme.as_ref(), &ds.series).expect("knn");
                let d = dbch.knn(&q, k, scheme.as_ref(), &ds.series).expect("knn");
                rho_r[ki] += r.pruning_power();
                rho_d[ki] += d.pruning_power();
                acc_r[ki] += r.accuracy(&truth);
                acc_d[ki] += d.accuracy(&truth);
            }
            count += 1;
        }
    }
    let mut table = Table::new(
        "Fig. 13 (K sweep, SAPLA) — ρ and accuracy vs K",
        &["K", "ρ R-tree", "ρ DBCH", "acc R-tree", "acc DBCH"],
    );
    for (ki, &k) in ks.iter().enumerate() {
        let c = count.max(1) as f64;
        table.row(vec![
            k.to_string(),
            f(rho_r[ki] / c),
            f(rho_d[ki] / c),
            f(acc_r[ki] / c),
            f(acc_d[ki] / c),
        ]);
    }
    table
}

/// ABL2 — DBCH node-distance rule ablation (paper rule vs triangle
/// inequality) for the adaptive methods.
pub fn ablation_dbch_table(cfg: &RunConfig) -> Table {
    let (paper, _) = run_indexing_with_rule(cfg, true, NodeDistRule::Paper);
    let (tri, _) = run_indexing_with_rule(cfg, true, NodeDistRule::Triangle);
    let mut table = Table::new(
        "ABL2 — DBCH node distance: paper rule vs triangle inequality",
        &["method", "ρ paper", "ρ triangle", "acc paper", "acc triangle"],
    );
    for name in ["SAPLA", "APLA", "APCA"] {
        let key = (name.to_string(), "DBCH-tree".to_string());
        let (Some(p), Some(t)) = (paper.get(&key), tri.get(&key)) else { continue };
        table.row(vec![name.to_string(), f(p.pruning), f(t.pruning), f(p.accuracy), f(t.accuracy)]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_sweep_has_one_row_per_k() {
        let cfg = RunConfig::tiny();
        let t = k_sweep_table(&cfg);
        assert_eq!(t.len(), cfg.effective_ks().len());
    }

    #[test]
    fn tiny_sweep_produces_all_combinations() {
        let cfg = RunConfig::tiny();
        let (outcomes, scan) = run_indexing(&cfg, true);
        // 8 methods × 2 trees (APLA present: tiny cap ≥ 1 dataset).
        assert_eq!(outcomes.len(), 16);
        assert!(scan > Duration::ZERO);
        for ((method, tree), o) in &outcomes {
            assert!(o.pruning > 0.0 && o.pruning <= 1.0, "{method}/{tree}: ρ = {}", o.pruning);
            assert!(o.accuracy >= 0.0 && o.accuracy <= 1.0);
            assert!(o.total_nodes >= 1.0);
        }
        let (a, b) = fig13_tables(&outcomes);
        assert_eq!(a.len(), 8);
        assert_eq!(b.len(), 8);
        let (c, d) = fig14_tables(&outcomes, scan);
        assert_eq!(c.len(), 8);
        assert_eq!(d.len(), 9); // + linear scan row
        let (e, fg, g, h) = fig15_16_tables(&outcomes);
        assert!(e.len() == 8 && fg.len() == 8 && g.len() == 8 && h.len() == 8);
    }
}
