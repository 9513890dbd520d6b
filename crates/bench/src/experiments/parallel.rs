//! Thread-sweep experiment for the parallel engine: `Engine::build`
//! (parallel batch reduction + sequential DBCH build) and
//! multi-query `Engine::knn` wall time as a function of worker count, on
//! the catalogue profile.
//!
//! Every sweep point also *checks* the engine's core promise: the search
//! results at `t` threads are compared against the single-threaded
//! baseline and must match exactly, so a speedup here is never bought
//! with changed answers.

use std::time::Duration;

use sapla_baselines::SaplaReducer;
use sapla_index::{prepare_queries, Engine, EngineConfig, Query, SearchStats};

use crate::harness::{load_datasets, time_it, RunConfig};
use crate::table::{dur, Table};

/// One measured point of the thread sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Worker count used for ingest and the query batch.
    pub threads: usize,
    /// Total ingest wall time (parallel reduction + sequential build)
    /// summed over datasets.
    pub ingest: Duration,
    /// Total multi-query k-NN wall time summed over datasets.
    pub knn: Duration,
}

impl SweepPoint {
    /// Combined ingest + query wall time.
    pub fn total(&self) -> Duration {
        self.ingest + self.knn
    }
}

/// Measure ingest + multi-query k-NN over the catalogue at each worker
/// count in `thread_counts`, using the paper's SAPLA pipeline. Panics if
/// any sweep point's search results deviate from the first point's —
/// determinism is part of what this experiment certifies.
pub fn thread_sweep(cfg: &RunConfig, thread_counts: &[usize], k: usize) -> Vec<SweepPoint> {
    let datasets = load_datasets(cfg.datasets, &cfg.index_protocol);
    let engine_cfg = EngineConfig {
        m: cfg.ms[0],
        min_fill: cfg.min_fill,
        max_fill: cfg.max_fill,
        ..EngineConfig::default()
    };

    // A realistic multi-query load: the protocol's queries plus every
    // database series queried against its own dataset.
    let query_sets: Vec<Vec<Query>> = datasets
        .iter()
        .map(|ds| {
            let mut raws = ds.queries.clone();
            raws.extend(ds.series.iter().cloned());
            prepare_queries(&raws, &SaplaReducer::new(), engine_cfg.m, 0).expect("query reduction")
        })
        .collect();

    let mut baseline: Option<Vec<Vec<SearchStats>>> = None;
    let mut points = Vec::with_capacity(thread_counts.len());
    for &threads in thread_counts {
        let mut ingest = Duration::ZERO;
        let mut knn = Duration::ZERO;
        let mut results: Vec<Vec<SearchStats>> = Vec::with_capacity(datasets.len());
        for (ds, queries) in datasets.iter().zip(&query_sets) {
            let series = ds.series.clone();
            let (engine, t_ingest) = time_it(|| {
                Engine::build(engine_cfg, Box::new(SaplaReducer::new()), series, threads)
                    .expect("ingest")
            });
            let ((per_query, _batch), t_knn) =
                time_it(|| engine.knn(queries, k, threads).expect("knn batch"));
            ingest += t_ingest;
            knn += t_knn;
            results.push(per_query);
        }
        match &baseline {
            None => baseline = Some(results),
            Some(base) => {
                assert_eq!(base, &results, "results at {threads} threads deviate from the baseline")
            }
        }
        points.push(SweepPoint { threads, ingest, knn });
    }
    points
}

/// Render a sweep as a table with speedups relative to the first point.
pub fn thread_sweep_table(points: &[SweepPoint]) -> Table {
    let mut table = Table::new(
        "Parallel engine — ingest & multi-query k-NN vs worker count (SAPLA + DBCH)",
        &["threads", "ingest", "knn batch", "total", "speedup"],
    );
    let base = points.first().map(|p| p.total());
    for p in points {
        let speedup = match base {
            Some(b) if p.total().as_nanos() > 0 => b.as_secs_f64() / p.total().as_secs_f64(),
            _ => 1.0,
        };
        table.row(vec![
            p.threads.to_string(),
            dur(p.ingest),
            dur(p.knn),
            dur(p.total()),
            format!("{speedup:.2}x"),
        ]);
    }
    table
}

/// Default sweep grid: 1, 2, 4, and the hardware count — keeping only
/// counts the hardware can actually run in parallel (oversubscribing a
/// core measures scheduler overhead, not the engine). On a single-core
/// host the grid is just `[1]`.
pub fn default_thread_grid() -> Vec<usize> {
    let max = sapla_parallel::max_threads();
    let mut grid: Vec<usize> = [1usize, 2, 4, max].into_iter().filter(|&t| t <= max).collect();
    grid.sort_unstable();
    grid.dedup();
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_and_stays_deterministic() {
        let cfg = RunConfig::tiny();
        // thread_sweep panics internally if 2-thread results deviate.
        let points = thread_sweep(&cfg, &[1, 2], 3);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.total() > Duration::ZERO));
        let table = thread_sweep_table(&points);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn grid_is_sorted_and_unique() {
        let grid = default_thread_grid();
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(grid[0], 1);
    }
}
