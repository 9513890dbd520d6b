//! Batch (and parallel) reduction of whole datasets — the ingest path of
//! the paper's protocol (117 datasets × 100 series).
//!
//! Reduction of independent series is embarrassingly parallel; the
//! parallel variant runs on the `sapla-parallel` engine, whose workers
//! claim small blocks from one shared counter, so skewed workloads
//! (APLA's `O(N n²)` reductions mixed with cheap PAA ones) spread across
//! workers instead of serialising behind a fixed stripe. With APLA's cost this is the difference between
//! minutes and hours on the full protocol.
//!
//! The parallel path is a drop-in for the sequential one: output order
//! is the input order, the returned error is the first failure *by
//! input order* (not by wall-clock), and a panicking reducer unwinds on
//! the caller instead of aborting a worker join.

use sapla_core::{Representation, Result, TimeSeries};
use sapla_parallel::par_try_map_init;

use crate::common::{ReduceScratch, Reducer};

/// Reduce every series sequentially, preserving order. One
/// [`ReduceScratch`] is reused across the whole batch, so SAPLA's stage
/// workspace reaches steady state after the first few series and stops
/// allocating.
///
/// # Errors
///
/// Returns the first reduction failure.
pub fn reduce_batch(
    reducer: &dyn Reducer,
    series: &[TimeSeries],
    m: usize,
) -> Result<Vec<Representation>> {
    let _span = sapla_obs::span!("baselines.reduce_batch");
    sapla_obs::counter!("baselines.reduce.series", series.len() as u64);
    let mut scratch = ReduceScratch::new();
    series.iter().map(|s| reducer.reduce_with_scratch(s, m, &mut scratch)).collect()
}

/// Reduce every series using up to `threads` worker threads, preserving
/// order. `threads = 0` uses the hardware thread count; `1` degrades to
/// the sequential path. For any thread count the result — including the
/// choice of error on failure — is identical to [`reduce_batch`].
///
/// # Errors
///
/// Returns the failure of the earliest failing series by input order,
/// exactly as the sequential loop would.
pub fn reduce_batch_parallel(
    reducer: &dyn Reducer,
    series: &[TimeSeries],
    m: usize,
    threads: usize,
) -> Result<Vec<Representation>> {
    if sapla_parallel::effective_threads(threads, series.len()) <= 1 {
        return reduce_batch(reducer, series, m);
    }
    let _span = sapla_obs::span!("baselines.reduce_batch");
    sapla_obs::counter!("baselines.reduce.series", series.len() as u64);
    par_try_map_init(series, threads, ReduceScratch::new, |scratch, _, s| {
        reducer.reduce_with_scratch(s, m, scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Paa, SaplaReducer};
    use sapla_core::Error;

    fn series(count: usize) -> Vec<TimeSeries> {
        (0..count)
            .map(|i| {
                TimeSeries::new((0..96).map(|t| ((t + i * 3) as f64 * 0.17).sin() * 2.0).collect())
                    .unwrap()
            })
            .collect()
    }

    /// A series too short to carry `m` segments — reduction fails with
    /// `InvalidSegmentCount { len }`, so the length identifies which
    /// failing series produced the returned error.
    fn short_series(len: usize) -> TimeSeries {
        TimeSeries::new((0..len).map(|t| t as f64).collect()).unwrap()
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = series(23);
        let reducer = SaplaReducer::new();
        let seq = reduce_batch(&reducer, &data, 12).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let par = reduce_batch_parallel(&reducer, &data, 12, threads).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input() {
        let reducer = SaplaReducer::new();
        assert!(reduce_batch_parallel(&reducer, &[], 12, 4).unwrap().is_empty());
    }

    #[test]
    fn errors_propagate() {
        // M = 0 fails for every series.
        let data = series(5);
        assert!(reduce_batch_parallel(&Paa, &data, 0, 3).is_err());
        assert!(reduce_batch(&Paa, &data, 0).is_err());
    }

    #[test]
    fn mid_batch_failure_returns_first_error_by_input_order() {
        // Two failing series of different lengths buried mid-batch: the
        // error must come from index 7 (len 3) on every thread count,
        // never from index 15 (len 5) regardless of which worker hits
        // its failure first in wall time.
        let mut data = series(23);
        data[7] = short_series(3);
        data[15] = short_series(5);
        for threads in [1usize, 2, 4, 7] {
            let err = reduce_batch_parallel(&Paa, &data, 12, threads).unwrap_err();
            match err {
                Error::InvalidSegmentCount { len, .. } => {
                    assert_eq!(len, 3, "threads = {threads}: wrong failing series");
                }
                other => panic!("unexpected error: {other:?}"),
            }
        }
    }

    #[test]
    fn more_threads_than_series_is_fine() {
        let data = series(2);
        let out = reduce_batch_parallel(&Paa, &data, 8, 16).unwrap();
        assert_eq!(out.len(), 2);
    }
}
