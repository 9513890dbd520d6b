//! Exact linear scan — the no-index baseline of Fig. 14b — plus the
//! GEMINI filtered scan (representation filter, exact refinement, no
//! tree), the third search path the planned-kernel equivalence tests
//! exercise.

use sapla_core::{Representation, Result, TimeSeries};
use sapla_distance::{euclidean_early_abandon, safe_sq_bound};

use crate::knn::{KnnHeap, SearchStats, SearchTally};
use crate::scheme::{Query, Scheme};

/// Exact k-NN by scanning every series (with early abandoning on the
/// running kth-best bound). `measured` equals the database size — linear
/// scan has no pruning power by definition.
///
/// # Errors
///
/// Propagates length mismatches.
pub fn linear_scan_knn(query: &TimeSeries, raws: &[TimeSeries], k: usize) -> Result<SearchStats> {
    let mut results = KnnHeap::new(k);
    let mut tally = SearchTally::default();
    tally.consider(raws.len());
    for (i, s) in raws.iter().enumerate() {
        let bound = results.threshold();
        tally.measure();
        if let Some(d) = euclidean_early_abandon(query, s, bound * bound)? {
            results.push(d, i);
        }
    }
    let (retrieved, distances) = results.into_sorted();
    Ok(SearchStats { retrieved, distances, measured: tally.finish_scan(), total: raws.len() })
}

/// GEMINI k-NN without a tree: scan every representation through the
/// scheme's pruned filter (planned `Dist_PAR` with early abandoning for
/// the adaptive schemes) and refine survivors exactly. The flat-scan
/// counterpart of the tree searches — same filter, no node bounds — so
/// it isolates the representation's pruning power from tree quality,
/// and serves as the third path in the planned-kernel equivalence
/// tests.
///
/// With valid lower bounds the retrieved set is the true k-NN; for the
/// adaptive schemes it inherits the conditional-bound caveat of
/// `Dist_PAR`.
///
/// # Errors
///
/// Propagates distance-computation failures.
pub fn filtered_scan_knn(
    q: &Query,
    reps: &[Representation],
    raws: &[TimeSeries],
    k: usize,
    scheme: &dyn Scheme,
) -> Result<SearchStats> {
    debug_assert_eq!(raws.len(), reps.len());
    let mut results = KnnHeap::new(k);
    let mut tally = SearchTally::default();
    let mut dist_scratch = sapla_distance::ParScratch::default();
    tally.consider(reps.len());
    for (i, rep) in reps.iter().enumerate() {
        let threshold = results.threshold();
        // Threshold ∞ (heap not yet full) ⇒ the filter cannot prune;
        // skip it, as the trees do. Strict-invariants builds keep it so
        // every candidate passes the lb ≤ exact audit.
        let skip_filter = threshold.is_infinite() && !cfg!(feature = "strict-invariants");
        if skip_filter || scheme.rep_within(q, rep, threshold, &mut dist_scratch)? {
            tally.measure();
            // Early-abandoning refinement, same contract as the trees:
            // abandoned ⇒ exact > threshold strictly ⇒ the push would be
            // popped straight back out, so skipping it changes nothing.
            match euclidean_early_abandon(&q.raw, &raws[i], safe_sq_bound(threshold))? {
                Some(exact) => {
                    #[cfg(feature = "strict-invariants")]
                    crate::scheme::assert_lb_le_exact(q, rep, exact, 0.0)?;
                    results.push(exact, i);
                }
                None => sapla_obs::counter!("index.knn.refine_abandoned"),
            }
        } else {
            tally.prune();
        }
    }
    let (retrieved, distances) = results.into_sorted();
    Ok(SearchStats { retrieved, distances, measured: tally.finish_knn(), total: raws.len() })
}

/// [`filtered_scan_knn`] for a batch of queries, candidate-major: every
/// query is evaluated against candidate `i` — filter, then refinement —
/// before any query moves to candidate `i + 1`, so one representation
/// and one raw series stay cache-hot across the whole query block (the
/// flat-scan analogue of the trees' query-major leaf batching).
///
/// Per query this is **bit-identical** to [`filtered_scan_knn`]: each
/// query's heap, thresholds, and candidate order are its own, so
/// swapping the loop nest never changes a query's operation sequence.
/// On failure the earliest (by query index) error is returned, exactly
/// as a sequential per-query loop would report.
///
/// # Errors
///
/// Propagates distance-computation failures.
pub fn filtered_scan_knn_batch(
    queries: &[Query],
    reps: &[Representation],
    raws: &[TimeSeries],
    k: usize,
    scheme: &dyn Scheme,
) -> Result<Vec<SearchStats>> {
    debug_assert_eq!(raws.len(), reps.len());
    let mut results: Vec<KnnHeap> = queries.iter().map(|_| KnnHeap::new(k)).collect();
    let mut tallies = vec![SearchTally::default(); queries.len()];
    let mut dist_scratch = sapla_distance::ParScratch::default();
    let mut first_err: Option<(usize, sapla_core::Error)> = None;
    let mut errored = vec![false; queries.len()];
    for t in &mut tallies {
        t.consider(reps.len());
    }
    for (i, rep) in reps.iter().enumerate() {
        for (qi, q) in queries.iter().enumerate() {
            if errored[qi] {
                continue;
            }
            // The exact per-candidate body of `filtered_scan_knn`.
            let heap = &mut results[qi];
            let threshold = heap.threshold();
            let skip_filter = threshold.is_infinite() && !cfg!(feature = "strict-invariants");
            let step = (|| -> Result<()> {
                if skip_filter || scheme.rep_within(q, rep, threshold, &mut dist_scratch)? {
                    tallies[qi].measure();
                    match euclidean_early_abandon(&q.raw, &raws[i], safe_sq_bound(threshold))? {
                        Some(exact) => {
                            #[cfg(feature = "strict-invariants")]
                            crate::scheme::assert_lb_le_exact(q, rep, exact, 0.0)?;
                            heap.push(exact, i);
                        }
                        None => sapla_obs::counter!("index.knn.refine_abandoned"),
                    }
                } else {
                    tallies[qi].prune();
                }
                Ok(())
            })();
            if let Err(e) = step {
                // Queries are independent: keep the earliest query
                // index's error, matching the sequential loop.
                errored[qi] = true;
                if first_err.as_ref().is_none_or(|&(eq, _)| qi < eq) {
                    first_err = Some((qi, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    let mut out = Vec::with_capacity(queries.len());
    for (heap, tally) in results.iter_mut().zip(tallies) {
        let (retrieved, distances) = heap.drain_sorted();
        out.push(SearchStats {
            retrieved,
            distances,
            measured: tally.finish_knn(),
            total: raws.len(),
        })
    }
    Ok(out)
}

/// Exact ε-range search by scanning every series.
///
/// # Errors
///
/// Propagates length mismatches.
pub fn linear_scan_range(
    query: &TimeSeries,
    raws: &[TimeSeries],
    epsilon: f64,
) -> Result<SearchStats> {
    let mut hits: Vec<(f64, usize)> = Vec::new();
    let mut tally = SearchTally::default();
    tally.consider(raws.len());
    for (i, s) in raws.iter().enumerate() {
        tally.measure();
        if let Some(d) = euclidean_early_abandon(query, s, epsilon * epsilon)? {
            if d <= epsilon {
                hits.push((d, i));
            }
        }
    }
    hits.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(SearchStats {
        retrieved: hits.iter().map(|&(_, i)| i).collect(),
        distances: hits.iter().map(|&(d, _)| d).collect(),
        measured: tally.finish_scan(),
        total: raws.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Vec<TimeSeries> {
        (0..20)
            .map(|i| {
                TimeSeries::new((0..32).map(|t| ((t * (i + 2)) as f64 * 0.11).sin()).collect())
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn returns_true_knn() {
        let raws = dataset();
        let q = raws[4].clone();
        let stats = linear_scan_knn(&q, &raws, 3).unwrap();
        assert_eq!(stats.retrieved[0], 4);
        assert_eq!(stats.measured, 20);
        assert!((stats.pruning_power() - 1.0).abs() < 1e-12);
        // Verify ordering against brute force.
        let mut truth: Vec<(f64, usize)> =
            raws.iter().enumerate().map(|(i, s)| (q.euclidean(s).unwrap(), i)).collect();
        truth.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(stats.retrieved, truth[..3].iter().map(|&(_, i)| i).collect::<Vec<_>>());
    }

    #[test]
    fn accuracy_is_one_by_construction() {
        let raws = dataset();
        let q = raws[0].clone();
        let stats = linear_scan_knn(&q, &raws, 5).unwrap();
        let truth: Vec<usize> = stats.retrieved.clone();
        assert_eq!(stats.accuracy(&truth), 1.0);
    }

    #[test]
    fn range_scan_matches_definition() {
        let raws = dataset();
        let q = raws[4].clone();
        let got = linear_scan_range(&q, &raws, 1.5).unwrap();
        for (i, s) in raws.iter().enumerate() {
            let d = q.euclidean(s).unwrap();
            assert_eq!(got.retrieved.contains(&i), d <= 1.5, "series {i} at {d}");
        }
        assert!(got.distances.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn filtered_scan_matches_plain_scan_for_paa() {
        use sapla_baselines::{Paa, Reducer};
        let raws = dataset();
        let reps: Vec<Representation> = raws.iter().map(|s| Paa.reduce(s, 8).unwrap()).collect();
        let scheme = crate::scheme::scheme_for("PAA").unwrap();
        let q = Query::new(&raws[4], &Paa, 8).unwrap();
        let filtered = filtered_scan_knn(&q, &reps, &raws, 4, scheme.as_ref()).unwrap();
        let plain = linear_scan_knn(&raws[4], &raws, 4).unwrap();
        // PAA's bound is a true lower bound, so the filtered scan is exact
        // and can only measure fewer series.
        assert_eq!(filtered.retrieved, plain.retrieved);
        assert!(filtered.measured <= plain.measured);
    }

    #[test]
    fn candidate_major_batch_matches_sequential_scan_bitwise() {
        use sapla_baselines::{Reducer, SaplaReducer};
        let raws = dataset();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let scheme = crate::scheme::scheme_for("SAPLA").unwrap();
        let queries: Vec<Query> =
            raws[..7].iter().map(|r| Query::new(r, &reducer, 12).unwrap()).collect();
        let sequential: Vec<SearchStats> = queries
            .iter()
            .map(|q| filtered_scan_knn(q, &reps, &raws, 4, scheme.as_ref()).unwrap())
            .collect();
        let batch = filtered_scan_knn_batch(&queries, &reps, &raws, 4, scheme.as_ref()).unwrap();
        assert_eq!(batch, sequential);
        for (b, s) in batch.iter().zip(&sequential) {
            for (bd, sd) in b.distances.iter().zip(&s.distances) {
                assert_eq!(bd.to_bits(), sd.to_bits());
            }
        }
    }

    #[test]
    fn batch_scan_surfaces_earliest_query_error() {
        use sapla_baselines::{Reducer, SaplaReducer};
        let raws = dataset();
        let reducer = SaplaReducer::new();
        let reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
        let scheme = crate::scheme::scheme_for("SAPLA").unwrap();
        // Two queries over a mismatched length; the earlier one's error
        // must win, exactly as a sequential per-query loop reports.
        let bad_a = TimeSeries::new((0..24).map(|t| (t as f64 * 0.3).sin()).collect()).unwrap();
        let bad_b = TimeSeries::new((0..40).map(|t| (t as f64 * 0.3).cos()).collect()).unwrap();
        let mut queries: Vec<Query> =
            raws[..5].iter().map(|r| Query::new(r, &reducer, 12).unwrap()).collect();
        queries[1] = Query::new(&bad_a, &reducer, 12).unwrap();
        queries[3] = Query::new(&bad_b, &reducer, 12).unwrap();
        let err = filtered_scan_knn_batch(&queries, &reps, &raws, 3, scheme.as_ref()).unwrap_err();
        match err {
            sapla_core::Error::LengthMismatch { left, right } => {
                assert!(left == 24 || right == 24, "expected query 1's mismatch (24 samples)");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn empty_database() {
        let q = TimeSeries::new(vec![1.0, 2.0]).unwrap();
        let stats = linear_scan_knn(&q, &[], 3).unwrap();
        assert!(stats.retrieved.is_empty());
        assert_eq!(stats.total, 0);
    }
}
