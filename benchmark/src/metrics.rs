//! The benchmark's metric declarations, the percentile rule, and the
//! per-run report that must hold exactly the declared names.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before it counts as a
/// regression; per-layer metrics are reported, never gated. `exact`
/// marks a count the program makes: it repeats bit for bit for one
/// seed, so `compare` pairs runs by seed and any drop is a regression;
/// its bound only covers sets whose seeds differ.
#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl { name, unit, better, bound: Some(bound), exact: false }
}

const fn count(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl { name, unit, better, bound: Some(bound), exact: true }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl { name, unit, better, bound: None, exact: false }
}

use Better::{Higher, Lower};

/// What a user of the system sees; printed by an untraced run. Each
/// bound is about twice the widest spread (interquartile range over
/// median of ten runs with ten seeds) seen on any workload on the
/// shared 2-core sandbox, capped at the 25% the driver allows; see
/// `README.md`. The spread of a count is seed-to-seed variation only.
/// Timings are medians and throughputs. The tails (`index.knn_p95_us`,
/// `serve.closed_p95_ms`) and the saturation throughput
/// (`serve.sat_qps`) are per-layer metrics: in the sandbox's slow
/// stretches they move 30–70% while the medians move 15–25%, so no bound
/// the driver allows would hold them. Failures are not a metric here: a
/// run reports `attempted` and `failed` beside the metrics.
pub const END_TO_END: &[MetricDecl] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("build_series_per_s", "1/s", Higher, 0.20),
    e2e("knn_p50_us", "us", Lower, 0.25),
    e2e("knn_speedup_vs_scan", "ratio", Higher, 0.25),
    e2e("knn_batch_qps", "1/s", Higher, 0.25),
    e2e("range_p50_us", "us", Lower, 0.25),
    count("recall_at_k", "ratio", Higher, 0.03),
    count("range_recall", "ratio", Higher, 0.06),
    count("reduce_max_dev", "sd", Lower, 0.02),
    count("snapshot_bytes_per_series", "B", Lower, 0.01),
    e2e("load_first_answer_ms", "ms", Lower, 0.20),
    e2e("serve_p50_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// One layer each (layer = crate, the prefix of the name); printed by a
/// traced run. `README.md` says which end-to-end metric each should
/// move, and on which workload.
pub const PER_LAYER: &[MetricDecl] = &[
    layer("core.reduce_us_per_series", "us", Lower),
    layer("core.query_prepare_us", "us", Lower),
    layer("distance.par_ns_per_eval", "ns", Lower),
    layer("distance.euclid_ns_per_eval", "ns", Lower),
    layer("index.tree_build_us_per_series", "us", Lower),
    layer("index.knn_us_per_query", "us", Lower),
    layer("index.knn_p95_us", "us", Lower),
    layer("index.refined_per_query", "count", Lower),
    layer("index.pruning_power", "ratio", Lower),
    layer("index.refine_share", "ratio", Lower),
    layer("index.range_us_per_query", "us", Lower),
    layer("index.range_refined_per_query", "count", Lower),
    layer("index.scan_us_per_query", "us", Lower),
    layer("index.knn_vs_scan", "ratio", Higher),
    layer("index.batch_us_per_query_t1", "us", Lower),
    layer("index.snapshot_encode_ms", "ms", Lower),
    layer("index.snapshot_adopt_ms", "ms", Lower),
    layer("parallel.batch_speedup", "ratio", Higher),
    layer("parallel.build_speedup", "ratio", Higher),
    layer("store.read_parse_ms", "ms", Lower),
    layer("store.write_mb_per_s", "MB/s", Higher),
    layer("store.bytes_per_raw_byte", "ratio", Lower),
    layer("serve.closed_p95_ms", "ms", Lower),
    layer("serve.sat_qps", "1/s", Higher),
    layer("serve.overhead_p50_us", "us", Lower),
    layer("serve.mean_batch_queries", "count", Higher),
    layer("serve.max_batch_queries", "count", Higher),
    layer("serve.open_p50_ms", "ms", Lower),
    layer("serve.open_p99_ms", "ms", Lower),
    layer("serve.gen_late_p99_ms", "ms", Lower),
    layer("serve.reload_ms_p50", "ms", Lower),
    layer("serve.reloads_done", "count", Higher),
    layer("obs.trace_overhead_pct", "%", Lower),
];

/// Look a metric up in both tables.
pub fn decl(name: &str) -> Option<&'static MetricDecl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Nearest-rank percentile of ascending `sorted`.
///
/// # Panics
///
/// When `sorted` is empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of `pct` among `n` samples. The small slack
/// keeps a product that is a whole number in exact arithmetic (99.9% of
/// 10 000) from rounding up to the next rank.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// A percentile is reported only with at least this many samples
/// beyond it, so one slow outlier cannot set it.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support reporting percentile `pct`.
pub fn supported(n: usize, pct: f64) -> bool {
    n > 0 && n - rank(n, pct) >= MIN_BEYOND
}

/// Sort `samples` and return their nearest-rank median and percentile
/// `tail`.
///
/// # Errors
///
/// When there are too few samples for `tail` with [`MIN_BEYOND`] samples
/// beyond it (fewer than 1000 for a p99, 200 for a p95).
pub fn median_and_tail(samples: &mut [f64], tail: f64, what: &str) -> Result<(f64, f64), String> {
    if !supported(samples.len(), tail) {
        return Err(format!("{what}: {} samples do not support a p{tail}", samples.len()));
    }
    samples.sort_by(f64::total_cmp);
    Ok((percentile(samples, 50.0), percentile(samples, tail)))
}

/// Median (mean of the middle two for an even count).
///
/// # Panics
///
/// When `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A measured metric value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// The metric values of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Measured>,
}

impl Report {
    /// Record a metric.
    ///
    /// # Panics
    ///
    /// When `name` is not declared or is set twice: both are bugs in
    /// the harness, not conditions of a run.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(decl(name).is_some(), "metric {name} is not declared");
        let previous = self.values.insert(name, Measured { value, samples });
        assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values.get(name).copied()
    }

    /// The values of the metrics of `table`, in its order.
    ///
    /// # Errors
    ///
    /// When a metric of `table` was not measured or is not finite.
    pub fn in_order(
        &self,
        table: &'static [MetricDecl],
    ) -> Result<Vec<(&'static MetricDecl, Measured)>, String> {
        table
            .iter()
            .map(|d| match self.values.get(d.name) {
                Some(m) if m.value.is_finite() => Ok((d, *m)),
                Some(m) => Err(format!("metric {} is not finite: {}", d.name, m.value)),
                None => Err(format!("metric {} was not measured", d.name)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(!supported(0, 50.0));
        // The highest percentile each sample count supports: every lower
        // one holds too, none above it does.
        let ladder = [50.0, 90.0, 95.0, 99.0, 99.9];
        for (n, top) in [(25usize, 50.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)] {
            for p in ladder {
                assert_eq!(supported(n, p), p <= top, "n = {n}, p = {p}");
            }
        }
        assert!(ladder.iter().all(|&p| !supported(10, p)));
    }

    #[test]
    fn a_tail_refuses_small_samples() {
        let mut few = vec![1.0; 500];
        assert!(median_and_tail(&mut few, 99.0, "few").is_err());
        assert_eq!(median_and_tail(&mut few, 95.0, "few").unwrap(), (1.0, 1.0));
        let mut enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        assert_eq!(median_and_tail(&mut enough, 99.0, "enough").unwrap(), (499.0, 989.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(crate::workload::is_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = decl("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn report_must_hold_every_metric_of_its_table() {
        let mut r = Report::default();
        for d in END_TO_END {
            r.set(d.name, 1.0, 1);
        }
        assert_eq!(r.in_order(END_TO_END).unwrap().len(), END_TO_END.len());
        assert!(r.in_order(PER_LAYER).is_err());
        let mut partial = Report::default();
        partial.set("setup_s", 1.0, 1);
        assert!(partial.in_order(END_TO_END).is_err());
        let mut nan = Report::default();
        for d in END_TO_END {
            nan.set(d.name, f64::NAN, 1);
        }
        assert!(nan.in_order(END_TO_END).is_err());
    }
}
