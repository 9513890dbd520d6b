//! `compare A.jsonl B.jsonl`: one row per workload × end-to-end metric
//! with base, new, ratio and a verdict — from the metric's bound and the
//! run-to-run spread, or, for a count the program makes, seed by seed;
//! per-layer metrics are listed beside, never judged.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::metrics::{median, Better, MetricDecl, END_TO_END, PER_LAYER};
use crate::workload::WORKLOADS;

/// `(seed, value)` of one metric on one workload, over the runs of a
/// result set.
type Samples = BTreeMap<(String, String), Vec<(u64, f64)>>;

/// Read a result set: one report (as `run --report` appends them) per
/// line. Untraced reports feed the end-to-end rows, traced ones the
/// per-layer rows.
pub fn read_set(text: &str) -> Result<Samples, String> {
    let mut out = Samples::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let report = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = report
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let seed = report
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("line {}: no seed", n + 1))? as u64;
        let metrics = report
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", n + 1))?;
            out.entry((workload.to_string(), name.clone())).or_default().push((seed, value));
        }
    }
    Ok(out)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so a spread computed here is the one
/// the driver computes. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4).enumerate() {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[slot] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median; zero for a single run, whose spread is unknown.
pub fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |[q1, q2, q3]| (q3 - q1) / q2.abs())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// The run-to-run spread is wider than the bound and the medians
    /// do not differ by more than the spread: not shown unchanged.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of `base` the value `new` is worse; negative when better.
fn worse_by(decl: &MetricDecl, base: f64, new: f64) -> f64 {
    match decl.better {
        Better::Lower => new / base - 1.0,
        Better::Higher => 1.0 - new / base,
    }
}

fn values(runs: &[(u64, f64)]) -> Vec<f64> {
    runs.iter().map(|&(_, value)| value).collect()
}

pub fn verdict(decl: &MetricDecl, base: &[(u64, f64)], new: &[(u64, f64)]) -> Verdict {
    if let Some(paired) = decl.exact.then(|| verdict_by_seed(decl, base, new)).flatten() {
        return paired;
    }
    let bound = decl.bound.expect("only end-to-end metrics are judged");
    let (base, new) = (values(base), values(new));
    let worse_by = worse_by(decl, median(&base), median(&new));
    let noise = spread(&base).max(spread(&new));
    let threshold = bound.max(noise);
    if worse_by > threshold {
        Verdict::Worse
    } else if worse_by < -threshold {
        Verdict::Better
    } else if noise > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// A count repeats exactly for one seed, so each run of `new` is held
/// against the run of `base` with its seed: any drop is `Worse`, however
/// small, and a gain on one seed does not pay for a drop on another.
/// `None` when the sets share no seed.
fn verdict_by_seed(decl: &MetricDecl, base: &[(u64, f64)], new: &[(u64, f64)]) -> Option<Verdict> {
    let base: BTreeMap<u64, f64> = base.iter().copied().collect();
    let moves: Vec<f64> = new
        .iter()
        .filter_map(|(seed, value)| base.get(seed).map(|b| worse_by(decl, *b, *value)))
        .collect();
    if moves.is_empty() {
        None
    } else if moves.iter().any(|&m| m > 0.0) {
        Some(Verdict::Worse)
    } else if moves.iter().any(|&m| m < 0.0) {
        Some(Verdict::Better)
    } else {
        Some(Verdict::Same)
    }
}

/// The comparison table. Returns the text and whether any row is
/// `worse`.
pub fn compare(base: &Samples, new: &Samples) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<18} {:<28} {:>14} {:>14} {:>7} {:>7} {:>6}  verdict",
        "workload", "end-to-end metric", "base", "new", "ratio", "spread", "bound"
    );
    for w in WORKLOADS {
        for d in END_TO_END {
            let key = (w.name.to_string(), d.name.to_string());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else { continue };
            let v = verdict(d, b, n);
            any_worse |= v == Verdict::Worse;
            let (b, n) = (&values(b), &values(n));
            let _ = writeln!(
                out,
                "{:<18} {:<28} {:>14.4} {:>14.4} {:>7.3} {:>7.3} {:>6.2}  {}",
                w.name,
                format!("{} [{}, {}]", d.name, d.unit, d.better.name()),
                median(b),
                median(n),
                median(n) / median(b),
                spread(b).max(spread(n)),
                d.bound.unwrap_or(0.0),
                v.name(),
            );
        }
    }
    let counts: Vec<&str> = END_TO_END.iter().filter(|d| d.exact).map(|d| d.name).collect();
    let _ = writeln!(
        out,
        "counts ({}) repeat exactly for one seed: where the sets share seeds they are judged \
         seed by seed, and any drop is worse",
        counts.join(", ")
    );
    let _ = writeln!(
        out,
        "\n{:<18} {:<40} {:>14} {:>14} {:>7}",
        "workload", "per-layer metric (never gated)", "base", "new", "ratio"
    );
    for w in WORKLOADS {
        for d in PER_LAYER {
            let key = (w.name.to_string(), d.name.to_string());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else { continue };
            let (b, n) = (&values(b), &values(n));
            let _ = writeln!(
                out,
                "{:<18} {:<40} {:>14.4} {:>14.4} {:>7.3}",
                w.name,
                format!("{} [{}, {}]", d.name, d.unit, d.better.name()),
                median(b),
                median(n),
                median(n) / median(b),
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
        assert_eq!(quartiles(&[2.0, 4.0, 4.0, 5.0, 7.0]).unwrap(), [3.0, 4.0, 6.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]).unwrap(), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        let lower = &MetricDecl {
            name: "t_us",
            unit: "us",
            better: Better::Lower,
            bound: Some(0.1),
            exact: false,
        };
        let higher = &MetricDecl { better: Better::Higher, ..*lower };
        let seeded = |values: Vec<f64>| -> Vec<(u64, f64)> { (1..).zip(values).collect() };
        let tight = |c: f64| seeded(vec![c * 0.99, c, c * 1.01, c * 1.005, c * 0.995]);
        assert_eq!(verdict(lower, &tight(100.0), &tight(105.0)), Verdict::Same);
        assert_eq!(verdict(lower, &tight(100.0), &tight(120.0)), Verdict::Worse);
        assert_eq!(verdict(lower, &tight(100.0), &tight(80.0)), Verdict::Better);
        assert_eq!(verdict(higher, &tight(100.0), &tight(80.0)), Verdict::Worse);
        assert_eq!(verdict(higher, &tight(100.0), &tight(120.0)), Verdict::Better);
        // A spread wider than the bound hides a 15% move…
        let wide = |c: f64| seeded(vec![c * 0.7, c * 0.85, c, c * 1.15, c * 1.3]);
        assert_eq!(verdict(lower, &wide(100.0), &wide(115.0)), Verdict::Unresolved);
        assert_eq!(verdict(lower, &wide(100.0), &wide(100.0)), Verdict::Unresolved);
        // …but not a move larger than the spread itself.
        assert_eq!(verdict(lower, &wide(100.0), &wide(200.0)), Verdict::Worse);
        // Single runs have no known spread: the bound alone decides.
        assert_eq!(verdict(lower, &[(1, 100.0)], &[(1, 111.0)]), Verdict::Worse);
        assert_eq!(verdict(lower, &[(1, 100.0)], &[(1, 109.0)]), Verdict::Same);
    }

    #[test]
    fn a_count_is_judged_seed_by_seed() {
        let recall = &MetricDecl {
            name: "recall",
            unit: "ratio",
            better: Better::Higher,
            bound: Some(0.03),
            exact: true,
        };
        let base = [(1, 0.70), (2, 0.64), (3, 0.68)];
        assert_eq!(verdict(recall, &base, &base), Verdict::Same);
        // Any drop regresses, far inside the bound and the seed-to-seed
        // spread, and whatever the other seeds gained.
        assert_eq!(verdict(recall, &base, &[(1, 0.70), (2, 0.6399), (3, 0.68)]), Verdict::Worse);
        assert_eq!(verdict(recall, &base, &[(1, 0.75), (2, 0.6399), (3, 0.70)]), Verdict::Worse);
        assert_eq!(verdict(recall, &base, &[(1, 0.70), (3, 0.6801)]), Verdict::Better);
        // Seeds the sets do not share are not paired…
        assert_eq!(verdict(recall, &base, &[(2, 0.64), (9, 0.10)]), Verdict::Same);
        // …and with none shared, the bound and the spread decide.
        let base = [(1, 0.680), (2, 0.682), (3, 0.684)];
        assert_eq!(verdict(recall, &base, &[(7, 0.675), (8, 0.677), (9, 0.679)]), Verdict::Same);
        assert_eq!(verdict(recall, &base, &[(7, 0.640), (8, 0.642), (9, 0.644)]), Verdict::Worse);
        let smaller = &MetricDecl { better: Better::Lower, ..*recall };
        assert_eq!(verdict(smaller, &base, &[(1, 0.679), (2, 0.682)]), Verdict::Better);
        assert_eq!(verdict(smaller, &base, &[(1, 0.681), (2, 0.682)]), Verdict::Worse);
    }

    #[test]
    fn compares_two_result_sets() {
        let line = |workload: &str, knn: f64, layer: f64| {
            format!(
                "{{\"workload\": \"{workload}\", \"seed\": 4, \"metrics\": {{\"knn_p50_us\": {{\"value\": {knn}, \"unit\": \"us\"}}, \
                 \"index.knn_us_per_query\": {{\"value\": {layer}, \"unit\": \"us\"}}}}}}\n"
            )
        };
        let base = read_set(&(line("short-wide", 100.0, 90.0) + &line("long-narrow", 50.0, 40.0)))
            .unwrap();
        let new =
            read_set(&(line("short-wide", 130.0, 120.0) + "\n" + &line("long-narrow", 50.5, 41.0)))
                .unwrap();
        let (table, any_worse) = compare(&base, &new);
        assert!(any_worse);
        let row = |needle: &str| table.lines().find(|l| l.contains(needle)).unwrap().to_string();
        assert!(row("short-wide         knn_p50_us").ends_with("worse"));
        assert!(row("long-narrow        knn_p50_us").ends_with("same"));
        assert!(row("short-wide         index.knn_us_per_query").contains("1.333"));
        let (_, any_worse) = compare(&base, &base);
        assert!(!any_worse);
        assert!(read_set("{\"metrics\": {}}").is_err());
        assert!(read_set("{\"workload\": \"short-wide\", \"metrics\": {}}").is_err());
        assert!(read_set("not json").is_err());
    }
}
