//! `sapla-obs`: a std-only, feature-gated tracing + metrics layer.
//!
//! The paper's claims are counted claims — refinement operations (Alg.
//! 4.3–4.5), `Dist_PAR` evaluations and pruning power (Fig. 13), DBCH-tree
//! node accesses (Figs. 15–16) — so the workspace instruments its hot paths
//! with named counters, fixed-bucket histograms, and lightweight spans. All
//! of it is gated behind the `obs` cargo feature:
//!
//! - **feature off** (default): every macro in this crate expands to `()`.
//!   No statics, no atomics, no branches are emitted at the call sites; the
//!   instrumented code compiles to exactly what it was before
//!   instrumentation. `Snapshot::capture()` returns an empty snapshot and
//!   [`enabled()`] is `false`, so downstream code needs no `cfg` of its own.
//! - **feature on**: each macro call site declares a function-local
//!   `static` metric and updates it with relaxed atomic operations. The hot
//!   path is one `fetch_add` plus one relaxed flag load; the only
//!   allocation ever performed is a one-time registry push the first time a
//!   call site fires (covered by warm-up in the zero-alloc tests).
//!
//! # Determinism caveat
//!
//! Counter *totals* are exact in every configuration (atomic adds never
//! lose updates). Single-threaded runs are therefore bit-reproducible.
//! Under the parallel engine, per-worker lanes attribute work to the
//! worker that performed it, but the interleaving is scheduling-dependent:
//! two runs may split the same total differently across lanes, and relaxed
//! ordering means a snapshot taken concurrently with workers is a
//! consistent set of per-metric values, not a globally ordered cut.

#[cfg(feature = "obs")]
mod enabled_impl;
#[cfg(feature = "obs")]
pub use enabled_impl::{
    capture, current_span, reset, span_depth, worker, Counter, Histogram, LaneCounter, MaxGauge,
    SpanGuard,
};

#[cfg(not(feature = "obs"))]
mod disabled_impl;
#[cfg(not(feature = "obs"))]
pub use disabled_impl::{capture, current_span, reset, span_depth, worker, SpanGuard};

pub mod clock;
pub mod recorder;
pub mod sketch;

/// `true` when this build carries instrumentation (`--features obs`).
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}

/// Largest number of per-worker / per-level lanes a [`LaneCounter`] keeps.
/// Lane indices at or above this fold into the last lane (attribution
/// becomes approximate past 32 workers; totals stay exact).
pub const MAX_LANES: usize = 32;

/// Deepest span nesting tracked by the thread-local span stack. Deeper
/// spans still record durations; only the name stack stops growing.
pub const MAX_SPAN_DEPTH: usize = 16;

/// A point-in-time export of every metric that has fired so far.
///
/// Same-named call sites (e.g. the same counter updated from two
/// functions) are merged: counters and histograms sum, gauges take the
/// max, lanes sum element-wise. Entries are sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic event counters, `(name, total)`.
    pub counters: Vec<(String, u64)>,
    /// High-water-mark gauges, `(name, max observed)`.
    pub gauges: Vec<(String, u64)>,
    /// Per-lane counters (lane = worker id or tree level), trailing zero
    /// lanes trimmed.
    pub lanes: Vec<(String, Vec<u64>)>,
    /// Value distributions (span durations in ns, partition sizes, ...).
    pub histograms: Vec<HistSnapshot>,
    /// Windowed percentile rows (one per `(name, lane)`), covering the
    /// last [`sketch::WINDOWS`] × [`sketch::WINDOW_NS`] of wall time.
    pub windows: Vec<WindowSnapshot>,
}

/// Exported state of one histogram.
#[derive(Debug, Clone, Default)]
pub struct HistSnapshot {
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (ns for span histograms).
    pub sum: u64,
    /// `(lower inclusive, upper exclusive, count)` per non-empty
    /// power-of-two bucket, self-describing so consumers need not
    /// re-derive the edges. The last bucket's upper bound saturates at
    /// `u64::MAX`.
    pub buckets: Vec<(u64, u64, u64)>,
}

/// Exported state of one windowed-percentile row: counts, the true
/// observed max, and bucket-resolution percentiles over the live
/// windows of one [`sketch::WindowedHist`] lane.
#[derive(Debug, Clone, Default)]
pub struct WindowSnapshot {
    pub name: String,
    /// Lane index (serve stages use lane 0; per-shard rows the shard id).
    pub lane: usize,
    /// Values recorded in the live windows.
    pub count: u64,
    /// Sum of those values (ns for latency sketches).
    pub sum: u64,
    /// True maximum observed in the live windows.
    pub max: u64,
    /// Median, clamped to `max` (bucket resolution, see `sketch` docs).
    pub p50: u64,
    /// 95th percentile, clamped to `max`.
    pub p95: u64,
    /// 99th percentile, clamped to `max`.
    pub p99: u64,
    /// `(lower inclusive, upper exclusive, count)` per non-empty bucket.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistSnapshot {
    /// Mean recorded value, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Snapshot {
    /// Capture the current state of every registered metric.
    #[must_use]
    pub fn capture() -> Self {
        capture()
    }

    /// `true` when nothing has been recorded (always true with `obs` off).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.lanes.is_empty()
            && self.histograms.is_empty()
            && self.windows.is_empty()
    }

    /// Hand-rolled JSON export (no serde).
    /// Always emits the four section keys so consumers can key on them
    /// regardless of feature state.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"enabled\": ");
        s.push_str(if enabled() { "true" } else { "false" });
        s.push_str(",\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            push_json_key(&mut s, name);
            s.push_str(&v.to_string());
        }
        if !self.counters.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            push_json_key(&mut s, name);
            s.push_str(&v.to_string());
        }
        if !self.gauges.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"lanes\": {");
        for (i, (name, vals)) in self.lanes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            push_json_key(&mut s, name);
            s.push('[');
            for (j, v) in vals.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&v.to_string());
            }
            s.push(']');
        }
        if !self.lanes.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            push_json_key(&mut s, &h.name);
            s.push_str("{\"count\": ");
            s.push_str(&h.count.to_string());
            s.push_str(", \"sum\": ");
            s.push_str(&h.sum.to_string());
            s.push_str(", \"buckets\": ");
            push_json_buckets(&mut s, &h.buckets);
            s.push('}');
        }
        if !self.histograms.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"windows\": [");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\"name\": ");
            push_json_string(&mut s, &w.name);
            s.push_str(&format!(
                ", \"lane\": {}, \"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": ",
                w.lane, w.count, w.sum, w.max, w.p50, w.p95, w.p99
            ));
            push_json_buckets(&mut s, &w.buckets);
            s.push('}');
        }
        if !self.windows.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Human-readable table, one metric per line, aligned.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !enabled() {
            out.push_str("observability disabled: rebuild with `--features obs`\n");
            return out;
        }
        if self.is_empty() {
            out.push_str("no metrics recorded\n");
            return out;
        }
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.lanes.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .chain(self.windows.iter().map(|w| w.name.len()))
            .max()
            .unwrap_or(0);
        for (name, v) in &self.counters {
            out.push_str(&format!("counter  {name:<width$}  {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge    {name:<width$}  max {v}\n"));
        }
        for (name, vals) in &self.lanes {
            let total: u64 = vals.iter().sum();
            let lanes: Vec<String> = vals.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "lanes    {name:<width$}  total {total}  per-lane [{}]\n",
                lanes.join(", ")
            ));
        }
        for h in &self.histograms {
            let max_lt = h.buckets.last().map_or(0, |&(_, hi, _)| hi);
            out.push_str(&format!(
                "hist     {:<width$}  count {}  sum {}  mean {:.1}  max< {}\n",
                h.name,
                h.count,
                h.sum,
                h.mean(),
                max_lt
            ));
        }
        for w in &self.windows {
            out.push_str(&format!(
                "window   {:<width$}  lane {}  count {}  p50 {}  p95 {}  p99 {}  max {}\n",
                w.name, w.lane, w.count, w.p50, w.p95, w.p99, w.max
            ));
        }
        out
    }
}

/// Append a quoted JSON string with minimal escaping (metric names are
/// ASCII identifiers with dots, but stay safe on arbitrary input).
fn push_json_string(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            // audit: cast_ok — char → u32 is lossless by definition.
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Append `"name": ` (see [`push_json_string`] for the quoting).
fn push_json_key(s: &mut String, name: &str) {
    push_json_string(s, name);
    s.push_str(": ");
}

/// Append `[[lower,upper,count], ...]` for self-describing buckets.
fn push_json_buckets(s: &mut String, buckets: &[(u64, u64, u64)]) {
    s.push('[');
    for (j, (lo, hi, n)) in buckets.iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        s.push('[');
        s.push_str(&lo.to_string());
        s.push(',');
        s.push_str(&hi.to_string());
        s.push(',');
        s.push_str(&n.to_string());
        s.push(']');
    }
    s.push(']');
}
