//! Real implementation, compiled only with the `obs` feature.
//!
//! Every macro call site declares its own function-local `static` metric.
//! The first time a site fires it pushes a `&'static` reference into the
//! global registry (the single, one-time allocation); after that the hot
//! path is a relaxed `fetch_add` plus a relaxed "already registered" load.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::sketch::WindowedHist;
use crate::{HistSnapshot, Snapshot, MAX_LANES, MAX_SPAN_DEPTH};

/// Power-of-two histogram buckets: bucket `i` holds values whose bit
/// length is `i` (bucket 0 holds zero). 44 buckets cover durations up to
/// ~73 minutes in nanoseconds; larger values fold into the last bucket.
pub(crate) const BUCKETS: usize = 44;

// Interior mutability is the point of these consts: they exist only as
// repeat-expression initializers for atomic arrays in `const fn new`.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);

enum Entry {
    Counter(&'static Counter),
    Gauge(&'static MaxGauge),
    Lanes(&'static LaneCounter),
    Hist(&'static Histogram),
    Windowed(&'static WindowedHist),
}

static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

fn lock_registry() -> MutexGuard<'static, Vec<Entry>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Push `entry` exactly once even when several threads race the first hit:
/// the flag is re-checked under the registry lock.
fn register_entry(flag: &AtomicBool, entry: Entry) {
    let mut reg = lock_registry();
    if !flag.swap(true, Ordering::AcqRel) {
        reg.push(entry);
    }
}

/// Registration hook for [`WindowedHist`] (lives in `crate::sketch`, so
/// it cannot name the private [`Entry`] type itself).
pub(crate) fn register_windowed_entry(flag: &AtomicBool, w: &'static WindowedHist) {
    register_entry(flag, Entry::Windowed(w));
}

/// A named monotonic event counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    // audit: no_alloc
    #[inline]
    pub fn add(&'static self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    #[cold]
    fn register(&'static self) {
        register_entry(&self.registered, Entry::Counter(self));
    }
}

/// A named high-water-mark gauge (`fetch_max` semantics).
pub struct MaxGauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl MaxGauge {
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        MaxGauge { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    // audit: no_alloc
    #[inline]
    pub fn record(&'static self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    #[cold]
    fn register(&'static self) {
        register_entry(&self.registered, Entry::Gauge(self));
    }
}

/// A counter split across [`MAX_LANES`] lanes. Lanes index workers (for
/// the parallel engine) or tree levels (for per-level fanout); indices at
/// or above [`MAX_LANES`] fold into the last lane so totals stay exact.
pub struct LaneCounter {
    name: &'static str,
    lanes: [AtomicU64; MAX_LANES],
    registered: AtomicBool,
}

impl LaneCounter {
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        LaneCounter { name, lanes: [ZERO_U64; MAX_LANES], registered: AtomicBool::new(false) }
    }

    // audit: no_alloc
    #[inline]
    pub fn add(&'static self, lane: usize, n: u64) {
        let idx = if lane < MAX_LANES { lane } else { MAX_LANES - 1 };
        self.lanes[idx].fetch_add(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    #[cold]
    fn register(&'static self) {
        register_entry(&self.registered, Entry::Lanes(self));
    }
}

/// A fixed-bucket power-of-two histogram (see [`BUCKETS`]).
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    registered: AtomicBool,
}

impl Histogram {
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO_U64; BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    // audit: no_alloc
    #[inline]
    pub fn record(&'static self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    /// Register without recording, so idle histograms still surface (as
    /// zero-count rows) in snapshots — the pre-registration pattern.
    pub fn register_only(&'static self) {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    #[cold]
    fn register(&'static self) {
        register_entry(&self.registered, Entry::Hist(self));
    }
}

/// Bucket index of value `v`: its bit length, folded into the last
/// bucket past [`BUCKETS`].
// audit: no_alloc
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    let bits = 64 - v.leading_zeros() as usize;
    if bits < BUCKETS {
        bits
    } else {
        BUCKETS - 1
    }
}

/// `[lower, upper)` bounds of bucket `idx`. Bucket 0 is `[0, 1)` (only
/// zero); bucket `i > 0` is `[2^(i-1), 2^i)`; the last bucket's upper
/// bound saturates at `u64::MAX`.
pub(crate) fn bucket_bounds(idx: usize) -> (u64, u64) {
    let lower = if idx == 0 { 0 } else { 1u64 << (idx - 1) };
    let upper = if idx >= BUCKETS - 1 { u64::MAX } else { 1u64 << idx };
    (lower, upper)
}

// ---------------------------------------------------------------------------
// Thread-local worker attribution + span stack.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct SpanStack {
    depth: usize,
    names: [&'static str; MAX_SPAN_DEPTH],
}

thread_local! {
    static WORKER: Cell<usize> = const { Cell::new(0) };
    static SPANS: Cell<SpanStack> = const {
        Cell::new(SpanStack { depth: 0, names: [""; MAX_SPAN_DEPTH] })
    };
}

/// Per-thread worker-id attribution for per-worker lanes and span time.
pub mod worker {
    /// Restores the previous worker id on drop.
    pub struct WorkerGuard {
        prev: usize,
    }

    impl Drop for WorkerGuard {
        fn drop(&mut self) {
            super::WORKER.with(|c| c.set(self.prev));
        }
    }

    /// Tag the current thread as worker `wid` until the guard drops.
    #[must_use]
    pub fn enter(wid: usize) -> WorkerGuard {
        let prev = super::WORKER.with(|c| c.replace(wid));
        WorkerGuard { prev }
    }

    /// The current thread's worker id (0 outside the parallel engine).
    #[must_use]
    pub fn get() -> usize {
        super::WORKER.with(std::cell::Cell::get)
    }
}

/// Name of the innermost active span on this thread, if any.
#[must_use]
pub fn current_span() -> Option<&'static str> {
    SPANS.with(|c| {
        let s = c.get();
        if s.depth == 0 || s.depth > MAX_SPAN_DEPTH {
            if s.depth == 0 {
                None
            } else {
                Some(s.names[MAX_SPAN_DEPTH - 1])
            }
        } else {
            Some(s.names[s.depth - 1])
        }
    })
}

/// Current span nesting depth on this thread (may exceed
/// [`MAX_SPAN_DEPTH`]; only the name stack saturates).
#[must_use]
pub fn span_depth() -> usize {
    SPANS.with(|c| c.get().depth)
}

/// RAII span: records the elapsed monotonic-clock nanoseconds into its
/// histogram on drop, attributes the time to the current worker's lane,
/// and maintains the thread-local span name stack.
#[must_use = "a span records its duration when the guard drops"]
pub struct SpanGuard {
    hist: &'static Histogram,
    worker_ns: &'static LaneCounter,
    start: Instant,
}

impl SpanGuard {
    // audit: no_alloc
    pub fn enter(
        name: &'static str,
        hist: &'static Histogram,
        worker_ns: &'static LaneCounter,
    ) -> Self {
        SPANS.with(|c| {
            let mut s = c.get();
            if s.depth < MAX_SPAN_DEPTH {
                s.names[s.depth] = name;
            }
            s.depth += 1;
            c.set(s);
        });
        SpanGuard { hist, worker_ns, start: Instant::now() }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(ns);
        self.worker_ns.add(worker::get(), ns);
        SPANS.with(|c| {
            let mut s = c.get();
            s.depth = s.depth.saturating_sub(1);
            c.set(s);
        });
    }
}

// ---------------------------------------------------------------------------
// Snapshot capture / reset.
// ---------------------------------------------------------------------------

/// Capture every registered metric, merging same-named call sites
/// (counters and histograms sum, gauges max, lanes sum element-wise).
#[must_use]
pub fn capture() -> Snapshot {
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut lanes: BTreeMap<&'static str, [u64; MAX_LANES]> = BTreeMap::new();
    let mut hists: BTreeMap<&'static str, (u64, u64, [u64; BUCKETS])> = BTreeMap::new();
    let mut wins: BTreeMap<(&'static str, usize), crate::sketch::enabled::WinAcc> = BTreeMap::new();
    {
        let reg = lock_registry();
        for entry in reg.iter() {
            match entry {
                Entry::Counter(c) => {
                    *counters.entry(c.name).or_insert(0) += c.value.load(Ordering::Relaxed);
                }
                Entry::Gauge(g) => {
                    let v = g.value.load(Ordering::Relaxed);
                    let slot = gauges.entry(g.name).or_insert(0);
                    if v > *slot {
                        *slot = v;
                    }
                }
                Entry::Lanes(l) => {
                    let slot = lanes.entry(l.name).or_insert([0; MAX_LANES]);
                    for (dst, src) in slot.iter_mut().zip(l.lanes.iter()) {
                        *dst += src.load(Ordering::Relaxed);
                    }
                }
                Entry::Hist(h) => {
                    let slot = hists.entry(h.name).or_insert((0, 0, [0; BUCKETS]));
                    slot.0 += h.count.load(Ordering::Relaxed);
                    slot.1 += h.sum.load(Ordering::Relaxed);
                    for (dst, src) in slot.2.iter_mut().zip(h.buckets.iter()) {
                        *dst += src.load(Ordering::Relaxed);
                    }
                }
                Entry::Windowed(w) => w.accumulate(&mut wins),
            }
        }
    }
    Snapshot {
        counters: counters.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
        gauges: gauges.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
        lanes: lanes
            .into_iter()
            .map(|(n, ls)| {
                let keep = ls.iter().rposition(|&v| v > 0).map_or(1, |last| last + 1);
                (n.to_string(), ls[..keep].to_vec())
            })
            .collect(),
        histograms: hists
            .into_iter()
            .map(|(n, (count, sum, bs))| HistSnapshot {
                name: n.to_string(),
                count,
                sum,
                buckets: bs
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(i, &c)| {
                        let (lo, hi) = bucket_bounds(i);
                        (lo, hi, c)
                    })
                    .collect(),
            })
            .collect(),
        windows: wins.into_iter().map(|((n, lane), acc)| acc.into_snapshot(n, lane)).collect(),
    }
}

/// Zero every registered metric (entries stay registered, so counters a
/// run has touched keep appearing in snapshots with value 0).
pub fn reset() {
    let reg = lock_registry();
    for entry in reg.iter() {
        match entry {
            Entry::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Entry::Gauge(g) => g.value.store(0, Ordering::Relaxed),
            Entry::Lanes(l) => {
                for lane in &l.lanes {
                    lane.store(0, Ordering::Relaxed);
                }
            }
            Entry::Hist(h) => {
                h.count.store(0, Ordering::Relaxed);
                h.sum.store(0, Ordering::Relaxed);
                for b in &h.buckets {
                    b.store(0, Ordering::Relaxed);
                }
            }
            Entry::Windowed(w) => w.reset(),
        }
    }
}

// ---------------------------------------------------------------------------
// Macros (feature on). Each expansion declares its own static metric.
// ---------------------------------------------------------------------------

/// Increment a named counter: `counter!("dist.par.evals")` or
/// `counter!("index.knn.considered", n)`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::counter!($name, 1u64)
    };
    ($name:literal, $n:expr) => {{
        static __SAPLA_OBS_C: $crate::Counter = $crate::Counter::new($name);
        __SAPLA_OBS_C.add($n);
    }};
}

/// Add to one lane of a per-worker / per-level counter:
/// `lane_counter!("parallel.tasks", wid, len)`.
#[macro_export]
macro_rules! lane_counter {
    ($name:literal, $lane:expr, $n:expr) => {{
        static __SAPLA_OBS_L: $crate::LaneCounter = $crate::LaneCounter::new($name);
        __SAPLA_OBS_L.add($lane, $n);
    }};
}

/// Record a high-water mark: `gauge_max!("serve.queue.depth.hwm", depth)`.
#[macro_export]
macro_rules! gauge_max {
    ($name:literal, $v:expr) => {{
        static __SAPLA_OBS_G: $crate::MaxGauge = $crate::MaxGauge::new($name);
        __SAPLA_OBS_G.record($v);
    }};
}

/// Record a value into a histogram: `hist!("dist.par.windows", len)`.
#[macro_export]
macro_rules! hist {
    ($name:literal, $v:expr) => {{
        static __SAPLA_OBS_H: $crate::Histogram = $crate::Histogram::new($name);
        __SAPLA_OBS_H.record($v);
    }};
}

/// Open a span: `let _span = span!("sapla.reduce");` — duration lands in
/// the `$name` histogram and the `$name.worker_ns` per-worker lanes when
/// the guard drops.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __SAPLA_OBS_SH: $crate::Histogram = $crate::Histogram::new($name);
        static __SAPLA_OBS_SW: $crate::LaneCounter =
            $crate::LaneCounter::new(concat!($name, ".worker_ns"));
        $crate::SpanGuard::enter($name, &__SAPLA_OBS_SH, &__SAPLA_OBS_SW)
    }};
}

/// Record into a windowed percentile sketch:
/// `windowed!("serve.stage.queue", 0, ns)` (lane, value).
#[macro_export]
macro_rules! windowed {
    ($name:literal, $lane:expr, $v:expr) => {{
        static __SAPLA_OBS_W: $crate::sketch::WindowedHist =
            $crate::sketch::WindowedHist::new($name);
        __SAPLA_OBS_W.record($lane, $v);
    }};
}

/// Pre-register a histogram so it appears (count 0) before first use.
#[macro_export]
macro_rules! register_hist {
    ($name:literal) => {{
        static __SAPLA_OBS_RH: $crate::Histogram = $crate::Histogram::new($name);
        __SAPLA_OBS_RH.register_only();
    }};
}

/// Pre-register a windowed sketch so its lane-0 row appears (count 0)
/// before first use.
#[macro_export]
macro_rules! register_windowed {
    ($name:literal) => {{
        static __SAPLA_OBS_RW: $crate::sketch::WindowedHist =
            $crate::sketch::WindowedHist::new($name);
        __SAPLA_OBS_RW.register_only();
    }};
}
