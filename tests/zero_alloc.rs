//! Steady-state allocation accounting for the SAPLA reduce kernel, the
//! `Dist_PAR` kernels and the k-NN driver.
//!
//! This binary installs a counting global allocator and asserts that
//! `Sapla::reduce_into` with a warmed [`SaplaScratch`] performs **zero**
//! heap allocations — the contract the heap-driven refinement kernel and
//! the scratch workspace exist to provide — and that a k-NN search with
//! a warmed scratch allocates only the answer it returns. Kept as its own
//! integration test binary, and counted **per thread**: the tests of this
//! binary run on parallel threads next to the harness's own, so a
//! process-wide counter charges each test with its neighbours'
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sapla_core::sapla::{Sapla, SaplaScratch};
use sapla_core::TimeSeries;

/// `System`, but counting every allocation and reallocation of the
/// calling thread.
struct CountingAlloc;

thread_local! {
    // `const` + no destructor: touching it never allocates or registers
    // anything, which an allocator hook could not afford.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

/// Allocations made by the calling thread so far.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn workload() -> Vec<(TimeSeries, Sapla)> {
    // Varying lengths and targets so the scratch's high-water marks are
    // exercised by more than one shape.
    [(96usize, 6usize), (257, 12), (400, 9), (64, 4), (512, 16)]
        .into_iter()
        .map(|(len, target)| {
            let v: Vec<f64> = (0..len)
                .map(|t| (t as f64 * 0.11).sin() * 8.0 + ((t * 37) % 11) as f64 * 0.5)
                .collect();
            (TimeSeries::new(v).unwrap(), Sapla::with_segments(target))
        })
        .collect()
}

#[test]
fn warmed_reduce_into_allocates_nothing() {
    let work = workload();
    let mut scratch = SaplaScratch::new();
    let mut buf = Vec::new();

    // Two warm-up passes over the *same* series set: the first grows every
    // buffer to its high-water mark, the second proves the marks are
    // stable (the kernel is deterministic, so pass three repeats pass two
    // allocation-for-allocation). With `obs` enabled the warm-up also
    // performs each call site's one-time registry push, so the measured
    // passes below hold the zero-alloc contract in *both* feature states.
    for _ in 0..2 {
        for (series, sapla) in &work {
            sapla.reduce_into(series, &mut scratch, &mut buf).unwrap();
        }
    }

    let before = alloc_calls();
    for (series, sapla) in &work {
        sapla.reduce_into(series, &mut scratch, &mut buf).unwrap();
    }
    let after = alloc_calls();

    assert_eq!(
        after - before,
        0,
        "steady-state reduce_into performed {} heap allocations",
        after - before
    );
}

/// The `Dist_PAR` kernels' contract: once a query's plan is compiled,
/// per-candidate evaluation is a fused walk that buffers nothing and is
/// allocation-free — and so is the plan-less streaming walk the oracle
/// searches run. Exercised over both candidate layouts (stored
/// representation and store view) with the abandon bound both infinite
/// and finite.
#[test]
fn warmed_planned_dist_par_allocates_nothing() {
    use sapla_core::sapla::Sapla;
    use sapla_distance::{dist_par_sq, dist_par_sq_planned, safe_sq_bound, QueryPlan, SoaSegs};

    let series: Vec<TimeSeries> = (0..6)
        .map(|i| {
            let v: Vec<f64> = (0..200)
                .map(|t| ((t as f64 + i as f64 * 13.0) * 0.09).sin() * 5.0 + i as f64)
                .collect();
            TimeSeries::new(v).unwrap()
        })
        .collect();
    let sapla = Sapla::with_segments(8);
    let reps: Vec<_> = series.iter().map(|s| sapla.reduce(s).unwrap()).collect();
    let cands: Vec<_> = reps[1..].to_vec();
    let plan = QueryPlan::new(&reps[0]);
    // The candidates' coefficients flat, as a tree's store holds them.
    let flat: Vec<(Vec<f64>, Vec<f64>, Vec<usize>)> = cands
        .iter()
        .map(|c| {
            let segs = c.segments();
            (
                segs.iter().map(|s| s.a).collect(),
                segs.iter().map(|s| s.b).collect(),
                segs.iter().map(|s| s.r).collect(),
            )
        })
        .collect();

    let run = || {
        let mut acc = 0.0f64;
        for (c, (a, b, r)) in cands.iter().zip(&flat) {
            acc += dist_par_sq_planned(&plan, c, f64::INFINITY).unwrap();
            let view = SoaSegs::new(a, b, r).unwrap();
            acc += dist_par_sq_planned(&plan, view, f64::INFINITY).unwrap();
            // Finite abandon bound: tight enough to trigger on some
            // candidates, exercising the sentinel path too.
            acc += dist_par_sq_planned(&plan, c, safe_sq_bound(4.0)).unwrap();
            // The plan-less reference walk streams its windows.
            acc += dist_par_sq(&reps[0], view).unwrap();
        }
        std::hint::black_box(acc);
    };

    // Warm-up: performs obs call-site registration when that feature is
    // on (the fused kernels themselves have nothing to grow).
    run();
    run();

    let before = alloc_calls();
    run();
    let after = alloc_calls();

    assert_eq!(
        after - before,
        0,
        "steady-state Dist_PAR performed {} heap allocations",
        after - before
    );
}

/// The k-NN driver's contract: with a warmed [`sapla_index::KnnScratch`]
/// a DBCH-tree search allocates only the answer it returns — the
/// `retrieved` and `distances` vectors of its `SearchStats`, two
/// allocations per query. The result heap, node queue and hull memo are
/// grown to their high-water marks by the warm-up passes and reused.
#[test]
fn warmed_knn_allocates_only_its_answer() {
    use sapla_baselines::{Reducer, SaplaReducer};
    use sapla_index::{scheme_for, DbchTree, KnnScratch, Query};

    let raws: Vec<TimeSeries> = (0..80)
        .map(|i| {
            let v: Vec<f64> = (0..96)
                .map(|t| ((t + i * 7) as f64 * 0.13).sin() * (1.0 + (i % 4) as f64 * 0.3))
                .collect();
            TimeSeries::new(v).unwrap()
        })
        .collect();
    let reducer = SaplaReducer::new();
    let scheme = scheme_for("SAPLA").unwrap();
    let reps: Vec<_> = raws.iter().map(|s| reducer.reduce(s, 12).unwrap()).collect();
    let tree = DbchTree::build(scheme.as_ref(), reps, 2, 5).unwrap();
    let queries: Vec<Query> =
        raws.iter().step_by(9).map(|s| Query::new(s, &reducer, 12).unwrap()).collect();
    let mut scratch = KnnScratch::new();
    // Allocations of each query's search, in query order.
    let mut run = || -> Vec<u64> {
        queries
            .iter()
            .map(|q| {
                let before = alloc_calls();
                let stats =
                    tree.knn_with_scratch(q, 5, scheme.as_ref(), &raws, &mut scratch).unwrap();
                let calls = alloc_calls() - before;
                assert_eq!(stats.retrieved.len(), 5);
                calls
            })
            .collect()
    };

    // Two warm-up passes, as for the reduce kernel above.
    run();
    run();
    let calls = run();

    assert!(
        calls.iter().all(|&c| c == 2),
        "a warmed k-NN search must allocate exactly its two output vectors, got {calls:?}"
    );
}

/// Satellite of the sapla-obs PR: with the `obs` feature *off*, the
/// instrumented hot paths must behave as if the instrumentation were
/// never written — no metrics recorded, no span state, and (checked via
/// the counting allocator) not a single extra heap allocation from the
/// macros. The macros expand to `()` in this build, so this test is the
/// behavioural half of the zero-cost claim (the compiled-code half is
/// the lifecycle benchmark, which measures the stock `obs`-off build).
///
/// The test self-skips when the feature is on (e.g. the
/// `--features obs` CI matrix entry) — the instrumented build is
/// *allowed* to allocate once per call site at registration, which the
/// warm-up passes above absorb but this test exists to forbid entirely.
#[test]
fn obs_off_is_free() {
    if sapla_obs::enabled() {
        return;
    }
    let work = workload();
    let mut scratch = SaplaScratch::new();
    let mut buf = Vec::new();
    for _ in 0..2 {
        for (series, sapla) in &work {
            sapla.reduce_into(series, &mut scratch, &mut buf).unwrap();
        }
    }

    let before = alloc_calls();
    for (series, sapla) in &work {
        sapla.reduce_into(series, &mut scratch, &mut buf).unwrap();
    }
    // Capturing a snapshot in a disabled build must not allocate either:
    // there is no registry to walk.
    let snap = sapla_obs::Snapshot::capture();
    // The request-tracing surfaces are equally inert when disabled: the
    // flight recorder, the windowed sketches, and the obs clock all
    // compile to no-ops.
    let trace = sapla_obs::recorder::begin();
    sapla_obs::recorder::stage(trace, sapla_obs::recorder::Stage::Decode, 0, 1);
    sapla_obs::recorder::set_meta(trace, sapla_obs::recorder::Meta::K, 4);
    let total = sapla_obs::recorder::end(trace);
    sapla_obs::windowed!("zero.alloc.window", 0, 1);
    let clock = sapla_obs::clock::now_ns();
    let after = alloc_calls();

    assert_eq!(
        after - before,
        0,
        "obs-off instrumented paths performed {} heap allocations",
        after - before
    );
    assert!(snap.is_empty(), "disabled build recorded metrics: {snap:?}");
    assert_eq!(sapla_obs::span_depth(), 0);
    assert_eq!(sapla_obs::worker::get(), 0);
    assert_eq!(trace, sapla_obs::recorder::TraceId::NONE);
    assert_eq!((total, clock), (0, 0));
    assert!(!sapla_obs::recorder::armed());
}
