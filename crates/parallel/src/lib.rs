//! # sapla-parallel
//!
//! A small parallel engine for the workspace's two hot paths (batch
//! ingest and multi-query k-NN), built on scoped threads from `std` — no
//! external dependencies.
//!
//! ## Guarantees
//!
//! - **Deterministic output order**: [`par_try_map`] places each result
//!   at its input index, so the output `Vec` is
//!   bit-for-bit identical to the sequential map regardless of thread
//!   count or scheduling.
//! - **First-error-by-input-order**: on failure the returned error is
//!   the one the *sequential* loop would have hit first (the failing
//!   item with the smallest index among all processed), not whichever
//!   worker errored first in wall time. Workers stop claiming items
//!   beyond the earliest known failure, so the engine also short-
//!   circuits like the sequential loop does.
//! - **Panic safety**: a panicking closure never aborts the process via
//!   a `join().expect(..)`. The payload is captured, the pool drains,
//!   and the panic resumes on the calling thread — observable with
//!   `std::panic::catch_unwind` exactly like a sequential panic. When a
//!   panic and an `Err` race, the one at the smaller input index wins,
//!   again matching sequential semantics. A panicking per-worker `init`
//!   stops the pool and resumes on the caller ahead of every item
//!   result, as it does on the sequential path.
//!
//! ## Scheduling
//!
//! One shared claim counter hands out contiguous blocks of
//! `(n / (threads · 8)).max(1)` input indices in input order: each
//! worker `fetch_add`s the next block start until the counter passes the
//! input or the earliest recorded failure. An idle worker therefore
//! always takes the next unclaimed block, so one long item holds back
//! only its own block (e.g. APLA's `O(N n²)` reductions mixed with cheap
//! PAA ones). Each worker returns its `(index, result)` pairs through
//! its join handle and the caller places them by index — no shared
//! result slots and no `unsafe`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hardware parallelism, used when callers pass `threads = 0`.
pub fn max_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Worker count actually used for `items` inputs: `requested` (or the
/// hardware count when `requested == 0`), clamped to the item count.
pub fn effective_threads(requested: usize, items: usize) -> usize {
    let t = if requested == 0 { max_threads() } else { requested };
    t.clamp(1, items.max(1))
}

/// Shared failure state: the earliest failing input index (error or
/// panic) and the first panic payload by input order.
struct Failures {
    /// Items with an index above this are skipped (sequential
    /// short-circuit semantics). `usize::MAX` while everything is fine.
    bound: AtomicUsize,
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

impl Failures {
    fn new() -> Failures {
        Failures { bound: AtomicUsize::new(usize::MAX), panic: Mutex::new(None) }
    }

    fn record_error(&self, index: usize) {
        self.bound.fetch_min(index, Ordering::AcqRel);
    }

    fn record_panic(&self, index: usize, payload: Box<dyn Any + Send>) {
        self.bound.fetch_min(index, Ordering::AcqRel);
        let mut slot = self.panic.lock().unwrap_or_else(|p| p.into_inner());
        match &*slot {
            Some((prev, _)) if *prev <= index => {}
            _ => *slot = Some((index, payload)),
        }
    }

    fn skip(&self, index: usize) -> bool {
        index > self.bound.load(Ordering::Acquire)
    }
}

/// What one worker hands back through its join handle: the results it
/// produced, in ascending input order, or the payload of its panicking
/// `init`.
type WorkerOutput<U, E> = Result<Vec<(usize, Result<U, E>)>, Box<dyn Any + Send>>;

/// Parallel fallible map with per-worker state.
///
/// Maps `f` over `items` on up to `threads` workers (`0` = hardware
/// count). `init` runs once per worker and its value is passed mutably
/// to every call that worker makes — reusable scratch (buffers, heaps)
/// without locks. Output order, error choice, and panic behaviour match
/// the sequential loop exactly (see the crate docs).
///
/// # Errors
///
/// The error of the failing item with the smallest input index, as the
/// sequential loop would return.
pub fn par_try_map_init<T, U, E, S, I, F>(
    items: &[T],
    threads: usize,
    init: I,
    f: F,
) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<U, E> + Sync,
{
    let n = items.len();
    let threads = effective_threads(threads, n);
    if threads <= 1 {
        // Register the engine counter even on the sequential fast path so
        // single-core profiles still show the row.
        sapla_obs::lane_counter!("parallel.tasks", 0, n as u64);
        let mut scratch = init();
        return items.iter().enumerate().map(|(i, t)| f(&mut scratch, i, t)).collect();
    }

    let failures = Failures::new();
    let next = AtomicUsize::new(0);
    // Small claim blocks: cheap enough to amortise the shared `fetch_add`,
    // small enough that a slow item delays only the few behind it.
    let block = (n / (threads * 8)).max(1);

    let outputs: Vec<WorkerOutput<U, E>> = std::thread::scope(|scope| {
        let worker = |wid: usize| -> WorkerOutput<U, E> {
            let _obs_worker = sapla_obs::worker::enter(wid);
            // After a panicking `init` no worker claims past index 0; the
            // caller resumes the panic ahead of every item result.
            let mut scratch =
                catch_unwind(AssertUnwindSafe(&init)).inspect_err(|_| failures.record_error(0))?;
            let mut done = Vec::new();
            loop {
                // Relaxed: the counter publishes no data. Read-modify-writes
                // of one atomic are totally ordered, so every claim gets its
                // own block, and results reach the caller through the joins.
                let start = next.fetch_add(block, Ordering::Relaxed);
                if start >= n || failures.skip(start) {
                    return Ok(done);
                }
                let end = start.saturating_add(block).min(n);
                sapla_obs::lane_counter!("parallel.tasks", wid, (end - start) as u64);
                for (i, item) in (start..end).zip(&items[start..end]) {
                    // Indices ascend and the bound only falls, so the
                    // rest of the block is skipped too.
                    if failures.skip(i) {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(&mut scratch, i, item))) {
                        Ok(result) => {
                            if result.is_err() {
                                failures.record_error(i);
                            }
                            done.push((i, result));
                        }
                        Err(payload) => failures.record_panic(i, payload),
                    }
                }
            }
        };
        // The calling thread doubles as worker 0.
        let handles: Vec<_> = (1..threads).map(|wid| scope.spawn(move || worker(wid))).collect();
        let mut outputs = vec![worker(0)];
        // Worker closures catch their own unwinds, so a join only fails
        // if the runtime itself misbehaves; that panic is passed on.
        outputs.extend(handles.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))));
        outputs
    });

    let mut slots: Vec<Option<Result<U, E>>> = std::iter::repeat_with(|| None).take(n).collect();
    for output in outputs {
        // A panicking `init` outranks every item result, as it does on
        // the sequential path, where no item runs at all.
        for (i, result) in output.unwrap_or_else(|payload| resume_unwind(payload)) {
            slots[i] = Some(result);
        }
    }
    let mut out = Vec::with_capacity(n);
    let panic = failures.panic.lock().unwrap_or_else(|p| p.into_inner()).take();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(value)) => out.push(value),
            Some(Err(err)) => {
                // An earlier panic outranks this error in input order.
                if let Some((pi, payload)) = panic {
                    if pi < i {
                        resume_unwind(payload);
                    }
                }
                return Err(err);
            }
            // Skipped past the first failure: resolve what that was.
            None => {
                if let Some((pi, payload)) = panic {
                    if pi == i {
                        resume_unwind(payload);
                    }
                }
                unreachable!("slot {i} empty without a recorded failure");
            }
        }
    }
    if let Some((_, payload)) = panic {
        resume_unwind(payload);
    }
    Ok(out)
}

/// [`par_try_map_init`] without per-worker state.
///
/// # Errors
///
/// The error of the failing item with the smallest input index.
pub fn par_try_map<T, U, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<U, E> + Sync,
{
    par_try_map_init(items, threads, || (), |(), i, t| f(i, t))
}

/// Infallible parallel map with deterministic output order.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    match par_try_map(items, threads, |i, t| Ok::<U, std::convert::Infallible>(f(i, t))) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn matches_sequential_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0, 1, 2, 3, 4, 7, 16, 64] {
            let par = par_map(&items, threads, |_, x| x * x + 1);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 8, |_, x| *x).is_empty());
        assert_eq!(par_map(&[5u32], 8, |_, x| x + 1), vec![6]);
    }

    #[test]
    fn first_error_is_by_input_order() {
        // Errors at many indices; index 3 must win on every schedule.
        let items: Vec<usize> = (0..400).collect();
        for threads in [2, 4, 7] {
            for _ in 0..16 {
                let got: Result<Vec<usize>, String> = par_try_map(&items, threads, |_, &x| {
                    if x == 3 || x >= 5 {
                        Err(format!("fail {x}"))
                    } else {
                        Ok(x)
                    }
                });
                assert_eq!(got.unwrap_err(), "fail 3", "threads = {threads}");
            }
        }
    }

    #[test]
    fn short_circuits_after_an_early_error() {
        let processed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10_000).collect();
        let got: Result<Vec<usize>, &str> = par_try_map(&items, 4, |_, &x| {
            processed.fetch_add(1, Ordering::Relaxed);
            if x == 0 {
                Err("boom")
            } else {
                std::thread::yield_now();
                Ok(x)
            }
        });
        assert_eq!(got.unwrap_err(), "boom");
        // Not a hard guarantee of an exact count, but the skip bound must
        // have pruned the overwhelming majority of the input.
        assert!(processed.load(Ordering::Relaxed) < items.len(), "no short-circuit happened");
    }

    #[test]
    fn worker_panics_resume_on_the_caller() {
        let items: Vec<usize> = (0..100).collect();
        let outcome = std::panic::catch_unwind(|| {
            let _ = par_map(&items, 4, |_, &x| {
                if x == 41 {
                    panic!("worker panic at {x}");
                }
                x
            });
        });
        let payload = outcome.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("worker panic at 41"), "payload: {msg}");
    }

    #[test]
    fn earlier_error_beats_later_panic() {
        let items: Vec<usize> = (0..100).collect();
        let got = std::panic::catch_unwind(|| {
            par_try_map(&items, 4, |_, &x| {
                if x == 90 {
                    panic!("late panic");
                }
                if x == 2 {
                    return Err("early error");
                }
                Ok(x)
            })
        });
        // The index-2 error precedes the index-90 panic in input order,
        // so the call returns Err rather than unwinding.
        assert_eq!(got.expect("no unwind"), Err("early error"));
    }

    #[test]
    fn earlier_panic_beats_later_error() {
        let items: Vec<usize> = (0..100).collect();
        let got = std::panic::catch_unwind(|| {
            par_try_map(&items, 4, |_, &x| {
                if x == 2 {
                    panic!("early panic");
                }
                if x == 90 {
                    return Err("late error");
                }
                Ok(x)
            })
        });
        assert!(got.is_err(), "the index-2 panic must win over the index-90 error");
    }

    #[test]
    fn per_worker_scratch_is_reused_not_shared() {
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..5_000).collect();
        let out: Result<Vec<usize>, std::convert::Infallible> = par_try_map_init(
            &items,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |scratch, _, &x| {
                scratch.push(x);
                Ok(scratch.len())
            },
        );
        assert_eq!(out.unwrap().len(), items.len());
        let created = inits.load(Ordering::Relaxed);
        assert!(created <= 4, "scratch created per worker, got {created}");
    }

    #[test]
    fn skewed_work_keeps_input_order() {
        // One pathological item at the front; with static striping the
        // first worker would serialise everything behind it.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, 4, |i, &x| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn a_long_item_holds_back_no_other_item() {
        // Item 0 waits until every other item has finished. Whichever
        // worker runs it, the other workers must be able to claim all 30.
        let finished = AtomicUsize::new(0);
        let items: Vec<usize> = (0..31).collect();
        let seen = par_map(&items, 4, |i, _| {
            if i > 0 {
                finished.fetch_add(1, Ordering::AcqRel);
                return 0;
            }
            let deadline = Instant::now() + Duration::from_secs(3);
            while finished.load(Ordering::Acquire) < 30 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(100));
            }
            finished.load(Ordering::Acquire)
        });
        assert_eq!(seen[0], 30, "items still queued behind the long one after 3 s");
    }

    #[test]
    fn a_panicking_init_resumes_on_the_caller() {
        // Run on a thread of its own so a hung pool fails the test at the
        // timeout instead of hanging the suite.
        let (tx, rx) = mpsc::channel();
        let caller = std::thread::spawn(move || {
            let inits = AtomicUsize::new(0);
            let items: Vec<usize> = (0..100).collect();
            let outcome = std::panic::catch_unwind(|| {
                par_try_map_init(
                    &items,
                    2,
                    || {
                        if inits.fetch_add(1, Ordering::Relaxed) == 1 {
                            panic!("init panic");
                        }
                    },
                    |(), _, &x| if x == 0 { Err("item error") } else { Ok(x) },
                )
            });
            let _ = tx.send(outcome.map_err(|p| p.downcast_ref::<&str>().map(|m| m.to_string())));
        });
        let outcome = rx.recv_timeout(Duration::from_secs(10)).expect("the pool hung");
        caller.join().unwrap();
        // The init panic outranks the index-0 error.
        assert_eq!(outcome, Err(Some("init panic".to_string())));
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(1, 100), 1);
        assert_eq!(effective_threads(0, 0), 1);
        assert!(effective_threads(0, 1_000) >= 1);
    }
}
