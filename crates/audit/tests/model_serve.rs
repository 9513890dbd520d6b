//! Interleaving exploration of the `sapla-serve` admission queue.
//!
//! `crates/serve/src/server.rs` coordinates three parties around one
//! `Mutex<VecDeque<Job>> + Condvar + AtomicBool` triple: connection
//! threads enqueue jobs (`handle_knn`), `E` executors each take a fair
//! share of what is pending (`batch_loop`), and shutdown raises the
//! flag and wakes every executor (`raise_shutdown_flag`).
//! [`QueueModel`] re-expresses that protocol over the model-aware
//! primitives in `sapla_audit::model` — a [`Mutex`]/[`Condvar`] pair
//! whose lock, wait, and notify operations are scheduling steps (which
//! sleeping executor a `notify_one` wakes is one too), plus the model's
//! [`AtomicCell`] for the shutdown flag — so the CHESS-style explorer
//! can enumerate every interleaving up to a preemption bound and check:
//!
//! * **Accepted ⇒ answered exactly once**: a job admitted under the
//!   queue lock is answered by some executor even when shutdown races
//!   it.
//! * **Rejected ⇒ never answered**: a job refused at admission is not
//!   silently processed.
//! * **Termination**: every schedule finishes — no deadlock, no lost
//!   wakeup stranding an executor, within the step budget.
//! * **Work conservation**: no executor turns to its cohort leaving a
//!   job queued while every other executor sleeps.
//!
//! The shipped protocol passes exhaustively at one executor (the path a
//! 1-CPU host or a `threads = 0` server takes) and at two, with and
//! without injected spurious wakeups — at two, the full five threads
//! (two executors, two connection threads, the stopper) without a
//! preemption, four-thread reductions with one, and the five threads
//! with preemptions anywhere by seeded sampling only (see the tests for
//! what each reduction gives up). Each way of getting it wrong that
//! the model exists to catch is planted and must be found: the pre-fix
//! `initiate_shutdown` that stored the flag *outside* the queue lock
//! ([`QueueModel::stop_buggy`], the historical `Server::stop` hang), a
//! shutdown that wakes one executor of two, a fair-share drain without
//! the baton, and an `if` where the predicate loop belongs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use sapla_audit::model::{
    explore, run_schedule_spurious, AtomicCell, Condvar, Mutex, Policy, RunTrace,
};

/// Generous step budget: the largest harness below takes ~80 steps.
const MAX_STEPS: usize = 2000;

/// How an executor leaves the queue after taking its share.
#[derive(Clone, Copy, PartialEq)]
enum Drain {
    /// The shipped `batch_loop`: `⌈len / E⌉` jobs, then a `notify_one`
    /// if any are left.
    FairShare,
    /// Canary: the same share, but the leftover is left to whoever the
    /// enqueuers' own notifies happen to wake.
    NoBaton,
}

/// The serve admission protocol, reduced to its synchronisation
/// skeleton: jobs are plain ids, "answering" is bumping a counter.
struct QueueModel {
    queue: Mutex<VecDeque<usize>>,
    available: Condvar,
    shutdown: AtomicCell,
    /// `queue.len()`, stored under the queue lock. A plain atomic, so
    /// reading it is not a scheduling point.
    queued: AtomicUsize,
    executors: usize,
}

impl QueueModel {
    fn new(executors: usize) -> Self {
        QueueModel {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicCell::new(0),
            queued: AtomicUsize::new(0),
            executors,
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) == 1
    }

    /// Mirrors `handle_knn`'s admission block: the flag is checked
    /// under the queue lock, so an admitted job is guaranteed an
    /// executor pass (an executor only exits with the lock held, flag
    /// up, queue empty).
    fn enqueue(&self, job: usize) -> bool {
        {
            let mut q = self.queue.lock();
            if self.shutting_down() {
                return false;
            }
            q.push_back(job);
            self.queued.store(q.len(), Ordering::Relaxed);
        }
        self.available.notify_one();
        true
    }

    /// Mirrors `batch_loop`: take a fair share of what is pending,
    /// FIFO, pass the baton if anything is left, or exit once the flag
    /// is up and the queue is empty; wait in a predicate-checked loop
    /// otherwise.
    fn batch_loop(&self, answered: &[AtomicUsize], drain: Drain) {
        loop {
            let (jobs, left_some): (Vec<usize>, bool) = {
                let mut q = self.queue.lock();
                loop {
                    if !q.is_empty() {
                        let share = q.len().div_ceil(self.executors);
                        let jobs = q.drain(..share).collect();
                        self.queued.store(q.len(), Ordering::Relaxed);
                        break (jobs, !q.is_empty());
                    }
                    if self.shutting_down() {
                        return;
                    }
                    q = self.available.wait(q);
                }
            };
            if left_some && drain == Drain::FairShare {
                self.available.notify_one();
            }
            self.assert_work_conserving();
            for j in jobs {
                answered[j].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Checked by an executor at the instant it turns to its cohort: it
    /// must not leave jobs queued with every other executor asleep —
    /// the idle core the executors exist to remove. (No scheduling
    /// point separates the two reads, so they are one instant.) The
    /// baton makes this hold by the executor's own doing, whatever the
    /// connection threads' pending notifies are up to.
    fn assert_work_conserving(&self) {
        let queued = self.queued.load(Ordering::Relaxed);
        let asleep = self.available.blocked_waiters();
        assert!(
            queued == 0 || asleep + 1 < self.executors,
            "executor went to work leaving {queued} job(s) queued and {asleep} executor(s) asleep"
        );
    }

    /// The pre-fix `initiate_shutdown`: flag stored *outside* the
    /// queue lock. The store + notify can land between an executor's
    /// flag check and its wait — the notify finds no waiter, the
    /// executor sleeps forever (lost wakeup ⇒ `Server::stop` hang).
    fn stop_buggy(&self) {
        self.shutdown.store(1, Ordering::Release);
        self.available.notify_all();
    }

    /// Mirrors the shipped `raise_shutdown_flag`: the store happens
    /// under the queue lock, so it cannot land inside an executor's
    /// check-then-wait window (the executor holds the lock throughout).
    fn stop_fixed(&self) {
        {
            let _q = self.queue.lock();
            self.shutdown.store(1, Ordering::Release);
        }
        self.available.notify_all();
    }

    /// Canary: the shipped store, but a `notify_one` where every
    /// executor has to hear about it.
    fn stop_wakes_one(&self) {
        {
            let _q = self.queue.lock();
            self.shutdown.store(1, Ordering::Release);
        }
        self.available.notify_one();
    }
}

/// What one controlled execution runs: `executors` executor threads
/// (ids first), then `enqueuers` connection threads with `requests`
/// jobs each, then the stopper.
#[derive(Clone, Copy)]
struct Harness {
    executors: usize,
    enqueuers: usize,
    /// Jobs a connection thread enqueues, one after the other. More
    /// than one makes the model thread stand for that many connections
    /// whose admissions happen back to back: every schedule is one of
    /// theirs, with a thread fewer to interleave.
    requests: usize,
    drain: Drain,
    stop: fn(&QueueModel),
    /// Who shuts down: a thread of its own, or — one thread fewer to
    /// interleave — the last connection thread after its request, as a
    /// client's `shutdown` command does.
    stopper_thread: bool,
}

/// The protocol `sapla-serve` ships, at `executors` executors and one
/// request per connection thread.
fn shipped(executors: usize, enqueuers: usize, stopper_thread: bool) -> Harness {
    Harness {
        executors,
        enqueuers,
        requests: 1,
        drain: Drain::FairShare,
        stop: QueueModel::stop_fixed,
        stopper_thread,
    }
}

/// One controlled execution of executors vs. enqueuers vs. stopper,
/// asserting the queue invariants. `spurious` is the injected
/// spurious-wakeup budget.
fn run_queue(replay: &[usize], policy: Policy, spurious: usize, h: Harness) -> RunTrace {
    let model = QueueModel::new(h.executors);
    let jobs = h.enqueuers * h.requests;
    let answered: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
    let accepted: Vec<AtomicBool> = (0..jobs).map(|_| AtomicBool::new(false)).collect();
    let threads = h.executors + h.enqueuers + usize::from(h.stopper_thread);
    let trace = run_schedule_spurious(threads, replay, policy, MAX_STEPS, spurious, |tid| {
        if tid < h.executors {
            return model.batch_loop(&answered, h.drain);
        }
        let conn = tid - h.executors;
        if conn < h.enqueuers {
            for request in 0..h.requests {
                let job = conn * h.requests + request;
                accepted[job].store(model.enqueue(job), Ordering::Relaxed);
            }
        }
        let stops = if h.stopper_thread { conn == h.enqueuers } else { conn + 1 == h.enqueuers };
        if stops {
            (h.stop)(&model);
        }
    });
    assert!(!trace.exceeded_budget, "schedule {} hit the step budget", trace.schedule_id());
    for (job, (n, ok)) in answered.iter().zip(&accepted).enumerate() {
        let n = n.load(Ordering::Relaxed);
        if ok.load(Ordering::Relaxed) {
            assert_eq!(
                n,
                1,
                "admitted job {job} answered {n} times (lost if 0) under schedule {}",
                trace.schedule_id()
            );
        } else {
            assert_eq!(
                n,
                0,
                "rejected job {job} was answered under schedule {}",
                trace.schedule_id()
            );
        }
    }
    trace
}

/// Run `explore` expecting some schedule to fail; returns the panic
/// message of the first one that does.
fn first_failure(bound: usize, run: impl FnMut(&[usize]) -> RunTrace) -> String {
    let caught =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| explore(bound, 100_000, run)));
    let payload = caught.expect_err("the planted bug must fail some schedule");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// `explore` over the shipped protocol in configuration `h`, run to
/// completion; returns how many schedules that was.
fn exhaust(bound: usize, spurious: usize, h: Harness) -> usize {
    let out = explore(bound, 100_000, |replay| run_queue(replay, Policy::Continue, spurious, h));
    assert!(!out.capped, "enumeration must run to completion, not hit the cap");
    out.schedules
}

/// One executor — what a 1-CPU host or a `threads = 0` server runs, and
/// the whole protocol before there were several: its share is the whole
/// queue and it never has a baton to pass. Every interleaving of
/// enqueue vs. drain vs. shutdown up to 4 preemptions terminates with
/// the queue invariants intact. The schedule counts are pinned so a
/// protocol or model change that silently shrinks the explored space
/// fails loudly (1,737 is what the single batcher thread pinned).
#[test]
fn one_executor_is_exhaustively_clean() {
    assert_eq!(exhaust(4, 0, shipped(1, 1, true)), 1737, "schedule count changed — retune the pin");
}

/// One injected spurious wakeup allowed per run: the predicate loops
/// re-check their conditions, so a wakeup without a notify must change
/// nothing.
#[test]
fn one_executor_tolerates_spurious_wakeups() {
    assert_eq!(
        exhaust(4, 1, shipped(1, 1, true)),
        12021,
        "schedule count changed — retune the pin"
    );
}

/// Two executors on the one queue, the configuration the server runs
/// on two cores: two executors, two connection threads, the stopper.
/// These five threads are enumerated with **no preemption** only —
/// every order in which threads can follow one another when they block
/// or finish, and every pick of which sleeping executor a `notify_one`
/// wakes — so no schedule here cuts into a check-then-wait or a
/// drain-then-baton window: one preemption on five threads is about
/// 40,000 schedules and two minutes, also with the stopper held back
/// until both admissions are over. The three tests below put the
/// preemption back on four-thread reductions, and the randomized run
/// covers the five threads with preemptions anywhere, by sampling.
/// Every schedule answers each accepted job once, no rejected one,
/// terminates, and never has an executor start a cohort while a job
/// waits and the other executor sleeps.
#[test]
fn two_executors_are_exhaustively_clean() {
    assert_eq!(exhaust(0, 0, shipped(2, 2, true)), 816, "schedule count changed — retune the pin");
}

/// One preemption anywhere with the shutdown on a thread of its own
/// *and* two requests in flight (so a share smaller than the queue, a
/// leftover and a baton): the two admissions run back to back on one
/// model thread. What this reduction gives up is the two connection
/// threads contending with each other, which the next test has.
#[test]
fn two_executors_survive_a_preemption_under_an_independent_shutdown() {
    let h = Harness { requests: 2, ..shipped(2, 1, true) };
    assert_eq!(exhaust(1, 0, h), 6316, "schedule count changed — retune the pin");
}

/// One preemption anywhere with two connection threads, on the
/// four-thread reduction that merges the stopper into the second of
/// them (a client's `shutdown` command): shutdown cannot race that
/// client's own admission here, which the test above has.
#[test]
fn two_executors_survive_a_preemption() {
    assert_eq!(
        exhaust(1, 0, shipped(2, 2, false)),
        6276,
        "schedule count changed — retune the pin"
    );
}

/// One preemption and one spurious wakeup of either executor, on the
/// single-request reduction with the stopper as a thread of its own: a
/// single job is a whole share, so nothing is left over and no baton is
/// passed (the randomized run below injects spurious wakeups into all
/// five threads).
#[test]
fn two_executors_tolerate_spurious_wakeups() {
    assert_eq!(exhaust(1, 1, shipped(2, 1, true)), 5334, "schedule count changed — retune the pin");
}

/// The checker must *find* the historical `Server::stop` hang, not
/// just bless the fix: with the flag stored outside the queue lock,
/// some schedule loses the wakeup and an executor blocks forever —
/// reported as a model deadlock.
#[test]
fn buggy_stop_deadlocks_on_a_lost_wakeup() {
    for executors in [1, 2] {
        let h = Harness { stop: QueueModel::stop_buggy, ..shipped(executors, 1, true) };
        let msg = first_failure(4, |replay| run_queue(replay, Policy::Continue, 0, h));
        assert!(msg.contains("deadlock"), "expected a model deadlock report, got: {msg}");
    }
}

/// What `notify_one ≡ notify_all` used to hide: a shutdown that wakes
/// one executor strands the other. With one executor the same code is
/// correct, so the exploration passes there.
#[test]
fn a_stop_that_wakes_one_executor_strands_the_other() {
    let h = |executors| Harness { stop: QueueModel::stop_wakes_one, ..shipped(executors, 1, true) };
    exhaust(2, 0, h(1));
    let msg = first_failure(2, |replay| run_queue(replay, Policy::Continue, 0, h(2)));
    assert!(msg.contains("deadlock"), "expected a model deadlock report, got: {msg}");
}

/// A fair-share drain that leaves jobs behind without passing the
/// baton still answers everything — each enqueue brings its own
/// notify — but only once that notify runs: until then a job sits
/// queued beside a sleeping executor while the other one works. Found
/// on both two-request reductions, so both reach the baton.
#[test]
fn a_drain_without_the_baton_leaves_a_job_beside_a_sleeping_executor() {
    for shipped in [shipped(2, 2, false), Harness { requests: 2, ..shipped(2, 1, true) }] {
        let h = Harness { drain: Drain::NoBaton, ..shipped };
        let msg = first_failure(1, |replay| run_queue(replay, Policy::Continue, 0, h));
        assert!(msg.contains("executor(s) asleep"), "expected the work-conservation report: {msg}");
    }
}

/// `n` executors that wait with `if` instead of a predicate loop, each
/// good for one job, against `n` connection threads.
fn run_if_wait(replay: &[usize], spurious: usize, n: usize) -> RunTrace {
    let model = QueueModel::new(n);
    let trace =
        run_schedule_spurious(2 * n, replay, Policy::Continue, MAX_STEPS, spurious, |tid| {
            if tid >= n {
                model.enqueue(tid - n);
                return;
            }
            let mut q = model.queue.lock();
            if q.is_empty() {
                // BUG (planted): `if`, not a predicate loop.
                q = model.available.wait(q);
            }
            assert!(q.pop_front().is_some(), "the if-wait executor woke to an empty queue");
        });
    assert!(!trace.exceeded_budget, "schedule {} hit the step budget", trace.schedule_id());
    trace
}

/// An executor that treats a wakeup as "there is a job for me" is
/// wrong twice over. Alone it survives until a spurious wakeup: with no
/// budget the naive code passes (every wakeup really is a notify), with
/// a budget of 1 the explorer finds the empty queue. Beside a second
/// executor it needs no spurious wakeup at all: the other one takes the
/// job between the notify and the woken executor's re-lock.
#[test]
fn an_if_instead_of_while_wait_is_caught() {
    let clean = explore(4, 100_000, |replay| run_if_wait(replay, 0, 1));
    assert!(!clean.capped);
    for (spurious, executors) in [(1, 1), (0, 2)] {
        let msg = first_failure(4, |replay| run_if_wait(replay, spurious, executors));
        assert!(msg.contains("woke to an empty queue"), "expected the planted failure, got: {msg}");
    }
}

/// Default iteration count and base seed of the randomized runs.
const RANDOM_RUNS: u64 = 5000;
const RANDOM_SEED: u64 = 0x5AB1A;

/// Seeded randomized long-run mode over the shipped protocol — two
/// executors, two connection threads, the stopper — with spurious
/// wakeups allowed: the one place where these five threads run with
/// preemptions anywhere, and so where the baton path meets a shutdown
/// that races the admissions from a thread of its own. It samples, it
/// does not enumerate; 5,000 runs (≈ 1.5 s) is more than twice what the
/// slowest planted bug below needed over four base seeds (6–2,220 runs,
/// five of the twelve above 200). Tunable
/// without recompiling: `SAPLA_AUDIT_RANDOM_RUNS` (iterations) and
/// `SAPLA_AUDIT_SEED` (base seed, decimal) — a nightly job can run
/// hundreds of thousands.
#[test]
fn randomized_long_run_mode() {
    let env = |name: &str| std::env::var(name).ok().and_then(|v| v.parse().ok());
    let runs: u64 = env("SAPLA_AUDIT_RANDOM_RUNS").unwrap_or(RANDOM_RUNS);
    let seed: u64 = env("SAPLA_AUDIT_SEED").unwrap_or(RANDOM_SEED);
    for i in 0..runs {
        run_queue(&[], Policy::Random(seed.wrapping_add(i)), 1, shipped(2, 2, true));
    }
}

/// The sampling has to be worth something: on the same five threads,
/// with the default seed and inside the default number of runs, it must
/// find each planted bug — the flag stored outside the lock, the
/// shutdown that wakes one executor, the drain without the baton.
#[test]
fn the_randomized_run_finds_every_planted_bug_on_five_threads() {
    for (bug, h) in [
        ("unlocked flag store", Harness { stop: QueueModel::stop_buggy, ..shipped(2, 2, true) }),
        ("wake-one shutdown", Harness { stop: QueueModel::stop_wakes_one, ..shipped(2, 2, true) }),
        ("no baton", Harness { drain: Drain::NoBaton, ..shipped(2, 2, true) }),
    ] {
        let found = (0..RANDOM_RUNS).any(|i| {
            let policy = Policy::Random(RANDOM_SEED.wrapping_add(i));
            std::panic::catch_unwind(|| run_queue(&[], policy, 1, h)).is_err()
        });
        assert!(found, "{RANDOM_RUNS} random schedules never hit the planted bug: {bug}");
    }
}
