//! A controlled scheduler for deterministic interleaving exploration
//! (compiled only under the `audit-model` feature).
//!
//! The parallel engine's entire synchronisation protocol runs on
//! [`crate::cell::AtomicCell`]. Under `audit-model` every cell operation
//! calls [`yield_point`], which parks the calling thread until a
//! coordinator grants it one step. Because at most one virtual thread
//! runs between grants, an execution is fully determined by the sequence
//! of grant decisions — a **schedule** — and the coordinator can replay,
//! randomise, or exhaustively enumerate schedules:
//!
//! * [`run_schedule`] executes one schedule (a replay prefix + a policy
//!   for the suffix) and returns the full decision trace.
//! * [`explore`] drives a depth-first enumeration of all schedules of a
//!   harness up to a preemption bound, the classic CHESS-style coverage
//!   guarantee: every behaviour reachable with ≤ `preemption_bound`
//!   forced context switches is visited exactly once.
//!
//! Threads not registered with a controller (i.e. everything outside a
//! model run, even in a build with the feature enabled) pass through
//! [`yield_point`] with a single thread-local read.
//!
//! ## Blocking primitives
//!
//! [`Mutex`] and [`Condvar`] are model-aware drop-ins for their
//! `std::sync` namesakes (plain pass-throughs outside a model run):
//!
//! * `Mutex::lock` is one scheduling step; a contended lock parks the
//!   thread as *blocked* — blocked threads are not runnable, so the
//!   explorer never wastes schedules spinning on them, and unlocking
//!   re-enables every thread blocked on that mutex.
//! * `Condvar::wait` yields once *while still holding the mutex* and
//!   then releases-and-blocks in a single atomic transition, exactly
//!   std's contract: a notifier that holds the mutex can never land
//!   between the caller's last predicate check and the block (it is
//!   blocked on the mutex itself), while a notifier that does *not*
//!   hold the mutex can — which is precisely the lost-wakeup window
//!   the serve admission-queue model checks for.
//! * `notify_one` wakes exactly one thread blocked on the condvar (none
//!   if nobody is: the notification is lost, as in std). With two or
//!   more waiters *which* one wakes is a scheduling decision of its
//!   own — a [`Choice`] with `wake` set, enumerated by [`explore`] like
//!   any other — so a protocol that strands the waiter it did not wake
//!   is found, not hidden behind an over-approximating `notify_all`.
//! * [`run_schedule_spurious`] grants a *spurious-wakeup budget*: a
//!   thread blocked on a condvar counts as runnable while budget
//!   remains, and granting it a step wakes it with no notification —
//!   the explorer then enumerates spurious-wakeup interleavings too.
//! * If every unfinished thread is blocked and no spurious budget
//!   remains, the run is a **deadlock**: the blocked threads abort
//!   with a `model deadlock` panic and the failing schedule id is
//!   reported like any other failure.
//!
//! ## What the model does and does not cover
//!
//! Operations execute one at a time, so the exploration is sound for
//! **sequentially consistent** outcomes of the protocol: lost updates,
//! double claims, ABA-style races and livelocks at the granularity of
//! atomic operations. It does not model weak-memory reordering — the
//! protocol's orderings (`Acquire`/`Release`/`AcqRel` on a single word)
//! are the standard message-passing pattern whose SC approximation is
//! exact for single-variable protocols. Guard-protected data is not
//! instrumented (mutual exclusion already serialises it); scheduling
//! points are atomic-cell operations, lock acquisitions, the
//! pre-release instant of `wait`, and notifies.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// One scheduling decision: which thread was granted the step, and which
/// threads were runnable when the decision was taken (ascending ids).
/// A `wake` decision is the other kind: which of the threads blocked on
/// a condvar a `notify_one` woke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Choice {
    /// The thread that received the step (or, for a `wake` decision,
    /// the waiter that was woken).
    pub chosen: usize,
    /// Every thread that was runnable at this point (for a `wake`
    /// decision: every thread blocked on the notified condvar).
    pub enabled: Vec<usize>,
    /// True when this decision picked the waiter a [`Condvar::notify_one`]
    /// wakes. No step is granted: the notifier keeps running, so the
    /// decision never counts as a preemption.
    pub wake: bool,
}

/// The outcome of one controlled execution.
#[derive(Debug)]
pub struct RunTrace {
    /// Every decision taken, in order (forced single-thread steps included).
    pub choices: Vec<Choice>,
    /// True if the execution hit the step budget and was released to run
    /// freely — a livelock suspect; the invariants of the harness still
    /// hold (the free run completes) but the schedule must be reported.
    pub exceeded_budget: bool,
    /// True if the replay prefix named a thread that was not runnable at
    /// that point (the caller's schedule diverged from this program).
    pub replay_diverged: bool,
}

impl RunTrace {
    /// A compact replayable name for this schedule: the granted thread id
    /// at every step, as a digit string (model runs use ≤ 10 threads).
    pub fn schedule_id(&self) -> String {
        // audit: cast_ok — `chosen` indexes ≤ 10 model threads.
        self.choices.iter().map(|c| char::from(b'0' + (c.chosen as u8 % 10))).collect()
    }
}

/// Parse a schedule id produced by [`RunTrace::schedule_id`] back into a
/// replay prefix for [`run_schedule`]. Non-digit characters are ignored,
/// so ids can be copied with surrounding punctuation.
pub fn parse_schedule_id(id: &str) -> Vec<usize> {
    id.chars().filter_map(|c| c.to_digit(10)).map(|d| d as usize).collect()
}

/// How the coordinator chooses once the replay prefix is exhausted.
#[derive(Debug, Clone, Copy)]
pub enum Policy {
    /// Keep running the previously granted thread while it stays
    /// runnable, else the lowest runnable id. Produces zero preemptions
    /// beyond the replay prefix — the DFS baseline.
    Continue,
    /// Choose uniformly among runnable threads with a deterministic
    /// xorshift64* stream seeded by the given value.
    Random(u64),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Running,
    Waiting,
    /// Parked on a contended [`Mutex`]; not runnable until its holder
    /// unlocks. The payload is the mutex's model id.
    BlockedMutex(u64),
    /// Parked in [`Condvar::wait`]; runnable only via a notify or (while
    /// spurious budget remains) a spurious grant. The payload is the
    /// condvar's model id.
    BlockedCondvar(u64),
    /// Parked inside [`Condvar::notify_one`] while the coordinator picks
    /// which of several waiters it wakes; resumed (not re-scheduled) as
    /// soon as the pick is recorded.
    Choosing,
    Finished,
}

struct State {
    current: Option<usize>,
    status: Vec<Status>,
    /// When set, yield points stop parking: the run was aborted (budget
    /// or panic) and the remaining threads drain at full speed. Threads
    /// blocked on model primitives abort instead (they may never be
    /// woken once scheduling stops).
    free_run: bool,
    /// Set by the coordinator when no thread is runnable but some are
    /// still blocked: the schedule deadlocked. Blocked threads observe
    /// the flag and panic so the run terminates and reports.
    deadlock: bool,
    /// Remaining spurious wakeups the coordinator may inject (granting a
    /// step to a condvar-blocked thread with no notify).
    spurious_left: usize,
    /// Set by a `notify_one` that found several waiters: the notifier
    /// and the waiters' ids, ascending. The coordinator takes it, picks
    /// a waiter, wakes it and resumes the notifier.
    wake_choice: Option<(usize, Vec<usize>)>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Inner {
    state: StdMutex<State>,
    /// Wakes the coordinator: a thread parked, finished, or asked for a
    /// wake pick.
    cv: StdCondvar,
    /// Wakes one parked model thread each (index = thread id): a grant
    /// goes to the chosen thread alone instead of stampeding every
    /// parked thread through the state lock at every step.
    parked: Vec<StdCondvar>,
}

impl Inner {
    /// Wake every parked thread: scheduling stopped (free run) or the
    /// run deadlocked, and each of them has to notice.
    fn wake_threads(&self) {
        for cv in &self.parked {
            cv.notify_one();
        }
    }
}

thread_local! {
    static REGISTRATION: RefCell<Option<(usize, Arc<Inner>)>> = const { RefCell::new(None) };
}

fn lock(inner: &Inner) -> StdMutexGuard<'_, State> {
    inner.state.lock().unwrap_or_else(|p| p.into_inner())
}

/// The instrumentation hook called by every [`crate::cell::AtomicCell`]
/// operation. A no-op unless the calling thread is registered with a
/// model run, in which case it parks until the coordinator grants a step.
pub fn yield_point() {
    let reg = REGISTRATION.with(|r| r.borrow().clone());
    let Some((tid, inner)) = reg else { return };
    let mut st = lock(&inner);
    if st.free_run {
        return;
    }
    st.status[tid] = Status::Waiting;
    inner.cv.notify_one();
    while st.current != Some(tid) && !st.free_run {
        st = inner.parked[tid].wait(st).unwrap_or_else(|p| p.into_inner());
    }
    if !st.free_run {
        st.current = None;
        st.status[tid] = Status::Running;
    }
}

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        // xorshift64*; the zero state is mapped away at construction.
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Execute `body(tid)` on `n_threads` virtual threads under a controlled
/// schedule: the first `replay.len()` decisions follow `replay`, the
/// rest follow `policy`. Returns the complete decision trace.
///
/// Every thread runs real code on a real OS thread; the coordinator
/// (this thread) serialises them at [`yield_point`]s, so the trace fully
/// determines the execution. A body that panics has its payload resumed
/// on the caller after the schedule id is printed to stderr.
///
/// # Panics
///
/// Panics if `n_threads` is 0 or greater than 10 (schedule ids are digit
/// strings), and resumes any panic raised by a `body`.
pub fn run_schedule<F>(
    n_threads: usize,
    replay: &[usize],
    policy: Policy,
    max_steps: usize,
    body: F,
) -> RunTrace
where
    F: Fn(usize) + Sync,
{
    run_schedule_spurious(n_threads, replay, policy, max_steps, 0, body)
}

/// [`run_schedule`] with a spurious-wakeup budget: up to
/// `spurious_budget` times per run, the coordinator may grant a step to
/// a thread blocked in [`Condvar::wait`] with no notify having occurred
/// — the wakeup std's contract allows at any time. With a budget of 0
/// (the [`run_schedule`] default) condvar waiters wake only on notifies.
pub fn run_schedule_spurious<F>(
    n_threads: usize,
    replay: &[usize],
    policy: Policy,
    max_steps: usize,
    spurious_budget: usize,
    body: F,
) -> RunTrace
where
    F: Fn(usize) + Sync,
{
    assert!((1..=10).contains(&n_threads), "model runs use 1..=10 threads");
    let inner = Arc::new(Inner {
        state: StdMutex::new(State {
            current: None,
            status: vec![Status::Running; n_threads],
            free_run: false,
            deadlock: false,
            spurious_left: spurious_budget,
            wake_choice: None,
            panic: None,
        }),
        cv: StdCondvar::new(),
        parked: (0..n_threads).map(|_| StdCondvar::new()).collect(),
    });
    let mut choices: Vec<Choice> = Vec::new();
    let mut exceeded_budget = false;
    let mut replay_diverged = false;
    let mut rng = match policy {
        Policy::Random(seed) => Some(Xorshift(seed | 1)),
        Policy::Continue => None,
    };

    std::thread::scope(|scope| {
        for tid in 0..n_threads {
            let inner = Arc::clone(&inner);
            let body = &body;
            scope.spawn(move || {
                REGISTRATION.with(|r| *r.borrow_mut() = Some((tid, Arc::clone(&inner))));
                let outcome = catch_unwind(AssertUnwindSafe(|| body(tid)));
                REGISTRATION.with(|r| *r.borrow_mut() = None);
                let mut st = lock(&inner);
                st.status[tid] = Status::Finished;
                if let Err(payload) = outcome {
                    // First panic wins; free-run so every thread drains.
                    if st.panic.is_none() {
                        st.panic = Some(payload);
                    }
                    st.free_run = true;
                    inner.wake_threads();
                }
                inner.cv.notify_one();
            });
        }

        // Coordinator: grant one step at a time until every thread
        // finishes. A decision is taken only when each unfinished thread
        // is parked, so the enabled set is deterministic.
        let mut st = lock(&inner);
        loop {
            if st.status.iter().all(|&s| s == Status::Finished) {
                break;
            }
            if st.free_run {
                st = inner.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                continue;
            }
            let all_parked = st.status.iter().all(|&s| !matches!(s, Status::Running));
            if !all_parked {
                st = inner.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                continue;
            }
            // A `notify_one` that found several waiters is decided
            // before anything else runs: the candidates of that pick
            // are the waiters, not the runnable threads.
            let (notifier, enabled) = match st.wake_choice.take() {
                Some((notifier, waiters)) => (Some(notifier), waiters),
                None => {
                    let runnable = (0..n_threads).filter(|&t| match st.status[t] {
                        Status::Waiting => true,
                        Status::BlockedCondvar(_) => st.spurious_left > 0,
                        _ => false,
                    });
                    (None, runnable.collect::<Vec<usize>>())
                }
            };
            if enabled.is_empty() {
                // Every unfinished thread is blocked on a mutex or
                // condvar and no spurious budget remains: deadlock.
                // Blocked threads observe the flag and abort-panic, so
                // the scope joins and the schedule id is reported.
                st.deadlock = true;
                inner.wake_threads();
                st = inner.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                continue;
            }
            let step = choices.len();
            // The thread that held the previous step (wake picks grant
            // none, so they are skipped).
            let last_run = choices.iter().rev().find(|c| !c.wake).map(|c| c.chosen);
            let chosen = if let Some(&want) = replay.get(step) {
                if enabled.contains(&want) {
                    want
                } else {
                    replay_diverged = true;
                    enabled[0]
                }
            } else {
                match (&mut rng, last_run) {
                    (Some(r), _) => enabled[(r.next() % enabled.len() as u64) as usize],
                    (None, Some(last)) if notifier.is_none() && enabled.contains(&last) => last,
                    (None, _) => enabled[0],
                }
            };
            if step >= max_steps {
                exceeded_budget = true;
                st.free_run = true;
                inner.wake_threads();
                continue;
            }
            if let Some(notifier) = notifier {
                // Wake the picked waiter and resume the notifier, which
                // is still inside its own step.
                choices.push(Choice { chosen, enabled, wake: true });
                st.status[chosen] = Status::Waiting;
                st.status[notifier] = Status::Running;
                inner.parked[notifier].notify_one();
                continue;
            }
            choices.push(Choice { chosen, enabled, wake: false });
            if matches!(st.status[chosen], Status::BlockedCondvar(_)) {
                // Granting a condvar-blocked thread with no notify is a
                // spurious wakeup; spend one unit of budget.
                st.spurious_left -= 1;
            }
            // Grant the step and wait for the thread to consume it.
            st.current = Some(chosen);
            inner.parked[chosen].notify_one();
            while st.current.is_some() && !st.free_run {
                st = inner.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
    });

    let trace = RunTrace { choices, exceeded_budget, replay_diverged };
    let payload = lock(&inner).panic.take();
    if let Some(payload) = payload {
        eprintln!("model run panicked under schedule {:?}", trace.schedule_id());
        resume_unwind(payload);
    }
    trace
}

/// Result of a depth-first schedule enumeration.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// How many distinct complete schedules were executed.
    pub schedules: usize,
    /// True when the enumeration stopped at `max_schedules` with
    /// unexplored branches remaining.
    pub capped: bool,
}

struct Frame {
    enabled: Vec<usize>,
    chosen: usize,
    tried: Vec<usize>,
    /// Preemptions spent strictly before this decision.
    pre_before: usize,
    /// A `notify_one` waiter pick (see [`Choice::wake`]).
    wake: bool,
}

impl Frame {
    /// What choosing `candidate` here costs: 1 when it switches away
    /// from `prev` — the thread that held the step before — while
    /// `prev` is still runnable, else 0. A wake pick grants no step, so
    /// it is free.
    fn preemption(&self, candidate: usize, prev: Option<usize>) -> usize {
        match prev {
            Some(p) if !self.wake && candidate != p && self.enabled.contains(&p) => 1,
            _ => 0,
        }
    }
}

/// The thread that held the last step granted in `frames` (wake picks
/// grant none).
fn last_run(frames: &[Frame]) -> Option<usize> {
    frames.iter().rev().find(|f| !f.wake).map(|f| f.chosen)
}

/// Exhaustively enumerate schedules of a harness, depth-first, visiting
/// every schedule with at most `preemption_bound` preemptions (a
/// *preemption* switches away from a thread that is still runnable;
/// which waiter a `notify_one` wakes is enumerated too, at no cost).
///
/// `run` executes one schedule: it must call [`run_schedule`] with the
/// given replay prefix and [`Policy::Continue`], assert its invariants,
/// and return the trace. Each invocation receives a distinct schedule.
pub fn explore<H>(preemption_bound: usize, max_schedules: usize, mut run: H) -> ExploreOutcome
where
    H: FnMut(&[usize]) -> RunTrace,
{
    let mut stack: Vec<Frame> = Vec::new();
    let mut schedules = 0usize;
    loop {
        let replay: Vec<usize> = stack.iter().map(|f| f.chosen).collect();
        let trace = run(&replay);
        schedules += 1;
        debug_assert!(!trace.replay_diverged, "DFS replay prefixes never diverge");
        if schedules >= max_schedules {
            return ExploreOutcome { schedules, capped: true };
        }
        // Extend the stack with the decisions the default policy took
        // beyond the replayed prefix. The Continue policy never
        // preempts, so the appended frames only inherit the preemption
        // spent by the frame directly above them (which may be a
        // replayed alternative).
        for choice in trace.choices.iter().skip(stack.len()) {
            let pre_before = match stack.split_last() {
                None => 0,
                Some((top, below)) => top.pre_before + top.preemption(top.chosen, last_run(below)),
            };
            stack.push(Frame {
                enabled: choice.enabled.clone(),
                chosen: choice.chosen,
                tried: vec![choice.chosen],
                pre_before,
                wake: choice.wake,
            });
        }
        // Backtrack to the deepest frame with an untried alternative
        // that stays within the preemption bound.
        let mut advanced = false;
        while let Some((top, below)) = stack.split_last_mut() {
            let prev = last_run(below);
            let candidate = top.enabled.iter().copied().find(|&c| {
                !top.tried.contains(&c)
                    && top.pre_before + top.preemption(c, prev) <= preemption_bound
            });
            match candidate {
                Some(c) => {
                    top.chosen = c;
                    top.tried.push(c);
                    advanced = true;
                    break;
                }
                None => {
                    stack.pop();
                }
            }
        }
        if !advanced {
            return ExploreOutcome { schedules, capped: false };
        }
    }
}

static NEXT_SYNC_ID: AtomicU64 = AtomicU64::new(1);

fn plain_lock<T>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn try_acquire<'a, T>(m: &'a StdMutex<T>) -> Option<StdMutexGuard<'a, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(std::sync::TryLockError::WouldBlock) => None,
    }
}

/// Abort the current model thread: the run can no longer schedule it
/// (deadlock, or a free-run drain while it was blocked — once
/// scheduling stops, a blocked thread may never be woken). The panic
/// unwinds through the harness body, so the thread scope joins and the
/// coordinator reports the failing schedule id like any other failure.
fn abort_model_thread(why: &str) -> ! {
    panic!("model thread aborted: {why}")
}

/// Why a blocked park ended.
enum Park {
    /// The coordinator granted this thread a step (its blocked status
    /// was already consumed back to `Running`).
    Granted,
    /// The run stopped scheduling (step budget or a panicking peer);
    /// the thread was flipped back to `Running` and must finish on its
    /// own.
    FreeRun,
}

/// Park the calling thread until the coordinator grants it a step.
/// The caller has already recorded a `Blocked*` status for `tid`; the
/// coordinator is told here. Panics (aborting the run) on deadlock.
fn park_blocked(tid: usize, inner: &Inner, mut st: StdMutexGuard<'_, State>) -> Park {
    inner.cv.notify_one();
    loop {
        if st.deadlock {
            drop(st);
            abort_model_thread("deadlock: every unfinished thread is blocked");
        }
        if st.free_run {
            st.status[tid] = Status::Running;
            return Park::FreeRun;
        }
        if st.current == Some(tid) {
            st.current = None;
            st.status[tid] = Status::Running;
            return Park::Granted;
        }
        st = inner.parked[tid].wait(st).unwrap_or_else(|p| p.into_inner());
    }
}

/// Flip every thread parked with the given blocked status back to
/// `Waiting` (runnable). Nobody is woken: a parked thread moves only on
/// a grant, and the coordinator decides next when the caller parks.
fn wake_blocked(st: &mut State, which: Status) {
    for s in &mut st.status {
        if *s == which {
            *s = Status::Waiting;
        }
    }
}

/// A model-aware drop-in for `std::sync::Mutex` (see the module docs):
/// inside a model run, `lock` is one scheduling step and contention
/// parks the thread as blocked — not runnable, so the explorer never
/// burns schedules spinning on a held lock. Outside a model run every
/// operation passes straight through to `std`. Poisoning is absorbed
/// with `into_inner`: model harnesses report failures by panicking, and
/// a poisoned lock must not cascade secondary failures into the drain.
#[derive(Debug)]
pub struct Mutex<T> {
    id: u64,
    raw: StdMutex<T>,
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// Wrap `value` in a model-aware mutex.
    pub fn new(value: T) -> Self {
        Self { id: NEXT_SYNC_ID.fetch_add(1, Ordering::Relaxed), raw: StdMutex::new(value) }
    }

    /// Acquire the lock, parking as blocked while it is contended.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let reg = REGISTRATION.with(|r| r.borrow().clone());
        let Some((tid, inner)) = reg else {
            return MutexGuard { mutex: self, raw: Some(plain_lock(&self.raw)) };
        };
        // The acquire attempt is one scheduling step.
        yield_point();
        loop {
            if let Some(g) = try_acquire(&self.raw) {
                return MutexGuard { mutex: self, raw: Some(g) };
            }
            let mut st = lock(&inner);
            if st.free_run {
                // Scheduling has stopped but the holder is draining
                // freely and will unlock; a plain blocking lock is the
                // correct fallback.
                drop(st);
                return MutexGuard { mutex: self, raw: Some(plain_lock(&self.raw)) };
            }
            st.status[tid] = Status::BlockedMutex(self.id);
            match park_blocked(tid, &inner, st) {
                // Granted after an unlock: re-try. Another granted
                // thread may have re-acquired first, in which case we
                // block again — a legal std behaviour.
                Park::Granted => {}
                Park::FreeRun => {
                    return MutexGuard { mutex: self, raw: Some(plain_lock(&self.raw)) }
                }
            }
        }
    }
}

/// RAII guard for [`Mutex`]; unlocking re-enables every thread blocked
/// on the mutex. Unlocking is deliberately *not* a scheduling step: it
/// is observable only through a later acquisition, and every
/// acquisition yields first, so no interleaving is lost by merging the
/// unlock into the holder's next step.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    /// `Some` until dropped or consumed by [`Condvar::wait`]; an
    /// `Option` so both paths can release first and notify after.
    raw: Option<StdMutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.raw {
            Some(g) => g,
            // Invariant: `raw` is consumed only by drop and by
            // Condvar::wait, both of which take `self` out of reach.
            None => unreachable!(),
        }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.raw {
            Some(g) => g,
            None => unreachable!(),
        }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let Some(g) = self.raw.take() else { return };
        drop(g);
        let reg = REGISTRATION.with(|r| r.borrow().clone());
        let Some((_tid, inner)) = reg else { return };
        let mut st = lock(&inner);
        wake_blocked(&mut st, Status::BlockedMutex(self.mutex.id));
    }
}

/// A model-aware drop-in for `std::sync::Condvar` (see the module
/// docs). `wait` yields once while still holding the mutex — the
/// lost-wakeup window for notifiers that do not hold it — and then
/// releases-and-blocks in one atomic transition; `notify_one` wakes
/// exactly one waiter, chosen by the schedule.
#[derive(Debug)]
pub struct Condvar {
    id: u64,
    raw: StdCondvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// A fresh model-aware condition variable.
    pub fn new() -> Self {
        Self { id: NEXT_SYNC_ID.fetch_add(1, Ordering::Relaxed), raw: StdCondvar::new() }
    }

    /// Release `guard`'s mutex and block until notified (or spuriously
    /// woken, when the run carries a spurious budget), then re-acquire.
    /// Callers must re-check their predicate in a loop, exactly as with
    /// `std`.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let mutex = guard.mutex;
        let Some(raw_guard) = guard.raw.take() else {
            // Guard invariant: `raw` is always Some here; defensive.
            return mutex.lock();
        };
        let reg = REGISTRATION.with(|r| r.borrow().clone());
        let Some((tid, inner)) = reg else {
            let g = self.raw.wait(raw_guard).unwrap_or_else(|p| p.into_inner());
            return MutexGuard { mutex, raw: Some(g) };
        };
        // The last instant before the atomic release-and-block is a
        // scheduling point taken *while still holding the mutex*: a
        // notifier that does not hold the mutex may interleave here and
        // its notification is lost (no one is blocked yet) — the
        // classic lost-wakeup window. A notifier that holds the mutex
        // cannot reach its notify until we release, which is std's
        // atomicity guarantee.
        yield_point();
        {
            let mut st = lock(&inner);
            if st.free_run {
                // Scheduling stopped before we blocked; with no
                // coordinator there may never be a wakeup to drain us.
                drop(raw_guard);
                drop(st);
                abort_model_thread("free-run drain reached Condvar::wait");
            }
            // Atomic release-and-block: flip to blocked and drop the
            // guard under the coordinator lock, then re-enable any
            // thread blocked on the mutex we just released.
            st.status[tid] = Status::BlockedCondvar(self.id);
            drop(raw_guard);
            wake_blocked(&mut st, Status::BlockedMutex(mutex.id));
            match park_blocked(tid, &inner, st) {
                Park::Granted => {}
                Park::FreeRun => abort_model_thread("free-run drain reached Condvar::wait"),
            }
        }
        // Woken (notified or spurious): re-acquire. A fresh scheduling
        // step that may itself block on the mutex.
        mutex.lock()
    }

    /// Wake every thread blocked on this condvar. One scheduling step.
    pub fn notify_all(&self) {
        let reg = REGISTRATION.with(|r| r.borrow().clone());
        let Some((_tid, inner)) = reg else {
            self.raw.notify_all();
            return;
        };
        yield_point();
        let mut st = lock(&inner);
        wake_blocked(&mut st, Status::BlockedCondvar(self.id));
    }

    /// Wake one thread blocked on this condvar; with nobody blocked the
    /// notification is lost, exactly as in `std`. One scheduling step,
    /// plus — when several threads are blocked — a [`Choice::wake`]
    /// decision for which of them it is.
    pub fn notify_one(&self) {
        let reg = REGISTRATION.with(|r| r.borrow().clone());
        let Some((tid, inner)) = reg else {
            self.raw.notify_one();
            return;
        };
        yield_point();
        let mut st = lock(&inner);
        let blocked = Status::BlockedCondvar(self.id);
        let waiters: Vec<usize> =
            (0..st.status.len()).filter(|&t| st.status[t] == blocked).collect();
        if waiters.len() < 2 || st.free_run {
            // Nobody or one waiter: nothing to pick. (Once scheduling
            // has stopped, condvar waiters abort whatever they are
            // handed, so waking all of them is as good as any pick.)
            wake_blocked(&mut st, blocked);
            return;
        }
        // Hand the pick to the coordinator and stay parked, mid-step,
        // until it has recorded one.
        st.wake_choice = Some((tid, waiters));
        st.status[tid] = Status::Choosing;
        inner.cv.notify_one();
        while st.status[tid] == Status::Choosing && !st.free_run {
            st = inner.parked[tid].wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st.status[tid] = Status::Running;
    }

    /// How many model threads are blocked in [`Condvar::wait`] on this
    /// condvar right now (0 outside a model run). Model threads run one
    /// at a time, so a harness that reads this next to its own state,
    /// with no scheduling point in between, sees one consistent instant.
    pub fn blocked_waiters(&self) -> usize {
        let reg = REGISTRATION.with(|r| r.borrow().clone());
        let Some((_tid, inner)) = reg else { return 0 };
        let st = lock(&inner);
        st.status.iter().filter(|&&s| s == Status::BlockedCondvar(self.id)).count()
    }
}
