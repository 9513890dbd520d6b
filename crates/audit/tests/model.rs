//! The interleaving explorer itself, on the smallest protocol that can
//! lose an update: a shared claim counter over `0..n`.
//!
//! Each virtual thread claims indices until the counter passes `n`. The
//! correct claim is a load plus a compare-exchange retry loop; the
//! seeded bug replaces the compare-exchange with a blind store. Every
//! counter operation is an [`AtomicCell`] step, so the explorer decides
//! where each thread is preempted, and every run asserts:
//!
//! * **Exactly once**: every index is claimed by exactly one thread —
//!   none lost, none handed out twice.
//! * **Termination**: every schedule completes within the step budget.
//!
//! A failing schedule panics with its replayable schedule ID; feed that
//! ID to `parse_schedule_id` and [`run_schedule`] to re-run it
//! deterministically.

use std::sync::atomic::{AtomicUsize, Ordering};

use sapla_audit::model::{explore, parse_schedule_id, run_schedule, AtomicCell, Policy, RunTrace};

/// Generous step budget: the largest harness below takes ~200 steps.
const MAX_STEPS: usize = 2000;

/// The next unclaimed index of `0..n`.
struct ClaimCounter {
    next: AtomicCell,
    n: u64,
}

impl ClaimCounter {
    fn new(n: usize) -> ClaimCounter {
        ClaimCounter { next: AtomicCell::new(0), n: n as u64 }
    }

    /// The correct claim: retry the compare-exchange until it lands.
    fn claim(&self) -> Option<usize> {
        let mut cur = self.next.load(Ordering::Acquire);
        loop {
            if cur >= self.n {
                return None;
            }
            match self.next.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(cur as usize),
                Err(actual) => cur = actual,
            }
        }
    }

    /// The seeded lost-update bug: another thread's claim between the
    /// load and the blind store is overwritten, so the same index is
    /// handed out twice.
    fn claim_blind(&self) -> Option<usize> {
        let cur = self.next.load(Ordering::Acquire);
        if cur >= self.n {
            return None;
        }
        self.next.store(cur + 1, Ordering::Release);
        Some(cur as usize)
    }
}

/// Assert the exactly-once claim invariant, naming the schedule.
fn assert_claims(claims: &[AtomicUsize], trace: &RunTrace) {
    for (i, c) in claims.iter().enumerate() {
        let c = c.load(Ordering::Relaxed);
        assert_eq!(
            c,
            1,
            "index {i} claimed {c} times (lost if 0, duplicated if > 1) under schedule {}",
            trace.schedule_id()
        );
    }
}

/// One controlled execution of `threads` threads draining a counter over
/// `0..n` with `claim` (or `claim_blind`), asserting every invariant.
fn claim_race(threads: usize, n: usize, blind: bool, replay: &[usize], policy: Policy) -> RunTrace {
    let counter = ClaimCounter::new(n);
    let claims: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let trace = run_schedule(threads, replay, policy, MAX_STEPS, |_| {
        while let Some(i) = if blind { counter.claim_blind() } else { counter.claim() } {
            claims[i].fetch_add(1, Ordering::Relaxed);
        }
    });
    assert!(!trace.exceeded_budget, "schedule {} hit the step budget", trace.schedule_id());
    assert_claims(&claims, &trace);
    trace
}

/// A schedule ID names its execution: replaying it reproduces the exact
/// same decision trace, and a replayed prefix pins the execution's start.
#[test]
fn schedule_ids_replay_deterministically() {
    // Produce a non-trivial schedule with the seeded random policy.
    let first = claim_race(2, 6, false, &[], Policy::Random(0xA0D17));
    let id = first.schedule_id();
    let replay = parse_schedule_id(&id);
    assert_eq!(replay.len(), first.choices.len());

    // Full replay: identical trace, twice.
    for _ in 0..2 {
        let again = claim_race(2, 6, false, &replay, Policy::Continue);
        assert!(!again.replay_diverged, "own schedule must replay cleanly");
        assert_eq!(again.schedule_id(), id);
        assert_eq!(again.choices, first.choices);
    }

    // Prefix replay: the execution starts exactly as named, then the
    // deterministic Continue policy finishes it.
    let prefix = &replay[..replay.len() / 2];
    let cont = claim_race(2, 6, false, prefix, Policy::Continue);
    assert!(!cont.replay_diverged);
    assert!(cont
        .schedule_id()
        .starts_with(&prefix.iter().map(|t| char::from(b'0' + *t as u8)).collect::<String>()));
}

/// Seeded randomized long-run mode: many random schedules of a larger
/// instance than the DFS can exhaust. Tunable without recompiling:
/// `SAPLA_AUDIT_RANDOM_RUNS` (iterations) and `SAPLA_AUDIT_SEED` (base
/// seed, decimal) — e.g. a nightly job can run hundreds of thousands.
#[test]
fn randomized_long_run_mode() {
    let runs: u64 =
        std::env::var("SAPLA_AUDIT_RANDOM_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(200);
    let seed: u64 =
        std::env::var("SAPLA_AUDIT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0x5AB1A);
    for i in 0..runs {
        claim_race(3, 32, false, &[], Policy::Random(seed.wrapping_add(i)));
    }
}

/// The checker must bless the correct protocol and *find* a real race:
/// every schedule of the compare-exchange counter up to the preemption
/// bound claims each index once, and some schedule of the blind-store
/// counter claims one twice.
#[test]
fn explorer_catches_a_seeded_lost_update_bug() {
    let clean = explore(2, 50_000, |replay| claim_race(2, 4, false, replay, Policy::Continue));
    assert!(!clean.capped, "the correct counter must be explored to completion");

    let caught = std::panic::catch_unwind(|| {
        explore(2, 50_000, |replay| claim_race(2, 4, true, replay, Policy::Continue))
    });
    assert!(caught.is_err(), "the seeded lost-update bug must be caught by some schedule");
}
