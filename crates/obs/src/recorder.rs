//! Request-scoped flight recorder: a fixed-capacity ring of per-request
//! stage traces.
//!
//! Every serve request that passes through the daemon gets a
//! generation-stamped [`TraceId`] and writes its stage timeline — decode,
//! prepare, queue wait, batch formation, per-shard execute, merge, reply
//! write — into one of [`TRACE_CAPACITY`] pre-allocated slots. Nothing is
//! sampled away: the ring always holds the *last* `TRACE_CAPACITY`
//! requests, and [`recent`] / [`fetch`] dump them on demand (that cold
//! path allocates; the hot append path does not — `// audit: no_alloc`).
//!
//! # Ring layout and generation stamps
//!
//! Trace ids are a monotonically increasing `u64` (starting at 1; 0 is
//! the "not recording" sentinel). A trace with id `t` lives in slot
//! `t % TRACE_CAPACITY`, so the ring overwrites the oldest trace
//! naturally. Each slot stores the id it currently belongs to; every
//! write re-checks that stamp and silently drops updates aimed at a
//! trace that has since been overwritten. A stamp check racing the
//! overwrite itself can still land one stale field in the new trace —
//! that requires `TRACE_CAPACITY` whole requests to start during one
//! field store, and corrupts a diagnostic, not an answer; we tolerate it
//! rather than lock the hot path.
//!
//! # Arming
//!
//! The recorder is armed by default. [`set_armed(false)`](set_armed)
//! turns [`begin`] into a no-op returning `TraceId::NONE` (and every
//! later call on that id into a no-op) — this is the knob the
//! `obs_overhead` A/B benchmark flips, and what `--slow-ms`-less
//! deployments can use to shed even the recorder's relaxed stores.

/// Stage slots of one request's timeline, in wire order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Frame read + request decode on the connection thread.
    Decode = 0,
    /// Request validation / job construction before enqueue.
    Prepare = 1,
    /// Admission-queue wait: enqueue → executor drain.
    Queue = 2,
    /// Batch formation: drain → this job's k-cohort starts executing.
    Batch = 3,
    /// `Engine::knn` execution of the job's cohort (shared interval —
    /// every job in the cohort reports the same span).
    Execute = 4,
    /// Scatter-gather merge: cohort done → this job's reply handed off.
    Merge = 5,
    /// Reply encode + frame write on the connection thread.
    Reply = 6,
}

/// Names indexed by [`Stage`] discriminant; also the exposition order.
pub const STAGE_NAMES: [&str; STAGE_COUNT] =
    ["decode", "prepare", "queue", "batch", "execute", "merge", "reply"];

/// Number of stages a trace can hold.
pub const STAGE_COUNT: usize = 7;

/// Scalar annotations attached to a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Meta {
    /// Requested k of the kNN request.
    K = 0,
    /// Jobs in the batch this request was drained with.
    BatchJobs = 1,
    /// Total queries in that batch.
    BatchQueries = 2,
    /// Queries in this request's same-k cohort.
    CohortQueries = 3,
}

/// Names indexed by [`Meta`] discriminant.
pub const META_NAMES: [&str; META_COUNT] = ["k", "batch_jobs", "batch_queries", "cohort_queries"];

/// Number of meta cells per trace.
pub const META_COUNT: usize = 4;

/// Traces kept before the ring wraps.
pub const TRACE_CAPACITY: usize = 128;

/// Handle to one in-flight trace. Copyable; `NONE` (id 0) makes every
/// recorder call a no-op, which is how the disarmed path stays free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The "not recording" sentinel.
    pub const NONE: TraceId = TraceId(0);

    /// `true` when this handle refers to a live recording.
    #[must_use]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// One completed (or in-flight) trace, as dumped from the ring.
#[derive(Clone, Debug, Default)]
pub struct TraceDump {
    /// Generation stamp (monotonic per process, starts at 1).
    pub id: u64,
    /// Trace start on the obs clock (ns since process epoch).
    pub start_ns: u64,
    /// End-to-end duration; 0 while the request is still in flight.
    pub total_ns: u64,
    /// Meta cells indexed like [`META_NAMES`].
    pub meta: [u64; META_COUNT],
    /// `(stage name, offset from trace start, duration)` for each stage
    /// that recorded, in [`STAGE_NAMES`] order.
    pub stages: Vec<(&'static str, u64, u64)>,
}

impl TraceDump {
    /// Sum of recorded stage durations. Stages are disjoint intervals of
    /// the request's lifetime, so this is ≤ [`total_ns`](Self::total_ns)
    /// (the remainder is unattributed scheduling gaps).
    #[must_use]
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.iter().map(|&(_, _, d)| d).sum()
    }
}

#[cfg(feature = "obs")]
mod enabled {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use super::{Meta, Stage, TraceDump, TraceId, META_COUNT, STAGE_COUNT, TRACE_CAPACITY};
    use crate::clock;

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO_U64: AtomicU64 = AtomicU64::new(0);

    struct Slot {
        /// Generation stamp of the trace occupying this slot; 0 = free
        /// or mid-reset.
        id: AtomicU64,
        start: AtomicU64,
        end: AtomicU64,
        /// Bit `s` set ⇔ stage `s` recorded.
        stages_set: AtomicU64,
        meta: [AtomicU64; META_COUNT],
        stage_off: [AtomicU64; STAGE_COUNT],
        stage_dur: [AtomicU64; STAGE_COUNT],
    }

    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY_SLOT: Slot = Slot {
        id: AtomicU64::new(0),
        start: AtomicU64::new(0),
        end: AtomicU64::new(0),
        stages_set: AtomicU64::new(0),
        meta: [ZERO_U64; META_COUNT],
        stage_off: [ZERO_U64; STAGE_COUNT],
        stage_dur: [ZERO_U64; STAGE_COUNT],
    };

    static SLOTS: [Slot; TRACE_CAPACITY] = [EMPTY_SLOT; TRACE_CAPACITY];
    /// Next trace id; starts at 1 so id 0 stays the NONE sentinel.
    static NEXT: AtomicU64 = AtomicU64::new(1);
    static ARMED: AtomicBool = AtomicBool::new(true);

    fn slot_of(id: u64) -> &'static Slot {
        // cast_ok: reduced modulo TRACE_CAPACITY (= 128) first, so the
        // value always fits usize.
        &SLOTS[(id % TRACE_CAPACITY as u64) as usize]
    }

    /// Claim the next ring slot and stamp the trace start. Returns
    /// [`TraceId::NONE`] while the recorder is disarmed.
    // audit: no_alloc
    #[must_use]
    pub fn begin() -> TraceId {
        if !ARMED.load(Ordering::Relaxed) {
            return TraceId::NONE;
        }
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let slot = slot_of(id);
        // Invalidate first so concurrent writers aimed at the evicted
        // trace fail their stamp check, then reset, then publish.
        slot.id.store(0, Ordering::Release);
        slot.end.store(0, Ordering::Relaxed);
        slot.stages_set.store(0, Ordering::Relaxed);
        for m in &slot.meta {
            m.store(0, Ordering::Relaxed);
        }
        slot.start.store(clock::now_ns(), Ordering::Relaxed);
        slot.id.store(id, Ordering::Release);
        TraceId(id)
    }

    /// Record stage `stage` as the interval `[start_ns, end_ns]` (obs
    /// clock values). Dropped silently if the trace has been overwritten.
    // audit: no_alloc
    pub fn stage(t: TraceId, stage: Stage, start_ns: u64, end_ns: u64) {
        if !t.is_some() {
            return;
        }
        let slot = slot_of(t.0);
        if slot.id.load(Ordering::Acquire) != t.0 {
            return;
        }
        let idx = stage as usize;
        let base = slot.start.load(Ordering::Relaxed);
        slot.stage_off[idx].store(start_ns.saturating_sub(base), Ordering::Relaxed);
        slot.stage_dur[idx].store(end_ns.saturating_sub(start_ns), Ordering::Relaxed);
        slot.stages_set.fetch_or(1 << idx, Ordering::Release);
    }

    /// Attach a scalar annotation to the trace.
    // audit: no_alloc
    pub fn set_meta(t: TraceId, meta: Meta, v: u64) {
        if !t.is_some() {
            return;
        }
        let slot = slot_of(t.0);
        if slot.id.load(Ordering::Acquire) != t.0 {
            return;
        }
        slot.meta[meta as usize].store(v, Ordering::Relaxed);
    }

    /// Stamp the trace end; returns the end-to-end duration in ns (0 if
    /// the trace was overwritten or `t` is NONE).
    // audit: no_alloc
    pub fn end(t: TraceId) -> u64 {
        if !t.is_some() {
            return 0;
        }
        let slot = slot_of(t.0);
        if slot.id.load(Ordering::Acquire) != t.0 {
            return 0;
        }
        let now = clock::now_ns();
        slot.end.store(now, Ordering::Release);
        now.saturating_sub(slot.start.load(Ordering::Relaxed))
    }

    /// Disarm (`false`) or re-arm (`true`) the recorder. Disarmed,
    /// [`begin`] returns NONE and every stage write no-ops.
    pub fn set_armed(on: bool) {
        ARMED.store(on, Ordering::Relaxed);
    }

    /// `true` while the recorder accepts new traces.
    #[must_use]
    pub fn armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    fn dump_slot(slot: &Slot, want_id: u64) -> Option<TraceDump> {
        let set = slot.stages_set.load(Ordering::Acquire);
        let start = slot.start.load(Ordering::Relaxed);
        let end = slot.end.load(Ordering::Relaxed);
        let mut d = TraceDump {
            id: want_id,
            start_ns: start,
            total_ns: end.saturating_sub(start),
            ..TraceDump::default()
        };
        for (i, m) in slot.meta.iter().enumerate() {
            d.meta[i] = m.load(Ordering::Relaxed);
        }
        for i in 0..STAGE_COUNT {
            if set & (1 << i) != 0 {
                d.stages.push((
                    super::STAGE_NAMES[i],
                    slot.stage_off[i].load(Ordering::Relaxed),
                    slot.stage_dur[i].load(Ordering::Relaxed),
                ));
            }
        }
        // Re-check the stamp: if the slot was recycled while we read it,
        // the dump may mix generations — drop it.
        if slot.id.load(Ordering::Acquire) == want_id {
            Some(d)
        } else {
            None
        }
    }

    /// Dump one trace by id, if it is still in the ring.
    #[must_use]
    pub fn fetch(t: TraceId) -> Option<TraceDump> {
        if !t.is_some() {
            return None;
        }
        let slot = slot_of(t.0);
        if slot.id.load(Ordering::Acquire) != t.0 {
            return None;
        }
        dump_slot(slot, t.0)
    }

    /// Dump the most recent completed traces, newest first, at most
    /// `max`. In-flight traces (no end stamp yet) are skipped.
    #[must_use]
    pub fn recent(max: usize) -> Vec<TraceDump> {
        let mut out: Vec<TraceDump> = Vec::new();
        for slot in &SLOTS {
            let id = slot.id.load(Ordering::Acquire);
            if id == 0 || slot.end.load(Ordering::Acquire) == 0 {
                continue;
            }
            if let Some(d) = dump_slot(slot, id) {
                out.push(d);
            }
        }
        out.sort_by_key(|d| std::cmp::Reverse(d.id));
        out.truncate(max);
        out
    }

    /// Clear the ring and restart ids from 1 (tests only; racing
    /// requests may keep writing into cleared slots).
    pub fn reset() {
        for slot in &SLOTS {
            slot.id.store(0, Ordering::Release);
            slot.end.store(0, Ordering::Relaxed);
            slot.stages_set.store(0, Ordering::Relaxed);
        }
        NEXT.store(1, Ordering::Relaxed);
    }
}

#[cfg(feature = "obs")]
pub use enabled::{armed, begin, end, fetch, recent, reset, set_armed, set_meta, stage};

#[cfg(not(feature = "obs"))]
mod disabled {
    use super::{Meta, Stage, TraceDump, TraceId};

    /// Always [`TraceId::NONE`] with the feature off.
    #[must_use]
    pub fn begin() -> TraceId {
        TraceId::NONE
    }

    /// No-op with the feature off.
    pub fn stage(_t: TraceId, _stage: Stage, _start_ns: u64, _end_ns: u64) {}

    /// No-op with the feature off.
    pub fn set_meta(_t: TraceId, _meta: Meta, _v: u64) {}

    /// Always 0 with the feature off.
    pub fn end(_t: TraceId) -> u64 {
        0
    }

    /// No-op with the feature off.
    pub fn set_armed(_on: bool) {}

    /// Always `false` with the feature off.
    #[must_use]
    pub fn armed() -> bool {
        false
    }

    /// Always `None` with the feature off.
    #[must_use]
    pub fn fetch(_t: TraceId) -> Option<TraceDump> {
        None
    }

    /// Always empty with the feature off.
    #[must_use]
    pub fn recent(_max: usize) -> Vec<TraceDump> {
        Vec::new()
    }

    /// No-op with the feature off.
    pub fn reset() {}
}

#[cfg(not(feature = "obs"))]
pub use disabled::{armed, begin, end, fetch, recent, reset, set_armed, set_meta, stage};
