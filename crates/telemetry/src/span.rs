//! Span tracing over virtual time.
//!
//! A transaction's cost story is *where its round trips go*: index
//! lookup vs page fetch vs lock acquisition vs 2PC vs coherence. The
//! [`PhaseTracker`] answers that with interval sampling: every phase
//! boundary (span enter/exit) takes a [`Sample`] of the owning thread's
//! virtual clock and verb counters, and the delta since the previous
//! boundary is charged to the phase that was innermost during the
//! interval. Consequences of that design:
//!
//! * **nested spans charge the innermost phase** — an inner span's
//!   enter/exit marks carve its interval out of the outer phase;
//! * **verbs are counted exactly once** — intervals partition the
//!   timeline, so summing phase verbs reproduces the endpoint total;
//! * **no heap, no atomics per record** — the tracker is a fixed array
//!   of `Cell`s plus a bounded phase stack, owned by one thread.
//!
//! Time (or verbs) spent outside any span lands in the `other` bucket,
//! so phase shares always sum to 100% of tracked activity.

use std::cell::Cell;

/// Where a transaction's virtual time and verbs can go. The taxonomy is
/// fixed so reports from different PRs stay diffable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Index traversal (B+tree / hash / LSM probe).
    IndexLookup = 0,
    /// Fetching record payloads/pages from DSM (incl. cache misses).
    PageFetch = 1,
    /// Acquiring/releasing record locks, incl. validation reads.
    LockAcquire = 2,
    /// Local CPU work of the transaction body (residual inside a txn).
    Execute = 3,
    /// Commit-log appends (WAL or replicated memory log).
    LogWrite = 4,
    /// 2PC phase 1: prepare fan-out and vote collection.
    TwoPcPrepare = 5,
    /// 2PC phase 2: decision fan-out, staged apply, ack collection.
    TwoPcDecide = 6,
    /// Coherence traffic: invalidation/update broadcast and acks.
    CoherenceInval = 7,
    /// Propagating written pages to DSM (a write-through, or a release
    /// doorbell that carries payloads home).
    Writeback = 8,
}

/// Number of named phases.
pub const PHASE_BUCKETS: usize = 9;
/// Index of the implicit bucket for unspanned activity.
pub const OTHER_BUCKET: usize = PHASE_BUCKETS;
const ALL_BUCKETS: usize = PHASE_BUCKETS + 1;
const MAX_DEPTH: usize = 16;

impl Phase {
    /// All phases, in bucket order.
    pub const ALL: [Phase; PHASE_BUCKETS] = [
        Phase::IndexLookup,
        Phase::PageFetch,
        Phase::LockAcquire,
        Phase::Execute,
        Phase::LogWrite,
        Phase::TwoPcPrepare,
        Phase::TwoPcDecide,
        Phase::CoherenceInval,
        Phase::Writeback,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::IndexLookup => "index_lookup",
            Phase::PageFetch => "page_fetch",
            Phase::LockAcquire => "lock_acquire",
            Phase::Execute => "execute",
            Phase::LogWrite => "log_write",
            Phase::TwoPcPrepare => "twopc_prepare",
            Phase::TwoPcDecide => "twopc_decide",
            Phase::CoherenceInval => "coherence_inval",
            Phase::Writeback => "writeback",
        }
    }
}

/// Name of a bucket index, including the residual bucket.
pub fn bucket_name(idx: usize) -> &'static str {
    if idx == OTHER_BUCKET {
        "other"
    } else {
        Phase::ALL[idx].name()
    }
}

/// A point-in-time reading of the owning thread's counters, taken by the
/// embedding endpoint at every phase boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Virtual clock, nanoseconds.
    pub ns: u64,
    /// Verbs issued so far (one-sided + atomics + sends).
    pub verbs: u64,
    /// Wire round trips paid so far (verbs minus doorbell riders).
    pub wire_rts: u64,
}

/// Per-thread phase attribution state. `!Sync` by design (all `Cell`);
/// embed one per endpoint and merge [`PhaseSnapshot`]s across threads.
pub struct PhaseTracker {
    depth: Cell<usize>,
    stack: [Cell<u8>; MAX_DEPTH],
    mark: Cell<Sample>,
    ns: [Cell<u64>; ALL_BUCKETS],
    verbs: [Cell<u64>; ALL_BUCKETS],
    wire_rts: [Cell<u64>; ALL_BUCKETS],
}

impl Default for PhaseTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseTracker {
    /// A tracker with no open spans and zeroed accumulators.
    pub fn new() -> Self {
        Self {
            depth: Cell::new(0),
            stack: [const { Cell::new(0) }; MAX_DEPTH],
            mark: Cell::new(Sample::default()),
            ns: [const { Cell::new(0) }; ALL_BUCKETS],
            verbs: [const { Cell::new(0) }; ALL_BUCKETS],
            wire_rts: [const { Cell::new(0) }; ALL_BUCKETS],
        }
    }

    /// Charge the interval since the last boundary to the innermost open
    /// phase (or `other`), and move the mark to `now`.
    #[inline]
    fn attribute(&self, now: Sample) {
        let bucket = if self.depth.get() == 0 {
            OTHER_BUCKET
        } else {
            self.stack[(self.depth.get() - 1).min(MAX_DEPTH - 1)].get() as usize
        };
        let mark = self.mark.get();
        self.ns[bucket].set(self.ns[bucket].get() + now.ns.saturating_sub(mark.ns));
        self.verbs[bucket].set(self.verbs[bucket].get() + now.verbs.saturating_sub(mark.verbs));
        self.wire_rts[bucket]
            .set(self.wire_rts[bucket].get() + now.wire_rts.saturating_sub(mark.wire_rts));
        self.mark.set(now);
    }

    /// Open a span. Deeper-than-`MAX_DEPTH` nesting saturates: the
    /// extra levels are attributed to the deepest stored phase.
    #[inline]
    pub fn enter(&self, phase: Phase, now: Sample) {
        self.attribute(now);
        let d = self.depth.get();
        if d < MAX_DEPTH {
            self.stack[d].set(phase as u8);
        }
        self.depth.set(d + 1);
    }

    /// Close the innermost span.
    #[inline]
    pub fn exit(&self, now: Sample) {
        self.attribute(now);
        let d = self.depth.get();
        debug_assert!(d > 0, "span exit without enter");
        self.depth.set(d.saturating_sub(1));
    }

    /// Attribute everything up to `now` without changing the stack (call
    /// before snapshotting so trailing activity is not lost).
    pub fn flush(&self, now: Sample) {
        self.attribute(now);
    }

    /// Current nesting depth (open spans).
    pub fn depth(&self) -> usize {
        self.depth.get()
    }

    /// Bucket index of the innermost open phase, or [`OTHER_BUCKET`]
    /// when no span is open — used by the flight recorder to tag each
    /// event with the phase that issued it.
    #[inline]
    pub fn innermost(&self) -> usize {
        let d = self.depth.get();
        if d == 0 {
            OTHER_BUCKET
        } else {
            self.stack[(d - 1).min(MAX_DEPTH - 1)].get() as usize
        }
    }

    /// Copy out the per-phase accumulators.
    pub fn snapshot(&self) -> PhaseSnapshot {
        let get = |a: &[Cell<u64>; ALL_BUCKETS]| {
            let mut out = [0u64; ALL_BUCKETS];
            for (o, c) in out.iter_mut().zip(a.iter()) {
                *o = c.get();
            }
            out
        };
        PhaseSnapshot {
            ns: get(&self.ns),
            verbs: get(&self.verbs),
            wire_rts: get(&self.wire_rts),
        }
    }

    /// Zero the accumulators and re-anchor the mark at `now` (between
    /// experiment phases). Open spans stay open.
    pub fn reset(&self, now: Sample) {
        for i in 0..ALL_BUCKETS {
            self.ns[i].set(0);
            self.verbs[i].set(0);
            self.wire_rts[i].set(0);
        }
        self.mark.set(now);
    }
}

/// Immutable per-phase totals; merges by addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Virtual nanoseconds per bucket (`[OTHER_BUCKET]` = unspanned).
    pub ns: [u64; ALL_BUCKETS],
    /// Verbs per bucket.
    pub verbs: [u64; ALL_BUCKETS],
    /// Wire round trips per bucket.
    pub wire_rts: [u64; ALL_BUCKETS],
}

impl Default for PhaseSnapshot {
    fn default() -> Self {
        Self {
            ns: [0; ALL_BUCKETS],
            verbs: [0; ALL_BUCKETS],
            wire_rts: [0; ALL_BUCKETS],
        }
    }
}

impl PhaseSnapshot {
    /// Fold another snapshot in (order-independent).
    pub fn merge(&mut self, other: &PhaseSnapshot) {
        for i in 0..ALL_BUCKETS {
            self.ns[i] += other.ns[i];
            self.verbs[i] += other.verbs[i];
            self.wire_rts[i] += other.wire_rts[i];
        }
    }

    /// Total attributed virtual time.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Total attributed verbs.
    pub fn total_verbs(&self) -> u64 {
        self.verbs.iter().sum()
    }

    /// Nanoseconds charged to one named phase.
    pub fn phase_ns(&self, p: Phase) -> u64 {
        self.ns[p as usize]
    }

    /// Verbs charged to one named phase.
    pub fn phase_verbs(&self, p: Phase) -> u64 {
        self.verbs[p as usize]
    }

    /// `(bucket name, time share)` for every bucket, shares summing to
    /// 1.0 whenever any time was tracked.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let total = self.total_ns();
        (0..ALL_BUCKETS)
            .map(|i| {
                let share = if total == 0 {
                    0.0
                } else {
                    self.ns[i] as f64 / total as f64
                };
                (bucket_name(i), share)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ns: u64, verbs: u64, wire: u64) -> Sample {
        Sample { ns, verbs, wire_rts: wire }
    }

    #[test]
    fn flat_span_attributes_interval() {
        let t = PhaseTracker::new();
        t.enter(Phase::PageFetch, s(100, 1, 1));
        t.exit(s(400, 4, 2));
        let snap = t.snapshot();
        assert_eq!(snap.phase_ns(Phase::PageFetch), 300);
        assert_eq!(snap.phase_verbs(Phase::PageFetch), 3);
        assert_eq!(snap.wire_rts[Phase::PageFetch as usize], 1);
        // Pre-span activity went to `other`.
        assert_eq!(snap.ns[OTHER_BUCKET], 100);
        assert_eq!(snap.verbs[OTHER_BUCKET], 1);
    }

    #[test]
    fn nested_span_charges_innermost() {
        let t = PhaseTracker::new();
        t.enter(Phase::Execute, s(0, 0, 0));
        t.enter(Phase::LockAcquire, s(100, 2, 2)); // Execute: 0..100
        t.exit(s(250, 5, 5)); // LockAcquire: 100..250
        t.exit(s(300, 6, 6)); // Execute resumes: 250..300
        let snap = t.snapshot();
        assert_eq!(snap.phase_ns(Phase::Execute), 100 + 50);
        assert_eq!(snap.phase_ns(Phase::LockAcquire), 150);
        assert_eq!(snap.phase_verbs(Phase::Execute), 2 + 1);
        assert_eq!(snap.phase_verbs(Phase::LockAcquire), 3);
        // Every ns and verb counted exactly once.
        assert_eq!(snap.total_ns(), 300);
        assert_eq!(snap.total_verbs(), 6);
    }

    #[test]
    fn shares_sum_to_one() {
        let t = PhaseTracker::new();
        t.enter(Phase::Execute, s(0, 0, 0));
        t.enter(Phase::PageFetch, s(10, 0, 0));
        t.exit(s(90, 8, 2));
        t.exit(s(100, 8, 2));
        t.flush(s(120, 9, 3));
        let total: f64 = t.snapshot().shares().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deep_nesting_saturates_without_losing_counts() {
        let t = PhaseTracker::new();
        for i in 0..MAX_DEPTH + 4 {
            t.enter(Phase::Execute, s(i as u64 * 10, 0, 0));
        }
        for i in 0..MAX_DEPTH + 4 {
            t.exit(s(1000 + i as u64 * 10, 0, 0));
        }
        assert_eq!(t.depth(), 0);
        let snap = t.snapshot();
        assert_eq!(snap.total_ns(), 1000 + (MAX_DEPTH as u64 + 3) * 10);
    }

    #[test]
    fn merge_is_addition() {
        let a = PhaseTracker::new();
        a.enter(Phase::LogWrite, s(0, 0, 0));
        a.exit(s(10, 1, 1));
        let b = PhaseTracker::new();
        b.enter(Phase::LogWrite, s(5, 2, 2));
        b.exit(s(25, 6, 5));
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.phase_ns(Phase::LogWrite), 10 + 20);
        assert_eq!(m.phase_verbs(Phase::LogWrite), 1 + 4);
    }
}
