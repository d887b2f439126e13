//! Streaming gauges over the virtual clock — the *live* metrics plane.
//!
//! Counters ([`crate::timeseries`]) answer "how many happened"; gauges
//! answer "how many are there *right now*": sessions in flight, locks
//! currently held, resident/dirty pool pages, verbs outstanding on the
//! wire, the membership epoch. The autoscaler and watchdog need levels,
//! not totals, and levels are what a post-hoc counter series cannot
//! reconstruct once the run is over.
//!
//! **Delta encoding.** A gauge window stores the *net signed change*
//! (`i64`) of each gauge inside that window, never the level itself.
//! Net deltas are additive, so per-node [`HealthSnapshot`]s merge by
//! per-window vector addition exactly like the counter series —
//! associative, commutative, and lossless — and the level at any window
//! boundary is recovered as a prefix sum. Storing levels instead would
//! break the merge (max-of-sums ≠ sum-of-maxes); storing deltas makes
//! "snapshot of deltas == full snapshot" a theorem rather than a hope,
//! and `health_prop.rs` proptests it anyway.
//!
//! **Virtual-time cost.** Recording reads the caller-supplied virtual
//! timestamp and never advances any clock: a run with gauges on and off
//! produces the identical timeline (asserted by `exp_o3_watchdog`).
//!
//! Bucketing, width doubling and the width-aligning merge are
//! [`crate::window`]'s; they are exact here because net deltas are
//! additive.

use std::cell::Cell;

use crate::window::{self, Windowed};

/// Number of tracked gauges (length of a gauge window vector).
pub const GAUGES: usize = 7;

/// One tracked level. The discriminant is the window-vector index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Sessions currently inside `execute` (admitted, not yet retired).
    SessionsInFlight = 0,
    /// Lock/latch words currently held via the txn lock table.
    LocksHeld = 1,
    /// Pages currently resident in the buffer pool.
    PoolResident = 2,
    /// Resident pages currently dirty (write-back mode).
    PoolDirty = 3,
    /// Verbs issued but not yet completed on this endpoint.
    VerbsOutstanding = 4,
    /// Membership epoch bumps observed (level = epochs advanced).
    MembershipEpoch = 5,
    /// Page-range migrations currently in their dual-ownership window.
    MigrationInFlight = 6,
}

impl Gauge {
    /// Every gauge, in window-vector order.
    pub const ALL: [Gauge; GAUGES] = [
        Gauge::SessionsInFlight,
        Gauge::LocksHeld,
        Gauge::PoolResident,
        Gauge::PoolDirty,
        Gauge::VerbsOutstanding,
        Gauge::MembershipEpoch,
        Gauge::MigrationInFlight,
    ];

    /// Stable JSON/registry name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::SessionsInFlight => "sessions_in_flight",
            Gauge::LocksHeld => "locks_held",
            Gauge::PoolResident => "pool_resident",
            Gauge::PoolDirty => "pool_dirty",
            Gauge::VerbsOutstanding => "verbs_outstanding",
            Gauge::MembershipEpoch => "membership_epoch",
            Gauge::MigrationInFlight => "migration_in_flight",
        }
    }

    /// Reverse of [`Gauge::name`].
    pub fn from_name(name: &str) -> Option<Gauge> {
        Gauge::ALL.iter().copied().find(|g| g.name() == name)
    }
}

/// Per-thread gauge collector. Disabled (width 0) until
/// [`GaugeRecorder::enable`]; recording while disabled is a no-op, so
/// instrumented layers can call unconditionally.
#[derive(Debug, Default)]
pub struct GaugeRecorder {
    windows: Windowed<[i64; GAUGES]>,
    /// Running levels (sum of all deltas recorded since enable).
    levels: [Cell<i64>; GAUGES],
}

impl GaugeRecorder {
    /// A recorder that ignores everything until enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn sampling on with `width_ns`-wide windows (0 turns it off).
    /// Drops any previously recorded windows and zeroes the levels.
    pub fn enable(&self, width_ns: u64) {
        self.windows.enable(width_ns);
        self.zero_levels();
    }

    /// Whether sampling is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.windows.enabled()
    }

    /// Current level of `gauge` (sum of recorded deltas).
    pub fn level(&self, gauge: Gauge) -> i64 {
        self.levels[gauge as usize].get()
    }

    /// Add the signed `delta` to `gauge` in the window covering virtual
    /// time `now_ns`. Never advances any clock.
    #[inline]
    pub fn add(&self, now_ns: u64, gauge: Gauge, delta: i64) {
        if delta == 0 || !self.enabled() {
            return;
        }
        let level = &self.levels[gauge as usize];
        level.set(level.get() + delta);
        self.windows.update(now_ns, |w| w[gauge as usize] += delta);
    }

    /// `gauge` stood one higher from `start_ns` to the later `end_ns`:
    /// [`GaugeRecorder::add`] of +1 at `start_ns` and of -1 at `end_ns`,
    /// with one window lookup unless the span crosses a window boundary.
    #[inline]
    pub fn pulse(&self, start_ns: u64, end_ns: u64, gauge: Gauge) {
        let g = gauge as usize;
        self.windows.update_pair(start_ns, end_ns, |w| w[g] += 1, |w| w[g] -= 1);
    }

    /// Drop all windows, zero the levels, restore the base width.
    pub fn clear(&self) {
        self.windows.clear();
        self.zero_levels();
    }

    fn zero_levels(&self) {
        for level in &self.levels {
            level.set(0);
        }
    }

    /// Copy out the recorded health series (empty when disabled).
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            window_ns: self.windows.width_ns(),
            windows: self.windows.windows(),
        }
    }
}

/// An immutable windowed gauge series (net deltas per window); the
/// mergeable per-node health result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Window width, virtual ns (0 only for the empty snapshot).
    pub window_ns: u64,
    /// Contiguous windows from virtual time 0; entry `i` holds the net
    /// signed gauge changes inside `[i*window_ns, (i+1)*window_ns)`.
    pub windows: Vec<[i64; GAUGES]>,
}

impl HealthSnapshot {
    /// The identity for [`HealthSnapshot::merge`].
    pub fn empty() -> Self {
        Self::default()
    }

    /// No windows recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Start of window `i`, virtual ns.
    pub fn window_start_ns(&self, i: usize) -> u64 {
        i as u64 * self.window_ns
    }

    /// Net change of `gauge` inside window `i`.
    pub fn delta(&self, i: usize, gauge: Gauge) -> i64 {
        self.windows[i][gauge as usize]
    }

    /// `gauge`'s per-window net deltas.
    pub fn deltas(&self, gauge: Gauge) -> Vec<i64> {
        self.windows.iter().map(|w| w[gauge as usize]).collect()
    }

    /// `gauge`'s level at the *end* of each window (prefix sums of the
    /// net deltas, starting from level 0 at virtual time 0).
    pub fn levels(&self, gauge: Gauge) -> Vec<i64> {
        let mut level = 0i64;
        self.windows
            .iter()
            .map(|w| {
                level += w[gauge as usize];
                level
            })
            .collect()
    }

    /// `gauge`'s level after the last recorded window.
    pub fn final_level(&self, gauge: Gauge) -> i64 {
        self.windows.iter().map(|w| w[gauge as usize]).sum()
    }

    /// Smallest window-end level of `gauge` (0 for an empty snapshot).
    pub fn min_level(&self, gauge: Gauge) -> i64 {
        self.levels(gauge).into_iter().min().unwrap_or(0)
    }

    /// Largest window-end level of `gauge` (0 for an empty snapshot).
    pub fn max_level(&self, gauge: Gauge) -> i64 {
        self.levels(gauge).into_iter().max().unwrap_or(0)
    }

    /// Re-bucket to `new_width` (must be a multiple of the current
    /// width). Exact: net deltas only move into the coarser window
    /// already containing their original one.
    pub fn coarsen_to(&mut self, new_width: u64) {
        window::coarsen_to(&mut self.window_ns, &mut self.windows, new_width);
    }

    /// Fold `other` into `self`. Widths are aligned to their least
    /// common multiple first; adding net deltas per window is exactly
    /// the cross-node health merge (levels of the merged snapshot are
    /// the sums of per-node levels), associative and commutative.
    pub fn merge(&mut self, other: &HealthSnapshot) {
        window::merge(&mut self.window_ns, &mut self.windows, other.window_ns, &other.windows);
    }

    /// What a `health` section that re-renders to itself can still get
    /// wrong: every gauge counts things that exist (sessions, held
    /// locks, resident frames, posted verbs, epochs), so merged across
    /// a cluster no level goes negative, and every session has left
    /// before the report is written.
    pub fn violations(&self) -> Vec<String> {
        if self.window_ns == 0 && !self.is_empty() {
            return vec!["windows recorded with window_ns = 0".into()];
        }
        let mut out = Vec::new();
        for g in Gauge::ALL {
            if self.min_level(g) < 0 {
                out.push(format!("gauge {} dips to {} (cluster levels must stay >= 0)", g.name(), self.min_level(g)));
            }
        }
        let left = self.final_level(Gauge::SessionsInFlight);
        if left != 0 {
            out.push(format!("sessions_in_flight ends at {left} (all sessions must drain)"));
        }
        out
    }

    /// The incremental delta from an earlier snapshot `prev` of the
    /// same recorder to `self`: a snapshot such that
    /// `prev.merge(&delta) == self`. This is the wire encoding a node
    /// streams between health samples — applying every delta in order
    /// (or any order: merge is commutative) reconstructs the full
    /// snapshot exactly.
    pub fn delta_since(&self, prev: &HealthSnapshot) -> HealthSnapshot {
        let mut out = self.clone();
        if prev.is_empty() {
            return out;
        }
        // Widths only grow over a recorder's lifetime, so the earlier
        // snapshot is never coarser than the later one.
        let mut p = prev.clone();
        p.coarsen_to(out.window_ns);
        for (dst, src) in out.windows.iter_mut().zip(p.windows.iter()) {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d -= s;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::MAX_WINDOWS;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = GaugeRecorder::new();
        r.add(100, Gauge::LocksHeld, 1);
        assert!(!r.enabled());
        assert!(r.snapshot().is_empty());
        assert_eq!(r.level(Gauge::LocksHeld), 0);
    }

    #[test]
    fn windows_hold_net_deltas_and_levels_are_prefix_sums() {
        let r = GaugeRecorder::new();
        r.enable(100);
        r.add(0, Gauge::SessionsInFlight, 1);
        r.add(50, Gauge::SessionsInFlight, 1);
        r.add(99, Gauge::SessionsInFlight, -1);
        r.add(250, Gauge::SessionsInFlight, -1);
        let s = r.snapshot();
        assert_eq!(s.deltas(Gauge::SessionsInFlight), [1, 0, -1]);
        assert_eq!(s.levels(Gauge::SessionsInFlight), [1, 1, 0]);
        assert_eq!(s.final_level(Gauge::SessionsInFlight), 0);
        assert_eq!(s.max_level(Gauge::SessionsInFlight), 1);
        assert_eq!(s.min_level(Gauge::SessionsInFlight), 0);
        assert_eq!(r.level(Gauge::SessionsInFlight), 0);
    }

    #[test]
    fn merged_levels_are_the_sums_of_per_node_levels() {
        let a = GaugeRecorder::new();
        a.enable(50);
        a.add(0, Gauge::LocksHeld, 1);
        a.add(60, Gauge::LocksHeld, 1);
        a.add(199, Gauge::LocksHeld, -1);
        let b = GaugeRecorder::new();
        b.enable(100);
        b.add(150, Gauge::LocksHeld, 3);
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        // At width 100 both of a's acquires (t=0, t=60) coalesce into
        // window 0; its release and b's +3 land in window 1.
        assert_eq!(ab.window_ns, 100);
        assert_eq!(ab.deltas(Gauge::LocksHeld), [2, 2]);
        assert_eq!(ab.levels(Gauge::LocksHeld), [2, 4]);
        // The identity has no levels at all.
        let e = HealthSnapshot::empty();
        for g in Gauge::ALL {
            assert_eq!((e.final_level(g), e.min_level(g), e.max_level(g)), (0, 0, 0));
        }
    }

    #[test]
    fn delta_since_round_trips_through_merge() {
        let r = GaugeRecorder::new();
        r.enable(100);
        r.add(0, Gauge::VerbsOutstanding, 1);
        r.add(40, Gauge::VerbsOutstanding, -1);
        let early = r.snapshot();
        r.add(150, Gauge::VerbsOutstanding, 1);
        r.add(320, Gauge::MembershipEpoch, 1);
        let late = r.snapshot();
        let delta = late.delta_since(&early);
        let mut rebuilt = early.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, late);
    }

    #[test]
    fn delta_since_survives_width_doubling() {
        let r = GaugeRecorder::new();
        r.enable(10);
        r.add(5, Gauge::PoolResident, 1);
        let early = r.snapshot();
        assert_eq!(early.window_ns, 10);
        // Push the recorder past MAX_WINDOWS so the width doubles.
        r.add(10 * (MAX_WINDOWS as u64 + 1), Gauge::PoolResident, 1);
        let late = r.snapshot();
        assert_eq!(late.window_ns, 20);
        let delta = late.delta_since(&early);
        let mut rebuilt = early.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, late);
    }

    #[test]
    fn clear_zeroes_the_levels() {
        let r = GaugeRecorder::new();
        r.enable(10);
        r.add(5, Gauge::LocksHeld, 5);
        assert_eq!(r.level(Gauge::LocksHeld), 5);
        r.clear();
        assert!(r.snapshot().is_empty());
        assert_eq!(r.level(Gauge::LocksHeld), 0);
    }

    #[test]
    fn gauge_names_round_trip() {
        for g in Gauge::ALL {
            assert_eq!(Gauge::from_name(g.name()), Some(g));
        }
        assert_eq!(Gauge::from_name("no_such_gauge"), None);
    }
}
