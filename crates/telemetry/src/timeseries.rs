//! Windowed time-series over the virtual clock.
//!
//! Aggregates answer "how much"; the paper's availability and
//! elasticity claims are about "when": the shape of the throughput dip
//! when a node dies and how fast it climbs back. This module supplies
//! the missing primitive — a registry of named counters sampled into
//! fixed-width *virtual-time* windows:
//!
//! * [`Metric`] — the closed set of tracked counters (txn begins,
//!   commits, aborts by cause, per-verb counts, wire RTs, bytes, cache
//!   hits/misses, lock waits/steals, epoch bumps, migration begins and
//!   ends). A closed enum keeps every window a flat `[u64; METRICS]` —
//!   no hashing, no allocation per record.
//! * Levels — how many sessions or migrations are in flight — are not
//!   recorded separately: each is a counter of starts minus a counter
//!   of ends, summed over the windows up to the instant asked about.
//! * [`SeriesRecorder`] — the `Cell`-based accumulator, and [`fold`]:
//!   an accumulator plus the [`SeriesNote`]s of the events it has not
//!   absorbed, which is how an endpoint's series comes out of its flight
//!   recorder. Recording never advances any clock.
//! * [`SeriesSnapshot`] — the mergeable result. Merging is per-window
//!   vector addition after width alignment, which makes it
//!   associative, commutative, and lossless: merging per-session
//!   series in any order equals recording everything single-threaded.
//!
//! **Window widths.** Bucketing, width doubling past [`MAX_WINDOWS`]
//! and the width-aligning merge are the private `window` module's; a
//! window here is a flat vector of counts and folds by addition.

use crate::window::{self, Windowed};

/// Number of tracked metrics (length of a window vector).
pub const METRICS: usize = 30;

/// Hard cap on windows held by one recorder; crossing it doubles the
/// window width (pairwise coalesce), keeping memory bounded at
/// `MAX_WINDOWS * METRICS * 8` bytes per endpoint.
pub const MAX_WINDOWS: usize = 512;

/// Default window width for experiment harnesses, virtual ns. Short
/// runs get fine-grained curves; long runs auto-coarsen by doubling.
pub const DEFAULT_WINDOW_NS: u64 = 16_384;

/// One tracked counter. The discriminant is the window-vector index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Committed transactions.
    Commits = 0,
    /// Aborted attempts, all causes.
    Aborts = 1,
    /// Aborts: no-wait lock busy for the whole retry budget.
    AbortsLockBusy = 2,
    /// Aborts: lock holder never released within the bounded retry.
    AbortsLockTimeout = 3,
    /// Aborts: commit-time validation failure (OCC/TSO/MVCC).
    AbortsValidation = 4,
    /// Aborts: lease expired mid-txn and the lock was stolen.
    AbortsLeaseStolen = 5,
    /// Aborts: a required node is down (typed unavailability).
    AbortsNodeUnavailable = 6,
    /// Aborts: a transient fabric fault leaked past the DSM retries.
    AbortsTransient = 7,
    /// Aborts: everything unclassified.
    AbortsOther = 8,
    /// One-sided READ verbs.
    Reads = 9,
    /// One-sided WRITE verbs.
    Writes = 10,
    /// Compare-and-swap verbs.
    Cas = 11,
    /// Fetch-and-add verbs.
    Faa = 12,
    /// Two-sided SEND verbs.
    Sends = 13,
    /// Two-sided RECV completions.
    Recvs = 14,
    /// Round trips actually paid on the wire (doorbell riders excluded).
    WireRts = 15,
    /// Payload bytes put on the wire (sender side; RECVs not re-counted).
    BytesWire = 16,
    /// Buffer-pool hits.
    CacheHits = 17,
    /// Buffer-pool misses.
    CacheMisses = 18,
    /// Dirty-frame write-backs. The buffer pool writes through, so
    /// nothing notes it and it reads 0; it stays because
    /// `benchmark/src/driver.rs` reads it and the reports carry its column.
    Writebacks = 19,
    /// Virtual ns spent waiting on lock/latch words.
    LockWaitNs = 20,
    /// Lock/latch wait events.
    LockWaits = 21,
    /// Expired leases stolen from their owner.
    LockSteals = 22,
    /// Membership epoch bumps.
    EpochBumps = 23,
    /// Coherence invalidations (writer fanout + pages dropped).
    Invals = 24,
    /// Buffer-pool frames evicted to make room.
    Evictions = 25,
    /// Bytes copied to a new home by the live-migration copier.
    MigratedBytes = 26,
    /// Transactions begun. Every begin ends in exactly one commit or
    /// abort, noted at the instant the attempt ends, so sessions in
    /// flight at a window's end are Σbegins − Σcommits − Σaborts up to
    /// it.
    Begins = 27,
    /// Dual-ownership migration windows opened.
    MigrationsBegun = 28,
    /// Dual-ownership migration windows closed (flipped, aborted or
    /// rolled back); migrations in flight are Σbegun − Σended.
    MigrationsEnded = 29,
}

impl Metric {
    /// Every metric, in window-vector order.
    pub const ALL: [Metric; METRICS] = [
        Metric::Commits,
        Metric::Aborts,
        Metric::AbortsLockBusy,
        Metric::AbortsLockTimeout,
        Metric::AbortsValidation,
        Metric::AbortsLeaseStolen,
        Metric::AbortsNodeUnavailable,
        Metric::AbortsTransient,
        Metric::AbortsOther,
        Metric::Reads,
        Metric::Writes,
        Metric::Cas,
        Metric::Faa,
        Metric::Sends,
        Metric::Recvs,
        Metric::WireRts,
        Metric::BytesWire,
        Metric::CacheHits,
        Metric::CacheMisses,
        Metric::Writebacks,
        Metric::LockWaitNs,
        Metric::LockWaits,
        Metric::LockSteals,
        Metric::EpochBumps,
        Metric::Invals,
        Metric::Evictions,
        Metric::MigratedBytes,
        Metric::Begins,
        Metric::MigrationsBegun,
        Metric::MigrationsEnded,
    ];

    /// Stable JSON/registry name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Commits => "commits",
            Metric::Aborts => "aborts",
            Metric::AbortsLockBusy => "aborts_lock_busy",
            Metric::AbortsLockTimeout => "aborts_lock_timeout",
            Metric::AbortsValidation => "aborts_validation",
            Metric::AbortsLeaseStolen => "aborts_lease_stolen",
            Metric::AbortsNodeUnavailable => "aborts_node_unavailable",
            Metric::AbortsTransient => "aborts_transient",
            Metric::AbortsOther => "aborts_other",
            Metric::Reads => "reads",
            Metric::Writes => "writes",
            Metric::Cas => "cas",
            Metric::Faa => "faa",
            Metric::Sends => "sends",
            Metric::Recvs => "recvs",
            Metric::WireRts => "wire_rts",
            Metric::BytesWire => "bytes_wire",
            Metric::CacheHits => "cache_hits",
            Metric::CacheMisses => "cache_misses",
            Metric::Writebacks => "writebacks",
            Metric::LockWaitNs => "lock_wait_ns",
            Metric::LockWaits => "lock_waits",
            Metric::LockSteals => "lock_steals",
            Metric::EpochBumps => "epoch_bumps",
            Metric::Invals => "invals",
            Metric::Evictions => "evictions",
            Metric::MigratedBytes => "migrated_bytes",
            Metric::Begins => "begins",
            Metric::MigrationsBegun => "migrations_begun",
            Metric::MigrationsEnded => "migrations_ended",
        }
    }

    /// Reverse of [`Metric::name`].
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.iter().copied().find(|m| m.name() == name)
    }
}

/// What one recorded event adds to the series: up to three counter
/// deltas (unused slots add 0) at one virtual instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesNote {
    /// Virtual time the event was recorded.
    pub at_ns: u64,
    /// The counters it bumps and by how much.
    pub deltas: [(Metric, u64); 3],
}

/// The series `acc` holds plus `notes`, noted after it in order; `acc`
/// itself is left as it is.
pub fn fold(acc: &SeriesRecorder, notes: impl IntoIterator<Item = SeriesNote>) -> SeriesSnapshot {
    let acc = acc.clone();
    for n in notes {
        acc.note_all(n.at_ns, n.deltas);
    }
    acc.snapshot()
}

/// Per-thread windowed counter collector. Disabled (width 0) until
/// [`SeriesRecorder::enable`]; recording while disabled is a no-op, so
/// instrumented layers can call unconditionally.
#[derive(Debug, Default, Clone)]
pub struct SeriesRecorder {
    windows: Windowed,
}

impl SeriesRecorder {
    /// A recorder that ignores everything until enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn sampling on with `width_ns`-wide windows (0 turns it off).
    /// Drops any previously recorded windows.
    pub fn enable(&self, width_ns: u64) {
        self.windows.enable(width_ns);
    }

    /// Whether sampling is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.windows.enabled()
    }

    /// Add `delta` to `metric` in the window covering virtual time
    /// `now_ns`. Never advances any clock.
    #[inline]
    pub fn note(&self, now_ns: u64, metric: Metric, delta: u64) {
        self.note_all(now_ns, [(metric, delta)]);
    }

    /// [`SeriesRecorder::note`] for several metrics at one instant, with
    /// one window lookup between them.
    #[inline]
    pub fn note_all<const N: usize>(&self, now_ns: u64, deltas: [(Metric, u64); N]) {
        if deltas.iter().any(|&(_, delta)| delta != 0) {
            self.windows.update(now_ns, |w| {
                for (metric, delta) in deltas {
                    w[metric as usize] += delta;
                }
            });
        }
    }

    /// Drop all windows and restore the configured base width.
    pub fn clear(&self) {
        self.windows.clear();
    }

    /// Copy out the recorded series (empty when disabled).
    pub fn snapshot(&self) -> SeriesSnapshot {
        SeriesSnapshot {
            window_ns: self.windows.width_ns(),
            windows: self.windows.windows(),
        }
    }
}

/// An immutable windowed series; the mergeable cross-thread result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Window width, virtual ns (0 only for the empty snapshot).
    pub window_ns: u64,
    /// Contiguous windows from virtual time 0; window `i` covers
    /// `[i*window_ns, (i+1)*window_ns)`.
    pub windows: Vec<[u64; METRICS]>,
}

impl SeriesSnapshot {
    /// The identity for [`SeriesSnapshot::merge`].
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

    /// `metric`'s count in window `i`.
    pub fn get(&self, i: usize, metric: Metric) -> u64 {
        self.windows[i][metric as usize]
    }

    /// `metric` summed over the whole series.
    pub fn total(&self, metric: Metric) -> u64 {
        self.windows.iter().map(|w| w[metric as usize]).sum()
    }

    /// `metric`'s per-window counts.
    pub fn series(&self, metric: Metric) -> Vec<u64> {
        self.windows.iter().map(|w| w[metric as usize]).collect()
    }

    /// `metric` as a per-window rate (events per virtual second).
    pub fn rate_per_sec(&self, metric: Metric) -> Vec<f64> {
        if self.window_ns == 0 {
            return Vec::new();
        }
        let scale = 1e9 / self.window_ns as f64;
        self.windows
            .iter()
            .map(|w| w[metric as usize] as f64 * scale)
            .collect()
    }

    /// Per-window ratio `num / (num + den)` (e.g. cache hit rate);
    /// windows where both are zero yield 0.
    pub fn share_per_window(&self, num: Metric, den: Metric) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| {
                let n = w[num as usize] as f64;
                let d = w[den as usize] as f64;
                if n + d == 0.0 {
                    0.0
                } else {
                    n / (n + d)
                }
            })
            .collect()
    }

    /// Re-bucket to `new_width` (must be a multiple of the current
    /// width). Exact: counts only move into the coarser window that
    /// already contains their original one.
    pub fn coarsen_to(&mut self, new_width: u64) {
        window::coarsen_to(&mut self.window_ns, &mut self.windows, new_width);
    }

    /// What a `timeseries` section that re-renders to itself can still
    /// get wrong: a zero width; windows that fall short of / run past
    /// the run's makespan by more than one window (the last sample can
    /// land just before a boundary); a session that never drained
    /// (every begin ends in a commit or an abort before the report is
    /// written); or a migration that ended before it began.
    pub fn violations(&self, makespan_ns: u64) -> Vec<String> {
        let (n, w) = (self.len() as u64, self.window_ns);
        if w == 0 {
            return vec!["window_ns is 0".into()];
        }
        let mut out = Vec::new();
        if n * w + w < makespan_ns {
            out.push(format!("{n} windows x {w} ns do not cover makespan {makespan_ns} ns"));
        }
        if makespan_ns + w < n * w {
            out.push(format!("{n} windows x {w} ns overshoot makespan {makespan_ns} ns"));
        }
        let begins = self.total(Metric::Begins);
        let ended = self.total(Metric::Commits) + self.total(Metric::Aborts);
        if begins != ended {
            out.push(format!("{begins} begins but {ended} commits + aborts (all sessions must drain)"));
        }
        let mut migrating = 0i64;
        for (i, win) in self.windows.iter().enumerate() {
            migrating += win[Metric::MigrationsBegun as usize] as i64;
            migrating -= win[Metric::MigrationsEnded as usize] as i64;
            if migrating < 0 {
                out.push(format!("migrations in flight dip to {migrating} in window {i} (must stay >= 0)"));
                break;
            }
        }
        out
    }

    /// Fold `other` into `self`. Widths are aligned to their least
    /// common multiple first, so the operation is associative,
    /// commutative, and lossless (totals are preserved exactly).
    pub fn merge(&mut self, other: &SeriesSnapshot) {
        window::merge(&mut self.window_ns, &mut self.windows, other.window_ns, &other.windows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = SeriesRecorder::new();
        r.note(100, Metric::Commits, 1);
        assert!(!r.enabled());
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn windows_bucket_by_virtual_time() {
        let r = SeriesRecorder::new();
        r.enable(100);
        r.note(0, Metric::Commits, 1);
        r.note(99, Metric::Commits, 1);
        r.note(100, Metric::Commits, 1);
        r.note(350, Metric::Aborts, 2);
        let s = r.snapshot();
        assert_eq!(s.window_ns, 100);
        assert_eq!(s.len(), 4);
        assert_eq!(s.series(Metric::Commits), [2, 1, 0, 0]);
        assert_eq!(s.get(3, Metric::Aborts), 2);
        assert_eq!(s.total(Metric::Commits), 3);
        assert_eq!(s.window_start_ns(3), 300);
    }

    #[test]
    fn snapshot_reports_the_width_before_any_window_and_rates_scale_by_it() {
        let r = SeriesRecorder::new();
        r.enable(1_000);
        assert!(r.snapshot().is_empty());
        assert_eq!(r.snapshot().window_ns, 1_000);
        r.note(500, Metric::Commits, 10);
        assert_eq!(r.snapshot().rate_per_sec(Metric::Commits), [1e7]);
    }

    #[test]
    fn share_per_window_is_a_hit_rate() {
        let r = SeriesRecorder::new();
        r.enable(10);
        r.note(0, Metric::CacheHits, 3);
        r.note(0, Metric::CacheMisses, 1);
        r.note(15, Metric::CacheHits, 2);
        let s = r.snapshot();
        assert_eq!(s.share_per_window(Metric::CacheHits, Metric::CacheMisses), [0.75, 1.0]);
    }

    #[test]
    fn metric_names_round_trip() {
        for m in Metric::ALL {
            assert_eq!(Metric::from_name(m.name()), Some(m));
        }
        assert_eq!(Metric::from_name("no_such_metric"), None);
    }
}
