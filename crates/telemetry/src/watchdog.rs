//! Online SLO/anomaly watchdog over the streaming windows.
//!
//! The post-hoc [`crate::analysis`] functions answer "what happened"
//! after a run ends; the watchdog answers "is something wrong *now*".
//! It consumes the live plane — one closed counter window
//! ([`crate::timeseries`]) plus the gauge levels at its end
//! ([`crate::live`]) and an optional per-window p99 — and evaluates a
//! fixed rule set, emitting typed, virtual-timestamped [`AlertEvent`]s
//! with open/clear semantics.
//!
//! **Rules.** One per [`AlertKind`]: p99 SLO breach, throughput dip
//! (the incremental form of `analysis` dip detection, via
//! [`RollingBaseline`]), lease-steal storm, lock-wait concentration,
//! coherence-invalidation storm, cache thrash, and stuck session.
//!
//! **Debounce.** A rule must breach for `open_after` *consecutive*
//! windows before an `Open` fires, and look healthy for `clear_after`
//! consecutive windows before the matching `Clear` — single-window
//! noise never pages. Events carry the window-end virtual timestamp
//! (a window's behaviour is only knowable once it closes — the same
//! convention as `analysis::time_to_detection`), a sequence number,
//! the observed value, and the threshold it crossed, so the log is a
//! deterministic function of the window stream: same seed, same run,
//! byte-identical alerts.
//!
//! The watchdog never touches any clock: evaluation is bookkeeping on
//! already-recorded windows, so monitoring is free in virtual time.

use crate::analysis::RollingBaseline;
use crate::live::{Gauge, HealthSnapshot, GAUGES};
use crate::timeseries::{Metric, SeriesSnapshot, METRICS};

/// Number of watchdog rules (one per [`AlertKind`]).
pub const RULES: usize = 8;

/// What went wrong. The discriminant is the rule-state index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Windowed p99 latency above the configured objective.
    P99SloBreach = 0,
    /// Commit rate fell below `dip_frac` of the learned baseline.
    ThroughputDip = 1,
    /// Expired leases stolen this window (lease churn ⇒ node trouble).
    LeaseStealStorm = 2,
    /// Lock-wait virtual time concentrated past the budget share.
    LockWaitConcentration = 3,
    /// Coherence invalidations flooding the window.
    InvalidationStorm = 4,
    /// Buffer pool churning: lookups high, hit rate collapsed.
    CacheThrash = 5,
    /// Sessions in flight but neither commits nor aborts for a while.
    StuckSession = 6,
    /// A dual-ownership migration window is open but copy progress is
    /// flat (no bytes migrated for several windows).
    MigrationStalled = 7,
}

impl AlertKind {
    /// Every kind, in rule-state order.
    pub const ALL: [AlertKind; RULES] = [
        AlertKind::P99SloBreach,
        AlertKind::ThroughputDip,
        AlertKind::LeaseStealStorm,
        AlertKind::LockWaitConcentration,
        AlertKind::InvalidationStorm,
        AlertKind::CacheThrash,
        AlertKind::StuckSession,
        AlertKind::MigrationStalled,
    ];

    /// Stable JSON name.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::P99SloBreach => "p99_slo_breach",
            AlertKind::ThroughputDip => "throughput_dip",
            AlertKind::LeaseStealStorm => "lease_steal_storm",
            AlertKind::LockWaitConcentration => "lock_wait_concentration",
            AlertKind::InvalidationStorm => "invalidation_storm",
            AlertKind::CacheThrash => "cache_thrash",
            AlertKind::StuckSession => "stuck_session",
            AlertKind::MigrationStalled => "migration_stalled",
        }
    }

    /// Reverse of [`AlertKind::name`].
    pub fn from_name(name: &str) -> Option<AlertKind> {
        AlertKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// Whether an event opens or clears an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The rule confirmed a breach (after debounce).
    Open,
    /// The rule confirmed recovery (after debounce).
    Clear,
}

impl AlertState {
    /// Stable JSON name.
    pub fn name(self) -> &'static str {
        match self {
            AlertState::Open => "open",
            AlertState::Clear => "clear",
        }
    }
}

/// One entry in the deterministic alert log.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Position in the log (0-based, strictly increasing).
    pub seq: u64,
    /// Which rule fired.
    pub kind: AlertKind,
    /// Open or clear.
    pub state: AlertState,
    /// Virtual end of the window that confirmed the transition.
    pub at_ns: u64,
    /// The observed value at that window (rule-specific unit).
    pub value: f64,
    /// The threshold it crossed (same unit as `value`).
    pub threshold: f64,
}

/// Consecutive-window requirements before a transition fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Debounce {
    /// Breaching windows in a row before `Open` (min 1).
    pub open_after: u32,
    /// Healthy windows in a row before `Clear` (min 1).
    pub clear_after: u32,
}

impl Debounce {
    /// `open_after` breaches to open, `clear_after` healthy to clear.
    pub fn new(open_after: u32, clear_after: u32) -> Self {
        Self { open_after: open_after.max(1), clear_after: clear_after.max(1) }
    }
}

/// Thresholds and debounce for every rule. Rates are computed against
/// `window_ns`; the wait-concentration budget is `window_ns * sessions`
/// (total virtual session-time per window).
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Window width of the stream being observed, virtual ns.
    pub window_ns: u64,
    /// Concurrent sessions feeding the stream (wait-budget denominator).
    pub sessions: u32,
    /// Windows the baseline must see before the dip rule arms.
    pub warmup_windows: u32,
    /// Open the dip alert below this fraction of baseline throughput.
    pub dip_frac: f64,
    /// Debounce for [`AlertKind::ThroughputDip`].
    pub dip: Debounce,
    /// p99 objective, virtual ns (`None` disables the rule).
    pub slo_p99_ns: Option<u64>,
    /// Debounce for [`AlertKind::P99SloBreach`].
    pub p99: Debounce,
    /// Lease steals per window that count as a storm.
    pub steal_min: u64,
    /// Debounce for [`AlertKind::LeaseStealStorm`].
    pub steal: Debounce,
    /// Open when `lock_wait_ns / (window_ns * sessions)` exceeds this.
    pub wait_frac: f64,
    /// Debounce for [`AlertKind::LockWaitConcentration`].
    pub wait: Debounce,
    /// Invalidations per window that count as a storm.
    pub inval_min: u64,
    /// Debounce for [`AlertKind::InvalidationStorm`].
    pub inval: Debounce,
    /// Open when the windowed hit rate falls below this...
    pub thrash_hit_rate: f64,
    /// ...and the window saw at least this many pool lookups.
    pub thrash_min_lookups: u64,
    /// Debounce for [`AlertKind::CacheThrash`].
    pub thrash: Debounce,
    /// Windows with sessions in flight but zero commits+aborts before
    /// [`AlertKind::StuckSession`] opens (its open debounce).
    pub stuck_windows: u32,
    /// Windows with a dual-ownership migration open but zero migrated
    /// bytes before [`AlertKind::MigrationStalled`] opens.
    pub migration_stall_windows: u32,
}

impl WatchdogConfig {
    /// Defaults tuned for the experiment harnesses: open after 2
    /// consecutive bad windows, clear after 4 good ones; storms need
    /// absolute evidence, the dip rule needs a warmed-up baseline.
    pub fn new(window_ns: u64, sessions: u32) -> Self {
        Self {
            window_ns,
            sessions: sessions.max(1),
            warmup_windows: 8,
            dip_frac: 0.5,
            dip: Debounce::new(2, 4),
            slo_p99_ns: None,
            p99: Debounce::new(2, 4),
            steal_min: 1,
            steal: Debounce::new(1, 2),
            wait_frac: 0.5,
            wait: Debounce::new(2, 4),
            inval_min: 64,
            inval: Debounce::new(2, 4),
            thrash_hit_rate: 0.5,
            thrash_min_lookups: 32,
            thrash: Debounce::new(2, 4),
            stuck_windows: 8,
            migration_stall_windows: 8,
        }
    }
}

/// Per-rule debounce state.
#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    breach_run: u32,
    ok_run: u32,
    open: bool,
}

/// The online monitor: feed it closed windows in virtual-time order,
/// read the typed alert log. Pure bookkeeping — no clocks advanced.
#[derive(Debug, Clone)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    baseline: RollingBaseline,
    rules: [RuleState; RULES],
    log: Vec<AlertEvent>,
    seq: u64,
}

impl Watchdog {
    /// A watchdog with no windows observed and an empty log.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Self {
            cfg,
            baseline: RollingBaseline::new(),
            rules: [RuleState::default(); RULES],
            log: Vec::new(),
            seq: 0,
        }
    }

    /// The learned throughput baseline so far, commits per virtual sec.
    pub fn baseline_tps(&self) -> f64 {
        self.baseline.mean()
    }

    /// The alert log so far (chronological, seq-numbered).
    pub fn log(&self) -> &[AlertEvent] {
        &self.log
    }

    /// Consume the watchdog, returning the full log.
    pub fn into_log(self) -> Vec<AlertEvent> {
        self.log
    }

    /// Alerts currently open.
    pub fn open_alerts(&self) -> Vec<AlertKind> {
        AlertKind::ALL.iter().copied().filter(|&k| self.rules[k as usize].open).collect()
    }

    /// Evaluate every rule against one *closed* window. `end_ns` is the
    /// window's virtual end; `counters` is its counter vector; `levels`
    /// the gauge levels at its end (when a health plane is wired);
    /// `p99_ns` the windowed p99 (when the harness tracks latencies).
    pub fn observe_window(
        &mut self,
        end_ns: u64,
        counters: &[u64; METRICS],
        levels: Option<&[i64; GAUGES]>,
        p99_ns: Option<u64>,
    ) {
        let width = self.cfg.window_ns;
        if width == 0 {
            return;
        }
        let commits = counters[Metric::Commits as usize];
        let aborts = counters[Metric::Aborts as usize];
        let rate = commits as f64 * 1e9 / width as f64;

        // P99 SLO: only when both an objective and a measurement exist.
        if let (Some(slo), Some(p99)) = (self.cfg.slo_p99_ns, p99_ns) {
            let (db, breach) = (self.cfg.p99, p99 > slo);
            self.step(AlertKind::P99SloBreach, db, breach, end_ns, p99 as f64, slo as f64);
        }

        // Throughput dip: incremental analysis::detection. The baseline
        // learns only from windows it did not judge to be dipping, so a
        // long outage cannot teach the watchdog that outage is normal.
        let base = self.baseline.mean();
        let armed = self.baseline.n() >= self.cfg.warmup_windows as u64 && base > 0.0;
        let dip_breach = armed && rate < self.cfg.dip_frac * base;
        if !dip_breach {
            self.baseline.observe(rate);
        }
        let (db, thr) = (self.cfg.dip, self.cfg.dip_frac * base);
        self.step(AlertKind::ThroughputDip, db, dip_breach, end_ns, rate, thr);

        // Lease-steal storm: any window with steal_min+ steals.
        let steals = counters[Metric::LockSteals as usize];
        let (db, breach) = (self.cfg.steal, steals >= self.cfg.steal_min);
        self.step(AlertKind::LeaseStealStorm, db, breach, end_ns, steals as f64, self.cfg.steal_min as f64);

        // Lock-wait concentration: share of total session virtual time
        // spent spinning on lock words.
        let budget = (width * self.cfg.sessions as u64) as f64;
        let wait_share = counters[Metric::LockWaitNs as usize] as f64 / budget;
        let (db, breach) = (self.cfg.wait, wait_share > self.cfg.wait_frac);
        self.step(AlertKind::LockWaitConcentration, db, breach, end_ns, wait_share, self.cfg.wait_frac);

        // Invalidation storm.
        let invals = counters[Metric::Invals as usize];
        let (db, breach) = (self.cfg.inval, invals >= self.cfg.inval_min);
        self.step(AlertKind::InvalidationStorm, db, breach, end_ns, invals as f64, self.cfg.inval_min as f64);

        // Cache thrash: enough lookups to judge, hit rate collapsed.
        let hits = counters[Metric::CacheHits as usize];
        let misses = counters[Metric::CacheMisses as usize];
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 { 1.0 } else { hits as f64 / lookups as f64 };
        let breach = lookups >= self.cfg.thrash_min_lookups && hit_rate < self.cfg.thrash_hit_rate;
        let db = self.cfg.thrash;
        self.step(AlertKind::CacheThrash, db, breach, end_ns, hit_rate, self.cfg.thrash_hit_rate);

        // Stuck session: sessions in flight, but the window retired
        // nothing at all. Needs the gauge plane.
        let in_flight = levels.map_or(0, |l| l[Gauge::SessionsInFlight as usize]);
        let stuck = in_flight > 0 && commits + aborts == 0;
        let db = Debounce::new(self.cfg.stuck_windows, 1);
        self.step(AlertKind::StuckSession, db, stuck, end_ns, in_flight as f64, 0.0);

        // Migration stalled: a dual-ownership window is open but the
        // copier moved nothing this window. Needs the gauge plane.
        let migrating = levels.map_or(0, |l| l[Gauge::MigrationInFlight as usize]);
        let moved = counters[Metric::MigratedBytes as usize];
        let stalled = migrating > 0 && moved == 0;
        let db = Debounce::new(self.cfg.migration_stall_windows, 1);
        self.step(AlertKind::MigrationStalled, db, stalled, end_ns, migrating as f64, 0.0);
    }

    /// Debounced open/clear state machine for one rule.
    fn step(
        &mut self,
        kind: AlertKind,
        db: Debounce,
        breach: bool,
        end_ns: u64,
        value: f64,
        threshold: f64,
    ) {
        let rule = &mut self.rules[kind as usize];
        if breach {
            rule.breach_run += 1;
            rule.ok_run = 0;
            if !rule.open && rule.breach_run >= db.open_after {
                rule.open = true;
                let seq = self.seq;
                self.seq += 1;
                self.log.push(AlertEvent { seq, kind, state: AlertState::Open, at_ns: end_ns, value, threshold });
            }
        } else {
            rule.ok_run += 1;
            rule.breach_run = 0;
            if rule.open && rule.ok_run >= db.clear_after {
                rule.open = false;
                let seq = self.seq;
                self.seq += 1;
                self.log.push(AlertEvent { seq, kind, state: AlertState::Clear, at_ns: end_ns, value, threshold });
            }
        }
    }
}

/// Replay a finished run's merged series (plus optional health plane
/// and per-window p99s, indexed by series window) through a fresh
/// watchdog, window by window in virtual-time order — exactly what an
/// online monitor would have seen. The final window is skipped: it is
/// usually partial and would fake a terminal dip (same convention as
/// `analysis::recovery_facts`). Returns the alert log.
pub fn run_over(
    mut cfg: WatchdogConfig,
    series: &SeriesSnapshot,
    health: Option<&HealthSnapshot>,
    p99s: Option<&[Option<u64>]>,
) -> Vec<AlertEvent> {
    cfg.window_ns = series.window_ns;
    let mut wd = Watchdog::new(cfg);
    // Align the health plane to the counter stream's width. Both start
    // from the same base width and only double, so one divides the
    // other; the gauge plane (rarer events) is never the coarser one.
    let aligned;
    let health = match health {
        Some(h) if !h.is_empty() => {
            assert!(
                series.window_ns.is_multiple_of(h.window_ns),
                "health width {} does not divide series width {}",
                h.window_ns,
                series.window_ns
            );
            let mut h2 = h.clone();
            h2.coarsen_to(series.window_ns);
            aligned = h2;
            Some(&aligned)
        }
        _ => None,
    };
    let mut levels = [0i64; GAUGES];
    let n = series.len().saturating_sub(1);
    for i in 0..n {
        if let Some(h) = health {
            if let Some(w) = h.windows.get(i) {
                for (lvl, d) in levels.iter_mut().zip(w.iter()) {
                    *lvl += d;
                }
            }
        }
        let end_ns = series.window_start_ns(i + 1);
        let p99 = p99s.and_then(|p| p.get(i).copied().flatten());
        wd.observe_window(end_ns, &series.windows[i], health.map(|_| &levels), p99);
    }
    wd.into_log()
}

/// What an `alerts` section that re-renders to itself can still get
/// wrong: `seq` is the event index, timestamps never go backwards,
/// each kind alternates open -> clear starting with open, and — given
/// the run's `(window_ns, span_ns)` — every event sits on a window
/// boundary inside the sampled span (the watchdog never invents
/// timestamps).
pub fn log_violations(events: &[AlertEvent], span: Option<(u64, u64)>) -> Vec<String> {
    let mut out = Vec::new();
    let mut last_at = 0;
    let mut open = [false; RULES];
    for (i, e) in events.iter().enumerate() {
        if e.seq != i as u64 {
            out.push(format!("events[{i}].seq = {}, expected {i}", e.seq));
        }
        if e.at_ns < last_at {
            out.push(format!("events[{i}].at_ns = {} goes backwards", e.at_ns));
        }
        last_at = e.at_ns;
        if let Some((window_ns, span_ns)) = span {
            if window_ns > 0 && (!e.at_ns.is_multiple_of(window_ns) || e.at_ns > span_ns) {
                out.push(format!(
                    "events[{i}].at_ns = {} is not a window boundary within the {span_ns} ns run span",
                    e.at_ns
                ));
            }
        }
        let k = e.kind as usize;
        match e.state {
            AlertState::Open if open[k] => out.push(format!("events[{i}]: {} opened twice", e.kind.name())),
            AlertState::Clear if !open[k] => {
                out.push(format!("events[{i}]: {} cleared while not open", e.kind.name()))
            }
            _ => open[k] = e.state == AlertState::Open,
        }
    }
    out
}

/// Exact per-window p99 from raw `(virtual_end_ns, latency_ns)` txn
/// samples, bucketed by `window_ns` into `n_windows` windows. Windows
/// with no samples yield `None`. Deterministic: nearest-rank on the
/// sorted latencies.
pub fn windowed_p99(samples: &[(u64, u64)], window_ns: u64, n_windows: usize) -> Vec<Option<u64>> {
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); n_windows];
    if window_ns == 0 {
        return buckets.into_iter().map(|_| None).collect();
    }
    for &(t, lat) in samples {
        let idx = (t / window_ns) as usize;
        if idx < n_windows {
            buckets[idx].push(lat);
        }
    }
    buckets
        .into_iter()
        .map(|mut b| {
            if b.is_empty() {
                return None;
            }
            b.sort_unstable();
            let rank = ((b.len() as f64) * 0.99).ceil() as usize;
            Some(b[rank.clamp(1, b.len()) - 1])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::SeriesRecorder;

    const W: u64 = 100;

    fn window(commits: u64) -> [u64; METRICS] {
        let mut w = [0u64; METRICS];
        w[Metric::Commits as usize] = commits;
        w
    }

    fn feed(wd: &mut Watchdog, windows: &[[u64; METRICS]]) {
        for (i, w) in windows.iter().enumerate() {
            wd.observe_window((i as u64 + 1) * W, w, None, None);
        }
    }

    #[test]
    fn dip_opens_after_debounce_and_clears_after_recovery() {
        let mut cfg = WatchdogConfig::new(W, 1);
        cfg.warmup_windows = 4;
        let mut wd = Watchdog::new(cfg);
        let mut stream: Vec<[u64; METRICS]> = vec![window(10); 8];
        stream.extend(vec![window(1); 4]); // dip: windows 8..12
        stream.extend(vec![window(10); 6]); // recovery: windows 12..18
        feed(&mut wd, &stream);
        let log = wd.log();
        assert_eq!(log.len(), 2, "exactly one open/clear pair: {log:?}");
        assert_eq!(log[0].kind, AlertKind::ThroughputDip);
        assert_eq!(log[0].state, AlertState::Open);
        // Dip starts at window 8; debounce open_after=2 confirms at the
        // close of window 9 → 10*W.
        assert_eq!(log[0].at_ns, 10 * W);
        assert_eq!(log[1].state, AlertState::Clear);
        // Recovery at window 12; clear_after=4 confirms at close of 15.
        assert_eq!(log[1].at_ns, 16 * W);
        assert!(wd.open_alerts().is_empty());
    }

    #[test]
    fn single_window_noise_never_pages() {
        let mut cfg = WatchdogConfig::new(W, 1);
        cfg.warmup_windows = 4;
        let mut wd = Watchdog::new(cfg);
        let mut stream: Vec<[u64; METRICS]> = vec![window(10); 6];
        stream.push(window(0)); // one bad window
        stream.extend(vec![window(10); 6]);
        feed(&mut wd, &stream);
        assert!(wd.log().is_empty(), "{:?}", wd.log());
    }

    #[test]
    fn baseline_does_not_learn_from_the_dip() {
        let mut cfg = WatchdogConfig::new(W, 1);
        cfg.warmup_windows = 4;
        let mut wd = Watchdog::new(cfg);
        // Long outage: if the baseline absorbed the dip, the alert
        // would clear while throughput is still on the floor.
        let mut stream: Vec<[u64; METRICS]> = vec![window(10); 8];
        stream.extend(vec![window(0); 40]);
        feed(&mut wd, &stream);
        let log = wd.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].state, AlertState::Open);
        assert_eq!(wd.open_alerts(), vec![AlertKind::ThroughputDip]);
        assert!((wd.baseline_tps() - 10.0 * 1e9 / W as f64).abs() < 1e-6);
    }

    #[test]
    fn steal_storm_fires_on_a_single_steal_window() {
        let mut wd = Watchdog::new(WatchdogConfig::new(W, 1));
        let mut w = window(5);
        w[Metric::LockSteals as usize] = 2;
        wd.observe_window(W, &window(5), None, None);
        wd.observe_window(2 * W, &w, None, None);
        wd.observe_window(3 * W, &window(5), None, None);
        let log = wd.log();
        assert_eq!(log.len(), 1, "open but not yet cleared: {log:?}");
        assert_eq!(log[0].kind, AlertKind::LeaseStealStorm);
        assert_eq!(log[0].at_ns, 2 * W);
        assert_eq!(log[0].value, 2.0);
    }

    #[test]
    fn p99_rule_needs_both_objective_and_measurement() {
        // No objective → never fires even with huge p99s.
        let mut wd = Watchdog::new(WatchdogConfig::new(W, 1));
        wd.observe_window(W, &window(5), None, Some(u64::MAX));
        assert!(wd.log().is_empty());
        // Objective set → fires after debounce.
        let mut cfg = WatchdogConfig::new(W, 1);
        cfg.slo_p99_ns = Some(1_000);
        let mut wd = Watchdog::new(cfg);
        wd.observe_window(W, &window(5), None, Some(5_000));
        wd.observe_window(2 * W, &window(5), None, Some(5_000));
        let log = wd.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, AlertKind::P99SloBreach);
        assert_eq!(log[0].value, 5_000.0);
        assert_eq!(log[0].threshold, 1_000.0);
    }

    #[test]
    fn wait_concentration_scales_with_session_budget() {
        let mut cfg = WatchdogConfig::new(W, 4);
        cfg.wait_frac = 0.5;
        let mut wd = Watchdog::new(cfg);
        let mut w = window(5);
        // 4 sessions * 100ns budget = 400ns; 250ns waiting = 62.5%.
        w[Metric::LockWaitNs as usize] = 250;
        wd.observe_window(W, &w, None, None);
        wd.observe_window(2 * W, &w, None, None);
        let log = wd.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, AlertKind::LockWaitConcentration);
        assert!((log[0].value - 0.625).abs() < 1e-12);
    }

    #[test]
    fn invalidation_storm_and_cache_thrash() {
        let mut cfg = WatchdogConfig::new(W, 1);
        cfg.inval_min = 10;
        cfg.thrash_min_lookups = 10;
        let mut wd = Watchdog::new(cfg);
        let mut w = window(5);
        w[Metric::Invals as usize] = 50;
        w[Metric::CacheHits as usize] = 2;
        w[Metric::CacheMisses as usize] = 18;
        wd.observe_window(W, &w, None, None);
        wd.observe_window(2 * W, &w, None, None);
        let kinds: Vec<AlertKind> = wd.log().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![AlertKind::InvalidationStorm, AlertKind::CacheThrash]);
    }

    #[test]
    fn stuck_session_needs_gauges_and_a_long_silence() {
        let mut cfg = WatchdogConfig::new(W, 1);
        cfg.stuck_windows = 3;
        let mut wd = Watchdog::new(cfg);
        let mut levels = [0i64; GAUGES];
        levels[Gauge::SessionsInFlight as usize] = 2;
        // Without gauges the rule is inert.
        wd.observe_window(W, &window(0), None, None);
        // With gauges: three silent windows open the alert.
        for i in 2..=4u64 {
            wd.observe_window(i * W, &window(0), Some(&levels), None);
        }
        let log = wd.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, AlertKind::StuckSession);
        assert_eq!(log[0].at_ns, 4 * W);
        assert_eq!(log[0].value, 2.0);
        // One retired txn clears it (clear_after = 1).
        wd.observe_window(5 * W, &window(1), Some(&levels), None);
        assert_eq!(wd.log().len(), 2);
        assert_eq!(wd.log()[1].state, AlertState::Clear);
    }

    #[test]
    fn migration_stall_needs_an_open_window_and_flat_progress() {
        let mut cfg = WatchdogConfig::new(W, 1);
        cfg.migration_stall_windows = 3;
        let mut wd = Watchdog::new(cfg);
        let mut levels = [0i64; GAUGES];
        levels[Gauge::MigrationInFlight as usize] = 1;
        let mut moving = window(5);
        moving[Metric::MigratedBytes as usize] = 4_096;
        // Progressing windows never breach.
        for i in 1..=4u64 {
            wd.observe_window(i * W, &moving, Some(&levels), None);
        }
        assert!(wd.log().is_empty(), "{:?}", wd.log());
        // Flat progress with the window still open: opens after 3.
        for i in 5..=7u64 {
            wd.observe_window(i * W, &window(5), Some(&levels), None);
        }
        let log = wd.log();
        assert_eq!(log.len(), 1, "{log:?}");
        assert_eq!(log[0].kind, AlertKind::MigrationStalled);
        assert_eq!(log[0].at_ns, 7 * W);
        assert_eq!(log[0].value, 1.0);
        // Progress resumes: clears immediately (clear_after = 1).
        wd.observe_window(8 * W, &moving, Some(&levels), None);
        assert_eq!(wd.log().len(), 2);
        assert_eq!(wd.log()[1].state, AlertState::Clear);
        // Once the dual window closes, flat progress is not a stall.
        let mut wd2 = Watchdog::new({
            let mut c = WatchdogConfig::new(W, 1);
            c.migration_stall_windows = 1;
            c
        });
        wd2.observe_window(W, &window(5), Some(&[0i64; GAUGES]), None);
        assert!(wd2.log().is_empty());
    }

    #[test]
    fn run_over_matches_incremental_feeding_and_skips_partial_tail() {
        let r = SeriesRecorder::new();
        r.enable(W);
        for w in 0..20u64 {
            let c = if (10..13).contains(&w) { 1 } else { 10 };
            r.note(w * W + 50, Metric::Commits, c);
        }
        let s = r.snapshot();
        let mut cfg = WatchdogConfig::new(W, 1);
        cfg.warmup_windows = 4;
        let log = run_over(cfg.clone(), &s, None, None);
        let mut wd = Watchdog::new(cfg);
        for i in 0..s.len() - 1 {
            wd.observe_window(s.window_start_ns(i + 1), &s.windows[i], None, None);
        }
        assert_eq!(log, wd.into_log());
        assert_eq!(log.len(), 2, "{log:?}");
        assert_eq!(log[0].state, AlertState::Open);
        assert_eq!(log[1].state, AlertState::Clear);
    }

    #[test]
    fn run_over_threads_gauge_levels_through() {
        use crate::live::GaugeRecorder;
        let r = SeriesRecorder::new();
        r.enable(W);
        r.note(50, Metric::Commits, 1);
        r.note(10 * W, Metric::Commits, 1); // extend span, silent middle
        let g = GaugeRecorder::new();
        g.enable(W);
        g.add(50, Gauge::SessionsInFlight, 1); // enters, never leaves
        let mut cfg = WatchdogConfig::new(W, 1);
        cfg.stuck_windows = 3;
        cfg.warmup_windows = 100; // keep the dip rule out of this test
        let log = run_over(cfg, &r.snapshot(), Some(&g.snapshot()), None);
        assert_eq!(log.len(), 1, "{log:?}");
        assert_eq!(log[0].kind, AlertKind::StuckSession);
    }

    #[test]
    fn windowed_p99_buckets_and_ranks() {
        assert!(windowed_p99(&[], W, 0).is_empty());
        assert_eq!(windowed_p99(&[(50, 7)], 0, 2), vec![None, None]);
        let samples: Vec<(u64, u64)> = (0..100).map(|i| (50, i + 1)).collect();
        let p = windowed_p99(&samples, W, 2);
        assert_eq!(p, vec![Some(99), None]);
        let p = windowed_p99(&[(150, 42)], W, 2);
        assert_eq!(p, vec![None, Some(42)]);
    }

    #[test]
    fn alert_names_round_trip() {
        for k in AlertKind::ALL {
            assert_eq!(AlertKind::from_name(k.name()), Some(k));
        }
        assert_eq!(AlertKind::from_name("no_such_alert"), None);
    }
}
