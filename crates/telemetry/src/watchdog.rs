//! Online SLO/anomaly watchdog over the streaming windows.
//!
//! The post-hoc [`crate::analysis`] functions answer "what happened"
//! after a run ends; the watchdog answers "is something wrong *now*".
//! It consumes one closed counter window ([`crate::timeseries`]) at a
//! time, plus an optional per-window p99, and evaluates a fixed rule
//! set, emitting typed, virtual-timestamped [`AlertEvent`]s with
//! open/clear semantics. The two levels its rules need — sessions and
//! migrations in flight — it keeps itself, as running sums of the
//! windows' begin and end counters.
//!
//! **Rules.** One per [`AlertKind`], each with a fixed threshold; a run
//! sets only the window width, the session count, the p99 objective and
//! the lock-wait share ([`WatchdogConfig`]):
//!
//! * p99 SLO breach: the window's p99 above the run's objective;
//! * throughput dip (the incremental form of `analysis` dip detection,
//!   via [`RollingBaseline`]): armed once the baseline has learned 8
//!   windows, a breach is a commit rate below 0.5 of the baseline;
//! * lease-steal storm: 1 or more steals in the window;
//! * lock-wait concentration: lock-wait time above `wait_frac` of the
//!   window's session time;
//! * coherence-invalidation storm: 64 or more invalidations;
//! * cache thrash: 32 or more pool lookups at a hit rate below 0.5;
//! * stuck session: sessions in flight and nothing retired;
//! * migration stalled: a migration open and no bytes migrated.
//!
//! **Debounce.** A rule must breach for several *consecutive* windows
//! before an `Open` fires, and look healthy for several consecutive
//! windows before the matching `Clear` — single-window noise never
//! pages. Most rules open after 2 and clear after 4; a steal storm opens
//! on its first window and clears after 2; a stuck session or a stalled
//! migration opens after 8 and clears on the first window that retires a
//! transaction or moves a byte. Events carry the window-end virtual
//! timestamp (a window's behaviour is only knowable once it closes — the
//! same convention as `analysis::RecoveryFacts::time_to_detection_ns`),
//! a sequence number, the observed value, and the threshold it crossed,
//! so the log is a deterministic function of the window stream: same
//! seed, same run, byte-identical alerts.
//!
//! The watchdog never touches any clock: evaluation is bookkeeping on
//! already-recorded windows, so monitoring is free in virtual time.

use crate::analysis::RollingBaseline;
use crate::timeseries::{Metric, SeriesSnapshot, METRICS};

/// Number of watchdog rules (one per [`AlertKind`]).
pub const RULES: usize = 8;

/// What went wrong. The discriminant is the rule-state index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Windowed p99 latency above the run's objective.
    P99SloBreach = 0,
    /// Commit rate fell below half the learned baseline.
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
#[derive(Debug, Clone, Copy)]
struct Debounce {
    /// Breaching windows in a row before `Open`.
    open_after: u32,
    /// Healthy windows in a row before `Clear`.
    clear_after: u32,
}

/// The debounce of every rule but the three below.
const DEBOUNCE: Debounce = Debounce { open_after: 2, clear_after: 4 };
/// [`AlertKind::LeaseStealStorm`]: one steal already means node trouble.
const STEAL_DEBOUNCE: Debounce = Debounce { open_after: 1, clear_after: 2 };
/// [`AlertKind::StuckSession`] and [`AlertKind::MigrationStalled`]: a
/// long silence to open, one sign of progress to clear.
const SILENCE_DEBOUNCE: Debounce = Debounce { open_after: 8, clear_after: 1 };
/// Windows the baseline must learn before the dip rule arms.
const WARMUP_WINDOWS: u64 = 8;
/// The dip rule breaches below this fraction of the baseline throughput.
const DIP_FRAC: f64 = 0.5;
/// Lease steals in a window that count as a storm.
const STEAL_MIN: u64 = 1;
/// Invalidations in a window that count as a storm.
const INVAL_MIN: u64 = 64;
/// Cache thrash: a hit rate below this...
const THRASH_HIT_RATE: f64 = 0.5;
/// ...over at least this many pool lookups in the window.
const THRASH_MIN_LOOKUPS: u64 = 32;

/// What a run sets: the stream's shape, the p99 objective and the
/// lock-wait share. Rates are computed against `window_ns`; the
/// wait-concentration budget is `window_ns * sessions` (total virtual
/// session-time per window). Every other threshold is fixed (module
/// docs).
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Window width of the stream being observed, virtual ns.
    pub window_ns: u64,
    /// Concurrent sessions feeding the stream (wait-budget denominator).
    pub sessions: u32,
    /// p99 objective, virtual ns (`None` disables the rule).
    pub slo_p99_ns: Option<u64>,
    /// Open when `lock_wait_ns / (window_ns * sessions)` exceeds this.
    pub wait_frac: f64,
}

impl WatchdogConfig {
    /// No p99 objective and a lock-wait share of one half.
    pub fn new(window_ns: u64, sessions: u32) -> Self {
        Self { window_ns, sessions: sessions.max(1), slo_p99_ns: None, wait_frac: 0.5 }
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
    /// Sessions in flight at the end of the last window observed.
    in_flight: i64,
    /// Migration windows open at the end of the last window observed.
    migrating: i64,
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
            in_flight: 0,
            migrating: 0,
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
    /// window's virtual end; `counters` is its counter vector; `p99_ns`
    /// the windowed p99 (when the harness tracks latencies).
    pub fn observe_window(&mut self, end_ns: u64, counters: &[u64; METRICS], p99_ns: Option<u64>) {
        let width = self.cfg.window_ns;
        if width == 0 {
            return;
        }
        let count = |m: Metric| counters[m as usize];
        let commits = count(Metric::Commits);
        let aborts = count(Metric::Aborts);
        self.in_flight += count(Metric::Begins) as i64 - (commits + aborts) as i64;
        self.migrating += count(Metric::MigrationsBegun) as i64 - count(Metric::MigrationsEnded) as i64;
        let rate = commits as f64 * 1e9 / width as f64;

        // P99 SLO: only when both an objective and a measurement exist.
        if let (Some(slo), Some(p99)) = (self.cfg.slo_p99_ns, p99_ns) {
            self.step(AlertKind::P99SloBreach, DEBOUNCE, p99 > slo, end_ns, p99 as f64, slo as f64);
        }

        // Throughput dip: incremental analysis::detection. The baseline
        // learns only from windows it did not judge to be dipping, so a
        // long outage cannot teach the watchdog that outage is normal.
        let base = self.baseline.mean();
        let armed = self.baseline.n() >= WARMUP_WINDOWS && base > 0.0;
        let dip_breach = armed && rate < DIP_FRAC * base;
        if !dip_breach {
            self.baseline.observe(rate);
        }
        self.step(AlertKind::ThroughputDip, DEBOUNCE, dip_breach, end_ns, rate, DIP_FRAC * base);

        // Lease-steal storm: any window with STEAL_MIN+ steals.
        let steals = counters[Metric::LockSteals as usize];
        let breach = steals >= STEAL_MIN;
        self.step(AlertKind::LeaseStealStorm, STEAL_DEBOUNCE, breach, end_ns, steals as f64, STEAL_MIN as f64);

        // Lock-wait concentration: share of total session virtual time
        // spent spinning on lock words.
        let budget = (width * self.cfg.sessions as u64) as f64;
        let wait_share = counters[Metric::LockWaitNs as usize] as f64 / budget;
        let (breach, frac) = (wait_share > self.cfg.wait_frac, self.cfg.wait_frac);
        self.step(AlertKind::LockWaitConcentration, DEBOUNCE, breach, end_ns, wait_share, frac);

        // Invalidation storm.
        let invals = counters[Metric::Invals as usize];
        let breach = invals >= INVAL_MIN;
        self.step(AlertKind::InvalidationStorm, DEBOUNCE, breach, end_ns, invals as f64, INVAL_MIN as f64);

        // Cache thrash: enough lookups to judge, hit rate collapsed.
        let hits = counters[Metric::CacheHits as usize];
        let misses = counters[Metric::CacheMisses as usize];
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 { 1.0 } else { hits as f64 / lookups as f64 };
        let breach = lookups >= THRASH_MIN_LOOKUPS && hit_rate < THRASH_HIT_RATE;
        self.step(AlertKind::CacheThrash, DEBOUNCE, breach, end_ns, hit_rate, THRASH_HIT_RATE);

        // Stuck session: sessions in flight, but the window retired
        // nothing at all.
        let in_flight = self.in_flight;
        let stuck = in_flight > 0 && commits + aborts == 0;
        self.step(AlertKind::StuckSession, SILENCE_DEBOUNCE, stuck, end_ns, in_flight as f64, 0.0);

        // Migration stalled: a dual-ownership window is open but the
        // copier moved nothing this window.
        let migrating = self.migrating;
        let stalled = migrating > 0 && count(Metric::MigratedBytes) == 0;
        self.step(AlertKind::MigrationStalled, SILENCE_DEBOUNCE, stalled, end_ns, migrating as f64, 0.0);
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

/// Replay a finished run's merged series (plus optional per-window
/// p99s, indexed by series window) through a fresh watchdog, window by
/// window in virtual-time order — exactly what an online monitor would
/// have seen. The final window is skipped: it is usually partial and
/// would fake a terminal dip (same convention as
/// `analysis::recovery_facts`). Returns the alert log.
pub fn run_over(
    mut cfg: WatchdogConfig,
    series: &SeriesSnapshot,
    p99s: Option<&[Option<u64>]>,
) -> Vec<AlertEvent> {
    cfg.window_ns = series.window_ns;
    let mut wd = Watchdog::new(cfg);
    for i in 0..series.len().saturating_sub(1) {
        let p99 = p99s.and_then(|p| p.get(i).copied().flatten());
        wd.observe_window(series.window_start_ns(i + 1), &series.windows[i], p99);
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
            wd.observe_window((i as u64 + 1) * W, w, None);
        }
    }

    #[test]
    fn dip_opens_after_debounce_and_clears_after_recovery() {
        let mut wd = Watchdog::new(WatchdogConfig::new(W, 1));
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

    /// The dip rule learns through 8 windows, judges the 9th, and
    /// breaches strictly below half the baseline.
    #[test]
    fn dip_rule_arms_after_warm_up_and_opens_below_half_the_baseline() {
        // A dip from window 7 on: window 7 is still warm-up (learned, not
        // judged); windows 8 and 9 are the two breaches.
        let mut wd = Watchdog::new(WatchdogConfig::new(W, 1));
        let mut stream = vec![window(10); 7];
        stream.extend(vec![window(0); 3]);
        feed(&mut wd, &stream);
        assert_eq!(wd.log().len(), 1, "{:?}", wd.log());
        assert_eq!((wd.log()[0].kind, wd.log()[0].at_ns), (AlertKind::ThroughputDip, 10 * W));

        // Exactly half the baseline is no breach (and is learned); below
        // half is, twice in a row.
        let mut wd = Watchdog::new(WatchdogConfig::new(W, 1));
        let mut stream = vec![window(10); 8];
        stream.push(window(5));
        stream.extend(vec![window(4); 2]);
        feed(&mut wd, &stream);
        let log = wd.log();
        assert_eq!(log.len(), 1, "{log:?}");
        assert_eq!((log[0].state, log[0].at_ns), (AlertState::Open, 11 * W));
        let baseline = 85.0 / 9.0 * 1e9 / W as f64;
        assert!((log[0].threshold - 0.5 * baseline).abs() < 1e-6, "{log:?}");
    }

    #[test]
    fn single_window_noise_never_pages() {
        let mut wd = Watchdog::new(WatchdogConfig::new(W, 1));
        let mut stream: Vec<[u64; METRICS]> = vec![window(10); 8];
        stream.push(window(0)); // one bad window, past the warm-up
        stream.extend(vec![window(10); 6]);
        feed(&mut wd, &stream);
        assert!(wd.log().is_empty(), "{:?}", wd.log());
    }

    #[test]
    fn baseline_does_not_learn_from_the_dip() {
        let mut wd = Watchdog::new(WatchdogConfig::new(W, 1));
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
        w[Metric::LockSteals as usize] = 1;
        wd.observe_window(W, &window(5), None);
        wd.observe_window(2 * W, &w, None);
        wd.observe_window(3 * W, &window(5), None);
        let log = wd.log();
        assert_eq!(log.len(), 1, "open but not yet cleared: {log:?}");
        assert_eq!(log[0].kind, AlertKind::LeaseStealStorm);
        assert_eq!(log[0].at_ns, 2 * W);
        assert_eq!((log[0].value, log[0].threshold), (1.0, 1.0));
        // The second quiet window clears it.
        wd.observe_window(4 * W, &window(5), None);
        assert_eq!(wd.log().len(), 2);
        assert_eq!((wd.log()[1].state, wd.log()[1].at_ns), (AlertState::Clear, 4 * W));
    }

    #[test]
    fn p99_rule_needs_both_objective_and_measurement() {
        // No objective → never fires even with huge p99s.
        let mut wd = Watchdog::new(WatchdogConfig::new(W, 1));
        wd.observe_window(W, &window(5), Some(u64::MAX));
        assert!(wd.log().is_empty());
        // Objective set → fires after debounce.
        let mut cfg = WatchdogConfig::new(W, 1);
        cfg.slo_p99_ns = Some(1_000);
        let mut wd = Watchdog::new(cfg);
        wd.observe_window(W, &window(5), Some(5_000));
        wd.observe_window(2 * W, &window(5), Some(5_000));
        let log = wd.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, AlertKind::P99SloBreach);
        assert_eq!(log[0].value, 5_000.0);
        assert_eq!(log[0].threshold, 1_000.0);
    }

    #[test]
    fn wait_concentration_scales_with_session_budget() {
        let mut wd = Watchdog::new(WatchdogConfig::new(W, 4));
        // 4 sessions * 100ns budget = 400ns: 200ns waiting is exactly the
        // default share of one half (no breach), 250ns is 62.5%.
        let waiting = |ns| {
            let mut w = window(5);
            w[Metric::LockWaitNs as usize] = ns;
            w
        };
        feed(&mut wd, &[waiting(200), waiting(200), waiting(250), waiting(250)]);
        let log = wd.log();
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].kind, log[0].at_ns), (AlertKind::LockWaitConcentration, 4 * W));
        assert!((log[0].value - 0.625).abs() < 1e-12);
        assert_eq!(log[0].threshold, 0.5);
    }

    /// Each storm rule at its edge: 63 invalidations or 31 lookups are
    /// too few, a hit rate of exactly one half is no thrash.
    #[test]
    fn invalidation_storm_and_cache_thrash() {
        let mut wd = Watchdog::new(WatchdogConfig::new(W, 1));
        let w = |invals, hits, misses| {
            let mut w = window(5);
            w[Metric::Invals as usize] = invals;
            w[Metric::CacheHits as usize] = hits;
            w[Metric::CacheMisses as usize] = misses;
            w
        };
        feed(&mut wd, &[w(63, 0, 31), w(63, 0, 31), w(64, 16, 16), w(64, 16, 16), w(64, 15, 17), w(64, 15, 17)]);
        let seen: Vec<(AlertKind, u64, f64)> = wd.log().iter().map(|e| (e.kind, e.at_ns, e.threshold)).collect();
        assert_eq!(seen, vec![(AlertKind::InvalidationStorm, 4 * W, 64.0), (AlertKind::CacheThrash, 6 * W, 0.5)]);
    }

    #[test]
    fn stuck_session_needs_sessions_in_flight_and_a_long_silence() {
        let mut wd = Watchdog::new(WatchdogConfig::new(W, 1));
        // Silence with nobody in flight is not stuck.
        wd.observe_window(W, &window(0), None);
        // Two sessions begin and never retire: eight silent windows
        // (the one they began in included) open the alert, seven do not.
        let mut entered = window(0);
        entered[Metric::Begins as usize] = 2;
        wd.observe_window(2 * W, &entered, None);
        for i in 3..=8u64 {
            wd.observe_window(i * W, &window(0), None);
        }
        assert!(wd.log().is_empty(), "{:?}", wd.log());
        wd.observe_window(9 * W, &window(0), None);
        let log = wd.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, AlertKind::StuckSession);
        assert_eq!(log[0].at_ns, 9 * W);
        assert_eq!(log[0].value, 2.0);
        // One retired txn clears it (clear_after = 1) and lowers the level.
        wd.observe_window(10 * W, &window(1), None);
        assert_eq!(wd.log().len(), 2);
        assert_eq!(wd.log()[1].state, AlertState::Clear);
        assert_eq!(wd.log()[1].value, 1.0);
    }

    #[test]
    fn migration_stall_needs_an_open_window_and_flat_progress() {
        let mut wd = Watchdog::new(WatchdogConfig::new(W, 1));
        let mut moving = window(5);
        moving[Metric::MigratedBytes as usize] = 4_096;
        // A migration opens; progressing windows never breach.
        let mut begun = moving;
        begun[Metric::MigrationsBegun as usize] = 1;
        wd.observe_window(W, &begun, None);
        for i in 2..=4u64 {
            wd.observe_window(i * W, &moving, None);
        }
        assert!(wd.log().is_empty(), "{:?}", wd.log());
        // Flat progress with the window still open: opens on the 8th
        // flat window, not the 7th.
        for i in 5..=11u64 {
            wd.observe_window(i * W, &window(5), None);
        }
        assert!(wd.log().is_empty(), "{:?}", wd.log());
        wd.observe_window(12 * W, &window(5), None);
        let log = wd.log();
        assert_eq!(log.len(), 1, "{log:?}");
        assert_eq!(log[0].kind, AlertKind::MigrationStalled);
        assert_eq!(log[0].at_ns, 12 * W);
        assert_eq!(log[0].value, 1.0);
        // Progress resumes: clears immediately (clear_after = 1).
        wd.observe_window(13 * W, &moving, None);
        assert_eq!(wd.log().len(), 2);
        assert_eq!(wd.log()[1].state, AlertState::Clear);
        // Once the dual window closes, flat progress is not a stall.
        let mut ended = window(5);
        ended[Metric::MigrationsEnded as usize] = 1;
        wd.observe_window(14 * W, &ended, None);
        for i in 15..=30u64 {
            wd.observe_window(i * W, &window(5), None);
        }
        assert_eq!(wd.log().len(), 2, "{:?}", wd.log());
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
        let cfg = WatchdogConfig::new(W, 1);
        let log = run_over(cfg.clone(), &s, None);
        let mut wd = Watchdog::new(cfg);
        for i in 0..s.len() - 1 {
            wd.observe_window(s.window_start_ns(i + 1), &s.windows[i], None);
        }
        assert_eq!(log, wd.into_log());
        assert_eq!(log.len(), 2, "{log:?}");
        assert_eq!(log[0].state, AlertState::Open);
        assert_eq!(log[1].state, AlertState::Clear);
    }

    #[test]
    fn run_over_threads_gauge_levels_through() {
        let r = SeriesRecorder::new();
        r.enable(W);
        // Two txns begin, one commits; the other never leaves.
        r.note_all(50, [(Metric::Begins, 2), (Metric::Commits, 1)]);
        r.note(10 * W, Metric::Commits, 1); // extend span, silent middle
        let log = run_over(WatchdogConfig::new(W, 1), &r.snapshot(), None);
        let stuck: Vec<&AlertEvent> = log.iter().filter(|e| e.kind == AlertKind::StuckSession).collect();
        assert_eq!(stuck.len(), 1, "{log:?}");
        // Window 0 retired a txn; windows 1..=8 are the silent eight.
        assert_eq!((stuck[0].at_ns, stuck[0].value), (9 * W, 1.0));
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
