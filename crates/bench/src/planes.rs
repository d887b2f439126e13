//! One telemetry bundle per run.
//!
//! Every harness records the same five planes — transaction latency,
//! phase attribution, contention, windowed series, tail forensics — on
//! each session or bare endpoint it drives and merges them across the
//! fleet. [`Planes`] is that bundle: harnesses turn on what they record
//! on the endpoint or session and [`collect`](Planes::collect) what was
//! recorded; an experiment whose claim is computed from the planes
//! [`attach`](Planes::attach)es its flagship run's merge to the report,
//! and the rest attach nothing. Fabric utilization is not among them: it
//! is folded from the flight-recorder ring by the one experiment that
//! reads it ([`crate::heatmap`]).

use dsmdb::Session;
use rdma_sim::{ContentionSnapshot, Endpoint, HistSnapshot, PhaseSnapshot, SeriesSnapshot};
use telemetry::report::{alerts_json, series_json, Report, Section};
use telemetry::watchdog::run_over;
use telemetry::{forensics_json, sparkline, AlertEvent, ForensicsSnapshot, Metric, WatchdogConfig};

/// Worst-K forensics exemplar reservoir depth of every harness.
pub const EXEMPLARS: usize = 8;

/// The telemetry planes of one run, merged across everything that
/// recorded them. Every merge is associative and commutative, so the
/// bundle is independent of collection order.
#[derive(Debug, Clone, Default)]
pub struct Planes {
    /// End-to-end transaction latency (virtual ns), committed and
    /// aborted attempts alike.
    pub latency: HistSnapshot,
    /// Per-phase virtual-time / verb attribution.
    pub phases: PhaseSnapshot,
    /// Hot-key, wait-for and coherence contention profile.
    pub contention: ContentionSnapshot,
    /// Windowed counters (txn begins, commits, aborts by cause, verbs,
    /// cache, locks, migrations).
    pub series: SeriesSnapshot,
    /// Blame-share histogram over every transaction plus the worst-K
    /// exemplar reservoir.
    pub forensics: ForensicsSnapshot,
}

impl Planes {
    /// Turn on tail forensics for `s`: a flight-recorder ring of `ring`
    /// events (deep enough for one transaction's chain — forensics only
    /// reads back the current one) feeding a worst-[`EXEMPLARS`]
    /// reservoir.
    pub fn enable_forensics(s: &mut Session, ring: usize) {
        s.endpoint().enable_flight_recorder(ring);
        s.enable_forensics(EXEMPLARS);
    }

    /// Fold in everything `ep` recorded (the endpoint-level planes).
    pub fn collect(&mut self, ep: &Endpoint) {
        self.phases.merge(&ep.phase_snapshot());
        self.contention.merge(&ep.contention_snapshot());
        self.series.merge(&ep.series_snapshot());
    }

    /// Fold in everything `s` and its endpoint recorded.
    pub fn collect_session(&mut self, s: &Session) {
        self.latency.merge(&s.latency());
        self.forensics.merge(&s.forensics_snapshot());
        self.collect(s.endpoint());
    }

    /// The merged bundle of an endpoint-level run.
    pub fn of_endpoints(eps: &[Endpoint]) -> Self {
        let mut out = Self::default();
        for ep in eps {
            out.collect(ep);
        }
        out
    }

    /// Fold another bundle in.
    pub fn merge(&mut self, o: &Planes) {
        self.latency.merge(&o.latency);
        self.phases.merge(&o.phases);
        self.contention.merge(&o.contention);
        self.series.merge(&o.series);
        self.forensics.merge(&o.forensics);
    }

    /// The bundle reduced to its series, which is everything the
    /// watchdog replays. For reports that carry no forensics section.
    pub fn live(&self) -> Planes {
        Planes { series: self.series.clone(), ..Planes::default() }
    }

    /// The default-threshold watchdog log over the recorded series
    /// (`sessions` is the lock-wait budget denominator). The replay is
    /// deterministic bookkeeping over already-closed windows; empty
    /// when the series was not recorded.
    pub fn alerts(&self, sessions: u32) -> Vec<AlertEvent> {
        if self.series.is_empty() {
            return Vec::new();
        }
        let cfg = WatchdogConfig::new(self.series.window_ns, sessions);
        run_over(cfg, &self.series, None)
    }

    /// Attach the bundle as the report's plane sections — the flagship
    /// run only; per-row planes would multiply report size without
    /// adding a claim. A plane that recorded nothing gets no section;
    /// the alert log always has one, empty or not.
    pub fn attach(&self, rep: &mut Report, makespan_ns: u64, sessions: u32) {
        if !self.series.is_empty() {
            rep.section(Section::Timeseries, series_json(&self.series, makespan_ns));
        }
        rep.section(Section::Alerts, alerts_json(&self.alerts(sessions)));
        if !self.forensics.is_empty() {
            rep.section(Section::Forensics, forensics_json(&self.forensics));
        }
    }

    /// Compact sparkline of the windowed commit rate (empty when the
    /// series was not recorded).
    pub fn tps_sparkline(&self, max_chars: usize) -> String {
        sparkline(&self.series.rate_per_sec(Metric::Commits), max_chars)
    }
}
