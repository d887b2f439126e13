//! Machine-readable experiment reports.
//!
//! Every `exp_*` binary builds one [`Report`] — config in `meta`, one
//! entry per table row in `rows`, and a small `headline` of the metrics
//! worth tracking across PRs — then calls [`Report::write`]. That emits
//! `results/<experiment>.json` and folds the headline into the repo-wide
//! `BENCH_summary.json`, which maps experiment name → headline and is
//! kept sorted by name so the file is diffable and independent of the
//! order experiments were run in. Nothing here consults wall-clock time:
//! identical runs produce byte-identical files.
//!
//! The same module validates what it writes ([`violations`]): each
//! snapshot type owns its renderer, its parser and a `violations()`
//! list, and a section is valid iff it parses back, re-renders to the
//! bytes it was read from, and violates nothing ([`check`]). A field
//! added to a renderer is thereby validated with no further edit.

use std::path::Path;

use crate::contention::ContentionSnapshot;
use crate::forensics::forensics_from_json;
use crate::hist::HistSnapshot;
use crate::json::Json;
use crate::live::{Gauge, HealthSnapshot};
use crate::span::{bucket_name, PhaseSnapshot, OTHER_BUCKET};
use crate::timeseries::{Metric, SeriesSnapshot};
use crate::utilization::{utilization_from_json, utilization_json, UtilSnapshot};
use crate::watchdog::{log_violations, AlertEvent, AlertKind, AlertState};

/// Schema version stamped into every report, bumped on breaking changes.
/// v2 added the `timeseries` section, v3 `health` and `alerts`, v4
/// `forensics`, v5 `utilization` — see [`Section`]; v6 dropped `err` from
/// every ranked list, whose counts became exact; v7 made every section
/// optional.
pub const SCHEMA_VERSION: u64 = 7;

/// The plane sections a report may carry between `rows` and `headline`,
/// in document order: exactly those its experiment attached. Each is
/// rendered from one snapshot type by one function and validated by one
/// rule ([`Section::violations`]): the renderer is the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// [`series_json`]: per-window metric counts on the virtual clock.
    Timeseries,
    /// [`health_json`]: windowed gauge deltas and their levels.
    Health,
    /// [`alerts_json`]: the watchdog's typed open/clear log.
    Alerts,
    /// [`forensics_json`](crate::forensics::forensics_json): blame
    /// histogram plus worst-K exemplars.
    Forensics,
    /// [`utilization_json`]: per-memory-node load, heat lists, splits
    /// and imbalance indices.
    Utilization,
}

impl Section {
    /// Every section, in document order.
    pub const ALL: [Section; 5] = [
        Section::Timeseries,
        Section::Health,
        Section::Alerts,
        Section::Forensics,
        Section::Utilization,
    ];

    /// The report member the section is stored under.
    pub fn key(self) -> &'static str {
        match self {
            Section::Timeseries => "timeseries",
            Section::Health => "health",
            Section::Alerts => "alerts",
            Section::Forensics => "forensics",
            Section::Utilization => "utilization",
        }
    }

    /// Why `section` is not a valid section of this kind (empty when
    /// it is). `span` is the report's sampled `(window_ns, span_ns)`,
    /// which bounds where an alert may sit.
    pub fn violations(self, section: &Json, span: Option<(u64, u64)>) -> Vec<String> {
        match self {
            Section::Timeseries => {
                let makespan = section.get("makespan_ns").and_then(Json::as_u64);
                let parsed = makespan.and_then(|_| series_from_json(section));
                let makespan = makespan.unwrap_or(0);
                check(section, parsed, |s| series_json(s, makespan), |s| s.violations(makespan))
            }
            Section::Health => check(section, health_from_json(section), health_json, HealthSnapshot::violations),
            Section::Alerts => {
                check(section, alerts_from_json(section), |e| alerts_json(e), |e| log_violations(e, span))
            }
            Section::Forensics => {
                check(section, forensics_from_json(section), |f| f.rerender(section), |f| f.violations())
            }
            Section::Utilization => {
                check(section, utilization_from_json(section), utilization_json, UtilSnapshot::violations)
            }
        }
    }
}

/// The one validity rule for anything a snapshot renders: it parses
/// back, the parsed snapshot renders to the bytes it was read from (so
/// every derived member — totals, levels, counts, shares, indices —
/// agrees with the data beside it), and the snapshot reports no
/// violations of its own.
pub fn check<T>(
    rendered: &Json,
    parsed: Option<T>,
    render: impl FnOnce(&T) -> Json,
    violations: impl FnOnce(&T) -> Vec<String>,
) -> Vec<String> {
    let Some(t) = parsed else {
        return vec!["does not parse back (unknown name, wrong array length or missing member)".into()];
    };
    let mut out = violations(&t);
    if let Some(at) = render(&t).first_difference(rendered) {
        out.push(format!("does not re-render to itself at {at}"));
    }
    out
}

/// Why `report` is not a valid report document (empty when it is):
/// the fixed members, non-empty `rows`, every [`Section`] it carries
/// valid, every embedded `phases` and `contention` object valid, and a headline
/// that carries `p99_ns` also carrying the `p999_ns` / `max_ns` rungs
/// the forensics section explains. Each message names its section.
pub fn violations(report: &Json) -> Vec<String> {
    let mut out = Vec::new();
    for key in ["schema_version", "experiment", "title", "rows"] {
        if report.get(key).is_none() {
            out.push(format!("missing \"{key}\""));
        }
    }
    if report.get("rows").and_then(Json::as_array).is_none_or(|r| r.is_empty()) {
        out.push("no rows".into());
    }
    let span = report.get("timeseries").map(|ts| {
        let field = |k| ts.get(k).and_then(Json::as_u64).unwrap_or(0);
        (field("window_ns"), field("windows") * field("window_ns"))
    });
    for s in Section::ALL {
        if let Some(section) = report.get(s.key()) {
            let found = s.violations(section, span);
            out.extend(found.into_iter().map(|v| format!("{}: {v}", s.key())));
        }
    }
    embedded_violations("$", report, &mut out);
    if let Some(headline) = report.get("headline").filter(|h| h.get("p99_ns").is_some()) {
        for key in ["p999_ns", "max_ns"] {
            if headline.get(key).is_none() {
                out.push(format!("headline has p99_ns but no {key} (tail rungs are mandatory)"));
            }
        }
    }
    out
}

/// Validate every `phases` and `contention` object anywhere under `v`
/// (rows and headlines embed them; so does `BENCH_summary.json`).
pub fn embedded_violations(ctx: &str, v: &Json, out: &mut Vec<String>) {
    match v {
        Json::O(members) => {
            for (key, member) in members {
                let found = match key.as_str() {
                    "phases" => check(member, phases_from_json(member), phases_json, |_| Vec::new()),
                    "contention" => check(
                        member,
                        ContentionSnapshot::from_json(member),
                        ContentionSnapshot::to_json,
                        |_| Vec::new(),
                    ),
                    _ => Vec::new(),
                };
                out.extend(found.into_iter().map(|f| format!("{ctx}.{key}: {f}")));
                embedded_violations(&format!("{ctx}.{key}"), member, out);
            }
        }
        Json::A(items) => {
            for (i, item) in items.iter().enumerate() {
                embedded_violations(&format!("{ctx}[{i}]"), item, out);
            }
        }
        _ => {}
    }
}

/// One experiment's machine-readable output.
#[derive(Debug, Clone)]
pub struct Report {
    experiment: String,
    title: String,
    meta: Vec<(String, Json)>,
    rows: Vec<Json>,
    /// Attached sections, indexed by [`Section`].
    sections: [Option<Json>; Section::ALL.len()],
    headline: Vec<(String, Json)>,
}

impl Report {
    /// Start a report; `experiment` becomes the JSON file stem (use the
    /// binary name, e.g. `"exp_c1_cache_ratio"`).
    pub fn new(experiment: &str, title: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            title: title.to_string(),
            meta: Vec::new(),
            rows: Vec::new(),
            sections: Default::default(),
            headline: Vec::new(),
        }
    }

    /// Attach a config/setup value (node counts, zipf theta, ...).
    pub fn meta(&mut self, key: &str, value: Json) -> &mut Self {
        self.meta.push((key.to_string(), value));
        self
    }

    /// Append one sweep point. `label` names the row (e.g. `"cache=0.20"`);
    /// `metrics` are its measured values.
    pub fn row(&mut self, label: &str, metrics: Vec<(&str, Json)>) -> &mut Self {
        let mut members = vec![("label".to_string(), Json::S(label.to_string()))];
        members.extend(metrics.into_iter().map(|(k, v)| (k.to_string(), v)));
        self.rows.push(Json::O(members));
        self
    }

    /// Set a headline metric — the cross-PR trajectory lives on these.
    pub fn headline(&mut self, key: &str, value: Json) -> &mut Self {
        self.headline.push((key.to_string(), value));
        self
    }

    /// Install the flagship run's `rendered` section of kind `which`
    /// (one run per report — per-row sections would multiply report
    /// size without adding a claim). The last call wins.
    pub fn section(&mut self, which: Section, rendered: Json) -> &mut Self {
        self.sections[which as usize] = Some(rendered);
        self
    }

    /// The full report document: fixed members, then every attached
    /// [`Section`] in order, then the headline.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("schema_version".to_string(), Json::U(SCHEMA_VERSION)),
            ("experiment".to_string(), Json::S(self.experiment.clone())),
            ("title".to_string(), Json::S(self.title.clone())),
            ("meta".to_string(), Json::O(self.meta.clone())),
            ("rows".to_string(), Json::A(self.rows.clone())),
        ];
        for s in Section::ALL {
            if let Some(section) = &self.sections[s as usize] {
                members.push((s.key().to_string(), section.clone()));
            }
        }
        members.push(("headline".to_string(), Json::O(self.headline.clone())));
        Json::O(members)
    }

    /// Write `results_dir/<experiment>.json` and merge the headline into
    /// `summary_path` (created if absent). Returns the report path.
    pub fn write(
        &self,
        results_dir: &Path,
        summary_path: &Path,
    ) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(results_dir)?;
        let path = results_dir.join(format!("{}.json", self.experiment));
        std::fs::write(&path, self.to_json().render_pretty(2))?;
        merge_summary(summary_path, &self.experiment, Json::O(self.headline.clone()))?;
        Ok(path)
    }
}

/// Replace `experiment`'s entry in the summary file, keeping entries
/// from other experiments and sorting by name for run-order independence.
pub fn merge_summary(summary_path: &Path, experiment: &str, headline: Json) -> std::io::Result<()> {
    let mut entries: Vec<(String, Json)> = match std::fs::read_to_string(summary_path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::O(members)) => members
                .into_iter()
                .find(|(k, _)| k == "experiments")
                .and_then(|(_, v)| match v {
                    Json::O(exps) => Some(exps),
                    _ => None,
                })
                .unwrap_or_default(),
            // A corrupt summary is rebuilt rather than propagated.
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    entries.retain(|(k, _)| k != experiment);
    entries.push((experiment.to_string(), headline));
    entries.sort_by(|(a, _), (b, _)| a.cmp(b));
    let doc = Json::obj(vec![
        ("schema_version", Json::U(SCHEMA_VERSION)),
        ("experiments", Json::O(entries)),
    ]);
    std::fs::write(summary_path, doc.render_pretty(2))
}

/// Histogram snapshot → JSON: count, mean, min/max, and the standard
/// percentile ladder, all in virtual nanoseconds.
pub fn hist_json(h: &HistSnapshot) -> Json {
    let (p50, p95, p99, p999) = h.percentiles();
    Json::obj(vec![
        ("count", Json::U(h.count())),
        ("mean_ns", Json::F(h.mean())),
        ("min_ns", Json::U(h.min())),
        ("p50_ns", Json::U(p50)),
        ("p95_ns", Json::U(p95)),
        ("p99_ns", Json::U(p99)),
        ("p999_ns", Json::U(p999)),
        ("max_ns", Json::U(h.max())),
    ])
}

/// Windowed series → the report `timeseries` section. Emits the window
/// geometry with explicit window starts, per-window counts for every
/// metric that fired, and per-metric totals. Starts and totals are
/// derived: a section is valid only if parsing it back and rendering
/// again reproduces them.
pub fn series_json(s: &SeriesSnapshot, makespan_ns: u64) -> Json {
    let starts = Json::A((0..s.len()).map(|i| Json::U(s.window_start_ns(i))).collect());
    let mut metrics = Vec::new();
    let mut totals = Vec::new();
    for m in Metric::ALL {
        let total = s.total(m);
        if total == 0 {
            continue;
        }
        metrics.push((
            m.name().to_string(),
            Json::A(s.series(m).into_iter().map(Json::U).collect()),
        ));
        totals.push((m.name().to_string(), Json::U(total)));
    }
    Json::obj(vec![
        ("window_ns", Json::U(s.window_ns)),
        ("windows", Json::U(s.len() as u64)),
        ("makespan_ns", Json::U(makespan_ns)),
        ("window_starts_ns", starts),
        ("metrics", Json::O(metrics)),
        ("totals", Json::O(totals)),
    ])
}

/// Rebuild a [`SeriesSnapshot`] from a parsed `timeseries` section —
/// the read side of [`series_json`], used by tests and validators that
/// re-run the analysis over committed reports.
pub fn series_from_json(section: &Json) -> Option<SeriesSnapshot> {
    let window_ns = section.get("window_ns")?.as_u64()?;
    let n = section.get("windows")?.as_u64()? as usize;
    let mut windows = vec![[0u64; crate::timeseries::METRICS]; n];
    if let Some(Json::O(members)) = section.get("metrics") {
        for (name, arr) in members {
            let m = Metric::from_name(name)?;
            let counts = arr.as_array()?;
            if counts.len() != n {
                return None;
            }
            for (i, c) in counts.iter().enumerate() {
                windows[i][m as usize] = c.as_u64()?;
            }
        }
    }
    Some(SeriesSnapshot { window_ns, windows })
}

/// Merged gauge plane → the report `health` section. Emits the window
/// geometry, per-window *net deltas* for every gauge that moved (the
/// mergeable encoding), and a per-gauge level summary (final/min/max
/// window-end levels) so readers get levels without redoing the prefix
/// sums.
pub fn health_json(h: &HealthSnapshot) -> Json {
    let mut deltas = Vec::new();
    let mut levels = Vec::new();
    for g in Gauge::ALL {
        if h.deltas(g).iter().all(|&d| d == 0) {
            continue;
        }
        deltas.push((
            g.name().to_string(),
            Json::A(h.deltas(g).into_iter().map(Json::I).collect()),
        ));
        levels.push((
            g.name().to_string(),
            Json::obj(vec![
                ("final", Json::I(h.final_level(g))),
                ("min", Json::I(h.min_level(g))),
                ("max", Json::I(h.max_level(g))),
            ]),
        ));
    }
    Json::obj(vec![
        ("window_ns", Json::U(h.window_ns)),
        ("windows", Json::U(h.len() as u64)),
        ("deltas", Json::O(deltas)),
        ("levels", Json::O(levels)),
    ])
}

/// Rebuild a [`HealthSnapshot`] from a parsed `health` section — the
/// read side of [`health_json`], used by validators.
pub fn health_from_json(section: &Json) -> Option<HealthSnapshot> {
    let window_ns = section.get("window_ns")?.as_u64()?;
    let n = section.get("windows")?.as_u64()? as usize;
    let mut windows = vec![[0i64; crate::live::GAUGES]; n];
    if let Some(Json::O(members)) = section.get("deltas") {
        for (name, arr) in members {
            let g = Gauge::from_name(name)?;
            let deltas = arr.as_array()?;
            if deltas.len() != n {
                return None;
            }
            for (i, d) in deltas.iter().enumerate() {
                windows[i][g as usize] = d.as_i64()?;
            }
        }
    }
    Some(HealthSnapshot { window_ns, windows })
}

/// Watchdog log → the report `alerts` section: the event count and the
/// full typed log in sequence order. Deterministic rendering — same
/// run, byte-identical section.
pub fn alerts_json(events: &[AlertEvent]) -> Json {
    let rendered = events
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("seq", Json::U(e.seq)),
                ("kind", Json::S(e.kind.name().to_string())),
                ("state", Json::S(e.state.name().to_string())),
                ("at_ns", Json::U(e.at_ns)),
                ("value", Json::F(e.value)),
                ("threshold", Json::F(e.threshold)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("count", Json::U(events.len() as u64)),
        ("events", Json::A(rendered)),
    ])
}

/// Rebuild the typed alert log from a parsed `alerts` section — the
/// read side of [`alerts_json`], used by validators.
pub fn alerts_from_json(section: &Json) -> Option<Vec<AlertEvent>> {
    let events = section.get("events")?.as_array()?;
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        let state = match e.get("state")?.as_str()? {
            "open" => AlertState::Open,
            "clear" => AlertState::Clear,
            _ => return None,
        };
        out.push(AlertEvent {
            seq: e.get("seq")?.as_u64()?,
            kind: AlertKind::from_name(e.get("kind")?.as_str()?)?,
            state,
            at_ns: e.get("at_ns")?.as_u64()?,
            value: e.get("value")?.as_f64()?,
            threshold: e.get("threshold")?.as_f64()?,
        });
    }
    Some(out)
}

/// Rebuild a [`PhaseSnapshot`] from a parsed `phases` object — the
/// read side of [`phases_json`]. Shares are ignored on the way in;
/// rendering the result again recomputes them, so a valid object's
/// shares sum to 1 (or are all 0 when no time was tracked).
pub fn phases_from_json(phases: &Json) -> Option<PhaseSnapshot> {
    let mut p = PhaseSnapshot::default();
    for i in 0..=OTHER_BUCKET {
        let bucket = phases.get(bucket_name(i))?;
        p.ns[i] = bucket.get("ns")?.as_u64()?;
        p.verbs[i] = bucket.get("verbs")?.as_u64()?;
        p.wire_rts[i] = bucket.get("wire_rts")?.as_u64()?;
    }
    Some(p)
}

/// Phase snapshot → JSON: per-phase `{ns, share, verbs, wire_rts}` for
/// every bucket (including `other`), shares summing to 1.0.
pub fn phases_json(p: &PhaseSnapshot) -> Json {
    let total = p.total_ns();
    let members = (0..=OTHER_BUCKET)
        .map(|i| {
            let share = if total == 0 {
                0.0
            } else {
                p.ns[i] as f64 / total as f64
            };
            (
                bucket_name(i).to_string(),
                Json::obj(vec![
                    ("ns", Json::U(p.ns[i])),
                    ("share", Json::F(share)),
                    ("verbs", Json::U(p.verbs[i])),
                    ("wire_rts", Json::U(p.wire_rts[i])),
                ]),
            )
        })
        .collect();
    Json::O(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::span::{Phase, PhaseTracker, Sample};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("telemetry-report-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn report_round_trips_and_is_deterministic() {
        let dir = tmpdir("rt");
        let summary = dir.join("BENCH_summary.json");
        let mut r = Report::new("exp_test", "a test");
        r.meta("nodes", Json::U(4));
        r.row("point0", vec![("tps", Json::F(123.5))]);
        r.headline("tps", Json::F(123.5));
        let path = r.write(&dir, &summary).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&first).unwrap();
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("exp_test"));
        assert_eq!(doc.get("rows").unwrap().as_array().unwrap().len(), 1);
        // Identical second write → byte-identical files.
        r.write(&dir, &summary).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_merges_and_sorts() {
        let dir = tmpdir("merge");
        let summary = dir.join("BENCH_summary.json");
        merge_summary(&summary, "exp_b", Json::obj(vec![("tps", Json::U(1))])).unwrap();
        merge_summary(&summary, "exp_a", Json::obj(vec![("tps", Json::U(2))])).unwrap();
        // Overwrite exp_b; exp_a must survive, order must be sorted.
        merge_summary(&summary, "exp_b", Json::obj(vec![("tps", Json::U(3))])).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&summary).unwrap()).unwrap();
        let exps = doc.get("experiments").unwrap();
        match exps {
            Json::O(members) => {
                let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, ["exp_a", "exp_b"]);
            }
            _ => panic!("experiments is not an object"),
        }
        assert_eq!(
            exps.get("exp_b").unwrap().get("tps").unwrap().as_u64(),
            Some(3)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hist_json_has_percentile_ladder() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let j = hist_json(&h.snapshot());
        assert_eq!(j.get("count").unwrap().as_u64(), Some(1000));
        assert!(j.get("p99_ns").unwrap().as_u64().unwrap() >= 970);
    }

    #[test]
    fn series_json_round_trips_and_skips_silent_metrics() {
        use crate::timeseries::{Metric, SeriesRecorder};
        let r = SeriesRecorder::new();
        r.enable(100);
        r.note(50, Metric::Commits, 3);
        r.note(250, Metric::Commits, 1);
        r.note(250, Metric::WireRts, 7);
        let snap = r.snapshot();
        let j = series_json(&snap, 260);
        assert_eq!(j.get("window_ns").unwrap().as_u64(), Some(100));
        assert_eq!(j.get("windows").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("makespan_ns").unwrap().as_u64(), Some(260));
        let starts = j.get("window_starts_ns").unwrap().as_array().unwrap();
        assert_eq!(starts.len(), 3);
        assert_eq!(starts[2].as_u64(), Some(200));
        // Metrics that never fired are omitted.
        assert!(j.get("metrics").unwrap().get("cache_hits").is_none());
        assert_eq!(
            j.get("totals").unwrap().get("commits").unwrap().as_u64(),
            Some(4)
        );
        // Parse side reconstructs the identical snapshot.
        let parsed = Json::parse(&j.render_pretty(2)).unwrap();
        assert_eq!(series_from_json(&parsed), Some(snap));
    }

    #[test]
    fn a_report_carries_exactly_the_sections_attached() {
        let mut r = Report::new("exp_plain", "no plane attached");
        r.row("point0", vec![("tps", Json::F(1.0))]);
        let doc = r.to_json();
        assert_eq!(doc.get("schema_version").unwrap().as_u64(), Some(SCHEMA_VERSION));
        for s in Section::ALL {
            assert!(doc.get(s.key()).is_none(), "{} was never attached", s.key());
        }
        assert_eq!(violations(&doc), Vec::<String>::new());
        // An attached section lands between `rows` and `headline`, and is
        // validated like any other.
        r.section(Section::Alerts, alerts_json(&[]));
        let doc = r.to_json();
        let Json::O(members) = &doc else { unreachable!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["schema_version", "experiment", "title", "meta", "rows", "alerts", "headline"]
        );
        assert_eq!(violations(&doc), Vec::<String>::new());
        let miscounted = Json::obj(vec![("count", Json::U(1)), ("events", Json::A(vec![]))]);
        r.section(Section::Alerts, miscounted);
        assert!(violations(&r.to_json()).iter().any(|v| v.starts_with("alerts: ")));
    }

    #[test]
    fn health_json_round_trips_and_skips_idle_gauges() {
        use crate::live::GaugeRecorder;
        let g = GaugeRecorder::new();
        g.enable(100);
        g.add(10, Gauge::LocksHeld, 1);
        g.add(150, Gauge::LocksHeld, 1);
        g.add(260, Gauge::LocksHeld, -2);
        let snap = g.snapshot();
        let j = health_json(&snap);
        assert_eq!(j.get("window_ns").unwrap().as_u64(), Some(100));
        assert!(j.get("deltas").unwrap().get("pool_resident").is_none());
        let lh = j.get("levels").unwrap().get("locks_held").unwrap();
        assert_eq!(lh.get("final").unwrap().as_i64(), Some(0));
        assert_eq!(lh.get("max").unwrap().as_i64(), Some(2));
        let parsed = Json::parse(&j.render_pretty(2)).unwrap();
        assert_eq!(health_from_json(&parsed), Some(snap));
    }

    #[test]
    fn alerts_json_round_trips_the_typed_log() {
        let events = vec![
            AlertEvent {
                seq: 0,
                kind: AlertKind::ThroughputDip,
                state: AlertState::Open,
                at_ns: 4_096,
                value: 12.5,
                threshold: 50.0,
            },
            AlertEvent {
                seq: 1,
                kind: AlertKind::ThroughputDip,
                state: AlertState::Clear,
                at_ns: 9_216,
                value: 80.0,
                threshold: 50.0,
            },
        ];
        let j = alerts_json(&events);
        assert_eq!(j.get("count").unwrap().as_u64(), Some(2));
        let parsed = Json::parse(&j.render_pretty(2)).unwrap();
        assert_eq!(alerts_from_json(&parsed), Some(events));
    }

    #[test]
    fn phases_json_shares_sum_to_one() {
        let t = PhaseTracker::new();
        t.enter(Phase::PageFetch, Sample { ns: 0, verbs: 0, wire_rts: 0 });
        t.exit(Sample { ns: 70, verbs: 3, wire_rts: 2 });
        t.flush(Sample { ns: 100, verbs: 3, wire_rts: 2 });
        let j = phases_json(&t.snapshot());
        let total: f64 = match &j {
            Json::O(members) => members
                .iter()
                .map(|(_, v)| v.get("share").unwrap().as_f64().unwrap())
                .sum(),
            _ => unreachable!(),
        };
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(
            j.get("page_fetch").unwrap().get("ns").unwrap().as_u64(),
            Some(70)
        );
        assert_eq!(j.get("other").unwrap().get("ns").unwrap().as_u64(), Some(30));
    }
}
