//! The committed experiment reports are data, not prose: re-running
//! the analysis over the JSON they carry must reproduce the recovery
//! numbers they claim, and every section must parse back and render to
//! the committed bytes. This is the regression tripwire for the
//! series → analysis → report pipeline — if someone edits a committed
//! report by hand, or a renderer or the analysis drifts, this fails —
//! and the proof that the validator still rejects what it used to.

use std::path::Path;

use bench::report::{dir_violations, series_from_json, violations, Section};
use telemetry::{analysis, Json};

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn committed(name: &str) -> Json {
    let text = std::fs::read_to_string(format!("{RESULTS}/{name}"))
        .unwrap_or_else(|e| panic!("committed report {name} must exist: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{name} must parse: {e}"))
}

fn row<'a>(report: &'a Json, label: &str) -> &'a Json {
    match report.get("rows") {
        Some(Json::A(rows)) => rows
            .iter()
            .find(|r| matches!(r.get("label"), Some(Json::S(s)) if s == label))
            .unwrap_or_else(|| panic!("report has no `{label}` row")),
        _ => panic!("report has no rows array"),
    }
}

fn u(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key}")) as u64
}

/// The documented C13 recovery numbers must fall out of the committed
/// series — `time_to_recovery_ns` in the headline is the value
/// `analysis::recovery_facts` computes from the `timeseries` section,
/// not a hand-stated constant.
#[test]
fn c13_recovery_numbers_come_from_its_committed_series() {
    let rep = committed("exp_c13_chaos.json");
    let series = series_from_json(
        rep.get("timeseries").expect("c13 must carry a timeseries section"),
    )
    .expect("timeseries section must round-trip");

    let recovery = row(&rep, "recovery");
    let t_crash = u(recovery, "t_crash_ns");
    let facts = analysis::recovery_facts(&series, t_crash, 0.9);

    assert_eq!(
        facts.time_to_recovery_ns,
        Some(u(recovery, "time_to_recovery_ns")),
        "recomputed time_to_recovery disagrees with the committed report"
    );
    assert_eq!(
        facts.time_to_detection_ns,
        Some(u(recovery, "time_to_detection_ns")),
        "recomputed time_to_detection disagrees with the committed report"
    );
    let committed_depth = recovery
        .get("dip_depth")
        .and_then(Json::as_f64)
        .expect("dip_depth");
    assert!(
        (facts.dip_depth - committed_depth).abs() < 1e-9,
        "recomputed dip_depth {} vs committed {committed_depth}",
        facts.dip_depth
    );
    // And the headline is that same value.
    let headline_ttr = rep
        .get("headline")
        .and_then(|h| h.get("time_to_recovery_ns"))
        .and_then(Json::as_f64)
        .expect("headline time_to_recovery_ns") as u64;
    assert_eq!(facts.time_to_recovery_ns, Some(headline_ttr));
}

/// Each committed C13 detection latency falls out of its committed
/// `alerts` section: for every `detect=<fault>/<rule>` row, the first
/// `open` of the rule at or after `t_fault_ns`, minus `t_fault_ns`.
#[test]
fn c13_detection_latencies_come_from_its_committed_alerts() {
    let rep = committed("exp_c13_chaos.json");
    let events = match rep.get("alerts").and_then(|a| a.get("events")) {
        Some(Json::A(events)) => events,
        _ => panic!("c13 must carry an alerts section"),
    };
    let s = |j: &Json, key: &str| {
        j.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing string field {key}")).to_string()
    };
    let Some(Json::A(rows)) = rep.get("rows") else { panic!("report has no rows array") };
    let detections: Vec<&Json> =
        rows.iter().filter(|r| s(r, "label").starts_with("detect=")).collect();
    assert!(detections.len() >= 3, "only {} detection rows", detections.len());
    for d in detections {
        let (rule, t_fault) = (s(d, "alert"), u(d, "t_fault_ns"));
        let open = events
            .iter()
            .find(|e| s(e, "kind") == rule && s(e, "state") == "open" && u(e, "at_ns") >= t_fault)
            .unwrap_or_else(|| panic!("{}: no open of {rule} at or after {t_fault}", s(d, "label")));
        assert_eq!(
            u(open, "at_ns") - t_fault,
            u(d, "detection_latency_ns"),
            "{}: recomputed detection latency disagrees with the committed row",
            s(d, "label")
        );
    }
}

/// Every file committed under `results/` — the 21 reports, the move
/// plan and `BENCH_summary.json` — passes the validator
/// CI's `check_telemetry` step runs: each section parses back,
/// re-renders to the committed bytes, and violates none of its
/// snapshot's invariants.
#[test]
fn every_committed_file_is_valid() {
    let (files, found) = dir_violations(Path::new(RESULTS));
    assert!(found.is_empty(), "committed results/ is invalid:\n{}", found.join("\n"));
    assert!(files >= 23, "only {files} committed files found");
}

/// The member of `doc` at `path` (`a.b[2].c`; `""` is `doc` itself and
/// a leading `[i]` indexes `doc`).
fn at<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
    let mut cur = doc;
    for step in path.split('.') {
        let (key, idx) = match step.split_once('[') {
            Some((key, idx)) => (key, Some(idx.trim_end_matches(']').parse::<usize>().unwrap())),
            None => (step, None),
        };
        if !key.is_empty() {
            let Json::O(members) = cur else { panic!("{path}: `{key}` is not inside an object") };
            let member = members.iter_mut().find(|(k, _)| k == key);
            cur = &mut member.unwrap_or_else(|| panic!("{path}: no member `{key}`")).1;
        }
        if let Some(i) = idx {
            let Json::A(items) = cur else { panic!("{path}: `{key}` is not an array") };
            cur = items.get_mut(i).unwrap_or_else(|| panic!("{path}: `{key}` has no [{i}]"));
        }
    }
    cur
}

fn num(doc: &mut Json, path: &str) -> i64 {
    at(doc, path).as_i64().unwrap_or_else(|| panic!("{path} is not an integer"))
}

fn int(v: i64) -> Json {
    if v < 0 {
        Json::I(v)
    } else {
        Json::U(v as u64)
    }
}

/// The first member named `key` under `doc` that `pick` accepts, depth
/// first — how a corruption reaches an object embedded in some row.
fn find<'a>(doc: &'a mut Json, key: &str, pick: &dyn Fn(&Json) -> bool) -> Option<&'a mut Json> {
    match doc {
        Json::O(members) => members.iter_mut().find_map(|(k, v)| {
            if k == key && pick(v) {
                Some(v)
            } else {
                find(v, key, pick)
            }
        }),
        Json::A(items) => items.iter_mut().find_map(|v| find(v, key, pick)),
        _ => None,
    }
}

type Corrupt = Box<dyn Fn(&mut Json)>;

/// Add `by` to the integer at `path`.
fn bump(path: &'static str, by: i64) -> Corrupt {
    Box::new(move |d| *at(d, path) = int(num(d, path) + by))
}

/// Overwrite the value at `path`.
fn put(path: &'static str, v: Json) -> Corrupt {
    Box::new(move |d| *at(d, path) = v.clone())
}

/// Make the integer at `path` one more than the integer at `other`.
fn above(path: &'static str, other: &'static str) -> Corrupt {
    Box::new(move |d| *at(d, path) = int(num(d, other) + 1))
}

/// Drop the last element of the array at `path`.
fn pop(path: &'static str) -> Corrupt {
    Box::new(move |d| match at(d, path) {
        Json::A(items) => drop(items.pop()),
        _ => panic!("{path} is not an array"),
    })
}

/// Remove member `key` of the object at `path`, or, with `to`, rename
/// its first member.
fn rekey(path: &'static str, key: &'static str, to: Option<&'static str>) -> Corrupt {
    Box::new(move |d| match (at(d, path), to) {
        (Json::O(members), None) => members.retain(|(k, _)| k != key),
        (Json::O(members), Some(to)) => members[0].0 = to.into(),
        _ => panic!("{path} is not an object"),
    })
}

/// One row per check the validator makes: the text its violation must
/// carry (the section's name and the rule that caught it), and the
/// corruption that must draw it — grouped by the committed report it
/// corrupts, which carries the section (C13 the series, alerts and
/// forensics, E1 the migration counters, O5 utilization; F3, a
/// paper-claim report, carries none).
fn corruptions() -> Vec<(&'static str, Vec<(&'static str, Corrupt)>)> {
    let span = |d: &mut Json, extra: i64| {
        (num(d, "timeseries.windows") + extra) * num(d, "timeseries.window_ns")
    };
    let ranked = |v: &Json| v.as_array().is_some_and(|a| a.len() >= 2);
    let busy = |v: &Json| v.get("execute").and_then(|e| e.get("ns")).and_then(Json::as_u64) > Some(0);
    let c13 = vec![
        // timeseries
        ("timeseries: does not re-render to itself at .window_starts_ns[1]", bump("timeseries.window_starts_ns[1]", 1)),
        ("timeseries: does not parse back", pop("timeseries.metrics.commits")),
        ("timeseries: does not parse back", rekey("timeseries.metrics", "", Some("no_such_metric"))),
        ("timeseries: does not re-render to itself at .totals.commits", bump("timeseries.totals.commits", 1)),
        ("timeseries: does not parse back", rekey("timeseries", "makespan_ns", None)),
        ("do not cover makespan", Box::new(move |d| *at(d, "timeseries.makespan_ns") = int(span(d, 2)))),
        ("overshoot makespan", put("timeseries.makespan_ns", Json::U(0))),
        ("timeseries: 7201 begins but 7200 commits + aborts", bump("timeseries.metrics.begins[1]", 1)),
        // alerts
        ("alerts: does not re-render to itself at .count", bump("alerts.count", 1)),
        ("alerts: events[1].seq = 7", put("alerts.events[1].seq", Json::U(7))),
        ("alerts: events[1].at_ns = 0 goes backwards", put("alerts.events[1].at_ns", Json::U(0))),
        ("is not a window boundary", bump("alerts.events[0].at_ns", 1)),
        ("is not a window boundary within", Box::new(move |d| *at(d, "alerts.events[1].at_ns") = int(span(d, 4)))),
        ("opened twice", Box::new(|d| *at(d, "alerts.events[3].kind") = at(d, "alerts.events[2].kind").clone())),
        ("cleared while not open", put("alerts.events[0].state", Json::S("clear".into()))),
        // forensics
        ("forensics: does not re-render to itself at .total_ns", bump("forensics.total_ns", 1)),
        ("forensics: does not re-render to itself at .critical_path_wire_share", put("forensics.critical_path_wire_share", Json::F(1.5))),
        ("forensics: does not re-render to itself at .blame.lock_wait.share", put("forensics.blame.lock_wait.share", Json::F(1.5))),
        ("forensics: worst[1] not sorted", above("forensics.worst[1].total_ns", "forensics.worst[0].total_ns")),
        ("exemplars exceed reservoir capacity 1", put("forensics.k", Json::U(1))),
        ("exemplars but only 1 transactions", put("forensics.txns", Json::U(1))),
        ("attributed_share = 1.5 outside [0, 1]", put("forensics.worst[0].attributed_share", Json::F(1.5))),
    ];
    let o5 = vec![
        ("utilization: does not re-render to itself at .nodes[0].totals.bytes", bump("utilization.nodes[0].totals.bytes", 1)),
        ("utilization: does not parse back", pop("utilization.nodes[0].verbs")),
        ("exceeds capacity", above("utilization.nodes[0].allocated_bytes", "utilization.nodes[0].capacity_bytes")),
        // A ranked list out of order, and one naming a key twice.
        ("utilization: does not re-render to itself at .heat.by_bytes[0].key", above("utilization.heat.by_bytes[1].count", "utilization.heat.by_bytes[0].count")),
        ("utilization: does not re-render to itself at .by_session: [3 items]", Box::new(|d| {
            *at(d, "utilization.by_session[1].session") = int(num(d, "utilization.by_session[0].session"))
        })),
        ("utilization: does not re-render to itself at .imbalance.gini_bytes", put("utilization.imbalance.gini_bytes", Json::F(1.5))),
    ];
    // A ranked list embedded in a row: O1 is the report whose rows wait
    // on locks (transactions in F3 start one at a time and never do).
    let o1 = vec![
        ("contention: does not re-render to itself at .top_wait_ns[0]", Box::new(move |d: &mut Json| {
            let list = find(d, "top_wait_ns", &ranked).expect("a row with two ranked waits");
            above("[1].count", "[0].count")(list)
        }) as Corrupt),
    ];
    let f3 = vec![
        // contention and phases objects embedded in rows
        ("contention: does not re-render to itself at .wait_for.max_depth", Box::new(|d: &mut Json| {
            bump("wait_for.max_depth", 7)(find(d, "contention", &|_| true).expect("a contention object"))
        }) as Corrupt),
        ("phases: does not re-render to itself at .execute.share", Box::new(move |d| {
            // Nine tenths of one share: the shares no longer sum to 1.
            let phases = find(d, "phases", &busy).expect("a phases object with time in it");
            let share = at(phases, "execute.share").as_f64().unwrap();
            *at(phases, "execute.share") = Json::F(share * 0.9)
        })),
        // the document itself
        ("headline has p99_ns but no p999_ns", rekey("headline", "p999_ns", None)),
        ("headline has p99_ns but no max_ns", rekey("headline", "max_ns", None)),
        ("no rows", put("rows", Json::A(Vec::new()))),
        ("missing \"title\"", rekey("", "title", None)),
    ];
    // The migration begins a fifth into the run: nothing can end first.
    let e1 = vec![
        ("timeseries: migrations in flight dip to -1 in window 0", bump("timeseries.metrics.migrations_ended[0]", 1)),
    ];
    vec![
        ("exp_c13_chaos.json", c13),
        ("exp_e1_reshard.json", e1),
        ("exp_o5_heatmap.json", o5),
        ("exp_o1_contention.json", o1),
        ("exp_f3_architectures.json", f3),
    ]
}

/// The validator keeps every check the hand-written walkers made: each
/// corruption of a committed report yields a violation naming the
/// section and the rule, and the untouched report yields none.
#[test]
fn every_corruption_of_a_committed_report_is_rejected() {
    for (report, rows) in corruptions() {
        let clean = committed(report);
        let found = violations(&clean);
        assert_eq!(found, Vec::<String>::new(), "the untouched {report} must be valid");
        for (needle, corrupt) in rows {
            let mut doc = clean.clone();
            corrupt(&mut doc);
            let found = violations(&doc);
            assert!(
                found.iter().any(|v| v.contains(needle)),
                "{report}: corruption expecting `{needle}` yielded {found:?}"
            );
        }
    }
}

/// Sections are optional (schema v7): a paper-claim report carries no
/// plane section and is valid as it stands.
#[test]
fn a_paper_claim_report_without_plane_sections_is_valid() {
    let f3 = committed("exp_f3_architectures.json");
    for s in Section::ALL {
        assert!(f3.get(s.key()).is_none(), "F3 carries a `{}` section", s.key());
    }
    assert_eq!(violations(&f3), Vec::<String>::new());
}

/// The checks that need the file system: a report named after another
/// experiment, an artifact that is not what its suffix says, a summary
/// entry without a report file, and a directory with no report at all.
#[test]
fn misnamed_and_orphaned_files_are_rejected() {
    let dir = std::env::temp_dir().join(format!("bench-validator-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    assert!(dir_violations(&dir).1.iter().any(|v| v.contains("no exp_*.json reports")));

    let copy = |from: &str, to: &str| {
        std::fs::copy(format!("{RESULTS}/{from}"), dir.join(to)).unwrap();
    };
    copy("exp_c4_timestamps.json", "exp_c4_timestamps.json");
    copy("exp_o5_heatmap_moveplan.json", "exp_o5_heatmap_moveplan.json");
    let summary = |names: &[&str]| {
        let entries = names.iter().map(|n| (*n, Json::obj(vec![("tps", Json::F(1.0))]))).collect();
        let doc = Json::obj(vec![("experiments", Json::obj(entries))]);
        std::fs::write(dir.join("BENCH_summary.json"), doc.render_pretty(2)).unwrap();
    };
    summary(&["exp_c4_timestamps"]);
    assert_eq!(dir_violations(&dir), (3, vec![]), "the copies are valid as they stand");

    summary(&["exp_c4_timestamps", "exp_gone"]);
    copy("exp_c4_timestamps.json", "exp_c5_buffer_policies.json");
    copy("exp_c4_timestamps.json", "exp_x_moveplan.json");
    std::fs::write(dir.join("exp_x_trace.json"), "{\"traceEvents\": []}").unwrap();
    let found = dir_violations(&dir).1;
    for needle in [
        "exp_c5_buffer_policies.json: experiment Some(\"exp_c4_timestamps\") does not match the file name",
        "exp_x_moveplan.json: does not parse back",
        "exp_x_trace.json: no traceEvents",
        "BENCH_summary.json: entry \"exp_gone\" has no report file",
    ] {
        assert!(found.iter().any(|v| v.contains(needle)), "expected `{needle}` in {found:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
