//! `compare <a.json> <b.json>`: one row per (metric, workload) of two
//! result sets written by `all`.

use telemetry::Json;

use crate::metrics::{Clock, END_TO_END, PER_LAYER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// One side's repetitions do not resolve the metric to within the
    /// bound (its two best disagree by more), so it cannot show a change
    /// of that size either way.
    Unresolved,
    /// A sim-clock value differs between two sets said to be the same
    /// build and seed.
    Changed,
    /// A layer metric: shown, not judged.
    Info,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
            Verdict::Info => "-",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Changed)
    }
}

/// Share by which `b` is worse than `a` (negative when better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    let change = (b - a) / a.abs();
    // `+ 0.0` turns the -0.0 of an unchanged higher-is-better metric into 0.0.
    if higher_is_better {
        -change + 0.0
    } else {
        change
    }
}

/// Judge one end-to-end metric.
pub fn judge(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by(a, b, higher_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

struct Run<'a> {
    workload: &'a str,
    traced: bool,
    doc: &'a Json,
}

fn runs(set: &Json) -> Vec<Run<'_>> {
    set.get("runs")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|doc| {
            Some(Run {
                workload: doc.get("workload")?.as_str()?,
                traced: doc.get("trace")?.as_u64()? == 1,
                doc,
            })
        })
        .collect()
}

fn number(doc: &Json, section: &str, name: &str) -> Option<f64> {
    doc.get(section)?.get(name)?.as_f64()
}

/// Print the comparison; returns whether anything failed.
pub fn compare(a: &Json, b: &Json, same_build: bool) -> bool {
    let mut failed = false;
    println!(
        "{:<40} {:<12} {:>16} {:>16} {:>9} {:>7}  verdict",
        "metric", "workload", "a", "b", "worse by", "bound"
    );
    for ra in runs(a) {
        let Some(rb) = runs(b)
            .into_iter()
            .find(|r| r.workload == ra.workload && r.traced == ra.traced)
        else {
            println!(
                "{:<40} {:<12} missing from the second set",
                "-", ra.workload
            );
            failed = true;
            continue;
        };
        let hash = |r: &Run| {
            r.doc
                .get("stream_hash")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if same_build && hash(&ra) != hash(&rb) {
            println!(
                "{:<40} {:<12} the two sets ran different inputs",
                "op-stream hash", ra.workload
            );
            failed = true;
        }
        let mut row = |name: &str, clock: Clock, higher: bool, bound: Option<f64>| {
            let (Some(x), Some(y)) = (
                number(ra.doc, "metrics", name),
                number(rb.doc, "metrics", name),
            ) else {
                return;
            };
            let spread = number(ra.doc, "rep_spread", name)
                .unwrap_or(0.0)
                .max(number(rb.doc, "rep_spread", name).unwrap_or(0.0));
            let verdict = if same_build && clock == Clock::Sim && x != y {
                Verdict::Changed
            } else {
                bound.map_or(Verdict::Info, |bound| judge(x, y, higher, bound, spread))
            };
            failed |= verdict.fails();
            println!(
                "{:<40} {:<12} {:>16.4} {:>16.4} {:>8.2}% {:>7}  {}",
                name,
                ra.workload,
                x,
                y,
                worse_by(x, y, higher) * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0)),
                verdict.name()
            );
        };
        if ra.traced {
            for m in &PER_LAYER {
                row(m.name, m.clock, m.higher_is_better, None);
            }
        } else {
            for m in &END_TO_END {
                row(m.name, m.clock, m.higher_is_better, Some(m.bound));
            }
        }
        let failures = |r: &Run| r.doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if failures(&rb) > failures(&ra) {
            println!(
                "{:<40} {:<12} {} -> {} failed operations",
                "failed",
                ra.workload,
                failures(&ra),
                failures(&rb)
            );
            failed = true;
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, false), 0.0);
    }

    #[test]
    fn verdicts() {
        // 4 % slower against a 10 % bound with quiet repetitions.
        assert_eq!(judge(100.0, 96.0, true, 0.10, 0.03), Verdict::Ok);
        assert_eq!(judge(100.0, 85.0, true, 0.10, 0.03), Verdict::Regressed);
        // Repetitions 25 % apart cannot resolve a 10 % bound.
        assert_eq!(judge(100.0, 85.0, true, 0.10, 0.25), Verdict::Unresolved);
        // Better is never a regression.
        assert_eq!(judge(3.5, 3.1, false, 0.005, 0.0), Verdict::Ok);
        assert_eq!(judge(3.5, 3.6, false, 0.005, 0.0), Verdict::Regressed);
    }

    #[test]
    fn same_build_flags_any_sim_difference() {
        let set = |tps: f64| {
            Json::obj(vec![(
                "runs",
                Json::A(vec![Json::obj(vec![
                    ("workload", Json::S("fit_read".into())),
                    ("trace", Json::U(0)),
                    ("failed", Json::U(0)),
                    ("stream_hash", Json::S("abc".into())),
                    (
                        "metrics",
                        Json::obj(vec![
                            ("sim_tps", Json::F(tps)),
                            ("host_txn_per_s", Json::F(1e5)),
                        ]),
                    ),
                    ("rep_spread", Json::obj(vec![])),
                ])]),
            )])
        };
        assert!(!compare(&set(342_299.8), &set(342_299.8), true));
        assert!(compare(&set(342_299.8), &set(342_299.7), true));
        // Within the bound and not claimed to be the same build: fine.
        assert!(!compare(&set(342_299.8), &set(342_299.7), false));
    }
}
