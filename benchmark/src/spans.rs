//! The benchmark's own spans: recorded in memory around calls into the
//! system, written out when the repetition ends.
//!
//! Every span carries both clocks — host ns since the repetition's epoch
//! and the session's virtual ns — so one trace answers "where did the
//! simulator spend wall time" and "where did the model spend its time".

use std::path::Path;

use telemetry::Json;

/// Spans written in full to a trace file; the rest are aggregated.
pub const FULL_SPANS: usize = 10_000;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_host_ns: u64,
    pub end_host_ns: u64,
    pub start_sim_ns: u64,
    pub end_sim_ns: u64,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one logical txn (0 = none).
    pub txn: u64,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.end_host_ns - self.start_host_ns
    }
}

/// Self time of `spans[idx]` on the host clock: its duration minus the
/// part of its interval that its direct children cover. Children are
/// clipped to the parent and overlapping children are counted once.
pub fn self_host_ns(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| {
            (
                s.start_host_ns
                    .clamp(parent.start_host_ns, parent.end_host_ns),
                s.end_host_ns
                    .clamp(parent.start_host_ns, parent.end_host_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_host_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.host_ns() - covered
}

/// Self time of a ladder rung: its cost per call minus `calls x cost` of
/// each lower rung it is known to call. Negative when the lower rungs,
/// measured alone, cost more than they do inside the composite call.
pub fn rung_self_ns(total: f64, children: &[(f64, f64)]) -> f64 {
    total
        - children
            .iter()
            .map(|(calls, cost)| calls * cost)
            .sum::<f64>()
}

fn span_json(s: &Span) -> Json {
    Json::obj(vec![
        ("name", Json::S(s.name.to_string())),
        ("start_host_ns", Json::U(s.start_host_ns)),
        ("end_host_ns", Json::U(s.end_host_ns)),
        ("start_sim_ns", Json::U(s.start_sim_ns)),
        ("end_sim_ns", Json::U(s.end_sim_ns)),
        ("parent", s.parent.map_or(Json::Null, |p| Json::U(p as u64))),
        ("txn", Json::U(s.txn)),
    ])
}

/// Write `spans` as `{spans: [first FULL_SPANS], rest: {count, host_ns,
/// sim_ns}, root_self_host_ns}`.
pub fn write_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let (full, rest) = spans.split_at(spans.len().min(FULL_SPANS));
    let doc = Json::obj(vec![
        ("spans", Json::A(full.iter().map(span_json).collect())),
        (
            "rest",
            Json::obj(vec![
                ("count", Json::U(rest.len() as u64)),
                ("host_ns", Json::U(rest.iter().map(Span::host_ns).sum())),
                (
                    "sim_ns",
                    Json::U(rest.iter().map(|s| s.end_sim_ns - s.start_sim_ns).sum()),
                ),
            ]),
        ),
        (
            "root_self_host_ns",
            Json::U(if spans.is_empty() {
                0
            } else {
                self_host_ns(spans, 0)
            }),
        ),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render_pretty(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_host_ns: start,
            end_host_ns: end,
            start_sim_ns: 0,
            end_sim_ns: 0,
            parent,
            txn: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(100, 1_100, None),
            span(200, 400, Some(0)),
            span(600, 900, Some(0)),
            span(650, 700, Some(2)), // grandchild: not the root's child
        ];
        assert_eq!(self_host_ns(&spans, 0), 1_000 - 200 - 300);
        assert_eq!(self_host_ns(&spans, 2), 300 - 50);
        assert_eq!(self_host_ns(&spans, 1), 200);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(1_000, 2_000, None),
            span(1_100, 1_500, Some(0)),
            span(1_400, 1_700, Some(0)), // overlaps the first by 100
            span(1_900, 2_300, Some(0)), // overhangs the parent by 300
        ];
        // Covered: [1100, 1700) and [1900, 2000) = 700.
        assert_eq!(self_host_ns(&spans, 0), 300);
    }

    #[test]
    fn rung_self_time_is_total_minus_called_rungs() {
        // A 2PL RMW that calls one lock pair, one read and one write.
        let s = rung_self_ns(900.0, &[(1.0, 450.0), (1.0, 200.0), (1.0, 180.0)]);
        assert!((s - 70.0).abs() < 1e-9);
        // Two replica writes under one dsm write.
        assert!((rung_self_ns(260.0, &[(2.0, 100.0)]) - 60.0).abs() < 1e-9);
    }
}
