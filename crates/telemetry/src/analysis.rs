//! SLO/recovery analysis over a windowed series.
//!
//! The point of time-resolved metrics is that recovery claims stop
//! being hand-derived from ad-hoc timestamps: given a
//! [`SeriesSnapshot`] and the virtual instant a fault fired, this
//! module *computes* the facts the paper's availability argument needs
//! — steady-state baseline, dip depth, time-to-detection and
//! time-to-recovery (first window back within a fraction of baseline).
//! Everything runs on
//! per-window commit rates, so the answers are byte-reproducible
//! whenever the series is.
//!
//! Timing convention: a window's behaviour is only known once the
//! window closes, so both detection and recovery are reported as that
//! window's *end* minus the fault instant — the moment a monitor
//! watching the series could have raised (or cleared) the alarm.

use crate::json::Json;
use crate::timeseries::{Metric, SeriesSnapshot};

/// Recovery facts computed from a series around one fault instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryFacts {
    /// Mean commit rate over the complete windows before the fault,
    /// commits per virtual second.
    pub baseline_tps: f64,
    /// Worst windowed commit rate at/after the fault.
    pub dip_tps: f64,
    /// Fraction of baseline throughput lost at the worst window
    /// (`1 - dip/baseline`, clamped to `[0, 1]`).
    pub dip_depth: f64,
    /// Virtual ns from the fault until the first window whose rate fell
    /// below the threshold closed (`None`: throughput never dipped).
    pub time_to_detection_ns: Option<u64>,
    /// Virtual ns from the fault until the first post-detection window
    /// back within the threshold closed. `Some(0)` when throughput
    /// never dipped; `None` when it dipped and never came back.
    pub time_to_recovery_ns: Option<u64>,
}

/// Compute the full recovery story around one fault instant: the
/// whole-run case of [`recovery_facts_between`]. `frac` is the SLO
/// fraction of baseline (0.9 = "within 10%").
///
/// The final window is excluded from the dip, detection and recovery
/// scans: it is usually partial (the run rarely ends on a window
/// boundary), and a truncated window would fake a terminal dip.
pub fn recovery_facts(s: &SeriesSnapshot, fault_ns: u64, frac: f64) -> RecoveryFacts {
    recovery_facts_between(s, fault_ns, frac, 0, u64::MAX)
}

/// [`recovery_facts`] for a series whose traffic regime changes over
/// the run (membership churn: sessions join and leave). The baseline
/// is the mean rate over the complete windows inside
/// `[regime_start_ns, fault_ns)` — not the whole prefix — and the
/// dip/detection/recovery scan stops at `regime_end_ns`, so windows
/// from a different session count can neither dilute the baseline nor
/// register as a fake dip or a fake failure to recover. A series with
/// no windows never dipped.
pub fn recovery_facts_between(
    s: &SeriesSnapshot,
    fault_ns: u64,
    frac: f64,
    regime_start_ns: u64,
    regime_end_ns: u64,
) -> RecoveryFacts {
    if s.window_ns == 0 {
        return RecoveryFacts { time_to_recovery_ns: Some(0), ..RecoveryFacts::default() };
    }
    let w = s.window_ns;
    let rates = s.rate_per_sec(Metric::Commits);
    // First window fully inside the regime, first window at the fault,
    // and the scan cap: the window holding the regime end is partial
    // (mixed session counts) and the final window is usually truncated,
    // so both are excluded.
    let b0 = (regime_start_ns.div_ceil(w) as usize).min(s.len());
    let b1 = ((fault_ns / w) as usize).min(s.len());
    let scan_end = ((regime_end_ns / w) as usize).min(rates.len().saturating_sub(1));
    let baseline = if b1 > b0 {
        let commits: u64 = (b0..b1).map(|i| s.get(i, Metric::Commits)).sum();
        commits as f64 * 1e9 / ((b1 - b0) as u64 * w) as f64
    } else {
        0.0
    };
    let first = b1;
    let dip_tps = if first < scan_end {
        rates[first..scan_end].iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        baseline
    };
    let dip_depth = if baseline > 0.0 {
        (1.0 - dip_tps / baseline).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let detect = (baseline > 0.0)
        .then(|| (first..scan_end).find(|&i| rates[i] < frac * baseline))
        .flatten();
    let time_to_detection_ns =
        detect.map(|i| s.window_start_ns(i + 1).saturating_sub(fault_ns));
    let time_to_recovery_ns = match detect {
        None => Some(0),
        Some(d) => ((d + 1)..scan_end)
            .find(|&i| rates[i] >= frac * baseline)
            .map(|i| s.window_start_ns(i + 1).saturating_sub(fault_ns)),
    };
    RecoveryFacts {
        baseline_tps: baseline,
        dip_tps,
        dip_depth,
        time_to_detection_ns,
        time_to_recovery_ns,
    }
}

/// Incremental mean over observed per-window rates — the streaming
/// form of [`RecoveryFacts::baseline_tps`] for monitors that see
/// windows one at a time. The caller decides *which* windows feed the
/// baseline (the watchdog skips windows it judged to be in breach, so a
/// long dip cannot drag the reference down and mask itself).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RollingBaseline {
    sum: f64,
    n: u64,
}

impl RollingBaseline {
    /// An empty baseline (mean 0 until something is observed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one per-window rate.
    pub fn observe(&mut self, rate: f64) {
        self.sum += rate;
        self.n += 1;
    }

    /// Windows observed so far.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Mean of the observed rates (0.0 when nothing was observed).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Render `vals` as a compact sparkline of at most `max_chars` block
/// characters, scaled from 0 to the series maximum. Longer series are
/// bucket-averaged down, so the curve's shape survives compression.
pub fn sparkline(vals: &[f64], max_chars: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if vals.is_empty() || max_chars == 0 {
        return String::new();
    }
    let buckets = max_chars.min(vals.len());
    let compact: Vec<f64> = (0..buckets)
        .map(|b| {
            let lo = b * vals.len() / buckets;
            let hi = ((b + 1) * vals.len() / buckets).max(lo + 1);
            vals[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let max = compact.iter().copied().fold(0.0f64, f64::max);
    compact
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                LEVELS[0]
            } else {
                let lvl = ((v / max) * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[lvl.min(LEVELS.len() - 1)]
            }
        })
        .collect()
}

/// Gini coefficient of a load vector: 0.0 for perfectly uniform load
/// (including the empty and all-zero vectors), approaching
/// `1 - 1/n` when one node carries everything. Computed as
/// `Σᵢⱼ |xᵢ−xⱼ| / (2·n²·μ)` — permutation-invariant, scale-invariant,
/// and strictly increased by any transfer from a below-mean node to an
/// above-mean node, which is exactly the "placement skew" ordering the
/// advisor optimizes against.
pub fn gini(loads: &[u64]) -> f64 {
    let n = loads.len();
    let total: u128 = loads.iter().map(|&x| x as u128).sum();
    if n < 2 || total == 0 {
        return 0.0;
    }
    // Sort once: Σᵢⱼ|xᵢ−xⱼ| = 2·Σᵢ (2i+1−n)·x₍ᵢ₎ over ascending x₍ᵢ₎.
    let mut sorted: Vec<u64> = loads.to_vec();
    sorted.sort_unstable();
    let mut weighted: i128 = 0;
    for (i, &x) in sorted.iter().enumerate() {
        weighted += (2 * i as i128 + 1 - n as i128) * x as i128;
    }
    weighted as f64 / (n as f64 * total as f64)
}

/// Max/mean ratio of a load vector: 1.0 for uniform load, `n` when one
/// node carries everything, 0.0 for empty/all-zero input. The blunter
/// companion to [`gini`] — answers "how much hotter is the hottest node
/// than the average" in one number.
pub fn max_mean_ratio(loads: &[u64]) -> f64 {
    let total: u128 = loads.iter().map(|&x| x as u128).sum();
    if loads.is_empty() || total == 0 {
        return 0.0;
    }
    let max = *loads.iter().max().expect("non-empty") as f64;
    let mean = total as f64 / loads.len() as f64;
    max / mean
}

/// One recommended relocation: move the heat range `range_key` (a
/// [`crate::utilization::heat_key`]) from its current node to a colder
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveRec {
    /// The hot page range, as packed by [`crate::utilization::heat_key`].
    pub range_key: u64,
    /// Node currently serving the range.
    pub src_node: u64,
    /// Recommended destination (the coldest node at decision time).
    pub dst_node: u64,
    /// Remote bytes the range drew, which the plan estimates will
    /// follow it to `dst_node`.
    pub est_bytes: u64,
}

/// A deterministic, typed placement recommendation: the ordered moves
/// plus the imbalance index before and after (projected, under the
/// estimate that each range's load follows it to the destination).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MovePlan {
    /// Moves in recommendation order (hottest range first).
    pub moves: Vec<MoveRec>,
    /// Gini index over node bytes before any move.
    pub index_before: f64,
    /// Projected Gini index after all moves execute.
    pub index_projected: f64,
}

impl MovePlan {
    /// What a move plan that re-renders to itself can still get wrong:
    /// the advisor keeps a move only if it lowers the projected index.
    pub fn violations(&self) -> Vec<String> {
        if self.index_projected > self.index_before {
            return vec![format!(
                "index_projected {} above index_before {}",
                self.index_projected, self.index_before
            )];
        }
        Vec::new()
    }
}

/// The steady-state placement advisor: turn a merged
/// [`crate::utilization::UtilSnapshot`] into a [`MovePlan`] the reshard
/// layer (and the future autoscaler) can execute. Greedy and
/// deterministic: walk the by-bytes heat list hottest-first, and for
/// each range on an above-mean node, project moving it to the currently
/// coldest *other* node (ties broken by lowest node id); keep the move
/// only if the projected [`gini`] strictly drops. At most `max_moves`
/// recommendations.
pub fn placement_advisor(
    snap: &crate::utilization::UtilSnapshot,
    max_moves: usize,
) -> MovePlan {
    let node_bytes = snap.node_bytes();
    let loads: Vec<u64> = node_bytes.iter().map(|&(_, b)| b).collect();
    let index_before = gini(&loads);
    let mut plan = MovePlan {
        moves: Vec::new(),
        index_before,
        index_projected: index_before,
    };
    if node_bytes.len() < 2 {
        return plan;
    }
    let total: u128 = loads.iter().map(|&x| x as u128).sum();
    let mean = total / node_bytes.len() as u128;
    let mut projected = loads;
    for e in snap.heat_bytes.ranked() {
        if plan.moves.len() >= max_moves {
            break;
        }
        let src = crate::utilization::heat_key_node(e.key);
        let Some(si) = node_bytes.iter().position(|&(n, _)| n == src) else {
            continue;
        };
        if (projected[si] as u128) <= mean {
            continue;
        }
        // Coldest other node, lowest id on ties.
        let (di, _) = projected
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != si)
            .min_by_key(|&(i, &b)| (b, node_bytes[i].0))
            .expect("≥2 nodes");
        let shift = e.count.min(projected[si]);
        let mut trial = projected.clone();
        trial[si] -= shift;
        trial[di] += shift;
        let trial_gini = gini(&trial);
        if trial_gini < plan.index_projected {
            plan.moves.push(MoveRec {
                range_key: e.key,
                src_node: src,
                dst_node: node_bytes[di].0,
                est_bytes: e.count,
            });
            projected = trial;
            plan.index_projected = trial_gini;
        }
    }
    plan
}

/// Move plan → deterministic JSON (the `exp_o5` artifact and the
/// autoscaler's future input format).
pub fn move_plan_json(plan: &MovePlan) -> Json {
    Json::obj(vec![
        (
            "moves",
            Json::A(
                plan.moves
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("range_key", Json::U(m.range_key)),
                            ("src_node", Json::U(m.src_node)),
                            ("dst_node", Json::U(m.dst_node)),
                            (
                                "base_offset",
                                Json::U(crate::utilization::heat_key_base_offset(m.range_key)),
                            ),
                            ("est_bytes", Json::U(m.est_bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("index_before", Json::F(plan.index_before)),
        ("index_projected", Json::F(plan.index_projected)),
    ])
}

/// Parse back a [`move_plan_json`] document (validator read side).
pub fn move_plan_from_json(v: &Json) -> Option<MovePlan> {
    let mut moves = Vec::new();
    for m in v.get("moves")?.as_array()? {
        moves.push(MoveRec {
            range_key: m.get("range_key")?.as_u64()?,
            src_node: m.get("src_node")?.as_u64()?,
            dst_node: m.get("dst_node")?.as_u64()?,
            est_bytes: m.get("est_bytes")?.as_u64()?,
        });
    }
    Some(MovePlan {
        moves,
        index_before: v.get("index_before")?.as_f64()?,
        index_projected: v.get("index_projected")?.as_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::SeriesRecorder;
    use crate::utilization::{fold, heat_key, UtilSnapshot, VerbLoad};

    /// 100ns windows: 10 commits/window for 10 windows, a 3-window dip
    /// at 2/window, then back to 10/window, ending with a partial tail.
    fn dipped() -> SeriesSnapshot {
        let r = SeriesRecorder::new();
        r.enable(100);
        for w in 0..20u64 {
            let commits = if (10..13).contains(&w) { 2 } else { 10 };
            r.note(w * 100 + 50, Metric::Commits, commits);
        }
        r.note(2_000, Metric::Commits, 1); // partial final window
        r.snapshot()
    }

    #[test]
    fn baseline_ignores_the_dip_and_partial_windows() {
        let s = dipped();
        let base = recovery_facts(&s, 1_000, 0.9).baseline_tps;
        // 10 commits per 100ns window = 1e8 commits/s.
        assert!((base - 1e8).abs() < 1.0, "baseline {base}");
        assert_eq!(recovery_facts(&s, 0, 0.9).baseline_tps, 0.0);
    }

    #[test]
    fn detection_and_recovery_find_the_documented_windows() {
        let f = recovery_facts(&dipped(), 1_000, 0.9);
        // Fault at 1000ns; window 10 (1000..1100) is the first bad one,
        // known at its close: detection = 1100 - 1000.
        assert_eq!(f.time_to_detection_ns, Some(100));
        // Window 13 (1300..1400) is the first good one again.
        assert_eq!(f.time_to_recovery_ns, Some(400));
        assert!((f.baseline_tps - 1e8).abs() < 1.0);
        assert!((f.dip_tps - 2e7).abs() < 1.0);
        assert!((f.dip_depth - 0.8).abs() < 1e-9);
    }

    #[test]
    fn no_dip_means_zero_recovery_time() {
        let r = SeriesRecorder::new();
        r.enable(100);
        for w in 0..10u64 {
            r.note(w * 100, Metric::Commits, 5);
        }
        let f = recovery_facts(&r.snapshot(), 500, 0.9);
        assert_eq!(f.time_to_detection_ns, None);
        assert_eq!(f.time_to_recovery_ns, Some(0));
        assert_eq!(f.dip_depth, 0.0);
    }

    /// A healthy run that ends mid-window: its truncated final window is
    /// below the threshold, and is no detection.
    #[test]
    fn a_partial_final_window_is_no_detection() {
        let r = SeriesRecorder::new();
        r.enable(100);
        for w in 0..10u64 {
            r.note(w * 100 + 50, Metric::Commits, 10);
        }
        r.note(1_000, Metric::Commits, 1);
        let f = recovery_facts(&r.snapshot(), 500, 0.9);
        assert_eq!(f.time_to_detection_ns, None);
        assert_eq!(f.time_to_recovery_ns, Some(0));
        assert_eq!(f.dip_depth, 0.0);
    }

    /// Three traffic regimes, 100ns windows: 5 commits/window (old
    /// sessions), 20/window after a "join" at 500ns, a 3-window dip to
    /// 14/window after a fault at 1000ns, back to 20/window, then
    /// 5/window again after a "leave" at 2000ns.
    fn churned() -> SeriesSnapshot {
        let r = SeriesRecorder::new();
        r.enable(100);
        for w in 0..25u64 {
            let commits = match w {
                0..=4 => 5,
                10..=12 => 14,
                20..=24 => 5,
                _ => 20,
            };
            r.note(w * 100 + 50, Metric::Commits, commits);
        }
        r.snapshot()
    }

    #[test]
    fn regime_bounds_keep_membership_churn_out_of_the_recovery_story() {
        let s = churned();
        // Whole-series analysis is confounded twice over: the pre-join
        // windows dilute the baseline so the real dip (14/window) never
        // crosses its threshold, and the post-leave regime (5/window)
        // then registers as the "dip" — below threshold to the end of
        // the series, so recovery is never declared.
        let naive = recovery_facts(&s, 1_000, 0.9);
        assert_eq!(naive.time_to_recovery_ns, None);
        // Bounded to the joined regime, the story is exact: baseline
        // 20/window = 2e8, dip 1.4e8, detected at the close of window
        // 10, recovered at the close of window 13.
        let f = recovery_facts_between(&s, 1_000, 0.9, 500, 2_000);
        assert!((f.baseline_tps - 2e8).abs() < 1.0, "baseline {}", f.baseline_tps);
        assert!((f.dip_tps - 1.4e8).abs() < 1.0, "dip {}", f.dip_tps);
        assert!((f.dip_depth - 0.3).abs() < 1e-9);
        assert_eq!(f.time_to_detection_ns, Some(100));
        assert_eq!(f.time_to_recovery_ns, Some(400));
        // No dip inside the regime => Some(0), same contract as the
        // unbounded analysis.
        let calm = recovery_facts_between(&s, 600, 0.9, 500, 900);
        assert_eq!(calm.time_to_recovery_ns, Some(0));
        assert_eq!(calm.dip_depth, 0.0);
    }

    #[test]
    fn degenerate_empty_series_yields_zero_facts_without_panics() {
        let s = SeriesSnapshot::empty();
        assert_eq!(recovery_facts(&s, 1_000, 0.9).baseline_tps, 0.0);
        let f = recovery_facts(&s, 0, 0.9);
        assert_eq!(f.time_to_detection_ns, None);
        // "Never dipped" is the defined answer for a series with no
        // windows — there is nothing below threshold to detect.
        assert_eq!(f.time_to_recovery_ns, Some(0));
        assert_eq!(f.baseline_tps, 0.0);
        assert_eq!(f.dip_depth, 0.0);
    }

    #[test]
    fn degenerate_single_window_series_never_dips() {
        let r = SeriesRecorder::new();
        r.enable(100);
        r.note(50, Metric::Commits, 5);
        let s = r.snapshot();
        // The only window is also the final (possibly partial) one, so
        // the dip scan excludes it and the run reads as healthy.
        let f = recovery_facts(&s, 0, 0.9);
        assert_eq!(f.dip_depth, 0.0);
        assert_eq!(f.time_to_recovery_ns, Some(0));
    }

    #[test]
    fn degenerate_constant_series_has_zero_dip_and_zero_burn() {
        let r = SeriesRecorder::new();
        r.enable(100);
        for w in 0..8u64 {
            r.note(w * 100, Metric::Commits, 7);
        }
        let f = recovery_facts(&r.snapshot(), 400, 0.9);
        assert_eq!(f.time_to_detection_ns, None);
        assert_eq!(f.dip_depth, 0.0);
        assert!((f.dip_tps - f.baseline_tps).abs() < 1e-9);
    }

    #[test]
    fn degenerate_zero_baseline_disables_detection() {
        let r = SeriesRecorder::new();
        r.enable(100);
        r.note(950, Metric::Commits, 1); // nothing before the fault
        let f = recovery_facts(&r.snapshot(), 500, 0.9);
        assert_eq!(f.baseline_tps, 0.0);
        assert_eq!(f.time_to_detection_ns, None);
        assert_eq!(f.time_to_recovery_ns, Some(0));
    }

    #[test]
    fn degenerate_fault_beyond_series_end() {
        let s = dipped();
        let f = recovery_facts(&s, 1 << 40, 0.9);
        assert_eq!(f.time_to_detection_ns, None);
        assert_eq!(f.time_to_recovery_ns, Some(0));
        assert!(f.baseline_tps > 0.0);
    }

    #[test]
    fn rolling_baseline_is_an_incremental_mean() {
        let mut b = RollingBaseline::new();
        assert_eq!(b.mean(), 0.0);
        assert_eq!(b.n(), 0);
        b.observe(10.0);
        b.observe(20.0);
        assert_eq!(b.n(), 2);
        assert!((b.mean() - 15.0).abs() < 1e-12);
        // Matches the batch baseline over the same windows.
        let s = dipped();
        let rates = s.rate_per_sec(Metric::Commits);
        let mut roll = RollingBaseline::new();
        for &r in &rates[..10] {
            roll.observe(r);
        }
        assert!((roll.mean() - recovery_facts(&s, 1_000, 0.9).baseline_tps).abs() < 1e-6);
    }

    #[test]
    fn sparkline_degenerate_inputs() {
        assert_eq!(sparkline(&[], 0), "");
        assert_eq!(sparkline(&[5.0], 0), "");
        assert_eq!(sparkline(&[5.0], 8), "█");
        // Constant non-zero series renders at full scale everywhere.
        assert_eq!(sparkline(&[3.0, 3.0, 3.0], 8), "███");
        // All-zero (flat) series stays at the floor glyph.
        assert_eq!(sparkline(&[0.0; 4], 8), "▁▁▁▁");
        // Negative values clamp to the floor rather than panicking.
        let line = sparkline(&[-1.0, 2.0], 8);
        assert_eq!(line.chars().count(), 2);
        assert!(line.starts_with('▁'));
    }

    #[test]
    fn sparkline_compresses_and_scales() {
        assert_eq!(sparkline(&[], 8), "");
        assert_eq!(sparkline(&[0.0, 0.0], 8), "▁▁");
        let line = sparkline(&[1.0, 8.0, 4.0], 8);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('▄') || line.ends_with('▅'));
        // Longer than max_chars: bucket-averaged down to max_chars.
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(sparkline(&vals, 16).chars().count(), 16);
    }

    #[test]
    fn gini_degenerate_and_reference_values() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[7]), 0.0);
        assert_eq!(gini(&[0, 0, 0]), 0.0);
        assert_eq!(gini(&[5, 5, 5, 5]), 0.0);
        // One of n carries everything: G = 1 - 1/n.
        assert!((gini(&[0, 0, 0, 100]) - 0.75).abs() < 1e-12);
        assert!((gini(&[0, 100]) - 0.5).abs() < 1e-12);
        // Scale invariance.
        assert!((gini(&[1, 2, 3]) - gini(&[100, 200, 300])).abs() < 1e-12);
        // Concentration ordering.
        assert!(gini(&[40, 30, 30]) < gini(&[80, 10, 10]));
    }

    #[test]
    fn max_mean_degenerate_and_reference_values() {
        assert_eq!(max_mean_ratio(&[]), 0.0);
        assert_eq!(max_mean_ratio(&[0, 0]), 0.0);
        assert!((max_mean_ratio(&[5, 5, 5]) - 1.0).abs() < 1e-12);
        assert!((max_mean_ratio(&[0, 0, 30]) - 3.0).abs() < 1e-12);
    }

    /// A READ of `bytes` from `(node, offset)` completing at `end_ns`,
    /// charged `remote_ns`.
    fn read(end_ns: u64, node: u64, offset: u64, bytes: u64, remote_ns: u64) -> VerbLoad {
        VerbLoad { end_ns, node, offset, ingress: false, bytes, remote_ns, queue_ns: 0, phase: 1 }
    }

    #[test]
    fn advisor_moves_heat_off_the_hot_node_and_shrinks_gini() {
        // Node 0 serves two hot 64 KiB ranges; nodes 1 and 2 are cool.
        let mut loads = vec![read(5, 1, 0, 64, 100), read(6, 2, 0, 64, 100)];
        for i in 0..100u64 {
            loads.push(read(i * 10, 0, 0, 64, 100));
            loads.push(read(i * 10 + 1, 0, 1 << 16, 32, 80));
        }
        let plan = placement_advisor(&fold(1_000, &[(0, loads)]), 4);
        assert!(!plan.moves.is_empty());
        assert!(plan.index_projected < plan.index_before);
        let m = &plan.moves[0];
        assert_eq!(m.src_node, 0);
        assert_eq!(m.range_key, heat_key(0, 0));
        assert!(m.dst_node == 1 || m.dst_node == 2);
        // JSON round trip.
        let j = move_plan_json(&plan);
        let back = move_plan_from_json(&Json::parse(&j.render_pretty(2)).unwrap()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn advisor_leaves_uniform_load_alone() {
        let mut loads = Vec::new();
        for node in 0..4u64 {
            for i in 0..50u64 {
                loads.push(read(i * 10 + node, node, i * 8, 64, 100));
            }
        }
        let plan = placement_advisor(&fold(1_000, &[(0, loads)]), 4);
        assert!(plan.moves.is_empty(), "plan: {plan:?}");
        assert_eq!(plan.index_before, plan.index_projected);
        assert!(plan.index_before < 1e-9);
    }

    #[test]
    fn advisor_degenerate_inputs() {
        // Empty snapshot.
        let plan = placement_advisor(&UtilSnapshot::default(), 4);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.index_before, 0.0);
        // Single node: nowhere to move to.
        let one = fold(1_000, &[(0, vec![read(1, 0, 0, 64, 100)])]);
        assert!(placement_advisor(&one, 4).moves.is_empty());
        // max_moves = 0 recommends nothing.
        let two = fold(1_000, &[(0, vec![read(1, 0, 0, 640, 100), read(2, 1, 0, 64, 100)])]);
        assert!(placement_advisor(&two, 0).moves.is_empty());
    }
}
