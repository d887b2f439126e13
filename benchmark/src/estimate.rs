//! Estimators shared by every workload and the ladder.
//!
//! Host (wall-clock) numbers on a small shared machine are noisy in one
//! direction: interference only ever makes a slice slower. A repetition is
//! therefore cut into equal-count slices and summarised by the *lower
//! quartile* of slice cost, and a metric by the best repetition. Sim
//! (virtual-time) numbers are exact for a fixed seed, so they only need
//! exact quantiles.

/// Equal-count slices one repetition is cut into.
pub const SLICES: usize = 20;

/// `q`-quantile of an ascending slice by linear interpolation between
/// order statistics (`q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The slice estimator: lower quartile of per-slice cost (ns per txn).
pub fn slice_q1(slice_costs: &[f64]) -> f64 {
    quantile_sorted(&sorted(slice_costs), 0.25)
}

/// `(q3 - q1) / median` of a sample: how well the slices agree.
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let med = quantile_sorted(&s, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    (quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25)) / med
}

/// `(max - min) / min` across repetitions: how well the repetitions agree.
pub fn rep_spread(values: &[f64]) -> f64 {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() || min <= 0.0 {
        return 0.0;
    }
    (max - min) / min
}

/// How far the second-best repetition lies above the best, as a share of
/// the best: whether a best-of estimate has found the machine's quiet
/// floor (two repetitions reached it) or one lucky repetition.
pub fn floor_gap(costs: &[f64]) -> f64 {
    let s = sorted(costs);
    if s.len() < 2 || s[0] <= 0.0 {
        return 0.0;
    }
    (s[1] - s[0]) / s[0]
}

/// Best repetition of a cost (lower is better).
pub fn best_cost(reps: &[f64]) -> f64 {
    reps.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The percentile ladder a tail may be reported at.
pub const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it in a sample of `n` (the median when even p90 does
/// not).
pub fn highest_supported_percentile(n: u64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|p| samples_beyond(n, *p) >= 10)
        .fold(TAIL_LADDER[0], f64::max)
}

/// Samples strictly beyond the `p`-quantile of `n` samples.
pub fn samples_beyond(n: u64, p: f64) -> u64 {
    n - ((p * n as f64).ceil() as u64).min(n)
}

/// `q`-quantile of ascending integer virtual-ns latencies, as the
/// grouped-data quantile with one-ns classes: a value `v` stands for the
/// interval `[v - 0.5, v + 0.5)` and the quantile is interpolated through
/// the run of samples tied at `v`. The result is within half a virtual ns
/// of the plain order statistic, but moves continuously with the sample
/// instead of sticking to one of the few discrete costs the model emits.
pub fn tick_quantile(sorted: &[u32], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).max(f64::MIN_POSITIVE);
    let idx = (rank.ceil() as usize).clamp(1, n) - 1;
    let v = sorted[idx];
    let first = sorted.partition_point(|&x| x < v);
    let tied = sorted.partition_point(|&x| x <= v) - first;
    v as f64 - 0.5 + (rank - first as f64) / tied as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_q1_ignores_slow_outliers() {
        // 15 quiet slices at 100 ns/txn, 5 hit by interference.
        let mut costs = vec![100.0; 15];
        costs.extend([180.0, 250.0, 300.0, 900.0, 2000.0]);
        assert_eq!(slice_q1(&costs), 100.0);
        // The mean would have reported 256.5.
        assert!(costs.iter().sum::<f64>() / 20.0 > 250.0);
    }

    #[test]
    fn slice_q1_interpolates_between_order_statistics() {
        let costs: Vec<f64> = (1..=20).map(f64::from).collect();
        // Position 0.25 * 19 = 4.75 -> between the 5th and 6th values.
        assert!((slice_q1(&costs) - 5.75).abs() < 1e-12);
    }

    #[test]
    fn best_of_three_takes_the_cheapest_repetition() {
        assert_eq!(best_cost(&[412.0, 398.5, 455.0]), 398.5);
        assert!((rep_spread(&[412.0, 398.5, 455.0]) - (455.0 - 398.5) / 398.5).abs() < 1e-12);
        assert_eq!(rep_spread(&[7.0, 7.0, 7.0]), 0.0);
        // Two repetitions near the floor resolve it, however slow the third.
        assert!((floor_gap(&[412.0, 398.5, 455.0]) - 13.5 / 398.5).abs() < 1e-12);
        assert!((floor_gap(&[400.0, 900.0, 404.0]) - 0.01).abs() < 1e-12);
        assert_eq!(floor_gap(&[400.0]), 0.0);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12); // (75 - 25) / 50
        assert_eq!(iqr_share(&[3.0, 3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(10_000, 0.999), 10);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        assert_eq!(highest_supported_percentile(9_999), 0.99);
        assert_eq!(highest_supported_percentile(100_000), 0.9999);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(12), 0.5);
    }

    #[test]
    fn tick_quantile_stays_within_half_a_tick() {
        let mut v: Vec<u32> = Vec::new();
        v.extend(std::iter::repeat_n(100, 60));
        v.extend(std::iter::repeat_n(250, 39));
        v.push(9000);
        for q in [0.01, 0.3, 0.5, 0.6] {
            let x = tick_quantile(&v, q);
            assert!((99.5..=100.5).contains(&x), "q={q} gave {x}");
        }
        let p90 = tick_quantile(&v, 0.9);
        assert!((249.5..=250.5).contains(&p90));
        assert!((8999.5..=9000.5).contains(&tick_quantile(&v, 1.0)));
        // Monotone in q, and continuous inside a run of ties.
        assert!(tick_quantile(&v, 0.3) < tick_quantile(&v, 0.5));
        assert!((tick_quantile(&v, 0.5) - (100.0 - 0.5 + 50.0 / 60.0)).abs() < 1e-9);
    }
}
