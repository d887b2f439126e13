//! Environment knobs shared by every `exp_*` binary, parsed in ONE
//! place so the harnesses agree on spelling and defaults:
//!
//! * `BENCH_SCALE` — divide workload sizes for smoke runs ([`scale`],
//!   [`scale_down`]);
//! * `BENCH_TRACE` — export Chrome `trace_event` timelines
//!   ([`trace_enabled`]);
//! * `BENCH_ALERT_LOG` — write the watchdog's typed alert log next to
//!   the report ([`alert_log_enabled`]);
//! * `BENCH_SEED` — override a harness's master seed ([`seed`]);
//! * `BENCH_RESULTS_DIR` — where reports land ([`results_dir`]).
//!
//! Every knob is read at call time (not cached), so tests can set and
//! unset variables freely.

use std::path::PathBuf;

/// The `BENCH_SCALE` divisor (default 1). Unparseable values fall back
/// to 1 rather than silently running a different experiment.
pub fn scale() -> usize {
    std::env::var("BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1)
}

/// Divide a full-scale workload size by [`scale`], never below 1.
pub fn scale_down(n: usize) -> usize {
    (n / scale()).max(1)
}

/// Whether `BENCH_TRACE` asks for Chrome-trace export (any value).
pub fn trace_enabled() -> bool {
    std::env::var_os("BENCH_TRACE").is_some()
}

/// Whether `BENCH_ALERT_LOG=1` asks the watchdog experiments to write
/// their alert logs as standalone JSON artifacts.
pub fn alert_log_enabled() -> bool {
    std::env::var("BENCH_ALERT_LOG").is_ok_and(|v| v == "1")
}

/// A harness master seed: `BENCH_SEED` when set and parseable
/// (decimal, or hex with an `0x` prefix), else `default`.
pub fn seed(default: u64) -> u64 {
    let Ok(v) = std::env::var("BENCH_SEED") else {
        return default;
    };
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.unwrap_or(default)
}

/// Where reports land: `$BENCH_RESULTS_DIR`, defaulting to `results/`
/// under the current directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("BENCH_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    // Env-var mutation is process-global, so everything runs in ONE
    // test (Rust runs #[test] fns concurrently by default).
    #[test]
    fn knobs_parse_and_default() {
        for k in ["BENCH_SCALE", "BENCH_TRACE", "BENCH_ALERT_LOG", "BENCH_SEED"] {
            std::env::remove_var(k);
        }
        assert_eq!(super::scale(), 1);
        assert_eq!(super::scale_down(100), 100);
        assert!(!super::trace_enabled());
        assert!(!super::alert_log_enabled());
        assert_eq!(super::seed(7), 7);

        std::env::set_var("BENCH_SCALE", "10");
        assert_eq!(super::scale_down(100), 10);
        assert_eq!(super::scale_down(5), 1, "never scales to zero");
        std::env::set_var("BENCH_SCALE", "banana");
        assert_eq!(super::scale(), 1, "garbage falls back to full scale");
        std::env::set_var("BENCH_SCALE", "0");
        assert_eq!(super::scale(), 1, "zero divisor is rejected");
        std::env::remove_var("BENCH_SCALE");

        std::env::set_var("BENCH_TRACE", "1");
        assert!(super::trace_enabled());
        std::env::remove_var("BENCH_TRACE");

        std::env::set_var("BENCH_ALERT_LOG", "0");
        assert!(!super::alert_log_enabled(), "only =1 enables the artifact");
        std::env::set_var("BENCH_ALERT_LOG", "1");
        assert!(super::alert_log_enabled());
        std::env::remove_var("BENCH_ALERT_LOG");

        std::env::set_var("BENCH_SEED", "42");
        assert_eq!(super::seed(7), 42);
        std::env::set_var("BENCH_SEED", "0xC13");
        assert_eq!(super::seed(7), 0xC13);
        std::env::set_var("BENCH_SEED", "nope");
        assert_eq!(super::seed(7), 7);
        std::env::remove_var("BENCH_SEED");
    }
}
