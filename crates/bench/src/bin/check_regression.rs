//! Perf-regression gate: `check_regression [baseline] [fresh]`.
//!
//! Compares a freshly generated `BENCH_summary.json` (default
//! `$BENCH_RESULTS_DIR/BENCH_summary.json`) against the committed
//! baseline (default `results/BENCH_summary.json`) using
//! the one-sided tolerance bands in [`bench::regression`]: tps −5%,
//! `wire_rts_per_txn` +2%, `p99_ns` +10%, `time_to_recovery_ns` and
//! `dip_depth` +25% (chaos/reshard runs). Exits non-zero on any breach or on a gated
//! experiment/metric that vanished.
//!
//! Both files must come from the same `BENCH_SCALE`; the virtual
//! clock makes equal-scale runs deterministic, so the bands are slack
//! for refactoring drift, not measurement noise.

use bench::regression::compare;
use telemetry::Json;

fn read(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fatal(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fatal(&format!("cannot parse {path}: {e}")))
}

fn fatal(msg: &str) -> ! {
    eprintln!("check_regression: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let baseline_path = args
        .next()
        .unwrap_or_else(|| "results/BENCH_summary.json".into());
    let fresh_path = args.next().unwrap_or_else(|| {
        bench::report::results_dir()
            .join("BENCH_summary.json")
            .display()
            .to_string()
    });

    let baseline = read(&baseline_path);
    let fresh = read(&fresh_path);
    let out = compare(&baseline, &fresh).unwrap_or_else(|e| fatal(&e));

    println!(
        "check_regression: {} gated metrics inside their bands ({baseline_path} vs {fresh_path})",
        out.checked
    );
    for m in &out.missing {
        println!("  MISSING  {m}");
    }
    for b in &out.breaches {
        println!("  BREACH   {b}");
    }
    if out.ok() {
        println!("check_regression: PASS");
    } else {
        println!(
            "check_regression: FAIL ({} breaches, {} missing)",
            out.breaches.len(),
            out.missing.len()
        );
        std::process::exit(1);
    }
}
