//! Validate the machine-readable experiment output in `results/` (or
//! `$BENCH_RESULTS_DIR`). CI runs it on the committed reports and on
//! reduced-scale smoke runs of some of them.
//!
//! The rules live beside what they describe, not here:
//! [`bench::report::dir_violations`] walks the directory — every
//! `exp_*.json` report, the `_trace` and `_moveplan` artifacts, and
//! `BENCH_summary.json` — and a
//! section is valid iff it parses back into its snapshot type, the
//! snapshot renders to the bytes it was read from, and the snapshot's
//! own `violations()` is empty (`telemetry::report`).
//!
//! Exits non-zero with a message per violation.

use std::process::ExitCode;

fn main() -> ExitCode {
    let dir = bench::report::results_dir();
    let (files, violations) = bench::report::dir_violations(&dir);
    if violations.is_empty() {
        println!("ok: {files} file(s) valid in {}", dir.display());
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("error: {v}");
    }
    eprintln!("{} violation(s)", violations.len());
    ExitCode::FAILURE
}
