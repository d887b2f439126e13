//! Experiment C13: chaos — deterministic fault injection and graceful
//! degradation under node failure.
//!
//! Mid-workload, a memory node is hard-crashed (its mirror keeps
//! serving degraded reads) and a lock-holding compute session goes
//! silent (its lease locks time out, expire, and get stolen). The
//! throughput dip and time-to-recovery are *computed* from the windowed
//! time-series by `telemetry::analysis` (not hand-derived timestamps),
//! and the run audits the two safety invariants: no committed write
//! lost, no lock held forever.
//!
//! `BENCH_SCALE=10` shrinks the run for CI smoke; the full-scale
//! invariants are also asserted by `crates/bench/tests/chaos.rs`.

use bench::chaos::{report_for, run_chaos, ChaosConfig};
use bench::{config, report, scale_down, table};

fn main() {
    println!("\nC13 — chaos: memory-node crash + zombie lock holder mid-workload\n");
    let cfg = ChaosConfig {
        seed: config::seed(0xC13),
        rounds: scale_down(900).max(9),
        ..ChaosConfig::default()
    };
    let out = run_chaos(&cfg);

    table::header(&["window", "commits", "aborts", "tps"]);
    for (name, w) in [("pre", &out.pre), ("fault", &out.fault), ("post", &out.post)] {
        table::row(&[
            name.into(),
            table::n(w.commits),
            table::n(w.aborts),
            table::f1(w.tps()),
        ]);
    }
    println!();
    let mix: Vec<String> = out.aborts.named().map(|(cause, n)| format!("{cause}={n}")).collect();
    println!("aborts: {}", mix.join(" "));
    println!(
        "steals={} zombie_fenced={} zombie_survived={} degraded_reads={} \
         recovery_bytes={} final_epoch={}",
        out.steals,
        out.zombie_fenced,
        out.zombie_survived,
        out.degraded_reads,
        out.recovery_bytes,
        out.final_epoch,
    );
    println!(
        "invariants: lost_writes={} stuck_locks={} (janitor reclaimed {})",
        out.audit.lost_writes, out.audit.stuck_locks, out.audit.janitor_reclaims,
    );
    println!(
        "recovery (from the windowed series): baseline {:.1} tps, dip {:.1} tps          ({:.0}% deep)",
        out.recovery.baseline_tps,
        out.recovery.dip_tps,
        out.recovery.dip_depth * 100.0,
    );
    match out.recovery.time_to_detection_ns {
        Some(ns) => println!("time-to-detection: {:.2} ms after the crash", ns as f64 / 1e6),
        None => println!("time-to-detection: throughput never dipped below 90% of baseline"),
    }
    match out.recovery.time_to_recovery_ns {
        Some(0) => println!("time-to-recovery: 0 ms (never dipped)"),
        Some(ns) => println!("time-to-recovery: {:.2} ms after the crash", ns as f64 / 1e6),
        None => println!("time-to-recovery: not reached within the run"),
    }
    println!(
        "throughput recovered to {:.0}% of pre-fault",
        out.recovered_tps_ratio * 100.0
    );
    println!("commit rate  {}  ({} windows of {} ns)",
        out.planes.tps_sparkline(48), out.planes.series.len(), out.planes.series.window_ns);

    report::emit(&report_for(&cfg, &out));
    if config::trace_enabled() {
        let trace_path = report::results_dir().join("exp_c13_chaos_trace.json");
        match out.trace.write(&trace_path) {
            Ok(()) => println!("wrote {} ({} events; open in Perfetto)", trace_path.display(), out.trace.len()),
            Err(e) => eprintln!("warning: could not write chrome trace: {e}"),
        }
    } else {
        println!("chrome trace skipped (set BENCH_TRACE=1 to write it)");
    }

    assert_eq!(out.audit.lost_writes, 0, "committed writes were lost");
    assert_eq!(out.audit.stuck_locks, 0, "a lock stayed held forever");
    println!("\nShape check: the fault window dips (dead group aborts with the \
              typed error, zombie leases time out), then steals + mirror \
              rebuild bring throughput back.");
}
