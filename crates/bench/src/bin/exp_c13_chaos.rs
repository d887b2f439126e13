//! Experiment C13: chaos — deterministic fault injection and graceful
//! degradation under node failure.
//!
//! Mid-workload, a memory node is hard-crashed (its mirror keeps
//! serving degraded reads) and a lock-holding compute session goes
//! silent (its leased lock words stay busy, expire, and get stolen). The
//! throughput dip and time-to-recovery are *computed* from the windowed
//! time-series by `telemetry::analysis` (not hand-derived timestamps),
//! and the run audits the two safety invariants: no committed write
//! lost, no lock held forever.
//!
//! The watchdog replays the series with its p99 objective armed from a
//! fault-free twin of the run (`inject: false`): the twin must raise no
//! alert, no alert of the faulted run may open before the first
//! injected fault, and every fault must open the rule that signals it —
//! one `detect=<fault>/<rule>` row per detection. The crash also flips
//! the tail's blame: the worst-K exemplars must be dominated by
//! `backoff_retry` and each at least 90% attributed (the `tail` row).
//!
//! `BENCH_SCALE=10` shrinks the run for CI smoke, rounds and lease alike,
//! so the smoke still sees the lease steal; the invariants and the
//! watchdog's silence on the twin are also asserted by
//! `crates/bench/tests/chaos.rs`.

use bench::chaos::{report_for, ChaosConfig, C13, PARTITION_START_NS};
use bench::{
    assert_attributed, config, report, scale_down, table, tail_blame, tail_majority, AlertKind,
};
use telemetry::{blame_name, Blame, BLAME_KINDS};

fn main() {
    println!("\nC13 — chaos: memory-node crash + zombie lock holder mid-workload\n");
    // The lease shrinks with the rounds, so that a zombie's lease runs out
    // inside the fault window at every scale.
    let full = ChaosConfig::default();
    let cfg = ChaosConfig {
        seed: config::seed(0xC13),
        rounds: scale_down(full.rounds).max(9),
        lease_ns: scale_down(full.lease_ns as usize) as u64,
        ..full
    };
    let c13 = C13::run(&cfg);
    let out = &c13.out;

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

    // The watchdog: silent on the twin, never ahead of the faults.
    println!(
        "\ntwin: {} commits, SLO armed at {} ns, {} alert(s)",
        c13.twin.pre.commits + c13.twin.fault.commits + c13.twin.post.commits,
        c13.slo_p99_ns.unwrap_or(0),
        c13.twin_log.len(),
    );
    assert!(c13.twin_log.is_empty(), "false alerts on the fault-free twin: {:?}", c13.twin_log);
    for e in &c13.log {
        assert!(e.at_ns >= PARTITION_START_NS, "alert before any fault was injected: {e:?}");
    }
    let detections = c13.detections();
    table::header(&["fault", "detected_by", "t_fault_ns", "detection_latency_ns"]);
    for d in &detections {
        table::row(&[d.fault.into(), d.rule.name().into(), table::n(d.t_fault_ns), table::n(d.latency_ns)]);
    }
    for rule in [AlertKind::ThroughputDip, AlertKind::LeaseStealStorm] {
        assert!(
            detections.iter().any(|d| d.fault == "crash" && d.rule == rule),
            "the crash never opened {}",
            rule.name()
        );
    }
    assert!(out.steals >= 1, "no zombie lease was stolen");
    // At small scales the ~30 µs partition spans too few latency windows
    // to pass the p99 debounce: only full scale must catch everything.
    assert!(
        detections.len() == 4 || config::scale() > 1,
        "full scale must catch the partition and open all three crash rules: {detections:?}"
    );

    // The crash's tail: fault retries, fully attributed.
    let f = &out.planes.forensics;
    let tail = tail_blame(f);
    println!(
        "\ncrash tail: {} txns, worst-K blame {:?}",
        f.txns,
        (0..BLAME_KINDS).map(|i| (blame_name(i), tail[i])).collect::<Vec<_>>()
    );
    assert_eq!(
        tail_majority(f),
        Blame::BackoffRetry as usize,
        "crash worst-K must be backoff/retry dominated, got {tail:?}"
    );
    assert_attributed("tail", f);

    report::emit(&report_for(&cfg, &c13));
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
              typed error, zombie leases keep their words busy), then steals + mirror \
              rebuild bring throughput back; the watchdog is silent on the twin and \
              opens each fault's rule after the fault; the crash tail is retries.");
}
