//! C13 chaos properties: under an injected memory-node crash and a
//! crashed lock-holding session, the engine must degrade gracefully —
//! and two runs with the same seed must be byte-identical. The
//! watchdog must stay silent on the fault-free twin and open nothing
//! ahead of the faults, and sampling the series must cost no virtual
//! time.

use bench::chaos::{report_for, run_chaos, ChaosConfig, ChaosOutcome, C13, PARTITION_START_NS};
use bench::{AlertKind, AlertState};
use dsmdb::AbortCause;

/// Small enough to run in the test suite, large enough that leases
/// expire (and get stolen) inside the fault window.
fn cfg() -> ChaosConfig {
    ChaosConfig {
        seed: 0xC13,
        sessions: 4,
        rounds: 600,
        records: 128,
        lease_ns: 200_000,
        ..ChaosConfig::default()
    }
}

fn assert_invariants(out: &ChaosOutcome) {
    // Safety: no committed write lost, no lock held forever.
    assert_eq!(out.audit.lost_writes, 0, "committed writes were lost");
    assert_eq!(out.audit.stuck_locks, 0, "a lock stayed held forever");
    // The crash was visible: dead-group transactions aborted with the
    // typed error and the fault window lost throughput.
    assert!(out.aborts[AbortCause::NodeUnavailable] > 0, "crash never surfaced");
    assert!(
        out.fault.tps() < out.pre.tps(),
        "fault window should dip: fault={} pre={}",
        out.fault.tps(),
        out.pre.tps()
    );
    // The zombie's locks were contested: busy while the lease was live
    // (a waiter's edge names the zombie, owner 999), at least one steal
    // after expiry, and the woken zombie found every lock fenced.
    assert!(out.aborts[AbortCause::LockBusy] > 0, "no lock was ever busy");
    assert!(
        out.planes.contention.edges.iter().any(|e| e.holder == 999),
        "zombie locks never blocked anyone"
    );
    assert!(out.steals > 0, "no expired lease was stolen");
    assert_eq!(out.zombie_survived, 0, "zombie released a contested lock");
    assert_eq!(out.zombie_fenced, 2, "both zombie locks must be fenced");
    // Recovery: mirror rebuild moved bytes, the crash-recover cycle is
    // on record, and throughput came back to >= 90% of pre-fault.
    assert!(out.recovery_bytes > 0, "mirror rebuild copied nothing");
    assert_eq!(out.final_epoch, 2, "epoch must record one crash-recover cycle");
    assert!(out.degraded_reads > 0, "mirror fallback never exercised");
    assert!(
        out.recovered_tps_ratio >= 0.9,
        "throughput only recovered to {:.0}%",
        out.recovered_tps_ratio * 100.0
    );
    assert!(
        out.recovery.time_to_recovery_ns.is_some(),
        "never returned to steady state"
    );
    // The recovery story comes from the windowed series: the crash must
    // have been detected there, and the dip the analysis found must be
    // consistent with the segment tallies.
    assert!(!out.planes.series.is_empty(), "series sampling was off");
    assert!(out.recovery.time_to_detection_ns.is_some(), "dip never detected");
    assert!(out.recovery.dip_depth > 0.0, "analysis saw no dip");
    assert!(
        out.recovery.baseline_tps > out.recovery.dip_tps,
        "baseline must exceed the dip"
    );
}

#[test]
fn chaos_preserves_safety_and_recovers() {
    assert_invariants(&run_chaos(&cfg()));
}

/// Same seed twice => byte-identical rendered report. This is the
/// reproducibility contract the fault plan, retry jitter, and workload
/// generator all hang off one seed for.
#[test]
fn chaos_is_deterministic_in_the_seed() {
    let cfg = cfg();
    let a = C13::run(&cfg);
    let b = C13::run(&cfg);
    let (ra, rb) = (report_for(&cfg, &a), report_for(&cfg, &b));
    assert_eq!(
        ra.to_json().render_pretty(2),
        rb.to_json().render_pretty(2),
        "two same-seed chaos runs diverged"
    );
    // The report embeds the contention section; the Chrome trace
    // must be byte-identical too — the flight recorder's whole value
    // rests on same-seed reruns reproducing the exact timeline.
    assert_eq!(
        a.out.trace.render(),
        b.out.trace.render(),
        "two same-seed chaos traces diverged"
    );
    assert!(!a.out.trace.is_empty(), "chaos trace recorded nothing");
    // A different seed must still satisfy safety, proving the invariants
    // are not an artifact of one lucky schedule.
    let other = ChaosConfig { seed: 7, ..cfg };
    let out = run_chaos(&other);
    assert_eq!(out.audit.lost_writes, 0);
    assert_eq!(out.audit.stuck_locks, 0);
}

/// Sampling the series reads the virtual clock and never advances it:
/// with the sampler off the run commits the same work and ends at the
/// same instant.
#[test]
fn series_sampling_costs_zero_virtual_time() {
    let on = run_chaos(&cfg());
    let off = run_chaos(&ChaosConfig { window_ns: 0, ..cfg() });
    assert!(off.planes.series.is_empty() && !on.planes.series.is_empty());
    assert_eq!(
        [on.pre.commits, on.fault.commits, on.post.commits],
        [off.pre.commits, off.fault.commits, off.post.commits],
        "sampling changed committed work"
    );
    assert_eq!(on.post.end_ns, off.post.end_ns, "sampling advanced the virtual clock");
}

/// The watchdog, armed from the fault-free twin, raises nothing on the
/// twin, nothing before the first injected fault, and opens the crash's
/// `throughput_dip` and `lease_steal_storm` at or after the crash.
#[test]
fn the_watchdog_is_silent_on_the_twin_and_never_ahead_of_a_fault() {
    let c13 = C13::run(&cfg());
    assert!(c13.slo_p99_ns.is_some(), "the twin armed no p99 objective");
    assert_eq!(c13.twin_log, vec![], "false alerts on the fault-free twin");
    assert!(!c13.log.is_empty(), "the faulted run raised nothing");
    for e in &c13.log {
        assert!(e.at_ns >= PARTITION_START_NS, "alert before any fault was injected: {e:?}");
    }
    let t_crash = c13.out.t_crash_ns;
    for rule in [AlertKind::ThroughputDip, AlertKind::LeaseStealStorm] {
        let open = c13
            .log
            .iter()
            .find(|e| e.kind == rule && e.state == AlertState::Open)
            .unwrap_or_else(|| panic!("the crash never opened {}", rule.name()));
        assert!(open.at_ns >= t_crash, "{} opened at {} before the crash at {t_crash}", rule.name(), open.at_ns);
        assert!(
            c13.detections().iter().any(|d| d.fault == "crash" && d.rule == rule),
            "no crash detection row for {}",
            rule.name()
        );
    }
}
