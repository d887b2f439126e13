//! Experiment E1: online reshard under fire — epoch-fenced live page
//! migration with node join/leave and crash-during-migration chaos.
//!
//! Four scenarios over the same deterministic timeline: a clean
//! migration (join a memory group, copy ≥100 MB live behind a
//! dual-ownership window, flip, retire the drained source groups —
//! measuring the migration *tax*), then the same run with the source
//! primary crashed mid-copy, the destination primary crashed mid-copy
//! (window rolled back, rebuilt, re-run), and the coordinator
//! partitioned away mid-handover (epoch bump fences its zombie
//! commit). Every scenario must end `Done` at a single owner with zero
//! lost writes, zero stuck locks, and zero divergent dual-home reads.
//!
//! `BENCH_SCALE=10` shrinks the run for CI smoke; same-seed
//! determinism is asserted by `crates/bench/tests/reshard.rs`.

use bench::reshard::{report_for, run_reshard, ReshardConfig, Scenario};
use bench::{config, report, scale_down, table};
use dsmdb::MigrationState;

fn main() {
    println!("\nE1 — online reshard: live page migration under fire\n");
    let cfg = ReshardConfig {
        seed: config::seed(0xE1),
        rounds: scale_down(1_200).max(50),
        records: scale_down(16_384).max(512) as u64,
        ..ReshardConfig::default()
    };
    println!(
        "migrating {} records x {} B slots = {:.1} MB live, per scenario\n",
        cfg.records,
        cfg.slot_size(),
        cfg.migration_bytes() as f64 / 1e6,
    );

    let outs: Vec<_> = Scenario::ALL
        .iter()
        .map(|&s| run_reshard(&cfg, s))
        .collect();

    table::header(&[
        "scenario", "pre_tps", "mig_tps", "post_tps", "tax%", "moved_MB", "fenced", "diverg",
    ]);
    for out in &outs {
        table::row(&[
            out.scenario.name().into(),
            table::f1(out.pre.tps()),
            table::f1(out.migrate.tps()),
            table::f1(out.post.tps()),
            table::f1(out.migration_tax * 100.0),
            table::f1(out.migrated_bytes as f64 / 1e6),
            table::n(out.fenced_commits),
            table::n(out.divergent_dual_reads),
        ]);
    }
    println!();

    for out in &outs {
        println!(
            "{:>22}: state={:?} epoch={} lost_writes={} stuck_locks={} \
             dual_reads_checked={} steals={}",
            out.scenario.name(),
            out.final_state,
            out.final_epoch,
            out.audit.lost_writes,
            out.audit.stuck_locks,
            out.dual_reads_checked,
            out.steals,
        );
    }
    println!();

    let crash = outs
        .iter()
        .find(|o| o.scenario == Scenario::CrashSource)
        .expect("crash_source ran");
    println!(
        "crash_source recovery (from the windowed series): baseline {:.1} tps, \
         dip {:.1} tps ({:.0}% deep)",
        crash.recovery.baseline_tps,
        crash.recovery.dip_tps,
        crash.recovery.dip_depth * 100.0,
    );
    match crash.recovery.time_to_recovery_ns {
        Some(0) => println!("time-to-recovery: 0 ms (never dipped)"),
        Some(ns) => println!("time-to-recovery: {:.2} ms after the crash", ns as f64 / 1e6),
        None => println!("time-to-recovery: not reached within the run"),
    }
    println!(
        "crash_source commit rate  {}  ({} windows of {} ns)",
        crash.planes.tps_sparkline(48),
        crash.planes.series.len(),
        crash.planes.series.window_ns,
    );
    let clean = outs
        .iter()
        .find(|o| o.scenario == Scenario::Clean)
        .expect("clean ran");
    println!(
        "clean migration tax: {:.1}% of same-membership throughput while the window was open",
        clean.migration_tax * 100.0,
    );

    report::emit(&report_for(&cfg, &outs));

    for out in &outs {
        assert_eq!(
            out.final_state,
            MigrationState::Done,
            "{}: migration must end at a single owner",
            out.scenario.name()
        );
        assert_eq!(out.audit.lost_writes, 0, "{}: committed writes were lost", out.scenario.name());
        assert_eq!(out.audit.stuck_locks, 0, "{}: a lock stayed held forever", out.scenario.name());
        assert_eq!(
            out.divergent_dual_reads, 0,
            "{}: a page was readable from two live homes with different contents",
            out.scenario.name()
        );
        assert!(
            out.migrated_bytes >= cfg.migration_bytes(),
            "{}: copier moved less than the table",
            out.scenario.name()
        );
        assert!(out.dual_reads_checked > 0, "{}: divergence audit never sampled", out.scenario.name());
    }
    let zombie = outs
        .iter()
        .find(|o| o.scenario == Scenario::PartitionCoordinator)
        .expect("partition ran");
    assert_eq!(zombie.fenced_commits, 1, "stale coordinator commit must be fenced");
    assert!(zombie.final_epoch > 1, "handover must be re-signed with the bumped epoch");

    println!(
        "\nShape check: the dual-ownership window taxes but never stalls \
         foreground commits; each crash variant ends at a single owner \
         with the epoch fence holding."
    );
}
