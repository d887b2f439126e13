//! E1 reshard properties: every scenario must end at a single owner
//! with nothing lost, and two runs with the same seed must render a
//! byte-identical report — the reproducibility contract the fault
//! plans, retry jitter, copier schedule and workload generator all
//! hang off one seed for.

use bench::reshard::{report_for, run_reshard, ReshardConfig, Scenario};
use dsmdb::MigrationState;

/// Small enough for the test suite, large enough that the copier needs
/// many rounds (the dual-ownership window stays open under real
/// foreground traffic) and every timeline twentieth is non-empty.
fn cfg() -> ReshardConfig {
    ReshardConfig {
        seed: 0xE1E1,
        sessions: 4,
        rounds: 80,
        records: 512,
        payload: 256,
        ..ReshardConfig::default()
    }
}

#[test]
fn reshard_preserves_safety_in_every_scenario() {
    let cfg = cfg();
    for &scenario in Scenario::ALL.iter() {
        let out = run_reshard(&cfg, scenario);
        let name = scenario.name();
        assert_eq!(
            out.final_state,
            MigrationState::Done,
            "{name}: must end at a single owner"
        );
        assert_eq!(out.audit.lost_writes, 0, "{name}: committed writes were lost");
        assert_eq!(out.audit.stuck_locks, 0, "{name}: a lock stayed held forever");
        assert_eq!(
            out.divergent_dual_reads, 0,
            "{name}: dual homes served different bytes"
        );
        assert!(
            out.migrated_bytes >= cfg.migration_bytes(),
            "{name}: copier moved less than the table"
        );
        assert!(out.dual_reads_checked > 0, "{name}: audit never sampled");
    }
}

#[test]
fn partition_fences_the_zombie_coordinator() {
    let out = run_reshard(&cfg(), Scenario::PartitionCoordinator);
    assert_eq!(out.fenced_commits, 1, "stale commit must be fenced");
    assert!(out.final_epoch > 1, "handover must re-sign with the bumped epoch");
}

/// Same seed twice => byte-identical rendered report, across all four
/// scenarios (including both crash variants and the partition).
#[test]
fn reshard_is_deterministic_in_the_seed() {
    let cfg = cfg();
    let run = || -> Vec<_> { Scenario::ALL.iter().map(|&s| run_reshard(&cfg, s)).collect() };
    let outs_a = run();
    let outs_b = run();
    let a = report_for(&cfg, &outs_a).to_json().render_pretty(2);
    let b = report_for(&cfg, &outs_b).to_json().render_pretty(2);
    assert_eq!(a, b, "two same-seed reshard runs diverged");
    // A different seed must still satisfy safety, proving the invariants
    // are not an artifact of one lucky schedule.
    let other = ReshardConfig { seed: 77, ..cfg };
    let out = run_reshard(&other, Scenario::CrashSource);
    assert_eq!(out.audit.lost_writes, 0);
    assert_eq!(out.audit.stuck_locks, 0);
    assert_eq!(out.divergent_dual_reads, 0);
}
