//! Experiment O2: the virtual-time metrics pipeline, end to end.
//!
//! Two timelines exercise the windowed time-series machinery:
//!
//! 1. **Recovery timeline** — the C13 chaos run (memory-node crash +
//!    zombie lock holder) replayed through the sampler. The dip depth,
//!    time-to-detection and time-to-recovery printed here are *computed*
//!    by `telemetry::analysis` from the merged per-window series, and
//!    this binary proves it: the series is serialized to the report
//!    JSON, parsed back, re-analyzed, and the facts must match exactly.
//! 2. **Cache warm-up ramp** — a cold buffer pool serving a fixed
//!    working set; the per-window hit rate must ramp from cold to ~1.
//!
//! Both asserted:
//!
//! * sampling costs **0% virtual time** — the sampler-off replay of the
//!   same seed produces identical commits and an identical makespan;
//! * same-seed runs render **byte-identical** series JSON.
//!
//! Sampling's cost on the host clock is `telemetry.host_overhead_ratio`
//! of the `benchmark/` crate, which `scripts/check_overhead.sh` gates.
//!
//! `BENCH_SCALE=10` shrinks the run for CI smoke.

use bench::chaos::{run_chaos, ChaosConfig};
use bench::report::{self, series_from_json, series_json, Json, Report};
use bench::{run_cluster_workload, scale_down, sparkline, table, Metric};
use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, Op};
use rdma_sim::NetworkProfile;
use telemetry::analysis;

fn main() {
    println!("\nO2 — virtual-time metrics pipeline: recovery timeline + warm-up ramp\n");
    let cfg = ChaosConfig {
        seed: bench::config::seed(0xC13),
        rounds: scale_down(900).max(9),
        ..ChaosConfig::default()
    };

    // --- 1. recovery timeline: sampler on (twice: determinism) vs
    // sampler off. ------------------------------------------------------
    let on = run_chaos(&cfg);
    let twin = run_chaos(&cfg);
    let off = run_chaos(&ChaosConfig { window_ns: 0, ..cfg });

    // Sampling is free in virtual time: the off-run must replay the
    // exact same timeline. Asserted, so the 0% claim can never rot.
    assert_eq!(
        (on.pre.commits, on.fault.commits, on.post.commits),
        (off.pre.commits, off.fault.commits, off.post.commits),
        "sampling changed committed work",
    );
    assert_eq!(
        on.post.end_ns, off.post.end_ns,
        "sampling advanced the virtual clock",
    );
    let vtime_overhead_pct = {
        let (a, b) = (on.post.tps(), off.post.tps());
        if b > 0.0 { (b - a) / b * 100.0 } else { 0.0 }
    };

    // The recovery story is computed, not hand-stated: round-trip the
    // series through the report JSON and re-derive every fact.
    let section = series_json(&on.planes.series, on.post.end_ns);
    let parsed = series_from_json(&section).expect("series_json round-trips");
    let refacts = analysis::recovery_facts(&parsed, on.t_crash_ns, 0.9);
    assert_eq!(
        refacts.time_to_recovery_ns, on.recovery.time_to_recovery_ns,
        "re-analysis of the serialized series disagrees on recovery",
    );
    assert_eq!(
        refacts.time_to_detection_ns, on.recovery.time_to_detection_ns,
        "re-analysis of the serialized series disagrees on detection",
    );
    assert!(
        (refacts.dip_depth - on.recovery.dip_depth).abs() < 1e-12,
        "re-analysis of the serialized series disagrees on dip depth",
    );
    assert!(
        on.recovery.time_to_recovery_ns.is_some(),
        "chaos run must recover within the run",
    );
    assert!(on.recovery.dip_depth > 0.0, "chaos run must actually dip");

    // Same seed, same bytes: the series JSON is deterministic.
    let twin_section = series_json(&twin.planes.series, twin.post.end_ns);
    assert_eq!(
        section.render_pretty(2),
        twin_section.render_pretty(2),
        "same-seed series JSON must be byte-identical",
    );

    table::header(&["window", "commits", "aborts", "tps"]);
    for (name, w) in [("pre", &on.pre), ("fault", &on.fault), ("post", &on.post)] {
        table::row(&[
            name.into(),
            table::n(w.commits),
            table::n(w.aborts),
            table::f1(w.tps()),
        ]);
    }
    println!();
    println!(
        "recovery (computed from the series): baseline {:.1} tps, dip {:.1} tps ({:.0}% deep)",
        on.recovery.baseline_tps,
        on.recovery.dip_tps,
        on.recovery.dip_depth * 100.0,
    );
    match on.recovery.time_to_detection_ns {
        Some(ns) => println!("time-to-detection: {:.2} ms after the crash", ns as f64 / 1e6),
        None => println!("time-to-detection: never dipped below 90% of baseline"),
    }
    match on.recovery.time_to_recovery_ns {
        Some(0) => println!("time-to-recovery: 0 ms (never dipped)"),
        Some(ns) => println!("time-to-recovery: {:.2} ms after the crash", ns as f64 / 1e6),
        None => println!("time-to-recovery: not reached within the run"),
    }
    println!(
        "commit rate  {}  ({} windows of {} ns)",
        on.planes.tps_sparkline(48),
        on.planes.series.len(),
        on.planes.series.window_ns,
    );
    println!("sampling cost: {vtime_overhead_pct:.3}% virtual-time tps (asserted identical)");

    // --- 2. cache warm-up ramp ----------------------------------------
    let warm_txns = scale_down(2_000).max(200);
    let working_set = 128u64;
    let cluster = Cluster::build(ClusterConfig {
        compute_nodes: 1,
        threads_per_node: 1,
        memory_nodes: 2,
        n_records: 1_024,
        payload_size: 64,
        cache_frames: 256,
        profile: NetworkProfile::rdma_cx6(),
        architecture: Architecture::CacheShard,
        cc: CcProtocol::TplExclusive,
        ..Default::default()
    })
    .unwrap();
    let warm = run_cluster_workload(&cluster, warm_txns, move |_n, _t, i| {
        vec![Op::Read((i as u64 * 13) % working_set)]
    });
    let hit_ramp = warm.planes.series.share_per_window(Metric::CacheHits, Metric::CacheMisses);
    let (first_hit, last_hit) = (
        hit_ramp.first().copied().unwrap_or(0.0),
        hit_ramp.last().copied().unwrap_or(0.0),
    );
    assert!(
        last_hit > first_hit,
        "cache hit rate must ramp as the pool warms ({first_hit:.2} -> {last_hit:.2})",
    );
    println!();
    println!(
        "warm-up ramp: hit rate {:.0}% (first window) -> {:.0}% (last window)",
        first_hit * 100.0,
        last_hit * 100.0,
    );
    println!(
        "hit rate     {}  ({} windows of {} ns)",
        sparkline(&hit_ramp, 48),
        warm.planes.series.len(),
        warm.planes.series.window_ns,
    );

    // --- report --------------------------------------------------------
    let mut rep = Report::new(
        "exp_o2_timeline",
        "O2: virtual-time metrics pipeline — recovery timeline + cache warm-up ramp",
    );
    rep.meta("seed", Json::U(cfg.seed));
    rep.meta("sessions", Json::U(cfg.sessions as u64));
    rep.meta("rounds", Json::U(cfg.rounds as u64));
    rep.meta("window_ns", Json::U(cfg.window_ns));
    rep.meta("warm_txns", Json::U(warm_txns as u64));
    rep.meta("working_set", Json::U(working_set));
    rep.row(
        "recovery",
        vec![
            ("t_crash_ns", Json::U(on.t_crash_ns)),
            ("baseline_tps", Json::F(on.recovery.baseline_tps)),
            ("dip_tps", Json::F(on.recovery.dip_tps)),
            ("dip_depth", Json::F(on.recovery.dip_depth)),
            (
                "time_to_detection_ns",
                on.recovery.time_to_detection_ns.map_or(Json::Null, Json::U),
            ),
            (
                "time_to_recovery_ns",
                on.recovery.time_to_recovery_ns.map_or(Json::Null, Json::U),
            ),
        ],
    );
    rep.row(
        "sampling_cost",
        vec![("vtime_overhead_pct", Json::F(vtime_overhead_pct))],
    );
    rep.row(
        "warmup",
        vec![
            ("first_window_hit_rate", Json::F(first_hit)),
            ("last_window_hit_rate", Json::F(last_hit)),
            ("windows", Json::U(warm.planes.series.len() as u64)),
        ],
    );
    on.planes.live().attach(&mut rep, on.post.end_ns, cfg.sessions as u32);
    rep.headline("dip_depth", Json::F(on.recovery.dip_depth));
    rep.headline(
        "time_to_recovery_ns",
        on.recovery.time_to_recovery_ns.map_or(Json::Null, Json::U),
    );
    rep.headline("baseline_tps", Json::F(on.recovery.baseline_tps));
    rep.headline("vtime_overhead_pct", Json::F(vtime_overhead_pct));
    rep.headline("warmup_last_hit_rate", Json::F(last_hit));
    report::emit(&rep);

    println!(
        "\nShape check: the recovery facts survive a JSON round-trip, the \
         sampler is free on the virtual clock, and the hit-rate sparkline \
         climbs as the cold pool warms."
    );
}
