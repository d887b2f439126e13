//! Experiment O5: the fabric-utilization heatmap — who consumes the
//! disaggregated memory pool, and can the placement advisor fix it?
//!
//! Part A sweeps Zipf theta x memory-node count on the striped bed
//! (app keys range-partitioned over nodes, so skew means *node*
//! imbalance): the per-range heat top-K must name node 0's base range
//! — where rank 0 lives — and the Gini index over per-node remote
//! bytes must rise monotonically with theta.
//!
//! Part B runs the contiguous bed (whole table on node 0, three cold
//! joined groups): the placement advisor emits a typed move plan,
//! [`bench::heatmap::replay_move_plan`] executes it through the same
//! epoch-fenced [`dsmdb::Migrator`] exp_e1 drives, and a re-run of the
//! identical workload must land on a smaller *measured* Gini index.
//!
//! The advisor's move plan is also written to
//! `results/exp_o5_heatmap_moveplan.json` (CI uploads it) so a placement
//! regression ships with the plan that caused it.

use bench::heatmap::{drive, measured_gini, replay_move_plan, HeatBed, HeatConfig, HeatOutcome};
use bench::report::{self, move_plan_json, utilization_json, Json, Report, Section};
use bench::{config, scale_down, table};
use telemetry::{heat_key_base_offset, heat_key_node, placement_advisor};

const THETAS: [f64; 4] = [0.0, 0.6, 0.9, 1.2];
const NODE_COUNTS: [usize; 3] = [2, 4, 8];
const FLAGSHIP_NODES: usize = 4;
const FLAGSHIP_THETA: f64 = 1.2;

fn base_config() -> HeatConfig {
    HeatConfig {
        seed: config::seed(0x05),
        ops_per_session: scale_down(2000).max(100),
        ..HeatConfig::default()
    }
}

fn run_striped(cfg: &HeatConfig, nodes: usize) -> (HeatBed, HeatOutcome) {
    let bed = HeatBed::striped(cfg, nodes);
    let out = drive(&bed, cfg);
    (bed, out)
}

fn main() {
    println!("\nO5 — fabric utilization heatmap: per-node load, per-range heat, placement advice\n");
    let base = base_config();

    let mut rep = Report::new(
        "exp_o5_heatmap",
        "O5: utilization heatmap — heat top-K, imbalance indices, placement advisor",
    );
    rep.meta("seed", Json::U(base.seed));
    rep.meta("sessions", Json::U(base.sessions as u64));
    rep.meta("ops_per_session", Json::U(base.ops_per_session as u64));
    rep.meta("records", Json::U(base.records));

    // Part A: theta x node-count sweep on the striped bed.
    table::header(&["nodes", "theta", "gini_bytes", "max_mean", "hot_node", "hot_share"]);
    let mut flagship: Option<(HeatBed, HeatOutcome)> = None;
    for nodes in NODE_COUNTS {
        let mut prev_gini = -1.0f64;
        for theta in THETAS {
            let cfg = HeatConfig { theta, ..base };
            let (bed, out) = run_striped(&cfg, nodes);
            let g = measured_gini(&out.utilization);
            let loads = out.utilization.node_bytes();
            let total: u64 = loads.iter().map(|&(_, b)| b).sum();
            let (hot_node, hot_bytes) =
                loads.iter().copied().max_by_key(|&(n, b)| (b, n)).unwrap_or((0, 0));
            let hot_share = if total == 0 { 0.0 } else { hot_bytes as f64 / total as f64 };
            let mm = telemetry::max_mean_ratio(
                &loads.iter().map(|&(_, b)| b).collect::<Vec<_>>(),
            );
            table::row(&[
                table::n(nodes as u64),
                table::f2(theta),
                table::f2(g),
                table::f2(mm),
                table::n(hot_node),
                table::f2(hot_share),
            ]);
            rep.row(
                &format!("nodes={nodes} theta={theta:.2}"),
                vec![
                    ("nodes", Json::U(nodes as u64)),
                    ("theta", Json::F(theta)),
                    ("gini_bytes", Json::F(g)),
                    ("max_mean_bytes", Json::F(mm)),
                    ("hot_node", Json::U(hot_node)),
                    ("hot_share", Json::F(hot_share)),
                    ("ops", Json::U(out.ops)),
                ],
            );
            // Criterion: the imbalance index tracks theta at every
            // node count.
            assert!(
                g > prev_gini,
                "nodes={nodes}: gini must rise with theta ({prev_gini} -> {g})"
            );
            prev_gini = g;
            // Criterion: under skew the heat top-K names node 0's base
            // range — where the hottest rank lives.
            if theta >= 0.9 {
                let a = bed.table.slot_addr(bed.key_of(0));
                let expect = telemetry::heat_key(a.node() as u64, a.offset());
                assert_eq!(
                    out.utilization.heat_bytes.ranked()[0].key, expect,
                    "nodes={nodes} theta={theta}: hottest range must be node 0's base"
                );
            }
            if nodes == FLAGSHIP_NODES && theta == FLAGSHIP_THETA {
                flagship = Some((bed, out));
            }
        }
    }
    let (_flag_bed, flagship) = flagship.expect("flagship ran");
    let hot = flagship.utilization.heat_bytes.ranked()[0];
    println!(
        "\nflagship (nodes={FLAGSHIP_NODES}, theta={FLAGSHIP_THETA}): hottest range node {} offset {:#x} — {} remote bytes",
        heat_key_node(hot.key),
        heat_key_base_offset(hot.key),
        hot.count
    );

    // Part B: advisor + migrator replay on the contiguous bed.
    let bcfg = HeatConfig { theta: FLAGSHIP_THETA, ..base };
    let bed = HeatBed::contiguous(&bcfg, 3);
    let before = drive(&bed, &bcfg);
    let gini_before = measured_gini(&before.utilization);
    let plan = placement_advisor(&before.utilization, 8);
    assert!(
        !plan.moves.is_empty() && plan.index_projected < plan.index_before,
        "the skewed contiguous bed must yield a gini-shrinking plan"
    );
    let (applied, bytes_moved) = replay_move_plan(&bed, &plan);
    assert!(applied > 0, "replay must execute at least one move");
    let after = drive(&bed, &bcfg);
    let gini_after = measured_gini(&after.utilization);
    println!(
        "\nadvisor: {} moves ({} payload bytes via the migrator) — measured gini {:.3} -> {:.3} (projected {:.3})",
        applied, bytes_moved, gini_before, gini_after, plan.index_projected
    );
    assert!(
        gini_after < gini_before,
        "executing the move plan must shrink measured gini: {gini_before} -> {gini_after}"
    );
    rep.row(
        "advisor_replay",
        vec![
            ("moves_planned", Json::U(plan.moves.len() as u64)),
            ("moves_applied", Json::U(applied)),
            ("bytes_migrated", Json::U(bytes_moved)),
            ("gini_before", Json::F(gini_before)),
            ("gini_projected", Json::F(plan.index_projected)),
            ("gini_after", Json::F(gini_after)),
        ],
    );

    let alerts = flagship.planes.alerts(base.sessions as u32);
    flagship.planes.attach(&mut rep, flagship.makespan_ns, &alerts);
    rep.section(Section::Utilization, utilization_json(&flagship.utilization));
    rep.headline("imbalance_gini_flagship", Json::F(measured_gini(&flagship.utilization)));
    rep.headline("advisor_gini_before", Json::F(gini_before));
    rep.headline("advisor_gini_after", Json::F(gini_after));
    rep.headline("advisor_moves_applied", Json::U(applied));
    report::emit(&rep);

    // The executed move plan: its content is in no report section.
    let plan_path = report::results_dir().join("exp_o5_heatmap_moveplan.json");
    match std::fs::write(&plan_path, move_plan_json(&plan).render_pretty(2)) {
        Ok(()) => println!("\nwrote {} (advisor move plan)", plan_path.display()),
        Err(e) => eprintln!("warning: could not write move-plan artifact: {e}"),
    }

    println!(
        "\nShape check: the heat top-K names the Zipf-hot ranges, the Gini index \
         tracks theta at every node count, and replaying the advisor's plan through \
         the migrator shrinks the measured index."
    );
}
