//! Experiment O1: the contention observatory under a skew sweep.
//!
//! Sweeps Zipf theta over 2PL (exclusive locks) and OCC while a
//! deterministic antagonist squats on Zipf-hot lock words. As skew
//! rises the observatory should show (1) lock-wait time concentrating
//! on a few hot records (exact hot lists), (2) wait-for edges
//! pointing at the antagonist, and (3) the abort-cause mix shifting —
//! 2PL aborts turn into `lock_busy`, OCC aborts into
//! `validation_fail`.
//!
//! One more 2PL run at theta 1.2, write-only, has the antagonist start
//! squatting only at the midpoint: the watchdog's
//! `lock_wait_concentration` rule must open after that onset and no
//! alert before it (the `onset=lock_wait_concentration` row).
//!
//! With `BENCH_TRACE=1` the most-skewed 2PL run's timeline is exported
//! to `results/exp_o1_contention_trace.json`; open it at
//! <https://ui.perfetto.dev> (or `chrome://tracing`) to see per-session
//! verb-level tracks with txn ids, phases, and fault marks. (CI uploads
//! the trace as an artifact; it is too large to commit.)

use bench::observatory::{run_observatory, ObsConfig, ObsOutcome};
use bench::report::{self, abort_causes_json, Json, Report};
use bench::{scale_down, table, AlertKind, AlertState, WatchdogConfig};
use dsmdb::CcProtocol;
use telemetry::watchdog::run_over;

const THETAS: [f64; 4] = [0.0, 0.6, 0.9, 1.2];

fn cc_name(cc: CcProtocol) -> &'static str {
    match cc {
        CcProtocol::TplExclusive => "2pl",
        CcProtocol::Occ => "occ",
        _ => "other",
    }
}

fn main() {
    println!("\nO1 — contention observatory: hot keys, wait-for, abort mix vs zipf skew\n");
    let rounds = scale_down(600).max(20);
    let base = ObsConfig { seed: bench::config::seed(0x01), rounds, ..ObsConfig::default() };

    let mut rep = Report::new(
        "exp_o1_contention",
        "O1: contention observatory — hot keys, wait-for, abort mix vs skew",
    );
    rep.meta("seed", Json::U(base.seed));
    rep.meta("sessions", Json::U(base.sessions as u64));
    rep.meta("rounds", Json::U(rounds as u64));
    rep.meta("records", Json::U(base.records));

    table::header(&["cc", "theta", "commits", "aborts", "tps", "wait_us", "edges", "depth", "hot_key"]);
    let mut flagship: Option<ObsOutcome> = None;
    for cc in [CcProtocol::TplExclusive, CcProtocol::Occ] {
        for theta in THETAS {
            let cfg = ObsConfig { cc, theta, ..base };
            let out = run_observatory(&cfg);
            let wf = out.planes.contention.wait_for();
            let hot = out
                .hot_keys
                .first()
                .map(|&(k, _)| k.to_string())
                .unwrap_or_else(|| "-".into());
            table::row(&[
                cc_name(cc).into(),
                table::f2(theta),
                table::n(out.commits),
                table::n(out.aborts.total()),
                table::f1(out.tps()),
                table::f1(out.planes.contention.wait_ns_total as f64 / 1e3),
                table::n(wf.edges.len() as u64),
                table::n(wf.max_depth),
                hot,
            ]);
            rep.row(
                &format!("cc={} theta={theta:.2}", cc_name(cc)),
                vec![
                    ("cc", Json::S(cc_name(cc).into())),
                    ("theta", Json::F(theta)),
                    ("commits", Json::U(out.commits)),
                    ("aborts", Json::U(out.aborts.total())),
                    ("abort_causes", abort_causes_json(&out.aborts)),
                    ("tps", Json::F(out.tps())),
                    (
                        "hot_keys",
                        Json::A(
                            out.hot_keys
                                .iter()
                                .map(|&(k, ns)| {
                                    Json::obj(vec![
                                        ("key", Json::U(k)),
                                        ("wait_ns", Json::U(ns)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("contention", out.planes.contention.to_json()),
                ],
            );
            if cc == CcProtocol::TplExclusive && theta == 1.2 {
                flagship = Some(out);
            }
        }
    }
    let flagship = flagship.expect("flagship theta ran");

    // Onset localization: the antagonist squats only from the midpoint.
    let onset = run_observatory(&ObsConfig {
        theta: 1.2,
        read_pct: 0,
        antagonist_from_round: rounds / 2,
        ..base
    });
    let mut wcfg = WatchdogConfig::new(onset.planes.series.window_ns, base.sessions as u32);
    // Round-robin sessions never block each other — every lock wait in
    // this harness is the antagonist's doing, and the share is exactly
    // zero before its onset. Arm the rule at 0.1% of the session-time
    // budget so even short retry-then-abort waits trip it.
    wcfg.wait_frac = 0.001;
    let log = run_over(wcfg, &onset.planes.series, None);
    assert!(onset.t_antagonist_ns > 0, "onset must be mid-run");
    for e in &log {
        assert!(e.at_ns >= onset.t_antagonist_ns, "alert before the antagonist existed: {e:?}");
    }
    let wait_open = log
        .iter()
        .find(|e| e.kind == AlertKind::LockWaitConcentration && e.state == AlertState::Open)
        .expect("antagonist squatting was never detected");
    let onset_latency_ns = wait_open.at_ns - onset.t_antagonist_ns;
    println!(
        "\nantagonist onset at {} ns: lock_wait_concentration opened at {} ns (+{onset_latency_ns} ns)",
        onset.t_antagonist_ns, wait_open.at_ns,
    );
    rep.row(
        "onset=lock_wait_concentration",
        vec![
            ("alert", Json::S(AlertKind::LockWaitConcentration.name().into())),
            ("t_onset_ns", Json::U(onset.t_antagonist_ns)),
            ("detection_latency_ns", Json::U(onset_latency_ns)),
        ],
    );

    let wf = flagship.planes.contention.wait_for();
    println!(
        "flagship (2pl, theta=1.2): wait_ns_total={} wait_for_edges={} max_depth={} \
         top_hot_keys={:?}",
        flagship.planes.contention.wait_ns_total,
        wf.edges.len(),
        wf.max_depth,
        &flagship.hot_keys[..flagship.hot_keys.len().min(5)],
    );

    println!(
        "flagship commit rate  {}  ({} windows of {} ns)",
        flagship.planes.tps_sparkline(48),
        flagship.planes.series.len(),
        flagship.planes.series.window_ns
    );

    let live = flagship.planes.live();
    live.attach(&mut rep, flagship.makespan_ns, &live.alerts(base.sessions as u32));
    rep.headline("tps", Json::F(flagship.tps()));
    rep.headline("wait_ns_total", Json::U(flagship.planes.contention.wait_ns_total));
    rep.headline("wait_for_edges", Json::U(wf.edges.len() as u64));
    rep.headline("wait_for_max_depth", Json::U(wf.max_depth));
    rep.headline("onset_detection_latency_ns", Json::U(onset_latency_ns));
    report::emit(&rep);

    if bench::config::trace_enabled() {
        let trace_path = report::results_dir().join("exp_o1_contention_trace.json");
        match flagship.trace.write(&trace_path) {
            Ok(()) => println!(
                "wrote {} ({} events; open in Perfetto)",
                trace_path.display(),
                flagship.trace.len()
            ),
            Err(e) => eprintln!("warning: could not write chrome trace: {e}"),
        }
    } else {
        println!("chrome trace skipped (set BENCH_TRACE=1 to write it)");
    }

    println!(
        "\nShape check: skew concentrates waits onto few hot keys, the wait-for \
         graph names the antagonist, the abort mix moves from (nearly) \
         nothing to lock_busy under 2PL / validation_fail under OCC, and a \
         late antagonist opens lock_wait_concentration only after its onset."
    );
}
