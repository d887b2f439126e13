//! Experiment O4: tail-latency forensics — where do the slowest
//! transactions actually spend their time?
//!
//! It replays the C2/O1 Zipf sweep (2PL, deterministic antagonist
//! squatting on Zipf-hot locks) with a read-mostly fleet — the classic
//! lock-convoy shape, where a cheap transaction's tail is set entirely
//! by whose lock it ran into — and extracts each transaction's
//! critical path: at theta 1.2 the worst-K exemplars must be
//! *lock-wait dominated*, with the blame pointing at the antagonist's
//! trace id. The crash's tail, where the same machinery flips the
//! dominant blame to *backoff/retry*, is C13's `tail` row.
//!
//! Every exemplar must attribute >= 90% of its virtual time to typed
//! blame categories; whatever coverage the ring provably lost is
//! reported as `unattributed`, never folded into a typed bucket. The
//! flagship's worst-K chains are the report's `forensics` section.

use bench::observatory::{run_observatory, ObsConfig, ObsOutcome};
use bench::report::{self, Json, Report};
use bench::{
    assert_attributed, blame_share, config, scale_down, share_cells, table, tail_blame,
    tail_majority, ForensicsSnapshot,
};
use dsmdb::CcProtocol;
use telemetry::{blame_name, Blame, BLAME_KINDS};

const THETAS: [f64; 4] = [0.0, 0.6, 0.9, 1.2];

/// The blame bucket holding the most time in a snapshot (ties to the
/// lower index, same rule as `TxnForensics::dominant`).
fn dominant(s: &ForensicsSnapshot) -> usize {
    let mut best = 0;
    for i in 1..BLAME_KINDS {
        if s.blame_ns[i] > s.blame_ns[best] {
            best = i;
        }
    }
    best
}

fn main() {
    println!("\nO4 — tail-latency forensics: critical paths, blame, worst-K exemplars\n");
    let rounds = scale_down(600).max(20);
    // Read-mostly: committed transactions are cheap, so the tail is
    // owned by whoever ran into the antagonist's exclusive locks.
    let base = ObsConfig {
        seed: config::seed(0x04),
        rounds,
        read_pct: 100,
        ..ObsConfig::default()
    };

    let mut rep = Report::new(
        "exp_o4_tailpath",
        "O4: tail forensics — blame attribution across skew",
    );
    rep.meta("seed", Json::U(base.seed));
    rep.meta("sessions", Json::U(base.sessions as u64));
    rep.meta("rounds", Json::U(rounds as u64));
    rep.meta("exemplars_k", Json::U(bench::EXEMPLARS as u64));

    // The C2 Zipf sweep. As skew rises the tail's blame must
    // migrate toward lock_wait on the antagonist's trace.
    table::header(&["theta", "txns", "p_dominant", "tail_dominant", "lock_wait", "remote", "attr_min"]);
    let mut flagship: Option<ObsOutcome> = None;
    for theta in THETAS {
        let cfg = ObsConfig { cc: CcProtocol::TplExclusive, theta, ..base };
        let out = run_observatory(&cfg);
        let f = &out.planes.forensics;
        let tail = tail_blame(f);
        let tail_dom = tail_majority(f);
        let attr_min = f
            .worst
            .iter()
            .map(|t| t.attributed_share())
            .fold(1.0f64, f64::min);
        table::row(&[
            table::f2(theta),
            table::n(f.txns),
            blame_name(dominant(f)).into(),
            blame_name(tail_dom).into(),
            table::f2(blame_share(&tail, Blame::LockWait as usize)),
            table::f2(blame_share(&tail, Blame::RemoteFetch as usize)),
            table::f2(attr_min),
        ]);
        let mut cells = vec![
            ("theta", Json::F(theta)),
            ("txns", Json::U(f.txns)),
            ("critical_path_wire_share", Json::F(f.wire_share())),
            ("dominant", Json::S(blame_name(dominant(f)).into())),
            ("tail_dominant", Json::S(blame_name(tail_dom).into())),
        ];
        cells.extend(share_cells(&tail));
        rep.row(&format!("theta={theta:.2}"), cells);
        assert_attributed(&format!("theta={theta:.2}"), f);
        if theta == 1.2 {
            flagship = Some(out);
        }
    }
    let flagship = flagship.expect("flagship theta ran");
    let ff = &flagship.planes.forensics;

    // The skewed tail must be lock-wait dominated, and the blame must
    // name the antagonist: its synthetic traces live in the high bits.
    assert_eq!(
        tail_majority(ff),
        Blame::LockWait as usize,
        "theta=1.2 worst-K must be lock-wait dominated, got {:?}",
        tail_blame(ff)
    );
    let names_antagonist = ff.worst.iter().any(|t| {
        t.chain.iter().any(|e| match e.step {
            telemetry::StepKind::Wait { holder } => holder >> 32 == 0xA11,
            _ => false,
        })
    });
    assert!(names_antagonist, "no worst-K wait step names the antagonist's trace");

    // Exemplar walkthrough: the slowest transaction's heaviest steps.
    if let Some(worst) = ff.worst.first() {
        println!(
            "\nslowest txn: trace {} — {} ns, committed={}, dominant={}, attributed {:.1}%",
            worst.trace,
            worst.total_ns,
            worst.committed,
            blame_name(worst.dominant()),
            worst.attributed_share() * 100.0
        );
        let mut steps: Vec<_> = worst.chain.iter().collect();
        steps.sort_by(|a, b| b.dur_ns.cmp(&a.dur_ns).then(a.ts_ns.cmp(&b.ts_ns)));
        for e in steps.iter().take(5) {
            let what = match e.step {
                telemetry::StepKind::Wait { holder } => format!("wait on txn {holder:#x}"),
                telemetry::StepKind::Verb { op, ok, lost_race } => {
                    let tag = if ok {
                        ""
                    } else if lost_race {
                        " (lost race)"
                    } else {
                        " (failed)"
                    };
                    format!("{op}{tag}")
                }
                telemetry::StepKind::Fault => "fault".into(),
            };
            println!(
                "  +{:>8} ns  {:>8} ns  {}  [{}]",
                e.ts_ns - worst.start_ns,
                e.dur_ns,
                what,
                blame_name(telemetry::blame_of(e) as usize)
            );
        }
    }

    let alerts = flagship.planes.alerts(base.sessions as u32);
    flagship.planes.attach(&mut rep, flagship.makespan_ns, &alerts);
    rep.headline("tps", Json::F(flagship.tps()));
    rep.headline("critical_path_wire_share", Json::F(ff.wire_share()));
    rep.headline(
        "tail_lock_wait_share",
        Json::F(blame_share(&tail_blame(ff), Blame::LockWait as usize)),
    );
    report::emit(&rep);

    println!(
        "\nShape check: skew pushes the tail's blame onto lock_wait naming the \
         antagonist, and every exemplar is >=90% attributed."
    );
}
