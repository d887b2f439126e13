//! Experiment O4: tail-latency forensics — where do the slowest
//! transactions actually spend their time?
//!
//! Part A replays the C2/O1 Zipf sweep (2PL, deterministic antagonist
//! squatting on Zipf-hot locks) with a read-mostly fleet — the classic
//! lock-convoy shape, where a cheap transaction's tail is set entirely
//! by whose lock it ran into — and extracts each transaction's
//! critical path: at theta 1.2 the worst-K exemplars must be
//! *lock-wait dominated*, with the blame pointing at the antagonist's
//! trace id. Part B replays the C13 crash (memory-node death + zombie
//! lease holder) where the same machinery must flip the tail's
//! dominant blame to *backoff/retry* — timed-out verbs and waits on a
//! holder that no longer exists.
//!
//! Every exemplar must attribute >= 90% of its virtual time to typed
//! blame categories; whatever coverage the ring provably lost is
//! reported as `unattributed`, never folded into a typed bucket. The
//! run also proves forensics capture is free: the flagship repeated
//! with recording off lands on the identical virtual makespan, and two
//! same-seed runs render byte-identical forensics JSON.
//!
//! The worst-K chains are additionally written to
//! `results/exp_o4_tailpath_exemplars.json` (CI uploads it) so a tail
//! regression in the gate comes with the exact event chains to read.

use bench::chaos::{run_chaos, ChaosConfig};
use bench::observatory::{run_observatory, ObsConfig, ObsOutcome};
use bench::report::{self, forensics_json, Json, Report};
use bench::{config, scale_down, table, ForensicsSnapshot};
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

/// Pool the worst-K exemplars' blame — the *tail's* mix, as opposed to
/// the all-transactions histogram.
fn tail_blame(s: &ForensicsSnapshot) -> [u64; BLAME_KINDS] {
    let mut b = [0u64; BLAME_KINDS];
    for t in &s.worst {
        for (acc, ns) in b.iter_mut().zip(t.blame_ns.iter()) {
            *acc += ns;
        }
    }
    b
}

/// The blame bucket that dominates the most worst-K exemplars (ties to
/// the lower index). Per-exemplar majority, not the pooled sum: one
/// freak outlier (say, a single lock CAS queued behind a mirror
/// rebuild's device time) must not get to speak for the whole tail.
fn tail_majority(s: &ForensicsSnapshot) -> usize {
    let mut votes = [0u32; BLAME_KINDS];
    for t in &s.worst {
        votes[t.dominant()] += 1;
    }
    let mut best = 0;
    for i in 1..BLAME_KINDS {
        if votes[i] > votes[best] {
            best = i;
        }
    }
    best
}

fn share_cells(blame: &[u64; BLAME_KINDS]) -> Vec<(&'static str, Json)> {
    let total: u64 = blame.iter().sum();
    (0..BLAME_KINDS)
        .map(|i| {
            let share = if total == 0 { 0.0 } else { blame[i] as f64 / total as f64 };
            (blame_name(i), Json::F(share))
        })
        .collect()
}

fn assert_attributed(name: &str, s: &ForensicsSnapshot) {
    for t in &s.worst {
        assert!(
            t.attributed_share() >= 0.90,
            "{name}: exemplar trace {} attributes only {:.1}% of its {} ns \
             (unattributed {} ns) — the >=90% floor is the whole point",
            t.trace,
            t.attributed_share() * 100.0,
            t.total_ns,
            t.blame_ns[Blame::Unattributed as usize],
        );
    }
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
        "O4: tail forensics — blame attribution across skew and crash",
    );
    rep.meta("seed", Json::U(base.seed));
    rep.meta("sessions", Json::U(base.sessions as u64));
    rep.meta("rounds", Json::U(rounds as u64));
    rep.meta("exemplars_k", Json::U(bench::EXEMPLARS as u64));

    // Part A: the C2 Zipf sweep. As skew rises the tail's blame must
    // migrate toward lock_wait on the antagonist's trace.
    table::header(&["theta", "txns", "p_dominant", "tail_dominant", "lock_wait", "remote", "attr_min"]);
    let mut flagship: Option<ObsOutcome> = None;
    for theta in THETAS {
        let cfg = ObsConfig { cc: CcProtocol::TplExclusive, theta, ..base };
        let out = run_observatory(&cfg);
        let f = &out.planes.forensics;
        let tail = tail_blame(f);
        let tail_total: u64 = tail.iter().sum();
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
            table::f2(if tail_total == 0 { 0.0 } else { tail[0] as f64 / tail_total as f64 }),
            table::f2(if tail_total == 0 { 0.0 } else { tail[1] as f64 / tail_total as f64 }),
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

    // Part B: the C13 crash. Failed verbs and zombie-held (holderless)
    // waits flip the tail's dominant blame to backoff/retry.
    let ccfg = ChaosConfig {
        seed: config::seed(0xC13),
        rounds: scale_down(900).max(9),
        ..ChaosConfig::default()
    };
    let chaos = run_chaos(&ccfg);
    let cf = &chaos.planes.forensics;
    let ctail = tail_blame(cf);
    println!();
    println!(
        "crash replay: {} txns, tail blame {:?}",
        cf.txns,
        (0..BLAME_KINDS).map(|i| (blame_name(i), ctail[i])).collect::<Vec<_>>()
    );
    assert_eq!(
        tail_majority(cf),
        Blame::BackoffRetry as usize,
        "crash worst-K must be backoff/retry dominated, got {ctail:?}"
    );
    assert_attributed("c13_crash", cf);
    let mut ccells = vec![
        ("txns", Json::U(cf.txns)),
        ("critical_path_wire_share", Json::F(cf.wire_share())),
        ("tail_dominant", Json::S(blame_name(tail_majority(cf)).into())),
    ];
    ccells.extend(share_cells(&ctail));
    rep.row("c13_crash", ccells);

    // Zero-cost proof: identical flagship with all recording off lands
    // on the identical virtual makespan and commit count.
    let off = run_observatory(&ObsConfig {
        cc: CcProtocol::TplExclusive,
        theta: 1.2,
        trace_ring: 0,
        window_ns: 0,
        ..base
    });
    assert_eq!(
        off.makespan_ns, flagship.makespan_ns,
        "forensics capture must cost 0 virtual ns"
    );
    assert_eq!(off.commits, flagship.commits);
    println!(
        "zero-cost: makespan {} ns with forensics on == {} ns off",
        flagship.makespan_ns, off.makespan_ns
    );

    // Determinism proof: a same-seed rerun renders byte-identical
    // forensics JSON, exemplar chains included.
    let rerun = run_observatory(&ObsConfig { cc: CcProtocol::TplExclusive, theta: 1.2, ..base });
    assert_eq!(
        forensics_json(ff).render(),
        forensics_json(&rerun.planes.forensics).render(),
        "same-seed forensics must be byte-identical"
    );
    println!("determinism: same-seed rerun renders byte-identical forensics JSON");

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

    flagship.planes.attach(&mut rep, flagship.makespan_ns, base.sessions as u32);
    rep.headline("tps", Json::F(flagship.tps()));
    rep.headline("critical_path_wire_share", Json::F(ff.wire_share()));
    rep.headline("tail_lock_wait_share", Json::F({
        let ftail = tail_blame(ff);
        let t: u64 = ftail.iter().sum();
        if t == 0 { 0.0 } else { ftail[Blame::LockWait as usize] as f64 / t as f64 }
    }));
    rep.headline("crash_tail_backoff_share", Json::F({
        let t: u64 = ctail.iter().sum();
        if t == 0 { 0.0 } else { ctail[Blame::BackoffRetry as usize] as f64 / t as f64 }
    }));
    report::emit(&rep);

    // Always write the worst-K artifact: the gate's debugging evidence.
    let artifact = Json::obj(vec![
        ("c2_theta1.2", forensics_json(ff)),
        ("c13_crash", forensics_json(cf)),
    ]);
    let path = report::results_dir().join("exp_o4_tailpath_exemplars.json");
    match std::fs::write(&path, artifact.render_pretty(2)) {
        Ok(()) => println!("\nwrote {} (worst-K exemplar chains)", path.display()),
        Err(e) => eprintln!("warning: could not write exemplar artifact: {e}"),
    }

    println!(
        "\nShape check: skew pushes the tail's blame onto lock_wait naming the \
         antagonist; the crash flips it to backoff_retry; every exemplar is \
         >=90% attributed; capture costs 0 virtual ns and is byte-deterministic."
    );
}
