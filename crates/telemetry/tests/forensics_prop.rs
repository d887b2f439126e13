//! Property tests for tail-latency forensics: critical paths extracted
//! from randomly interleaved recorder event streams must agree with a
//! straight-line reference model (every nanosecond in exactly one blame
//! bucket), and per-session worst-K reservoirs must merge into the same
//! snapshot regardless of merge order or grouping.

use proptest::prelude::*;
use telemetry::{
    blame_of, extract, forensics_json, Blame, ForensicsCollector, ForensicsSnapshot, PathEvent,
    StepKind, BLAME_KINDS,
};

const SESSIONS: usize = 4;
const LOCK_ACQUIRE_PHASE: u8 = 2;
const COHERENCE_PHASE: u8 = 7;
const TWO_PC_PREPARE_PHASE: u8 = 5;
const TWO_PC_DECIDE_PHASE: u8 = 6;

/// One generated step: `(kind selector, gap before, duration, phase,
/// peer)`. The selector picks the step shape; phase is drawn over the
/// full bucket range so every blame arm gets exercised.
type GenStep = (u8, u64, u64, u8, u16);

fn build_step(sel: u8, phase: u8, peer: u16, ts: u64, dur: u64) -> PathEvent {
    let step = match sel % 6 {
        0 => StepKind::Wait { holder: 0xBEEF },
        1 => StepKind::Wait { holder: 0 },
        2 => StepKind::Fault,
        3 => StepKind::Verb { op: "READ", ok: true, lost_race: false },
        4 => StepKind::Verb { op: "CAS", ok: false, lost_race: true },
        _ => StepKind::Verb { op: "WRITE", ok: false, lost_race: false },
    };
    PathEvent { ts_ns: ts, dur_ns: dur, step, peer, phase: phase % 10, addr: 7 }
}

/// Straight-line reference: the blame bucket each step's time belongs
/// to, written out independently of `blame_of`'s match.
fn reference_blame(e: &PathEvent) -> Blame {
    match e.step {
        StepKind::Wait { holder } => {
            if holder == 0 {
                Blame::BackoffRetry
            } else {
                Blame::LockWait
            }
        }
        StepKind::Fault => Blame::BackoffRetry,
        StepKind::Verb { ok: true, .. } => match e.phase {
            LOCK_ACQUIRE_PHASE => Blame::LockWait,
            COHERENCE_PHASE => Blame::Coherence,
            TWO_PC_PREPARE_PHASE | TWO_PC_DECIDE_PHASE => Blame::TwoPc,
            _ => Blame::RemoteFetch,
        },
        StepKind::Verb { ok: false, lost_race, .. } => {
            if lost_race && e.phase == LOCK_ACQUIRE_PHASE {
                Blame::LockWait
            } else {
                Blame::BackoffRetry
            }
        }
    }
}

/// The body lives outside the `proptest!` macro: large bodies blow the
/// macro recursion limit.
fn check(txn_steps: Vec<Vec<GenStep>>, sessions: Vec<usize>) -> Result<(), String> {
    // Lay every transaction out on its own straight line: steps are
    // sequential (charged intervals never overlap on one virtual
    // clock), with un-evented gaps that must come back as
    // local_compute. Transactions overlap each other in time.
    let mut chains: Vec<(u64, u64, u64, Vec<PathEvent>)> = Vec::new(); // (trace, start, end, events)
    for (i, steps) in txn_steps.iter().enumerate() {
        let trace = (i as u64 + 1) << 32 | 1;
        let start = (i as u64 % 3) * 500; // overlap txns in virtual time
        let mut ts = start;
        let mut events = Vec::new();
        for &(sel, gap, dur, phase, peer) in steps {
            ts += gap;
            events.push(build_step(sel, phase, peer, ts, dur));
            ts += dur;
        }
        let end = ts + 100; // trailing un-evented tail
        chains.push((trace, start, end, events));
    }

    // The "ring": every transaction's events interleaved into one
    // stream ordered by timestamp (ties broken by trace, as distinct
    // sessions' rings would merge). Extraction sees only the filtered
    // per-trace view, exactly like `Endpoint::forensic_tail`.
    let mut ring: Vec<(u64, PathEvent)> = chains
        .iter()
        .flat_map(|(trace, _, _, evs)| evs.iter().map(|e| (*trace, *e)))
        .collect();
    ring.sort_by_key(|&(trace, e)| (e.ts_ns, trace));

    let mut per_session: Vec<ForensicsCollector> =
        (0..SESSIONS).map(|_| ForensicsCollector::new(3)).collect();
    let mut single = ForensicsCollector::new(3);
    for (i, (trace, start, end, evs)) in chains.iter().enumerate() {
        let mine: Vec<PathEvent> = ring
            .iter()
            .filter(|(t, _)| t == trace)
            .map(|&(_, e)| e)
            .collect();
        // Interleaving then filtering loses nothing and keeps order.
        prop_assert_eq!(&mine, evs);
        let t = extract(*trace, *start, *end, &mine, true, false);

        // Reference model: every nanosecond lands in exactly one bucket.
        let mut want = [0u64; BLAME_KINDS];
        let mut covered = 0;
        for e in evs {
            want[reference_blame(e) as usize] += e.dur_ns;
            covered += e.dur_ns;
        }
        want[Blame::LocalCompute as usize] += (end - start) - covered;
        prop_assert_eq!(t.blame_ns, want);
        prop_assert_eq!(t.blame_ns.iter().sum::<u64>(), t.total_ns);
        prop_assert_eq!(t.total_ns, end - start);
        prop_assert!((t.attributed_share() - 1.0).abs() < 1e-12);
        for e in &t.chain {
            prop_assert_eq!(blame_of(e), reference_blame(e));
        }

        // Two routes into a collector: the materialised path, and the
        // steps read in place off the ring. They must not differ.
        per_session[sessions[i % sessions.len()] % SESSIONS].record(t);
        single.record_steps(*trace, *start, *end, true, false, || {
            ring.iter().filter(|(t, _)| t == trace).map(|&(_, e)| e)
        });
    }

    // Merge order-independence: forward, reverse, and grouped folds all
    // land on the single-collector snapshot, byte-identical JSON
    // included.
    let per: Vec<ForensicsSnapshot> = per_session.iter().map(|c| c.snapshot()).collect();
    let mut fwd = ForensicsSnapshot::empty();
    for s in &per {
        fwd.merge(s);
    }
    let mut rev = ForensicsSnapshot::empty();
    for s in per.iter().rev() {
        rev.merge(s);
    }
    prop_assert_eq!(&fwd, &rev);
    let mut ab = per[0].clone();
    ab.merge(&per[1]);
    let mut cd = per[2].clone();
    cd.merge(&per[3]);
    let mut grouped = ab;
    grouped.merge(&cd);
    prop_assert_eq!(&fwd, &grouped);
    prop_assert_eq!(&fwd, &single.snapshot());
    prop_assert_eq!(forensics_json(&fwd).render(), forensics_json(&single.snapshot()).render());

    // The reservoir holds the K slowest, slowest first.
    let mut totals: Vec<(u64, u64)> =
        chains.iter().map(|(trace, s, e, _)| (e - s, *trace)).collect();
    totals.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let want: Vec<(u64, u64)> = totals.into_iter().take(3).collect();
    let got: Vec<(u64, u64)> = fwd.worst.iter().map(|t| (t.total_ns, t.trace)).collect();
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn interleaved_extraction_matches_straight_line_reference(
        txn_steps in proptest::collection::vec(
            proptest::collection::vec(
                (0u8..12, 0u64..200, 1u64..300, 0u8..12, 0u16..4),
                0..12,
            ),
            1..12,
        ),
        sessions in proptest::collection::vec(0usize..SESSIONS, 1..8),
    ) {
        check(txn_steps, sessions)?;
    }
}
