//! Property tests for the windowed time-series: merging per-session
//! snapshots is associative, commutative, and lossless against a
//! single-threaded reference recorder — including when sessions double
//! their window width at different points (long-running clocks) — and
//! the watchdog's alert log over the merged series, whose levels are
//! prefix sums of begin and end counters, is the log over the reference:
//! the determinism the alert plane's byte-identical-logs claim rests on.
//! The series and contention folds over per-session event streams do not
//! depend on how much of a stream an accumulator already absorbed (how
//! much a flight-recorder ring overwrote), nor on the session order.

use proptest::prelude::*;
use telemetry::contention::{self, Contended, ContentionTally};
use telemetry::timeseries::{self, SeriesNote};
use telemetry::watchdog::{run_over, WatchdogConfig};
use telemetry::{AlertEvent, AlertKind, ContentionSnapshot, Metric, SeriesRecorder, SeriesSnapshot, WaitEdge};

const SESSIONS: usize = 4;
/// Small base width so events up to 2^22 ns force several rounds of
/// width-doubling (MAX_WINDOWS * 16 ns only covers 2^13 ns).
const BASE_WIDTH_NS: u64 = 16;

fn record(events: &[(u64, usize, u64)]) -> SeriesSnapshot {
    let r = SeriesRecorder::new();
    r.enable(BASE_WIDTH_NS);
    for &(t, m, d) in events {
        r.note(t, Metric::ALL[m], d);
    }
    r.snapshot()
}

/// The body lives outside the `proptest!` macro: large bodies blow the
/// macro recursion limit.
fn check(mut events: Vec<(u64, usize, u64, usize)>) -> Result<(), String> {
    // Virtual clocks are monotone per producer; sorting mirrors that.
    events.sort_by_key(|&(t, ..)| t);

    // Reference: ONE recorder sees every event in clock order.
    let all: Vec<(u64, usize, u64)> = events.iter().map(|&(t, m, d, _)| (t, m, d)).collect();
    let reference = record(&all);

    // Per-session recorders: each session only sees its own events, so
    // sessions whose clocks stop early keep a finer width than the
    // longest-running one.
    let per: Vec<SeriesSnapshot> = (0..SESSIONS)
        .map(|sess| {
            let mine: Vec<(u64, usize, u64)> = events
                .iter()
                .filter(|&&(.., s)| s == sess)
                .map(|&(t, m, d, _)| (t, m, d))
                .collect();
            record(&mine)
        })
        .collect();

    // Commutative: forward fold == reverse fold.
    let mut left = SeriesSnapshot::empty();
    for s in &per {
        left.merge(s);
    }
    let mut rev = SeriesSnapshot::empty();
    for s in per.iter().rev() {
        rev.merge(s);
    }
    prop_assert_eq!(&left, &rev);

    // Associative: (a+b)+(c+d) == (((empty+a)+b)+c)+d.
    let mut ab = per[0].clone();
    ab.merge(&per[1]);
    let mut cd = per[2].clone();
    cd.merge(&per[3]);
    let mut grouped = ab;
    grouped.merge(&cd);
    prop_assert_eq!(&left, &grouped);

    // Lossless: the merged view IS the single-threaded view, window
    // for window — not just equal totals.
    prop_assert_eq!(&left, &reference);

    // And totals survive exactly (the report `totals` invariant).
    for m in Metric::ALL {
        let expect: u64 = all
            .iter()
            .filter(|&&(_, mi, _)| mi == m as usize)
            .map(|&(_, _, d)| d)
            .sum();
        prop_assert_eq!(left.total(m), expect);
    }
    Ok(())
}

/// One generated transaction attempt: (earliest begin, duration,
/// session, whether it commits, shuffle key).
type Txn = (u64, u64, usize, bool, u64);

/// `sess`'s attempts as `(instant, metric)` notes. A session runs one
/// attempt at a time: each begins at its generated instant or when the
/// previous one ended, whichever is later, and ends in a commit or an
/// abort.
fn session_notes(txns: &[Txn], sess: usize) -> Vec<(u64, Metric)> {
    let mut mine: Vec<Txn> = txns.iter().copied().filter(|t| t.2 == sess).collect();
    mine.sort_by_key(|t| t.0);
    let mut clock = 0;
    let mut out = Vec::new();
    for (begin, dur, _, commits, _) in mine {
        clock = clock.max(begin);
        out.push((clock, Metric::Begins));
        clock += dur;
        out.push((clock, if commits { Metric::Commits } else { Metric::Aborts }));
    }
    out
}

fn record_notes(notes: &[(u64, Metric)]) -> SeriesSnapshot {
    record(&notes.iter().map(|&(t, m)| (t, m as usize, 1)).collect::<Vec<_>>())
}

/// Per-session series merged in a generated order and in its reverse
/// give the single recorder's series, which passes the drain rule, and
/// the watchdog (stuck-session threshold 2 windows, so silences inside
/// long attempts open it) logs the same events over either. Returns the
/// log.
fn check_watchdog(txns: &[Txn]) -> Result<Vec<AlertEvent>, String> {
    let per: Vec<Vec<(u64, Metric)>> = (0..SESSIONS).map(|s| session_notes(txns, s)).collect();
    let mut all = per.concat();
    all.sort_by_key(|&(t, _)| t);
    let reference = record_notes(&all);

    let key = |sess: usize| txns.get(sess).map_or(0, |t| t.4);
    let mut pieces: Vec<(u64, SeriesSnapshot)> =
        per.iter().enumerate().map(|(s, notes)| (key(s), record_notes(notes))).collect();
    pieces.sort_by_key(|p| p.0);
    let mut shuffled = SeriesSnapshot::empty();
    for (_, p) in &pieces {
        shuffled.merge(p);
    }
    let mut reversed = SeriesSnapshot::empty();
    for (_, p) in pieces.iter().rev() {
        reversed.merge(p);
    }
    prop_assert_eq!(&shuffled, &reversed);
    prop_assert_eq!(&shuffled, &reference);
    let makespan = all.last().map_or(0, |&(t, _)| t);
    prop_assert_eq!(reference.violations(makespan), Vec::<String>::new());

    let mut cfg = WatchdogConfig::new(BASE_WIDTH_NS, SESSIONS as u32);
    cfg.stuck_windows = 2;
    let log = run_over(cfg.clone(), &shuffled, None);
    prop_assert_eq!(&log, &run_over(cfg, &reference, None));
    for pair in log.windows(2) {
        prop_assert!(pair[0].seq < pair[1].seq, "log must be seq-ordered");
        prop_assert!(pair[0].at_ns <= pair[1].at_ns, "log must be time-ordered");
    }
    Ok(log)
}

/// The property is not vacuous: one attempt outlasting several windows
/// while every other session is idle opens `stuck_session`.
#[test]
fn a_long_attempt_opens_stuck_session_in_the_merged_log() {
    let txns = [(0, 4_000, 0, true, 3), (100, 20, 1, false, 1), (9_000, 5, 1, true, 2)];
    let log = check_watchdog(&txns).unwrap();
    assert!(log.iter().any(|e| e.kind == AlertKind::StuckSession), "{log:?}");
}

/// One generated event of a session: `(time, kind, a, b)`. Kind 0 is a
/// verb, 1 a lost CAS, 2 a wait on a word in memory, 3 a local wait, 4-6
/// a wait-for edge (half the stream, so long streams overflow the edge
/// log), 7 a fan-out and 8 an upper layer's note.
type GenEvent = (u64, u8, u16, u16);

/// What a flight recorder would make of `ev`: its series note and its
/// contention fact.
fn translate(&(t, kind, a, b): &GenEvent) -> (Option<SeriesNote>, Option<Contended>) {
    let (a, b) = (a as u64, b as u64);
    let note = |deltas| Some(SeriesNote { at_ns: t, deltas });
    let wait = note([(Metric::LockWaits, 1), (Metric::LockWaitNs, b), (Metric::LockWaitNs, 0)]);
    match kind {
        0 => (note([(Metric::Reads, 1), (Metric::BytesWire, b), (Metric::WireRts, b % 2)]), None),
        1 => (note([(Metric::Cas, 1), (Metric::BytesWire, 8), (Metric::WireRts, 1)]), Some(Contended::CasRetry { addr: a })),
        2 => (wait, Some(Contended::Wait { addr: a, ns: b })),
        3 => (wait, None),
        4..=6 => (None, Some(Contended::Edge(WaitEdge { waiter: a % 5, holder: b % 5, addr: a % 3 }))),
        7 => (note([(Metric::Invals, b + 1), (Metric::Invals, 0), (Metric::Invals, 0)]), Some(Contended::Fanout(b + 1))),
        _ => (note([(Metric::Commits, 1), (Metric::Commits, 0), (Metric::Commits, 0)]), None),
    }
}

/// Both folds of `events` (in clock order) after accumulators absorbed
/// the first `absorbed` of them.
fn fold_split(events: &[GenEvent], absorbed: usize) -> (SeriesSnapshot, ContentionSnapshot) {
    let (series, tally) = (SeriesRecorder::new(), &mut ContentionTally::default());
    series.enable(BASE_WIDTH_NS);
    let (old, held) = events.split_at(absorbed);
    for (note, fact) in old.iter().map(translate) {
        note.into_iter().for_each(|n| series.note_all(n.at_ns, n.deltas));
        fact.into_iter().for_each(|f| tally.add(f));
    }
    let (notes, facts): (Vec<_>, Vec<_>) = held.iter().map(translate).unzip();
    (timeseries::fold(&series, notes.into_iter().flatten()), contention::fold(tally, facts.into_iter().flatten()))
}

fn check_folds(mut sessions: Vec<Vec<GenEvent>>, split: u64) -> Result<(), String> {
    let mut per = Vec::new();
    for events in &mut sessions {
        events.sort_by_key(|e| e.0);
        let whole = fold_split(events, 0);
        let absorbed = (split % (events.len() as u64 + 1)) as usize;
        prop_assert_eq!(&fold_split(events, absorbed), &whole, "absorbed {}", absorbed);
        prop_assert_eq!(&fold_split(events, events.len()), &whole);
        per.push(whole);
    }
    let mut all: Vec<GenEvent> = sessions.concat();
    all.sort_by_key(|e| e.0);
    let reference = fold_split(&all, 0).0;
    let mut contention_bytes = None;
    for order in orders(per.len()) {
        let (mut series, mut contention) = (SeriesSnapshot::empty(), ContentionSnapshot::default());
        for &i in &order {
            series.merge(&per[i].0);
            contention.merge(&per[i].1);
        }
        prop_assert_eq!(&series, &reference, "order {:?}", order);
        let bytes = contention.to_json().render();
        prop_assert_eq!(contention_bytes.get_or_insert_with(|| bytes.clone()), &bytes, "order {:?}", order);
    }
    Ok(())
}

/// Every order of `0..n`.
fn orders(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in orders(n - 1) {
        for at in 0..=rest.len() {
            let mut order = rest.clone();
            order.insert(at, n - 1);
            out.push(order);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn series_and_contention_folds_agree_at_every_split_and_session_order(
        sessions in proptest::collection::vec(
            proptest::collection::vec((0u64..1 << 22, 0u8..9, 0u16..64, 0u16..500), 0..1000),
            SESSIONS..SESSIONS + 1,
        ),
        split in any::<u64>(),
    ) {
        check_folds(sessions, split)?;
    }

    #[test]
    fn per_session_merge_is_lossless_and_order_free(
        events in proptest::collection::vec(
            (0u64..1 << 22, 0usize..Metric::ALL.len(), 1u64..100, 0usize..SESSIONS),
            1..200,
        ),
    ) {
        check(events)?;
    }

    #[test]
    fn watchdog_log_over_merged_sessions_matches_one_recorder(
        txns in proptest::collection::vec(
            (0u64..1 << 22, 0u64..1 << 16, 0usize..SESSIONS, any::<bool>(), any::<u64>()),
            1..100,
        ),
    ) {
        check_watchdog(&txns)?;
    }
}
