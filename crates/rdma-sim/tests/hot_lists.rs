//! Every ranked list is an exact count. The six lists of a recorded
//! stream — contention's lock-wait and CAS-retry lists, and the three
//! heat lists and the session split that utilization folds out of it —
//! render as a `BTreeMap`
//! reference count, ranked (count desc, key asc) and cut at
//! `MERGED_TOP_K`. And contention snapshots holding more keys than a
//! report carries fold into the same bytes in every order.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rdma_sim::pack_addr;
use telemetry::contention::{self, Contended, ContentionTally, MERGED_TOP_K};
use telemetry::utilization::fold;
use telemetry::{heat_key, utilization_json, ContentionSnapshot, Json, VerbLoad};

/// The `(key, weight)` pairs of a rendered list.
fn pairs(list: Option<&Json>, key: &str, weight: &str) -> Vec<(u64, u64)> {
    let field = |e: &Json, name: &str| e.get(name).and_then(Json::as_u64).expect("numeric member");
    let items = list.and_then(Json::as_array).expect("a rendered list");
    items.iter().map(|e| (field(e, key), field(e, weight))).collect()
}

/// What a list with these totals must render as: its nonzero totals,
/// heaviest first, ties by key, cut at `MERGED_TOP_K`.
fn reference(totals: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = totals.iter().filter(|t| *t.1 > 0).map(|(&k, &n)| (k, n)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(MERGED_TOP_K);
    v
}

/// Mostly 0, 1 or 2, so totals tie constantly and the key order decides
/// the ranking.
fn weight() -> impl Strategy<Value = u16> {
    prop_oneof![0u16..3, 0u16..3, 0u16..3, 1u16..5000]
}

/// Contention on one of 48 lock words, a third of them on node 1 and a
/// third on node 2: `(word, lock-wait ns, whether a CAS on it was lost)`.
type Wait = (u8, u16, bool);

fn waits(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Wait>> {
    proptest::collection::vec((0u8..48, weight(), any::<bool>()), len)
}

/// The packed address of lock word `word`.
fn word_addr(word: u8) -> u64 {
    pack_addr(word as u16 % 3, word as u64 * 64)
}

/// The contention facts of `waits`, in order.
fn facts(waits: &[Wait]) -> Vec<Contended> {
    let mut out = Vec::new();
    for &(word, ns, lost) in waits {
        out.push(Contended::Wait { addr: word_addr(word), ns: ns as u64 });
        if lost {
            out.push(Contended::CasRetry { addr: word_addr(word) });
        }
    }
    out
}

/// The contention fold of `waits` from nothing.
fn record(waits: &[Wait]) -> ContentionSnapshot {
    contention::fold(&ContentionTally::default(), facts(waits))
}

/// One verb on one of 3 memory nodes, 24 heat ranges each, and the
/// session tag it and the verbs after it run under, if it starts a new
/// session (0 = untagged): `(node, offset, bytes, remote ns, tag)`.
type Verb = (u8, u32, u16, u16, u8);

fn verbs() -> impl Strategy<Value = Vec<Verb>> {
    proptest::collection::vec((0u8..3, 0u32..24 << 16, weight(), weight(), 0u8..8), 0..300)
}

proptest! {
    /// Every ranked list of a random stream is its reference count.
    #[test]
    fn every_ranked_list_is_the_reference_count_cut_at_merged_top_k(waits in waits(0..300), verbs in verbs()) {
        let (mut wait_ns, mut cas) = (BTreeMap::new(), BTreeMap::new());
        for &(word, ns, lost) in &waits {
            *wait_ns.entry(word_addr(word)).or_default() += ns as u64;
            *cas.entry(word_addr(word)).or_default() += lost as u64;
        }
        let c = record(&waits).to_json();
        prop_assert_eq!(pairs(c.get("top_wait_ns"), "key", "count"), reference(&wait_ns));
        prop_assert_eq!(pairs(c.get("top_cas_retries"), "key", "count"), reference(&cas));

        let mut sessions: Vec<(u64, Vec<VerbLoad>)> = vec![(0, Vec::new())];
        let mut heat: [BTreeMap<u64, u64>; 3] = Default::default();
        let (mut by_session, mut tag) = (BTreeMap::new(), 0);
        for (t, &(node, offset, bytes, ns, switch)) in verbs.iter().enumerate() {
            let (node, offset, bytes, ns) = (node as u64, offset as u64, bytes as u64, ns as u64);
            if switch < 4 {
                tag = switch as u64;
                sessions.push((tag, Vec::new()));
            }
            let ingress = t % 2 == 0;
            let load = VerbLoad { end_ns: t as u64 * 10, node, offset, ingress, bytes, remote_ns: ns, queue_ns: 0, phase: 0 };
            sessions.last_mut().expect("an open session").1.push(load);
            let key = heat_key(node, offset);
            for (list, w) in heat.iter_mut().zip([bytes, 1, ns]) {
                *list.entry(key).or_default() += w;
            }
            if tag != 0 {
                *by_session.entry(tag).or_default() += bytes;
            }
        }
        let u = utilization_json(&fold(1_000, &sessions));
        for (name, want) in ["by_bytes", "by_verbs", "by_remote_ns"].into_iter().zip(&heat) {
            let list = u.get("heat").and_then(|h| h.get(name));
            prop_assert_eq!(pairs(list, "key", "count"), reference(want), "heat.{}", name);
        }
        prop_assert_eq!(pairs(u.get("by_session"), "session", "bytes"), reference(&by_session));
    }

    /// Three or four snapshots, each with more distinct keys than a
    /// report carries, render the same bytes in every fold order, and
    /// folded from the right.
    #[test]
    fn contention_folds_render_the_same_in_every_order(
        streams in proptest::collection::vec(waits(0..120), 3..5),
    ) {
        let snaps: Vec<ContentionSnapshot> = streams
            .iter()
            .map(|waits| {
                // Seventeen distinct keys in both lists, whatever the
                // stream adds.
                let seed: Vec<Wait> = (0..MERGED_TOP_K as u8 + 1).map(|word| (word, 1, true)).collect();
                record(&[seed, waits.clone()].concat())
            })
            .collect();
        let fold = |order: &[usize]| {
            let mut acc = ContentionSnapshot::default();
            for &i in order {
                acc.merge(&snaps[i]);
            }
            acc.to_json().render()
        };
        let want = fold(&(0..snaps.len()).collect::<Vec<_>>());
        for order in orders(snaps.len()) {
            prop_assert_eq!(&fold(&order), &want, "fold order {:?}", order);
        }
        let right = snaps.iter().rev().fold(ContentionSnapshot::default(), |acc, s| {
            let mut s = s.clone();
            s.merge(&acc);
            s
        });
        prop_assert_eq!(right.to_json().render(), want);
    }
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

/// A key that no single snapshot ranks within the reported sixteen still
/// ranks first once the snapshots that each hold part of it are added,
/// whichever two are added first.
#[test]
fn a_key_split_over_snapshots_ranks_by_its_sum_in_every_grouping() {
    let snapshot = |waits: &[(u64, u64)]| {
        let facts = waits.iter().map(|&(addr, ns)| Contended::Wait { addr, ns });
        contention::fold(&ContentionTally::default(), facts)
    };
    let a = snapshot(&(0..16).map(|addr| (addr, 10)).collect::<Vec<_>>());
    let (b, c) = (snapshot(&[(100, 6)]), snapshot(&[(100, 6)]));
    let merged = |x: &ContentionSnapshot, y: &ContentionSnapshot| {
        let mut m = x.clone();
        m.merge(y);
        m
    };
    let left = merged(&merged(&a, &b), &c);
    let right = merged(&a, &merged(&b, &c));
    assert_eq!(left.to_json().render(), right.to_json().render());
    let top = pairs(left.to_json().get("top_wait_ns"), "key", "count");
    assert_eq!(top[0], (100, 12));
    assert_eq!(top.len(), MERGED_TOP_K);
}
