//! Property tests for the fabric-utilization plane: the Gini-style
//! imbalance index must be a true skew measure (zero on uniform load,
//! monotone as load concentrates on one node, permutation-invariant),
//! and [`telemetry::utilization::fold`] must turn a random multi-session
//! verb stream into the snapshot a `BTreeMap` count of the same stream
//! gives, whatever order the sessions come in.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use telemetry::utilization::fold;
use telemetry::{gini, heat_key, PhaseLoad, TopEntry, VerbLoad, MAX_WINDOWS, OTHER_BUCKET, UTIL_PHASES};

const BIG: u64 = 1 << 40;
const MID: u64 = 1 << 30;

/// One generated verb: `(end time, node, offset, ingress, bytes, remote
/// ns, queue ns, phase)`, drawn so sessions hit overlapping nodes,
/// ranges and windows, and runs go past `MAX_WINDOWS` base windows.
type GenOp = ((u64, u8, u32, bool), (u16, u16, u16, u8));

fn ops() -> impl Strategy<Value = Vec<GenOp>> {
    proptest::collection::vec(
        (
            (0u64..1 << 18, 0u8..4, 0u32..1 << 20, any::<bool>()),
            (0u16..2048, 0u16..500, 0u16..100, 0u8..12),
        ),
        0..24,
    )
}

fn load(&((end_ns, node, offset, ingress), (bytes, ns, queue, phase)): &GenOp) -> VerbLoad {
    VerbLoad {
        end_ns,
        node: node as u64,
        offset: offset as u64,
        ingress,
        bytes: bytes as u64,
        remote_ns: ns as u64,
        queue_ns: queue as u64,
        phase: phase as usize,
    }
}

/// What a list with these totals ranks as: its nonzero totals, heaviest
/// first, ties by key.
fn ranked(totals: &BTreeMap<u64, u64>) -> Vec<TopEntry> {
    let mut v: Vec<TopEntry> =
        totals.iter().filter(|t| *t.1 > 0).map(|(&key, &count)| TopEntry { key, count }).collect();
    v.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
    v
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
    /// Uniform load means zero skew — exactly, not approximately.
    #[test]
    fn gini_is_zero_for_uniform_load(load in 1u64..BIG, n in 1usize..64) {
        let loads = vec![load; n];
        prop_assert_eq!(gini(&loads), 0.0);
    }

    /// Shifting any amount of load from a lighter node onto the
    /// heaviest node never decreases the index, and full concentration
    /// lands on the (n-1)/n ceiling.
    #[test]
    fn gini_is_monotone_in_single_node_concentration(
        loads in proptest::collection::vec(1u64..1000, 2..16),
    ) {
        let mut loads = loads;
        let heaviest = (0..loads.len())
            .max_by_key(|&i| loads[i])
            .unwrap();
        let mut prev = gini(&loads);
        prop_assert!((0.0..=1.0).contains(&prev));
        // Step-by-step, drain every other node into the heaviest.
        for i in 0..loads.len() {
            if i == heaviest || loads[i] == 0 {
                continue;
            }
            let shift = loads[i].div_ceil(2);
            loads[i] -= shift;
            loads[heaviest] += shift;
            let g = gini(&loads);
            prop_assert!(
                g >= prev - 1e-12,
                "shifting load onto the heaviest node lowered gini: {} -> {}", prev, g
            );
            prev = g;
        }
        let total: u64 = loads.iter().sum();
        let n = loads.len();
        let mut concentrated = vec![0u64; n];
        concentrated[heaviest] = total;
        let ceiling = 1.0 - 1.0 / n as f64;
        prop_assert!((gini(&concentrated) - ceiling).abs() < 1e-12);
        prop_assert!(gini(&loads) <= ceiling + 1e-12);
    }

    /// The index reads the load multiset, not the node order.
    #[test]
    fn gini_is_permutation_invariant(
        loads in proptest::collection::vec(0u64..MID, 1..24),
        rot in 0usize..24,
    ) {
        let mut rotated = loads.clone();
        rotated.rotate_left(rot % loads.len());
        prop_assert_eq!(gini(&loads), gini(&rotated));
        let mut reversed = loads.clone();
        reversed.reverse();
        prop_assert_eq!(gini(&loads), gini(&reversed));
    }
}

proptest! {
    /// Up to four sessions, some untagged, fold to the reference count:
    /// the width is the base doubled until the last verb fits in
    /// `MAX_WINDOWS` windows, every window holds the sums (and the worst
    /// queue delay) of the verbs that ended in it, and every list and
    /// split is the `BTreeMap` total. Every order of the sessions folds
    /// to the same snapshot.
    #[test]
    fn a_multi_session_stream_folds_to_its_reference_in_every_session_order(
        streams in proptest::collection::vec((0u64..4, ops()), 1..5),
        base in prop_oneof![Just(100u64), Just(200), Just(400)],
    ) {
        let sessions: Vec<(u64, Vec<VerbLoad>)> =
            streams.iter().map(|(tag, ops)| (*tag, ops.iter().map(load).collect())).collect();
        let s = fold(base, &sessions);
        for order in orders(sessions.len()) {
            let reordered: Vec<(u64, Vec<VerbLoad>)> = order.iter().map(|&i| sessions[i].clone()).collect();
            prop_assert_eq!(&fold(base, &reordered), &s, "session order {:?}", order);
        }

        let all: Vec<&VerbLoad> = sessions.iter().flat_map(|(_, loads)| loads).collect();
        let Some(last) = all.iter().map(|l| l.end_ns).max() else {
            prop_assert!(s.is_empty());
            return Ok(());
        };
        let mut width = base;
        while last / width >= MAX_WINDOWS as u64 {
            width *= 2;
        }
        prop_assert_eq!(s.window_ns, width);
        prop_assert_eq!(s.len() as u64, last / width + 1);
        // (node, window) -> [ingress, egress, verbs, remote ns, worst queue].
        let mut windows: BTreeMap<(u64, u64), [u64; 5]> = BTreeMap::new();
        let mut heat: [BTreeMap<u64, u64>; 3] = Default::default();
        let mut by_session = BTreeMap::new();
        let mut by_phase = [PhaseLoad::default(); UTIL_PHASES];
        for (tag, loads) in &sessions {
            for l in loads {
                let w = windows.entry((l.node, l.end_ns / width)).or_default();
                w[if l.ingress { 0 } else { 1 }] += l.bytes;
                w[2] += 1;
                w[3] += l.remote_ns;
                w[4] = w[4].max(l.queue_ns);
                for (list, n) in heat.iter_mut().zip([l.bytes, 1, l.remote_ns]) {
                    *list.entry(heat_key(l.node, l.offset)).or_default() += n;
                }
                if *tag != 0 {
                    *by_session.entry(*tag).or_default() += l.bytes;
                }
                let p = &mut by_phase[l.phase.min(OTHER_BUCKET)];
                p.bytes += l.bytes;
                p.verbs += 1;
                p.remote_ns += l.remote_ns;
            }
        }
        let nodes: BTreeSet<u64> = windows.keys().map(|&(node, _)| node).collect();
        // Sorted by node id.
        prop_assert_eq!(s.nodes.iter().map(|n| n.node).collect::<Vec<_>>(), Vec::from_iter(nodes));
        for n in &s.nodes {
            for (i, w) in n.windows.iter().enumerate() {
                let want = windows.get(&(n.node, i as u64)).copied().unwrap_or_default();
                let got = [w.ingress_bytes, w.egress_bytes, w.verbs, w.remote_ns, w.queue_hwm_ns];
                prop_assert_eq!(got, want, "node {} window {}", n.node, i);
            }
        }
        prop_assert_eq!(s.heat_bytes.ranked(), ranked(&heat[0]));
        prop_assert_eq!(s.heat_verbs.ranked(), ranked(&heat[1]));
        prop_assert_eq!(s.heat_ns.ranked(), ranked(&heat[2]));
        prop_assert_eq!(s.by_session.ranked(), ranked(&by_session));
        let trimmed = by_phase.iter().rposition(|p| *p != PhaseLoad::default()).map_or(0, |i| i + 1);
        prop_assert_eq!(&s.by_phase[..], &by_phase[..trimmed]);
    }
}
