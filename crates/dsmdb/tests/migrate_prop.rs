//! Property test for the dual-ownership migration window: random
//! interleavings of foreground writes, reads, lock leaks, copy steps,
//! handover drains, epoch bumps (coordinator failover + rollback) and
//! flips must never lose a write, never serve a stale read — before,
//! during, or after the flip — and never let two live homes diverge.
//!
//! A plain array is the reference model: writes update it, every read
//! (routed through `payload_read_addr`, i.e. wherever the overlay says
//! the key currently lives) must agree with it, and after the final
//! flip every key is audited once more from its new single home.

use std::sync::Arc;

use dsm::{DsmConfig, DsmLayer};
use dsmdb::{MigrateError, Migrator, RecoveryOutcome};
use proptest::prelude::*;
use rdma_sim::{Fabric, NetworkProfile};
use txn::RecordTable;

const KEYS: u64 = 32;
const PAYLOAD: usize = 16;

#[derive(Debug, Clone, Copy)]
enum Step {
    /// Foreground write through `payload_write_targets` (old home first,
    /// then the dual home when the window covers the key).
    Write(u64, u64),
    /// Foreground read through `payload_read_addr`; must match the model.
    Read(u64),
    /// Leak a lease word (set the lock to a nonzero tag and leave it) —
    /// the drain must carry it to the new home at the flip.
    Leak(u64, u64),
    /// Advance the copier watermark by up to `n` keys.
    Copy(u64),
    /// Finish the copy and CAS `Copying -> HandingOver` (the fence).
    StartHandover,
    /// Drain up to `n` keys' header words to the new home.
    Drain(u64),
    /// Recovery coordinator bumps the epoch and rolls the window back;
    /// the zombie's stale-epoch commit must then be fenced.
    Bump,
    /// Open a window over `[low, low+width)`.
    Begin(u64, u64),
    /// Complete the handover and flip to the new home.
    Flip,
    /// If the key is dual-homed right now, read both homes raw and
    /// insist on byte equality (the divergence audit).
    Audit(u64),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            ((0u64..KEYS), (1u64..1 << 40)).prop_map(|(k, v)| Step::Write(k, v)),
            (0u64..KEYS).prop_map(Step::Read),
            ((0u64..KEYS), (1u64..1 << 20)).prop_map(|(k, t)| Step::Leak(k, t)),
            (1u64..8).prop_map(Step::Copy),
            Just(Step::StartHandover),
            (1u64..16).prop_map(Step::Drain),
            Just(Step::Bump),
            ((0u64..KEYS), (1u64..KEYS)).prop_map(|(l, w)| Step::Begin(l, w)),
            Just(Step::Flip),
            (0u64..KEYS).prop_map(Step::Audit),
        ],
        1..120,
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Closed,
    Copying,
    Handing,
}

fn payload_bytes(v: u64) -> [u8; PAYLOAD] {
    let mut buf = [0u8; PAYLOAD];
    buf[0..8].copy_from_slice(&v.to_le_bytes());
    buf[8..16].copy_from_slice(&(!v).to_le_bytes());
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dual_ownership_window_never_loses_a_write(seq in steps()) {
        let fabric = Fabric::new(NetworkProfile::zero());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 2,
                capacity_per_node: 4 << 20,
                replication: 1,
                mem_cores: 1,
            },
        );
        let table = Arc::new(RecordTable::create(&layer, KEYS, PAYLOAD, 1).unwrap());
        let dst = layer.join_group(4 << 20, 1);
        let ep = fabric.endpoint();
        let m = Migrator::create(&layer, &table, &ep, 0).unwrap();

        let mut model = [0u64; KEYS as usize];
        let mut locks = [0u64; KEYS as usize];
        // Seed every slot so the redundant second payload half is
        // well-formed before any step runs.
        for k in 0..KEYS {
            let (primary, _) = table.payload_write_targets(k, 0);
            layer.write(&ep, primary, &payload_bytes(0)).unwrap();
        }
        let mut phase = Phase::Closed;
        let mut epoch = 1u64;
        // The last range that completed a flip (its keys must live on
        // `dst` at the end).
        let mut flipped: Option<(u64, u64)> = None;

        for &step in &seq {
            match step {
                Step::Write(k, v) => {
                    let bytes = payload_bytes(v);
                    let (primary, dual) = table.payload_write_targets(k, 0);
                    layer.write(&ep, primary, &bytes).unwrap();
                    if let Some(d) = dual {
                        layer.write(&ep, d, &bytes).unwrap();
                    }
                    model[k as usize] = v;
                }
                Step::Read(k) => {
                    let mut buf = [0u8; PAYLOAD];
                    layer.read(&ep, table.payload_read_addr(k, 0), &mut buf).unwrap();
                    prop_assert_eq!(
                        buf, payload_bytes(model[k as usize]),
                        "stale read of key {} in phase {:?}", k, phase
                    );
                }
                Step::Leak(k, tag) => {
                    // Sync words must be quiescent between their drain
                    // and the flip (the documented drain-granularity
                    // rule), so leaks stop once the drain begins.
                    if phase != Phase::Handing {
                        layer.write_u64(&ep, table.lock_addr(k), tag).unwrap();
                        locks[k as usize] = tag;
                    }
                }
                Step::Copy(n) => {
                    if phase == Phase::Copying {
                        m.copy_step(&ep, n).unwrap();
                    }
                }
                Step::StartHandover => {
                    if phase == Phase::Copying {
                        while m.copy_step(&ep, 8).unwrap() > 0 {}
                        m.start_handover(&ep, epoch).unwrap();
                        phase = Phase::Handing;
                    }
                }
                Step::Drain(n) => {
                    if phase == Phase::Handing {
                        m.drain_step(&ep, n).unwrap();
                    }
                }
                Step::Bump => {
                    if phase != Phase::Closed {
                        let rec = Migrator::attach(&layer, &table, m.descriptor(), 0);
                        let out = rec.recover(&ep, epoch + 1).unwrap();
                        prop_assert!(matches!(out, RecoveryOutcome::RolledBack(_)));
                        // The zombie coordinator wakes up with its stale
                        // epoch: every path must fence it.
                        prop_assert!(matches!(
                            m.commit(&ep, epoch),
                            Err(MigrateError::Fenced { .. })
                        ));
                        epoch += 1;
                        phase = Phase::Closed;
                    }
                }
                Step::Begin(low, width) => {
                    if phase == Phase::Closed {
                        let high = (low + width).min(KEYS);
                        if low < high {
                            m.begin(&ep, dst, low, high, epoch).unwrap();
                            phase = Phase::Copying;
                        }
                    }
                }
                Step::Flip => match phase {
                    Phase::Copying => {
                        while m.copy_step(&ep, 8).unwrap() > 0 {}
                        let (low, high, _) = table.migration_progress().unwrap();
                        m.commit(&ep, epoch).unwrap();
                        flipped = Some((low, high));
                        phase = Phase::Closed;
                    }
                    Phase::Handing => {
                        let (low, high, _) = table.migration_progress().unwrap();
                        m.finish_handover(&ep, epoch).unwrap();
                        flipped = Some((low, high));
                        phase = Phase::Closed;
                    }
                    Phase::Closed => {}
                },
                Step::Audit(k) => {
                    if let Some((old, new)) = table.dual_payload_addrs(k, 0) {
                        let (mut a, mut b) = ([0u8; PAYLOAD], [0u8; PAYLOAD]);
                        layer.read(&ep, old, &mut a).unwrap();
                        layer.read(&ep, new, &mut b).unwrap();
                        prop_assert_eq!(a, b, "dual homes of key {} diverged", k);
                        prop_assert_eq!(a, payload_bytes(model[k as usize]));
                    }
                }
            }
        }

        // Close any open window through the full handover path.
        if phase == Phase::Copying {
            while m.copy_step(&ep, 8).unwrap() > 0 {}
            let (low, high, _) = table.migration_progress().unwrap();
            m.commit(&ep, epoch).unwrap();
            flipped = Some((low, high));
        } else if phase == Phase::Handing {
            let (low, high, _) = table.migration_progress().unwrap();
            m.finish_handover(&ep, epoch).unwrap();
            flipped = Some((low, high));
        }

        // Single-owner audit: every key reads back the model from its
        // committed home, the drain carried every leaked lease, and the
        // last flipped range really lives on the destination group.
        let new_home = layer.group_primary(dst).id();
        for k in 0..KEYS {
            let mut buf = [0u8; PAYLOAD];
            layer.read(&ep, table.payload_read_addr(k, 0), &mut buf).unwrap();
            prop_assert_eq!(buf, payload_bytes(model[k as usize]), "lost write on key {}", k);
            prop_assert_eq!(
                layer.read_u64(&ep, table.lock_addr(k)).unwrap(),
                locks[k as usize],
                "drain dropped the lease word of key {}", k
            );
            if let Some((low, high)) = flipped {
                if k >= low && k < high {
                    prop_assert_eq!(table.slot_addr(k).node(), new_home);
                }
            }
        }
        prop_assert!(table.migration_progress().is_none(), "a window was left open");
    }
}
