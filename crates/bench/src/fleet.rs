//! The two-key transfer fleet the chaos (C13, O2–O4) and reshard (E1)
//! harnesses both drive: seeded transfers between records, a
//! committed-transfer model kept beside them, and the two end-of-run
//! audits that compare the model and the lock words against DSM.
//!
//! Everything is deterministic in the seed: a transfer's keys and
//! amount are splitmix64 of `(seed, fleet member, round)`.

use dsmdb::{Cluster, Op, Session, TxnError};
use txn::{ExclusiveLock, LeaseLock, LockError, LockWord};

use crate::chaos::WindowStats;
use crate::AbortCauses;

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The fleet's virtual present: the furthest session clock.
pub(crate) fn max_clock(sessions: &[Session]) -> u64 {
    sessions
        .iter()
        .map(|s| s.endpoint().clock().now_ns())
        .max()
        .unwrap_or(0)
}

/// What the two end-of-run audits of a transfer-fleet run found; a
/// healthy engine leaves the first two at zero whatever was injected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Audit {
    /// Keys whose final DSM value diverged from the committed model.
    pub lost_writes: u64,
    /// Locks still held and unexpired after the fleet exited.
    pub stuck_locks: u64,
    /// Expired leftovers the janitor stole and cleared.
    pub janitor_reclaims: u64,
}

/// The committed-transfer model and abort tally of one run.
pub(crate) struct Fleet {
    seed: u64,
    /// What every record's counter must read once the run is over.
    model: Vec<i64>,
    /// Aborted attempts across the whole run, by typed cause.
    pub aborts: AbortCauses,
}

impl Fleet {
    pub fn new(seed: u64, records: u64) -> Self {
        Self { seed, model: vec![0; records as usize], aborts: AbortCauses::default() }
    }

    /// One transfer attempt by fleet member `t` in `round`: debit
    /// `hot` (when the caller pins the key) or a seeded key, credit
    /// another, and tally the outcome into `seg`. A commit updates the
    /// model; a typed abort is classified; an untyped failure is a bug
    /// in the engine and panics. Returns `(completion ns, latency ns)`.
    pub fn transfer(
        &mut self,
        s: &mut Session,
        t: usize,
        round: usize,
        hot: Option<u64>,
        seg: &mut WindowStats,
    ) -> (u64, u64) {
        let records = self.model.len() as u64;
        let mut r = splitmix64(self.seed ^ ((t as u64) << 32) ^ round as u64);
        let a = hot.unwrap_or(r % records);
        r = splitmix64(r);
        let mut b = r % records;
        if b == a {
            b = (b + 1) % records;
        }
        let delta = 1 + (r % 7) as i64;
        let ops = [Op::Rmw { key: a, delta: -delta }, Op::Rmw { key: b, delta }];
        let t0 = s.endpoint().clock().now_ns();
        let result = s.execute(&ops);
        let t1 = s.endpoint().clock().now_ns();
        match result {
            Ok(_) => {
                self.model[a as usize] -= delta;
                self.model[b as usize] += delta;
                seg.commits += 1;
            }
            Err(e) => {
                seg.aborts += 1;
                if let TxnError::Dsm(_) = e {
                    panic!("transfer fleet hit a non-typed failure: {e}");
                }
                self.aborts.classify(&e);
            }
        }
        (t1, t1.saturating_sub(t0))
    }

    /// The two audits every run ends with, from a fresh endpoint
    /// brought to the fleet's end time `t_end`. (1) No committed write
    /// lost: every record's DSM value equals the model exactly. (2) No
    /// lock held forever: a live, unexpired lock word after the fleet
    /// has exited would spin everyone forever; expired leftovers must
    /// be stealable, and the janitor steals and clears each.
    pub fn audit(&self, cluster: &Cluster, t_end: u64) -> Audit {
        let (layer, table) = (cluster.layer(), cluster.table());
        let lease_ns = cluster.config().lease_ns.expect("a transfer fleet runs leased");
        let janitor = LeaseLock::tag(998, 1, lease_ns);
        let ep = cluster.fabric().endpoint();
        let mut out = Audit::default();
        let mut buf = vec![0u8; cluster.config().payload_size];
        for (k, want) in self.model.iter().enumerate() {
            layer
                .read(&ep, table.payload_addr(k as u64, 0), &mut buf)
                .expect("post-run read");
            if i64::from_le_bytes(buf[0..8].try_into().unwrap()) != *want {
                out.lost_writes += 1;
            }
        }
        ep.charge_local(t_end.saturating_sub(ep.clock().now_ns()));
        for k in 0..self.model.len() as u64 {
            let addr = table.lock_addr(k);
            let word = layer.read_u64(&ep, addr).expect("lock read");
            if word == 0 {
                continue;
            }
            // No retry: an expired lease is stolen at once, anything else
            // is still held.
            let mut lock = [LockWord::new(addr)];
            match ExclusiveLock::acquire_set(layer, &ep, &mut lock, &mut [], janitor, 0) {
                Ok(()) => {
                    ExclusiveLock::release_set(layer, &ep, &[], &mut lock).expect("janitor owns the word it installed");
                    out.janitor_reclaims += 1;
                }
                Err(LockError::Busy) => out.stuck_locks += 1,
                Err(e) => panic!("lock audit: {e}"),
            }
        }
        out
    }
}
