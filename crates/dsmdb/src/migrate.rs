//! Live page-range migration between memory nodes — the *online*
//! reshard.
//!
//! `Cluster::reshard` (Figure 3c) moves **metadata only**; this module
//! moves the bytes themselves while foreground traffic keeps
//! committing, which is what a memory-node join/leave needs. The
//! protocol is an epoch-fenced state machine whose descriptor lives in
//! DSM so any compute node can read — and, after a coordinator failure,
//! resolve — an in-flight migration:
//!
//! ```text
//!   Idle ──begin──► Preparing ──► Copying ──► HandingOver ──► Done
//!                       │            │             │
//!                       └────────────┴──── abort ──┴────────► Aborted
//! ```
//!
//! Every transition is a CAS on the descriptor's state word, which
//! packs the coordinator's membership epoch next to the state. After a
//! coordinator crash the recovery coordinator bumps the epoch and
//! rewrites the word; the zombie's next CAS — signed with the stale
//! epoch — fails, so a partitioned coordinator can never complete a
//! handover the cluster already rolled back.
//!
//! The copy itself is the [`RecordTable`] relocation overlay: while the
//! dual-ownership window is open, writes land on both homes (old first
//! — the old home stays authoritative until the flip), reads prefer the
//! new home once a key is below the copied watermark, and the final
//! commit re-copies the header words so live lease locks survive the
//! home change. The copier is paced: each chunk charges `pace_ns` of
//! local time on top of its verbs, so the migration tax is an honest
//! cost on the same virtual clock the foreground pays.

use std::sync::Arc;

use dsm::{DsmError, DsmLayer, DsmResult, GlobalAddr};
use rdma_sim::{Endpoint, Gauge, Metric};
use txn::table::RecordTable;

/// Where a migration stands, as recorded in its DSM descriptor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MigrationState {
    /// No migration in flight.
    #[default]
    Idle,
    /// Destination extent allocated, descriptor being filled in.
    Preparing,
    /// Dual-ownership window open; copier advancing the watermark.
    Copying,
    /// Fully copied; header re-copy and flip in progress.
    HandingOver,
    /// Range lives at its new home; old extent awaits reclamation.
    Done,
    /// Rolled back to single-owner state at the old home.
    Aborted,
}

impl MigrationState {
    fn to_word(self) -> u64 {
        match self {
            MigrationState::Idle => 0,
            MigrationState::Preparing => 1,
            MigrationState::Copying => 2,
            MigrationState::HandingOver => 3,
            MigrationState::Done => 4,
            MigrationState::Aborted => 5,
        }
    }

    fn from_word(w: u64) -> Self {
        match w & 0xFF {
            1 => MigrationState::Preparing,
            2 => MigrationState::Copying,
            3 => MigrationState::HandingOver,
            4 => MigrationState::Done,
            5 => MigrationState::Aborted,
            _ => MigrationState::Idle,
        }
    }
}

/// Migration failures. Fencing is a first-class outcome, not a DSM
/// error: a stale coordinator must *learn* it lost, then stand down.
#[derive(Debug)]
pub enum MigrateError {
    /// A state-word CAS found a different (state, epoch) than expected —
    /// another coordinator (or the recovery path) moved the machine.
    Fenced {
        /// State the caller assumed.
        expected: MigrationState,
        /// State actually found.
        found: MigrationState,
        /// Epoch found in the word.
        found_epoch: u64,
    },
    /// The underlying DSM verb failed.
    Dsm(DsmError),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Fenced {
                expected,
                found,
                found_epoch,
            } => write!(
                f,
                "fenced: expected {expected:?}, found {found:?} at epoch {found_epoch}"
            ),
            MigrateError::Dsm(e) => write!(f, "dsm: {e}"),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<DsmError> for MigrateError {
    fn from(e: DsmError) -> Self {
        MigrateError::Dsm(e)
    }
}

/// Result alias for migration operations.
pub type MigrateResult<T> = Result<T, MigrateError>;

// Descriptor layout: six 8-byte words.
const STATE_OFF: u64 = 0; //  (epoch << 8) | state
const LOW_OFF: u64 = 8;
const HIGH_OFF: u64 = 16;
const DST_OFF: u64 = 24; //  GlobalAddr::to_raw of the destination extent
const WATERMARK_OFF: u64 = 32;
const DESC_BYTES: u64 = 40;

fn pack(state: MigrationState, epoch: u64) -> u64 {
    (epoch << 8) | state.to_word()
}

/// What [`Migrator::recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Nothing was in flight.
    Clean,
    /// The handover had completed; the new home stands.
    AlreadyDone,
    /// An open window was rolled back to the old home.
    RolledBack(MigrationState),
}

/// Coordinator handle for live migrations of one [`RecordTable`].
///
/// One migration may be in flight at a time. The handle itself is
/// stateless beyond the descriptor address — any node can construct one
/// over the same descriptor and (with the current epoch) drive or
/// resolve the machine, which is exactly what coordinator failover
/// needs.
pub struct Migrator {
    layer: Arc<DsmLayer>,
    table: Arc<RecordTable>,
    desc: GlobalAddr,
    /// Local pacing charge per copier chunk (ns of virtual time), on
    /// top of the chunk's own verb costs. Zero = copy flat out.
    pace_ns: u64,
}

impl Migrator {
    /// Allocate the descriptor and return a coordinator handle.
    pub fn create(
        layer: &Arc<DsmLayer>,
        table: &Arc<RecordTable>,
        ep: &Endpoint,
        pace_ns: u64,
    ) -> DsmResult<Self> {
        let desc = layer.alloc(DESC_BYTES)?;
        layer.write_u64(ep, desc.offset_by(STATE_OFF), pack(MigrationState::Idle, 0))?;
        Ok(Self {
            layer: layer.clone(),
            table: table.clone(),
            desc,
            pace_ns,
        })
    }

    /// Re-attach to an existing descriptor (coordinator failover).
    pub fn attach(
        layer: &Arc<DsmLayer>,
        table: &Arc<RecordTable>,
        desc: GlobalAddr,
        pace_ns: u64,
    ) -> Self {
        Self {
            layer: layer.clone(),
            table: table.clone(),
            desc,
            pace_ns,
        }
    }

    /// The descriptor's address (hand to [`Migrator::attach`] on another
    /// node).
    pub fn descriptor(&self) -> GlobalAddr {
        self.desc
    }

    /// Current `(state, epoch)` per the descriptor.
    pub fn state(&self, ep: &Endpoint) -> DsmResult<(MigrationState, u64)> {
        let w = self.layer.read_u64(ep, self.desc.offset_by(STATE_OFF))?;
        Ok((MigrationState::from_word(w), w >> 8))
    }

    /// CAS the state word `from@epoch_from` → `to@epoch_to`; a mismatch
    /// means someone else moved the machine and surfaces as
    /// [`MigrateError::Fenced`].
    fn transition(
        &self,
        ep: &Endpoint,
        from: MigrationState,
        epoch_from: u64,
        to: MigrationState,
        epoch_to: u64,
    ) -> MigrateResult<()> {
        let expected = pack(from, epoch_from);
        let found = self.layer.cas(
            ep,
            self.desc.offset_by(STATE_OFF),
            expected,
            pack(to, epoch_to),
        )?;
        if found != expected {
            return Err(MigrateError::Fenced {
                expected: from,
                found: MigrationState::from_word(found),
                found_epoch: found >> 8,
            });
        }
        Ok(())
    }

    /// Open a migration of keys `[low, high)` to `dst_group`, signed
    /// with `epoch`: allocate the destination extent, open the
    /// dual-ownership window, and enter `Copying`.
    pub fn begin(
        &self,
        ep: &Endpoint,
        dst_group: usize,
        low: u64,
        high: u64,
        epoch: u64,
    ) -> MigrateResult<()> {
        // Claim the machine first so two coordinators cannot both
        // allocate extents.
        let (state, prev_epoch) = self.state(ep)?;
        match state {
            MigrationState::Idle | MigrationState::Done | MigrationState::Aborted => {}
            other => {
                return Err(MigrateError::Fenced {
                    expected: MigrationState::Idle,
                    found: other,
                    found_epoch: prev_epoch,
                })
            }
        }
        self.transition(ep, state, prev_epoch, MigrationState::Preparing, epoch)?;
        let base = self.table.begin_migration(dst_group, low, high)?;
        self.layer.write_u64(ep, self.desc.offset_by(LOW_OFF), low)?;
        self.layer.write_u64(ep, self.desc.offset_by(HIGH_OFF), high)?;
        self.layer
            .write_u64(ep, self.desc.offset_by(DST_OFF), base.to_raw())?;
        self.layer
            .write_u64(ep, self.desc.offset_by(WATERMARK_OFF), low)?;
        self.transition(ep, MigrationState::Preparing, epoch, MigrationState::Copying, epoch)?;
        ep.gauge_add(Gauge::MigrationInFlight, 1);
        Ok(())
    }

    /// Copy the next `max_keys` slots and publish the new watermark.
    /// Returns bytes moved; `0` means the range is fully copied. Charges
    /// the pacing tax on top of the verbs.
    pub fn copy_step(&self, ep: &Endpoint, max_keys: u64) -> MigrateResult<u64> {
        let moved = self.table.migrate_chunk(ep, max_keys)?;
        if moved > 0 {
            ep.series_note(Metric::MigratedBytes, moved);
            if self.pace_ns > 0 {
                ep.charge_local(self.pace_ns);
            }
            if let Some((_, _, wm)) = self.table.migration_progress() {
                self.layer
                    .write_u64(ep, self.desc.offset_by(WATERMARK_OFF), wm)?;
            }
        }
        Ok(moved)
    }

    /// Enter the handover: the `Copying → HandingOver` CAS is the fence
    /// — a coordinator whose epoch went stale fails here (or at the
    /// final CAS) and must not touch the table. After this, drive
    /// [`Migrator::drain_step`] until it returns 0, then
    /// [`Migrator::finish_handover`].
    pub fn start_handover(&self, ep: &Endpoint, epoch: u64) -> MigrateResult<()> {
        self.transition(ep, MigrationState::Copying, epoch, MigrationState::HandingOver, epoch)
    }

    /// Re-copy the next `max_keys` keys' header words to the new home
    /// (doorbell-batched). Returns header bytes drained; 0 means the
    /// drain is complete. Charges the pacing tax like a copy step, so
    /// the handover is spread across virtual time instead of booked in
    /// one serial burst.
    pub fn drain_step(&self, ep: &Endpoint, max_keys: u64) -> MigrateResult<u64> {
        let drained = self.table.drain_headers_chunk(ep, max_keys)?;
        if drained > 0 {
            ep.series_note(Metric::MigratedBytes, drained);
            if self.pace_ns > 0 {
                ep.charge_local(self.pace_ns);
            }
        }
        Ok(drained)
    }

    /// Finish the handover: drain any remaining headers and flip the
    /// range to its new home permanently.
    pub fn finish_handover(&self, ep: &Endpoint, epoch: u64) -> MigrateResult<()> {
        self.table.commit_migration(ep)?;
        self.transition(ep, MigrationState::HandingOver, epoch, MigrationState::Done, epoch)?;
        ep.gauge_add(Gauge::MigrationInFlight, -1);
        Ok(())
    }

    /// Hand over in one call: fence, drain everything, flip.
    pub fn commit(&self, ep: &Endpoint, epoch: u64) -> MigrateResult<()> {
        self.start_handover(ep, epoch)?;
        self.finish_handover(ep, epoch)
    }

    /// Roll the open window back to single-owner state at the old home
    /// and free the destination extent.
    pub fn abort(&self, ep: &Endpoint, epoch: u64) -> MigrateResult<()> {
        let (state, prev_epoch) = self.state(ep)?;
        match state {
            MigrationState::Preparing | MigrationState::Copying | MigrationState::HandingOver => {}
            other => {
                return Err(MigrateError::Fenced {
                    expected: MigrationState::Copying,
                    found: other,
                    found_epoch: prev_epoch,
                })
            }
        }
        self.transition(ep, state, prev_epoch, MigrationState::Aborted, epoch)?;
        self.table.abort_migration()?;
        ep.gauge_add(Gauge::MigrationInFlight, -1);
        Ok(())
    }

    /// Resolve an in-flight migration after its coordinator crashed or
    /// was partitioned away. Called by the recovery coordinator *after*
    /// bumping the membership epoch to `new_epoch`: reads the
    /// descriptor and — unless the handover already completed — rolls
    /// back to the old home, re-signing the state word so the zombie's
    /// eventual CAS fails.
    pub fn recover(&self, ep: &Endpoint, new_epoch: u64) -> MigrateResult<RecoveryOutcome> {
        let (state, prev_epoch) = self.state(ep)?;
        match state {
            MigrationState::Idle => Ok(RecoveryOutcome::Clean),
            MigrationState::Done | MigrationState::Aborted => {
                // Terminal; nothing to resolve. Re-sign so a zombie
                // cannot reuse the old word.
                self.transition(ep, state, prev_epoch, state, new_epoch)?;
                Ok(if state == MigrationState::Done {
                    RecoveryOutcome::AlreadyDone
                } else {
                    RecoveryOutcome::Clean
                })
            }
            MigrationState::Preparing | MigrationState::Copying | MigrationState::HandingOver => {
                self.transition(ep, state, prev_epoch, MigrationState::Aborted, new_epoch)?;
                self.table.abort_migration()?;
                ep.gauge_add(Gauge::MigrationInFlight, -1);
                Ok(RecoveryOutcome::RolledBack(state))
            }
        }
    }

    /// Drive a whole migration to completion: begin, copy in
    /// `chunk_keys` steps, commit. Convenience for tests and clean runs.
    pub fn run_to_completion(
        &self,
        ep: &Endpoint,
        dst_group: usize,
        low: u64,
        high: u64,
        epoch: u64,
        chunk_keys: u64,
    ) -> MigrateResult<u64> {
        self.begin(ep, dst_group, low, high, epoch)?;
        let mut total = 0;
        loop {
            let moved = self.copy_step(ep, chunk_keys)?;
            if moved == 0 {
                break;
            }
            total += moved;
        }
        self.commit(ep, epoch)?;
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::DsmConfig;
    use rdma_sim::{Fabric, NetworkProfile};

    fn setup() -> (Arc<Fabric>, Arc<DsmLayer>, Arc<RecordTable>, Endpoint) {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 4 << 20,
                replication: 1,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        );
        let table = Arc::new(RecordTable::create(&layer, 64, 32, 1).unwrap());
        let ep = fabric.endpoint();
        (fabric, layer, table, ep)
    }

    #[test]
    fn full_migration_walks_the_state_machine() {
        let (_f, layer, table, ep) = setup();
        for k in 0..64 {
            layer
                .write(&ep, table.payload_addr(k, 0), &[k as u8; 32])
                .unwrap();
        }
        let dst = layer.join_group(4 << 20, 1, 4.0);
        let m = Migrator::create(&layer, &table, &ep, 50).unwrap();
        assert_eq!(m.state(&ep).unwrap().0, MigrationState::Idle);
        let moved = m.run_to_completion(&ep, dst, 0, 64, 1, 16).unwrap();
        assert_eq!(moved, 64 * table.slot_size());
        assert_eq!(m.state(&ep).unwrap(), (MigrationState::Done, 1));
        let new_home = layer.group_primary(dst).id();
        for k in 0..64 {
            assert_eq!(table.slot_addr(k).node(), new_home);
            let mut buf = [0u8; 32];
            layer.read(&ep, table.payload_addr(k, 0), &mut buf).unwrap();
            assert_eq!(buf, [k as u8; 32]);
        }
    }

    #[test]
    fn stale_coordinator_is_fenced_after_recovery() {
        let (_f, layer, table, ep) = setup();
        let dst = layer.join_group(4 << 20, 1, 4.0);
        let m = Migrator::create(&layer, &table, &ep, 0).unwrap();
        m.begin(&ep, dst, 0, 32, 1).unwrap();
        while m.copy_step(&ep, 8).unwrap() > 0 {}
        // Coordinator goes silent mid-handover; the recovery path bumps
        // the epoch and rolls back.
        let recovered = Migrator::attach(&layer, &table, m.descriptor(), 0);
        assert_eq!(
            recovered.recover(&ep, 2).unwrap(),
            RecoveryOutcome::RolledBack(MigrationState::Copying)
        );
        assert_eq!(m.state(&ep).unwrap(), (MigrationState::Aborted, 2));
        // The zombie wakes up and tries to finish: fenced, table intact.
        let err = m.commit(&ep, 1).unwrap_err();
        assert!(
            matches!(
                err,
                MigrateError::Fenced {
                    found: MigrationState::Aborted,
                    found_epoch: 2,
                    ..
                }
            ),
            "got {err}"
        );
        assert!(table.migration_progress().is_none());
        // A fresh migration under the new epoch succeeds.
        recovered.run_to_completion(&ep, dst, 0, 32, 2, 8).unwrap();
        assert_eq!(recovered.state(&ep).unwrap(), (MigrationState::Done, 2));
    }

    #[test]
    fn recover_after_done_keeps_the_new_home() {
        let (_f, layer, table, ep) = setup();
        let dst = layer.join_group(4 << 20, 1, 4.0);
        let m = Migrator::create(&layer, &table, &ep, 0).unwrap();
        m.run_to_completion(&ep, dst, 0, 16, 1, 4).unwrap();
        let new_home = layer.group_primary(dst).id();
        assert_eq!(
            m.recover(&ep, 2).unwrap(),
            RecoveryOutcome::AlreadyDone
        );
        assert_eq!(table.slot_addr(3).node(), new_home);
    }

    #[test]
    fn abort_frees_the_window_and_gauge_balances() {
        let (_f, layer, table, ep) = setup();
        let dst = layer.join_group(4 << 20, 1, 4.0);
        let m = Migrator::create(&layer, &table, &ep, 0).unwrap();
        m.begin(&ep, dst, 8, 24, 3).unwrap();
        m.copy_step(&ep, 4).unwrap();
        m.abort(&ep, 3).unwrap();
        assert_eq!(m.state(&ep).unwrap(), (MigrationState::Aborted, 3));
        assert!(table.migration_progress().is_none());
        assert_eq!(ep.gauge_level(Gauge::MigrationInFlight), 0);
    }
}
