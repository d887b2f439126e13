//! The fixed-slot record table CC protocols operate on.
//!
//! Records are identified by a dense `u64` key. Each slot lives in DSM
//! with the layout
//!
//! ```text
//! [ lock word (8) ][ rts (8) ][ wts_0 (8) | payload_0 ] ... [ wts_{V-1} | payload_{V-1} ]
//! ```
//!
//! * `lock` — the word the RDMA lock primitives CAS on;
//! * `rts`  — read timestamp (TSO/MVCC), holder count (shared-exclusive
//!   2PL) or, under exclusive 2PL with a coherent cache, the record's
//!   sharer bitmap ([`RecordTable::sharers_addr`]); unused by OCC;
//! * each version slot holds a write timestamp and the payload. With
//!   `versions = 1` this degenerates to the single-version layout 2PL and
//!   OCC use, where `wts_0` doubles as the OCC version counter.
//!
//! Slots are striped round-robin across mirror groups so every memory
//! node carries an even share (the pooled-memory premise of Figure 2).
//!
//! **Live relocation.** A table can migrate a key range to a fresh
//! extent on another group while transactions keep running
//! (`begin_migration` / `migrate_chunk` / `commit_migration`). During
//! the *dual-ownership window*, the old home stays authoritative:
//! lock, rts, and wts words keep resolving to it, payload writes go to
//! **both** homes once a key is below the copied watermark, and
//! payload reads prefer the new home for copied keys. Committing the
//! migration re-copies the (possibly changed) header words under the
//! relocation latch and flips the range permanently; live lease words
//! are carried across, so leases survive the home change. The copier
//! and the flip run under the relocation write latch, so foreground
//! address resolution (read latch) always sees a pre- or post-step
//! state, never a torn one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dsm::{DsmLayer, DsmResult, GlobalAddr};
use rdma_sim::Endpoint;

/// Byte offset of the lock word within a slot.
pub const LOCK_OFF: u64 = 0;
/// Byte offset of the read-timestamp word.
pub const RTS_OFF: u64 = 8;
/// Byte offset of version slot 0 (its wts word).
pub const VER0_OFF: u64 = 16;

/// An in-flight range migration: keys `[low, high)` are moving to a
/// contiguous extent at `base`; keys below `watermark` are copied and
/// dual-homed.
#[derive(Debug, Clone, Copy)]
struct ActiveMigration {
    low: u64,
    high: u64,
    base: GlobalAddr,
    watermark: u64,
    /// Header-drain cursor for the handover: keys below it have had
    /// their synchronization words re-copied to the new home.
    drained: u64,
}

/// A committed relocation: keys `[low, high)` live at `base` now.
#[derive(Debug, Clone, Copy)]
struct MovedRange {
    low: u64,
    high: u64,
    base: GlobalAddr,
}

/// Relocation overlay state, guarded by the table's relocation latch.
#[derive(Debug, Default)]
struct RelocState {
    /// At most one migration is in flight per table.
    active: Option<ActiveMigration>,
    /// Committed relocations; the latest covering range wins.
    moved: Vec<MovedRange>,
}

/// A fixed-slot, DSM-resident record table.
pub struct RecordTable {
    layer: Arc<DsmLayer>,
    /// Base address of this table's extent on each group.
    bases: Vec<GlobalAddr>,
    n_records: u64,
    payload_size: usize,
    versions: usize,
    /// Live-migration overlay (committed moves + the active window).
    reloc: parking_lot::RwLock<RelocState>,
    /// Fast-path flag: false until the first migration ever begins, so
    /// unmigrated tables never touch the relocation latch.
    relocated: AtomicBool,
}

impl RecordTable {
    /// Create a table of `n_records` slots of `payload_size` bytes with
    /// `versions` in-record versions (1 for single-version protocols).
    pub fn create(
        layer: &Arc<DsmLayer>,
        n_records: u64,
        payload_size: usize,
        versions: usize,
    ) -> DsmResult<Self> {
        assert!(n_records > 0 && versions >= 1);
        let groups = layer.group_count();
        let slot = Self::slot_size_for(payload_size, versions);
        let mut bases = Vec::with_capacity(groups);
        for g in 0..groups {
            // Records are striped: group g holds ceil((n - g)/groups) slots.
            let per_group = (n_records + groups as u64 - 1 - g as u64) / groups as u64;
            let bytes = (per_group.max(1)) * slot;
            bases.push(layer.alloc_on(g, bytes)?);
        }
        Ok(Self {
            layer: layer.clone(),
            bases,
            n_records,
            payload_size,
            versions,
            reloc: parking_lot::RwLock::new(RelocState::default()),
            relocated: AtomicBool::new(false),
        })
    }

    fn slot_size_for(payload_size: usize, versions: usize) -> u64 {
        let payload_rounded = (payload_size as u64 + 7) & !7;
        16 + versions as u64 * (8 + payload_rounded)
    }

    /// The DSM layer backing this table.
    pub fn layer(&self) -> &Arc<DsmLayer> {
        &self.layer
    }

    /// Number of record slots.
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    /// Payload bytes per record.
    pub fn payload_size(&self) -> usize {
        self.payload_size
    }

    /// In-record version count.
    pub fn versions(&self) -> usize {
        self.versions
    }

    /// Total slot bytes (header + all version slots).
    pub fn slot_size(&self) -> u64 {
        Self::slot_size_for(self.payload_size, self.versions)
    }

    /// Payload rounded up to 8 bytes (version-slot stride minus the wts).
    fn payload_stride(&self) -> u64 {
        (self.payload_size as u64 + 7) & !7
    }

    /// The slot address the original striping assigns to `key`.
    fn striped_slot_addr(&self, key: u64) -> GlobalAddr {
        let groups = self.bases.len() as u64;
        let group = (key % groups) as usize;
        let idx = key / groups;
        self.bases[group].offset_by(idx * self.slot_size())
    }

    /// The slot address in `key`'s *committed* home — striped layout
    /// overridden by the latest committed relocation covering the key.
    fn committed_slot_addr(&self, st: &RelocState, key: u64) -> GlobalAddr {
        for r in st.moved.iter().rev() {
            if key >= r.low && key < r.high {
                return r.base.offset_by((key - r.low) * self.slot_size());
            }
        }
        self.striped_slot_addr(key)
    }

    /// `key`'s slot in the destination extent of migration `act`.
    fn dst_slot_addr(&self, act: &ActiveMigration, key: u64) -> GlobalAddr {
        act.base.offset_by((key - act.low) * self.slot_size())
    }

    /// Base address of the record's slot (committed home: the old one
    /// while a migration of the key is still in its dual window —
    /// synchronization words live there until the flip).
    pub fn slot_addr(&self, key: u64) -> GlobalAddr {
        assert!(key < self.n_records, "key {key} out of range");
        if !self.relocated.load(Ordering::Acquire) {
            return self.striped_slot_addr(key);
        }
        let st = self.reloc.read();
        self.committed_slot_addr(&st, key)
    }

    /// Address of the record's lock word.
    pub fn lock_addr(&self, key: u64) -> GlobalAddr {
        self.slot_addr(key).offset_by(LOCK_OFF)
    }

    /// Address of the record's read-timestamp word.
    pub fn rts_addr(&self, key: u64) -> GlobalAddr {
        self.slot_addr(key).offset_by(RTS_OFF)
    }

    /// Address of the record's sharer word: under exclusive 2PL, which
    /// has no use for a read timestamp, a coherent cache keeps in the
    /// `rts` word the bitmap of compute nodes that may hold a copy. Only
    /// the holder of the record's lock reads or writes it, so it needs no
    /// atomics, and it sits 8 bytes past the lock word and 16 before the
    /// payload, so it travels in their doorbells.
    pub fn sharers_addr(&self, key: u64) -> GlobalAddr {
        self.rts_addr(key)
    }

    /// Address of version `v`'s write-timestamp word.
    pub fn wts_addr(&self, key: u64, v: usize) -> GlobalAddr {
        assert!(v < self.versions);
        self.slot_addr(key)
            .offset_by(VER0_OFF + v as u64 * (8 + self.payload_stride()))
    }

    /// Address of version `v`'s payload.
    pub fn payload_addr(&self, key: u64, v: usize) -> GlobalAddr {
        self.wts_addr(key, v).offset_by(8)
    }

    /// Byte offset of version `v`'s payload within a slot.
    fn payload_off(&self, v: usize) -> u64 {
        assert!(v < self.versions);
        VER0_OFF + v as u64 * (8 + self.payload_stride()) + 8
    }

    /// Where a payload *read* should go: the new home once the key has
    /// been copied (reads prefer the freshly-copied extent), otherwise
    /// the committed home.
    pub fn payload_read_addr(&self, key: u64, v: usize) -> GlobalAddr {
        assert!(key < self.n_records, "key {key} out of range");
        if !self.relocated.load(Ordering::Acquire) {
            return self.striped_slot_addr(key).offset_by(self.payload_off(v));
        }
        let st = self.reloc.read();
        if let Some(act) = &st.active {
            if key >= act.low && key < act.watermark {
                return self.dst_slot_addr(act, key).offset_by(self.payload_off(v));
            }
        }
        self.committed_slot_addr(&st, key).offset_by(self.payload_off(v))
    }

    /// Where a payload *write* must land: always the committed home,
    /// plus the new home while the key sits in an open dual-ownership
    /// window below the copied watermark (so the copier can never be
    /// overtaken by a write it did not see).
    pub fn payload_write_targets(&self, key: u64, v: usize) -> (GlobalAddr, Option<GlobalAddr>) {
        assert!(key < self.n_records, "key {key} out of range");
        if !self.relocated.load(Ordering::Acquire) {
            return (self.striped_slot_addr(key).offset_by(self.payload_off(v)), None);
        }
        let st = self.reloc.read();
        let old = self.committed_slot_addr(&st, key).offset_by(self.payload_off(v));
        if let Some(act) = &st.active {
            if key >= act.low && key < act.watermark {
                return (old, Some(self.dst_slot_addr(act, key).offset_by(self.payload_off(v))));
            }
        }
        (old, None)
    }

    /// Both live payload homes of a dual-homed key (old, new), or
    /// `None` when the key is not currently dual-homed. The divergence
    /// audit reads both and insists on byte equality.
    pub fn dual_payload_addrs(&self, key: u64, v: usize) -> Option<(GlobalAddr, GlobalAddr)> {
        if !self.relocated.load(Ordering::Acquire) {
            return None;
        }
        let st = self.reloc.read();
        let act = st.active.as_ref()?;
        if key >= act.low && key < act.watermark {
            let old = self.committed_slot_addr(&st, key).offset_by(self.payload_off(v));
            let new = self.dst_slot_addr(act, key).offset_by(self.payload_off(v));
            Some((old, new))
        } else {
            None
        }
    }

    /// Begin a live migration of keys `[low, high)` to a fresh extent
    /// on `dst_group`. Returns the destination base. One migration may
    /// be active per table.
    pub fn begin_migration(&self, dst_group: usize, low: u64, high: u64) -> DsmResult<GlobalAddr> {
        assert!(low < high && high <= self.n_records, "bad range {low}..{high}");
        let bytes = (high - low) * self.slot_size();
        let base = self.layer.alloc_on(dst_group, bytes)?;
        let mut st = self.reloc.write();
        assert!(st.active.is_none(), "one migration at a time");
        st.active = Some(ActiveMigration { low, high, base, watermark: low, drained: low });
        self.relocated.store(true, Ordering::Release);
        Ok(base)
    }

    /// Copy up to `max_keys` not-yet-copied slots old → new and advance
    /// the watermark, all under the relocation write latch (one atomic
    /// step against foreground address resolution). Verbs are charged
    /// to `ep` — the migration tax is paid on this clock. Returns bytes
    /// copied; 0 means the range is fully copied (or no migration is
    /// active). A fabric error leaves the watermark where it was; the
    /// re-copy on retry is idempotent.
    pub fn migrate_chunk(&self, ep: &Endpoint, max_keys: u64) -> DsmResult<u64> {
        let mut st = self.reloc.write();
        let Some(act) = st.active else { return Ok(0) };
        if act.watermark >= act.high {
            return Ok(0);
        }
        let slot = self.slot_size();
        let k1 = (act.watermark + max_keys.max(1)).min(act.high);
        let mut buf = vec![0u8; slot as usize];
        let mut copied = 0u64;
        for key in act.watermark..k1 {
            let src = self.committed_slot_addr(&st, key);
            let dst = self.dst_slot_addr(&act, key);
            self.layer.read(ep, src, &mut buf)?;
            self.layer.write(ep, dst, &buf)?;
            copied += slot;
        }
        st.active.as_mut().expect("still active").watermark = k1;
        Ok(copied)
    }

    /// `(low, high, watermark)` of the active migration, if any.
    pub fn migration_progress(&self) -> Option<(u64, u64, u64)> {
        if !self.relocated.load(Ordering::Acquire) {
            return None;
        }
        let st = self.reloc.read();
        st.active.map(|a| (a.low, a.high, a.watermark))
    }

    /// Re-copy the header words (lock, rts, wts — they may have changed
    /// since the slot body was copied; live lease words survive the
    /// home change this way) for up to `max_keys` keys above the drain
    /// cursor, as doorbell-batched reads and writes. Only legal once
    /// the body copy finished. Returns header bytes drained; 0 means
    /// the whole range is drained (or no migration is active).
    ///
    /// Drain granularity caveat: a key's synchronization words must be
    /// quiescent between its drain and the flip. Lease words are (a
    /// committed transaction leaves the lock word zero; a leaked lease
    /// is constant until stolen), but protocols that mutate rts/wts on
    /// every access must drain inside their quiesce point or re-drain
    /// at the flip.
    pub fn drain_headers_chunk(&self, ep: &Endpoint, max_keys: u64) -> DsmResult<u64> {
        let mut st = self.reloc.write();
        let Some(act) = st.active else { return Ok(0) };
        assert!(act.watermark >= act.high, "drain before copy finished");
        let k0 = act.drained;
        let k1 = (k0 + max_keys.max(1)).min(act.high);
        if k0 >= k1 {
            return Ok(0);
        }
        // Header prefix = lock + rts + wts_0 (contiguous 24 bytes);
        // later versions' wts words ride the same doorbell batch.
        const HDR: usize = (VER0_OFF + 8) as usize;
        let per_key = self.versions; // one HDR block + (versions-1) wts words
        let mut srcs: Vec<GlobalAddr> = Vec::with_capacity((k1 - k0) as usize * per_key);
        let mut dsts: Vec<GlobalAddr> = Vec::with_capacity(srcs.capacity());
        for key in k0..k1 {
            let src = self.committed_slot_addr(&st, key);
            let dst = self.dst_slot_addr(&act, key);
            srcs.push(src);
            dsts.push(dst);
            for v in 1..self.versions {
                let off = VER0_OFF + v as u64 * (8 + self.payload_stride());
                srcs.push(src.offset_by(off));
                dsts.push(dst.offset_by(off));
            }
        }
        let mut bufs: Vec<Vec<u8>> = (0..srcs.len())
            .map(|i| vec![0u8; if i % per_key == 0 { HDR } else { 8 }])
            .collect();
        let mut reads: Vec<(GlobalAddr, &mut [u8])> = srcs
            .iter()
            .copied()
            .zip(bufs.iter_mut().map(|b| &mut b[..]))
            .collect();
        self.layer.read_batch(ep, &mut reads)?;
        drop(reads);
        let writes: Vec<(GlobalAddr, &[u8])> = dsts
            .iter()
            .copied()
            .zip(bufs.iter().map(|b| &b[..]))
            .collect();
        self.layer.write_batch(ep, &writes)?;
        st.active.as_mut().expect("still active").drained = k1;
        Ok(bufs.iter().map(|b| b.len() as u64).sum())
    }

    /// Commit the fully-copied migration: drain any headers not yet
    /// re-copied by [`RecordTable::drain_headers_chunk`] and flip the
    /// range to its new home permanently. The old extent's bytes stay
    /// allocated until the group is drained or retired.
    pub fn commit_migration(&self, ep: &Endpoint) -> DsmResult<()> {
        while self.drain_headers_chunk(ep, 256)? > 0 {}
        let mut st = self.reloc.write();
        let act = st.active.expect("no active migration to commit");
        assert!(act.watermark >= act.high, "commit before copy finished");
        st.moved.push(MovedRange { low: act.low, high: act.high, base: act.base });
        st.active = None;
        Ok(())
    }

    /// Abort the active migration: drop the dual window and free the
    /// destination extent. Safe at any copy progress; a no-op when no
    /// migration is active.
    pub fn abort_migration(&self) -> DsmResult<()> {
        let mut st = self.reloc.write();
        if let Some(act) = st.active.take() {
            self.layer.free(act.base)?;
        }
        Ok(())
    }

    /// The group index a key's slot lives on (used by sharded layouts and
    /// offload routing). Reflects the original striping, not committed
    /// relocations — sharded architectures do not migrate.
    pub fn group_of(&self, key: u64) -> usize {
        (key % self.bases.len() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::DsmConfig;
    use rdma_sim::{Fabric, NetworkProfile};

    fn layer(groups: usize) -> Arc<DsmLayer> {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: groups,
                capacity_per_node: 4 << 20,
                replication: 1,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        )
    }

    #[test]
    fn slots_are_disjoint_and_striped() {
        let l = layer(3);
        let t = RecordTable::create(&l, 100, 24, 1).unwrap();
        // Keys 0,1,2 land on groups 0,1,2; keys 0 and 3 share a group but
        // different offsets.
        assert_ne!(t.slot_addr(0).node(), t.slot_addr(1).node());
        assert_eq!(t.slot_addr(0).node(), t.slot_addr(3).node());
        assert_eq!(
            t.slot_addr(3).offset() - t.slot_addr(0).offset(),
            t.slot_size()
        );
    }

    #[test]
    fn header_and_payload_addresses_are_aligned() {
        let l = layer(2);
        let t = RecordTable::create(&l, 10, 20, 3).unwrap();
        for k in 0..10 {
            assert_eq!(t.lock_addr(k).offset() % 8, 0);
            assert_eq!(t.rts_addr(k).offset() % 8, 0);
            for v in 0..3 {
                assert_eq!(t.wts_addr(k, v).offset() % 8, 0);
                assert_eq!(t.payload_addr(k, v).offset(), t.wts_addr(k, v).offset() + 8);
            }
        }
    }

    #[test]
    fn payload_roundtrip_through_dsm() {
        let l = layer(2);
        let t = RecordTable::create(&l, 16, 32, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 0..16u64 {
            let data = [k as u8; 32];
            l.write(&ep, t.payload_addr(k, 0), &data).unwrap();
        }
        for k in 0..16u64 {
            let mut buf = [0u8; 32];
            l.read(&ep, t.payload_addr(k, 0), &mut buf).unwrap();
            assert_eq!(buf, [k as u8; 32]);
        }
    }

    #[test]
    fn version_slots_do_not_overlap() {
        let l = layer(1);
        let t = RecordTable::create(&l, 4, 10, 2).unwrap();
        let ep = l.fabric().endpoint();
        l.write(&ep, t.payload_addr(1, 0), &[0xAA; 10]).unwrap();
        l.write(&ep, t.payload_addr(1, 1), &[0xBB; 10]).unwrap();
        let mut v0 = [0u8; 10];
        l.read(&ep, t.payload_addr(1, 0), &mut v0).unwrap();
        assert_eq!(v0, [0xAA; 10]);
        // Lock word of the *next* record untouched.
        assert_eq!(l.read_u64(&ep, t.lock_addr(2)).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_key_panics() {
        let l = layer(1);
        let t = RecordTable::create(&l, 4, 8, 1).unwrap();
        t.slot_addr(4);
    }

    #[test]
    fn migration_round_trip_flips_the_range_home() {
        let l = layer(2);
        let t = RecordTable::create(&l, 32, 16, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 0..32u64 {
            l.write(&ep, t.payload_addr(k, 0), &[k as u8; 16]).unwrap();
            l.write_u64(&ep, t.wts_addr(k, 0), 100 + k).unwrap();
        }
        let dst = l.join_group(4 << 20, 1, 4.0);
        let old_home = t.slot_addr(5).node();
        t.begin_migration(dst, 0, 32).unwrap();
        // Mid-copy: copied keys read from the new home, uncopied from old.
        while t.migrate_chunk(&ep, 8).unwrap() > 0 {
            let (low, _, wm) = t.migration_progress().unwrap();
            if wm > low && wm < 32 {
                assert_ne!(t.payload_read_addr(low, 0).node(), old_home);
                assert_eq!(t.payload_read_addr(wm, 0).node(), t.slot_addr(wm).node());
            }
        }
        // A write while dual-homed lands on both.
        let (w_old, w_new) = t.payload_write_targets(7, 0);
        let w_new = w_new.expect("dual window open below watermark");
        l.write(&ep, w_old, &[0xEE; 16]).unwrap();
        l.write(&ep, w_new, &[0xEE; 16]).unwrap();
        let (a, b) = t.dual_payload_addrs(7, 0).unwrap();
        assert_eq!((a, b), (w_old, w_new));
        t.commit_migration(&ep).unwrap();
        assert!(t.migration_progress().is_none());
        // Every key now resolves to the new extent, with its bytes and
        // header intact.
        let new_home = l.group_primary(dst).id();
        for k in 0..32u64 {
            assert_eq!(t.slot_addr(k).node(), new_home);
            let mut buf = [0u8; 16];
            l.read(&ep, t.payload_addr(k, 0), &mut buf).unwrap();
            let want = if k == 7 { [0xEE; 16] } else { [k as u8; 16] };
            assert_eq!(buf, want, "key {k}");
            assert_eq!(l.read_u64(&ep, t.wts_addr(k, 0)).unwrap(), 100 + k);
        }
        // Dual-homing is over.
        assert!(t.dual_payload_addrs(7, 0).is_none());
        assert!(t.payload_write_targets(7, 0).1.is_none());
    }

    #[test]
    fn commit_preserves_lease_words_written_after_body_copy() {
        let l = layer(1);
        let t = RecordTable::create(&l, 8, 8, 2).unwrap();
        let ep = l.fabric().endpoint();
        let dst = l.join_group(4 << 20, 1, 4.0);
        t.begin_migration(dst, 2, 6).unwrap();
        while t.migrate_chunk(&ep, 2).unwrap() > 0 {}
        // A lease lands on the old (still authoritative) home after the
        // body copy — commit's header re-copy must carry it over.
        l.write_u64(&ep, t.lock_addr(3), 0xDEAD_BEEF).unwrap();
        l.write_u64(&ep, t.wts_addr(4, 1), 777).unwrap();
        t.commit_migration(&ep).unwrap();
        assert_eq!(l.read_u64(&ep, t.lock_addr(3)).unwrap(), 0xDEAD_BEEF);
        assert_eq!(l.read_u64(&ep, t.wts_addr(4, 1)).unwrap(), 777);
    }

    #[test]
    fn abort_rolls_back_to_single_owner() {
        let l = layer(1);
        let t = RecordTable::create(&l, 8, 8, 1).unwrap();
        let ep = l.fabric().endpoint();
        let before: Vec<GlobalAddr> = (0..8).map(|k| t.slot_addr(k)).collect();
        let dst = l.join_group(4 << 20, 1, 4.0);
        t.begin_migration(dst, 0, 8).unwrap();
        t.migrate_chunk(&ep, 3).unwrap();
        t.abort_migration().unwrap();
        assert!(t.migration_progress().is_none());
        for (k, addr) in before.iter().enumerate() {
            assert_eq!(t.slot_addr(k as u64), *addr);
        }
        assert!(t.dual_payload_addrs(1, 0).is_none());
    }
}
