//! A RACE-style extendible hash index (§6, \[76\]).
//!
//! "RACE is a hash index for MD but it only uses one-sided RDMA. It
//! implements a lock-free multi-node CC protocol for the hash buckets."
//! The essentials reproduced here, each at the round trips RACE states:
//!
//! * **1-RT lookups** — the directory is cached locally (one immutable
//!   image shared by reference, swapped whole on refresh), and a lookup
//!   is one doorbell on the bucket's memory node: {READ bucket, READ
//!   header}. The second READ is the seqlock validation; it executes
//!   after the first because both are on one queue pair.
//! * **Lock-free inserts** — a slot is claimed by CASing its key word
//!   from 0 to a reservation marker, the value is written under that
//!   reservation, and only then is the real key published, so a
//!   concurrent reader never observes a half-initialized slot and two
//!   writers racing for the same free slot cannot pair one writer's key
//!   with the other's value. A fresh put is READ bucket, slot CAS, then
//!   {WRITE value, WRITE key, READ header} — the value never rides behind
//!   the claiming CAS, because a lost CAS must not touch the slot. An
//!   update is READ, then {WRITE value, READ header}; a delete READ, then
//!   {CAS tombstone, READ header}.
//! * **Extendible growth** — on overflow, a directory-lock-protected
//!   split doubles the directory (up to `MAX_GLOBAL_DEPTH`) and rehashes
//!   one bucket; handles detect stale directories by version and refresh.
//!   A split moves only what changed: it trusts its cached directory iff
//!   its version is the one read under the lock, writes the entries that
//!   now name the sibling with the version behind them, and writes a
//!   whole directory only when doubling.
//! * **A split finishes the put that found the bucket full** — the key
//!   goes into the rewritten half that covers it (over its own slot if a
//!   racing put landed it first), so a split that does not double is six
//!   round trips: READ bucket; {CAS directory lock, READ meta}; {CAS
//!   header, READ bucket}; {WRITE sibling, WRITE bucket, WRITE header};
//!   {WRITE entries, WRITE directory version}; {WRITE meta version, WRITE
//!   unlock}. If the key's half is full, or the snapshot holds a free or
//!   reserved slot, the put retries.
//!
//! **What shares a doorbell and what does not.** Members whose order
//! matters address the same memory node: a bucket and its header, the
//! words of one slot, the directory lock and the meta cell (the meta
//! version before the directory lock's release), directory entries and
//! the directory version. Publication steps that cross nodes — sibling
//! bucket before the directory entry that names it, directory before
//! `meta` — stay separate round trips.
//!
//! Limitations mirroring RACE's scope: keys are nonzero `u64` (0 marks an
//! empty slot), values are `u64`, and deletes tombstone the slot. A slot
//! is two words, so a lookup that reads a key just before it is deleted
//! and its slot reused may pair it with the new tenant's value; RACE's
//! slots are one word and do not have this window.

use std::sync::Arc;

use dsm::{DsmLayer, DsmResult, GlobalAddr, GlobalWr};
use parking_lot::Mutex;
use rdma_sim::{Endpoint, Phase};

/// Slots per bucket.
pub const BUCKET_SLOTS: usize = 8;
/// Directory doubling limit (2^this buckets max).
pub const MAX_GLOBAL_DEPTH: u32 = 20;

/// Tombstone key marker (key slot occupied but logically deleted).
const TOMBSTONE: u64 = u64::MAX;

/// In-flight insert marker: the slot's key word holds this between the
/// claiming CAS and the value write, so no second writer can deposit a
/// value in a slot another insert already owns. Readers skip it (it
/// matches no real key) and splits reclaim it as dead.
const RESERVED: u64 = u64::MAX - 1;

// Bucket layout: [header u64][pattern u64][slots: (key u64, value u64) x N]
// * header — seqlock-style word: even value = 2 * local_depth (stable),
//   odd = a split is rewriting this bucket. Writers validate it after
//   claiming a slot; readers validate it around their scan.
// * pattern — the low `local_depth` hash bits every key in this bucket
//   shares. Operations verify `hash(key) & mask == pattern` so a stale
//   directory can never route a key into a bucket that no longer covers
//   it (the classic extendible-hashing ownership check).
const BUCKET_SIZE: usize = 16 + BUCKET_SLOTS * 16;
const SLOT0: usize = 16;

// Meta cell: [dir_version][dir_lock][dir_addr raw][dir_depth]; the last
// two are read and written as one 16-byte unit.
const META_SIZE: usize = 32;
const META_LOCK: u64 = 8;
const META_DIR: u64 = 16;

#[inline]
fn header_depth(h: u64) -> u32 {
    (h / 2) as u32
}

#[inline]
fn header_is_splitting(h: u64) -> bool {
    h % 2 == 1
}

#[inline]
fn stable_header(depth: u32) -> u64 {
    depth as u64 * 2
}

// Remote directory layout: [version u64][depth u64][entries: raw addr x 2^depth]
const DIR_ENTRIES: u64 = 16;

fn dir_bytes(depth: u32) -> u64 {
    DIR_ENTRIES + (1u64 << depth) * 8
}

#[inline]
fn hash(key: u64) -> u64 {
    let mut x = key.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[inline]
fn word(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

#[inline]
fn is_reserved_key(key: u64) -> bool {
    key == 0 || key == TOMBSTONE || key == RESERVED
}

/// Local copy of a remote bucket.
struct Bucket([u8; BUCKET_SIZE]);

impl Bucket {
    fn zeroed() -> Self {
        Bucket([0; BUCKET_SIZE])
    }

    fn header(&self) -> u64 {
        word(&self.0, 0)
    }

    fn pattern(&self) -> u64 {
        word(&self.0, 8)
    }

    fn key(&self, slot: usize) -> u64 {
        word(&self.0, SLOT0 + slot * 16)
    }

    fn value(&self, slot: usize) -> u64 {
        word(&self.0, SLOT0 + slot * 16 + 8)
    }

    fn set(&mut self, off: usize, v: u64) {
        self.0[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn set_slot(&mut self, slot: usize, key: u64, value: u64) {
        self.set(SLOT0 + slot * 16, key);
        self.set(SLOT0 + slot * 16 + 8, value);
    }

    /// The slot holding `key`.
    fn find(&self, key: u64) -> Option<usize> {
        (0..BUCKET_SLOTS).find(|&s| self.key(s) == key)
    }

    /// Ownership check: does this bucket's (depth, pattern) cover `key`?
    fn covers(&self, key: u64) -> bool {
        hash(key) & ((1u64 << header_depth(self.header())) - 1) == self.pattern()
    }
}

/// Locally cached directory image. Immutable once built: a refresh or a
/// split swaps in a new one.
#[derive(Debug)]
struct Dir {
    version: u64,
    depth: u32,
    entries: Vec<u64>, // raw bucket addrs
}

impl Dir {
    fn bucket_for(&self, key: u64) -> GlobalAddr {
        let idx = (hash(key) & ((1u64 << self.depth) - 1)) as usize;
        GlobalAddr::from_raw(self.entries[idx])
    }

    fn decode(image: &[u8]) -> Dir {
        Dir {
            version: word(image, 0),
            depth: word(image, 8) as u32,
            entries: image[DIR_ENTRIES as usize..].chunks_exact(8).map(|c| word(c, 0)).collect(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let words = [self.version, self.depth as u64];
        words.iter().chain(&self.entries).flat_map(|w| w.to_le_bytes()).collect()
    }
}

/// A compute-node handle to a DSM-resident extendible hash index.
pub struct RaceHash {
    layer: Arc<DsmLayer>,
    /// Meta cell: [dir_version][dir_lock][dir_addr raw][dir_depth].
    meta: GlobalAddr,
    cache: Mutex<Option<Arc<Dir>>>,
    worker_tag: u64,
}

impl RaceHash {
    /// Create a fresh index with `initial_depth` (2^d buckets); returns
    /// the handle and the shared meta address.
    pub fn create(
        layer: &Arc<DsmLayer>,
        initial_depth: u32,
        worker_tag: u64,
    ) -> DsmResult<(Self, GlobalAddr)> {
        let ep = layer.fabric().endpoint();
        let meta = layer.alloc(META_SIZE as u64)?;
        let dir_addr = layer.alloc(dir_bytes(initial_depth))?;
        // Allocate buckets and fill the directory.
        let mut dir = Dir { version: 1, depth: initial_depth, entries: Vec::new() };
        let mut empty = Bucket::zeroed();
        empty.set(0, stable_header(initial_depth));
        for pattern in 0..1u64 << initial_depth {
            let b = layer.alloc(BUCKET_SIZE as u64)?;
            empty.set(8, pattern);
            layer.write(&ep, b, &empty.0[..SLOT0])?;
            dir.entries.push(b.to_raw());
        }
        layer.write(&ep, dir_addr, &dir.encode())?;
        // version mirror, lock = 0, where the directory is and how deep.
        let cell = [dir.version, 0, dir_addr.to_raw(), initial_depth as u64];
        layer.write(&ep, meta, &cell.map(u64::to_le_bytes).concat())?;
        let index = Self::open(layer, meta, worker_tag);
        index.install(dir);
        Ok((index, meta))
    }

    /// Open a handle onto an existing index.
    pub fn open(layer: &Arc<DsmLayer>, meta: GlobalAddr, worker_tag: u64) -> Self {
        Self {
            layer: layer.clone(),
            meta,
            cache: Mutex::new(None),
            worker_tag: worker_tag.max(1),
        }
    }

    /// Bytes of local memory the cached directory currently uses.
    pub fn cache_bytes(&self) -> usize {
        self.cache.lock().as_ref().map_or(0, |dir| dir_bytes(dir.depth) as usize)
    }

    /// Make `dir` the cached directory.
    fn install(&self, dir: Dir) -> Arc<Dir> {
        let dir = Arc::new(dir);
        *self.cache.lock() = Some(dir.clone());
        dir
    }

    /// READ the directory at `addr`, header and body in one verb. `None`
    /// if it is not `depth` deep: the meta cell that said so was read
    /// while a doubling was rewriting it.
    fn read_dir(&self, ep: &Endpoint, addr: GlobalAddr, depth: u32) -> DsmResult<Option<Dir>> {
        let mut image = vec![0u8; dir_bytes(depth) as usize];
        self.layer.read(ep, addr, &mut image)?;
        let dir = Dir::decode(&image);
        Ok((dir.depth == depth).then_some(dir))
    }

    /// Refresh the cached directory: one READ of where it is and how
    /// deep, one of the directory itself.
    fn fetch_dir(&self, ep: &Endpoint) -> DsmResult<Arc<Dir>> {
        loop {
            let mut at = [0u8; 16];
            self.layer.read(ep, self.meta.offset_by(META_DIR), &mut at)?;
            let addr = GlobalAddr::from_raw(word(&at, 0));
            if let Some(dir) = self.read_dir(ep, addr, word(&at, 8) as u32)? {
                return Ok(self.install(dir));
            }
        }
    }

    fn dir(&self, ep: &Endpoint) -> DsmResult<Arc<Dir>> {
        if let Some(dir) = self.cache.lock().clone() {
            ep.charge_local(40); // local directory probe
            return Ok(dir);
        }
        self.fetch_dir(ep)
    }

    /// READ the bucket `key` routes to, refreshing the directory until
    /// the bucket is stable and covers the key. With `revalidate`, the
    /// seqlock re-read of the header rides the same doorbell and the
    /// bucket is returned only if no split rewrote it in between.
    fn locate(&self, ep: &Endpoint, key: u64, revalidate: bool) -> DsmResult<(GlobalAddr, Bucket)> {
        assert!(!is_reserved_key(key), "reserved key");
        loop {
            let dir = self.dir(ep)?;
            let addr = dir.bucket_for(key);
            let mut bucket = Bucket::zeroed();
            let mut after = [0u8; 8];
            if revalidate {
                self.layer.doorbell(
                    ep,
                    &mut [
                        GlobalWr::Read { addr, dst: &mut bucket.0 },
                        GlobalWr::Read { addr, dst: &mut after },
                    ],
                )?;
            } else {
                self.layer.read(ep, addr, &mut bucket.0)?;
            }
            let header = bucket.header();
            if header_is_splitting(header) {
                std::hint::spin_loop();
                continue;
            }
            if header_depth(header) > dir.depth || !bucket.covers(key) {
                // Bucket split since we cached the directory.
                self.fetch_dir(ep)?;
                continue;
            }
            // Seqlock validation: if a split rewrote the bucket while we
            // scanned, our snapshot may pair keys with stale values.
            if revalidate && word(&after, 0) != header {
                continue;
            }
            return Ok((addr, bucket));
        }
    }

    /// Point lookup: one doorbell, the bucket READ and the
    /// header-validation READ behind it.
    pub fn get(&self, ep: &Endpoint, key: u64) -> DsmResult<Option<u64>> {
        let _span = ep.span(Phase::IndexLookup);
        let (_, bucket) = self.locate(ep, key, true)?;
        Ok(bucket.find(key).map(|s| bucket.value(s)))
    }

    /// [`Self::locate`] for a writer, charged to the index lookup.
    fn locate_for_write(&self, ep: &Endpoint, key: u64) -> DsmResult<(GlobalAddr, Bucket)> {
        let _span = ep.span(Phase::IndexLookup);
        self.locate(ep, key, false)
    }

    /// Refresh the directory after a write raced a split.
    fn refetch_dir(&self, ep: &Endpoint) -> DsmResult<()> {
        let _span = ep.span(Phase::IndexLookup);
        self.fetch_dir(ep).map(drop)
    }

    /// Insert (or update) `key -> value`.
    pub fn put(&self, ep: &Endpoint, key: u64, value: u64) -> DsmResult<()> {
        let _span = ep.span(Phase::Writeback);
        let bytes = value.to_le_bytes();
        loop {
            let (bucket_addr, bucket) = self.locate_for_write(ep, key)?;
            let header = bucket.header();
            let slot_addr = |s: usize| bucket_addr.offset_by((SLOT0 + s * 16) as u64);
            let mut after = [0u8; 8];
            if let Some(s) = bucket.find(key) {
                // Update in place. A concurrent split may have copied the
                // old value into a rewritten image; revalidate and redo.
                self.layer.doorbell(
                    ep,
                    &mut [
                        GlobalWr::Write { addr: slot_addr(s).offset_by(8), src: &bytes, unlock: false },
                        GlobalWr::Read { addr: bucket_addr, dst: &mut after },
                    ],
                )?;
                if word(&after, 0) == header {
                    return Ok(());
                }
                self.refetch_dir(ep)?;
                continue;
            }
            let free = (0..BUCKET_SLOTS).find(|&s| matches!(bucket.key(s), 0 | TOMBSTONE));
            let Some(s) = free else {
                // Bucket full: split it with the key in the half that
                // covers it; retry only if the split could not place it.
                if self.split_bucket(ep, key, value, bucket_addr, header)? {
                    return Ok(());
                }
                continue;
            };
            // Reserve the key word by CAS, write the value under the
            // reservation, then publish the real key. Claiming before
            // the value write is what makes the slot race safe: a
            // loser's CAS fails before it ever touches the value
            // word, and readers match neither RESERVED nor 0.
            let old_k = bucket.key(s);
            let claimed = {
                let _span = ep.span(Phase::LockAcquire);
                self.layer.cas(ep, slot_addr(s), old_k, RESERVED)? == old_k
            };
            if !claimed {
                continue; // lost the slot race; retry from the bucket read
            }
            // Validate against a concurrent split. The splitter
            // flips the header to odd *before* it reads the
            // bucket, so either (a) our published entry is in
            // its snapshot and survives the rewrite, or (b) the
            // snapshot caught RESERVED (reclaimed as dead) or
            // predates our claim — then the header we re-read
            // here already differs and we undo + retry.
            self.layer.doorbell(
                ep,
                &mut [
                    GlobalWr::Write { addr: slot_addr(s).offset_by(8), src: &bytes, unlock: false },
                    GlobalWr::Write { addr: slot_addr(s), src: &key.to_le_bytes(), unlock: false },
                    GlobalWr::Read { addr: bucket_addr, dst: &mut after },
                ],
            )?;
            if word(&after, 0) == header {
                return Ok(());
            }
            {
                let _span = ep.span(Phase::LockAcquire);
                self.layer.cas(ep, slot_addr(s), key, 0)?;
            }
            self.refetch_dir(ep)?;
        }
    }

    /// Delete `key`; returns whether it existed.
    pub fn delete(&self, ep: &Endpoint, key: u64) -> DsmResult<bool> {
        let _span = ep.span(Phase::Writeback);
        loop {
            let (bucket_addr, bucket) = self.locate_for_write(ep, key)?;
            let Some(s) = bucket.find(key) else {
                return Ok(false);
            };
            // Tombstone the key word, the validation READ behind it.
            let mut prev = 0;
            let mut after = [0u8; 8];
            self.layer.doorbell(
                ep,
                &mut [
                    GlobalWr::Cas {
                        addr: bucket_addr.offset_by((SLOT0 + s * 16) as u64),
                        expected: key,
                        new: TOMBSTONE,
                        prev: &mut prev,
                    },
                    GlobalWr::Read { addr: bucket_addr, dst: &mut after },
                ],
            )?;
            if word(&after, 0) == bucket.header() {
                return Ok(prev == key);
            }
            // Raced a split: the rewritten image may have resurrected the
            // key; retry the delete against the fresh layout.
            self.refetch_dir(ep)?;
        }
    }

    /// Split `bucket`, which the caller found full of live keys under the
    /// stable `header` and which `key` hashes to, doubling the directory
    /// if its local depth equals the global depth, and place `key ->
    /// value` in the rewritten half that covers it. Serialized by the
    /// directory lock in DSM, whose CAS brings the meta cell back with it.
    /// Returns whether the key was placed: not if the split found the
    /// bucket changed, or the key's half full.
    fn split_bucket(&self, ep: &Endpoint, key: u64, value: u64, bucket: GlobalAddr, header: u64) -> DsmResult<bool> {
        let lock = self.meta.offset_by(META_LOCK);
        let mut meta = [0u8; META_SIZE];
        {
            let _span = ep.span(Phase::LockAcquire);
            while !crate::lock_and_read(&self.layer, ep, lock, self.worker_tag, self.meta, &mut meta, None)? {
                std::hint::spin_loop();
            }
        }
        let split = self.split_bucket_locked(ep, key, value, bucket, header, &meta);
        if let Ok(Some(placed)) = split {
            return Ok(placed); // the unlock rode the publication
        }
        let unlocked = {
            let _span = ep.span(Phase::LockAcquire);
            self.layer.write_u64(ep, lock, 0)
        };
        split.and(unlocked).map(|()| false)
    }

    /// The split itself, under the directory lock. `Some(placed)` once
    /// it is published, which also gave the lock back; `None` if it
    /// changed nothing and the lock is still held.
    fn split_bucket_locked(
        &self,
        ep: &Endpoint,
        key: u64,
        value: u64,
        bucket: GlobalAddr,
        header: u64,
        meta: &[u8; META_SIZE],
    ) -> DsmResult<Option<bool>> {
        // The authoritative directory: ours, if its version is the one
        // `meta` showed under the lock; else the one `meta` points at.
        let dir_addr = GlobalAddr::from_raw(word(meta, META_DIR as usize));
        let cached = self.cache.lock().clone();
        let dir = match cached {
            Some(dir) if dir.version == word(meta, 0) => dir,
            _ => {
                let _span = ep.span(Phase::IndexLookup);
                let depth = word(meta, META_DIR as usize + 8) as u32;
                let dir = self.read_dir(ep, dir_addr, depth)?;
                self.install(dir.expect("meta cell read under the directory lock is whole"))
            }
        };
        if dir.bucket_for(key) != bucket {
            return Ok(None); // split since the caller looked
        }
        let local_depth = header_depth(header);
        let doubling = local_depth == dir.depth;
        assert!(!doubling || dir.depth < MAX_GLOBAL_DEPTH, "directory at max depth");

        // Announce the split FIRST (header goes odd), THEN snapshot the
        // bucket: one doorbell, the READ behind the CAS. Any writer whose
        // slot-CAS lands after our snapshot will see the odd/changed
        // header in its validation read and undo; any CAS before our
        // snapshot is included in the images we write.
        let mut old = Bucket::zeroed();
        let mut prev = !header;
        let announced = {
            let _span = ep.span(Phase::LockAcquire);
            self.layer.doorbell(
                ep,
                &mut [
                    GlobalWr::Cas { addr: bucket, expected: header, new: header + 1, prev: &mut prev },
                    GlobalWr::Read { addr: bucket, dst: &mut old.0 },
                ],
            )
        };
        // Put the stable header back on the ways out that change nothing.
        let restore = |e| {
            let _span = ep.span(Phase::LockAcquire);
            let _ = self.layer.write_u64(ep, bucket, header);
            e
        };
        if prev != header {
            return announced.map(|()| None); // split since the caller looked
        }
        announced.map_err(restore)?;
        // Re-check fullness (writers may have undone entries).
        if (0..BUCKET_SLOTS).any(|s| is_reserved_key(old.key(s))) {
            let _span = ep.span(Phase::LockAcquire);
            return self.layer.write_u64(ep, bucket, header).map(|()| None);
        }

        // New sibling bucket at local_depth + 1.
        let sibling = self.layer.alloc(BUCKET_SIZE as u64).map_err(restore)?;
        let new_dir = doubling.then(|| self.layer.alloc(dir_bytes(dir.depth + 1)));
        let new_dir_addr = new_dir.transpose().map_err(restore)?;

        // Rehash: entries whose hash has the split bit set move. `old`
        // keeps the odd header it was read with; the stable one is
        // written behind the image.
        let split_bit = 1u64 << local_depth;
        let stable = stable_header(local_depth + 1);
        let mut new = Bucket::zeroed();
        new.set(0, stable);
        new.set(8, old.pattern() | split_bit);
        let mut moved = 0;
        for s in 0..BUCKET_SLOTS {
            if hash(old.key(s)) & split_bit != 0 {
                new.set_slot(moved, old.key(s), old.value(s));
                moved += 1;
                old.set_slot(s, 0, 0);
            }
        }
        // The caller's key goes where a racing put already landed it, or
        // in the first free slot of its half.
        let half = if hash(key) & split_bit != 0 { &mut new } else { &mut old };
        let slot = half.find(key).or_else(|| half.find(0));
        if let Some(s) = slot {
            half.set_slot(s, key, value);
        }
        self.layer.doorbell(
            ep,
            &mut [
                GlobalWr::Write { addr: sibling, src: &new.0, unlock: false },
                GlobalWr::Write { addr: bucket, src: &old.0, unlock: false },
                GlobalWr::Write { addr: bucket, src: &stable.to_le_bytes(), unlock: false },
            ],
        )?;

        // Point the directory entries that named the old bucket and map
        // hashes with the split bit set at the sibling, and publish:
        // directory, then `meta` with the directory lock's release behind
        // it. Readers stay safe in between: they re-check local depth and
        // pattern against the bucket they reach.
        let mut next = Dir {
            version: dir.version + 1,
            depth: dir.depth + doubling as u32,
            entries: dir.entries.clone(),
        };
        if doubling {
            next.entries.extend_from_slice(&dir.entries); // high half mirrors
        }
        let first = (old.pattern() | split_bit) as usize;
        let repointed = (first..next.entries.len()).step_by(2 * split_bit as usize);
        for i in repointed.clone() {
            debug_assert_eq!(next.entries[i], bucket.to_raw());
            next.entries[i] = sibling.to_raw();
        }
        let version = next.version.to_le_bytes();
        let unlock = GlobalWr::Write { addr: self.meta.offset_by(META_LOCK), src: &[0u8; 8], unlock: false };
        match new_dir_addr {
            Some(new_dir_addr) => {
                self.layer.write(ep, new_dir_addr, &next.encode())?;
                let at = [new_dir_addr.to_raw(), next.depth as u64].map(u64::to_le_bytes).concat();
                self.layer.doorbell(
                    ep,
                    &mut [
                        GlobalWr::Write { addr: self.meta.offset_by(META_DIR), src: &at, unlock: false },
                        GlobalWr::Write { addr: self.meta, src: &version, unlock: false },
                        unlock,
                    ],
                )?;
            }
            None => {
                // Only the entries that changed, the version behind them.
                let raw = sibling.to_raw().to_le_bytes();
                let mut wrs: Vec<GlobalWr> = repointed
                    .map(|i| GlobalWr::Write {
                        addr: dir_addr.offset_by(DIR_ENTRIES + 8 * i as u64),
                        src: &raw,
                        unlock: false,
                    })
                    .collect();
                wrs.push(GlobalWr::Write { addr: dir_addr, src: &version, unlock: false });
                self.layer.doorbell(ep, &mut wrs)?;
                self.layer.doorbell(ep, &mut [GlobalWr::Write { addr: self.meta, src: &version, unlock: false }, unlock])?;
            }
        }
        // Our cache is what we published.
        self.install(next);
        Ok(Some(slot.is_some()))
    }

    /// Force a directory staleness check against DSM (handles that go
    /// long without misses call this periodically).
    pub fn refresh_if_stale(&self, ep: &Endpoint) -> DsmResult<bool> {
        let remote = self.layer.read_u64(ep, self.meta)?;
        let stale = self.cache.lock().as_ref().is_none_or(|c| c.version != remote);
        if stale {
            self.fetch_dir(ep)?;
        }
        Ok(stale)
    }
}

impl std::fmt::Debug for RaceHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let depth = self.cache.lock().as_ref().map(|c| c.depth);
        f.debug_struct("RaceHash").field("cached_depth", &depth).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;
    use dsm::DsmConfig;
    use rdma_sim::{Fabric, NetworkProfile};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn layer() -> Arc<DsmLayer> {
        layer_on(NetworkProfile::zero())
    }

    fn layer_on(profile: NetworkProfile) -> Arc<DsmLayer> {
        let fabric = Fabric::new(profile);
        DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 2,
                capacity_per_node: 16 << 20,
                replication: 1,
                mem_cores: 1,
            },
        )
    }

    #[test]
    fn put_get_roundtrip() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 2, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 1..=100u64 {
            h.put(&ep, k, k * 10).unwrap();
        }
        for k in 1..=100u64 {
            assert_eq!(h.get(&ep, k).unwrap(), Some(k * 10), "key {k}");
        }
        assert_eq!(h.get(&ep, 1000).unwrap(), None);
    }

    #[test]
    fn update_overwrites() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 2, 1).unwrap();
        let ep = l.fabric().endpoint();
        h.put(&ep, 7, 1).unwrap();
        h.put(&ep, 7, 2).unwrap();
        assert_eq!(h.get(&ep, 7).unwrap(), Some(2));
    }

    #[test]
    fn delete_tombstones_and_slot_reuse() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 2, 1).unwrap();
        let ep = l.fabric().endpoint();
        h.put(&ep, 5, 50).unwrap();
        assert!(h.delete(&ep, 5).unwrap());
        assert!(!h.delete(&ep, 5).unwrap());
        assert_eq!(h.get(&ep, 5).unwrap(), None);
        h.put(&ep, 5, 51).unwrap();
        assert_eq!(h.get(&ep, 5).unwrap(), Some(51));
    }

    #[test]
    fn growth_across_many_splits() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 1, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 1..=2_000u64 {
            h.put(&ep, k, k).unwrap();
        }
        for k in 1..=2_000u64 {
            assert_eq!(h.get(&ep, k).unwrap(), Some(k), "key {k}");
        }
    }

    #[test]
    fn second_handle_detects_stale_directory() {
        let l = layer();
        let (h1, meta) = RaceHash::create(&l, 1, 1).unwrap();
        let h2 = RaceHash::open(&l, meta, 2);
        let ep = l.fabric().endpoint();
        // Warm h2's directory cache.
        h2.put(&ep, 1, 1).unwrap();
        // h1 forces many splits.
        for k in 2..=1_000u64 {
            h1.put(&ep, k, k).unwrap();
        }
        // h2 must still find everything despite its stale directory.
        for k in 1..=1_000u64 {
            assert_eq!(h2.get(&ep, k).unwrap(), Some(k), "key {k}");
        }
        assert!(!h2.refresh_if_stale(&ep).unwrap(), "refreshed along the way");
    }

    #[test]
    fn lookup_is_single_read_when_warm() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 4, 1).unwrap();
        let ep = l.fabric().endpoint();
        h.put(&ep, 42, 1).unwrap();
        let probe = l.fabric().endpoint();
        h.get(&probe, 42).unwrap();
        // One bucket READ with the 8-byte seqlock validation read riding
        // its doorbell — constant, independent of index size (vs O(depth)
        // for a tree).
        assert_eq!(probe.stats().reads, 2, "RACE fast path is O(1) READs");
        assert_eq!(probe.stats().wire_round_trips(), 1, "in one round trip");
    }

    #[test]
    fn concurrent_inserts_do_not_lose_keys() {
        let l = layer();
        let (_h, meta) = RaceHash::create(&l, 2, 99).unwrap();
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let l = l.clone();
                s.spawn(move || {
                    let h = RaceHash::open(&l, meta, w + 1);
                    let ep = l.fabric().endpoint();
                    for i in 0..300u64 {
                        let k = w * 1_000 + i + 1;
                        h.put(&ep, k, k).unwrap();
                    }
                });
            }
        });
        let verify = RaceHash::open(&l, meta, 50);
        let ep = l.fabric().endpoint();
        for w in 0..4u64 {
            for i in 0..300u64 {
                let k = w * 1_000 + i + 1;
                assert_eq!(verify.get(&ep, k).unwrap(), Some(k), "key {k}");
            }
        }
    }

    #[test]
    fn operations_cost_what_race_states() {
        let p = NetworkProfile::rdma_cx6();
        let l = layer_on(p);
        let (h, _) = RaceHash::create(&l, 6, 1).unwrap();
        // One endpoint loads and probes: a fresh one would queue its
        // first CAS behind the loader's atomic-unit reservations.
        let ep = l.fabric().endpoint();
        for k in 1..=40u64 {
            h.put(&ep, k, k * 10).unwrap();
        }
        // Every operation starts at the cached directory and the bucket.
        let bucket_read = 40 + p.rw_cost_ns(BUCKET_SIZE);
        let (word_rw, rider) = (p.rw_cost_ns(8), p.batched_cost_ns(8));
        let cas = p.atomic_cost_ns() + p.atomic_unit_ns;
        assert_eq!((bucket_read, word_rw, rider, cas), (1_645, 1_600, 150, 1_850));

        // get, hit or miss: {READ bucket, READ header}.
        assert_eq!(cost(&ep, || h.get(&ep, 7).unwrap()), (1, 2, bucket_read + rider));
        assert_eq!(cost(&ep, || h.get(&ep, 777).unwrap()), (1, 2, bucket_read + rider));
        // update: READ, {WRITE value, READ header}.
        assert_eq!(cost(&ep, || h.put(&ep, 7, 71).unwrap()), (2, 3, bucket_read + word_rw + rider));
        // fresh put: READ, slot CAS, {WRITE value, WRITE key, READ header}.
        let fresh = bucket_read + cas + word_rw + 2 * rider;
        assert_eq!(cost(&ep, || h.put(&ep, 777, 1).unwrap()), (3, 5, fresh));
        // delete: READ, {CAS tombstone, READ header}.
        assert_eq!(cost(&ep, || assert!(h.delete(&ep, 777).unwrap())), (2, 3, bucket_read + cas + rider));
        assert_eq!(h.get(&ep, 7).unwrap(), Some(71));
        assert_eq!(h.get(&ep, 777).unwrap(), None);
        assert_eq!(h.cache_bytes(), dir_bytes(6) as usize);
    }

    #[test]
    fn a_split_moves_what_changed_not_the_directory() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 1, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 1..=1_000u64 {
            h.put(&ep, k, k).unwrap();
        }
        // The directory is 2 KiB and more by now; a put that re-read and
        // rewrote it on every split would move several KiB on average.
        let before = ep.stats().one_sided_bytes();
        for k in 1_001..=2_000u64 {
            h.put(&ep, k, k).unwrap();
        }
        let per_put = (ep.stats().one_sided_bytes() - before) / 1_000;
        assert!(h.cache_bytes() >= 2_048 && per_put < 1_024, "{per_put} B per put");
    }

    #[test]
    fn readers_see_loaded_values_while_writers_split() {
        let l = layer();
        let (h0, meta) = RaceHash::create(&l, 2, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 1..=1_000u64 {
            h0.put(&ep, k, k + 7).unwrap();
        }
        let depth_before = h0.cache_bytes();
        let writers_left = AtomicUsize::new(2);
        // Readers and writers start together.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for r in 0..2u64 {
                let (l, writers_left, start) = (l.clone(), &writers_left, &start);
                s.spawn(move || {
                    let h = RaceHash::open(&l, meta, 20 + r);
                    let ep = l.fabric().endpoint();
                    start.wait();
                    // At least one pass, then until the writers are done.
                    loop {
                        let last = writers_left.load(Ordering::Acquire) == 0;
                        for k in 1..=1_000u64 {
                            assert_eq!(h.get(&ep, k).unwrap(), Some(k + 7), "key {k}");
                        }
                        if last {
                            break;
                        }
                    }
                });
            }
            for w in 0..2u64 {
                let (l, writers_left, start) = (l.clone(), &writers_left, &start);
                s.spawn(move || {
                    let h = RaceHash::open(&l, meta, 10 + w);
                    let ep = l.fabric().endpoint();
                    start.wait();
                    for i in 0..3_000u64 {
                        h.put(&ep, 10_000 + 2 * i + w, i).unwrap();
                    }
                    writers_left.fetch_sub(1, Ordering::Release);
                });
            }
        });
        h0.refresh_if_stale(&ep).unwrap();
        assert!(h0.cache_bytes() >= 4 * depth_before, "the writers split and doubled under the readers");
    }

    #[test]
    fn a_split_places_its_key_in_six_round_trips() {
        let p = NetworkProfile::rdma_cx6();
        let l = layer_on(p);
        let (h, _) = RaceHash::create(&l, 2, 1).unwrap();
        let ep = l.fabric().endpoint();
        let keys = |pattern: u64, mask: u64| (1u64..).filter(move |&k| hash(k) & mask == pattern);
        // Nine keys of bucket 0 split it and double the directory to depth
        // 3; bucket 1 stays at local depth 2.
        for k in keys(0, 3).take(BUCKET_SLOTS + 1) {
            h.put(&ep, k, k).unwrap();
        }
        assert_eq!(h.cache_bytes(), dir_bytes(3) as usize);
        // Fill bucket 1 half and half across the bit its split moves on.
        for k in keys(1, 7).take(BUCKET_SLOTS / 2).chain(keys(5, 7).take(BUCKET_SLOTS / 2)) {
            h.put(&ep, k, k).unwrap();
        }
        // READ bucket; {CAS directory lock, READ meta}; {CAS header, READ
        // bucket}; {WRITE sibling, WRITE bucket, WRITE header}; {WRITE
        // entry, WRITE directory version}; {WRITE meta version, WRITE
        // unlock}.
        let cas = p.atomic_cost_ns() + p.atomic_unit_ns;
        let (word_rw, rider) = (p.rw_cost_ns(8), p.batched_cost_ns(8));
        let split = 40
            + p.rw_cost_ns(BUCKET_SIZE)
            + cas
            + p.batched_cost_ns(META_SIZE)
            + cas
            + p.batched_cost_ns(BUCKET_SIZE)
            + p.rw_cost_ns(BUCKET_SIZE)
            + p.batched_cost_ns(BUCKET_SIZE)
            + rider
            + 2 * (word_rw + rider);
        assert_eq!(split, 11_061);
        let key = keys(1, 7).nth(BUCKET_SLOTS / 2).unwrap();
        assert_eq!(cost(&ep, || h.put(&ep, key, 77).unwrap()), (6, 12, split));
        assert_eq!(h.cache_bytes(), dir_bytes(3) as usize, "the directory did not double");
        assert!(!h.refresh_if_stale(&ep).unwrap(), "the cache is what the split published");
        assert_eq!(h.get(&ep, key).unwrap(), Some(77));
        for k in keys(1, 7).take(BUCKET_SLOTS / 2).chain(keys(5, 7).take(BUCKET_SLOTS / 2)) {
            assert_eq!(h.get(&ep, k).unwrap(), Some(k), "key {k}");
        }
        let unlocked = l.read_u64(&ep, h.meta.offset_by(META_LOCK)).unwrap();
        assert_eq!(unlocked, 0, "the directory lock rode the publication back");
    }

    #[test]
    fn a_split_updates_a_key_a_racing_put_landed() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 2, 1).unwrap();
        let ep = l.fabric().endpoint();
        let full: Vec<u64> = (1u64..).filter(|&k| hash(k) & 3 == 1).take(BUCKET_SLOTS).collect();
        for &k in &full {
            h.put(&ep, k, k).unwrap();
        }
        // A put that found the bucket full of other keys, splitting it after
        // a racing put landed its own key: the split writes the value over
        // that slot rather than a second copy.
        let (bucket, image) = h.locate(&ep, full[3], false).unwrap();
        assert!(h.split_bucket(&ep, full[3], 99, bucket, image.header()).unwrap());
        assert_eq!(h.get(&ep, full[3]).unwrap(), Some(99));
        let (_, b) = h.locate(&ep, full[3], false).unwrap();
        let copies = (0..BUCKET_SLOTS).filter(|&s| b.key(s) == full[3]).count();
        assert_eq!(copies, 1);
        for &k in full.iter().filter(|&&k| k != full[3]) {
            assert_eq!(h.get(&ep, k).unwrap(), Some(k), "key {k}");
        }
    }
}
