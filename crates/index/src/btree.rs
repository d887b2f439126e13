//! A Sherman-style remote B+tree (§6, \[62\]).
//!
//! All data lives in DSM; compute nodes operate on it purely with
//! one-sided verbs, and each operation costs what Sherman states for it:
//!
//! * **A search is one round trip.** With `cache_internal = true` the
//!   handle keeps the root address and every internal node it has seen in
//!   local memory (charged as local DRAM). A node's meta word carries its
//!   *level* (leaf = 0), so a cached level-1 node hands out a leaf address
//!   without reading it and a warm search is exactly the leaf READ. Fence
//!   keys are the only staleness check: a node that does not cover the
//!   key means some ancestor that routed us there is stale, or a split
//!   has not named (or, having failed, never will name) its right half in
//!   the level above. The handle drops the cached path *and* the root
//!   address, and moves right along `next` when the key lies past the
//!   node (Lehman–Yao), else restarts. A handle's own structure
//!   modification installs the images it just wrote into its cache, so it
//!   never refills what it wrote itself. With the cache off every level
//!   is read from the root pointer down — the naive baseline of
//!   experiment C9.
//! * **An insert is two doorbells** (Sherman's "command combination":
//!   members of one doorbell on one queue pair execute in order). Acquire
//!   = {CAS lock word, READ image}; release = {WRITE image, WRITE unlock}.
//!   A WRITE lands word by word, from its lowest address to its highest
//!   (the record table's lock holders rely on the same rule: their slot's
//!   lock word comes last, so the write-back that carries its 0 frees it
//!   after the payload, `txn::table`). A node's lock word comes first, so
//!   an embedded 0 would free the lock before the keys arrived: the image
//!   keeps the writer's lock tag, and the unlock behind it is what frees
//!   it. `remove` is the same pair.
//! * **Readers take no lock.** A node's last word is a check word, a
//!   hash of every word between the lock word and it. A READ and a WRITE
//!   of one node both run word by word from low to high, and either may
//!   overtake the other, so a READ that raced a WRITE can mix the two
//!   images; the mix fails the check and is posted again. (A copy of the
//!   version in the last word does not catch a WRITE that passed the READ
//!   and stalled before the end.) Internal nodes, which are rewritten
//!   without a lock word, are read the same way.
//! * **A leaf split is the insert that found the leaf full, in six round
//!   trips.** Splits take a tree-wide structure-modification (SMO) lock
//!   in DSM — simpler than Sherman's fine-grained scheme and rare enough
//!   under point workloads. The splitter keeps its leaf lock, with the
//!   new key already in the half that covers it: acquire; {CAS SMO, READ
//!   root pointer, WRITE right half}; READ the level-1 parent; {WRITE left
//!   half, WRITE unlock}; WRITE parent; WRITE SMO unlock. Internal nodes
//!   change only under SMO, so the parent READ there is exact: at the
//!   address the handle's cache routed through, if it is still level 1,
//!   covers the key, routes it to the leaf and has room; else the path is
//!   read from the root pointer, and full ancestors split on the way up
//!   (eleven round trips when the parent splits too). Nobody takes a leaf
//!   lock while holding SMO, so the lock order is leaf → SMO everywhere
//!   and a splitter waits for SMO without risk of deadlock. A split that
//!   fails after the left half landed leaves the right half reachable
//!   only through `next`; the next split of it names it in the level
//!   above first.
//!
//! **What shares a doorbell and what does not.** Members whose order
//! matters address the same memory node (a node's lock word and its
//! image), where one queue pair keeps them in order. A new node that
//! nothing names yet may ride any doorbell before the one that names it
//! (the right half rides the SMO lock's CAS). Publication steps that
//! cross nodes — the right half before the left's `next`, a node before
//! the parent entry or root pointer that names it — stay separate round
//! trips.
//!
//! Node layout (fixed `NODE_SIZE` bytes in DSM):
//!
//! ```text
//! [lock][version][meta: level|nkeys][fence_low][fence_high][next]
//! [keys; FANOUT][vals_or_children; FANOUT][check]
//! ```

use std::sync::Arc;

use dsm::{DsmLayer, DsmResult, GlobalAddr, GlobalWr, U64Map};
use parking_lot::Mutex;
use rdma_sim::{Endpoint, Phase};

/// Keys per node.
pub const FANOUT: usize = 16;
/// Node size in bytes.
pub const NODE_SIZE: usize = 56 + FANOUT * 16;

const OFF_LOCK: usize = 0;
const OFF_VERSION: usize = 8;
const OFF_META: usize = 16;
const OFF_FENCE_LOW: usize = 24;
const OFF_FENCE_HIGH: usize = 32;
const OFF_NEXT: usize = 40;
const OFF_KEYS: usize = 48;
const OFF_VALS: usize = 48 + FANOUT * 8;
const OFF_CHECK: usize = 48 + FANOUT * 16;

/// The check word of an encoded node: a hash of every word from the
/// version up to the check word itself, each word weighted by an odd
/// factor of its own so that moving a word to another slot changes it.
/// The products are independent, so the sum costs about one multiply
/// per word, not a chain of them.
fn check_word(buf: &[u8; NODE_SIZE]) -> u64 {
    let sum = buf[OFF_VERSION..OFF_CHECK].chunks_exact(8).zip(1u64..).fold(0u64, |sum, (w, i)| {
        let factor = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        sum.wrapping_add(u64::from_le_bytes(w.try_into().unwrap()).wrapping_mul(factor))
    });
    sum ^ (sum >> 29)
}

/// Local decoded image of a remote node.
#[derive(Debug, Clone, Copy)]
struct Node {
    lock: u64,
    version: u64,
    /// Height above the leaves. A leaf (0) holds values in `vals`; a
    /// node at level 1 holds leaf addresses, and so on up.
    level: u32,
    nkeys: usize,
    fence_low: u64,
    fence_high: u64,
    next: u64,
    keys: [u64; FANOUT],
    vals: [u64; FANOUT],
}

impl Node {
    fn empty(level: u32, fence_low: u64, fence_high: u64) -> Node {
        Node {
            lock: 0,
            version: 1,
            level,
            nkeys: 0,
            fence_low,
            fence_high,
            next: 0,
            keys: [0; FANOUT],
            vals: [0; FANOUT],
        }
    }

    /// `None` for a torn image: one that fails its check word because a
    /// WRITE of the node was landing while it was read.
    fn decode(buf: &[u8; NODE_SIZE]) -> Option<Node> {
        let u = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        if u(OFF_CHECK) != check_word(buf) {
            return None;
        }
        let meta = u(OFF_META);
        Some(Node {
            lock: u(OFF_LOCK),
            version: u(OFF_VERSION),
            level: (meta >> 32) as u32,
            nkeys: (meta as u32 as usize).min(FANOUT),
            fence_low: u(OFF_FENCE_LOW),
            fence_high: u(OFF_FENCE_HIGH),
            next: u(OFF_NEXT),
            keys: std::array::from_fn(|i| u(OFF_KEYS + i * 8)),
            vals: std::array::from_fn(|i| u(OFF_VALS + i * 8)),
        })
    }

    fn encode(&self) -> [u8; NODE_SIZE] {
        let mut buf = [0u8; NODE_SIZE];
        let mut put = |o: usize, v: u64| buf[o..o + 8].copy_from_slice(&v.to_le_bytes());
        put(OFF_LOCK, self.lock);
        put(OFF_VERSION, self.version);
        put(OFF_META, ((self.level as u64) << 32) | self.nkeys as u64);
        put(OFF_FENCE_LOW, self.fence_low);
        put(OFF_FENCE_HIGH, self.fence_high);
        put(OFF_NEXT, self.next);
        for i in 0..self.nkeys {
            put(OFF_KEYS + i * 8, self.keys[i]);
            put(OFF_VALS + i * 8, self.vals[i]);
        }
        let check = check_word(&buf);
        buf[OFF_CHECK..].copy_from_slice(&check.to_le_bytes());
        buf
    }

    fn covers(&self, key: u64) -> bool {
        key >= self.fence_low && key < self.fence_high
    }

    /// Where to move right for a `key` at or past this node's upper fence
    /// (Lehman–Yao): the right half of a split whose separator has not
    /// reached the level above, or never will because the split failed.
    fn right_of(&self, key: u64) -> Option<GlobalAddr> {
        (key >= self.fence_high && self.next != 0).then(|| GlobalAddr::from_raw(self.next))
    }

    /// Child to follow for `key` (internal nodes). `keys[i]` is the lower
    /// separator of `vals[i]`; `vals\[0\]` also covers everything below
    /// `keys\[1\]`.
    fn child_for(&self, key: u64) -> GlobalAddr {
        let idx = self.keys[1..self.nkeys.max(1)].partition_point(|&k| k <= key);
        GlobalAddr::from_raw(self.vals[idx])
    }

    /// Slot of `key` in a leaf (kept sorted): `Ok` if present, `Err` with
    /// the slot it would take.
    fn slot_of(&self, key: u64) -> Result<usize, usize> {
        self.keys[..self.nkeys].binary_search(&key)
    }

    /// Open slot `pos` for `key -> val`. The node must have room.
    fn insert_at(&mut self, pos: usize, key: u64, val: u64) {
        self.keys.copy_within(pos..self.nkeys, pos + 1);
        self.vals.copy_within(pos..self.nkeys, pos + 1);
        self.keys[pos] = key;
        self.vals[pos] = val;
        self.nkeys += 1;
    }

    /// Add the child `right` with lower separator `sep` (internal nodes).
    fn insert_child(&mut self, sep: u64, right: GlobalAddr) {
        let pos = self.keys[..self.nkeys].partition_point(|&k| k <= sep);
        self.insert_at(pos, sep, right.to_raw());
    }

    /// Move the upper half into a new right sibling and shrink this node
    /// to the lower half; the sibling's `fence_low` is the separator. The
    /// caller points `next` at the sibling once it has an address.
    fn split_off(&mut self) -> Node {
        let mid = self.nkeys / 2;
        let mut right = Node::empty(self.level, self.keys[mid], self.fence_high);
        right.next = self.next;
        right.nkeys = self.nkeys - mid;
        right.keys[..right.nkeys].copy_from_slice(&self.keys[mid..self.nkeys]);
        right.vals[..right.nkeys].copy_from_slice(&self.vals[mid..self.nkeys]);
        self.nkeys = mid;
        self.fence_high = right.fence_low;
        self.version += 1;
        right
    }
}

/// Per-op statistics counters for the C9 metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct BTreeStats {
    /// Searches served.
    pub searches: u64,
    /// Inserts applied.
    pub inserts: u64,
    /// Cache-stale retries (fence validation failures).
    pub stale_retries: u64,
    /// Node splits performed.
    pub splits: u64,
}

/// What a caching handle remembers of the tree.
#[derive(Default)]
struct Local {
    /// The root address, as last read from `meta` or published by us.
    root: Option<GlobalAddr>,
    /// Internal nodes (level >= 1) by raw address.
    nodes: U64Map<Node>,
}

/// A compute-node handle to a DSM-resident B+tree.
///
/// One handle per worker thread (handles share the tree through DSM, not
/// through this struct). Cached internal nodes are per-handle, mirroring
/// Sherman's per-compute-node index cache.
pub struct RemoteBTree {
    layer: Arc<DsmLayer>,
    /// Root pointer cell in DSM: [root addr][smo lock].
    meta: GlobalAddr,
    cache_internal: bool,
    /// Stays empty when `cache_internal` is off.
    local: Mutex<Local>,
    stats: Mutex<BTreeStats>,
    worker_tag: u64,
}

impl RemoteBTree {
    /// Create a fresh tree in DSM; returns the handle and the tree's meta
    /// address (share it to open more handles).
    pub fn create(
        layer: &Arc<DsmLayer>,
        cache_internal: bool,
        worker_tag: u64,
    ) -> DsmResult<(Self, GlobalAddr)> {
        let ep = layer.fabric().endpoint();
        let meta = layer.alloc(16)?;
        let tree = Self::open(layer, meta, cache_internal, worker_tag);
        let root = tree.publish(&ep, &Node::empty(0, 0, u64::MAX))?;
        let mut cell = [0u8; 16]; // smo lock = 0
        cell[..8].copy_from_slice(&root.to_raw().to_le_bytes());
        layer.write(&ep, meta, &cell)?;
        tree.remember_root(root);
        Ok((tree, meta))
    }

    /// Open a handle onto an existing tree.
    pub fn open(
        layer: &Arc<DsmLayer>,
        meta: GlobalAddr,
        cache_internal: bool,
        worker_tag: u64,
    ) -> Self {
        Self {
            layer: layer.clone(),
            meta,
            cache_internal,
            local: Mutex::new(Local::default()),
            stats: Mutex::new(BTreeStats::default()),
            worker_tag: worker_tag.max(1),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BTreeStats {
        *self.stats.lock()
    }

    /// Bytes of local memory the internal-node cache currently uses.
    pub fn cache_bytes(&self) -> usize {
        self.local.lock().nodes.len() * NODE_SIZE
    }

    /// READ the node at `addr`, again while a WRITE of it is landing.
    fn read_node(&self, ep: &Endpoint, addr: GlobalAddr) -> DsmResult<Node> {
        let mut buf = [0u8; NODE_SIZE];
        loop {
            self.layer.read(ep, addr, &mut buf)?;
            if let Some(node) = Node::decode(&buf) {
                return Ok(node);
            }
            std::hint::spin_loop();
        }
    }

    /// Allocate a node and WRITE `node` there. Nothing points at it yet.
    fn publish(&self, ep: &Endpoint, node: &Node) -> DsmResult<GlobalAddr> {
        let addr = self.layer.alloc(NODE_SIZE as u64)?;
        self.layer.write(ep, addr, &node.encode())?;
        Ok(addr)
    }

    /// Keep the internal node we just read under the SMO lock, or wrote.
    fn remember(&self, addr: GlobalAddr, node: &Node) {
        if self.cache_internal {
            self.local.lock().nodes.insert(addr.to_raw(), *node);
        }
    }

    /// Keep the root address we created, read under the SMO lock, or
    /// published.
    fn remember_root(&self, root: GlobalAddr) {
        if self.cache_internal {
            self.local.lock().root = Some(root);
        }
    }

    /// A fence check failed below a cached node, so an ancestor we hold
    /// is stale and we cannot tell which: drop the whole path, and the
    /// root address it hangs from.
    fn forget(&self) {
        *self.local.lock() = Local::default();
        self.stats.lock().stale_retries += 1;
    }

    /// Find the leaf that should cover `key`: through the cached root and
    /// internals without a verb, READing (and keeping) only what is
    /// missing; with the cache off, level by level from the root pointer.
    /// The leaf itself is not read — a level-1 node says its children are
    /// leaves — unless it is the root, whose level only its image tells;
    /// that image is handed back. So is the level-1 node's address, on a
    /// caching handle, for a split to start from.
    ///
    /// An internal node that does not cover `key` means a cached ancestor
    /// is stale, or a split has not yet named (or never will name) its
    /// right half in the level above: the cache is dropped, and the
    /// descent moves right along `next` when `key` lies past the node,
    /// else restarts from the root pointer.
    fn descend(&self, ep: &Endpoint, key: u64) -> DsmResult<(GlobalAddr, Option<GlobalAddr>, Option<Node>)> {
        'restart: loop {
            let mut local = self.local.lock();
            let mut addr = match local.root {
                Some(root) => root,
                None => {
                    let root = GlobalAddr::from_raw(self.layer.read_u64(ep, self.meta)?);
                    if self.cache_internal {
                        local.root = Some(root);
                    }
                    root
                }
            };
            loop {
                let route = |n: &Node| (n.covers(key), n.right_of(key), n.level, n.child_for(key));
                let (covers, right, level, child) = match local.nodes.get(&addr.to_raw()) {
                    Some(node) => {
                        ep.charge_local(60); // local map probe + node touch
                        route(node)
                    }
                    None => {
                        let node = self.read_node(ep, addr)?;
                        if node.level == 0 {
                            return Ok((addr, None, Some(node)));
                        }
                        if self.cache_internal {
                            local.nodes.insert(addr.to_raw(), node);
                        }
                        route(&node)
                    }
                };
                if !covers {
                    *local = Local::default();
                    self.stats.lock().stale_retries += 1;
                    match right {
                        Some(right) => {
                            addr = right;
                            continue;
                        }
                        None => continue 'restart,
                    }
                }
                if level == 1 {
                    return Ok((child, self.cache_internal.then_some(addr), None));
                }
                addr = child;
            }
        }
    }

    /// Point lookup. One round trip on a warm cached path.
    pub fn search(&self, ep: &Endpoint, key: u64) -> DsmResult<Option<u64>> {
        let _span = ep.span(Phase::IndexLookup);
        let (mut addr, _, mut image) = self.descend(ep, key)?;
        loop {
            let leaf = match image.take() {
                Some(leaf) => leaf,
                None => self.read_node(ep, addr)?,
            };
            if leaf.level == 0 && leaf.covers(key) {
                self.stats.lock().searches += 1;
                return Ok(leaf.slot_of(key).ok().map(|i| leaf.vals[i]));
            }
            self.forget();
            addr = match leaf.right_of(key).filter(|_| leaf.level == 0) {
                Some(right) => right,
                None => {
                    let (addr, _, root_leaf) = self.descend(ep, key)?;
                    image = root_leaf;
                    addr
                }
            };
        }
    }

    /// Range scan: up to `limit` `(key, value)` pairs with `key >= low`,
    /// following the leaf chain.
    pub fn scan(&self, ep: &Endpoint, low: u64, limit: usize) -> DsmResult<Vec<(u64, u64)>> {
        let _span = ep.span(Phase::IndexLookup);
        let mut out = Vec::with_capacity(limit);
        // A stale path ends at or left of the covering leaf, and the
        // chain only runs right, so no fence check is needed here.
        let (mut addr, _, mut image) = self.descend(ep, low)?;
        loop {
            let leaf = match image.take() {
                Some(leaf) => leaf,
                None => self.read_node(ep, addr)?,
            };
            for i in 0..leaf.nkeys {
                if leaf.keys[i] >= low && out.len() < limit {
                    out.push((leaf.keys[i], leaf.vals[i]));
                }
            }
            if out.len() >= limit || leaf.next == 0 {
                return Ok(out);
            }
            addr = GlobalAddr::from_raw(leaf.next);
        }
    }

    /// The acquire doorbell: CAS the node's lock word with the READ of
    /// its image riding behind it. `None` if another writer holds it.
    fn acquire(&self, ep: &Endpoint, addr: GlobalAddr) -> DsmResult<Option<Node>> {
        let _span = ep.span(Phase::LockAcquire);
        let mut buf = [0u8; NODE_SIZE];
        let won = crate::lock_and_read(&self.layer, ep, addr, self.worker_tag, addr, &mut buf, None)?;
        Ok(won.then(|| Node::decode(&buf).expect("image read under the node's lock is whole")))
    }

    /// The release doorbell: WRITE `node`'s image — which carries our
    /// lock tag, as read behind the winning CAS — and the unlock behind
    /// it. If the doorbell fails the lock is still given back.
    fn release(&self, ep: &Endpoint, addr: GlobalAddr, node: &Node) -> DsmResult<()> {
        debug_assert_eq!(node.lock, self.worker_tag);
        let posted = self.layer.doorbell(
            ep,
            &mut [
                GlobalWr::Write { addr, src: &node.encode(), unlock: false },
                GlobalWr::Write { addr, src: &[0u8; 8], unlock: false },
            ],
        );
        if posted.is_err() {
            let _ = self.unlock(ep, addr);
        }
        posted
    }

    /// Give the lock (the node's first word) back leaving the node as it
    /// was.
    fn unlock(&self, ep: &Endpoint, addr: GlobalAddr) -> DsmResult<()> {
        let _span = ep.span(Phase::LockAcquire);
        self.layer.write_u64(ep, addr, 0)
    }

    /// Lock the leaf covering `key`; returns its address, the level-1
    /// node [`Self::descend`] came through, and the image read under the
    /// lock. Every exit of the caller must `release` or `unlock` it.
    fn lock_leaf(&self, ep: &Endpoint, key: u64) -> DsmResult<(GlobalAddr, Option<GlobalAddr>, Node)> {
        let descend = || {
            let _span = ep.span(Phase::IndexLookup);
            self.descend(ep, key)
        };
        let (mut addr, mut parent, _) = descend()?;
        loop {
            let Some(leaf) = self.acquire(ep, addr)? else {
                std::hint::spin_loop();
                continue;
            };
            if leaf.level == 0 && leaf.covers(key) {
                return Ok((addr, parent, leaf));
            }
            // Raced a split, or the cached path is stale: move right, or
            // descend again.
            self.unlock(ep, addr)?;
            self.forget();
            addr = match leaf.right_of(key).filter(|_| leaf.level == 0) {
                Some(right) => right,
                None => {
                    let (addr, at, _) = descend()?;
                    parent = at;
                    addr
                }
            };
        }
    }

    /// Insert or update `key -> value`.
    pub fn insert(&self, ep: &Endpoint, key: u64, value: u64) -> DsmResult<()> {
        let _span = ep.span(Phase::Writeback);
        let (addr, parent, mut leaf) = self.lock_leaf(ep, key)?;
        match leaf.slot_of(key) {
            Ok(i) => leaf.vals[i] = value,
            Err(pos) if leaf.nkeys < FANOUT => leaf.insert_at(pos, key, value),
            Err(_) => {
                self.split(ep, addr, parent, leaf, key, value)?;
                self.stats.lock().inserts += 1;
                return Ok(());
            }
        }
        leaf.version += 1;
        self.release(ep, addr, &leaf)?;
        self.stats.lock().inserts += 1;
        Ok(())
    }

    /// Remove `key`; returns whether it existed.
    pub fn remove(&self, ep: &Endpoint, key: u64) -> DsmResult<bool> {
        let _span = ep.span(Phase::Writeback);
        let (addr, _, mut leaf) = self.lock_leaf(ep, key)?;
        let Ok(i) = leaf.slot_of(key) else {
            self.unlock(ep, addr)?;
            return Ok(false);
        };
        leaf.keys.copy_within(i + 1..leaf.nkeys, i);
        leaf.vals.copy_within(i + 1..leaf.nkeys, i);
        leaf.nkeys -= 1;
        leaf.version += 1;
        self.release(ep, addr, &leaf)?;
        Ok(true)
    }

    /// Split the full leaf `left` at `leaf_addr`, which we hold locked,
    /// with `key -> value` added to the half that covers it, and name the
    /// new right half upward under the tree-wide SMO lock. The leaf lock
    /// is kept throughout — nobody takes a leaf lock while holding SMO,
    /// so waiting for SMO here cannot deadlock — and given back on every
    /// way out. `parent` is the level-1 node the leaf was reached through.
    fn split(
        &self,
        ep: &Endpoint,
        leaf_addr: GlobalAddr,
        parent: Option<GlobalAddr>,
        mut left: Node,
        key: u64,
        value: u64,
    ) -> DsmResult<()> {
        let mut right = left.split_off();
        let half = if key < right.fence_low { &mut left } else { &mut right };
        let pos = half.slot_of(key).expect_err("a split key is new");
        half.insert_at(pos, key, value);
        let give_back = |e| {
            let _ = self.unlock(ep, leaf_addr);
            e
        };
        let right_addr = self.layer.alloc(NODE_SIZE as u64).map_err(give_back)?;
        left.next = right_addr.to_raw();

        // 1. One doorbell: the SMO lock's CAS, the root pointer beside it,
        //    and the right half, which nothing names yet (a lost CAS is
        //    posted again without it).
        let smo = self.meta.offset_by(8);
        let mut cell = [0u8; 16];
        let right_image = right.encode();
        let mut sibling = Some((right_addr, &right_image[..]));
        {
            let _span = ep.span(Phase::LockAcquire);
            while !crate::lock_and_read(&self.layer, ep, smo, self.worker_tag, self.meta, &mut cell, sibling.take())
                .map_err(give_back)?
            {
                std::hint::spin_loop();
            }
        }
        let root = GlobalAddr::from_raw(u64::from_le_bytes(cell[..8].try_into().unwrap()));
        let result = (|| {
            // 2. The path to the leaf; 3. the left half, naming the right
            //    one, with the unlock behind it. If a later step fails,
            //    readers and writers move right to the right half, and
            //    its next split names it in the level above.
            let mut path = self.path_to(ep, key, root, parent, leaf_addr, left.fence_low).map_err(give_back)?;
            self.release(ep, leaf_addr, &left)?;
            self.stats.lock().splits += 1;
            // 4. The separator upward.
            self.install(ep, &mut path, leaf_addr, 0, right.fence_low, right_addr).map(drop)
        })();
        // 5. The SMO unlock.
        let unlocked = {
            let _span = ep.span(Phase::LockAcquire);
            self.layer.write_u64(ep, smo, 0)
        };
        if result.is_err() {
            // Some of what we kept along the way may never have landed.
            *self.local.lock() = Local::default();
        }
        result.and(unlocked)
    }

    /// The internal path a split of the leaf at `leaf_addr` (lower fence
    /// `low`, covering `key`) installs its separator along, READ under
    /// the SMO lock. Internal nodes change only under it, so what is
    /// read is exact. Just the level-1 `parent` when it is still level 1,
    /// covers `key`, routes it to the leaf and has room; else the path
    /// from `root`. If no parent names the leaf — it is the right half
    /// of a split that failed before naming it — it is named first.
    fn path_to(
        &self,
        ep: &Endpoint,
        key: u64,
        mut root: GlobalAddr,
        parent: Option<GlobalAddr>,
        leaf_addr: GlobalAddr,
        low: u64,
    ) -> DsmResult<Vec<(GlobalAddr, Node)>> {
        let _span = ep.span(Phase::IndexLookup);
        if let Some(addr) = parent {
            let node = self.read_node(ep, addr)?;
            if node.level == 1 && node.covers(key) && node.child_for(key) == leaf_addr && node.nkeys < FANOUT {
                return Ok(vec![(addr, node)]);
            }
        }
        loop {
            let mut path = self.read_path(ep, &mut root, key)?;
            let routed = path.last().map_or(root, |(_, node)| node.child_for(key));
            if routed == leaf_addr {
                return Ok(path);
            }
            if let Some(new_root) = self.install(ep, &mut path, routed, 0, low, leaf_addr)? {
                root = new_root;
            }
        }
    }

    /// READ the internal path for `key` from `*root` down to level 1
    /// (empty if the root is a leaf), keeping what it reads. A node that
    /// does not cover `key` is the left half of a split that failed
    /// before naming its right half in the level above: that is done
    /// first, and the path read again.
    fn read_path(&self, ep: &Endpoint, root: &mut GlobalAddr, key: u64) -> DsmResult<Vec<(GlobalAddr, Node)>> {
        'read: loop {
            let mut path = Vec::new();
            let mut addr = *root;
            loop {
                let node = self.read_node(ep, addr)?;
                if !node.covers(key) {
                    let right = node.right_of(key).expect("an exact path moves only right");
                    if let Some(new_root) = self.install(ep, &mut path, addr, node.level, node.fence_high, right)? {
                        *root = new_root;
                    }
                    continue 'read;
                }
                if node.level == 0 {
                    break; // the root is a leaf
                }
                self.remember(addr, &node);
                path.push((addr, node));
                addr = node.child_for(key);
                if node.level == 1 {
                    break;
                }
            }
            self.remember_root(*root);
            return Ok(path);
        }
    }

    /// Name `right` (lower fence `sep`), the new right half of `left` at
    /// `level`, in `path` — the exact internal path from the root down
    /// to the level above — splitting full ancestors on the way up. If
    /// the root split, or `left` was the root, a fresh root goes above
    /// it; its address is returned.
    fn install(
        &self,
        ep: &Endpoint,
        path: &mut [(GlobalAddr, Node)],
        mut left: GlobalAddr,
        mut level: u32,
        mut sep: u64,
        mut right: GlobalAddr,
    ) -> DsmResult<Option<GlobalAddr>> {
        for (parent_addr, parent) in path.iter_mut().rev() {
            if parent.nkeys < FANOUT {
                parent.insert_child(sep, right);
                parent.version += 1;
                self.layer.write(ep, *parent_addr, &parent.encode())?;
                self.remember(*parent_addr, parent);
                return Ok(None);
            }
            // Full too: split it, add the separator to the half that now
            // covers it, and carry the parent's own separator up.
            let mut right_parent = parent.split_off();
            let up_sep = right_parent.fence_low;
            if sep < up_sep {
                parent.insert_child(sep, right);
            } else {
                right_parent.insert_child(sep, right);
            }
            let right_parent_addr = self.publish(ep, &right_parent)?;
            parent.next = right_parent_addr.to_raw();
            self.layer.write(ep, *parent_addr, &parent.encode())?;
            self.remember(right_parent_addr, &right_parent);
            self.remember(*parent_addr, parent);
            self.stats.lock().splits += 1;
            (left, level, sep, right) = (*parent_addr, parent.level, up_sep, right_parent_addr);
        }

        // `left` is the root: a fresh root above the two halves, then the
        // root pointer. The root covers every key.
        let mut new_root = Node::empty(level + 1, 0, u64::MAX);
        new_root.insert_at(0, 0, left.to_raw());
        new_root.insert_at(1, sep, right.to_raw());
        let new_root_addr = self.publish(ep, &new_root)?;
        self.layer.write_u64(ep, self.meta, new_root_addr.to_raw())?;
        self.remember(new_root_addr, &new_root);
        self.remember_root(new_root_addr);
        Ok(Some(new_root_addr))
    }
}

impl std::fmt::Debug for RemoteBTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBTree")
            .field("cache_internal", &self.cache_internal)
            .field("cached_nodes", &self.local.lock().nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;
    use dsm::DsmConfig;
    use rdma_sim::{Fabric, FaultPlan, NetworkProfile};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn layer(profile: NetworkProfile) -> Arc<DsmLayer> {
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
    fn insert_search_roundtrip_small() {
        let l = layer(NetworkProfile::zero());
        let (t, _) = RemoteBTree::create(&l, true, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 0..10u64 {
            t.insert(&ep, k, k * 100).unwrap();
        }
        for k in 0..10u64 {
            assert_eq!(t.search(&ep, k).unwrap(), Some(k * 100));
        }
        assert_eq!(t.search(&ep, 99).unwrap(), None);
    }

    #[test]
    fn splits_preserve_all_keys() {
        let l = layer(NetworkProfile::zero());
        let (t, _) = RemoteBTree::create(&l, true, 1).unwrap();
        let ep = l.fabric().endpoint();
        // Enough keys to force multi-level splits (16 fanout).
        let keys: Vec<u64> = (0..2_000u64).map(|i| (i * 2_654_435_761) % 100_000).collect();
        for &k in &keys {
            t.insert(&ep, k, k + 1).unwrap();
        }
        assert!(t.stats().splits > 50);
        for &k in &keys {
            assert_eq!(t.search(&ep, k).unwrap(), Some(k + 1), "key {k}");
        }
    }

    #[test]
    fn update_overwrites_in_place() {
        let l = layer(NetworkProfile::zero());
        let (t, _) = RemoteBTree::create(&l, true, 1).unwrap();
        let ep = l.fabric().endpoint();
        t.insert(&ep, 5, 1).unwrap();
        t.insert(&ep, 5, 2).unwrap();
        assert_eq!(t.search(&ep, 5).unwrap(), Some(2));
    }

    #[test]
    fn remove_deletes_key() {
        let l = layer(NetworkProfile::zero());
        let (t, _) = RemoteBTree::create(&l, true, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 0..100u64 {
            t.insert(&ep, k, k).unwrap();
        }
        assert!(t.remove(&ep, 50).unwrap());
        assert!(!t.remove(&ep, 50).unwrap());
        assert_eq!(t.search(&ep, 50).unwrap(), None);
        assert_eq!(t.search(&ep, 51).unwrap(), Some(51));
    }

    #[test]
    fn scan_returns_sorted_range() {
        let l = layer(NetworkProfile::zero());
        let (t, _) = RemoteBTree::create(&l, true, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in (0..200u64).rev() {
            t.insert(&ep, k * 3, k).unwrap();
        }
        let out = t.scan(&ep, 30, 10).unwrap();
        assert_eq!(out.len(), 10);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out[0].0, 30);
    }

    #[test]
    fn cached_tree_uses_fewer_round_trips_than_naive() {
        // §6 / C9: Sherman's internal-node cache buys 1-RT searches.
        let l = layer(NetworkProfile::rdma_cx6());
        let (cached, meta) = RemoteBTree::create(&l, true, 1).unwrap();
        let naive = RemoteBTree::open(&l, meta, false, 2);
        let ep_load = l.fabric().endpoint();
        for k in 0..2_000u64 {
            cached.insert(&ep_load, k, k).unwrap();
        }
        // Warm the cache.
        let ep_warm = l.fabric().endpoint();
        for k in (0..2_000u64).step_by(10) {
            cached.search(&ep_warm, k).unwrap();
        }
        let ep_c = l.fabric().endpoint();
        let ep_n = l.fabric().endpoint();
        for k in 0..500u64 {
            cached.search(&ep_c, k * 4).unwrap();
            naive.search(&ep_n, k * 4).unwrap();
        }
        let rt_c = ep_c.stats().wire_round_trips();
        let rt_n = ep_n.stats().wire_round_trips();
        assert_eq!(rt_c, 500, "a warm cached search is exactly the leaf READ");
        // Root pointer, three internal levels, leaf.
        assert_eq!(rt_n, 5 * 500, "the naive tree pays every level");
        assert!(cached.cache_bytes() > 0);
        assert_eq!(naive.cache_bytes(), 0);
    }

    #[test]
    fn concurrent_inserts_from_many_handles() {
        let l = layer(NetworkProfile::zero());
        let (t0, meta) = RemoteBTree::create(&l, true, 1).unwrap();
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let l = l.clone();
                s.spawn(move || {
                    let t = RemoteBTree::open(&l, meta, true, w + 10);
                    let ep = l.fabric().endpoint();
                    for i in 0..500u64 {
                        let k = w * 10_000 + i;
                        t.insert(&ep, k, k).unwrap();
                    }
                });
            }
        });
        let ep = l.fabric().endpoint();
        for w in 0..4u64 {
            for i in (0..500u64).step_by(7) {
                let k = w * 10_000 + i;
                assert_eq!(t0.search(&ep, k).unwrap(), Some(k), "key {k}");
            }
        }
    }

    fn root_of(t: &RemoteBTree, ep: &Endpoint) -> (GlobalAddr, Node) {
        let addr = GlobalAddr::from_raw(t.layer.read_u64(ep, t.meta).unwrap());
        (addr, t.read_node(ep, addr).unwrap())
    }

    /// Every leaf, left to right along the chain.
    fn leaves_of(t: &RemoteBTree, ep: &Endpoint) -> Vec<(GlobalAddr, Node)> {
        let (mut addr, mut node) = root_of(t, ep);
        while node.level > 0 {
            addr = GlobalAddr::from_raw(node.vals[0]);
            node = t.read_node(ep, addr).unwrap();
        }
        let mut leaves = vec![(addr, node)];
        while node.next != 0 {
            addr = GlobalAddr::from_raw(node.next);
            node = t.read_node(ep, addr).unwrap();
            leaves.push((addr, node));
        }
        leaves
    }

    #[test]
    fn operations_cost_what_sherman_states() {
        let p = NetworkProfile::rdma_cx6();
        let l = layer(p);
        let (t, _) = RemoteBTree::create(&l, true, 1).unwrap();
        // One endpoint loads and probes: a fresh one would queue its
        // first CAS behind the loader's atomic-unit reservations.
        let ep = l.fabric().endpoint();
        for k in 0..2_000u64 {
            t.insert(&ep, 2 * k, k).unwrap();
        }
        for k in 0..2_000u64 {
            t.search(&ep, 2 * k).unwrap();
        }
        let levels = root_of(&t, &ep).1.level as u64;
        let local = 60 * levels; // one cache probe per internal level

        // Warm search, hit or miss: the leaf READ and nothing else.
        let leaf_read = p.rw_cost_ns(NODE_SIZE);
        assert_eq!(cost(&ep, || t.search(&ep, 1_000).unwrap()), (1, 1, leaf_read + local));
        assert_eq!(cost(&ep, || t.search(&ep, 1_001).unwrap()), (1, 1, leaf_read + local));
        assert_eq!((leaf_read, local), (1_612, 180));

        // Insert = update = remove: {CAS lock, READ image}, then {WRITE
        // image, WRITE unlock}.
        let two_doorbells = p.atomic_cost_ns()
            + p.atomic_unit_ns
            + p.batched_cost_ns(NODE_SIZE)
            + p.rw_cost_ns(NODE_SIZE)
            + p.batched_cost_ns(8);
        assert_eq!(two_doorbells, 3_774);
        let before = t.stats();
        // Ascending loads leave every leaf but the last half full.
        assert_eq!(cost(&ep, || t.insert(&ep, 1_001, 7).unwrap()), (2, 4, two_doorbells + local));
        assert_eq!(cost(&ep, || t.insert(&ep, 1_001, 8).unwrap()), (2, 4, two_doorbells + local));
        assert_eq!(cost(&ep, || assert!(t.remove(&ep, 1_001).unwrap())), (2, 4, two_doorbells + local));
        assert_eq!(t.stats().splits, before.splits);
        assert_eq!(t.stats().stale_retries, 0);
        assert_eq!(t.search(&ep, 1_001).unwrap(), None);
        assert_eq!(t.search(&ep, 1_000).unwrap(), Some(500));
    }

    #[test]
    fn own_split_leaves_the_cache_exact() {
        let l = layer(NetworkProfile::rdma_cx6());
        let (t, _) = RemoteBTree::create(&l, true, 1).unwrap();
        let ep = l.fabric().endpoint();
        // Through leaf, internal and root splits: after each insert that
        // split something, the key it moved is still one READ away.
        let mut checked = 0;
        for k in 0..3_000u64 {
            let key = (k * 2_654_435_761) % 100_000;
            let splits = t.stats().splits;
            t.insert(&ep, key, k).unwrap();
            if t.stats().splits > splits {
                let (wire, verbs, _) = cost(&ep, || assert_eq!(t.search(&ep, key).unwrap(), Some(k)));
                assert_eq!((wire, verbs), (1, 1), "search after own split #{splits}");
                checked += 1;
            }
        }
        assert!(checked > 200 && root_of(&t, &ep).1.level >= 2);
        assert_eq!(t.stats().stale_retries, 0, "a handle never finds its own cache stale");
    }

    #[test]
    fn second_handle_detects_stale_path() {
        let l = layer(NetworkProfile::zero());
        let (a, meta) = RemoteBTree::create(&l, true, 1).unwrap();
        let b = RemoteBTree::open(&l, meta, true, 2);
        let ep = l.fabric().endpoint();
        let key = |i: u64| (i * 2_654_435_761) % 1_000_000;
        for i in 0..300 {
            a.insert(&ep, key(i), i).unwrap();
        }
        // Warm b's root, internals and levels.
        for i in 0..300 {
            assert_eq!(b.search(&ep, key(i)).unwrap(), Some(i));
        }
        let (old_root, old_image) = root_of(&a, &ep);
        assert_eq!(b.stats().stale_retries, 0);
        // a grows the tree through leaf, internal and root splits.
        for i in 300..6_000 {
            a.insert(&ep, key(i), i).unwrap();
        }
        let (new_root, new_image) = root_of(&a, &ep);
        assert!(new_root != old_root && new_image.level > old_image.level);
        // b must still find everything despite its stale path.
        for i in 0..6_000 {
            assert_eq!(b.search(&ep, key(i)).unwrap(), Some(i), "key {i}");
        }
        assert!(b.stats().stale_retries > 0, "fence checks caught the stale path");
        let (wire, verbs, _) = cost(&ep, || b.search(&ep, key(4_242)).unwrap());
        assert_eq!((wire, verbs), (1, 1), "refreshed along the way");
    }

    #[test]
    fn readers_see_loaded_values_while_writers_split() {
        let l = layer(NetworkProfile::zero());
        let (t0, meta) = RemoteBTree::create(&l, true, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 0..1_000u64 {
            t0.insert(&ep, 8 * k, k + 1).unwrap();
        }
        let writers_left = AtomicUsize::new(2);
        // Readers and writers start together.
        let start = std::sync::Barrier::new(4);
        let splits = std::thread::scope(|s| {
            for r in 0..2u64 {
                let (l, writers_left, start) = (l.clone(), &writers_left, &start);
                s.spawn(move || {
                    let t = RemoteBTree::open(&l, meta, true, 20 + r);
                    let ep = l.fabric().endpoint();
                    start.wait();
                    // At least one pass, then until the writers are done.
                    loop {
                        let last = writers_left.load(Ordering::Acquire) == 0;
                        for k in 0..1_000u64 {
                            assert_eq!(t.search(&ep, 8 * k).unwrap(), Some(k + 1), "key {}", 8 * k);
                        }
                        if last {
                            break;
                        }
                    }
                });
            }
            let writers: Vec<_> = (0..2u64)
                .map(|w| {
                    let (l, writers_left, start) = (l.clone(), &writers_left, &start);
                    s.spawn(move || {
                        let t = RemoteBTree::open(&l, meta, true, 10 + w);
                        let ep = l.fabric().endpoint();
                        start.wait();
                        // Fresh keys between the loaded ones, everywhere.
                        for i in 0..3_000u64 {
                            let k = (i * 2_654_435_761) % 8_000;
                            t.insert(&ep, k - k % 8 + 1 + w + 2 * (i % 3), i).unwrap();
                        }
                        writers_left.fetch_sub(1, Ordering::Release);
                        t.stats().splits
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).sum::<u64>()
        });
        assert!(splits > 100, "the writers split under the readers: {splits}");
    }

    #[test]
    fn error_after_lock_gives_the_leaf_back() {
        let l = layer(NetworkProfile::rdma_cx6());
        let (t, meta) = RemoteBTree::create(&l, true, 1).unwrap();
        let ep = l.fabric().endpoint();
        let (good, bad) = (meta.node(), 1 - meta.node());
        // Burn one allocation so that the root the first split creates
        // lands beside `meta`: a split under the fault then reaches the
        // SMO lock, the root and (below) its leaf, and nothing else.
        l.alloc(8).unwrap();
        for k in 0..60u64 {
            t.insert(&ep, 10 * k, k).unwrap();
        }
        let (root_addr, root) = root_of(&t, &ep);
        assert_eq!((root_addr.node(), root.level), (good, 1));
        // Fill a leaf on the good node to the brim, no split yet.
        let (leaf_addr, leaf) =
            *leaves_of(&t, &ep).iter().find(|(addr, leaf)| addr.node() == good && leaf.nkeys == 8).unwrap();
        for k in 1..=8 {
            t.insert(&ep, leaf.fence_low + k, 0).unwrap();
        }
        assert_eq!(t.read_node(&ep, leaf_addr).unwrap().nkeys, FANOUT);
        // The next allocation — the split's new sibling — goes to the
        // other node, which drops off the network between two calls: a
        // lock is only ever taken on a node that answers.
        while l.alloc(8).unwrap().node() != good {}
        let fabric = l.fabric();
        fabric.install_fault_plan(FaultPlan::new().partition(bad, ep.clock().now_ns(), u64::MAX));
        let splits = t.stats().splits;
        assert!(t.insert(&ep, leaf.fence_low + 9, 0).is_err(), "the sibling cannot be written");
        assert_eq!(t.stats().splits, splits);
        fabric.clear_fault_plan();

        // No lock outlives the failed call.
        for (addr, leaf) in leaves_of(&t, &ep) {
            assert_eq!(leaf.lock, 0, "leaf {addr} still locked");
        }
        assert_eq!(l.read_u64(&ep, meta.offset_by(8)).unwrap(), 0, "SMO lock still held");
        t.insert(&ep, leaf.fence_low + 9, 9).unwrap();
        assert_eq!(t.search(&ep, leaf.fence_low + 9).unwrap(), Some(9));
        assert_eq!(t.stats().splits, splits + 1);
    }

    /// A tree of `8 * k -> k` for k in 0..2 000, loaded in ascending
    /// order: every leaf but the last is half full, with room for seven
    /// keys after each of its own.
    fn spaced_tree(profile: NetworkProfile) -> (Arc<DsmLayer>, RemoteBTree, GlobalAddr, Endpoint) {
        let l = layer(profile);
        let (t, meta) = RemoteBTree::create(&l, true, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 0..2_000u64 {
            t.insert(&ep, 8 * k, k).unwrap();
        }
        (l, t, meta, ep)
    }

    /// Fill the half-full leaf `leaf` to the brim, one key after each of
    /// its own.
    fn fill(t: &RemoteBTree, ep: &Endpoint, leaf: &Node) {
        assert_eq!(leaf.nkeys, FANOUT / 2);
        for &k in &leaf.keys[..leaf.nkeys] {
            t.insert(ep, k + 1, 0).unwrap();
        }
    }

    #[test]
    fn a_cached_leaf_split_is_six_round_trips() {
        let p = NetworkProfile::rdma_cx6();
        let (l, t, meta, ep) = spaced_tree(p);
        for k in 0..2_000u64 {
            t.search(&ep, 8 * k).unwrap();
        }
        let local = 60 * root_of(&t, &ep).1.level as u64;
        // {CAS leaf, READ leaf}; {CAS SMO, READ root pointer, WRITE right
        // half}; READ parent; {WRITE left half, WRITE unlock}; WRITE
        // parent; WRITE SMO unlock.
        let split = p.atomic_cost_ns()
            + p.atomic_unit_ns
            + p.batched_cost_ns(NODE_SIZE)
            + p.atomic_cost_ns()
            + p.atomic_unit_ns
            + p.batched_cost_ns(16)
            + p.batched_cost_ns(NODE_SIZE)
            + p.rw_cost_ns(NODE_SIZE)
            + p.rw_cost_ns(NODE_SIZE)
            + p.batched_cost_ns(8)
            + p.rw_cost_ns(NODE_SIZE)
            + p.rw_cost_ns(8);
        assert_eq!(split, 10_760);
        let leaves = leaves_of(&t, &ep);
        // The new key falls in the left half, then in the right one.
        for (at, slot) in [(leaves.len() / 3, 2), (2 * leaves.len() / 3, 6)] {
            let (leaf_addr, leaf) = leaves[at];
            fill(&t, &ep, &leaf);
            let parent = t.descend(&ep, leaf.keys[0]).unwrap().1.unwrap();
            assert!(t.read_node(&ep, parent).unwrap().nkeys < FANOUT, "the parent has room");
            let key = leaf.keys[slot] + 2;
            let before = t.stats();
            assert_eq!(cost(&ep, || t.insert(&ep, key, 7).unwrap()), (6, 10, split + local));
            assert_eq!((t.stats().splits, t.stats().inserts), (before.splits + 1, before.inserts + 1));
            // The key is one READ away, and no lock outlives the split.
            assert_eq!(cost(&ep, || t.search(&ep, key).unwrap()), (1, 1, p.rw_cost_ns(NODE_SIZE) + local));
            assert_eq!(t.search(&ep, key).unwrap(), Some(7));
            assert_eq!(t.read_node(&ep, leaf_addr).unwrap().lock, 0);
            assert_eq!(l.read_u64(&ep, meta.offset_by(8)).unwrap(), 0);
        }
        assert_eq!(t.stats().stale_retries, 0);
    }

    #[test]
    fn a_split_waits_for_smo_holding_only_its_leaf() {
        let (l, t, meta, ep) = spaced_tree(NetworkProfile::zero());
        let leaves = leaves_of(&t, &ep);
        let (full_addr, full) = leaves[leaves.len() / 2];
        let other = leaves[leaves.len() / 4].1;
        fill(&t, &ep, &full);
        let key = full.keys[3] + 2;
        // Hold the SMO lock by hand.
        let smo = meta.offset_by(8);
        l.write_u64(&ep, smo, 99).unwrap();
        std::thread::scope(|s| {
            let splitter = s.spawn(|| {
                let t = RemoteBTree::open(&l, meta, true, 2);
                t.insert(&l.fabric().endpoint(), key, 5).unwrap();
            });
            // The splitter takes its leaf, then waits for SMO.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while t.read_node(&ep, full_addr).unwrap().lock != 2 {
                assert!(std::time::Instant::now() < deadline, "the splitter never took its leaf");
                std::thread::yield_now();
            }
            for (addr, leaf) in leaves_of(&t, &ep) {
                assert!(addr == full_addr || leaf.lock == 0, "leaf {addr} locked while SMO is held");
            }
            // Writers of every other leaf go on meanwhile.
            t.insert(&ep, other.keys[0] + 1, 1).unwrap();
            assert_eq!(t.search(&ep, other.keys[0] + 1).unwrap(), Some(1));
            assert!(!splitter.is_finished());
            l.write_u64(&ep, smo, 0).unwrap();
            splitter.join().unwrap();
        });
        assert_eq!(t.search(&ep, key).unwrap(), Some(5));
        assert_eq!(l.read_u64(&ep, smo).unwrap(), 0);
        for (addr, leaf) in leaves_of(&t, &ep) {
            assert_eq!(leaf.lock, 0, "leaf {addr} still locked");
        }
    }

    /// Run `op` on a thread of its own; fail if it has not returned
    /// within `secs` seconds (the thread is left spinning).
    fn within(secs: u64, op: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            op();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(secs)) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("did not return within {secs} s"),
            outcome => outcome.expect("the operation panicked"),
        }
    }

    #[test]
    fn a_split_stopped_before_its_parent_write_leaves_a_tree_that_moves_right() {
        let (l, t, meta, ep) = spaced_tree(NetworkProfile::zero());
        // By hand, what a split that failed after releasing the left half
        // leaves: the right half published and named by the left one's
        // `next` and lower fence, and no entry in the parent.
        let leaves = leaves_of(&t, &ep);
        let (left_addr, mut left) = leaves[leaves.len() / 2];
        let right = left.split_off();
        left.next = t.publish(&ep, &right).unwrap().to_raw();
        l.write(&ep, left_addr, &left.encode()).unwrap();
        let moved = right.keys[..right.nkeys].to_vec();
        let low = right.fence_low;
        let splits = t.stats().splits;

        // Readers and writers of the right half finish, on handles whose
        // cached path routes to the left half and on fresh ones alike.
        let l2 = l.clone();
        within(3, move || {
            let t = RemoteBTree::open(&l2, meta, true, 2);
            let ep = l2.fabric().endpoint();
            for &k in &moved {
                assert_eq!(t.search(&ep, k).unwrap(), Some(k / 8));
            }
            // Fill the right half until it splits: that split names it in
            // the level above first.
            for (i, &k) in moved.iter().enumerate() {
                for d in 1..8 {
                    t.insert(&ep, k + d, i as u64).unwrap();
                }
            }
            assert!(t.stats().splits > 0);
        });
        assert!(t.search(&ep, low).unwrap() == Some(low / 8));
        assert!(t.stats().splits == splits);

        // Named now: a fresh handle finds every key with no fence miss.
        let fresh = RemoteBTree::open(&l, meta, true, 3);
        for k in 0..2_000u64 {
            assert_eq!(fresh.search(&ep, 8 * k).unwrap(), Some(k), "key {}", 8 * k);
        }
        assert_eq!(fresh.stats().stale_retries, 0);
        let routes_to_right = leaves_of(&t, &ep).iter().any(|(_, leaf)| leaf.fence_low == low);
        assert!(routes_to_right);
        let (_, parent, _) = fresh.descend(&ep, low).unwrap();
        let parent = fresh.read_node(&ep, parent.unwrap()).unwrap();
        assert!(parent.keys[..parent.nkeys].contains(&low), "the parent names the right half");
    }

    #[test]
    fn a_read_that_a_write_overtook_is_posted_again() {
        // One leaf, one writer shifting its keys and values back and
        // forth, two readers for one second. A READ and a WRITE of the
        // leaf run word by word; with a version copy in place of the
        // check word, ~100 of 2.9 M reads here returned a key paired with
        // its neighbour's value, or no key at all.
        let l = layer(NetworkProfile::zero());
        let (t, meta) = RemoteBTree::create(&l, true, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 1..=8u64 {
            t.insert(&ep, 10 * k, k).unwrap();
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        let wrong = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for r in 0..2u64 {
                let (l, stop, wrong) = (l.clone(), &stop, &wrong);
                s.spawn(move || {
                    let t = RemoteBTree::open(&l, meta, true, 20 + r);
                    let ep = l.fabric().endpoint();
                    while !stop.load(Ordering::Relaxed) {
                        for k in 2..=8u64 {
                            if t.search(&ep, 10 * k).unwrap() != Some(k) {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            let (l, stop) = (l.clone(), &stop);
            s.spawn(move || {
                let t = RemoteBTree::open(&l, meta, true, 10);
                let ep = l.fabric().endpoint();
                while !stop.load(Ordering::Relaxed) {
                    t.insert(&ep, 15, 0).unwrap();
                    assert!(t.remove(&ep, 15).unwrap());
                }
            });
            std::thread::sleep(std::time::Duration::from_secs(1));
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(wrong.load(Ordering::Relaxed), 0);
    }
}
