//! The unified memory space over a cluster of memory nodes.
//!
//! Replication is organized in **mirror groups**: with replication factor
//! `k`, consecutive groups of `k` memory nodes hold identical contents. A
//! group has a single allocator (lockstep offsets on every member), the
//! group primary's fabric id is the node half of every [`GlobalAddr`], and:
//!
//! * writes go to every live member (doorbell-batched — one round trip
//!   plus marginal per-replica cost, like RDMA multi-QP doorbells);
//! * reads are served by the primary, failing over to any live replica;
//! * CAS and unlock on the primary; a rebuilt member's lock words are
//!   free ([`GlobalWr::Unlock`], [`DsmLayer::register_lock_words`]) —
//!   transient synchronization state is rebuilt, not replicated, exactly
//!   as in the paper's recovery discussion.
//!
//! [`DsmLayer::doorbell`] applies these rules to a mixed group of work
//! requests and posts the result as one fabric doorbell; the batched and
//! replicated entry points are that path with a fixed verb.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use memnode::{AllocError, AllocStats, MemoryNode, OffloadFn};
use rdma_sim::{Endpoint, Fabric, NetworkProfile, NodeId, RdmaError, Wr};

use crate::addr::GlobalAddr;
use crate::retry::RetryPolicy;

/// Errors from the DSM layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsmError {
    /// Allocation failed on every candidate group.
    Alloc(AllocError),
    /// A verb failed at the fabric level.
    Rdma(RdmaError),
    /// Address does not belong to any known group.
    UnknownAddress(GlobalAddr),
    /// Every member of the addressed mirror group is unreachable.
    GroupUnavailable { primary: NodeId },
}

impl std::fmt::Display for DsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsmError::Alloc(e) => write!(f, "allocation failed: {e}"),
            DsmError::Rdma(e) => write!(f, "fabric error: {e}"),
            DsmError::UnknownAddress(a) => write!(f, "unknown address {a:?}"),
            DsmError::GroupUnavailable { primary } => {
                write!(f, "mirror group of node {primary} fully unavailable")
            }
        }
    }
}

impl DsmError {
    /// Whether retrying can reasonably succeed: true only for transient
    /// fabric faults (injected timeouts / QP hiccups). Hard failures —
    /// crashed nodes, protection faults, exhausted groups, allocation
    /// failures — are not retryable.
    pub fn is_transient(&self) -> bool {
        matches!(self, DsmError::Rdma(e) if e.is_transient())
    }
}

impl std::error::Error for DsmError {}

impl From<AllocError> for DsmError {
    fn from(e: AllocError) -> Self {
        DsmError::Alloc(e)
    }
}

impl From<RdmaError> for DsmError {
    fn from(e: RdmaError) -> Self {
        DsmError::Rdma(e)
    }
}

/// Result alias for DSM operations.
pub type DsmResult<T> = Result<T, DsmError>;

/// Configuration for building a [`DsmLayer`].
#[derive(Debug, Clone, Copy)]
pub struct DsmConfig {
    /// Number of memory nodes (must be a multiple of `replication`).
    pub memory_nodes: usize,
    /// DRAM capacity per node, bytes.
    pub capacity_per_node: usize,
    /// Mirror-group size `k` (1 = no replication).
    pub replication: usize,
    /// Weak-CPU cores per memory node (offload executor width).
    pub mem_cores: usize,
    /// How much slower a memory-node core is than a compute-node core.
    pub weak_cpu_factor: f64,
}

impl Default for DsmConfig {
    fn default() -> Self {
        Self {
            memory_nodes: 2,
            capacity_per_node: 16 << 20,
            replication: 1,
            mem_cores: 2,
            weak_cpu_factor: 4.0,
        }
    }
}

/// One work request of a [`DsmLayer::doorbell`] group: [`rdma_sim::Wr`]
/// over logical addresses. The layer resolves each to fabric members —
/// CAS and unlock on the group primary, READ from the first reachable
/// member, WRITE and FAA to every reachable member. A rebuilt member's
/// lock words are free ([`DsmLayer::recover_member_from_mirror`]).
#[derive(Debug)]
pub enum GlobalWr<'a> {
    /// Read `dst.len()` bytes at `addr`.
    Read { addr: GlobalAddr, dst: &'a mut [u8] },
    /// Write `src` at `addr` on every reachable mirror member.
    Write { addr: GlobalAddr, src: &'a [u8] },
    /// Compare-and-swap the word at `addr`; `prev` receives the pre-op
    /// value and is left untouched if the member was never executed.
    Cas {
        addr: GlobalAddr,
        expected: u64,
        new: u64,
        prev: &'a mut u64,
    },
    /// Fetch-and-add `add` (wrapping) to the word at `addr` on every
    /// reachable mirror member; `prev` receives the pre-add value of the
    /// first of them — the primary while it is up — and is left untouched
    /// if that member was never executed.
    Faa {
        addr: GlobalAddr,
        add: u64,
        prev: &'a mut u64,
    },
    /// Free the lock word at `addr`: a WRITE of 0 on the group primary
    /// only. With the primary unreachable nothing is posted — the word
    /// died with its node, and the rebuild frees it
    /// ([`DsmLayer::register_lock_words`]) — so the rest of the doorbell
    /// still lands; only a group with no reachable member fails.
    Unlock { addr: GlobalAddr },
}

impl GlobalWr<'_> {
    /// The same request borrowed for a shorter time, so a slice of
    /// requests can be posted again after a transient fault.
    fn reborrow(&mut self) -> GlobalWr<'_> {
        match self {
            GlobalWr::Read { addr, dst } => GlobalWr::Read { addr: *addr, dst },
            GlobalWr::Write { addr, src } => GlobalWr::Write { addr: *addr, src },
            GlobalWr::Cas { addr, expected, new, prev } => GlobalWr::Cas {
                addr: *addr,
                expected: *expected,
                new: *new,
                prev,
            },
            GlobalWr::Faa { addr, add, prev } => GlobalWr::Faa { addr: *addr, add: *add, prev },
            GlobalWr::Unlock { addr } => GlobalWr::Unlock { addr: *addr },
        }
    }
}

/// Members a doorbell of many requests may resolve to before the list
/// leaves the stack: a 16-page multi-get, or the release doorbell of an
/// 8-key transaction over 2-way mirrors (8 x 2 write-backs + 8 unlocks on
/// the primaries = 24).
const INLINE_MEMBERS: usize = 32;

/// The same for a doorbell of at most [`FEW_REQUESTS`] requests — one
/// replicated write, a lock CAS with its payload READ — which is most
/// doorbells, and should not pay for filling the large list.
const INLINE_MEMBERS_FEW: usize = 8;
const FEW_REQUESTS: usize = 2;

/// The fabric-level members of the doorbell being posted. Up to `N` live
/// in the frame of [`DsmLayer::post_within`], so a steady stream of doorbells
/// allocates nothing; a larger group spills to the heap.
struct Members<'a, const N: usize> {
    inline: [Wr<'a>; N],
    /// Members in `inline`; stays `N` once `spilled` took over.
    len: usize,
    /// Every member, once there were more than fit inline.
    spilled: Vec<Wr<'a>>,
}

impl<'a, const N: usize> Members<'a, N> {
    /// Fills the inline slots no member has been written to.
    const UNUSED: Wr<'a> = Wr::Write { node: 0, offset: 0, src: &[] };

    fn new() -> Self {
        Self { inline: [Self::UNUSED; N], len: 0, spilled: Vec::new() }
    }

    fn push(&mut self, wr: Wr<'a>) {
        if self.len < N {
            self.inline[self.len] = wr;
            self.len += 1;
            return;
        }
        if self.spilled.is_empty() {
            self.spilled.reserve(2 * N);
            let inline = self.inline.iter_mut();
            self.spilled.extend(inline.map(|slot| std::mem::replace(slot, Self::UNUSED)));
        }
        self.spilled.push(wr);
    }

    fn as_mut_slice(&mut self) -> &mut [Wr<'a>] {
        if self.spilled.is_empty() {
            &mut self.inline[..self.len]
        } else {
            &mut self.spilled
        }
    }
}

struct MirrorGroup {
    /// Group members; index 0 is the primary whose fabric id names the
    /// group in addresses and whose allocator is authoritative.
    members: Vec<Arc<MemoryNode>>,
    /// A retired group (memory-node leave) accepts no fresh
    /// allocations; its extents stay readable until drained.
    retired: AtomicBool,
}

impl MirrorGroup {
    fn primary(&self) -> &Arc<MemoryNode> {
        &self.members[0]
    }
}

/// `count` lock words at `first`, `first + stride`, ...: state of their
/// group's primary alone, which a rebuilt member comes up without.
#[derive(Clone, Copy)]
struct LockStripe {
    first: GlobalAddr,
    stride: u64,
    count: u64,
}

impl LockStripe {
    /// Zero every word of the stripe that lies in `chunk`, the bytes at
    /// `off` of the stripe's group.
    fn free_within(&self, off: u64, chunk: &mut [u8]) {
        let (first, len) = (self.first.offset(), chunk.len());
        let skip = off.saturating_sub(first).div_ceil(self.stride);
        for i in skip..self.count {
            let from = (first + i * self.stride - off) as usize;
            if from >= len {
                break;
            }
            chunk[from..(from + 8).min(len)].fill(0);
        }
    }
}

/// The distributed shared-memory layer: pooled, replicated, logically
/// addressed memory with database-facing APIs (§3).
pub struct DsmLayer {
    fabric: Arc<Fabric>,
    /// Mirror groups: shared-read on the data path, write-locked only
    /// by the rare membership changes (join/retire append or flag —
    /// existing indices never move or disappear).
    groups: parking_lot::RwLock<Vec<Arc<MirrorGroup>>>,
    /// fabric NodeId of a group primary -> group index.
    by_primary: parking_lot::RwLock<HashMap<NodeId, usize>>,
    next_group: AtomicUsize,
    replication: usize,
    /// Retry policy applied to every data-path verb (transient faults
    /// absorbed with virtual-time backoff).
    retry: parking_lot::RwLock<RetryPolicy>,
    /// The lock words [`DsmLayer::recover_member_from_mirror`] frees.
    lock_stripes: parking_lot::Mutex<Vec<LockStripe>>,
}

impl DsmLayer {
    /// Build the layer: creates the memory nodes on `fabric` per `config`.
    pub fn build(fabric: &Arc<Fabric>, config: DsmConfig) -> Arc<Self> {
        assert!(config.replication >= 1);
        assert!(
            config.memory_nodes.is_multiple_of(config.replication),
            "memory_nodes must be a multiple of the replication factor"
        );
        let mut groups = Vec::new();
        let mut by_primary = HashMap::new();
        for _ in 0..(config.memory_nodes / config.replication) {
            let members: Vec<Arc<MemoryNode>> = (0..config.replication)
                .map(|_| {
                    Arc::new(MemoryNode::new(
                        fabric,
                        config.capacity_per_node,
                        config.mem_cores,
                        config.weak_cpu_factor,
                    ))
                })
                .collect();
            // Burn the first 8 bytes of each group so offset 0 is never
            // handed out and GlobalAddr::NULL stays unambiguous.
            members[0].alloc(8).expect("fresh node");
            by_primary.insert(members[0].id(), groups.len());
            groups.push(Arc::new(MirrorGroup {
                members,
                retired: AtomicBool::new(false),
            }));
        }
        Arc::new(Self {
            fabric: fabric.clone(),
            groups: parking_lot::RwLock::new(groups),
            by_primary: parking_lot::RwLock::new(by_primary),
            next_group: AtomicUsize::new(0),
            replication: config.replication,
            retry: parking_lot::RwLock::new(RetryPolicy::default()),
            lock_stripes: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// Add a fresh mirror group mid-run (memory-node join): spins up
    /// `replication` new memory nodes, wires them as one group, and
    /// makes them immediately eligible for round-robin allocation.
    /// Returns the new group's index.
    pub fn join_group(
        &self,
        capacity_per_node: usize,
        mem_cores: usize,
        weak_cpu_factor: f64,
    ) -> usize {
        let members: Vec<Arc<MemoryNode>> = (0..self.replication)
            .map(|_| {
                Arc::new(MemoryNode::new(
                    &self.fabric,
                    capacity_per_node,
                    mem_cores,
                    weak_cpu_factor,
                ))
            })
            .collect();
        members[0].alloc(8).expect("fresh node");
        let group = Arc::new(MirrorGroup {
            members,
            retired: AtomicBool::new(false),
        });
        let mut groups = self.groups.write();
        let idx = groups.len();
        self.by_primary.write().insert(group.primary().id(), idx);
        groups.push(group);
        idx
    }

    /// Mark a group non-allocatable (memory-node leave). Its extents
    /// stay readable and writable until the caller drains them (live
    /// migration); only fresh allocations skip the group.
    pub fn retire_group(&self, idx: usize) {
        self.groups.read()[idx].retired.store(true, Ordering::Relaxed);
    }

    /// Whether group `idx` has been retired.
    pub fn group_retired(&self, idx: usize) -> bool {
        self.groups.read()[idx].retired.load(Ordering::Relaxed)
    }

    /// Group index owned by the primary with fabric id `node`, if any.
    pub fn group_index_of(&self, node: NodeId) -> Option<usize> {
        self.by_primary.read().get(&node).copied()
    }

    /// Replace the data-path retry policy (e.g. [`RetryPolicy::none`] to
    /// surface every fault to the caller).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.write() = policy;
    }

    /// The retry policy currently in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry.read()
    }

    /// The fabric this layer lives on.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The active network cost model.
    pub fn profile(&self) -> NetworkProfile {
        self.fabric.profile()
    }

    /// Number of mirror groups (= allocation domains).
    pub fn group_count(&self) -> usize {
        self.groups.read().len()
    }

    /// Replication factor `k`.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The primary memory node of group `idx` (experiments poke at
    /// allocators and offload executors through this).
    pub fn group_primary(&self, idx: usize) -> Arc<MemoryNode> {
        self.groups.read()[idx].primary().clone()
    }

    /// All members of group `idx`.
    pub fn group_members(&self, idx: usize) -> Vec<Arc<MemoryNode>> {
        self.groups.read()[idx].members.clone()
    }

    fn group_of(&self, addr: GlobalAddr) -> DsmResult<Arc<MirrorGroup>> {
        let idx = self
            .by_primary
            .read()
            .get(&addr.node())
            .copied()
            .ok_or(DsmError::UnknownAddress(addr))?;
        Ok(self.groups.read()[idx].clone())
    }

    /// Allocate `size` bytes somewhere in the pool (round-robin across
    /// non-retired groups, falling back to any group with room).
    pub fn alloc(&self, size: u64) -> DsmResult<GlobalAddr> {
        let groups = self.groups.read().clone();
        let n = groups.len();
        let start = self.next_group.fetch_add(1, Ordering::Relaxed) % n;
        let mut last_err = AllocError::ZeroSize;
        for i in 0..n {
            let g = &groups[(start + i) % n];
            if g.retired.load(Ordering::Relaxed) {
                continue;
            }
            match g.primary().alloc(size) {
                Ok(off) => return Ok(GlobalAddr::new(g.primary().id(), off)),
                Err(e) => last_err = e,
            }
        }
        Err(DsmError::Alloc(last_err))
    }

    /// Allocate on a specific group (tables place their pages
    /// deterministically with this; explicit placement may target a
    /// retired group, e.g. to rebuild it).
    pub fn alloc_on(&self, group: usize, size: u64) -> DsmResult<GlobalAddr> {
        let g = self.groups.read()[group].clone();
        let off = g.primary().alloc(size)?;
        Ok(GlobalAddr::new(g.primary().id(), off))
    }

    /// Free an allocation, and forget the lock words registered in it.
    pub fn free(&self, addr: GlobalAddr) -> DsmResult<()> {
        let g = self.group_of(addr)?;
        let len = g.primary().size_of(addr.offset()).unwrap_or(0);
        g.primary().free(addr.offset())?;
        let extent = addr.offset()..addr.offset() + len;
        self.lock_stripes
            .lock()
            .retain(|s| s.first.node() != addr.node() || !extent.contains(&s.first.offset()));
        Ok(())
    }

    /// Register `count` 8-byte lock words at `first`, `first + stride`,
    /// ...: words a [`GlobalWr::Cas`] takes and a [`GlobalWr::Unlock`]
    /// frees, on the group primary alone, so
    /// [`DsmLayer::recover_member_from_mirror`] brings a member up with
    /// every one of them free. Forgotten when the extent holding `first`
    /// is freed.
    pub fn register_lock_words(&self, first: GlobalAddr, stride: u64, count: u64) {
        assert!(first.offset().is_multiple_of(8) && stride >= 8, "lock words are aligned and disjoint");
        self.lock_stripes.lock().push(LockStripe { first, stride, count });
    }

    /// Reallocate, copying the payload if the extent moves. Charged to
    /// `ep` as a read + write of the payload when a move happens.
    pub fn realloc(&self, ep: &Endpoint, addr: GlobalAddr, new_size: u64) -> DsmResult<GlobalAddr> {
        let g = self.group_of(addr)?;
        let old_len = g
            .primary()
            .size_of(addr.offset())
            .ok_or(DsmError::Alloc(AllocError::InvalidFree {
                offset: addr.offset(),
            }))?;
        let new_off = g.primary().realloc(addr.offset(), new_size)?;
        if new_off != addr.offset() {
            // The extent moved: copy old payload to the new location on
            // every member.
            let copy = old_len.min(new_size) as usize;
            let mut buf = vec![0u8; copy];
            self.read(ep, addr, &mut buf)?;
            let new_addr = GlobalAddr::new(g.primary().id(), new_off);
            self.write(ep, new_addr, &buf)?;
            return Ok(new_addr);
        }
        Ok(addr)
    }

    /// One-sided READ from `addr`, failing over across mirror members.
    /// Transient faults are absorbed by the layer's [`RetryPolicy`].
    pub fn read(&self, ep: &Endpoint, addr: GlobalAddr, dst: &mut [u8]) -> DsmResult<()> {
        self.retry_policy()
            .run(ep, || self.sweep(addr, |node| ep.read(node, addr.offset(), dst)))
    }

    /// Post `verb` to each member of `addr`'s group in turn, until one
    /// answers: the fail-over of one READ-like verb.
    fn sweep<T>(&self, addr: GlobalAddr, mut verb: impl FnMut(NodeId) -> Result<T, RdmaError>) -> DsmResult<T> {
        let g = self.group_of(addr)?;
        // Track transient failures across the member sweep: if no member
        // answered but one failed transiently, report *that* so the retry
        // policy re-sweeps, instead of declaring the group dead.
        let mut transient: Option<RdmaError> = None;
        for member in &g.members {
            match verb(member.id()) {
                Ok(v) => return Ok(v),
                Err(RdmaError::NodeUnreachable(_)) => continue,
                Err(e) if e.is_transient() => {
                    transient = Some(e);
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
        }
        match transient {
            Some(e) => Err(e.into()),
            None => Err(DsmError::GroupUnavailable {
                primary: addr.node(),
            }),
        }
    }

    /// One doorbell over a mixed group of work requests on logical
    /// addresses: each CAS goes to its group's primary, each READ to the
    /// first reachable member of its group, each WRITE and FAA to every
    /// reachable member, and the members are posted in that order as one
    /// [`Endpoint::doorbell`] — one wire round trip for the whole group.
    /// The fabric pre-flights every target before any word is touched, so
    /// a transient fault leaves nothing half-done and the layer's
    /// [`RetryPolicy`] posts the whole group again. A hard fault past the
    /// pre-flight (a member died after it was chosen) ends the group
    /// there: the `prev` of a CAS or FAA tells whether it was executed.
    pub fn doorbell(&self, ep: &Endpoint, wrs: &mut [GlobalWr<'_>]) -> DsmResult<()> {
        self.retry_policy()
            .run(ep, || self.post(ep, wrs.iter_mut().map(GlobalWr::reborrow)))
    }

    /// Resolve `wrs` against the group table (taken once for the whole
    /// group) and ring the doorbell.
    fn post<'a>(&self, ep: &Endpoint, wrs: impl ExactSizeIterator<Item = GlobalWr<'a>>) -> DsmResult<()> {
        if wrs.len() <= FEW_REQUESTS {
            self.post_within::<INLINE_MEMBERS_FEW>(ep, wrs)
        } else {
            self.post_within::<INLINE_MEMBERS>(ep, wrs)
        }
    }

    /// [`DsmLayer::post`] with a member list of `N` inline slots.
    fn post_within<'a, const N: usize>(
        &self,
        ep: &Endpoint,
        wrs: impl Iterator<Item = GlobalWr<'a>>,
    ) -> DsmResult<()> {
        let mut members = Members::<N>::new();
        {
            let groups = self.groups.read();
            let by_primary = self.by_primary.read();
            let group_of = |addr: GlobalAddr| {
                by_primary
                    .get(&addr.node())
                    .map(|&idx| &groups[idx])
                    .ok_or(DsmError::UnknownAddress(addr))
            };
            let unavailable = |addr: GlobalAddr| DsmError::GroupUnavailable {
                primary: addr.node(),
            };
            for wr in wrs {
                match wr {
                    GlobalWr::Cas { addr, expected, new, prev } => members.push(Wr::Cas {
                        node: group_of(addr)?.primary().id(),
                        offset: addr.offset(),
                        expected,
                        new,
                        prev,
                    }),
                    GlobalWr::Read { addr, dst } => {
                        let node = group_of(addr)?
                            .members
                            .iter()
                            .map(|m| m.id())
                            .find(|&id| ep.node_reachable(id))
                            .ok_or_else(|| unavailable(addr))?;
                        members.push(Wr::Read { node, offset: addr.offset(), dst });
                    }
                    GlobalWr::Write { addr, src } => {
                        let mut reachable = false;
                        for m in &group_of(addr)?.members {
                            if ep.node_reachable(m.id()) {
                                members.push(Wr::Write { node: m.id(), offset: addr.offset(), src });
                                reachable = true;
                            }
                        }
                        if !reachable {
                            return Err(unavailable(addr));
                        }
                    }
                    GlobalWr::Unlock { addr } => {
                        let g = group_of(addr)?;
                        let primary = g.primary().id();
                        if ep.node_reachable(primary) {
                            members.push(Wr::Write { node: primary, offset: addr.offset(), src: &[0; 8] });
                        } else if !g.members.iter().any(|m| ep.node_reachable(m.id())) {
                            return Err(unavailable(addr));
                        }
                    }
                    GlobalWr::Faa { addr, add, prev } => {
                        let mut prev = Some(prev);
                        for m in &group_of(addr)?.members {
                            if ep.node_reachable(m.id()) {
                                members.push(Wr::Faa { node: m.id(), offset: addr.offset(), add, prev: prev.take() });
                            }
                        }
                        if prev.is_some() {
                            return Err(unavailable(addr));
                        }
                    }
                }
            }
        }
        Ok(ep.doorbell(members.as_mut_slice())?)
    }

    /// Doorbell-batched multi-get: every address in `reqs` is read in one
    /// [`DsmLayer::doorbell`]. If a member dies mid-group the whole set
    /// falls back to per-address fail-over [`DsmLayer::read`]s.
    pub fn read_batch(&self, ep: &Endpoint, reqs: &mut [(GlobalAddr, &mut [u8])]) -> DsmResult<()> {
        self.retry_policy().run(ep, || {
            let reads = reqs
                .iter_mut()
                .map(|(addr, dst)| GlobalWr::Read { addr: *addr, dst });
            match self.post(ep, reads) {
                Err(DsmError::Rdma(RdmaError::NodeUnreachable(_))) => reqs
                    .iter_mut()
                    .try_for_each(|(addr, dst)| self.sweep(*addr, |node| ep.read(node, addr.offset(), dst))),
                posted => posted,
            }
        })
    }

    /// Doorbell-batched multi-put: one [`DsmLayer::doorbell`] of WRITEs
    /// (k-way replication of m pages = one wire round trip plus
    /// `k*m - 1` coalesced ops).
    pub fn write_batch(&self, ep: &Endpoint, reqs: &[(GlobalAddr, &[u8])]) -> DsmResult<()> {
        self.retry_policy().run(ep, || {
            let writes = reqs.iter().map(|&(addr, src)| GlobalWr::Write { addr, src });
            self.post(ep, writes)
        })
    }

    /// One-sided WRITE of `src` to `addr` on every live mirror member
    /// (a [`DsmLayer::doorbell`] of one request).
    pub fn write(&self, ep: &Endpoint, addr: GlobalAddr, src: &[u8]) -> DsmResult<()> {
        self.doorbell(ep, &mut [GlobalWr::Write { addr, src }])
    }

    /// 8-byte CAS on the group primary (synchronization state lives on the
    /// primary only). Safe to retry: an injected fault fires before the
    /// NIC's atomic unit executes, so a failed attempt never swapped.
    pub fn cas(&self, ep: &Endpoint, addr: GlobalAddr, expected: u64, new: u64) -> DsmResult<u64> {
        let g = self.group_of(addr)?;
        let node = g.primary().id();
        self.retry_policy()
            .run(ep, || Ok(ep.cas(node, addr.offset(), expected, new)?))
    }

    /// 8-byte FAA on the group primary.
    pub fn faa(&self, ep: &Endpoint, addr: GlobalAddr, add: u64) -> DsmResult<u64> {
        let g = self.group_of(addr)?;
        let node = g.primary().id();
        self.retry_policy()
            .run(ep, || Ok(ep.faa(node, addr.offset(), add)?))
    }

    /// Aligned 8-byte read (primary, with mirror failover).
    pub fn read_u64(&self, ep: &Endpoint, addr: GlobalAddr) -> DsmResult<u64> {
        self.retry_policy()
            .run(ep, || self.sweep(addr, |node| ep.read_u64(node, addr.offset())))
    }

    /// Aligned 8-byte write to every live mirror member.
    pub fn write_u64(&self, ep: &Endpoint, addr: GlobalAddr, value: u64) -> DsmResult<()> {
        self.write(ep, addr, &value.to_le_bytes())
    }

    /// Register an offload handler on *every* node (so any group can serve
    /// it).
    pub fn register_offload(&self, fn_id: u32, f: OffloadFn) {
        for g in self.groups.read().iter() {
            for m in &g.members {
                m.register_offload(fn_id, f.clone());
            }
        }
    }

    /// Invoke an offloaded function on the group owning `addr`.
    pub fn offload(&self, ep: &Endpoint, addr: GlobalAddr, fn_id: u32, arg: &[u8]) -> DsmResult<Vec<u8>> {
        let g = self.group_of(addr)?;
        Ok(g.primary().offload(ep, fn_id, arg)?)
    }

    /// Pool-wide allocation statistics (sums group primaries — replicas
    /// mirror them).
    pub fn pool_stats(&self) -> AllocStats {
        let mut total = AllocStats {
            capacity: 0,
            allocated: 0,
            free: 0,
            largest_free: 0,
            free_extents: 0,
            live_allocations: 0,
        };
        for g in self.groups.read().iter() {
            let s = g.primary().alloc_stats();
            total.capacity += s.capacity;
            total.allocated += s.allocated;
            total.free += s.free;
            total.largest_free = total.largest_free.max(s.largest_free);
            total.free_extents += s.free_extents;
            total.live_allocations += s.live_allocations;
        }
        total
    }

    /// Crash a specific member of a group (failure injection).
    pub fn crash_member(&self, group: usize, member: usize) -> DsmResult<()> {
        let id = self.groups.read()[group].members[member].id();
        Ok(self.fabric.crash(id)?)
    }

    /// Recover a crashed/replaced member by copying contents from a live
    /// mirror sibling over the fabric (charged to `ep`). Returns bytes
    /// copied. This is the fast-path recovery of §3 Challenge 3 (replica
    /// copy); checkpoint+log recovery lives in [`crate::checkpoint`].
    ///
    /// Lock state is rebuilt, not copied: every registered lock word
    /// ([`DsmLayer::register_lock_words`]) of the group is zeroed in each
    /// chunk on its way through, so the member, backup or primary, comes
    /// up with every lock free — whatever the sibling's copy of the word
    /// held, since unlocks write the primary alone.
    pub fn recover_member_from_mirror(
        &self,
        ep: &Endpoint,
        group: usize,
        member: usize,
    ) -> DsmResult<u64> {
        let g = self.groups.read()[group].clone();
        let failed = &g.members[member];
        let capacity = failed.capacity() as usize;
        // Fresh hardware under the same logical id.
        let fresh = self.fabric.replace(failed.id(), capacity)?;
        failed.rebind(fresh);
        // Find a live sibling to copy from.
        let source = g
            .members
            .iter()
            .find(|m| m.id() != failed.id() && self.fabric.is_alive(m.id()))
            .ok_or(DsmError::GroupUnavailable {
                primary: g.primary().id(),
            })?;
        let primary = g.primary().id();
        let stripes: Vec<LockStripe> =
            self.lock_stripes.lock().iter().filter(|s| s.first.node() == primary).copied().collect();
        // Stream the whole region in 64 KiB chunks.
        const CHUNK: usize = 64 << 10;
        let mut buf = vec![0u8; CHUNK];
        let mut copied = 0u64;
        let mut off = 0u64;
        while (off as usize) < capacity {
            let take = CHUNK.min(capacity - off as usize);
            ep.read(source.id(), off, &mut buf[..take])?;
            for stripe in &stripes {
                stripe.free_within(off, &mut buf[..take]);
            }
            ep.write(failed.id(), off, &buf[..take])?;
            copied += take as u64;
            off += take as u64;
        }
        Ok(copied)
    }
}

impl std::fmt::Debug for DsmLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsmLayer")
            .field("groups", &self.groups.read().len())
            .field("replication", &self.replication)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(replication: usize, nodes: usize) -> (Arc<Fabric>, Arc<DsmLayer>) {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: nodes,
                capacity_per_node: 1 << 20,
                replication,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        );
        (fabric, layer)
    }

    #[test]
    fn alloc_never_returns_null() {
        let (_f, l) = layer(1, 2);
        for _ in 0..32 {
            assert!(!l.alloc(64).unwrap().is_null());
        }
    }

    #[test]
    fn read_write_roundtrip_across_groups() {
        let (f, l) = layer(1, 3);
        let ep = f.endpoint();
        let addrs: Vec<GlobalAddr> = (0..6).map(|_| l.alloc(32).unwrap()).collect();
        // Round-robin should touch all three groups.
        let nodes: std::collections::HashSet<NodeId> =
            addrs.iter().map(|a| a.node()).collect();
        assert_eq!(nodes.len(), 3);
        for (i, a) in addrs.iter().enumerate() {
            l.write(&ep, *a, &[i as u8; 32]).unwrap();
        }
        for (i, a) in addrs.iter().enumerate() {
            let mut buf = [0u8; 32];
            l.read(&ep, *a, &mut buf).unwrap();
            assert_eq!(buf, [i as u8; 32]);
        }
    }

    #[test]
    fn mirrored_write_lands_on_all_members() {
        let (f, l) = layer(3, 3);
        let ep = f.endpoint();
        let a = l.alloc(16).unwrap();
        l.write(&ep, a, &[0xCD; 16]).unwrap();
        for m in l.group_members(0) {
            let mut buf = [0u8; 16];
            m.region().read(a.offset(), &mut buf).unwrap();
            assert_eq!(buf, [0xCD; 16], "member {} missed the write", m.id());
        }
    }

    #[test]
    fn read_fails_over_when_primary_crashes() {
        let (f, l) = layer(3, 3);
        let ep = f.endpoint();
        let a = l.alloc(16).unwrap();
        l.write(&ep, a, &[7; 16]).unwrap();
        l.crash_member(0, 0).unwrap();
        let mut buf = [0u8; 16];
        l.read(&ep, a, &mut buf).unwrap();
        assert_eq!(buf, [7; 16]);
        let _ = f; // keep fabric alive
    }

    #[test]
    fn whole_group_down_is_reported() {
        let (_f, l) = layer(2, 2);
        let ep = l.fabric().endpoint();
        let a = l.alloc(16).unwrap();
        l.crash_member(0, 0).unwrap();
        l.crash_member(0, 1).unwrap();
        let mut buf = [0u8; 16];
        assert!(matches!(
            l.read(&ep, a, &mut buf),
            Err(DsmError::GroupUnavailable { .. })
        ));
        assert!(matches!(
            l.write(&ep, a, &buf),
            Err(DsmError::GroupUnavailable { .. })
        ));
    }

    #[test]
    fn recovery_from_mirror_restores_contents_and_writes() {
        let (f, l) = layer(2, 2);
        let ep = f.endpoint();
        let a = l.alloc(64).unwrap();
        l.write(&ep, a, &[0xEE; 64]).unwrap();
        l.crash_member(0, 0).unwrap();
        let copied = l.recover_member_from_mirror(&ep, 0, 0).unwrap();
        assert_eq!(copied, 1 << 20);
        // Back to full strength: reads from primary again, writes mirror.
        let mut buf = [0u8; 64];
        ep.read(a.node(), a.offset(), &mut buf).unwrap();
        assert_eq!(buf, [0xEE; 64]);
    }

    #[test]
    fn a_rebuilt_member_comes_up_with_its_registered_lock_words_free() {
        let (f, l) = layer(2, 2);
        let ep = f.endpoint();
        // 2 000 words 88 bytes apart: the stripe crosses two chunk
        // boundaries of the rebuild's 64 KiB copy.
        let (stride, count) = (88u64, 2_000u64);
        let base = l.alloc_on(0, stride * count).unwrap();
        l.register_lock_words(base, stride, count);
        let filled = vec![0xA5u8; (stride * count) as usize];
        l.write(&ep, base, &filled).unwrap();
        let ids: Vec<NodeId> = l.group_members(0).iter().map(|m| m.id()).collect();
        let extent = |node: NodeId| {
            let mut got = vec![0u8; filled.len()];
            f.region(node).unwrap().read(base.offset(), &mut got).unwrap();
            got
        };
        let rebuild = |member: usize| {
            l.crash_member(0, member).unwrap();
            let before = (ep.stats().round_trips(), ep.clock().now_ns());
            l.recover_member_from_mirror(&ep, 0, member).unwrap();
            (ep.stats().round_trips() - before.0, ep.clock().now_ns() - before.1)
        };
        // Rebuilt from the primary, the backup's words are free; every
        // other byte is copied, at the cost of a plain copy.
        let cost = rebuild(1);
        let mut want = filled.clone();
        for i in 0..count as usize {
            want[i * stride as usize..][..8].fill(0);
        }
        assert_eq!(extent(ids[1]), want);
        assert_eq!(extent(ids[0]), filled, "the source keeps its words");
        // Freed, the extent carries no lock words: a fresh allocation over
        // it keeps every byte through a rebuild, which costs the same.
        l.free(base).unwrap();
        let fresh = l.alloc_on(0, stride * count).unwrap();
        assert_eq!(fresh, base);
        l.write(&ep, fresh, &filled).unwrap();
        assert_eq!(rebuild(1), cost);
        assert_eq!(extent(ids[1]), filled);
    }

    #[test]
    fn cas_and_faa_operate_on_primary() {
        let (f, l) = layer(2, 2);
        let ep = f.endpoint();
        let a = l.alloc(8).unwrap();
        l.write_u64(&ep, a, 0).unwrap();
        assert_eq!(l.cas(&ep, a, 0, 5).unwrap(), 0);
        assert_eq!(l.faa(&ep, a, 3).unwrap(), 5);
        // Primary sees 8; the CAS/FAA did not mirror (by design).
        assert_eq!(l.read_u64(&ep, a).unwrap(), 8);
    }

    #[test]
    fn a_group_past_the_inline_member_list_is_still_one_doorbell() {
        // 20 replicated writes and a read-back of the last: 41 members,
        // so the list spills once, in posting order.
        let (f, l) = layer(2, 4);
        let ep = f.endpoint();
        let base = l.alloc_on(0, 20 * 8).unwrap();
        let values: Vec<[u8; 8]> = (1..=20u64).map(u64::to_le_bytes).collect();
        let mut got = [0u8; 8];
        let mut wrs: Vec<GlobalWr<'_>> = values
            .iter()
            .enumerate()
            .map(|(i, src)| GlobalWr::Write { addr: base.offset_by(8 * i as u64), src })
            .collect();
        wrs.push(GlobalWr::Read { addr: base.offset_by(8 * 19), dst: &mut got });
        assert!(wrs.len() * 2 - 1 > INLINE_MEMBERS);
        l.doorbell(&ep, &mut wrs).unwrap();
        assert_eq!(u64::from_le_bytes(got), 20);
        let s = ep.stats();
        assert_eq!((s.writes, s.reads, s.wire_round_trips()), (40, 1, 1));
        for m in l.group_members(0) {
            let region = f.region(m.id()).unwrap();
            for i in 0..20 {
                assert_eq!(region.read_u64(base.offset() + 8 * i).unwrap(), i + 1);
            }
        }
    }

    #[test]
    fn doorbell_routes_each_verb_by_its_replication_rule() {
        let (f, l) = layer(2, 4);
        let ep = f.endpoint();
        let (a, b) = (l.alloc_on(0, 64).unwrap(), l.alloc_on(1, 64).unwrap());
        let ids = |g: usize| l.group_members(g).iter().map(|m| m.id()).collect::<Vec<_>>();
        let word = |node: NodeId, addr: GlobalAddr| {
            f.region(node).unwrap().read_u64(addr.offset()).unwrap()
        };
        let mut prev = u64::MAX;
        let mut got = [0u8; 8];
        l.doorbell(
            &ep,
            &mut [
                GlobalWr::Cas { addr: a, expected: 0, new: 7, prev: &mut prev },
                GlobalWr::Write { addr: b, src: &9u64.to_le_bytes() },
                GlobalWr::Read { addr: b, dst: &mut got },
            ],
        )
        .unwrap();
        // CAS: primary only. WRITE: every member. READ: sees the WRITE
        // posted ahead of it. One wire round trip for all four members.
        assert_eq!((prev, u64::from_le_bytes(got)), (0, 9));
        assert_eq!((word(ids(0)[0], a), word(ids(0)[1], a)), (7, 0));
        assert_eq!((word(ids(1)[0], b), word(ids(1)[1], b)), (9, 9));
        let s = ep.stats();
        assert_eq!((s.cas, s.writes, s.reads, s.wire_round_trips()), (1, 2, 1, 1));
        // UNLOCK: a WRITE of 0 on the primary only, the mirror's word left
        // as it was.
        l.doorbell(&ep, &mut [GlobalWr::Unlock { addr: b }]).unwrap();
        assert_eq!((word(ids(1)[0], b), word(ids(1)[1], b)), (0, 9));
        let t = ep.stats();
        let unlock = (t.writes - s.writes, t.bytes_written - s.bytes_written, t.wire_round_trips() - s.wire_round_trips());
        assert_eq!(unlock, (1, 8, 1));

        // With group 1's primary down, its WRITE and READ use the mirror,
        // and its UNLOCK posts nothing (the word died with the primary);
        // a CAS there has no primary to run on, and the group stops at it.
        l.crash_member(1, 0).unwrap();
        let (mut on_a, mut on_b) = (u64::MAX, u64::MAX);
        l.doorbell(
            &ep,
            &mut [
                GlobalWr::Unlock { addr: b },
                GlobalWr::Write { addr: b, src: &5u64.to_le_bytes() },
                GlobalWr::Read { addr: b, dst: &mut got },
            ],
        )
        .unwrap();
        assert_eq!((u64::from_le_bytes(got), word(ids(1)[0], b), word(ids(1)[1], b)), (5, 0, 5));
        let cut = l.doorbell(
            &ep,
            &mut [
                GlobalWr::Cas { addr: a, expected: 7, new: 0, prev: &mut on_a },
                GlobalWr::Cas { addr: b, expected: 0, new: 1, prev: &mut on_b },
            ],
        );
        assert_eq!(cut, Err(DsmError::Rdma(RdmaError::NodeUnreachable(ids(1)[0]))));
        assert_eq!((on_a, on_b), (7, u64::MAX), "`prev` tells which CAS ran");
        // A group with no member left cannot take a WRITE or an UNLOCK:
        // nothing of the doorbell is posted.
        l.crash_member(1, 1).unwrap();
        for last in [GlobalWr::Write { addr: b, src: &[1u8; 8] }, GlobalWr::Unlock { addr: b }] {
            let none = l.doorbell(&ep, &mut [GlobalWr::Write { addr: a, src: &[1u8; 8] }, last]);
            assert_eq!(none, Err(DsmError::GroupUnavailable { primary: b.node() }));
        }
        assert_eq!(word(ids(0)[0], a), 0, "still the value the last CAS left");
    }

    #[test]
    fn a_fetch_and_add_adds_on_every_mirror_and_returns_the_primarys_word() {
        use rdma_sim::FaultPlan;
        let (f, l) = layer(2, 4);
        let ep = f.endpoint();
        let a = l.alloc_on(0, 64).unwrap();
        let ids: Vec<NodeId> = l.group_members(0).iter().map(|m| m.id()).collect();
        let words = || ids.iter().map(|&n| f.region(n).unwrap().read_u64(a.offset()).unwrap()).collect::<Vec<_>>();
        l.write(&ep, a, &40u64.to_le_bytes()).unwrap();
        // Behind the page's READ: one FAA member per mirror member, all in
        // one wire round trip.
        let (mut page, mut prev) = ([0u8; 64], u64::MAX);
        let before = ep.stats();
        l.doorbell(
            &ep,
            &mut [GlobalWr::Read { addr: a, dst: &mut page }, GlobalWr::Faa { addr: a, add: 2, prev: &mut prev }],
        )
        .unwrap();
        assert_eq!((prev, words()), (40, vec![42, 42]));
        let s = ep.stats();
        let posted = (s.reads - before.reads, s.faa - before.faa);
        assert_eq!((posted, s.wire_round_trips() - before.wire_round_trips()), ((1, 2), 1));
        // Members that disagree: `prev` is the primary's word.
        f.region(ids[1]).unwrap().write_u64(a.offset(), 100).unwrap();
        l.doorbell(&ep, &mut [GlobalWr::Faa { addr: a, add: 3, prev: &mut prev }]).unwrap();
        assert_eq!((prev, words()), (42, vec![45, 103]));
        f.region(ids[1]).unwrap().write_u64(a.offset(), 45).unwrap();

        // A transient fault at the pre-flight adds nothing; the layer's
        // retry posts the doorbell again and adds once.
        let add_one = |prev: &mut u64| {
            l.doorbell(&ep, &mut [GlobalWr::Read { addr: a, dst: &mut [0u8; 8] }, GlobalWr::Faa { addr: a, add: 1, prev }])
        };
        l.set_retry_policy(RetryPolicy::none());
        f.install_fault_plan(FaultPlan::new(3).transient_first_n(ids[1], 1));
        assert_eq!(add_one(&mut prev), Err(DsmError::Rdma(RdmaError::Transient(ids[1]))));
        assert_eq!((prev, words()), (42, vec![45, 45]));
        l.set_retry_policy(RetryPolicy::default());
        f.install_fault_plan(FaultPlan::new(3).transient_first_n(ids[1], 1));
        add_one(&mut prev).unwrap();
        assert_eq!((prev, words()), (45, vec![46, 46]));
    }

    #[test]
    fn a_transient_retries_the_whole_doorbell_before_any_word_is_touched() {
        use rdma_sim::FaultPlan;
        let (f, l) = layer(2, 4);
        let ep = f.endpoint();
        let (a, b) = (l.alloc_on(0, 8).unwrap(), l.alloc_on(1, 8).unwrap());
        let second_primary = l.group_primary(1).id();
        f.install_fault_plan(FaultPlan::new(5).transient_first_n(second_primary, 1));
        let (mut on_a, mut on_b) = (u64::MAX, u64::MAX);
        let lock_both = |on_a: &mut u64, on_b: &mut u64| {
            l.doorbell(
                &ep,
                &mut [
                    GlobalWr::Cas { addr: a, expected: 0, new: 3, prev: on_a },
                    GlobalWr::Cas { addr: b, expected: 0, new: 3, prev: on_b },
                ],
            )
        };
        // The default policy absorbs the fault; had the first attempt
        // taken word `a`, the second would have lost it to itself.
        lock_both(&mut on_a, &mut on_b).unwrap();
        assert_eq!((on_a, on_b), (0, 0));
        assert_eq!((ep.stats().cas, ep.stats().cas_failures), (2, 0));
        // Without a retry policy the fault surfaces, with nothing done.
        l.set_retry_policy(RetryPolicy::none());
        f.install_fault_plan(FaultPlan::new(5).transient_first_n(second_primary, 1));
        let (c, d) = (l.alloc_on(0, 8).unwrap(), l.alloc_on(1, 8).unwrap());
        let refused = l.doorbell(
            &ep,
            &mut [
                GlobalWr::Write { addr: c, src: &[1u8; 8] },
                GlobalWr::Cas { addr: d, expected: 0, new: 3, prev: &mut on_b },
            ],
        );
        assert_eq!(refused, Err(DsmError::Rdma(RdmaError::Transient(second_primary))));
        assert_eq!(l.read_u64(&ep, c).unwrap(), 0);
    }

    #[test]
    fn transient_faults_absorbed_by_retry_policy() {
        use rdma_sim::FaultPlan;
        let (f, l) = layer(2, 2);
        let ep = f.endpoint();
        let a = l.alloc(16).unwrap();
        l.write(&ep, a, &[5; 16]).unwrap();
        // The next few verbs to both members hiccup; the default policy
        // must absorb them without the caller noticing.
        f.install_fault_plan(
            FaultPlan::new(11)
                .transient_first_n(0, 2)
                .transient_first_n(1, 2),
        );
        let mut buf = [0u8; 16];
        l.read(&ep, a, &mut buf).unwrap();
        assert_eq!(buf, [5; 16]);
        l.write(&ep, a, &[6; 16]).unwrap();
        assert_eq!(l.read_u64(&ep, a).unwrap(), u64::from_le_bytes([6; 8]));
    }

    #[test]
    fn no_retry_policy_surfaces_transients_as_typed_errors() {
        use rdma_sim::FaultPlan;
        let (f, l) = layer(1, 1);
        let ep = f.endpoint();
        let a = l.alloc(8).unwrap();
        l.set_retry_policy(RetryPolicy::none());
        f.install_fault_plan(FaultPlan::new(1).transient_first_n(0, 1));
        let err = l.read_u64(&ep, a).unwrap_err();
        assert_eq!(err, DsmError::Rdma(RdmaError::Transient(0)));
        assert!(err.is_transient());
    }

    #[test]
    fn join_group_serves_reads_and_writes_immediately() {
        let (f, l) = layer(2, 2);
        let ep = f.endpoint();
        assert_eq!(l.group_count(), 1);
        let idx = l.join_group(1 << 20, 1, 4.0);
        assert_eq!(idx, 1);
        assert_eq!(l.group_count(), 2);
        let a = l.alloc_on(idx, 64).unwrap();
        assert_eq!(l.group_index_of(a.node()), Some(idx));
        l.write(&ep, a, &[0xAB; 64]).unwrap();
        let mut buf = [0u8; 64];
        l.read(&ep, a, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 64]);
        // The joined group mirrors like any other: kill its primary,
        // reads fail over to the new sibling.
        l.crash_member(idx, 0).unwrap();
        l.read(&ep, a, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 64]);
    }

    #[test]
    fn retired_group_keeps_serving_but_stops_allocating() {
        let (f, l) = layer(1, 2);
        let ep = f.endpoint();
        let a = l.alloc_on(0, 32).unwrap();
        l.write(&ep, a, &[3; 32]).unwrap();
        l.retire_group(0);
        assert!(l.group_retired(0));
        assert!(!l.group_retired(1));
        // Existing data still readable and writable.
        let mut buf = [0u8; 32];
        l.read(&ep, a, &mut buf).unwrap();
        assert_eq!(buf, [3; 32]);
        l.write(&ep, a, &[4; 32]).unwrap();
        // Round-robin allocation only ever lands on group 1 now.
        for _ in 0..8 {
            let b = l.alloc(16).unwrap();
            assert_eq!(l.group_index_of(b.node()), Some(1));
        }
    }

    #[test]
    fn free_then_alloc_reuses_space() {
        let (_f, l) = layer(1, 1);
        let a = l.alloc(128).unwrap();
        l.free(a).unwrap();
        let b = l.alloc(128).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn realloc_moves_payload() {
        let (f, l) = layer(1, 1);
        let ep = f.endpoint();
        let a = l.alloc(64).unwrap();
        let _wall = l.alloc(8).unwrap(); // force a move on grow
        l.write(&ep, a, &[9u8; 64]).unwrap();
        let b = l.realloc(&ep, a, 4096).unwrap();
        assert_ne!(a, b);
        let mut buf = [0u8; 64];
        l.read(&ep, b, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 64]);
    }

    #[test]
    fn pool_stats_aggregate() {
        let (_f, l) = layer(1, 4);
        let _a = l.alloc(1000).unwrap();
        let s = l.pool_stats();
        assert_eq!(s.capacity, 4 << 20);
        // 1000 rounds to 1000/8*8 = 1000 -> plus the 4 burned 8-byte nulls.
        assert!(s.allocated >= 1000 + 4 * 8);
    }

    #[test]
    fn offload_routes_to_owning_group() {
        use memnode::OffloadOutput;
        let (f, l) = layer(1, 2);
        let ep = f.endpoint();
        let a = l.alloc(100).unwrap();
        l.write(&ep, a, &[2u8; 100]).unwrap();
        l.register_offload(
            7,
            Arc::new(|region, arg: &[u8]| {
                let off = u64::from_le_bytes(arg[0..8].try_into().unwrap());
                let len = u64::from_le_bytes(arg[8..16].try_into().unwrap()) as usize;
                let mut buf = vec![0u8; len];
                region.read(off, &mut buf).unwrap();
                let sum: u64 = buf.iter().map(|&b| b as u64).sum();
                OffloadOutput {
                    data: sum.to_le_bytes().to_vec(),
                    work_ns: len as u64,
                }
            }),
        );
        let mut arg = Vec::new();
        arg.extend_from_slice(&a.offset().to_le_bytes());
        arg.extend_from_slice(&100u64.to_le_bytes());
        let out = l.offload(&ep, a, 7, &arg).unwrap();
        assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 200);
    }
}
