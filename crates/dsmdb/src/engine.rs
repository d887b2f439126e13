//! The DSM-DB cluster and its per-thread sessions.
//!
//! [`Cluster::build`] materializes Figure 2: a fabric, the DSM layer of
//! memory nodes, one record table striped across them, and the chosen
//! Figure 3 execution architecture. Worker threads obtain [`Session`]s
//! and push transactions through [`Session::execute`]; all costs land on
//! the session's virtual clock.
//!
//! Multi-master is the default: *every* session on *every* compute node
//! executes read-write transactions (§8: "DSM-DB is main-memory-based
//! that supports multi-masters"), with conflicts handled by the
//! configured CC protocol (3a/3b) or by owner-local locking + function
//! shipping under last-agent commit (3c).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use buffer::{BufferPool, ClockPolicy, WriteMode};
use dsm::{DsmConfig, DsmLayer, GlobalAddr};
use parking_lot::Mutex;
use rdma_sim::{Endpoint, Fabric, HistSnapshot, Mailbox, MailboxId, Metric, Phase, PhaseSnapshot};
use telemetry::Histogram;
use txn::table::RecordTable;
use txn::twopc::{decode as decode_2pc, encode as encode_2pc, MsgKind, TwoPcMsg};
use txn::{
    AbortCause, ConcurrencyControl, DirectIo, FaaOracle, LeasedTpl, Mvcc, Occ, Op, PayloadIo,
    TwoPhaseLocking, Tso, TxnError, TxnOutput,
};

use crate::coherence::{node_inbox_id, session_inbox_id, CoherentIo, NodeCache};
use crate::config::{Architecture, CcProtocol, ClusterConfig};
use crate::membership::Membership;
use crate::shard::{LockTable, ShardMap};

/// Engine-level failures (everything else surfaces as [`TxnError`]).
#[derive(Debug)]
pub enum EngineError {
    /// DSM bring-up failed (capacity, config).
    Setup(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Setup(s) => write!(f, "cluster setup failed: {s}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Per-session commit/abort counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SessionStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts (caller may have retried).
    pub aborts: u64,
    /// Cross-shard transactions coordinated (3c only).
    pub cross_shard: u64,
    /// Sub-transactions served for other nodes (3c only).
    pub served_subtxns: u64,
    /// Decided-commit write-backs that failed (3c owner side): the commit
    /// decision was final but the staged writes could not reach DSM —
    /// the record is left to mirror rebuild instead of silently dropped.
    pub apply_failures: u64,
}

/// Buffered writes of a (sub-)transaction: `(key, new payload)`.
type StagedWrites = Vec<(u64, Vec<u8>)>;

/// A transaction prepared on this node awaiting the coordinator's decision.
struct Prepared {
    keys: Vec<u64>,
    staged: StagedWrites,
}

/// Per-compute-node runtime shared by its sessions.
struct NodeRuntime {
    /// Figure 3b coherent cache (None for 3a/3c).
    cache: Option<Arc<NodeCache>>,
    /// Figure 3c owner cache (uncoherent by construction).
    shard_pool: Option<BufferPool>,
    /// Figure 3c message inbox (commit traffic).
    shard_inbox: Option<Mailbox>,
    /// Figure 3c local lock table.
    locks: LockTable,
    /// Figure 3c prepared-transaction registry.
    prepared: Mutex<HashMap<u64, Prepared>>,
}

/// The cluster: build once, then open one [`Session`] per worker thread.
pub struct Cluster {
    config: ClusterConfig,
    fabric: Arc<Fabric>,
    layer: Arc<DsmLayer>,
    table: Arc<RecordTable>,
    oracle: Option<Arc<FaaOracle>>,
    nodes: Vec<Arc<NodeRuntime>>,
    shard_map: Arc<ShardMap>,
    membership: Membership,
    txn_ids: AtomicU64,
}

impl Cluster {
    /// Build per `config`. Panics on invalid configs (see
    /// [`ClusterConfig::validate`]).
    pub fn build(config: ClusterConfig) -> Result<Arc<Self>, EngineError> {
        config.validate();
        let fabric = Fabric::new(config.profile);
        let layer = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: config.memory_nodes,
                capacity_per_node: config.capacity_per_node,
                replication: config.replication,
                mem_cores: 2,
                weak_cpu_factor: 4.0,
            },
        );
        let table = Arc::new(
            RecordTable::create(&layer, config.n_records, config.payload_size, config.versions)
                .map_err(|e| EngineError::Setup(e.to_string()))?,
        );
        let membership = {
            let ep = fabric.endpoint();
            Membership::create(&layer, &ep, config.compute_nodes)
                .map_err(|e| EngineError::Setup(e.to_string()))?
        };
        let oracle = match config.cc {
            CcProtocol::Tso | CcProtocol::Mvcc => Some(Arc::new(
                FaaOracle::new(&layer).map_err(|e| EngineError::Setup(e.to_string()))?,
            )),
            _ => None,
        };
        // Stripe each node's pool over POOL_SHARDS locks (a power of
        // two); clamp so every shard holds >= 1 frame.
        const POOL_SHARDS: usize = 8;
        let pool_shards = {
            let mut s = POOL_SHARDS;
            while s > 1 && s > config.cache_frames {
                s /= 2;
            }
            s
        };
        let striped_pool = || {
            BufferPool::new_striped(
                layer.clone(),
                config.payload_size,
                config.cache_frames,
                pool_shards,
                |cap| Box::new(ClockPolicy::new(cap)),
                WriteMode::WriteThrough,
            )
        };
        let mut nodes = Vec::with_capacity(config.compute_nodes);
        for n in 0..config.compute_nodes {
            let (cache, shard_pool, shard_inbox) = match config.architecture {
                Architecture::NoCacheNoShard => (None, None, None),
                Architecture::CacheNoShard(_) => (
                    Some(Arc::new(NodeCache::new(&fabric, n, striped_pool()))),
                    None,
                    None,
                ),
                Architecture::CacheShard => (
                    None,
                    Some(striped_pool()),
                    Some(fabric.mailboxes().register(node_inbox_id(n))),
                ),
            };
            nodes.push(Arc::new(NodeRuntime {
                cache,
                shard_pool,
                shard_inbox,
                locks: LockTable::new(),
                prepared: Mutex::new(HashMap::new()),
            }));
        }
        Ok(Arc::new(Self {
            config,
            fabric: fabric.clone(),
            layer,
            table,
            oracle,
            nodes,
            shard_map: Arc::new(ShardMap::equal(config.compute_nodes, config.n_records)),
            membership,
            txn_ids: AtomicU64::new(1),
        }))
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The underlying fabric (endpoints, failure injection).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The DSM layer.
    pub fn layer(&self) -> &Arc<DsmLayer> {
        &self.layer
    }

    /// The record table.
    pub fn table(&self) -> &Arc<RecordTable> {
        &self.table
    }

    /// The logical shard map (3c).
    pub fn shard_map(&self) -> &Arc<ShardMap> {
        &self.shard_map
    }

    /// The compute-node membership/epoch table (crash-recover tracking).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Compute node `node`'s coherent cache (3b only).
    pub fn node_cache(&self, node: usize) -> Option<&Arc<NodeCache>> {
        self.nodes[node].cache.as_ref()
    }

    /// What compute node `node`'s 3c commit state still holds: keys locked
    /// in its lock table and transactions prepared on it awaiting a
    /// decision. Both are 0 whenever no transaction is in flight.
    pub fn shard_residue(&self, node: usize) -> (usize, usize) {
        let n = &self.nodes[node];
        (n.locks.held(), n.prepared.lock().len())
    }

    /// Open the session for `(node, thread)`. Each worker thread gets
    /// exactly one; sessions are not `Sync`.
    pub fn session(self: &Arc<Self>, node: usize, thread: usize) -> Session {
        assert!(node < self.config.compute_nodes);
        assert!(thread < self.config.threads_per_node);
        let ep = self.fabric.endpoint();
        // One reply box per session: registering the id again would
        // replace the channel and leave the first handle dead.
        let reply_id = session_inbox_id(node, thread);
        let reply = Arc::new(self.fabric.mailboxes().register(reply_id));
        let owner_tag = (node * self.config.threads_per_node + thread + 1) as u64;
        // Sessions sign lock words and 2PC prepares with their node's
        // current epoch; after a crash-recover cycle bumps it, anything
        // signed with the old epoch is fenced.
        let epoch = self.membership.epoch(&self.layer, &ep, node).unwrap_or(1);
        let worker_tag = compose_worker_tag(self.config.cc, owner_tag, epoch);
        let cc: Option<Box<dyn ConcurrencyControl>> = match self.config.cc {
            CcProtocol::TplExclusive => Some(Box::new(TwoPhaseLocking::exclusive())),
            CcProtocol::TplSharedExclusive => Some(Box::new(TwoPhaseLocking::shared_exclusive())),
            CcProtocol::TplLeased => Some(Box::new(LeasedTpl::new(self.config.lease_ns))),
            CcProtocol::Occ => Some(Box::new(Occ::new())),
            CcProtocol::Tso => Some(Box::new(Tso::new(
                self.oracle.as_ref().expect("oracle built").clone(),
            ))),
            CcProtocol::Mvcc => Some(Box::new(Mvcc::new(
                self.oracle.as_ref().expect("oracle built").clone(),
            ))),
        };
        let io: Box<dyn PayloadIo> = match self.config.architecture {
            Architecture::NoCacheNoShard | Architecture::CacheShard => Box::new(DirectIo),
            Architecture::CacheNoShard(mode) => Box::new(CoherentIo {
                cache: self.nodes[node].cache.as_ref().expect("3b cache").clone(),
                mode,
                reply: reply.clone(),
                reply_id,
                compute_nodes: self.config.compute_nodes,
            }),
        };
        Session {
            cluster: self.clone(),
            node,
            ep,
            reply,
            reply_id,
            cc,
            io,
            owner_tag,
            epoch,
            worker_tag,
            stats: SessionStats::default(),
            arena: PageArena::default(),
            txn_lat: Histogram::new(),
            txn_seq: 0,
            forensics: None,
        }
    }

    /// Metadata-only resharding (3c): move `[low, high)` to `new_owner`.
    /// The previous owners' cached copies are dropped wholesale (cheap:
    /// write-through pools hold no dirty state). Returns the new map
    /// version. Contrast with `baseline::DsnCluster::reshard`, which
    /// physically copies records.
    pub fn reshard(&self, ep: &Endpoint, low: u64, high: u64, new_owner: usize) -> u64 {
        let v = self.shard_map.reshard(low, high, new_owner);
        for node in &self.nodes {
            if let Some(pool) = &node.shard_pool {
                // Drop cached pages wholesale — write-through pools hold
                // no dirty state, so losing clean copies costs only
                // refetches.
                pool.drop_all(ep);
            }
        }
        v
    }

    /// Drop every compute-side cached page (3b coherent caches and 3c
    /// owner pools alike). Called when a live migration flips a range
    /// to its new home: cached frames were fetched from the old one and
    /// must be refetched, not trusted. Write-through pools hold no
    /// dirty state, so this costs only refetches.
    pub fn drop_compute_caches(&self, ep: &Endpoint) {
        for node in &self.nodes {
            if let Some(cache) = &node.cache {
                cache.pool.drop_all(ep);
            }
            if let Some(pool) = &node.shard_pool {
                pool.drop_all(ep);
            }
        }
    }
}

/// Per-window series metric for one typed abort cause: the per-cause
/// metrics sit in [`AbortCause`] order from [`Metric::AbortsLockBusy`].
fn abort_metric(cause: AbortCause) -> Metric {
    Metric::ALL[Metric::AbortsLockBusy as usize + cause as usize]
}

/// Lock-ownership tag for `(owner, epoch)`. Lease-based locking packs the
/// epoch into bits 16..32 of the tag (the lease word's epoch field) so a
/// recovered node's new sessions never collide with pre-crash lock words;
/// the other protocols use the plain owner id, whose uniqueness is all
/// they need.
fn compose_worker_tag(cc: CcProtocol, owner: u64, epoch: u64) -> u64 {
    match cc {
        CcProtocol::TplLeased => ((epoch & 0xFFFF) << 16) | (owner & 0xFFFF),
        _ => owner,
    }
}

/// Reusable per-session scratch for the batched page path: one contiguous
/// buffer sliced into page slots, plus the txn's unique-page plan. Lives
/// across transactions so the hot path allocates nothing per operation.
#[derive(Default)]
struct PageArena {
    buf: Vec<u8>,
    /// Unique page keys in first-touch order (slot i holds keys[i]).
    keys: Vec<u64>,
    /// Whether slot i must be fetched (first op reads the old value).
    fetch: Vec<bool>,
    /// Whether slot i was modified and must be written at commit.
    dirty: Vec<bool>,
}

impl PageArena {
    /// Plan `ops`: record unique pages in first-touch order. A page whose
    /// first op fully overwrites it (Update) is never fetched — matching
    /// the unbatched engine, which wrote such pages without reading.
    fn plan(&mut self, ops: &[Op], psize: usize) {
        self.keys.clear();
        self.fetch.clear();
        self.dirty.clear();
        for op in ops {
            let k = op.key();
            if !self.keys.contains(&k) {
                self.keys.push(k);
                self.fetch.push(!matches!(op, Op::Update { .. }));
                self.dirty.push(false);
            }
        }
        // Every slot is either fetched or first overwritten, so stale
        // bytes from the previous transaction are never observed.
        self.buf.resize(self.keys.len() * psize, 0);
    }
}

/// A per-worker-thread handle for executing transactions.
pub struct Session {
    cluster: Arc<Cluster>,
    node: usize,
    ep: Endpoint,
    reply: Arc<Mailbox>,
    reply_id: MailboxId,
    cc: Option<Box<dyn ConcurrencyControl>>,
    io: Box<dyn PayloadIo>,
    owner_tag: u64,
    epoch: u64,
    worker_tag: u64,
    stats: SessionStats,
    arena: PageArena,
    /// End-to-end virtual-time latency of every [`Session::execute`].
    txn_lat: Histogram,
    /// Local transaction sequence for trace ids: `owner_tag << 32 | seq`
    /// is unique cluster-wide yet independent of thread interleaving, so
    /// same-seed runs stamp identical ids into the flight recorder.
    txn_seq: u64,
    /// Tail-latency forensics: critical-path extraction + worst-K
    /// exemplar reservoir over this session's transactions. `None`
    /// until [`Session::enable_forensics`].
    forensics: Option<telemetry::ForensicsCollector>,
}

impl Session {
    /// This session's compute node.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The session's endpoint (virtual clock + verb counters).
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// Commit/abort counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The node epoch this session signs its work with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Re-read the node's epoch from the membership table and re-sign.
    /// A session that survived a crash-recover cycle (or was merely
    /// partitioned while the cluster declared its node dead) must call
    /// this before doing new work — until then its prepares are fenced.
    /// The read rides the membership table's control-plane
    /// [`dsm::RetryPolicy`], so transients are absorbed; a hard fault
    /// surfaces (the session keeps its old — fenced — epoch) rather
    /// than being silently dropped. Returns the epoch now in force.
    pub fn refresh_epoch(&mut self) -> dsm::DsmResult<u64> {
        let e = self
            .cluster
            .membership
            .epoch(&self.cluster.layer, &self.ep, self.node)?;
        self.epoch = e;
        self.worker_tag = compose_worker_tag(self.cluster.config.cc, self.owner_tag, e);
        Ok(e)
    }

    /// Expired-lease locks this session stole from crashed/stalled owners
    /// (nonzero only under [`CcProtocol::TplLeased`]).
    pub fn lock_steals(&self) -> u64 {
        self.cc.as_ref().map_or(0, |cc| cc.steals())
    }

    /// End-to-end transaction latency distribution (virtual ns, every
    /// attempt — committed and aborted alike).
    pub fn latency(&self) -> HistSnapshot {
        self.txn_lat.snapshot()
    }

    /// Per-phase rollup of this session's virtual time and verbs.
    pub fn phases(&self) -> PhaseSnapshot {
        self.ep.phase_snapshot()
    }

    /// Turn on tail-latency forensics with a worst-`k` exemplar
    /// reservoir. Requires the flight recorder (enable it with a ring
    /// deep enough for one transaction's events); extraction reads the
    /// recorder and the virtual clock but never advances the clock.
    pub fn enable_forensics(&mut self, k: usize) {
        self.forensics = Some(telemetry::ForensicsCollector::new(k));
    }

    /// Copy out this session's forensics rollup (empty when forensics
    /// was never enabled).
    pub fn forensics_snapshot(&self) -> telemetry::ForensicsSnapshot {
        self.forensics
            .as_ref()
            .map(|f| f.snapshot())
            .unwrap_or_else(telemetry::ForensicsSnapshot::empty)
    }

    /// Execute one transaction. `Err(TxnError::Aborted)` is retryable.
    pub fn execute(&mut self, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        // Stay a good citizen: serve pending cluster work first.
        self.serve_pending(4);
        self.txn_seq += 1;
        let trace = (self.owner_tag << 32) | self.txn_seq;
        self.ep.set_trace_id(trace);
        // Publish this txn's trace under the tags it writes into lock
        // words, so blocked waiters can resolve us as their holder. The
        // lease protocol's words carry only the low-16 owner id.
        let announce = self.ep.flight_recorder_enabled();
        if announce {
            let fabric = self.ep.fabric();
            fabric.announce_trace(self.worker_tag, trace);
            if self.worker_tag & 0xFFFF != self.worker_tag {
                fabric.announce_trace(self.worker_tag & 0xFFFF, trace);
            }
        }
        let pushed0 = self.forensics.as_ref().map(|_| self.ep.flight_pushed());
        let t0 = self.ep.clock().now_ns();
        self.ep.series_note(Metric::Begins, 1);
        self.ep.phase_enter(Phase::Execute);
        let result = match self.cluster.config.architecture {
            Architecture::NoCacheNoShard | Architecture::CacheNoShard(_) => {
                let ctx = txn::TxnCtx {
                    ep: &self.ep,
                    table: &self.cluster.table,
                    io: self.io.as_ref(),
                    worker_tag: self.worker_tag,
                };
                self.cc.as_ref().expect("cc configured").execute(&ctx, ops)
            }
            Architecture::CacheShard => self.execute_sharded(ops),
        };
        self.ep.phase_exit();
        if let (Some(collector), Some(pushed0)) = (&mut self.forensics, pushed0) {
            let end = self.ep.clock().now_ns();
            // This txn's own coverage is provably lost exactly when it
            // pushed more events than the ring holds (its first event is
            // overwritten after `capacity` newer pushes — older txns'
            // events being recycled is harmless). The residual then
            // reports as unattributed, not compute.
            let lost =
                self.ep.flight_pushed() - pushed0 > self.ep.flight_capacity() as u64;
            let ep = &self.ep;
            collector.record_steps(trace, t0, end, result.is_ok(), lost, || {
                ep.forensic_tail(trace, pushed0)
            });
        }
        if announce {
            let fabric = self.ep.fabric();
            fabric.retire_trace(self.worker_tag);
            if self.worker_tag & 0xFFFF != self.worker_tag {
                fabric.retire_trace(self.worker_tag & 0xFFFF);
            }
        }
        self.ep.clear_trace_id();
        self.txn_lat.record(self.ep.clock().now_ns().saturating_sub(t0));
        match &result {
            Ok(_) => {
                self.stats.commits += 1;
                self.ep.series_note(Metric::Commits, 1);
            }
            Err(e) => {
                self.stats.aborts += 1;
                self.ep.series_note(Metric::Aborts, 1);
                self.ep.series_note(abort_metric(e.cause()), 1);
            }
        }
        result
    }

    /// Retry wrapper: execute until commit (bounded attempts).
    pub fn execute_retrying(&mut self, ops: &[Op], max_attempts: u32) -> Result<TxnOutput, TxnError> {
        let mut last = TxnError::Aborted("never-ran");
        for _ in 0..max_attempts {
            match self.execute(ops) {
                Ok(out) => return Ok(out),
                Err(TxnError::Aborted(why)) => last = TxnError::Aborted(why),
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    // ------------------------------------------------------------------
    // Figure 3c: sharded execution
    // ------------------------------------------------------------------

    fn execute_sharded(&mut self, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        let map = &self.cluster.shard_map;
        if ops.iter().all(|op| map.owner_of(op.key()) == self.node) {
            // Single-shard fast path: owner-local execution.
            return self.execute_local_shard(ops);
        }
        // Partition by owner, ascending, so the last agent is a function
        // of the transaction alone.
        let mut parts: Vec<(usize, Vec<Op>)> = Vec::new();
        for op in ops {
            let owner = map.owner_of(op.key());
            match parts.binary_search_by_key(&owner, |p| p.0) {
                Ok(i) => parts[i].1.push(op.clone()),
                Err(i) => parts.insert(i, (owner, vec![op.clone()])),
            }
        }
        let local_ops = match parts.binary_search_by_key(&self.node, |p| p.0) {
            Ok(i) => parts.remove(i).1,
            Err(_) => Vec::new(),
        };
        if parts.is_empty() {
            // A reshard moved the other keys here since the check above.
            return self.execute_local_shard(&local_ops);
        }
        self.stats.cross_shard += 1;
        self.coordinate_cross_shard(&local_ops, parts)
    }

    /// Owner-local path: local no-wait locks + cached (write-through)
    /// payload access. No RDMA locks: the shard map guarantees only this
    /// node operates on these records (cross-shard writers come through
    /// 2PC to *this* node too).
    fn execute_local_shard(&mut self, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        let node = self.cluster.nodes[self.node].clone();
        let mut keys: Vec<u64> = ops.iter().map(|o| o.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        self.ep.charge_local(50 * keys.len() as u64); // local lock table
        if let Err(holder) = node.locks.try_lock_all(&keys, self.ep.trace_id()) {
            self.ep.note_local_lock_wait(
                keys.first().copied().unwrap_or(0),
                50 * keys.len() as u64,
                holder,
            );
            return Err(TxnError::Aborted("local-lock-busy"));
        }
        let result = self.run_ops_on_pool(ops);
        node.locks.unlock_all(&keys);
        result
    }

    /// Batched transaction body: plan the txn's unique pages, fetch every
    /// page it must observe in ONE doorbell group, then apply all ops on
    /// the session arena (no per-op allocation, no per-op pool lookup).
    /// Dirty slots are left in the arena for the caller to commit.
    fn exec_on_arena(&mut self, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        let node = self.cluster.nodes[self.node].clone();
        let pool = node.shard_pool.as_ref().expect("3c pool");
        let table = &self.cluster.table;
        let psize = self.cluster.config.payload_size;
        self.arena.plan(ops, psize);
        let PageArena { buf, keys, fetch, dirty } = &mut self.arena;
        {
            let mut reqs: Vec<(GlobalAddr, &mut [u8])> = buf
                .chunks_exact_mut(psize)
                .enumerate()
                .filter(|(i, _)| fetch[*i])
                .map(|(i, slot)| (table.payload_addr(keys[i], 0), slot))
                .collect();
            pool.read_pages(&self.ep, &mut reqs)?;
        }
        let mut out = TxnOutput::default();
        for op in ops {
            let i = keys.iter().position(|&k| k == op.key()).expect("planned");
            let slot = &mut buf[i * psize..(i + 1) * psize];
            match op {
                Op::Read(k) => out.reads.push((*k, slot.to_vec())),
                Op::Update { value, .. } => {
                    slot.copy_from_slice(value);
                    dirty[i] = true;
                }
                Op::Rmw { key, delta } => {
                    out.reads.push((*key, slot.to_vec()));
                    let cur = i64::from_le_bytes(slot[0..8].try_into().unwrap());
                    slot[0..8].copy_from_slice(&(cur + delta).to_le_bytes());
                    dirty[i] = true;
                }
            }
        }
        Ok(out)
    }

    fn run_ops_on_pool(&mut self, ops: &[Op]) -> Result<TxnOutput, TxnError> {
        let out = self.exec_on_arena(ops)?;
        let node = self.cluster.nodes[self.node].clone();
        let pool = node.shard_pool.as_ref().expect("3c pool");
        let table = &self.cluster.table;
        let psize = self.cluster.config.payload_size;
        let PageArena { buf, keys, dirty, .. } = &self.arena;
        // Commit: every dirty page rides one doorbell group (the
        // write-through pool folds victim write-backs into it too).
        let writes: Vec<(GlobalAddr, &[u8])> = keys
            .iter()
            .enumerate()
            .filter(|(i, _)| dirty[*i])
            .map(|(i, &k)| (table.payload_addr(k, 0), &buf[i * psize..(i + 1) * psize]))
            .collect();
        if !writes.is_empty() {
            pool.write_pages(&self.ep, &writes)?;
        }
        Ok(out)
    }

    /// Last-agent commit across shard owners (Samaras et al., ICDE 1993).
    /// This session prepares its own part first, then every remote owner
    /// but the last (one doorbell), and only if all of them voted yes hands
    /// the last owner a `PrepareCommit`: that owner prepares and, if it
    /// can, commits in the same message round, so its vote is the
    /// decision. With one remote owner a transaction is two messages.
    /// `remote` is sorted by owner and not empty.
    fn coordinate_cross_shard(
        &mut self,
        local_ops: &[Op],
        mut remote: Vec<(usize, Vec<Op>)>,
    ) -> Result<TxnOutput, TxnError> {
        let node = self.cluster.nodes[self.node].clone();
        let txn_id = self.cluster.txn_ids.fetch_add(1, Ordering::Relaxed);

        // Step 1: prepare the local part.
        let mut local_keys: Vec<u64> = local_ops.iter().map(|o| o.key()).collect();
        local_keys.sort_unstable();
        local_keys.dedup();
        self.ep.charge_local(50 * local_keys.len() as u64);
        if !local_keys.is_empty() {
            if let Err(holder) = node.locks.try_lock_all(&local_keys, self.ep.trace_id()) {
                self.ep.note_local_lock_wait(
                    local_keys[0],
                    50 * local_keys.len() as u64,
                    holder,
                );
                return Err(TxnError::Aborted("local-lock-busy"));
            }
        }
        let local_exec = if local_ops.is_empty() {
            Ok((TxnOutput::default(), Vec::new()))
        } else {
            self.prepare_ops(local_ops)
        };
        let (mut out, local_staged) = match local_exec {
            Ok(v) => v,
            Err(e) => {
                node.locks.unlock_all(&local_keys);
                return Err(e);
            }
        };

        // Step 2: every owner but the last prepares, one doorbell for all.
        // An owner the doorbell did not reach counts as a No vote. Manual
        // phase brackets: waiting for replies needs `&mut self`
        // (serve_pending), which a SpanGuard's borrow would block.
        self.ep.phase_enter(Phase::TwoPcPrepare);
        let (last, last_ops) = remote.pop().expect("a cross-shard txn has a remote owner");
        let delivered = self
            .ep
            .send_batch(remote.iter().map(|(owner, ops)| {
                (
                    node_inbox_id(*owner),
                    self.reply_id,
                    self.prepare_msg(MsgKind::Prepare, txn_id, ops),
                )
            }))
            .unwrap_or(0);
        let mut refused = ((delivered as usize) < remote.len()).then_some("owner-unreachable");
        for _ in 0..delivered {
            let vote = self.wait_reply(txn_id);
            if vote.kind != MsgKind::VoteYes {
                refused.get_or_insert("remote-vote-no");
            }
            out.reads.extend(decode_reads(&vote.body));
        }
        // Step 3: the last owner prepares and decides.
        if refused.is_none() {
            let msg = self.prepare_msg(MsgKind::PrepareCommit, txn_id, &last_ops);
            match self.ep.send(node_inbox_id(last), self.reply_id, msg) {
                Err(_) => refused = Some("owner-unreachable"),
                Ok(()) => {
                    let vote = self.wait_reply(txn_id);
                    if vote.kind != MsgKind::VoteYes {
                        refused = Some("remote-vote-no");
                    }
                    out.reads.extend(decode_reads(&vote.body));
                }
            }
        }
        self.ep.phase_exit();

        // Step 5: apply the decision here, then tell the owners of step 2.
        self.ep.phase_enter(Phase::TwoPcDecide);
        let (decision, applied) = match refused {
            None => (MsgKind::Commit, self.apply_staged(&local_staged)),
            Some(_) => (MsgKind::Abort, Ok(())),
        };
        node.locks.unlock_all(&local_keys);
        let decided = self
            .ep
            .send_batch(remote.iter().map(|(owner, _)| {
                (
                    node_inbox_id(*owner),
                    self.reply_id,
                    encode_2pc(decision, txn_id, &[]),
                )
            }))
            .unwrap_or(0);
        for _ in 0..decided {
            self.wait_reply(txn_id);
        }
        self.ep.phase_exit();
        applied?;
        match refused {
            None => Ok(out),
            Some(why) => Err(TxnError::Aborted(why)),
        }
    }

    /// A prepare for `ops`, signed with this session's (node, epoch) —
    /// owners fence stale epochs — and trace.
    fn prepare_msg(&self, kind: MsgKind, txn_id: u64, ops: &[Op]) -> Vec<u8> {
        let body = encode_prepare(self.epoch, self.node, self.ep.trace_id(), ops);
        encode_2pc(kind, txn_id, &body)
    }

    /// The next reply for `txn_id` on this session's box: a vote or an
    /// ack. While there is none, serve this node's inbox — the owner
    /// being waited for may be waiting for this node too.
    fn wait_reply(&mut self, txn_id: u64) -> TwoPcMsg {
        loop {
            match self.ep.try_recv(&self.reply) {
                Ok(msg) => match decode_2pc(&msg.payload) {
                    Some(m) if m.txn_id == txn_id => return m,
                    _ => {}
                },
                Err(_) => {
                    if !self.serve_pending(2) {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Execute reads and stage writes (no pool mutation yet) for a
    /// prepared (sub-)transaction. Arena slots double as the staging
    /// area: reads observe the txn's own earlier writes, and each dirty
    /// page yields exactly one staged value.
    fn prepare_ops(&mut self, ops: &[Op]) -> Result<(TxnOutput, StagedWrites), TxnError> {
        let out = self.exec_on_arena(ops)?;
        let psize = self.cluster.config.payload_size;
        let PageArena { buf, keys, dirty, .. } = &self.arena;
        let staged: StagedWrites = keys
            .iter()
            .enumerate()
            .filter(|(i, _)| dirty[*i])
            .map(|(i, &k)| (k, buf[i * psize..(i + 1) * psize].to_vec()))
            .collect();
        Ok((out, staged))
    }

    fn apply_staged(&self, staged: &[(u64, Vec<u8>)]) -> Result<(), TxnError> {
        if staged.is_empty() {
            return Ok(());
        }
        let pool = self.cluster.nodes[self.node]
            .shard_pool
            .as_ref()
            .expect("3c pool");
        let table = &self.cluster.table;
        // All of the decided txn's writes go out as one doorbell group.
        let reqs: Vec<(GlobalAddr, &[u8])> = staged
            .iter()
            .map(|(key, value)| (table.payload_addr(*key, 0), &value[..]))
            .collect();
        pool.write_pages(&self.ep, &reqs)?;
        Ok(())
    }

    /// Serve up to `budget` pending cluster messages addressed to this
    /// node (coherence requests in 3b, on the node's handler endpoint;
    /// 2PC participant work in 3c, on this session's). Returns whether
    /// anything was served. Workers call this between transactions;
    /// waiters call it in their poll loops.
    pub fn serve_pending(&mut self, budget: usize) -> bool {
        let mut any = false;
        match self.cluster.config.architecture {
            Architecture::CacheNoShard(_) => {
                if let Some(cache) = &self.cluster.nodes[self.node].cache {
                    for _ in 0..budget {
                        if !cache.serve_one() {
                            break;
                        }
                        any = true;
                    }
                }
            }
            Architecture::CacheShard => {
                for _ in 0..budget {
                    if !self.serve_one_shard_msg() {
                        break;
                    }
                    any = true;
                }
            }
            Architecture::NoCacheNoShard => {}
        }
        any
    }

    fn serve_one_shard_msg(&mut self) -> bool {
        let node = self.cluster.nodes[self.node].clone();
        let Some(inbox) = &node.shard_inbox else {
            return false;
        };
        let Ok(msg) = inbox.try_recv() else {
            return false;
        };
        self.ep.observe_delivery(&msg);
        let Some(m) = decode_2pc(&msg.payload) else {
            return true;
        };
        let reply = match m.kind {
            MsgKind::Prepare | MsgKind::PrepareCommit => {
                self.ep.phase_enter(Phase::TwoPcPrepare);
                match self.prepare_for_coordinator(&node, &m.body) {
                    Some((p, out)) => {
                        self.stats.served_subtxns += 1;
                        if m.kind == MsgKind::Prepare {
                            node.prepared.lock().insert(m.txn_id, p);
                        } else {
                            // The last agent: its yes is the commit.
                            self.finish(&node, p, true);
                        }
                        encode_2pc(MsgKind::VoteYes, m.txn_id, &encode_reads(&out.reads))
                    }
                    None => encode_2pc(MsgKind::VoteNo, m.txn_id, &[]),
                }
            }
            MsgKind::Commit | MsgKind::Abort => {
                self.ep.phase_enter(Phase::TwoPcDecide);
                let prepared = node.prepared.lock().remove(&m.txn_id);
                if let Some(p) = prepared {
                    self.finish(&node, p, m.kind == MsgKind::Commit);
                }
                encode_2pc(MsgKind::Ack, m.txn_id, &[])
            }
            _ => return true,
        };
        let _ = self.ep.send(msg.from, node_inbox_id(self.node), reply);
        self.ep.phase_exit();
        true
    }

    /// The owner's half of a prepare: refuse a fenced coordinator, lock
    /// the keys in the coordinator's name, read and stage. `None` is a No
    /// vote, with nothing held.
    fn prepare_for_coordinator(
        &mut self,
        node: &NodeRuntime,
        body: &[u8],
    ) -> Option<(Prepared, TxnOutput)> {
        let (coord_epoch, coord_node, coord_trace, ops) = decode_prepare(body);
        // Epoch fence: once the cluster bumps a node's epoch (declaring it
        // crashed and its locks stealable), prepares signed with the older
        // epoch are refused — a zombie coordinator that was merely
        // partitioned cannot come back and drive a commit with pre-crash
        // state. A last agent runs it too, before it decides.
        let fenced = match self.cluster.membership.epoch(
            &self.cluster.layer,
            &self.ep,
            coord_node,
        ) {
            Ok(current) => coord_epoch < current,
            Err(_) => true, // membership unreadable: refuse, don't guess
        };
        if fenced {
            return None;
        }
        let mut keys: Vec<u64> = ops.iter().map(|o| o.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        self.ep.charge_local(50 * keys.len() as u64);
        // Owner locks are held on behalf of the *coordinator's*
        // transaction: later conflicters blame the coordinator's trace,
        // not the serving session's.
        if let Err(holder) = node.locks.try_lock_all(&keys, coord_trace) {
            self.ep.note_local_lock_wait(keys[0], 50 * keys.len() as u64, holder);
            return None;
        }
        match self.prepare_ops(&ops) {
            Ok((out, staged)) => Some((Prepared { keys, staged }, out)),
            Err(_) => {
                node.locks.unlock_all(&keys);
                None
            }
        }
    }

    /// Carry out the decision on a prepared sub-transaction and release
    /// its keys. A commit is final: if the write-back cannot reach DSM
    /// (memory node crashed mid-commit) the failure is counted, not
    /// swallowed — the record's surviving mirrors hold the pre-txn value
    /// until rebuild, and the operator sees the count.
    fn finish(&mut self, node: &NodeRuntime, p: Prepared, commit: bool) {
        if commit && self.apply_staged(&p.staged).is_err() {
            self.stats.apply_failures += 1;
        }
        node.locks.unlock_all(&p.keys);
    }
}

// ---------------------------------------------------------------------------
// Sub-transaction wire codec
// ---------------------------------------------------------------------------

const OP_READ: u8 = 0;
const OP_UPDATE: u8 = 1;
const OP_RMW: u8 = 2;

/// Prepare body: `[epoch u64 | coordinator node u64 | coordinator trace
/// u64 | subtxn]`. The (node, epoch) pair is the coordinator's signature
/// for epoch fencing; the trace id lets the participant hold locks in
/// the coordinator's name so conflicters blame the right transaction.
fn encode_prepare(epoch: u64, node: usize, trace: u64, ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + 2 + ops.len() * 12);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(node as u64).to_le_bytes());
    out.extend_from_slice(&trace.to_le_bytes());
    out.extend_from_slice(&encode_subtxn(ops));
    out
}

fn decode_prepare(body: &[u8]) -> (u64, usize, u64, Vec<Op>) {
    let epoch = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let node = u64::from_le_bytes(body[8..16].try_into().unwrap()) as usize;
    let trace = u64::from_le_bytes(body[16..24].try_into().unwrap());
    (epoch, node, trace, decode_subtxn(&body[24..]))
}

fn encode_subtxn(ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + ops.len() * 12);
    out.extend_from_slice(&(ops.len() as u16).to_le_bytes());
    for op in ops {
        match op {
            Op::Read(k) => {
                out.push(OP_READ);
                out.extend_from_slice(&k.to_le_bytes());
            }
            Op::Update { key, value } => {
                out.push(OP_UPDATE);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&(value.len() as u16).to_le_bytes());
                out.extend_from_slice(value);
            }
            Op::Rmw { key, delta } => {
                out.push(OP_RMW);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&delta.to_le_bytes());
            }
        }
    }
    out
}

fn decode_subtxn(body: &[u8]) -> Vec<Op> {
    let n = u16::from_le_bytes(body[0..2].try_into().unwrap()) as usize;
    let mut ops = Vec::with_capacity(n);
    let mut pos = 2;
    for _ in 0..n {
        let kind = body[pos];
        let key = u64::from_le_bytes(body[pos + 1..pos + 9].try_into().unwrap());
        pos += 9;
        match kind {
            OP_READ => ops.push(Op::Read(key)),
            OP_UPDATE => {
                let len = u16::from_le_bytes(body[pos..pos + 2].try_into().unwrap()) as usize;
                pos += 2;
                ops.push(Op::Update {
                    key,
                    value: body[pos..pos + len].to_vec(),
                });
                pos += len;
            }
            _ => {
                let delta = i64::from_le_bytes(body[pos..pos + 8].try_into().unwrap());
                pos += 8;
                ops.push(Op::Rmw { key, delta });
            }
        }
    }
    ops
}

fn encode_reads(reads: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(reads.len() as u16).to_le_bytes());
    for (k, v) in reads {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&(v.len() as u16).to_le_bytes());
        out.extend_from_slice(v);
    }
    out
}

fn decode_reads(body: &[u8]) -> Vec<(u64, Vec<u8>)> {
    if body.len() < 2 {
        return Vec::new();
    }
    let n = u16::from_le_bytes(body[0..2].try_into().unwrap()) as usize;
    let mut out = Vec::with_capacity(n);
    let mut pos = 2;
    for _ in 0..n {
        let k = u64::from_le_bytes(body[pos..pos + 8].try_into().unwrap());
        let len = u16::from_le_bytes(body[pos + 8..pos + 10].try_into().unwrap()) as usize;
        pos += 10;
        out.push((k, body[pos..pos + len].to_vec()));
        pos += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoherenceMode;
    use rdma_sim::{NetworkProfile, StatsSnapshot};

    fn config(arch: Architecture, cc: CcProtocol, nodes: usize, threads: usize) -> ClusterConfig {
        ClusterConfig {
            compute_nodes: nodes,
            threads_per_node: threads,
            memory_nodes: 2,
            n_records: 64,
            payload_size: 16,
            versions: if cc == CcProtocol::Mvcc { 4 } else { 1 },
            cache_frames: 64,
            profile: NetworkProfile::zero(),
            architecture: arch,
            cc,
            ..Default::default()
        }
    }

    fn counter(out: &TxnOutput, idx: usize) -> i64 {
        i64::from_le_bytes(out.reads[idx].1[0..8].try_into().unwrap())
    }

    #[test]
    fn every_abort_cause_lands_in_its_own_metric() {
        let errors = [
            TxnError::Aborted("lock-busy"),
            TxnError::Aborted("lock-timeout"),
            TxnError::Aborted("validate-version"),
            TxnError::Aborted("lease-stolen"),
            TxnError::NodeUnavailable { node: 0 },
            TxnError::Aborted("transient-fault"),
            TxnError::Aborted("no-such-rule"),
        ];
        for (i, e) in errors.iter().enumerate() {
            let (cause, metric) = (e.cause(), abort_metric(e.cause()));
            assert_eq!(cause as usize, i);
            // `aborts_validation` counts `validation_fail`.
            let short = metric.name().strip_prefix("aborts_").unwrap();
            assert!(AbortCause::NAMES[i].starts_with(short), "{cause:?} -> {metric:?}");
        }
    }

    #[test]
    fn subtxn_codec_roundtrip() {
        let ops = vec![
            Op::Read(3),
            Op::Update {
                key: 9,
                value: vec![1, 2, 3],
            },
            Op::Rmw { key: 5, delta: -7 },
        ];
        assert_eq!(decode_subtxn(&encode_subtxn(&ops)), ops);
        let reads = vec![(1u64, vec![9u8; 16]), (2, vec![])];
        assert_eq!(decode_reads(&encode_reads(&reads)), reads);
        assert_eq!(decode_prepare(&encode_prepare(7, 3, 99, &ops)), (7, 3, 99, ops));
    }

    #[test]
    fn single_node_executes_on_every_architecture() {
        for arch in [
            Architecture::NoCacheNoShard,
            Architecture::CacheNoShard(CoherenceMode::Invalidate),
            Architecture::CacheShard,
        ] {
            let cluster = Cluster::build(config(arch, CcProtocol::TplExclusive, 1, 1)).unwrap();
            let mut s = cluster.session(0, 0);
            s.execute(&[Op::Rmw { key: 1, delta: 5 }]).unwrap();
            let out = s.execute(&[Op::Read(1)]).unwrap();
            assert_eq!(counter(&out, 0), 5, "{arch:?}");
        }
    }

    #[test]
    fn all_cc_protocols_run_on_3a() {
        for cc in [
            CcProtocol::TplExclusive,
            CcProtocol::TplSharedExclusive,
            CcProtocol::TplLeased,
            CcProtocol::Occ,
            CcProtocol::Tso,
            CcProtocol::Mvcc,
        ] {
            let cluster =
                Cluster::build(config(Architecture::NoCacheNoShard, cc, 1, 1)).unwrap();
            let mut s = cluster.session(0, 0);
            s.execute_retrying(&[Op::Rmw { key: 2, delta: 3 }], 10).unwrap();
            let out = s.execute_retrying(&[Op::Read(2)], 10).unwrap();
            assert_eq!(counter(&out, 0), 3, "{cc:?}");
        }
    }

    #[test]
    fn coherent_cache_hits_after_warm() {
        let cluster = Cluster::build(config(
            Architecture::CacheNoShard(CoherenceMode::Invalidate),
            CcProtocol::TplExclusive,
            1,
            1,
        ))
        .unwrap();
        let mut s = cluster.session(0, 0);
        s.execute(&[Op::Read(7)]).unwrap();
        s.execute(&[Op::Read(7)]).unwrap();
        let pool = &cluster.nodes[0].cache.as_ref().unwrap().pool;
        assert!(pool.stats().hits >= 1);
    }

    #[test]
    fn a_3b_session_receives_on_the_reply_box_it_keeps() {
        let cluster = Cluster::build(config(
            Architecture::CacheNoShard(CoherenceMode::Invalidate),
            CcProtocol::TplExclusive,
            1,
            1,
        ))
        .unwrap();
        let s = cluster.session(0, 0);
        let peer = cluster.fabric().endpoint();
        // Registered once: the session's handle and its io's are one box.
        peer.send(session_inbox_id(0, 0), 0, vec![0xAB]).unwrap();
        assert_eq!(s.reply.try_recv().unwrap().payload, vec![0xAB]);
    }

    #[test]
    fn multi_master_bank_invariant_3a() {
        bank_run(Architecture::NoCacheNoShard, CcProtocol::Occ, 2, 2);
    }

    #[test]
    fn multi_master_bank_invariant_3a_leased() {
        bank_run(Architecture::NoCacheNoShard, CcProtocol::TplLeased, 2, 2);
    }

    /// Two sessions per node, sharing the node's pool and its handler.
    #[test]
    fn multi_master_bank_invariant_3b() {
        bank_run(
            Architecture::CacheNoShard(CoherenceMode::Invalidate),
            CcProtocol::TplExclusive,
            2,
            2,
        );
    }

    #[test]
    fn multi_master_bank_invariant_3b_update_mode() {
        bank_run(
            Architecture::CacheNoShard(CoherenceMode::Update),
            CcProtocol::TplExclusive,
            2,
            2,
        );
    }

    #[test]
    fn multi_master_bank_invariant_3c() {
        bank_run(Architecture::CacheShard, CcProtocol::TplExclusive, 2, 1);
    }

    /// Three owners: a transfer between two shards neither of which is the
    /// coordinator's has a step-2 owner beside its last agent.
    #[test]
    fn multi_master_bank_invariant_3c_three_nodes() {
        bank_run(Architecture::CacheShard, CcProtocol::TplExclusive, 3, 1);
    }

    /// The cross-architecture serializability smoke test: concurrent
    /// transfers must conserve total balance.
    fn bank_run(arch: Architecture, cc: CcProtocol, nodes: usize, threads: usize) {
        let cluster = Cluster::build(config(arch, cc, nodes, threads)).unwrap();
        let total_workers = nodes * threads;
        let finished = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|sc| {
            for n in 0..nodes {
                for t in 0..threads {
                    let cluster = cluster.clone();
                    let finished = &finished;
                    sc.spawn(move || {
                        let mut s = cluster.session(n, t);
                        let mut rng = 0x9E37u64.wrapping_add((n * 16 + t) as u64);
                        let mut rand = move || {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            rng
                        };
                        for _ in 0..150 {
                            let a = rand() % 64;
                            let mut b = rand() % 64;
                            while b == a {
                                b = rand() % 64;
                            }
                            let ops = [
                                Op::Rmw { key: a, delta: -3 },
                                Op::Rmw { key: b, delta: 3 },
                            ];
                            loop {
                                match s.execute(&ops) {
                                    Ok(_) => break,
                                    Err(TxnError::Aborted(_)) => {
                                        s.serve_pending(8);
                                        continue;
                                    }
                                    Err(e) => panic!("{e}"),
                                }
                            }
                        }
                        // Keep serving until every worker finished its
                        // transactions: peers may still be mid-2PC or
                        // waiting for coherence acks, and once everyone
                        // is done no new requests can appear.
                        finished.fetch_add(1, Ordering::Release);
                        while finished.load(Ordering::Acquire) < total_workers {
                            if !s.serve_pending(8) {
                                std::thread::yield_now();
                            }
                        }
                        s.serve_pending(usize::MAX >> 1);
                    });
                }
            }
        });

        // Verify conservation with direct DSM reads.
        let ep = cluster.fabric().endpoint();
        let mut total = 0i64;
        for k in 0..64u64 {
            // Latest version = max wts slot.
            let versions = cluster.config.versions;
            let mut best = (0u64, 0i64);
            for v in 0..versions {
                let wts = cluster
                    .layer()
                    .read_u64(&ep, cluster.table().wts_addr(k, v))
                    .unwrap();
                let mut buf = vec![0u8; 16];
                cluster
                    .layer()
                    .read(&ep, cluster.table().payload_addr(k, v), &mut buf)
                    .unwrap();
                let val = i64::from_le_bytes(buf[0..8].try_into().unwrap());
                if wts >= best.0 {
                    best = (wts, val);
                }
            }
            total += best.1;
        }
        assert_eq!(total, 0, "{arch:?}/{cc:?} leaked money");
        for n in 0..nodes {
            assert_eq!(cluster.shard_residue(n), (0, 0), "node {n}: locks held, txns prepared");
        }
    }

    #[test]
    fn sharded_cross_shard_transfer_works() {
        // Keys 0..32 owned by node 0; 32..64 by node 1.
        let cluster = shard_cluster(2);
        with_owners(&cluster, |s0| {
            let out = s0
                .execute_retrying(
                    &[
                        Op::Rmw { key: 1, delta: -10 }, // local shard
                        Op::Rmw { key: 60, delta: 10 }, // remote shard
                    ],
                    50,
                )
                .unwrap();
            assert_eq!(out.reads.len(), 2);
            assert_eq!(s0.stats().cross_shard, 1);
            // Read back both (cross-shard read).
            let rb = s0
                .execute_retrying(&[Op::Read(1), Op::Read(60)], 50)
                .unwrap();
            let vals: std::collections::HashMap<u64, i64> = rb
                .reads
                .iter()
                .map(|(k, v)| (*k, i64::from_le_bytes(v[0..8].try_into().unwrap())))
                .collect();
            assert_eq!(vals[&1], -10);
            assert_eq!(vals[&60], 10);
        });
    }

    /// Run `ops` on `s` and fold into `reference` what a filter over the
    /// whole ring attributes to that transaction, where `execute` reads
    /// only the transaction's own tail of it. Nothing may reach the
    /// session's inbox early enough to move its clock before the
    /// transaction's window opens.
    fn execute_and_refold(
        s: &mut Session,
        reference: &mut telemetry::ForensicsCollector,
        ops: &[Op],
        expect_lost: bool,
    ) -> u64 {
        let t0 = s.ep.clock().now_ns();
        let committed = s.execute(ops).is_ok();
        let end = s.ep.clock().now_ns();
        let trace = (s.owner_tag << 32) | s.txn_seq;
        let in_ring: Vec<telemetry::PathEvent> = s
            .ep
            .flight_events()
            .iter()
            .filter(|e| e.txn == trace)
            .filter_map(rdma_sim::recorder::to_path_event)
            .collect();
        let want = telemetry::extract(trace, t0, end, &in_ring, committed, expect_lost);
        let residual = want.blame_ns[telemetry::Blame::Unattributed as usize];
        assert_eq!(residual > 0, expect_lost, "txn {trace:#x}: {want:?}");
        reference.record(want);
        trace
    }

    /// 3a sessions with real verb costs, a `ring`-event flight recorder
    /// and a worst-`k` reservoir: `txns` transactions of `ops_per_txn`
    /// read-modify-writes each, refolded one by one.
    fn refold_3a(ring: usize, k: usize, txns: u64, ops_per_txn: u64, expect_lost: bool) {
        let cluster = Cluster::build(ClusterConfig {
            profile: NetworkProfile::rdma_cx6(),
            ..config(Architecture::NoCacheNoShard, CcProtocol::TplExclusive, 1, 1)
        })
        .unwrap();
        let mut s = cluster.session(0, 0);
        s.ep.enable_flight_recorder(ring);
        s.enable_forensics(k);
        let mut reference = telemetry::ForensicsCollector::new(k);
        for t in 0..txns {
            let ops: Vec<Op> = (0..ops_per_txn)
                .map(|i| Op::Rmw { key: (7 * t + 3 * i) % 64, delta: 1 })
                .collect();
            execute_and_refold(&mut s, &mut reference, &ops, expect_lost);
        }
        assert!(s.ep.flight_pushed() > 4 * ring as u64, "the ring must have wrapped");
        let got = s.forensics_snapshot();
        assert_eq!(got, reference.snapshot());
        assert_eq!(got.txns, txns);
        assert_eq!(got.worst.len(), k.min(txns as usize));
    }

    #[test]
    fn forensic_tail_equals_a_full_ring_filter_when_the_ring_wraps_between_txns() {
        // Every transaction an exemplar, then almost none: the second run
        // takes the path that copies no chain.
        refold_3a(48, 64, 24, 2, false);
        refold_3a(48, 1, 24, 2, false);
    }

    #[test]
    fn forensic_tail_of_a_ring_smaller_than_one_txn_reports_the_loss() {
        refold_3a(8, 64, 12, 4, true);
        refold_3a(8, 2, 12, 4, true);
    }

    /// `xshard_2pc` in one thread: while session B coordinates a
    /// cross-shard transaction it serves, between handing its last agent
    /// the decision and hearing back, a peer's prepare for B's shard. The
    /// served work is tagged with B's trace and lies inside B's window, so
    /// it belongs to B's critical path whichever way the ring is read. The
    /// peer is scripted: its `PrepareCommit` is already queued, addressed
    /// so that the vote B sends while serving it is the very reply B is
    /// waiting for (node 0 itself never runs).
    #[test]
    fn forensic_tail_includes_a_prepare_served_inside_the_coordinators_window() {
        let cluster = Cluster::build(ClusterConfig {
            profile: NetworkProfile::rdma_cx6(),
            ..config(Architecture::CacheShard, CcProtocol::TplExclusive, 2, 1)
        })
        .unwrap();
        let peer = cluster.session(0, 0);
        let mut b = cluster.session(1, 0);
        b.ep.enable_flight_recorder(256);
        b.enable_forensics(4);
        let mut reference = telemetry::ForensicsCollector::new(4);
        // Keys 32..64 are B's shard. B has been running for a while, so
        // none of the deliveries below moves its clock.
        execute_and_refold(&mut b, &mut reference, &[Op::Rmw { key: 40, delta: 1 }], false);
        b.ep.charge_local(100_000);

        let txn_id = cluster.txn_ids.load(Ordering::Relaxed);
        let script = |payload: Vec<u8>| peer.ep.send(node_inbox_id(1), b.reply_id, payload).unwrap();
        // `execute` serves four messages before its window opens, the
        // reply wait two per empty poll.
        for _ in 0..4 {
            script(vec![0xFF]);
        }
        let served = [Op::Rmw { key: 50, delta: 5 }];
        let prepare = encode_prepare(peer.epoch, 0, 0xBEEF, &served);
        script(encode_2pc(MsgKind::PrepareCommit, txn_id, &prepare));
        script(vec![0xFF]);

        let ops = [Op::Rmw { key: 33, delta: -5 }, Op::Rmw { key: 1, delta: 5 }];
        let trace = execute_and_refold(&mut b, &mut reference, &ops, false);
        assert_eq!(b.stats().cross_shard, 1);
        assert_eq!(b.stats().served_subtxns, 1);
        // Its own prepare phase and the served one, under one trace.
        let prepares = b
            .ep
            .flight_events()
            .iter()
            .filter(|e| {
                e.txn == trace
                    && e.kind == rdma_sim::EventKind::PhaseBegin
                    && e.addr == Phase::TwoPcPrepare as u64
            })
            .count();
        assert_eq!(prepares, 2);
        assert_eq!(b.forensics_snapshot(), reference.snapshot());
        // The served sub-transaction committed where it was decided.
        assert_eq!(cluster.shard_residue(1), (0, 0));
        assert_eq!(counter(&b.execute(&[Op::Read(50)]).unwrap(), 0), 5);
    }

    /// A coordinator whose node epoch was bumped (declared crashed) is
    /// refused by shard owners until it refreshes its epoch — the
    /// zombie-coordinator fence.
    #[test]
    fn stale_epoch_coordinator_is_fenced_until_refresh() {
        let cluster = shard_cluster(2);
        with_owners(&cluster, |s0| {
            assert_eq!(s0.epoch(), 1);
            // The cluster declares node 0 crashed-and-recovered.
            let ep = cluster.fabric().endpoint();
            cluster
                .membership()
                .bump_epoch(cluster.layer(), &ep, 0)
                .unwrap();
            // s0 still signs with epoch 1: every cross-shard attempt is
            // voted down by the owner.
            let ops = [
                Op::Rmw { key: 1, delta: -10 }, // local shard
                Op::Rmw { key: 60, delta: 10 }, // remote shard
            ];
            let err = s0.execute_retrying(&ops, 3).unwrap_err();
            assert!(
                matches!(err, TxnError::Aborted("remote-vote-no")),
                "stale coordinator must be fenced, got {err}"
            );
            // After re-reading the membership table it commits.
            s0.refresh_epoch().unwrap();
            assert_eq!(s0.epoch(), 2);
            s0.execute_retrying(&ops, 50).unwrap();
        });
    }

    #[test]
    fn reshard_is_metadata_only_and_preserves_data() {
        let cluster =
            Cluster::build(config(Architecture::CacheShard, CcProtocol::TplExclusive, 2, 1))
                .unwrap();
        let mut s0 = cluster.session(0, 0);
        s0.execute(&[Op::Rmw { key: 5, delta: 42 }]).unwrap();
        // Move node 0's whole range to node 1 — no bulk data transfer.
        let ep = cluster.fabric().endpoint();
        let before_bytes = ep.stats().total_bytes();
        cluster.reshard(&ep, 0, 32, 1);
        let moved_bytes = ep.stats().total_bytes() - before_bytes;
        assert!(moved_bytes < 1024, "metadata-only, moved {moved_bytes}");
        assert_eq!(cluster.shard_map().owner_of(5), 1);
        // The new owner can operate on the key and sees the value.
        let mut s1 = cluster.session(1, 0);
        let out = s1.execute(&[Op::Read(5)]).unwrap();
        assert_eq!(counter(&out, 0), 42);
    }

    // Last-agent commit (3c) on `rdma_cx6`: node `n` owns keys
    // `[32 n, 32 n + 32)`, node 0 coordinates, the others serve.

    fn shard_cluster(nodes: usize) -> Arc<Cluster> {
        Cluster::build(ClusterConfig {
            n_records: 32 * nodes as u64,
            payload_size: 64,
            profile: NetworkProfile::rdma_cx6(),
            ..config(Architecture::CacheShard, CcProtocol::TplExclusive, nodes, 1)
        })
        .unwrap()
    }

    /// Run `body` on node 0's session while every other node's session
    /// serves its inbox on a thread of its own and drains it before it
    /// stops. Returns what each of those did, node 1 first.
    fn with_owners<R>(
        cluster: &Arc<Cluster>,
        body: impl FnOnce(&mut Session) -> R,
    ) -> (R, Vec<(StatsSnapshot, SessionStats)>) {
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|sc| {
            let owners: Vec<_> = (1..cluster.config.compute_nodes)
                .map(|n| {
                    let stop = &stop;
                    sc.spawn(move || {
                        let mut s = cluster.session(n, 0);
                        while !stop.load(Ordering::Acquire) {
                            if !s.serve_pending(16) {
                                std::thread::yield_now();
                            }
                        }
                        s.serve_pending(usize::MAX >> 1);
                        (s.ep.stats(), s.stats())
                    })
                })
                .collect();
            let out = body(&mut cluster.session(0, 0));
            stop.store(true, Ordering::Release);
            (out, owners.into_iter().map(|h| h.join().unwrap()).collect())
        })
    }

    /// `key`'s counter as DSM holds it (3c pools write through).
    fn stored(cluster: &Cluster, key: u64) -> i64 {
        let mut buf = [0u8; 64];
        let addr = cluster.table().payload_addr(key, 0);
        cluster.layer().read(&cluster.fabric().endpoint(), addr, &mut buf).unwrap();
        i64::from_le_bytes(buf[0..8].try_into().unwrap())
    }

    /// Execute `ops` on `s`: (virtual ns, messages sent).
    fn cost_of(s: &mut Session, ops: &[Op]) -> (u64, u64) {
        let (t0, sends) = (s.ep.clock().now_ns(), s.ep.stats().sends);
        s.execute(ops).unwrap();
        (s.ep.clock().now_ns() - t0, s.ep.stats().sends - sends)
    }

    /// One remote owner: `PrepareCommit` out, the last agent's vote back,
    /// no decision and no ack, and the coordinator's clock is the cost
    /// model's sum to the ns — owner page missed or hit, with or without a
    /// local part.
    #[test]
    fn one_remote_owner_is_two_messages_at_the_cost_the_model_gives() {
        use buffer::cost::{ATOMIC_NS, LOCK_NS, MAP_OP_NS};
        let p = NetworkProfile::rdma_cx6();
        let lock = 50; // one key, local lock table
        let miss = MAP_OP_NS + LOCK_NS + MAP_OP_NS + p.rw_cost_ns(64) + ATOMIC_NS;
        let hit = MAP_OP_NS + ATOMIC_NS; // CLOCK: latch-free
        let write_through = MAP_OP_NS + LOCK_NS + ATOMIC_NS + p.rw_cost_ns(64);
        // 9 B header; 24 B signature + one Rmw out, one 64 B read back.
        let prepare_commit = p.send_cost_ns(9 + 24 + 2 + 17);
        let vote = p.send_cost_ns(9 + 2 + 10 + 64);
        // Epoch fence READ, lock, page, write-through, all before the vote.
        let owner = |page| p.rw_cost_ns(8) + lock + page + write_through;

        let cluster = shard_cluster(2);
        let transfer = [Op::Rmw { key: 1, delta: -10 }, Op::Rmw { key: 40, delta: 10 }];
        let (costs, owners) = with_owners(&cluster, |s0| {
            // Past anything the owner's clock holds.
            s0.ep.charge_local(1_000_000);
            let costs = [
                cost_of(s0, &transfer),
                cost_of(s0, &transfer),
                // F3's remote point txn: no local part.
                cost_of(s0, &[Op::Rmw { key: 41, delta: 7 }]),
            ];
            assert_eq!(s0.stats().cross_shard, 3);
            costs
        });
        let miss_miss = lock + miss + prepare_commit + owner(miss) + vote + write_through;
        let hit_hit = lock + hit + prepare_commit + owner(hit) + vote + write_through;
        let shipped = prepare_commit + owner(miss) + vote;
        assert_eq!(costs, [(miss_miss, 1), (hit_hit, 1), (shipped, 1)]);
        assert_eq!(costs.map(|c| c.0), [13_191, 9_897, 9_798]);
        let (net, served) = owners[0];
        assert_eq!((net.recvs, net.sends, served.served_subtxns), (3, 3, 3));
        assert_eq!(cluster.shard_residue(1), (0, 0));
        assert_eq!([1, 40, 41].map(|k| stored(&cluster, k)), [-20, 20, 7]);
    }

    /// Node 1, prepared in step 2, votes no: node 2 — the last agent — is
    /// never asked, nothing is applied anywhere, every lock is free.
    #[test]
    fn a_no_from_a_step_two_owner_sends_no_prepare_commit() {
        let cluster = shard_cluster(3);
        let txn = [1, 40, 70].map(|key| Op::Rmw { key, delta: 1 });
        cluster.nodes[1].locks.try_lock_all(&[40], 0xDEAD).unwrap();
        let ((err, sends), owners) =
            with_owners(&cluster, |s0| (s0.execute(&txn).unwrap_err(), s0.ep.stats().sends));
        assert!(matches!(err, TxnError::Aborted("remote-vote-no")), "{err}");
        // Prepare and Abort to node 1, which votes and acks.
        assert_eq!(sends, 2);
        assert_eq!((owners[0].0.recvs, owners[0].0.sends), (2, 2));
        assert_eq!((owners[1].0.recvs, owners[1].0.sends), (0, 0));
        cluster.nodes[1].locks.unlock_all(&[40]);
        for n in 0..3 {
            assert_eq!(cluster.shard_residue(n), (0, 0), "node {n}");
        }
        assert_eq!([1, 40, 70].map(|k| stored(&cluster, k)), [0; 3]);
    }

    /// The last agent is busy and votes no: node 1, prepared in step 2,
    /// gets `Abort`, keeps its value and frees its lock — the same
    /// transaction commits once the last agent's key is free.
    #[test]
    fn a_busy_last_agent_aborts_the_prepared_owners() {
        let cluster = shard_cluster(3);
        let txn = [1, 40, 70].map(|key| Op::Rmw { key, delta: 1 });
        cluster.nodes[2].locks.try_lock_all(&[70], 0xDEAD).unwrap();
        let ((err, sends), owners) =
            with_owners(&cluster, |s0| (s0.execute(&txn).unwrap_err(), s0.ep.stats().sends));
        assert!(matches!(err, TxnError::Aborted("remote-vote-no")), "{err}");
        // Prepare, PrepareCommit, Abort.
        assert_eq!(sends, 3);
        assert_eq!((owners[0].0.recvs, owners[0].0.sends, owners[0].1.served_subtxns), (2, 2, 1));
        assert_eq!((owners[1].0.recvs, owners[1].0.sends, owners[1].1.served_subtxns), (1, 1, 0));
        assert_eq!([0, 1, 2].map(|n| cluster.shard_residue(n)), [(0, 0), (0, 0), (1, 0)]);
        assert_eq!([1, 40, 70].map(|k| stored(&cluster, k)), [0; 3]);

        cluster.nodes[2].locks.unlock_all(&[70]);
        with_owners(&cluster, |s0| s0.execute(&txn)).0.unwrap();
        assert_eq!([1, 40, 70].map(|k| stored(&cluster, k)), [1; 3]);
        assert_eq!([0, 1, 2].map(|n| cluster.shard_residue(n)), [(0, 0); 3]);
    }

    /// A prepare doorbell that reaches only some owners of step 2 (node 2's
    /// inbox is gone) is a No vote: the owners it did reach are told to
    /// abort, so their keys are free again, and the last agent is never
    /// asked.
    #[test]
    fn a_partly_delivered_prepare_aborts_the_owners_it_reached() {
        let cluster = shard_cluster(4);
        cluster.fabric().mailboxes().unregister(node_inbox_id(2));
        let txn = [1, 40, 70, 100].map(|key| Op::Rmw { key, delta: 1 });
        let (result, _) = with_owners(&cluster, |s0| s0.execute(&txn));
        assert!(matches!(result, Err(TxnError::Aborted("owner-unreachable"))), "{result:?}");
        for (node, key) in [(1, 40), (3, 100)] {
            cluster.session(node, 0).execute(&[Op::Rmw { key, delta: 1 }]).unwrap();
        }
        for n in 0..4 {
            assert_eq!(cluster.shard_residue(n), (0, 0), "node {n}");
        }
        assert_eq!([1, 40, 70, 100].map(|k| stored(&cluster, k)), [0, 1, 0, 1]);
    }
}
