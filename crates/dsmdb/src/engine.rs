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
//!
//! What a node receives from its peers — coherence requests in 3b, a
//! coordinator's prepares and decisions in 3c — its [`NodeHandler`]
//! answers on an endpoint of its own; a session only lends it its thread
//! ([`Session::serve_pending`]), never its clock.
//!
//! A 3c session that coordinates a cross-shard transaction posts no verb
//! of its own: it locks and stages its local part from its cache, ships
//! the ops on the pages it does not have, and its last agent's one commit
//! doorbell writes them all. The coordinator pays the message round and
//! puts the committed pages in its cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use buffer::{BufferPool, ClockPolicy};
use dsm::{DsmConfig, DsmLayer};
use rdma_sim::{Endpoint, Fabric, HistSnapshot, Mailbox, MailboxId, Metric, Phase, PhaseSnapshot};
use telemetry::Histogram;
use txn::table::RecordTable;
use txn::twopc::{decode as decode_2pc, encode as encode_2pc, MsgKind, TwoPcMsg};
use txn::{
    distinct_keys, AbortCause, ConcurrencyControl, DirectIo, FaaOracle, LeaseLock, Mvcc, Occ, Op,
    PayloadIo, TwoPhaseLocking, Tso, TxnError, TxnOutput,
};

use crate::coherence::{node_inbox_id, session_inbox_id, CoherentIo};
use crate::config::{Architecture, CcProtocol, ClusterConfig};
use crate::membership::Membership;
use crate::node::{decode_reads, encode_prepare, encode_shipment, NodeHandler, PageArena};
use crate::shard::ShardMap;

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
}

/// The cluster: build once, then open one [`Session`] per worker thread.
pub struct Cluster {
    config: ClusterConfig,
    fabric: Arc<Fabric>,
    layer: Arc<DsmLayer>,
    table: Arc<RecordTable>,
    oracle: Option<Arc<FaaOracle>>,
    /// Each compute node's handler (none in 3a: nothing lives on the node).
    nodes: Vec<Option<Arc<NodeHandler>>>,
    shard_map: Arc<ShardMap>,
    membership: Arc<Membership>,
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
            },
        );
        let table = Arc::new(
            RecordTable::create(&layer, config.n_records, config.payload_size, config.cc.versions())
                .map_err(|e| EngineError::Setup(e.to_string()))?,
        );
        let membership = {
            let ep = fabric.endpoint();
            Arc::new(
                Membership::create(&layer, &ep, config.compute_nodes)
                    .map_err(|e| EngineError::Setup(e.to_string()))?,
            )
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
            )
        };
        let cached = config.architecture != Architecture::NoCacheNoShard;
        let nodes = (0..config.compute_nodes)
            .map(|n| {
                cached.then(|| {
                    let pool = striped_pool();
                    Arc::new(NodeHandler::new(&fabric, n, pool, table.clone(), membership.clone()))
                })
            })
            .collect();
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

    /// Compute node `node`'s message handler, which owns its pool (3b and
    /// 3c only).
    pub fn handler(&self, node: usize) -> Option<&Arc<NodeHandler>> {
        self.nodes[node].as_ref()
    }

    /// What compute node `node`'s 3c commit state still holds: keys locked
    /// in its lock table and transactions prepared on it awaiting a
    /// decision. Both are 0 whenever no transaction is in flight.
    pub fn shard_residue(&self, node: usize) -> (usize, usize) {
        self.handler(node).map_or((0, 0), |h| (h.locks.held(), h.prepared.lock().len()))
    }

    /// What compute node `node`'s handler did as a 3c shard owner:
    /// sub-transactions it prepared for a coordinator, and decided commits
    /// whose write-back failed (the record is left to mirror rebuild).
    pub fn owner_work(&self, node: usize) -> (u64, u64) {
        self.handler(node).map_or((0, 0), |h| {
            (h.served_subtxns.load(Ordering::Relaxed), h.apply_failures.load(Ordering::Relaxed))
        })
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
        let worker_tag = compose_worker_tag(self.config.lease_ns, owner_tag, epoch);
        let cc: Box<dyn ConcurrencyControl> = match self.config.cc {
            CcProtocol::TplExclusive => Box::new(TwoPhaseLocking::exclusive()),
            CcProtocol::TplSharedExclusive => Box::new(TwoPhaseLocking::shared_exclusive()),
            CcProtocol::Occ => Box::new(Occ::new()),
            CcProtocol::Tso => Box::new(Tso::new(self.oracle.clone().expect("oracle built"))),
            CcProtocol::Mvcc => Box::new(Mvcc::new(self.oracle.clone().expect("oracle built"))),
        };
        let handler = self.nodes[node].clone();
        let io: Box<dyn PayloadIo> = match self.config.architecture {
            Architecture::NoCacheNoShard | Architecture::CacheShard => Box::new(DirectIo),
            Architecture::CacheNoShard(_) => Box::new(CoherentIo {
                handler: handler.clone().expect("3b handler"),
                reply: reply.clone(),
                reply_id,
                compute_nodes: self.config.compute_nodes,
            }),
        };
        Session {
            cluster: self.clone(),
            node,
            handler,
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
        self.drop_compute_caches(ep);
        v
    }

    /// Drop every compute-side cached page (3b coherent caches and 3c
    /// owner pools alike). Called when a live migration flips a range
    /// to its new home: cached frames were fetched from the old one and
    /// must be refetched, not trusted. Write-through pools hold no
    /// dirty state, so this costs only refetches.
    pub fn drop_compute_caches(&self, ep: &Endpoint) {
        for handler in self.nodes.iter().flatten() {
            handler.pool.drop_all(ep);
        }
    }
}

/// Per-window series metric for one typed abort cause: the per-cause
/// metrics sit in [`AbortCause`] order from [`Metric::AbortsLockBusy`].
fn abort_metric(cause: AbortCause) -> Metric {
    Metric::ALL[Metric::AbortsLockBusy as usize + cause as usize]
}

/// Lock-ownership tag for `(owner, epoch)`. A leased cluster's tag is a
/// [`LeaseLock::tag`]: the epoch rides in every word the session takes,
/// so a recovered node's new sessions never collide with pre-crash lock
/// words. Unleased, the plain owner id is unique, which is all it needs.
fn compose_worker_tag(lease_ns: Option<u64>, owner: u64, epoch: u64) -> u64 {
    match lease_ns {
        Some(lease_ns) => LeaseLock::tag(owner as u16, epoch as u16, lease_ns),
        None => owner,
    }
}

/// A per-worker-thread handle for executing transactions.
pub struct Session {
    cluster: Arc<Cluster>,
    node: usize,
    /// This node's handler (none in 3a).
    handler: Option<Arc<NodeHandler>>,
    ep: Endpoint,
    reply: Arc<Mailbox>,
    reply_id: MailboxId,
    cc: Box<dyn ConcurrencyControl>,
    io: Box<dyn PayloadIo>,
    owner_tag: u64,
    epoch: u64,
    worker_tag: u64,
    stats: SessionStats,
    /// 3c: the page arena this session's transactions run on.
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
        self.worker_tag = compose_worker_tag(self.cluster.config.lease_ns, self.owner_tag, e);
        Ok(e)
    }

    /// Expired-lease locks this session stole from crashed/stalled owners
    /// (nonzero only with [`ClusterConfig::lease_ns`] set): the
    /// [`Metric::LockSteals`] notes of its series, so counted while
    /// [`Endpoint::enable_timeseries`] is on.
    pub fn lock_steals(&self) -> u64 {
        self.ep.series_snapshot().total(Metric::LockSteals)
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
        // Publish this txn's trace under the holder its lock words name
        // (a lease names its owner id), so blocked waiters can resolve us.
        let announce = self.ep.flight_capacity() > 0;
        if announce {
            self.ep.fabric().announce_trace(LeaseLock::holder(self.worker_tag), trace);
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
                self.cc.execute(&ctx, ops)
            }
            Architecture::CacheShard => self.execute_sharded(ops),
        };
        self.ep.phase_exit();
        // The outcome notes land in the ring inside the transaction's
        // window, so the ring the forensics fold reads below is the ring
        // the caller sees once `execute` returns.
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
            self.ep.fabric().retire_trace(LeaseLock::holder(self.worker_tag));
        }
        self.ep.clear_trace_id();
        self.txn_lat.record(self.ep.clock().now_ns().saturating_sub(t0));
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
        let node = self.handler.as_ref().expect("3c handler");
        let keys = distinct_keys(ops);
        node.lock(&self.ep, &keys, self.ep.trace_id())?;
        let result = node.exec_write(&self.ep, &mut self.arena, ops);
        node.locks.unlock_all(&keys);
        result
    }

    /// Last-agent commit across shard owners (Samaras et al., ICDE 1993).
    /// This session stages its own part first, then prepares every remote
    /// owner but the last (one doorbell), and only if all of them voted yes
    /// hands the last owner a `PrepareCommit`: that owner prepares and, if
    /// it can, commits in the same message round, so its vote is the
    /// decision. The last owner also does this session's DSM work: it reads
    /// the local pages that missed behind its own fetch and writes every
    /// local page in its one commit doorbell, so this session posts no verb
    /// and only puts the results in its pool. With one remote owner a
    /// transaction is two messages. `remote` is sorted by owner and not
    /// empty.
    fn coordinate_cross_shard(
        &mut self,
        local_ops: &[Op],
        mut remote: Vec<(usize, Vec<Op>)>,
    ) -> Result<TxnOutput, TxnError> {
        let node = self.handler.clone().expect("3c handler");
        let txn_id = self.cluster.txn_ids.fetch_add(1, Ordering::Relaxed);

        // Step 1: lock and stage the local part; the session's arena holds
        // its staged writes until the decision, and the ops on pages that
        // missed are shipped to the last owner instead of fetched.
        let local_keys = distinct_keys(local_ops);
        node.lock(&self.ep, &local_keys, self.ep.trace_id())?;
        let (mut out, shipped) = node.stage(&self.ep, &mut self.arena, local_ops);

        // Step 2: every owner but the last prepares, one doorbell for all.
        // An owner the doorbell did not reach counts as a No vote.
        let prepare = self.ep.span(Phase::TwoPcPrepare);
        let (last, last_ops) = remote.pop().expect("a cross-shard txn has a remote owner");
        let delivered = self
            .ep
            .send_batch(remote.iter().map(|(owner, ops)| {
                (
                    node_inbox_id(*owner),
                    self.reply_id,
                    self.prepare_msg(MsgKind::Prepare, txn_id, ops, &[], &[]),
                )
            }))
            .unwrap_or(0);
        let unreachable = || TxnError::Aborted("owner-unreachable");
        let mut failed = ((delivered as usize) < remote.len()).then(unreachable);
        for _ in 0..delivered {
            let vote = self.wait_reply(&node, txn_id);
            if vote.kind != MsgKind::VoteYes {
                failed.get_or_insert(TxnError::Aborted("remote-vote-no"));
            }
            out.reads.extend(decode_reads(&vote.body));
        }
        // Step 3: the last owner prepares and decides, with this session's
        // staged pages and shipped ops beside its own.
        if failed.is_none() {
            let msg = self.prepare_msg(MsgKind::PrepareCommit, txn_id, &last_ops, &node.staged(&self.arena), &shipped);
            match self.ep.send(node_inbox_id(last), self.reply_id, msg) {
                Err(_) => failed = Some(unreachable()),
                Ok(()) => {
                    let vote = self.wait_reply(&node, txn_id);
                    if vote.kind != MsgKind::VoteYes {
                        failed = Some(TxnError::Aborted("remote-vote-no"));
                    } else {
                        let holder = self.ep.trace_id();
                        let taken = node.take_vote(&self.ep, &mut self.arena, &shipped, &vote.body, &mut out, holder);
                        failed = taken.err();
                    }
                }
            }
        }
        drop(prepare);

        // Step 5: tell the owners of step 2. A commit doorbell that did
        // not land aborts them too, so nothing of the transaction applies.
        let _decide = self.ep.span(Phase::TwoPcDecide);
        node.locks.unlock_all(&local_keys);
        let decision = if failed.is_none() { MsgKind::Commit } else { MsgKind::Abort };
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
            self.wait_reply(&node, txn_id);
        }
        match failed {
            None => Ok(out),
            Some(e) => Err(e),
        }
    }

    /// A prepare for `ops`, signed with this session's (node, epoch) —
    /// owners fence stale epochs — and trace, with the pages `images` this
    /// session staged and the ops `shipped` on pages it did not have.
    fn prepare_msg(
        &self,
        kind: MsgKind,
        txn_id: u64,
        ops: &[Op],
        images: &[(dsm::GlobalAddr, &[u8])],
        shipped: &[Op],
    ) -> Vec<u8> {
        let mut body = encode_prepare(self.epoch, self.node, self.ep.trace_id(), ops);
        encode_shipment(&mut body, images, shipped);
        encode_2pc(kind, txn_id, &body)
    }

    /// The next reply for `txn_id` on this session's box, a vote or an
    /// ack, waited for on `node` ([`NodeHandler::wait_for`]).
    fn wait_reply(&self, node: &NodeHandler, txn_id: u64) -> TwoPcMsg {
        node.wait_for(&self.ep, &self.reply, |msg| decode_2pc(&msg.payload).filter(|m| m.txn_id == txn_id))
    }

    /// Serve up to `budget` pending messages addressed to this node —
    /// coherence requests in 3b, 2PC participant work in 3c — on the
    /// node's handler. Returns whether anything was served. Workers call
    /// this between transactions; a session waiting for a reply serves
    /// in `NodeHandler::wait_for` instead.
    pub fn serve_pending(&self, budget: usize) -> bool {
        self.handler.as_ref().is_some_and(|h| h.serve(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoherenceMode;
    use crate::node::{decode_prepare, decode_subtxn, decode_vote, encode_reads, encode_subtxn, encode_vote, PrepareBody};
    use rdma_sim::{NetworkProfile, StatsSnapshot};

    fn config(arch: Architecture, cc: CcProtocol, nodes: usize, threads: usize) -> ClusterConfig {
        ClusterConfig {
            compute_nodes: nodes,
            threads_per_node: threads,
            memory_nodes: 2,
            n_records: 64,
            payload_size: 16,
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
        let encoded = encode_subtxn(&ops);
        assert_eq!(decode_subtxn(&encoded, 0), (ops.clone(), encoded.len()));
        let reads = vec![(1u64, vec![9u8; 16]), (2, vec![])];
        assert_eq!(decode_reads(&encode_reads(&reads)), reads);
        let alone = PrepareBody { epoch: 7, node: 3, trace: 99, ops: ops.clone(), images: vec![], shipped: vec![] };
        assert_eq!(decode_prepare(&encode_prepare(7, 3, 99, &ops)), alone);
        // A last agent's prepare: the coordinator's staged page and
        // shipped ops behind its own.
        let page = dsm::GlobalAddr::new(1, 4096);
        let mut body = encode_prepare(7, 3, 99, &ops[..1]);
        encode_shipment(&mut body, &[(page, &[5u8; 16])], &ops[1..]);
        let shipping = PrepareBody { ops: ops[..1].to_vec(), images: vec![(page, vec![5; 16])], shipped: ops[1..].to_vec(), ..alone };
        assert_eq!(decode_prepare(&body), shipping);
        let failed = Err(TxnError::NodeUnavailable { node: 9 });
        for applied in [Ok(()), failed, Err(TxnError::Aborted("transient-fault"))] {
            let (got, back) = decode_vote(&encode_vote(&applied, &reads));
            assert_eq!((format!("{got:?}"), back), (format!("{applied:?}"), reads.clone()));
        }
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

    /// A 3a config of `nodes` x `threads` whose exclusive 2PL takes leases.
    fn leased(nodes: usize, threads: usize) -> ClusterConfig {
        ClusterConfig {
            lease_ns: Some(2_000_000),
            ..config(Architecture::NoCacheNoShard, CcProtocol::TplExclusive, nodes, threads)
        }
    }

    /// Every 3a protocol on one session, leased exclusive 2PL included.
    fn every_3a_config() -> Vec<ClusterConfig> {
        let plain = [
            CcProtocol::TplExclusive,
            CcProtocol::TplSharedExclusive,
            CcProtocol::Occ,
            CcProtocol::Tso,
            CcProtocol::Mvcc,
        ];
        let plain = plain.map(|cc| config(Architecture::NoCacheNoShard, cc, 1, 1));
        plain.into_iter().chain([leased(1, 1)]).collect()
    }

    #[test]
    fn all_cc_protocols_run_on_3a() {
        for config in every_3a_config() {
            let cluster = Cluster::build(config).unwrap();
            let mut s = cluster.session(0, 0);
            s.execute_retrying(&[Op::Rmw { key: 2, delta: 3 }], 10).unwrap();
            let out = s.execute_retrying(&[Op::Read(2)], 10).unwrap();
            assert_eq!(counter(&out, 0), 3, "{:?} lease {:?}", config.cc, config.lease_ns);
        }
    }

    /// A counter at `i64::MAX` wraps to `i64::MIN` on `+1`, as a
    /// fetch-and-add on its word does, under every 3a protocol — also
    /// when two deltas of one key are summed before they apply.
    #[test]
    fn an_rmw_wraps_at_the_end_of_i64_on_3a() {
        let max = |key| Op::Update { key, value: [i64::MAX.to_le_bytes(), [0; 8]].concat() };
        for config in every_3a_config() {
            let cluster = Cluster::build(config).unwrap();
            let mut s = cluster.session(0, 0);
            s.execute_retrying(&[max(1)], 10).unwrap();
            s.execute_retrying(&[Op::Rmw { key: 1, delta: 1 }], 10).unwrap();
            let summed = [Op::Rmw { key: 2, delta: i64::MAX }, Op::Rmw { key: 2, delta: 1 }];
            s.execute_retrying(&summed, 10).unwrap();
            let out = s.execute_retrying(&[Op::Read(1), Op::Read(2)], 10).unwrap();
            assert_eq!([0, 1].map(|i| counter(&out, i)), [i64::MIN; 2], "{:?} lease {:?}", config.cc, config.lease_ns);
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
        let pool = &cluster.handler(0).unwrap().pool;
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
        assert_eq!(s.ep.try_recv(&s.reply).unwrap().payload, vec![0xAB]);
    }

    #[test]
    fn multi_master_bank_invariant_3a() {
        bank_run(Architecture::NoCacheNoShard, CcProtocol::Occ, 2, 2);
    }

    /// MVCC from the default config: the version count follows from `cc`.
    #[test]
    fn multi_master_bank_invariant_3a_mvcc() {
        bank_run_on(ClusterConfig { cc: CcProtocol::Mvcc, ..Default::default() });
    }

    #[test]
    fn multi_master_bank_invariant_3a_leased() {
        bank_run_on(leased(2, 2));
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
    fn multi_master_bank_invariant_3c() {
        bank_run(Architecture::CacheShard, CcProtocol::TplExclusive, 2, 1);
    }

    /// Three owners: a transfer between two shards neither of which is the
    /// coordinator's has a step-2 owner beside its last agent.
    #[test]
    fn multi_master_bank_invariant_3c_three_nodes() {
        bank_run(Architecture::CacheShard, CcProtocol::TplExclusive, 3, 1);
    }

    /// Two sessions per node share an 8-frame owner pool, so a transfer
    /// whose pages are resident rides its read's fetch while a sibling's
    /// misses evict beneath it.
    #[test]
    fn multi_master_bank_invariant_3c_two_sessions_small_cache() {
        bank_run_on(ClusterConfig {
            cache_frames: 8,
            ..config(Architecture::CacheShard, CcProtocol::TplExclusive, 2, 2)
        });
    }

    /// Two compute nodes, one session each and no other thread, and every
    /// transfer a cross-shard one whose other owner is the peer: each
    /// coordinator waits for a vote the other node's handler sends, so
    /// each must serve its own node's inbox while it waits
    /// ([`NodeHandler::wait_for`]). Without that serve the two wait for
    /// each other for good, and the bound fails.
    #[test]
    fn two_coordinators_that_wait_for_each_other_both_finish() {
        let config = config(Architecture::CacheShard, CcProtocol::TplExclusive, 2, 1);
        within(30, move || bank_run_with(config, own_and_peer));
    }

    /// Run `op` on a thread of its own; panic if it does not return
    /// within `secs` seconds.
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

    fn bank_run(arch: Architecture, cc: CcProtocol, nodes: usize, threads: usize) {
        bank_run_on(config(arch, cc, nodes, threads));
    }

    fn bank_run_on(config: ClusterConfig) {
        bank_run_with(config, any_two);
    }

    fn xorshift(rng: &mut u64) -> u64 {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng
    }

    /// Two distinct keys of the 64.
    fn any_two(_node: usize, rng: &mut u64) -> (u64, u64) {
        let a = xorshift(rng) % 64;
        let mut b = xorshift(rng) % 64;
        while b == a {
            b = xorshift(rng) % 64;
        }
        (a, b)
    }

    /// A key of node `node`'s shard and one of its peer's, on two nodes
    /// that own 32 keys each.
    fn own_and_peer(node: usize, rng: &mut u64) -> (u64, u64) {
        let own = 32 * node as u64;
        (own + xorshift(rng) % 32, (32 - own) + xorshift(rng) % 32)
    }

    /// The cross-architecture serializability smoke test: concurrent
    /// transfers between the two keys `pick` draws for a session's node,
    /// each reading a third key, must conserve total balance.
    fn bank_run_with(config: ClusterConfig, pick: fn(usize, &mut u64) -> (u64, u64)) {
        let (arch, cc) = (config.architecture, config.cc);
        let (nodes, threads) = (config.compute_nodes, config.threads_per_node);
        let cluster = Cluster::build(config).unwrap();
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
                        for _ in 0..150 {
                            let (a, b) = pick(n, &mut rng);
                            let ops = [
                                Op::Rmw { key: a, delta: -3 },
                                Op::Rmw { key: b, delta: 3 },
                                Op::Read(xorshift(&mut rng) % 64),
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
            let versions = cluster.table().versions();
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
    /// cross-shard transaction, its reply wait serves a peer's prepare for
    /// B's shard — on node 1's handler, not on B's endpoint. B's ring holds
    /// its own prepare and nothing of the served one, and what it folds is
    /// still what a filter over the whole ring gives. The peer is scripted:
    /// its `PrepareCommit` is already queued, addressed so that the vote
    /// the handler sends is the very reply B is waiting for (node 0 itself
    /// never runs).
    #[test]
    fn forensic_tail_leaves_a_prepare_served_by_the_nodes_handler_out() {
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
        // reply wait one per empty poll.
        for _ in 0..4 {
            script(vec![0xFF]);
        }
        let served = [Op::Rmw { key: 50, delta: 5 }];
        let prepare = encode_prepare(peer.epoch, 0, 0xBEEF, &served);
        script(encode_2pc(MsgKind::PrepareCommit, txn_id, &prepare));

        let (handler, before) = (cluster.handler(1).unwrap(), b.ep.stats());
        let ops = [Op::Rmw { key: 33, delta: -5 }, Op::Rmw { key: 1, delta: 5 }];
        let trace = execute_and_refold(&mut b, &mut reference, &ops, false);
        assert_eq!(b.stats().cross_shard, 1);
        // B sent its `PrepareCommit` and took the vote; the handler took
        // the five scripted messages and sent the vote.
        let (mine, served_by) = (b.ep.stats(), handler.stats());
        assert_eq!((mine.sends - before.sends, mine.recvs - before.recvs), (1, 1));
        assert_eq!((served_by.recvs, served_by.sends, cluster.owner_work(1).0), (5, 1, 1));
        // B's own prepare phase, and no other, under its trace.
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
        assert_eq!(prepares, 1);
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
            // The owner read the fence behind its page fetch, then alone
            // once the page was resident, and refused both times holding
            // nothing.
            assert_eq!(cluster.shard_residue(1), (0, 0));
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
    /// stops. Returns what each of those nodes' handlers did so far, node 1
    /// first: its verbs and the sub-transactions it served.
    fn with_owners<R>(
        cluster: &Arc<Cluster>,
        body: impl FnOnce(&mut Session) -> R,
    ) -> (R, Vec<(StatsSnapshot, u64)>) {
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|sc| {
            let owners: Vec<_> = (1..cluster.config.compute_nodes)
                .map(|n| {
                    let stop = &stop;
                    sc.spawn(move || {
                        let s = cluster.session(n, 0);
                        while !stop.load(Ordering::Acquire) {
                            if !s.serve_pending(16) {
                                std::thread::yield_now();
                            }
                        }
                        s.serve_pending(usize::MAX >> 1);
                        (cluster.handler(n).unwrap().stats(), cluster.owner_work(n).0)
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
    /// model's sum to the ns — pages missed or hit, with or without a local
    /// part. The coordinator posts no verb: the last agent reads its page
    /// that missed behind its own fetch and writes it in its own commit
    /// doorbell.
    #[test]
    fn one_remote_owner_is_two_messages_at_the_cost_the_model_gives() {
        use buffer::cost::{ATOMIC_NS, LOCK_NS, MAP_OP_NS};
        let p = NetworkProfile::rdma_cx6();
        let lock = 50; // one key, local lock table
        let miss = MAP_OP_NS + LOCK_NS + MAP_OP_NS + p.rw_cost_ns(64) + ATOMIC_NS;
        let hit = MAP_OP_NS + ATOMIC_NS; // CLOCK: latch-free
        let stage = MAP_OP_NS + LOCK_NS + ATOMIC_NS; // a resident frame takes a page
        let write_through = stage + p.rw_cost_ns(64);
        let install_missed = miss - p.rw_cost_ns(64); // a frame taken, nothing fetched
        // 9 B header; 24 B signature + one Rmw out (2 + 17 B); a shipment
        // adds its staged pages (2 + 74 B each) and its shipped ops (2 +
        // 17 B each). Back: 3 B outcome and the reads (2 + 74 B each).
        let prepare_commit = p.send_cost_ns(9 + 24 + 2 + 17);
        let shipping = p.send_cost_ns(9 + 24 + 2 + 17 + 2 + 2 + 17);
        let staging = p.send_cost_ns(9 + 24 + 2 + 17 + 2 + 74 + 2);
        let vote = |reads: usize| p.send_cost_ns(9 + 3 + 2 + 74 * reads);
        // Lock, page, epoch fence, write-through, all before the vote. The
        // fence READ rides a missed page's fetch as a batched member, and
        // so does the READ of the coordinator's page that missed; beside a
        // hit the fence goes alone. The coordinator's page rides the
        // owner's write-through as a batched member.
        let owner_missed = lock + miss + p.batched_cost_ns(8) + write_through;
        let owner_shipped = owner_missed + 2 * p.batched_cost_ns(64);
        let owner_hit = lock + hit + p.rw_cost_ns(8) + write_through + p.batched_cost_ns(64);

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
        let miss_miss = lock + shipping + owner_shipped + vote(2) + install_missed;
        let hit_hit = lock + hit + staging + owner_hit + vote(1) + stage;
        let remote_only = prepare_commit + owner_missed + vote(1);
        assert_eq!(costs, [(miss_miss, 1), (hit_hit, 1), (remote_only, 1)]);
        // 11 741 and 9 897 while the coordinator fetched its page before
        // the prepare and wrote it in a doorbell of its own after the vote.
        assert_eq!(costs.map(|c| c.0), [8_787, 8_450, 8_348]);
        let (net, served) = owners[0];
        assert_eq!((net.recvs, net.sends, served), (3, 3, 3));
        assert_eq!(cluster.shard_residue(1), (0, 0));
        assert_eq!([1, 40, 41].map(|k| stored(&cluster, k)), [-20, 20, 7]);
    }

    /// The memory verbs `ep`'s flight ring holds, one doorbell per entry:
    /// (kind, packed address) of each member, the leader first. On
    /// `rdma_cx6` only a leader pays a full round trip.
    fn doorbells(ep: &Endpoint) -> Vec<Vec<(rdma_sim::OpKind, u64)>> {
        use rdma_sim::OpKind;
        let round_trip = NetworkProfile::rdma_cx6().rt_latency_ns;
        let mut out: Vec<Vec<(OpKind, u64)>> = Vec::new();
        for e in ep.flight_events() {
            if let rdma_sim::EventKind::Verb(kind @ (OpKind::Read | OpKind::Write | OpKind::Cas | OpKind::Faa)) = e.kind {
                if e.dur_ns >= round_trip {
                    out.push(Vec::new());
                }
                out.last_mut().expect("a doorbell starts with its leader").push((kind, e.addr));
            }
        }
        out
    }

    /// `addr` packed as the flight recorder packs it.
    fn packed(addr: dsm::GlobalAddr) -> u64 {
        rdma_sim::recorder::pack_addr(addr.node(), addr.offset())
    }

    /// A transfer whose pages both miss: the coordinator sends its
    /// `PrepareCommit` and posts nothing else. The last agent reads its own
    /// page, the coordinator's epoch and the coordinator's page in one
    /// doorbell, then writes both pages in one more; the coordinator's page
    /// never enters its pool, and the coordinator's pool holds it after.
    #[test]
    fn a_coordinator_whose_pages_missed_posts_one_send_and_no_verb() {
        use rdma_sim::OpKind::{Read, Write};
        let cluster = shard_cluster(2);
        let addr = |key| cluster.table().payload_addr(key, 0);
        let handler = cluster.handler(1).unwrap();
        handler.with_endpoint(|ep| ep.enable_flight_recorder(64));
        let transfer = [Op::Rmw { key: 1, delta: -10 }, Op::Rmw { key: 40, delta: 10 }];
        let ((before, after, out), _) = with_owners(&cluster, |s0| {
            let before = s0.ep.stats();
            let out = s0.execute(&transfer).unwrap();
            (before, s0.ep.stats(), out)
        });
        let posted = [after.sends, after.reads, after.writes, after.cas, after.faa];
        let posted_before = [before.sends, before.reads, before.writes, before.cas, before.faa];
        assert_eq!(std::array::from_fn::<u64, 5, _>(|i| posted[i] - posted_before[i]), [1, 0, 0, 0, 0]);
        let fence = cluster.membership().epoch_addr(0);
        let expect = vec![
            vec![(Read, packed(addr(40))), (Read, packed(fence)), (Read, packed(addr(1)))],
            vec![(Write, packed(addr(40))), (Write, packed(addr(1)))],
        ];
        assert_eq!(handler.with_endpoint(doorbells), expect);
        assert!(!handler.pool.contains(addr(1)));
        let mut page = [0u8; 64];
        assert!(cluster.handler(0).unwrap().pool.read_resident(&cluster.fabric().endpoint(), addr(1), &mut page));
        assert_eq!(i64::from_le_bytes(page[0..8].try_into().unwrap()), -10);
        assert_eq!([1, 40].map(|k| stored(&cluster, k)), [-10, 10]);
        assert_eq!([0, 1].map(|i| counter(&out, i)), [0, 0]);
    }

    /// Three owners: node 1 is prepared in step 2 and commits on its
    /// decision, node 2 is the last agent and writes node 0's page in its
    /// own commit doorbell.
    #[test]
    fn a_three_owner_commit_writes_the_coordinators_page_in_the_last_agents_doorbell() {
        use rdma_sim::OpKind::Write;
        let cluster = shard_cluster(3);
        let addr = |key| cluster.table().payload_addr(key, 0);
        let last = cluster.handler(2).unwrap();
        last.with_endpoint(|ep| ep.enable_flight_recorder(64));
        let txn = [1, 40, 70].map(|key| Op::Rmw { key, delta: 1 });
        let ((out, sends), owners) = with_owners(&cluster, |s0| (s0.execute(&txn).unwrap(), s0.ep.stats().sends));
        // Prepare and Commit to node 1, PrepareCommit to node 2.
        assert_eq!(sends, 3);
        assert_eq!([owners[0].1, owners[1].1], [1, 1]);
        let commit = last.with_endpoint(doorbells).pop().unwrap();
        assert_eq!(commit, [(Write, packed(addr(70))), (Write, packed(addr(1)))]);
        assert_eq!([1, 40, 70].map(|k| stored(&cluster, k)), [1; 3]);
        assert_eq!(out.reads.iter().map(|r| r.0).collect::<Vec<_>>(), [1, 40, 70]);
        for n in 0..3 {
            assert_eq!(cluster.shard_residue(n), (0, 0), "node {n}");
        }
    }

    /// The last agent's commit doorbell does not land: its memory node is
    /// down from just after its fetch on. Neither its key nor the
    /// coordinator's changes, the coordinator keeps no frame of its page,
    /// and the transfer commits once the node is back. (While the
    /// coordinator wrote its part in a doorbell of its own after a yes, its
    /// key changed alone.)
    #[test]
    fn a_commit_doorbell_that_did_not_land_changes_neither_key() {
        use rdma_sim::FaultPlan;
        let cluster = shard_cluster(2);
        let addr = |key| cluster.table().payload_addr(key, 0);
        let local = 1;
        let remote = (32..64).find(|&k| addr(k).node() != addr(local).node()).unwrap();
        let down = addr(remote).node();
        let transfer = [Op::Rmw { key: local, delta: -1 }, Op::Rmw { key: remote, delta: 1 }];
        let pool = &cluster.handler(0).unwrap().pool;
        let (result, _) = with_owners(&cluster, |s0| {
            // The coordinator's page is resident, the last agent's not.
            s0.execute(&[Op::Read(local)]).unwrap();
            s0.ep.charge_local(1_000_000);
            // The prepare lands ~2.5 us on; the last agent's fetch leaves
            // ~0.1 us later and its commit doorbell ~1.9 us after that.
            let from = s0.ep.clock().now_ns() + 3_500;
            cluster.fabric().install_fault_plan(FaultPlan::new().crash(down, from, u64::MAX));
            let result = s0.execute(&transfer);
            cluster.fabric().clear_fault_plan();
            result
        });
        assert_eq!([local, remote].map(|k| stored(&cluster, k)), [0, 0]);
        let err = result.unwrap_err();
        assert!(matches!(err, TxnError::NodeUnavailable { node } if node == down), "{err}");
        assert!(!pool.contains(addr(local)));
        assert_eq!(cluster.owner_work(1), (1, 1));
        assert_eq!([0, 1].map(|n| cluster.shard_residue(n)), [(0, 0); 2]);
        with_owners(&cluster, |s0| s0.execute(&transfer)).0.unwrap();
        assert_eq!([local, remote].map(|k| stored(&cluster, k)), [-1, 1]);
    }

    /// The vote is stamped by node 1's handler, at the prepare's delivery
    /// plus the owner's work: a one-remote-owner transfer costs its
    /// coordinator the model's sum to the ns whether the owner's session
    /// runs 1 ms behind the coordinator or 1 ms ahead.
    #[test]
    fn a_vote_costs_the_same_whatever_the_owners_session_clock_reads() {
        let cluster = shard_cluster(2);
        let (mut s0, mut s1) = (cluster.session(0, 0), cluster.session(1, 0));
        s0.ep.charge_local(1_000_000);
        let mut costs = Vec::new();
        // Fresh keys each round, so both pages miss on both sides.
        for (local, remote, owner_ahead) in [(1, 40, false), (2, 41, true)] {
            let (now0, now1) = (s0.ep.clock().now_ns(), s1.ep.clock().now_ns());
            if owner_ahead {
                s1.ep.charge_local(now0 + 1_000_000 - now1);
            } else {
                assert!(now1 + 1_000_000 <= now0);
            }
            let transfer = [Op::Rmw { key: local, delta: -1 }, Op::Rmw { key: remote, delta: 1 }];
            let done = std::sync::atomic::AtomicBool::new(false);
            costs.push(std::thread::scope(|sc| {
                let (owner, done) = (&mut s1, &done);
                sc.spawn(move || {
                    while !done.load(Ordering::Acquire) {
                        if !owner.serve_pending(1) {
                            std::thread::yield_now();
                        }
                    }
                });
                let cost = cost_of(&mut s0, &transfer);
                done.store(true, Ordering::Release);
                cost
            }));
        }
        assert_eq!(costs, [(8_787, 1); 2]);
    }

    /// Node 1, prepared in step 2, votes no: node 2 — the last agent — is
    /// never asked, nothing is applied anywhere, every lock is free, and
    /// the coordinator's pool holds none of the bytes it staged.
    #[test]
    fn a_no_from_a_step_two_owner_sends_no_prepare_commit() {
        let cluster = shard_cluster(3);
        let txn = [1, 40, 70].map(|key| Op::Rmw { key, delta: 1 });
        // Key 1 is resident at the coordinator, so its write is staged.
        cluster.session(0, 0).execute(&[Op::Read(1)]).unwrap();
        cluster.handler(1).unwrap().locks.try_lock_all(&[40], 0xDEAD).unwrap();
        let ((err, sends), owners) =
            with_owners(&cluster, |s0| (s0.execute(&txn).unwrap_err(), s0.ep.stats().sends));
        assert!(matches!(err, TxnError::Aborted("remote-vote-no")), "{err}");
        // Prepare and Abort to node 1, which votes and acks.
        assert_eq!(sends, 2);
        assert_eq!((owners[0].0.recvs, owners[0].0.sends), (2, 2));
        assert_eq!((owners[1].0.recvs, owners[1].0.sends), (0, 0));
        cluster.handler(1).unwrap().locks.unlock_all(&[40]);
        for n in 0..3 {
            assert_eq!(cluster.shard_residue(n), (0, 0), "node {n}");
        }
        assert_eq!([1, 40, 70].map(|k| stored(&cluster, k)), [0; 3]);
        let mut page = [0u8; 64];
        let pool = &cluster.handler(0).unwrap().pool;
        assert!(pool.read_resident(&cluster.fabric().endpoint(), cluster.table().payload_addr(1, 0), &mut page));
        assert_eq!(page, [0; 64]);
    }

    /// The last agent is busy and votes no: node 1, prepared in step 2,
    /// gets `Abort`, keeps its value and frees its lock — the same
    /// transaction commits once the last agent's key is free.
    #[test]
    fn a_busy_last_agent_aborts_the_prepared_owners() {
        let cluster = shard_cluster(3);
        let txn = [1, 40, 70].map(|key| Op::Rmw { key, delta: 1 });
        cluster.handler(2).unwrap().locks.try_lock_all(&[70], 0xDEAD).unwrap();
        let ((err, sends), owners) =
            with_owners(&cluster, |s0| (s0.execute(&txn).unwrap_err(), s0.ep.stats().sends));
        assert!(matches!(err, TxnError::Aborted("remote-vote-no")), "{err}");
        // Prepare, PrepareCommit, Abort.
        assert_eq!(sends, 3);
        assert_eq!((owners[0].0.recvs, owners[0].0.sends, owners[0].1), (2, 2, 1));
        assert_eq!((owners[1].0.recvs, owners[1].0.sends, owners[1].1), (1, 1, 0));
        assert_eq!([0, 1, 2].map(|n| cluster.shard_residue(n)), [(0, 0), (0, 0), (1, 0)]);
        assert_eq!([1, 40, 70].map(|k| stored(&cluster, k)), [0; 3]);

        cluster.handler(2).unwrap().locks.unlock_all(&[70]);
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

    // A single-shard 3c transaction on `rdma_cx6`: node 0 owns every key.

    /// Execute `ops` on `s`: (virtual ns, wire round trips).
    fn round_trips_of(s: &mut Session, ops: &[Op]) -> (u64, u64) {
        let rts = s.ep.stats().wire_round_trips();
        let (ns, _) = cost_of(s, ops);
        (ns, s.ep.stats().wire_round_trips() - rts)
    }

    /// `[Rmw(a), Read(b)]`, `a` resident and `b` not: the write-through
    /// needs no fetched byte, so it rides `b`'s fetch — one wire round trip
    /// where there were two, and 1 450 ns less, since the WRITE pays
    /// `batched_cost_ns` as a member instead of `rw_cost_ns` as a leader.
    /// An `Rmw` of a page that missed rides too, as a fetch-and-add of its
    /// delta: `[Rmw(c)]` is one doorbell where it was two.
    #[test]
    fn a_write_that_needs_no_fetched_byte_rides_the_fetch() {
        use buffer::cost::{ATOMIC_NS, LOCK_NS, MAP_OP_NS};
        let p = NetworkProfile::rdma_cx6();
        let hit = MAP_OP_NS + ATOMIC_NS; // CLOCK: latch-free
        let reserve = MAP_OP_NS + LOCK_NS + MAP_OP_NS;
        let publish = ATOMIC_NS;
        let stage = MAP_OP_NS + LOCK_NS + ATOMIC_NS; // the write path's hit
        let cluster = shard_cluster(1);
        let mut s = cluster.session(0, 0);
        s.execute(&[Op::Read(1)]).unwrap();

        let two_doorbells = 2 * 50 + hit + reserve + p.rw_cost_ns(64) + publish + stage + p.rw_cost_ns(64);
        let riding = 2 * 50 + hit + reserve + p.rw_cost_ns(64) + p.batched_cost_ns(64) + publish + stage;
        assert_eq!(two_doorbells - riding, 1_450);
        let txn = [Op::Rmw { key: 1, delta: 5 }, Op::Read(2)];
        assert_eq!(round_trips_of(&mut s, &txn), (riding, 1));
        // The leader READ, the FAA riding behind it with its turn at the
        // memory node's atomic unit, and the publish; no `stage`, since the
        // written page's frame is the fetched one.
        let missed = 50 + reserve + p.rw_cost_ns(64) + p.batched_cost_ns(8) + p.atomic_unit_ns + publish;
        assert_eq!(round_trips_of(&mut s, &[Op::Rmw { key: 3, delta: 5 }]), (missed, 1));
        assert_eq!([1, 3].map(|k| stored(&cluster, k)), [5, 5]);
    }

    /// The `Rmw`s of one page that missed are one fetch-and-add of their
    /// summed deltas, and its reads come back in op order, each before
    /// or after the deltas ahead of it: DSM and the frame end at old + 5.
    #[test]
    fn the_rmws_of_a_fetched_page_ride_as_one_fetch_and_add() {
        let cluster = shard_cluster(1);
        let pool = &cluster.handler(0).unwrap().pool;
        let addr = cluster.table().payload_addr(3, 0);
        let ep = cluster.fabric().endpoint();
        cluster.layer().write(&ep, addr, &7i64.to_le_bytes()).unwrap();
        let mut s = cluster.session(0, 0);
        let before = s.ep.stats();
        let txn = [Op::Read(3), Op::Rmw { key: 3, delta: 2 }, Op::Read(3), Op::Rmw { key: 3, delta: 3 }];
        let out = s.execute(&txn).unwrap();
        let after = s.ep.stats();
        let posted = (after.reads - before.reads, after.faa - before.faa, after.writes - before.writes);
        assert_eq!((posted, after.wire_round_trips() - before.wire_round_trips()), ((1, 1, 0), 1));
        assert_eq!([0, 1, 2, 3].map(|i| counter(&out, i)), [7, 7, 9, 9]);
        let mut buf = [0u8; 64];
        assert!(pool.read_resident(&ep, addr, &mut buf));
        assert_eq!((i64::from_le_bytes(buf[0..8].try_into().unwrap()), stored(&cluster, 3)), (12, 12));
    }

    /// A counter at `i64::MAX` wraps on `+1` in 3c too: by the
    /// fetch-and-add on a page that missed, and back by `-1` on the frame
    /// that fetch left.
    #[test]
    fn an_rmw_wraps_at_the_end_of_i64_on_3c() {
        let cluster = shard_cluster(1);
        let addr = cluster.table().payload_addr(3, 0);
        cluster.layer().write(&cluster.fabric().endpoint(), addr, &i64::MAX.to_le_bytes()).unwrap();
        let mut s = cluster.session(0, 0);
        let out = s.execute(&[Op::Rmw { key: 3, delta: 1 }, Op::Read(3)]).unwrap();
        assert_eq!([0, 1].map(|i| counter(&out, i)), [i64::MAX, i64::MIN]);
        assert_eq!(stored(&cluster, 3), i64::MIN);
        let out = s.execute(&[Op::Rmw { key: 3, delta: -1 }, Op::Read(3)]).unwrap();
        assert_eq!([0, 1].map(|i| counter(&out, i)), [i64::MIN, i64::MAX]);
        assert_eq!(stored(&cluster, 3), i64::MAX);
    }

    /// A page that missed and is overwritten needs the fetch to land
    /// before the write can leave: two doorbells.
    #[test]
    fn an_update_of_a_fetched_page_waits_for_the_fetch() {
        let cluster = shard_cluster(1);
        let mut s = cluster.session(0, 0);
        let txn = [Op::Read(3), Op::Update { key: 3, value: 9i64.to_le_bytes().repeat(8) }];
        assert_eq!(round_trips_of(&mut s, &txn).1, 2);
        assert_eq!(stored(&cluster, 3), 9);
    }

    /// A riding transaction runs its ops before the fetch lands, yet its
    /// reads come back in op order: the missed page's from the fetch, the
    /// written page's before and after its delta.
    #[test]
    fn a_riding_write_returns_the_reads_in_op_order() {
        let cluster = shard_cluster(1);
        let mut s = cluster.session(0, 0);
        s.execute(&[Op::Rmw { key: 1, delta: 5 }]).unwrap();
        let ep = cluster.fabric().endpoint();
        cluster.layer().write(&ep, cluster.table().payload_addr(2, 0), &7i64.to_le_bytes()).unwrap();
        let txn = [Op::Read(2), Op::Rmw { key: 1, delta: 3 }, Op::Read(1)];
        let rts = s.ep.stats().wire_round_trips();
        let out = s.execute(&txn).unwrap();
        assert_eq!(s.ep.stats().wire_round_trips() - rts, 1);
        assert_eq!(out.reads.iter().map(|r| r.0).collect::<Vec<_>>(), [2, 1, 1]);
        assert_eq!([0, 1, 2].map(|i| counter(&out, i)), [7, 5, 8]);
        assert_eq!(stored(&cluster, 1), 8);
    }

    /// A write-through that fails — alone, riding a fetch, or as a
    /// fetch-and-add on the page being fetched — leaves no frame holding
    /// its bytes and no frame reserved, so the retry starts from DSM and
    /// applies its delta once: DSM and the cache both hold old + δ, where
    /// a kept frame made it old + 2δ.
    #[test]
    fn a_failed_write_through_is_retried_from_dsm() {
        use dsm::RetryPolicy;
        use rdma_sim::FaultPlan;
        let cluster = shard_cluster(1);
        let pool = &cluster.handler(0).unwrap().pool;
        let addr = |key| cluster.table().payload_addr(key, 0);
        let cached = |key| {
            let mut buf = [0u8; 64];
            assert!(pool.read_resident(&cluster.fabric().endpoint(), addr(key), &mut buf));
            i64::from_le_bytes(buf[0..8].try_into().unwrap())
        };
        let mut s = cluster.session(0, 0);
        s.execute(&[Op::Rmw { key: 1, delta: 5 }]).unwrap();
        cluster.layer().set_retry_policy(RetryPolicy::none());
        cluster.layer().write(&cluster.fabric().endpoint(), addr(3), &7i64.to_le_bytes()).unwrap();
        let alone = vec![Op::Rmw { key: 1, delta: 10 }];
        let riding = vec![Op::Rmw { key: 1, delta: 10 }, Op::Read(2)];
        let adding = vec![Op::Rmw { key: 3, delta: 10 }];
        for txn in [alone, riding, adding] {
            let key = txn[0].key();
            let (old, resident, was_cached) = (stored(&cluster, key), pool.resident(), pool.contains(addr(key)));
            if was_cached {
                assert_eq!(cached(key), old);
            }
            cluster.fabric().install_fault_plan(FaultPlan::new().transient_first_n(addr(key).node(), 1));
            let err = s.execute(&txn).unwrap_err();
            assert!(matches!(err, TxnError::Aborted("transient-fault")), "{err}");
            assert!(txn.iter().all(|op| !pool.contains(addr(op.key()))));
            assert_eq!(pool.resident(), resident - usize::from(was_cached));
            cluster.fabric().clear_fault_plan();
            assert_eq!(stored(&cluster, key), old);
            s.execute(&txn).unwrap();
            assert_eq!((stored(&cluster, key), cached(key)), (old + 10, old + 10));
        }
    }
}
