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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use buffer::{BufferPool, ClockPolicy, WriteMode};
use dsm::{DsmConfig, DsmLayer};
use rdma_sim::{Endpoint, Fabric, HistSnapshot, Mailbox, MailboxId, Metric, Phase, PhaseSnapshot};
use telemetry::Histogram;
use txn::table::RecordTable;
use txn::twopc::{decode as decode_2pc, encode as encode_2pc, MsgKind, TwoPcMsg};
use txn::{
    AbortCause, ConcurrencyControl, DirectIo, FaaOracle, LeasedTpl, Mvcc, Occ, Op, PayloadIo,
    TwoPhaseLocking, Tso, TxnError, TxnOutput,
};

use crate::coherence::{node_inbox_id, session_inbox_id, CoherentIo};
use crate::config::{Architecture, CcProtocol, ClusterConfig};
use crate::membership::Membership;
use crate::node::{decode_reads, encode_prepare, key_set, NodeHandler, PageArena};
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
                weak_cpu_factor: 4.0,
            },
        );
        let table = Arc::new(
            RecordTable::create(&layer, config.n_records, config.payload_size, config.versions)
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
                WriteMode::WriteThrough,
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
        let handler = self.nodes[node].clone();
        let io: Box<dyn PayloadIo> = match self.config.architecture {
            Architecture::NoCacheNoShard | Architecture::CacheShard => Box::new(DirectIo),
            Architecture::CacheNoShard(mode) => Box::new(CoherentIo {
                handler: handler.clone().expect("3b handler"),
                mode,
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

/// A per-worker-thread handle for executing transactions.
pub struct Session {
    cluster: Arc<Cluster>,
    node: usize,
    /// This node's handler (none in 3a).
    handler: Option<Arc<NodeHandler>>,
    ep: Endpoint,
    reply: Arc<Mailbox>,
    reply_id: MailboxId,
    cc: Option<Box<dyn ConcurrencyControl>>,
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
        let node = self.handler.as_ref().expect("3c handler");
        let keys = key_set(ops);
        node.lock(&self.ep, &keys, self.ep.trace_id())?;
        let result = node.exec_write(&self.ep, &mut self.arena, ops);
        node.locks.unlock_all(&keys);
        result
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
        let node = self.handler.clone().expect("3c handler");
        let txn_id = self.cluster.txn_ids.fetch_add(1, Ordering::Relaxed);

        // Step 1: prepare the local part; the session's arena holds its
        // staged writes until the decision.
        let local_keys = key_set(local_ops);
        node.lock(&self.ep, &local_keys, self.ep.trace_id())?;
        let mut out = match node.exec(&self.ep, &mut self.arena, local_ops) {
            Ok(out) => out,
            Err(e) => {
                node.locks.unlock_all(&local_keys);
                return Err(e);
            }
        };

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
        drop(prepare);

        // Step 5: apply the decision here, then tell the owners of step 2.
        let _decide = self.ep.span(Phase::TwoPcDecide);
        let (decision, applied) = match refused {
            None => (MsgKind::Commit, node.write_back(&self.ep, &self.arena)),
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
    fn wait_reply(&self, txn_id: u64) -> TwoPcMsg {
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

    /// Serve up to `budget` pending messages addressed to this node —
    /// coherence requests in 3b, 2PC participant work in 3c — on the
    /// node's handler. Returns whether anything was served. Workers call
    /// this between transactions; waiters call it in their poll loops.
    pub fn serve_pending(&self, budget: usize) -> bool {
        self.handler.as_ref().is_some_and(|h| h.serve(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoherenceMode;
    use crate::node::{decode_prepare, decode_subtxn, encode_reads, encode_subtxn};
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

    fn bank_run(arch: Architecture, cc: CcProtocol, nodes: usize, threads: usize) {
        bank_run_on(config(arch, cc, nodes, threads));
    }

    /// The cross-architecture serializability smoke test: concurrent
    /// transfers, each reading a third key, must conserve total balance.
    fn bank_run_on(config: ClusterConfig) {
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
                                Op::Read(rand() % 64),
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
        // reply wait two per empty poll.
        for _ in 0..4 {
            script(vec![0xFF]);
        }
        let served = [Op::Rmw { key: 50, delta: 5 }];
        let prepare = encode_prepare(peer.epoch, 0, 0xBEEF, &served);
        script(encode_2pc(MsgKind::PrepareCommit, txn_id, &prepare));
        script(vec![0xFF]);

        let (handler, before) = (cluster.handler(1).unwrap(), b.ep.stats());
        let ops = [Op::Rmw { key: 33, delta: -5 }, Op::Rmw { key: 1, delta: 5 }];
        let trace = execute_and_refold(&mut b, &mut reference, &ops, false);
        assert_eq!(b.stats().cross_shard, 1);
        // B sent its `PrepareCommit` and took the vote; the handler took
        // the six scripted messages and sent the vote.
        let (mine, served_by) = (b.ep.stats(), handler.stats());
        assert_eq!((mine.sends - before.sends, mine.recvs - before.recvs), (1, 1));
        assert_eq!((served_by.recvs, served_by.sends, cluster.owner_work(1).0), (6, 1, 1));
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
        // Lock, page, epoch fence, write-through, all before the vote. The
        // fence READ rides a missed page's fetch as a batched member
        // (150 ns where alone it paid 1 600: 1 450 less); beside a hit it
        // goes alone.
        let owner_missed = lock + miss + p.batched_cost_ns(8) + write_through;
        let owner_hit = lock + hit + p.rw_cost_ns(8) + write_through;

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
        let miss_miss = lock + miss + prepare_commit + owner_missed + vote + write_through;
        let hit_hit = lock + hit + prepare_commit + owner_hit + vote + write_through;
        let shipped = prepare_commit + owner_missed + vote;
        assert_eq!(costs, [(miss_miss, 1), (hit_hit, 1), (shipped, 1)]);
        // 13 191, 9 897 and 9 798 while the fence was always read alone.
        assert_eq!(costs.map(|c| c.0), [11_741, 9_897, 8_348]);
        let (net, served) = owners[0];
        assert_eq!((net.recvs, net.sends, served), (3, 3, 3));
        assert_eq!(cluster.shard_residue(1), (0, 0));
        assert_eq!([1, 40, 41].map(|k| stored(&cluster, k)), [-20, 20, 7]);
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
        assert_eq!(costs, [(11_741, 1); 2]);
    }

    /// Node 1, prepared in step 2, votes no: node 2 — the last agent — is
    /// never asked, nothing is applied anywhere, every lock is free.
    #[test]
    fn a_no_from_a_step_two_owner_sends_no_prepare_commit() {
        let cluster = shard_cluster(3);
        let txn = [1, 40, 70].map(|key| Op::Rmw { key, delta: 1 });
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
    /// A write to a page that missed needs that page: `[Rmw(c)]` is still
    /// two doorbells at the cost it had.
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
        let missed = 50 + reserve + p.rw_cost_ns(64) + publish + stage + p.rw_cost_ns(64);
        assert_eq!(round_trips_of(&mut s, &[Op::Rmw { key: 3, delta: 5 }]), (missed, 2));
        assert_eq!([1, 3].map(|k| stored(&cluster, k)), [5, 5]);
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

    /// A write-through that fails — alone, or riding a fetch — leaves no
    /// frame holding its bytes and no frame reserved, so the retry starts
    /// from DSM and applies its delta once: DSM and the cache both hold
    /// old + δ, where a kept frame made it old + 2δ.
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
        let alone = vec![Op::Rmw { key: 1, delta: 10 }];
        let riding = vec![Op::Rmw { key: 1, delta: 10 }, Op::Read(2)];
        for txn in [alone, riding] {
            let (old, resident) = (stored(&cluster, 1), pool.resident());
            assert_eq!(cached(1), old);
            cluster.fabric().install_fault_plan(FaultPlan::new(7).transient_first_n(addr(1).node(), 1));
            let err = s.execute(&txn).unwrap_err();
            assert!(matches!(err, TxnError::Aborted("transient-fault")), "{err}");
            assert!(!pool.contains(addr(1)) && !pool.contains(addr(2)));
            assert_eq!(pool.resident(), resident - 1);
            cluster.fabric().clear_fault_plan();
            assert_eq!(stored(&cluster, 1), old);
            s.execute(&txn).unwrap();
            assert_eq!((stored(&cluster, 1), cached(1)), (old + 10, old + 10));
        }
    }
}
