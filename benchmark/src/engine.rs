//! The five engine workloads: closed-loop sessions driving
//! `dsmdb::Session::execute` on the three Figure-3 architectures.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dsmdb::{
    Architecture, CcProtocol, Cluster, ClusterConfig, CoherenceMode, Op, Session, SessionStats,
    TxnError,
};
use rdma_sim::{Endpoint, NetworkProfile};
use txn::ExclusiveLock;

use crate::driver::{drive, enable_endpoint_planes, Mode, Plan, Rep, SessionRun, Sut};
use crate::estimate::SLICES;
use crate::ops::{Mix, OpGen, Slice, StreamHash, GHOST_EVERY};

/// Attempts a logical txn gets before it counts as failed.
pub const MAX_ATTEMPTS: u32 = 16;
/// Forensics reservoir depth of the `observed` mode (`bench`'s default).
const EXEMPLARS: usize = 8;
/// Lock tag of the ghost holder (no session uses it).
const GHOST_TAG: u64 = 0xFFFF;
/// Keys a read-back txn covers.
const CHECK_KEYS_PER_TXN: u64 = 16;

/// One engine workload.
pub struct EngineSpec {
    pub name: &'static str,
    /// Stream id mixed into the generator seed.
    pub id: u64,
    pub config: ClusterConfig,
    pub mix: Mix,
    /// Timed txns per session in a bare repetition, per second of
    /// `--seconds` (sized on the reference host so a run spends about
    /// `--seconds` executing txns).
    pub txns_per_second: usize,
}

fn cluster_3c(nodes: usize, payload: usize, frames: usize) -> ClusterConfig {
    ClusterConfig {
        compute_nodes: nodes,
        threads_per_node: 1,
        memory_nodes: 2,
        n_records: 65_536,
        payload_size: payload,
        cache_frames: frames,
        profile: NetworkProfile::rdma_cx6(),
        architecture: Architecture::CacheShard,
        cc: CcProtocol::TplExclusive,
        ..Default::default()
    }
}

/// The five engine workloads.
pub fn specs() -> Vec<EngineSpec> {
    vec![
        EngineSpec {
            name: "fit_read",
            id: 1,
            config: cluster_3c(1, 256, 32_768),
            mix: Mix::Zipf {
                theta: 0.99,
                ops: 16,
                read_pct: 95,
            },
            txns_per_second: 12_600,
        },
        EngineSpec {
            name: "thrash_mix",
            id: 2,
            config: cluster_3c(1, 256, 1_310),
            mix: Mix::Uniform {
                ops: 16,
                read_pct: 50,
            },
            txns_per_second: 5_000,
        },
        EngineSpec {
            name: "direct_rmw",
            id: 3,
            config: ClusterConfig {
                compute_nodes: 1,
                threads_per_node: 1,
                memory_nodes: 4,
                replication: 2,
                n_records: 65_536,
                payload_size: 64,
                profile: NetworkProfile::rdma_cx6(),
                architecture: Architecture::NoCacheNoShard,
                cc: CcProtocol::TplExclusive,
                ..Default::default()
            },
            mix: Mix::DistinctRmwGhost {
                min_ops: 3,
                max_ops: 5,
            },
            txns_per_second: 15_000,
        },
        EngineSpec {
            name: "xshard_2pc",
            id: 4,
            config: cluster_3c(2, 64, 16_384),
            mix: Mix::Transfer { cross_pct: 10 },
            txns_per_second: 10_800,
        },
        EngineSpec {
            name: "coherent_rw",
            id: 5,
            config: ClusterConfig {
                architecture: Architecture::CacheNoShard(CoherenceMode::Invalidate),
                ..cluster_3c(2, 64, 16_384)
            },
            mix: Mix::Zipf {
                theta: 0.9,
                ops: 1,
                read_pct: 80,
            },
            txns_per_second: 18_000,
        },
    ]
}

/// The engine workload called `name`.
pub fn spec(name: &str) -> Option<EngineSpec> {
    specs().into_iter().find(|s| s.name == name)
}

/// Txns per slice for `--seconds`: a multiple of [`GHOST_EVERY`], so the
/// ghost share is exact in every slice.
pub fn slice_len(txns_per_second: usize, seconds: u64) -> usize {
    let per_slice = txns_per_second * seconds as usize / SLICES;
    (per_slice / GHOST_EVERY).max(1) * GHOST_EVERY
}

/// One session plus the ghost that pre-acquires lock words for it.
struct EngineSut<'a> {
    session: Session,
    ghost_ep: Endpoint,
    cluster: Arc<Cluster>,
    node: usize,
    turn: &'a AtomicUsize,
}

impl Sut for EngineSut<'_> {
    fn endpoint(&self) -> &Endpoint {
        self.session.endpoint()
    }
    fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Sessions of one cluster run their logical txns strictly in turn
    /// (node 0, node 1, node 0, ...), each on its own OS thread; while it
    /// waits a session only answers its peers' messages. Message order —
    /// and with it every virtual clock — then depends on the input alone,
    /// not on how the OS schedules the threads, so the 2PC and coherence
    /// workloads repeat exactly like the one-session ones. What is given
    /// up is conflicts that need two txns in flight at once; ROADMAP
    /// direction A brings those back deterministically.
    fn await_turn(&mut self) {
        let sessions = self.cluster.config().compute_nodes;
        let mut idle = 0u32;
        while self.turn.load(Ordering::Acquire) % sessions != self.node {
            if self.session.serve_pending(16) {
                idle = 0;
            } else {
                idle += 1;
                if idle.is_multiple_of(256) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    fn pass_turn(&mut self) {
        self.turn.fetch_add(1, Ordering::Release);
    }
}

impl EngineSut<'_> {
    /// Run one logical txn, retrying aborts; `ghost_key`'s lock word is
    /// held by the ghost until the txn's first abort. Returns whether it
    /// committed with a complete result.
    fn run_txn(&mut self, ops: &[Op], ghost_key: Option<u64>) -> bool {
        let layer = self.cluster.layer();
        let serve_peers = self.cluster.config().compute_nodes > 1;
        let mut held = ghost_key.map(|key| {
            let lock = self.cluster.table().lock_addr(key);
            ExclusiveLock::acquire(layer, &self.ghost_ep, lock, GHOST_TAG, 0)
                .expect("ghost finds the word free");
            lock
        });
        let mut committed = false;
        for _ in 0..MAX_ATTEMPTS {
            match self.session.execute(ops) {
                Ok(out) => {
                    // Every op of every mix is a Read or an Rmw.
                    committed = out.reads.len() == ops.len();
                    break;
                }
                Err(TxnError::Aborted(_)) => {
                    if let Some(lock) = held.take() {
                        ExclusiveLock::release(layer, &self.ghost_ep, lock).expect("ghost release");
                    }
                    if serve_peers {
                        self.session.serve_pending(8);
                        std::thread::yield_now();
                    }
                }
                Err(_) => break,
            }
        }
        if let Some(lock) = held {
            // The victim never met the ghost, so the lock-wait path this
            // txn exists for was not taken.
            ExclusiveLock::release(layer, &self.ghost_ep, lock).expect("ghost release");
            committed = false;
        }
        committed
    }
}

/// What a session's generator accumulated beside the ops themselves.
struct Generated {
    expected: Vec<i64>,
    hash: StreamHash,
    gen_ns: u64,
    write_ops: u64,
}

/// Shared state of one repetition's sessions.
struct Fleet<'a> {
    cluster: &'a Arc<Cluster>,
    spec: &'a EngineSpec,
    mode: Mode,
    seed: u64,
    slice_len: usize,
    epoch: Instant,
    /// Logical txns completed by all sessions; see [`EngineSut::await_turn`].
    turn: AtomicUsize,
}

impl Fleet<'_> {
    fn run_session(&self, node: usize) -> (SessionRun, Generated) {
        let sessions = self.spec.config.compute_nodes;
        let gen = OpGen::new(
            self.spec.mix,
            self.seed,
            self.spec.id,
            node,
            sessions,
            self.spec.config.n_records,
        );
        let mut made = Generated {
            expected: vec![0; self.spec.config.n_records as usize],
            hash: StreamHash::default(),
            gen_ns: 0,
            write_ops: 0,
        };
        let mut sut = EngineSut {
            session: self.cluster.session(node, 0),
            ghost_ep: self.cluster.fabric().endpoint(),
            cluster: self.cluster.clone(),
            node,
            turn: &self.turn,
        };
        if self.mode != Mode::Bare {
            enable_endpoint_planes(sut.session.endpoint(), node as u64 + 1);
            sut.session.enable_forensics(EXEMPLARS);
        }
        let mut slice_at = |idx: usize| {
            let t = Instant::now();
            let slice = gen.slice(idx, self.slice_len, &mut made.expected);
            made.gen_ns += t.elapsed().as_nanos() as u64;
            made.hash.slice(&slice);
            if idx >= 1 {
                made.write_ops += slice.ops.iter().filter(|o| o.is_write()).count() as u64;
            }
            slice
        };
        // Two sessions answer each other's messages, so neither may stall
        // generating input while its peer waits: they generate everything
        // up front. One session generates slice by slice, which keeps the
        // resident set small.
        let mut ready: Vec<Slice> = if sessions > 1 {
            (0..=self.mode.slices()).rev().map(&mut slice_at).collect()
        } else {
            Vec::new()
        };
        let plan = Plan {
            mode: self.mode,
            slice_len: self.slice_len,
            epoch: self.epoch,
            worker: node as u64 + 1,
        };
        let run = drive(
            &mut sut,
            &plan,
            |_, idx| ready.pop().unwrap_or_else(|| slice_at(idx)),
            |sut, slice: &Slice, i| sut.run_txn(slice.txn(i), slice.ghost_key(i)),
        );
        // Peers still have txns to run: keep answering them.
        let total = sessions * (self.mode.slices() + 1) * self.slice_len;
        while self.turn.load(Ordering::Acquire) < total {
            if !sut.session.serve_pending(16) {
                std::thread::yield_now();
            }
        }
        (run, made)
    }
}

/// Read every record back through fresh sessions (each node reads the
/// range it owns, so no peer has to answer) and count the records whose
/// counter differs from `expected`.
fn check_records(cluster: &Arc<Cluster>, expected: &[i64]) -> u64 {
    let n_records = cluster.config().n_records;
    let nodes = cluster.config().compute_nodes as u64;
    let per_node = n_records / nodes;
    let mut mismatches = 0;
    for node in 0..nodes {
        let mut s = cluster.session(node as usize, 0);
        let mut key = node * per_node;
        let end = if node + 1 == nodes {
            n_records
        } else {
            key + per_node
        };
        while key < end {
            let ops: Vec<Op> = (key..end.min(key + CHECK_KEYS_PER_TXN))
                .map(Op::Read)
                .collect();
            match s.execute_retrying(&ops, MAX_ATTEMPTS) {
                Ok(out) => {
                    mismatches += (ops.len() - out.reads.len()) as u64;
                    for (k, payload) in &out.reads {
                        let got =
                            i64::from_le_bytes(payload[0..8].try_into().expect("8-byte counter"));
                        mismatches += u64::from(got != expected[*k as usize]);
                    }
                }
                Err(_) => mismatches += ops.len() as u64,
            }
            key += ops.len() as u64;
        }
    }
    mismatches
}

/// WRITE verbs one `DsmLayer::write` costs on this cluster's layer (the
/// replica fan-out), measured on a scratch allocation.
fn write_fanout(cluster: &Cluster) -> f64 {
    let layer = cluster.layer();
    let ep = cluster.fabric().endpoint();
    let addr = layer.alloc(8).expect("scratch word");
    layer.write_u64(&ep, addr, 1).expect("scratch write");
    layer.free(addr).expect("scratch free");
    ep.stats().writes as f64
}

/// Run one repetition of `spec` in `mode`.
pub fn run_rep(spec: &EngineSpec, mode: Mode, seed: u64, seconds: u64) -> Rep {
    let t_setup = Instant::now();
    let cluster = Cluster::build(spec.config).expect("cluster fits its memory nodes");
    let setup_s = t_setup.elapsed().as_secs_f64();
    let user_bytes = spec.config.n_records * spec.config.payload_size as u64;
    let alloc_bytes_per_user_byte =
        cluster.layer().pool_stats().allocated as f64 / user_bytes as f64;
    let sessions = spec.config.compute_nodes;
    let fleet = Fleet {
        cluster: &cluster,
        spec,
        mode,
        seed,
        slice_len: slice_len(spec.txns_per_second, seconds),
        epoch: Instant::now(),
        turn: AtomicUsize::new(0),
    };
    let results: Vec<(SessionRun, Generated)> = if sessions == 1 {
        vec![fleet.run_session(0)]
    } else {
        std::thread::scope(|sc| {
            let fleet = &fleet;
            let handles: Vec<_> = (0..sessions)
                .map(|n| sc.spawn(move || fleet.run_session(n)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread"))
                .collect()
        })
    };
    let (runs, made): (Vec<SessionRun>, Vec<Generated>) = results.into_iter().unzip();
    let mut rep = Rep::merge(mode, setup_s, runs);
    let mut expected = vec![0i64; spec.config.n_records as usize];
    let mut gen_ns = 0;
    for m in &made {
        for (e, d) in expected.iter_mut().zip(&m.expected) {
            *e += d;
        }
        gen_ns += m.gen_ns;
        rep.write_ops += m.write_ops;
        rep.hash.combine(m.hash);
    }
    rep.gen_ns_per_txn = gen_ns as f64 / rep.attempted as f64;
    rep.write_fanout = write_fanout(&cluster);
    rep.alloc_bytes_per_user_byte = alloc_bytes_per_user_byte;
    rep.mismatches = check_records(&cluster, &expected);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> EngineSpec {
        super::spec(name).expect("known workload")
    }

    #[test]
    fn ghost_holder_aborts_exactly_once_then_commits() {
        let spec = spec("direct_rmw");
        let rep = run_rep(&spec, Mode::Observed, 42, 1);
        let timed = (slice_len(spec.txns_per_second, 1) * Mode::Observed.slices()) as u64;
        assert_eq!(rep.timed_txns, timed);
        assert_eq!(rep.failures(), 0);
        // Every ghosted txn aborted once (lock-busy) and then committed.
        assert_eq!(rep.counters.commits, timed);
        assert_eq!(rep.counters.aborts, timed / GHOST_EVERY as u64);
        // The bounded CAS ladder failed four times per ghosted txn.
        assert_eq!(rep.counters.cas_failures, 4 * rep.counters.aborts);
        assert_eq!(rep.write_fanout, 2.0);
    }

    #[test]
    fn sim_numbers_repeat_exactly_and_planes_cost_no_virtual_time() {
        let spec = spec("thrash_mix");
        let bare = run_rep(&spec, Mode::Bare, 7, 1);
        let again = run_rep(&spec, Mode::Bare, 7, 1);
        let observed = run_rep(&spec, Mode::Observed, 7, 1);
        assert_eq!(bare.latencies, again.latencies);
        assert_eq!(bare.hash, again.hash);
        assert_eq!(bare.counters.clock_ns, again.counters.clock_ns);
        assert_eq!(bare.half_clock_ns, observed.half_clock_ns);
        assert_eq!(bare.failures(), 0);
        assert_ne!(run_rep(&spec, Mode::Bare, 8, 1).hash, bare.hash);
    }

    #[test]
    fn two_session_workloads_pass_their_checks() {
        for name in ["xshard_2pc", "coherent_rw"] {
            let rep = run_rep(&spec(name), Mode::Observed, 3, 1);
            assert_eq!(rep.failures(), 0, "{name}");
            assert_eq!(rep.half_clock_ns.len(), 2);
        }
    }
}
