//! The layer ladder: the same one-`Rmw` operation and the same fixed
//! shapes issued at every layer boundary, single thread, slice-q1
//! estimator per rung.
//!
//! `Session::execute` (3a) -> `TwoPhaseLocking` / `Occ` over `TxnCtx` +
//! `DirectIo` -> `ExclusiveLock`, `DsmLayer::{cas, read, write, write_u64,
//! read_batch}` -> `Endpoint::{cas, read, write, write_batch, read_batch,
//! send/try_recv}`, plus `BufferPool::read_page` hit and miss,
//! `DsmLayer::alloc/free` and the four index calls. Each rung's self time
//! is its cost minus the lower rungs it is known to call; the engine
//! rungs run on the `direct_rmw` cluster so every shape (64 B payloads,
//! two replicas) is the one that workload pays for.

use std::hint::black_box;
use std::time::Instant;

use buffer::{BufferPool, ClockPolicy, WriteMode};
use dsm::{DsmConfig, DsmLayer, GlobalAddr};
use dsmdb::{Cluster, Op};
use index::{RaceHash, RemoteBTree};
use rdma_sim::{Fabric, NetworkProfile, StatsSnapshot};
use txn::{ConcurrencyControl, DirectIo, ExclusiveLock, Occ, TwoPhaseLocking, TxnCtx};

use crate::engine::EngineSpec;
use crate::estimate::{slice_q1, SLICES};
use crate::spans::rung_self_ns;

/// Calls per rung, per second of `--seconds` (200 000 at the default 6).
const CALLS_PER_SECOND: usize = 33_334;
/// Keys loaded into each index before its rungs run.
const INDEX_KEYS: u64 = 16_384;
/// RACE inserts split buckets and re-read the directory, so their cost
/// grows with the table; the rung runs this fraction of the calls.
const RACE_PUT_SHARE: usize = 20;

/// Host ns per call of `f`, slice-q1 over [`SLICES`] equal slices.
fn measure(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_slice = (calls / SLICES).max(1);
    let mut costs = Vec::with_capacity(SLICES);
    for s in 0..SLICES {
        let t = Instant::now();
        for i in 0..per_slice {
            f(s * per_slice + i);
        }
        costs.push(t.elapsed().as_nanos() as f64 / per_slice as f64);
    }
    slice_q1(&costs)
}

/// One measured rung: its cost per call and the lower rungs it calls.
pub struct Rung {
    pub name: &'static str,
    pub ns: f64,
    /// `(calls, lower rung)`.
    pub children: Vec<(f64, &'static str)>,
}

/// Every rung, in bottom-up order, plus what one `Session::execute` of
/// one `Rmw` actually issued.
pub struct Ladder {
    pub rungs: Vec<Rung>,
    /// Verb counts of one `Session::execute(&[Rmw])`, from the session's
    /// own counters.
    pub session_verbs: StatsSnapshot,
}

impl Ladder {
    pub fn ns(&self, name: &str) -> f64 {
        self.rungs
            .iter()
            .find(|r| r.name == name)
            .map_or(f64::NAN, |r| r.ns)
    }

    /// A rung's cost minus the lower rungs it is known to call.
    pub fn self_ns(&self, name: &str) -> f64 {
        let rung = self
            .rungs
            .iter()
            .find(|r| r.name == name)
            .expect("known rung");
        let kids: Vec<(f64, f64)> = rung
            .children
            .iter()
            .map(|(calls, c)| (*calls, self.ns(c)))
            .collect();
        rung_self_ns(rung.ns, &kids)
    }

    /// What the ladder cannot place: `Session::execute` minus every
    /// rung's self time on its call path minus the endpoint verbs the
    /// session *counted* (priced at the endpoint rungs). It is zero when
    /// the call tree above is complete; verbs the tree does not know
    /// about show up here instead of inflating some rung's self time.
    pub fn unattributed_ns(&self) -> f64 {
        let v = &self.session_verbs;
        let selves: f64 = [
            "dsmdb.execute_rmw",
            "txn.2pl_rmw",
            "txn.lock_acq_rel",
            "dsm.cas",
            "dsm.read_64B",
            "dsm.write_64B_r2",
            "dsm.write_u64_r2",
        ]
        .iter()
        .map(|r| self.self_ns(r))
        .sum();
        // Writes leave in doorbell groups of `replication` verbs.
        let write_groups = v.doorbells as f64;
        let write_group_ns =
            (self.ns("rdma-sim.write_batch2_64B") + self.ns("rdma-sim.write_batch2_8B")) / 2.0;
        let verbs = v.cas as f64 * self.ns("rdma-sim.cas")
            + v.reads as f64 * self.ns("rdma-sim.read_64B")
            + write_groups * write_group_ns;
        self.ns("dsmdb.execute_rmw") - selves - verbs
    }
}

fn push(rungs: &mut Vec<Rung>, name: &'static str, ns: f64, children: &[(f64, &'static str)]) {
    rungs.push(Rung {
        name,
        ns,
        children: children.to_vec(),
    });
}

/// Run the whole ladder. `spec` is the `direct_rmw` workload.
pub fn run(spec: &EngineSpec, seconds: u64) -> Ladder {
    let calls = CALLS_PER_SECOND * seconds as usize;
    let mut rungs = Vec::new();
    let cluster = Cluster::build(spec.config).expect("ladder cluster");
    let layer = cluster.layer().clone();
    let table = cluster.table().clone();
    let n = spec.config.n_records;
    let ep = cluster.fabric().endpoint();

    // --- rdma-sim: Endpoint verbs --------------------------------------
    let scratch = layer.alloc(16 * 256).expect("scratch pages");
    let (node, off) = (scratch.node(), scratch.offset());
    let mirror = layer
        .group_members(layer.group_index_of(node).expect("group"))
        .last()
        .expect("member")
        .id();
    let mut buf64 = [0u8; 64];
    let mut pages = vec![0u8; 16 * 256];
    push(
        &mut rungs,
        "rdma-sim.read_64B",
        measure(calls, |_| {
            ep.read(node, off, black_box(&mut buf64)).unwrap()
        }),
        &[],
    );
    push(
        &mut rungs,
        "rdma-sim.write_64B",
        measure(calls, |_| ep.write(node, off, black_box(&buf64)).unwrap()),
        &[],
    );
    push(
        &mut rungs,
        "rdma-sim.cas",
        measure(calls, |_| {
            black_box(ep.cas(node, off, 0, 0).unwrap());
        }),
        &[],
    );
    push(
        &mut rungs,
        "rdma-sim.write_batch2_64B",
        measure(calls, |_| {
            ep.write_batch(black_box(&[
                (node, off, &buf64[..]),
                (mirror, off, &buf64[..]),
            ]))
            .unwrap()
        }),
        &[],
    );
    push(
        &mut rungs,
        "rdma-sim.write_batch2_8B",
        measure(calls, |_| {
            ep.write_batch(black_box(&[
                (node, off, &buf64[..8]),
                (mirror, off, &buf64[..8]),
            ]))
            .unwrap()
        }),
        &[],
    );
    push(
        &mut rungs,
        "rdma-sim.read_batch16",
        measure(calls, |_| {
            let mut reqs: Vec<_> = pages
                .chunks_exact_mut(256)
                .enumerate()
                .map(|(i, p)| (node, off + 256 * i as u64, p))
                .collect();
            ep.read_batch(black_box(&mut reqs)).unwrap()
        }),
        &[],
    );
    let box_id = 0x7000_0001;
    let mailbox = cluster.fabric().mailboxes().register(box_id);
    push(
        &mut rungs,
        "rdma-sim.send_recv",
        measure(calls, |_| {
            ep.send(box_id, box_id, vec![0u8; 32]).unwrap();
            black_box(ep.try_recv(&mailbox).unwrap());
        }),
        &[],
    );

    // --- dsm: the same shapes through DsmLayer -------------------------
    push(
        &mut rungs,
        "dsm.read_64B",
        measure(calls, |_| {
            layer.read(&ep, scratch, black_box(&mut buf64)).unwrap()
        }),
        &[(1.0, "rdma-sim.read_64B")],
    );
    push(
        &mut rungs,
        "dsm.write_64B_r2",
        measure(calls, |_| {
            layer.write(&ep, scratch, black_box(&buf64)).unwrap()
        }),
        &[(1.0, "rdma-sim.write_batch2_64B")],
    );
    push(
        &mut rungs,
        "dsm.write_u64_r2",
        measure(calls, |i| {
            layer.write_u64(&ep, scratch, black_box(i as u64)).unwrap()
        }),
        &[(1.0, "rdma-sim.write_batch2_8B")],
    );
    push(
        &mut rungs,
        "dsm.cas",
        measure(calls, |_| {
            black_box(layer.cas(&ep, scratch, 0, 0).unwrap());
        }),
        &[(1.0, "rdma-sim.cas")],
    );
    push(
        &mut rungs,
        "dsm.read_batch16",
        measure(calls, |_| {
            let mut reqs: Vec<(GlobalAddr, &mut [u8])> = pages
                .chunks_exact_mut(256)
                .enumerate()
                .map(|(i, p)| (scratch.offset_by(256 * i as u64), p))
                .collect();
            layer.read_batch(&ep, black_box(&mut reqs)).unwrap()
        }),
        &[(1.0, "rdma-sim.read_batch16")],
    );
    layer.write_u64(&ep, scratch, 0).expect("clear scratch");

    // --- memnode: allocator ---------------------------------------------
    push(
        &mut rungs,
        "memnode.alloc_free",
        measure(calls, |_| {
            let a = layer.alloc(64).unwrap();
            layer.free(black_box(a)).unwrap();
        }),
        &[],
    );

    // --- txn: lock pair, then one Rmw under each protocol ---------------
    push(
        &mut rungs,
        "txn.lock_acq_rel",
        measure(calls, |i| {
            let lock = table.lock_addr(i as u64 % n);
            ExclusiveLock::acquire(&layer, &ep, lock, 1, 0).unwrap();
            ExclusiveLock::release(&layer, &ep, lock).unwrap();
        }),
        &[(1.0, "dsm.cas"), (1.0, "dsm.write_u64_r2")],
    );
    let ctx = TxnCtx {
        ep: &ep,
        table: &table,
        io: &DirectIo,
        worker_tag: 1,
    };
    let tpl = TwoPhaseLocking::exclusive();
    push(
        &mut rungs,
        "txn.2pl_rmw",
        measure(calls, |i| {
            black_box(
                tpl.execute(
                    &ctx,
                    &[Op::Rmw {
                        key: i as u64 % n,
                        delta: 1,
                    }],
                )
                .unwrap(),
            );
        }),
        &[
            (1.0, "txn.lock_acq_rel"),
            (1.0, "dsm.read_64B"),
            (1.0, "dsm.write_64B_r2"),
        ],
    );
    // OCC reads [wts | payload] and [lock | rts | wts] (72 and 24 bytes,
    // priced as 64-byte reads), and bumps the version word.
    let occ = Occ::new();
    push(
        &mut rungs,
        "txn.occ_rmw",
        measure(calls, |i| {
            black_box(
                occ.execute(
                    &ctx,
                    &[Op::Rmw {
                        key: i as u64 % n,
                        delta: 1,
                    }],
                )
                .unwrap(),
            );
        }),
        &[
            (1.0, "txn.lock_acq_rel"),
            (2.0, "dsm.read_64B"),
            (1.0, "dsm.write_64B_r2"),
            (1.0, "dsm.write_u64_r2"),
        ],
    );

    // --- dsmdb: the same Rmw through a session ---------------------------
    let mut session = cluster.session(0, 0);
    let before = session.endpoint().stats();
    session
        .execute(&[Op::Rmw { key: 0, delta: 1 }])
        .expect("one rmw");
    let after = session.endpoint().stats();
    let session_verbs = StatsSnapshot {
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        cas: after.cas - before.cas,
        doorbells: after.doorbells - before.doorbells,
        ..Default::default()
    };
    push(
        &mut rungs,
        "dsmdb.execute_rmw",
        measure(calls, |i| {
            black_box(
                session
                    .execute(&[Op::Rmw {
                        key: i as u64 % n,
                        delta: 1,
                    }])
                    .unwrap(),
            );
        }),
        &[(1.0, "txn.2pl_rmw")],
    );

    // --- buffer: one page, always resident / never resident -------------
    let pool = BufferPool::new(
        layer.clone(),
        64,
        256,
        Box::new(ClockPolicy::new(256)),
        WriteMode::WriteThrough,
    );
    let page_addrs: Vec<GlobalAddr> = (0..4096u64).map(|k| table.payload_addr(k, 0)).collect();
    pool.read_page(&ep, page_addrs[0], &mut buf64)
        .expect("warm");
    push(
        &mut rungs,
        "buffer.hit",
        measure(calls, |_| {
            black_box(pool.read_page(&ep, page_addrs[0], &mut buf64).unwrap());
        }),
        &[],
    );
    // 4096 pages cycled through 256 frames: every read misses and evicts.
    push(
        &mut rungs,
        "buffer.miss",
        measure(calls, |i| {
            black_box(
                pool.read_page(&ep, page_addrs[i % 4096], &mut buf64)
                    .unwrap(),
            );
        }),
        &[(1.0, "dsm.read_64B")],
    );

    // --- index: its own two-node layer, as in `index_probe` -------------
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let idx_layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 2,
            capacity_per_node: 16 << 20,
            ..Default::default()
        },
    );
    let iep = fabric.endpoint();
    let (btree, _) = RemoteBTree::create(&idx_layer, true, 1).expect("tree");
    let (race, _) = RaceHash::create(&idx_layer, 8, 1).expect("hash");
    for k in 1..=INDEX_KEYS {
        btree.insert(&iep, 2 * k, k).expect("load");
        race.put(&iep, 2 * k, k).expect("load");
    }
    push(
        &mut rungs,
        "index.btree_search",
        measure(calls, |i| {
            black_box(
                btree
                    .search(&iep, 2 * (i as u64 * 7 % INDEX_KEYS + 1))
                    .unwrap(),
            );
        }),
        &[],
    );
    push(
        &mut rungs,
        "index.race_get",
        measure(calls, |i| {
            black_box(race.get(&iep, 2 * (i as u64 * 7 % INDEX_KEYS + 1)).unwrap());
        }),
        &[],
    );
    push(
        &mut rungs,
        "index.btree_insert",
        measure(calls, |i| btree.insert(&iep, 2 * i as u64 + 1, 0).unwrap()),
        &[],
    );
    push(
        &mut rungs,
        "index.race_put",
        measure(calls / RACE_PUT_SHARE, |i| {
            race.put(&iep, 2 * i as u64 + 1, 0).unwrap()
        }),
        &[],
    );

    Ladder {
        rungs,
        session_verbs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_cost_per_call() {
        let mut seen = Vec::new();
        let ns = measure(200, |i| {
            seen.push(i);
            std::thread::sleep(std::time::Duration::from_micros(20));
        });
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
        assert!(ns >= 20_000.0, "{ns} ns per call");
    }

    #[test]
    fn self_times_and_residual_reconcile_to_the_session_total() {
        // Synthetic rungs: a complete tree leaves nothing unattributed.
        let mut rungs = Vec::new();
        for (name, ns) in [
            ("rdma-sim.read_64B", 200.0),
            ("rdma-sim.cas", 180.0),
            ("rdma-sim.write_batch2_64B", 300.0),
            ("rdma-sim.write_batch2_8B", 280.0),
        ] {
            push(&mut rungs, name, ns, &[]);
        }
        push(
            &mut rungs,
            "dsm.read_64B",
            230.0,
            &[(1.0, "rdma-sim.read_64B")],
        );
        push(&mut rungs, "dsm.cas", 200.0, &[(1.0, "rdma-sim.cas")]);
        push(
            &mut rungs,
            "dsm.write_64B_r2",
            350.0,
            &[(1.0, "rdma-sim.write_batch2_64B")],
        );
        push(
            &mut rungs,
            "dsm.write_u64_r2",
            330.0,
            &[(1.0, "rdma-sim.write_batch2_8B")],
        );
        push(
            &mut rungs,
            "txn.lock_acq_rel",
            560.0,
            &[(1.0, "dsm.cas"), (1.0, "dsm.write_u64_r2")],
        );
        push(
            &mut rungs,
            "txn.2pl_rmw",
            1_300.0,
            &[
                (1.0, "txn.lock_acq_rel"),
                (1.0, "dsm.read_64B"),
                (1.0, "dsm.write_64B_r2"),
            ],
        );
        push(
            &mut rungs,
            "dsmdb.execute_rmw",
            1_700.0,
            &[(1.0, "txn.2pl_rmw")],
        );
        let complete = StatsSnapshot {
            reads: 1,
            cas: 1,
            writes: 4,
            doorbells: 2,
            ..Default::default()
        };
        let ladder = Ladder {
            rungs,
            session_verbs: complete,
        };
        assert_eq!(ladder.self_ns("dsmdb.execute_rmw"), 400.0);
        assert_eq!(
            ladder.self_ns("txn.2pl_rmw"),
            1_300.0 - 560.0 - 230.0 - 350.0
        );
        assert_eq!(ladder.self_ns("txn.lock_acq_rel"), 30.0);
        assert!(ladder.unattributed_ns().abs() < 1e-9);
        // One read the tree does not know about is exactly what is left.
        let extra = StatsSnapshot {
            reads: 2,
            ..complete
        };
        let ladder = Ladder {
            session_verbs: extra,
            ..ladder
        };
        assert!((ladder.unattributed_ns() + 200.0).abs() < 1e-9);
    }
}
