//! Experiment C2 (§4 Challenge 6): RDMA lock primitives and whether
//! shared locks pay for themselves.
//!
//! Part 1 — primitive cost: the exclusive CAS spinlock completes in one
//! round trip. Footnote 2's shared-exclusive lock, a latch guarding holder
//! metadata, needs two, and two more to give back; the one-word
//! shared-exclusive lock, a word taken as one of its readers
//! (`LockWord::reader`), needs one each way (a CAS, then a fetch-and-add).
//! All three are `ExclusiveLock` calls.
//!
//! Part 2 — "It remains open if the allowed extra concurrency can offset
//! the performance overhead of the advanced locks": 2PL with exclusive
//! locks everywhere vs 2PL with one-word shared-exclusive locks, swept
//! over read ratio on a small hot table (so read-read concurrency
//! matters).

use bench::report::{self, Json, Report};
use bench::{run_cluster_workload, scale_down, table};
use dsm::{DsmConfig, DsmLayer, GlobalAddr};
use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::{Endpoint, Fabric, NetworkProfile};
use txn::{ExclusiveLock, LockWord, Rider, WriteBack};
use workload::ZipfGenerator;

/// One reader's step on footnote 2's lock: take the latch at `latch`
/// with the metadata READ riding, then write the reader count moved by
/// `add` and free the latch — two round trips.
fn footnote_2_step(layer: &DsmLayer, ep: &Endpoint, latch: GlobalAddr, add: u64) {
    let meta = latch.offset_by(8);
    let mut count = [0u8; 8];
    let mut word = [LockWord::new(latch)];
    let mut riders = [Rider { word: 0, addr: meta, dst: &mut count }];
    ExclusiveLock::acquire_set(layer, ep, &mut word, &mut riders, 1, 0).unwrap();
    let next = u64::from_le_bytes(count).wrapping_add(add).to_le_bytes();
    ExclusiveLock::release_set(layer, ep, &[WriteBack::new(meta, &next)], &mut word).unwrap();
}

fn primitive_costs(rep: &mut Report) {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 1,
            capacity_per_node: 1 << 20,
            ..Default::default()
        },
    );
    let addr = layer.alloc(16).unwrap();

    let ep = fabric.endpoint();
    ExclusiveLock::acquire(&layer, &ep, addr, 1, 0).unwrap();
    let excl_acquire = ep.clock().now_ns();
    ExclusiveLock::release(&layer, &ep, addr).unwrap();
    let excl_total = ep.clock().now_ns();

    // One shared hold of footnote 2's lock: the latch, then the metadata.
    let latch = layer.alloc(16).unwrap();
    let ep2 = fabric.endpoint();
    footnote_2_step(&layer, &ep2, latch, 1);
    let sh_acquire = ep2.clock().now_ns();
    footnote_2_step(&layer, &ep2, latch, u64::MAX);
    let sh_total = ep2.clock().now_ns();

    // One shared hold of the one-word lock: a CAS, then a fetch-and-add.
    let mut word = [LockWord::reader(layer.alloc(8).unwrap())];
    let ep3 = fabric.endpoint();
    ExclusiveLock::acquire_set(&layer, &ep3, &mut word, &mut [], 1, 0).unwrap();
    let word_acquire = ep3.clock().now_ns();
    ExclusiveLock::release_set(&layer, &ep3, &[], &mut word).unwrap();
    let word_total = ep3.clock().now_ns();

    println!("Part 1 — uncontended lock primitive cost (ConnectX-6 profile)\n");
    table::header(&["lock", "acquire ns", "acq+rel ns", "verbs", "wire RTs"]);
    let rows = [
        ("exclusive", excl_acquire, excl_total, &ep),
        ("shared-excl", sh_acquire, sh_total, &ep2),
        ("shared-word", word_acquire, word_total, &ep3),
    ];
    for (name, acquire, total, ep) in rows {
        let s = ep.stats();
        table::row(&[
            name.into(),
            table::n(acquire),
            table::n(total),
            s.round_trips().to_string(),
            s.wire_round_trips().to_string(),
        ]);
        rep.row(
            &format!("primitive={name}"),
            vec![
                ("acquire_ns", Json::U(acquire)),
                ("acquire_release_ns", Json::U(total)),
                ("verbs", Json::U(s.round_trips())),
                ("wire_rts", Json::U(s.wire_round_trips())),
            ],
        );
    }
    println!(
        "\n(paper: the shared-exclusive lock \"needs at least 2 round trips\": footnote 2's \
         latch + metadata does; one word with CAS and fetch-and-add needs 1)\n"
    );
}

fn txn_sweep(rep: &mut Report, txns: usize) {
    println!("Part 2 — 2PL exclusive vs shared-exclusive, 4 threads, 64 hot records\n");
    table::header(&[
        "read %", "cc", "txn/s", "abort %", "p50 us", "p95 us", "p99 us",
    ]);
    let mut headline_run = None;
    for &read_pct in &[100u32, 95, 80, 50, 0] {
        for cc in [CcProtocol::TplExclusive, CcProtocol::TplSharedExclusive] {
            let cluster = Cluster::build(ClusterConfig {
                compute_nodes: 2,
                threads_per_node: 2,
                memory_nodes: 1,
                n_records: 64,
                payload_size: 64,
                profile: NetworkProfile::rdma_cx6(),
                architecture: Architecture::NoCacheNoShard,
                cc,
                ..Default::default()
            })
            .unwrap();
            let zipf = ZipfGenerator::new(64, 0.9);
            let r = run_cluster_workload(&cluster, txns, move |n, t, i| {
                let mut rng = StdRng::seed_from_u64((n * 997 + t * 131 + i) as u64);
                let a = zipf.next(&mut rng);
                let b = zipf.next(&mut rng);
                if rng.gen_range(0..100) < read_pct {
                    vec![Op::Read(a), Op::Read(b)]
                } else {
                    vec![Op::Rmw { key: a, delta: 1 }]
                }
            });
            let name = if cc == CcProtocol::TplExclusive {
                "exclusive"
            } else {
                "shared-excl"
            };
            let (p50, p95, p99, _) = r.latency_percentiles();
            table::row(&[
                read_pct.to_string(),
                name.into(),
                table::n(r.tps() as u64),
                table::f2(r.abort_rate() * 100.0),
                table::f1(p50 as f64 / 1000.0),
                table::f1(p95 as f64 / 1000.0),
                table::f1(p99 as f64 / 1000.0),
            ]);
            rep.row(
                &format!("read={read_pct}% cc={name}"),
                vec![
                    ("read_pct", Json::U(read_pct as u64)),
                    ("cc", Json::S(name.to_string())),
                    ("workload", report::workload_json(&r)),
                ],
            );
            if read_pct == 95 && cc == CcProtocol::TplExclusive {
                headline_run = Some(r);
            }
        }
        println!();
    }
    report::standard_headline(rep, headline_run.as_ref().expect("95% exclusive point"));
    println!(
        "Shape check: both locks are two doorbells per transaction. Exclusive leads \
         wherever transactions read, since a reader's release is a fetch-and-add, an \
         atomic dearer than an unlock's WRITE, and ties at 0 % reads. Transactions \
         start one at a time in virtual-time order, so readers never share a lock \
         here and the concurrency the shared lock allows is never used."
    );
}

fn main() {
    println!("\nC2 — RDMA lock round trips and the shared-lock trade\n");
    let mut rep = Report::new(
        "exp_c2_locks",
        "C2: RDMA lock primitives and the shared-lock trade",
    );
    let txns = scale_down(400);
    rep.meta("txns", Json::U(txns as u64));
    primitive_costs(&mut rep);
    txn_sweep(&mut rep, txns);
    report::emit(&rep);
}
