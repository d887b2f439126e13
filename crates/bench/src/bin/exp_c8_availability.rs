//! Experiment C8 (§3 Challenge 3): availability schemes — memory
//! overhead vs recovery time.
//!
//! * **3x mirroring**: every byte stored three times; recovery = copy a
//!   region from a live sibling over the fabric.
//! * **Erasure coding (4+2)**: 1.5x memory; recovery = read 4 surviving
//!   shards and decode; degraded reads until rebuilt.
//! * **RAMCloud-style checkpoint+log**: 1x memory (+cold bytes in cloud
//!   storage); recovery = S3-class GET + restore + log replay.
//!
//! Expected shape: the recovery-time ranking is the inverse of the
//! memory-overhead ranking — exactly the trade §3 lays out.

use std::sync::Arc;

use bench::report::{self, Json, Report};
use bench::table;
use cloudstore::ObjectStore;
use dsm::{
    CheckpointManager, DsmConfig, DsmLayer, DurabilityMode, DurableLog, ErasureConfig,
    ErasureStore, GlobalAddr,
};
use rdma_sim::{Fabric, NetworkProfile};

const NODE_CAP: usize = 512 << 10; // small regions keep user data ~= region size
const PAGE: usize = 4_096;

fn mirror3() -> (f64, u64, u64) {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 3,
            capacity_per_node: NODE_CAP,
            replication: 3,
            ..Default::default()
        },
    );
    let ep = fabric.endpoint();
    // Populate some pages.
    for _ in 0..64 {
        let a = layer.alloc(PAGE as u64).unwrap();
        layer.write(&ep, a, &vec![7u8; PAGE]).unwrap();
    }
    layer.crash_member(0, 1).unwrap();
    let rec_ep = fabric.endpoint();
    let bytes = layer.recover_member_from_mirror(&rec_ep, 0, 1).unwrap();
    (3.0, rec_ep.clock().now_ns(), bytes)
}

fn erasure42() -> (f64, u64, u64) {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 6,
            capacity_per_node: NODE_CAP,
            replication: 1,
            ..Default::default()
        },
    );
    let cfg = ErasureConfig {
        data_shards: 4,
        parity_shards: 2,
    };
    let store = ErasureStore::new(layer.clone(), cfg, PAGE);
    let ep = fabric.endpoint();
    let data = vec![9u8; PAGE];
    let mut pages: Vec<_> = (0..64).map(|i| store.put(&ep, i % 6, &data).unwrap()).collect();
    // Crash one memory node; rebuild every page's lost shard.
    fabric.crash(layer.group_primary(0).id()).unwrap();
    let rec_ep = fabric.endpoint();
    let mut moved = 0u64;
    for page in pages.iter_mut() {
        // Find which shard lived on the crashed node (if any).
        let lost =
            (0..page.shard_count()).find(|&i| page.shard_addr(i).node() == layer.group_primary(0).id());
        if let Some(lost) = lost {
            store.rebuild_shard(&rec_ep, page, lost, 5).unwrap();
            moved += (PAGE / 4 * 5) as u64; // 4 shard reads + 1 write
        }
    }
    (cfg.overhead(), rec_ep.clock().now_ns(), moved)
}

fn checkpoint_log() -> (f64, u64, u64) {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 2,
            capacity_per_node: NODE_CAP,
            replication: 1,
            ..Default::default()
        },
    );
    let ep = fabric.endpoint();
    let addr = layer.alloc(PAGE as u64).unwrap();
    layer.write(&ep, addr, &vec![3u8; PAGE]).unwrap();
    let mgr = CheckpointManager::new(Arc::new(ObjectStore::new(NetworkProfile::cloud_s3())));
    let group = usize::from(addr.node() != layer.group_primary(0).id());
    mgr.checkpoint_member(&ep, &layer, group, 0).unwrap();
    // 200 post-checkpoint updates in the log.
    let log = DurableLog::new(DurabilityMode::None, &layer, 0).unwrap();
    for i in 0..200u64 {
        let mut rec = addr.to_raw().to_le_bytes().to_vec();
        rec.extend_from_slice(&i.to_le_bytes());
        log.append(&ep, &rec).unwrap();
    }
    fabric.crash(addr.node()).unwrap();
    let rec_ep = fabric.endpoint();
    let layer2 = layer.clone();
    let stats = mgr
        .recover_member(&rec_ep, &layer, group, 0, Some(&log), move |ep, record| {
            let a = GlobalAddr::from_raw(u64::from_le_bytes(record[0..8].try_into().unwrap()));
            let v = u64::from_le_bytes(record[8..16].try_into().unwrap());
            layer2.write_u64(ep, a, v)
        })
        .unwrap();
    (1.0, stats.elapsed_ns, stats.bytes_moved)
}

fn main() {
    println!("\nC8 — availability: memory overhead vs recovery (one lost node)\n");
    let mut rep = Report::new(
        "exp_c8_availability",
        "C8: availability schemes — memory overhead vs recovery time",
    );
    rep.meta("node_capacity", Json::U(NODE_CAP as u64));
    rep.meta("page_bytes", Json::U(PAGE as u64));
    table::header(&["scheme", "mem overhead", "recovery ms", "bytes moved"]);
    for (scheme, (o, ns, b)) in [
        ("mirror x3", mirror3()),
        ("erasure 4+2", erasure42()),
        ("ckpt+log", checkpoint_log()),
    ] {
        table::row(&[
            scheme.into(),
            format!("{o:.1}x"),
            table::f2(ns as f64 / 1e6),
            table::n(b),
        ]);
        rep.row(
            &format!("scheme={scheme}"),
            vec![
                ("scheme", Json::S(scheme.to_string())),
                ("mem_overhead", Json::F(o)),
                ("recovery_ns", Json::U(ns)),
                ("bytes_moved", Json::U(b)),
            ],
        );
        if scheme == "mirror x3" {
            rep.headline("mirror3_recovery_ns", Json::U(ns));
        }
    }
    report::emit(&rep);
    println!(
        "\nShape check (§3 Challenge 3): cheaper memory -> slower recovery. \
         Mirroring recovers at fabric speed, erasure pays decode+rebuild, \
         checkpoint+log pays an S3-class fetch plus replay."
    );
}
