//! Crash a memory node and recover it — the §3 durability/availability
//! machinery end to end.
//!
//! ```bash
//! cargo run --release -p dsmdb --example disaster_recovery
//! ```
//!
//! Data lives in a 2-way-mirrored DSM pool with a RAMCloud-style
//! replicated commit log. We kill a memory node mid-workload, keep
//! serving reads from the surviving mirror, rebuild the lost node over
//! the fabric, and verify every committed value survived.

use dsm::{DsmConfig, DsmLayer, DurabilityMode, DurableLog};
use rdma_sim::{Fabric, NetworkProfile};

fn main() {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    // Two mirror groups of 2 nodes each: every byte lives on 2 nodes.
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 4,
            capacity_per_node: 4 << 20,
            replication: 2,
            mem_cores: 2,
        },
    );
    let log = DurableLog::new(DurabilityMode::ReplicatedLog { k: 2 }, &layer, 1 << 20)
        .expect("log areas");

    let ep = fabric.endpoint();

    // Commit 1000 counter updates: write the record, then append the
    // commit record to the replicated log.
    let records: Vec<_> = (0..100).map(|_| layer.alloc(8).unwrap()).collect();
    for i in 0..1_000u64 {
        let addr = records[(i % 100) as usize];
        let old = layer.read_u64(&ep, addr).unwrap();
        layer.write_u64(&ep, addr, old + 1).unwrap();
        let mut rec = addr.to_raw().to_le_bytes().to_vec();
        rec.extend_from_slice(&(old + 1).to_le_bytes());
        log.append(&ep, &rec).unwrap();
    }
    println!(
        "committed 1000 updates in {:.2} virtual ms (replicated log, k=2)",
        ep.clock().now_ns() as f64 / 1e6
    );

    // Disaster: the primary of group 0 dies.
    layer.crash_member(0, 0).unwrap();
    println!("memory node (group 0, member 0) crashed");

    // Reads keep working off the mirror — no downtime for readers.
    let reader = fabric.endpoint();
    let v = layer.read_u64(&reader, records[0]).unwrap();
    println!("read during outage OK: record[0] = {v}");

    // Rebuild the node from its mirror sibling.
    let recovery = fabric.endpoint();
    let copied = layer.recover_member_from_mirror(&recovery, 0, 0).unwrap();
    println!(
        "rebuilt {} KiB onto fresh hardware in {:.2} virtual ms",
        copied >> 10,
        recovery.clock().now_ns() as f64 / 1e6
    );

    // Audit: every record readable, totals match what the log says.
    let audit = fabric.endpoint();
    let total: u64 = records
        .iter()
        .map(|a| layer.read_u64(&audit, *a).unwrap())
        .sum();
    assert_eq!(total, 1_000, "all committed updates survived");
    assert_eq!(log.len(), 1_000);
    println!("audit OK: all 1000 committed updates present after recovery");
}
