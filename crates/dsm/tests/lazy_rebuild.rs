//! A memory node rebuilt from its mirror costs the pages its data
//! fills, not its length: the fresh node reads zero, and the rebuild
//! stores only the pages of each chunk that are not. One test in its own
//! binary, so no other test allocates beside the RSS it reads.

#![cfg(target_os = "linux")]

use dsm::{DsmConfig, DsmLayer};
use rdma_sim::{Fabric, NetworkProfile};

const NODE: usize = 64 << 20;

/// This process's resident set, in bytes, from `/proc/self/status`.
fn rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    let kb: usize = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kb << 10
}

#[test]
fn a_rebuilt_member_holds_only_the_pages_its_data_fills() {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig { memory_nodes: 2, capacity_per_node: NODE, replication: 2, mem_cores: 1 },
    );
    let ep = fabric.endpoint();
    let record = layer.alloc(64).unwrap();
    layer.write(&ep, record, &[0x5A; 64]).unwrap();

    layer.crash_member(0, 0).unwrap();
    let before = (rss_bytes(), ep.stats().writes, ep.clock().now_ns());
    let copied = layer.recover_member_from_mirror(&ep, 0, 0).unwrap();
    let grown = rss_bytes().saturating_sub(before.0);
    assert_eq!(copied, NODE as u64);
    assert!(grown < 1 << 20, "a rebuild of {NODE} B with one record grew RSS by {grown} B");
    // Every chunk is still posted and priced: 1 024 WRITEs of 64 KiB.
    assert_eq!(ep.stats().writes - before.1, (NODE >> 16) as u64);
    assert!(ep.clock().now_ns() - before.2 > 1_000 * 2_000, "the copy is charged");

    let mut got = [0u8; 64];
    layer.read(&ep, record, &mut got).unwrap();
    assert_eq!(got, [0x5A; 64]);
    let primary = layer.group_primary(0).id();
    let mut on_primary = [0u8; 64];
    fabric.region(primary).unwrap().read(record.offset(), &mut on_primary).unwrap();
    assert_eq!(on_primary, [0x5A; 64], "the rebuilt primary holds the record");
}
