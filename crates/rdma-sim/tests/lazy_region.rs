//! A memory node costs the pages its verbs write, not its length: a
//! region's slab comes from the allocator already zeroed and nothing
//! writes it at creation. One test in its own binary, so no other test
//! allocates beside the RSS it reads.

#![cfg(target_os = "linux")]

use rdma_sim::{Fabric, NetworkProfile};

const LEN: usize = 256 << 20;

/// This process's resident set, in bytes, from `/proc/self/status`.
fn rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    let kb: usize = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kb << 10
}

#[test]
fn a_region_holds_only_the_pages_written() {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let ep = fabric.endpoint();
    let before = rss_bytes();
    let node = fabric.register_node(LEN);
    let grown = rss_bytes().saturating_sub(before);
    assert!(grown < 16 << 20, "a {LEN} B region grew RSS by {grown} B");

    let last = (LEN - 8) as u64;
    ep.write(node, 0, &7u64.to_le_bytes()).unwrap();
    ep.write(node, last, &9u64.to_le_bytes()).unwrap();
    assert_eq!(ep.read_u64(node, 0).unwrap(), 7);
    assert_eq!(ep.read_u64(node, last).unwrap(), 9);
    let mut middle = [0xFFu8; 64];
    ep.read(node, LEN as u64 / 2, &mut middle).unwrap();
    assert_eq!(middle, [0u8; 64]);

    let fresh = fabric.replace(node, LEN).unwrap();
    assert_eq!(fresh.len(), LEN);
    assert_eq!(ep.read_u64(node, 0).unwrap(), 0);
    assert_eq!(ep.read_u64(node, last).unwrap(), 0);
}
