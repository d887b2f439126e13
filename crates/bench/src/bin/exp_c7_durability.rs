//! Experiment C7 (§3 Challenge 2): durability approaches on the commit
//! path.
//!
//! * Approach #1 — synchronous WAL to cloud storage (EBS-class), with and
//!   without group commit;
//! * Approach #2 — RAMCloud-style replicated memory log (k = 1, 3).
//!
//! 8 lockstep clients each committing 256-byte records. Expected shape:
//! replication commits at network speed (~single-digit us), cloud WAL at
//! storage speed (~ms) unless group commit amortizes the device; k=3
//! costs a little more than k=1 but both stay orders of magnitude below
//! the WAL.

use std::sync::Arc;

use bench::report::{self, Json, Report};
use bench::{lockstep, scale_down, table};
use cloudstore::LogStore;
use dsm::{DsmConfig, DsmLayer, DurabilityMode, DurableLog};
use rdma_sim::{Fabric, NetworkProfile};

const RECORD: usize = 256;

fn run(
    rep: &mut Report,
    mode_name: &str,
    mode_of: impl Fn(&DsmLayer) -> DurabilityMode,
    group: usize,
    commits: usize,
) {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 3,
            capacity_per_node: 8 << 20,
            ..Default::default()
        },
    );
    let log = DurableLog::new(mode_of(&layer), &layer, 4 << 20).unwrap();
    let eps: Vec<_> = (0..8).map(|_| fabric.endpoint()).collect();
    let record = vec![0xCCu8; RECORD];
    let rounds = commits / 8;
    let makespan = if group <= 1 {
        lockstep(&eps, rounds, |_i, ep| {
            log.append(ep, &record).unwrap();
        })
    } else {
        // Group commit: each client batches `group` records per round.
        let batch: Vec<&[u8]> = (0..group).map(|_| record.as_slice()).collect();
        lockstep(&eps, rounds / group, |_i, ep| {
            log.append_group(ep, &batch).unwrap();
        })
    };
    let total = log.len() as u64;
    let tps = total as f64 * 1e9 / makespan.max(1) as f64;
    let lat_us = makespan as f64 / 1e3 / (rounds.max(1) as f64 / group.max(1) as f64);
    table::row(&[
        mode_name.into(),
        group.to_string(),
        table::n(total),
        table::n(tps as u64),
        table::f1(lat_us),
    ]);
    rep.row(
        &format!("mode={mode_name} batch={group}"),
        vec![
            ("mode", Json::S(mode_name.to_string())),
            ("batch", Json::U(group as u64)),
            ("commits", Json::U(total)),
            ("commits_per_s", Json::F(tps)),
            ("client_us_per_round", Json::F(lat_us)),
        ],
    );
    if mode_name == "repl k=3" && group == 1 {
        rep.headline("repl_k3_commits_per_s", Json::F(tps));
    }
}

fn main() {
    let commits = scale_down(4_096);
    println!("\nC7 — durable commit approaches (8 clients, {RECORD} B records)\n");
    let mut rep = Report::new(
        "exp_c7_durability",
        "C7: durability approaches on the commit path",
    );
    rep.meta("record_bytes", Json::U(RECORD as u64));
    rep.meta("commits", Json::U(commits as u64));
    table::header(&["mode", "batch", "commits", "commits/s", "client us/round"]);
    run(
        &mut rep,
        "wal-ebs",
        |_| DurabilityMode::CloudWal(Arc::new(LogStore::new(NetworkProfile::cloud_ebs()))),
        1,
        commits,
    );
    run(
        &mut rep,
        "wal-ebs",
        |_| DurabilityMode::CloudWal(Arc::new(LogStore::new(NetworkProfile::cloud_ebs()))),
        16,
        commits,
    );
    run(
        &mut rep,
        "wal-ebs",
        |_| DurabilityMode::CloudWal(Arc::new(LogStore::new(NetworkProfile::cloud_ebs()))),
        64,
        commits,
    );
    run(&mut rep, "repl k=1", |_| DurabilityMode::ReplicatedLog { k: 1 }, 1, commits);
    run(&mut rep, "repl k=3", |_| DurabilityMode::ReplicatedLog { k: 3 }, 1, commits);
    run(&mut rep, "repl k=3", |_| DurabilityMode::ReplicatedLog { k: 3 }, 16, commits);
    report::emit(&rep);
    println!(
        "\nShape check (§3): the replicated memory log commits orders of \
         magnitude faster than the cloud WAL; group commit rescues WAL \
         throughput (but not latency); k=3 costs little over k=1.\n\
         Durability caveat from the paper: replication 'may not guarantee \
         100% durability as the probability of all k memory nodes crashing \
         is not zero'."
    );
}
