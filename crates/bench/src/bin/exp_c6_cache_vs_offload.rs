//! Experiment C6 (§5 Challenge 9): caching vs offloading.
//!
//! An aggregate (SUM) query over a segment of records, answered two ways:
//!
//! * **fetch-and-compute** — read the records to the compute node (through
//!   the buffer pool, so repeated queries hit cache) and sum at full CPU
//!   speed;
//! * **offload** — push the SUM to the owning memory node's weak CPU and
//!   ship back 8 bytes.
//!
//! Sweeping the cache-hit potential (pool size) and the number of
//! concurrent queries (memory-node CPU saturation). Expected shape:
//! offload wins cold large scans (bytes dominate); caching wins once the
//! working set is resident or when many queries gang up on the weak CPU
//! — the paper's "caching and offloading are not orthogonal" interaction.

use std::sync::Arc;

use bench::report::{self, Json, Report};
use bench::{scale_down, table};
use buffer::{BufferPool, ClockPolicy, WriteMode};
use dsm::{DsmConfig, DsmLayer, GlobalAddr};
use memnode::OffloadOutput;
use rdma_sim::{Fabric, NetworkProfile};

const RECORDS: u64 = 4_096;
const PAGE: usize = 256;
const SEGMENT: u64 = 1_024; // records per query
const SUM_FN: u32 = 1;

fn setup() -> (Arc<DsmLayer>, GlobalAddr) {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 1,
            capacity_per_node: 16 << 20,
            mem_cores: 1,
            ..Default::default()
        },
    );
    let base = layer.alloc(RECORDS * PAGE as u64).unwrap();
    let ep = layer.fabric().endpoint();
    for k in 0..RECORDS {
        let mut page = vec![0u8; PAGE];
        page[0..8].copy_from_slice(&k.to_le_bytes());
        layer
            .write(&ep, base.offset_by(k * PAGE as u64), &page)
            .unwrap();
    }
    layer.register_offload(
        SUM_FN,
        Arc::new(|region, arg: &[u8]| {
            let off = u64::from_le_bytes(arg[0..8].try_into().unwrap());
            let count = u64::from_le_bytes(arg[8..16].try_into().unwrap());
            let mut sum = 0u64;
            let mut buf = vec![0u8; PAGE];
            for i in 0..count {
                region.read(off + i * PAGE as u64, &mut buf).unwrap();
                sum += u64::from_le_bytes(buf[0..8].try_into().unwrap());
            }
            OffloadOutput {
                data: sum.to_le_bytes().to_vec(),
                work_ns: count * PAGE as u64, // ~1 ns/byte at compute speed
            }
        }),
    );
    (layer, base)
}

/// ns per query when fetching through a pool of `frames`, after `reps`
/// repetitions (warmup captured in the average intentionally: rep 0 is
/// cold).
fn fetch_cost(layer: &Arc<DsmLayer>, base: GlobalAddr, frames: usize, reps: usize) -> u64 {
    let pool = BufferPool::new(
        layer.clone(),
        PAGE,
        frames,
        Box::new(ClockPolicy::new(frames)),
        WriteMode::WriteThrough,
    );
    let ep = layer.fabric().endpoint();
    let mut buf = vec![0u8; PAGE];
    let mut sum = 0u64;
    for _ in 0..reps {
        for k in 0..SEGMENT {
            pool.read_page(&ep, base.offset_by(k * PAGE as u64), &mut buf)
                .unwrap();
            sum += u64::from_le_bytes(buf[0..8].try_into().unwrap());
            ep.charge_local(2); // add at compute speed
        }
    }
    std::hint::black_box(sum);
    ep.clock().now_ns() / reps as u64
}

/// ns per query when offloading, with `concurrent` queries ganged on the
/// single weak core.
fn offload_cost(layer: &Arc<DsmLayer>, base: GlobalAddr, concurrent: usize, reps: usize) -> u64 {
    let mut arg = Vec::new();
    arg.extend_from_slice(&base.offset().to_le_bytes());
    arg.extend_from_slice(&SEGMENT.to_le_bytes());
    // Reset queueing between measurements.
    layer.group_primary(0).executor().reset();
    let eps: Vec<_> = (0..concurrent).map(|_| layer.fabric().endpoint()).collect();
    for _ in 0..reps {
        for ep in &eps {
            layer.offload(ep, base, SUM_FN, &arg).unwrap();
        }
    }
    eps.iter().map(|e| e.clock().now_ns()).max().unwrap() / reps as u64
}

fn main() {
    let reps = scale_down(8).max(2);
    let (layer, base) = setup();
    println!("\nC6 — caching vs offloading a SUM over {SEGMENT} x {PAGE} B records\n");
    let mut rep = Report::new(
        "exp_c6_cache_vs_offload",
        "C6: caching vs offloading an aggregate to the memory node",
    );
    rep.meta("records", Json::U(RECORDS));
    rep.meta("segment", Json::U(SEGMENT));
    rep.meta("reps", Json::U(reps as u64));
    println!("-- part 1: single query stream, sweep cache capacity --\n");
    table::header(&["pool frames", "fetch us/q", "offload us/q", "winner"]);
    for &frames in &[16usize, 256, 1_024, 2_048] {
        let f = fetch_cost(&layer, base, frames, reps);
        let o = offload_cost(&layer, base, 1, reps);
        let winner = if f < o { "cache" } else { "offload" };
        table::row(&[
            frames.to_string(),
            table::f1(f as f64 / 1e3),
            table::f1(o as f64 / 1e3),
            winner.into(),
        ]);
        rep.row(
            &format!("frames={frames}"),
            vec![
                ("frames", Json::U(frames as u64)),
                ("fetch_ns_per_q", Json::U(f)),
                ("offload_ns_per_q", Json::U(o)),
                ("winner", Json::S(winner.to_string())),
            ],
        );
    }
    println!("\n-- part 2: hot cache, sweep concurrent queries (1 weak core) --\n");
    table::header(&["concurrent", "fetch us/q", "offload us/q", "winner"]);
    for &conc in &[1usize, 2, 4, 8] {
        // Fetch path scales (each client has its own CPU); cost unchanged.
        let f = fetch_cost(&layer, base, 2_048, reps);
        let o = offload_cost(&layer, base, conc, reps);
        let winner = if f < o { "cache" } else { "offload" };
        table::row(&[
            conc.to_string(),
            table::f1(f as f64 / 1e3),
            table::f1(o as f64 / 1e3),
            winner.into(),
        ]);
        rep.row(
            &format!("concurrent={conc}"),
            vec![
                ("concurrent", Json::U(conc as u64)),
                ("fetch_ns_per_q", Json::U(f)),
                ("offload_ns_per_q", Json::U(o)),
                ("winner", Json::S(winner.to_string())),
            ],
        );
        if conc == 8 {
            rep.headline("offload_ns_per_q_8conc", Json::U(o));
            rep.headline("fetch_ns_per_q_hot", Json::U(f));
        }
    }
    report::emit(&rep);
    println!(
        "\nShape check: offload wins the cold scan; caching wins once the \
         segment is resident, and offload degrades under concurrency as the \
         weak memory-node CPU saturates (§5: they are not orthogonal)."
    );
}
