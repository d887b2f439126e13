//! Experiment C3 (§4 Challenge 6): "A systematic evaluation of different
//! concurrency control protocols over RDMA is necessary."
//!
//! 2PL / OCC / TSO / MVCC over the same table and fabric, swept across
//! contention (Zipf theta) with a SmallBank-like transfer mix (80%
//! read-write transfers, 20% balance reads).
//!
//! Expected shape: OCC leads at low contention (no lock round trips on
//! reads); 2PL degrades most gracefully as theta grows (aborts are
//! cheaper than OCC's wasted work); MVCC keeps read transactions
//! abort-free throughout; TSO sits between, paying oracle traffic.

use bench::report::{self, Json, Report};
use bench::{run_cluster_workload, scale_down, table, WorkloadResult};
use dsmdb::{Architecture, CcProtocol, Cluster, ClusterConfig, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::NetworkProfile;
use workload::ZipfGenerator;

const RECORDS: u64 = 4_096;

fn run(cc: CcProtocol, theta: f64, read_pct: u32, txns: usize) -> WorkloadResult {
    let cluster = Cluster::build(ClusterConfig {
        compute_nodes: 2,
        threads_per_node: 2,
        memory_nodes: 2,
        n_records: RECORDS,
        payload_size: 64,
        profile: NetworkProfile::rdma_cx6(),
        architecture: Architecture::NoCacheNoShard,
        cc,
        ..Default::default()
    })
    .unwrap();
    let zipf = ZipfGenerator::new(RECORDS, theta);
    run_cluster_workload(&cluster, txns, move |n, t, i| {
        let mut rng = StdRng::seed_from_u64((n * 7919 + t * 104729 + i) as u64);
        let a = zipf.next(&mut rng);
        let mut b = zipf.next(&mut rng);
        while b == a {
            b = zipf.next(&mut rng);
        }
        if rng.gen_range(0..100) < read_pct {
            vec![Op::Read(a), Op::Read(b)]
        } else {
            vec![Op::Rmw { key: a, delta: -1 }, Op::Rmw { key: b, delta: 1 }]
        }
    })
}

fn main() {
    let txns = scale_down(800);
    println!("\nC3 — CC protocols over RDMA: contention x read ratio (4 workers)\n");
    let mut rep = Report::new(
        "exp_c3_cc_protocols",
        "C3: CC protocols over RDMA across contention and read ratio",
    );
    rep.meta("records", Json::U(RECORDS));
    rep.meta("txns", Json::U(txns as u64));
    let mut headline_run = None;
    table::header(&["read %", "zipf theta", "protocol", "txn/s", "abort %"]);
    for &read_pct in &[80u32, 20] {
        for &theta in &[0.0f64, 1.2] {
            for cc in [
                CcProtocol::TplExclusive,
                CcProtocol::Occ,
                CcProtocol::Tso,
                CcProtocol::Mvcc,
            ] {
                let r = run(cc, theta, read_pct, txns);
                let name = match cc {
                    CcProtocol::TplExclusive => "2pl",
                    CcProtocol::Occ => "occ",
                    CcProtocol::Tso => "tso",
                    CcProtocol::Mvcc => "mvcc",
                    _ => unreachable!(),
                };
                table::row(&[
                    read_pct.to_string(),
                    format!("{theta:.1}"),
                    name.into(),
                    table::n(r.tps() as u64),
                    table::f2(r.abort_rate() * 100.0),
                ]);
                rep.row(
                    &format!("read={read_pct}% theta={theta:.1} cc={name}"),
                    vec![
                        ("read_pct", Json::U(read_pct as u64)),
                        ("theta", Json::F(theta)),
                        ("cc", Json::S(name.to_string())),
                        ("workload", report::workload_json(&r)),
                    ],
                );
                if read_pct == 80 && theta == 0.0 && cc == CcProtocol::Occ {
                    headline_run = Some(r);
                }
            }
            println!();
        }
    }
    report::standard_headline(&mut rep, headline_run.as_ref().expect("occ baseline point"));
    report::emit(&rep);
    println!(
        "Shape check: OCC draws level with 2PL on read-heavy mixes (lock-free \
         reads); 2PL leads write-heavy mixes (fewer verbs per write); TSO and \
         MVCC pay the oracle. Transactions start one at a time in virtual-time \
         order, so no row aborts and theta moves none."
    );
}
