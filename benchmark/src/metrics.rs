//! The names every later performance claim uses: workloads, end-to-end
//! metrics and per-layer metrics, each with its unit, its clock and —
//! for a layer metric — the end-to-end metric and workload it should
//! move. `BENCHMARK.json` repeats the part of this the driver reads; a
//! test keeps the two in step.

/// Which clock a number is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Virtual ns (or a count) of the modelled ConnectX-6 cluster: exact
    /// for a fixed seed.
    Sim,
    /// Wall time or memory of the simulator itself: noisy, estimated
    /// robustly.
    Host,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "fit_read",
        why: "3c, 1 session, half the 65536 x 256 B records cached, 95/5 zipf-0.99 16-op txns: buffer hit path and engine arena do the work, the fabric almost none; fabric, dsm and lock changes must not move it.",
    },
    Workload {
        name: "thrash_mix",
        why: "Same cluster, 2 % cache, uniform 50/50 read/rmw: working set far beyond the cache, so buffer miss/evict/write-through, dsm batches and rdma-sim batched verbs dominate.",
    },
    Workload {
        name: "direct_rmw",
        why: "3a 2PL, 4 memory nodes x 2 replicas, 3-5 distinct rmw per txn, pool and cache bypassed; a ghost lock holder forces one lock-busy abort per 50 txns so the lock-wait path sits in the tail.",
    },
    Workload {
        name: "xshard_2pc",
        why: "3c, 2 nodes x 1 session, 10 % cross-shard transfers: the only workload through txn::twopc, the mailbox, the shard lock table and serve_pending (is 2PC still applicable?).",
    },
    Workload {
        name: "coherent_rw",
        why: "3b invalidate + 2PL, 2 nodes, zipf-0.9 80/20 single-op txns: the only workload through the coherence directory and invalidation fan-out, RDMA locks and pool together.",
    },
    Workload {
        name: "index_probe",
        why: "index crate alone (B+tree with cached internals, RACE hash), 90 % zipf-0.9 lookups / 10 % fresh inserts: on no engine path otherwise, and its load makes setup_s meaningful.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "sim_tps",
        unit: "1/s",
        clock: Clock::Sim,
        higher_is_better: true,
        bound: 0.03,
        what: "committed logical txns per virtual second after warm-up (sessions' rates summed)",
    },
    EndToEnd {
        name: "sim_p50_us",
        unit: "us",
        clock: Clock::Sim,
        higher_is_better: false,
        bound: 0.03,
        what: "median virtual latency of a logical txn, first attempt to commit",
    },
    EndToEnd {
        name: "sim_p999_us",
        unit: "us",
        clock: Clock::Sim,
        higher_is_better: false,
        bound: 0.15,
        what: "p99.9 virtual latency of a logical txn",
    },
    EndToEnd {
        name: "host_txn_per_s",
        unit: "1/s",
        clock: Clock::Host,
        higher_is_better: true,
        bound: 0.25,
        what: "committed logical txns per wall second, telemetry planes off; slice-q1, best of 5 repetitions",
    },
    EndToEnd {
        name: "host_txn_per_s_observed",
        unit: "1/s",
        clock: Clock::Host,
        higher_is_better: true,
        bound: 0.25,
        what: "the same with the five planes every exp_* binary enables",
    },
    EndToEnd {
        name: "host_rss_mb",
        unit: "MB",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.1,
        what: "VmHWM of the workload's process after its first bare repetition",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
        what: "Cluster::build (or index load) until the first txn can run; median over the run's repetitions",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const fn sim(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        clock: Clock::Sim,
        higher_is_better: false,
        moves,
    }
}

const fn host(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        clock: Clock::Host,
        higher_is_better: false,
        moves,
    }
}

const VERBS: &str = "sim_tps, sim_p50_us @ direct_rmw, thrash_mix, xshard_2pc; flat @ fit_read";
const HOST_VERBS: &str = "host_txn_per_s @ direct_rmw, thrash_mix; flat @ fit_read";
const HOST_DSM: &str = "host_txn_per_s @ direct_rmw, thrash_mix";
const INDEX_SIM: &str = "sim_tps, sim_p50_us @ index_probe only";
const INDEX_HOST: &str = "host_txn_per_s @ index_probe only";
const HOST_TXN: &str = "host_txn_per_s @ direct_rmw, coherent_rw";
const UNRESOLVED: &str = "none; says whether a host number is resolved";

pub const PER_LAYER: [PerLayer; 58] = [
    sim("rdma-sim.verbs_per_txn", "count", VERBS),
    sim("rdma-sim.wire_rts_per_txn", "count", VERBS),
    sim("rdma-sim.bytes_per_txn", "B", "sim_tps @ thrash_mix"),
    PerLayer {
        higher_is_better: true,
        ..sim(
            "rdma-sim.doorbell_rider_share",
            "share",
            "sim_tps @ thrash_mix",
        )
    },
    sim(
        "rdma-sim.cas_fail_share",
        "share",
        "sim_p999_us @ direct_rmw; sim_tps @ coherent_rw",
    ),
    sim(
        "rdma-sim.msgs_per_txn",
        "count",
        "sim_tps @ xshard_2pc, coherent_rw; zero elsewhere",
    ),
    sim(
        "rdma-sim.sim_ns_per_verb",
        "ns",
        "sim_p50_us @ direct_rmw, thrash_mix",
    ),
    host("rdma-sim.host_ns_per_read_64B", "ns", HOST_VERBS),
    host("rdma-sim.host_ns_per_write_64B", "ns", HOST_VERBS),
    host("rdma-sim.host_ns_per_cas", "ns", HOST_VERBS),
    host("rdma-sim.host_ns_per_read_batch16", "ns", HOST_VERBS),
    host(
        "rdma-sim.host_ns_per_send_recv",
        "ns",
        "host_txn_per_s @ xshard_2pc, coherent_rw",
    ),
    host("dsm.host_self_ns_per_read_64B", "ns", HOST_DSM),
    host("dsm.host_self_ns_per_write_64B_r2", "ns", HOST_DSM),
    host("dsm.host_self_ns_per_cas", "ns", HOST_DSM),
    host("dsm.host_self_ns_per_read_batch16", "ns", HOST_DSM),
    sim(
        "dsm.write_verbs_per_write",
        "count",
        "sim_tps, sim_p50_us @ direct_rmw",
    ),
    sim(
        "memnode.alloc_bytes_per_user_byte",
        "ratio",
        "host_rss_mb, setup_s @ all",
    ),
    host("memnode.host_ns_per_alloc_free", "ns", "setup_s @ all"),
    PerLayer {
        higher_is_better: true,
        ..sim(
            "buffer.hit_rate",
            "share",
            "sim_tps @ fit_read; absent @ direct_rmw",
        )
    },
    sim("buffer.evictions_per_txn", "count", "sim_tps @ thrash_mix"),
    sim("buffer.writebacks_per_txn", "count", "sim_tps @ thrash_mix"),
    sim(
        "buffer.sim_fetch_ns_per_txn",
        "ns",
        "sim_p50_us @ thrash_mix; small @ fit_read",
    ),
    sim(
        "buffer.sim_writeback_ns_per_txn",
        "ns",
        "sim_p50_us @ thrash_mix; small @ fit_read",
    ),
    host("buffer.host_ns_per_hit", "ns", "host_txn_per_s @ fit_read"),
    host(
        "buffer.host_self_ns_per_miss",
        "ns",
        "host_txn_per_s @ thrash_mix",
    ),
    sim("index.btree_sim_rts_per_search", "count", INDEX_SIM),
    sim("index.race_sim_rts_per_get", "count", INDEX_SIM),
    sim("index.btree_stale_retry_share", "share", INDEX_SIM),
    sim("index.sim_lookup_ns_per_txn", "ns", INDEX_SIM),
    host("index.host_ns_per_btree_search", "ns", INDEX_HOST),
    host("index.host_ns_per_btree_insert", "ns", INDEX_HOST),
    host("index.host_ns_per_race_get", "ns", INDEX_HOST),
    host("index.host_ns_per_race_put", "ns", INDEX_HOST),
    sim(
        "txn.sim_lock_ns_per_txn",
        "ns",
        "sim_p50_us @ direct_rmw; sim_tps @ coherent_rw; flat @ fit_read, thrash_mix",
    ),
    sim(
        "txn.lock_wait_ns_per_txn",
        "ns",
        "sim_p999_us @ direct_rmw; flat @ fit_read, thrash_mix",
    ),
    sim(
        "txn.sim_2pc_ns_per_txn",
        "ns",
        "sim_tps @ xshard_2pc; zero elsewhere",
    ),
    sim(
        "txn.abort_share",
        "share",
        "sim_tps @ coherent_rw, xshard_2pc; exactly 1/51 @ direct_rmw",
    ),
    host("txn.host_ns_per_lock_acq_rel", "ns", HOST_TXN),
    host("txn.host_self_ns_per_rmw_2pl", "ns", HOST_TXN),
    host("txn.host_self_ns_per_rmw_occ", "ns", HOST_TXN),
    sim(
        "dsmdb.sim_execute_ns_per_txn",
        "ns",
        "sim_p50_us @ fit_read",
    ),
    sim(
        "dsmdb.sim_coherence_ns_per_txn",
        "ns",
        "sim_p50_us @ coherent_rw",
    ),
    sim(
        "dsmdb.sim_unattributed_ns_per_txn",
        "ns",
        "none; phase `other`, printed so it cannot hide",
    ),
    host(
        "dsmdb.host_self_ns_per_rmw",
        "ns",
        "host_txn_per_s @ all engine workloads",
    ),
    host(
        "dsmdb.host_unattributed_ns_per_rmw",
        "ns",
        "none; ladder residual, zero when the call tree is complete",
    ),
    sim("dsmdb.cross_shard_share", "share", "sim_tps @ xshard_2pc"),
    sim("dsmdb.invals_per_write", "count", "sim_tps @ coherent_rw"),
    sim(
        "dsmdb.sim_p999_us",
        "us",
        "diagnostic: p99.9 over the observed half of the sequence",
    ),
    host(
        "telemetry.host_overhead_ratio",
        "ratio",
        "host_txn_per_s_observed @ all; host_txn_per_s flat",
    ),
    sim(
        "telemetry.flight_events_per_txn",
        "count",
        "host_txn_per_s_observed @ all",
    ),
    sim(
        "telemetry.sim_drift_ns",
        "ns",
        "must be 0: planes cost no virtual time, checked not assumed",
    ),
    host(
        "workload.host_ns_per_txn_gen",
        "ns",
        "none; outside the timed region, shown so a slow generator is visible",
    ),
    host("benchmark.host_slice_spread", "share", UNRESOLVED),
    host("benchmark.host_rep_spread", "share", UNRESOLVED),
    host("benchmark.tracing_overhead_ratio", "ratio", UNRESOLVED),
    sim(
        "benchmark.sim_phase_residual_ns",
        "ns",
        "none; mean sim latency minus every phase metric, per txn",
    ),
    sim(
        "benchmark.failed_share",
        "share",
        "must be 0 on every workload",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::Json;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid json");
        assert_eq!(
            names(&doc, "workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names(&doc, "end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names(&doc, "per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                m.name
            );
        }
        for (entry, m) in doc
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                m.name
            );
        }
        for (entry, w) in doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(
                entry.get("why").and_then(Json::as_str),
                Some(w.why),
                "{}",
                w.name
            );
            assert!(
                w.why.len() <= 200,
                "{} why is {} chars",
                w.name,
                w.why.len()
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count);
    }
}
