//! A remote LSM-tree over the local/remote memory hierarchy (§6).
//!
//! "LSM-based indexing can be worth investigating because it naturally
//! fits the local memory and remote memory hierarchy. For example,
//! LSM-trees can hold filters and fence pointers in compute nodes as they
//! help protect from unnecessary round trips. … e.g., offloading LSM
//! compaction to memory nodes."
//!
//! Structure:
//! * **memtable** — a local `BTreeMap` (compute-node memory, charged as
//!   local work);
//! * **runs** — immutable sorted arrays of `(key, value)` pairs in DSM,
//!   newest first; each run keeps a local [`BloomFilter`] and sparse
//!   *fence pointers* so a lookup costs at most one small READ in the
//!   common case;
//! * **compaction** — merges all runs into one, either on the compute
//!   node (read runs, merge, write back) or *offloaded* to the owning
//!   memory node's weak CPU (one RPC, no bulk transfer) — the §6 trade
//!   measured in experiment C9/C6.
//!
//! Single-writer per tree (one handle owns the memtable), readers can
//! share via cloned run metadata; this matches the per-shard usage in the
//! engine.

use std::collections::BTreeMap;
use std::sync::Arc;

use dsm::{DsmError, DsmLayer, DsmResult, GlobalAddr};
use memnode::OffloadOutput;
use rdma_sim::{Endpoint, Phase};

use crate::bloom::BloomFilter;

/// Entry stride in a run: key + value.
const PAIR: usize = 16;
/// Fence-pointer granularity: one fence per this many entries.
const FENCE_EVERY: usize = 16;
/// Offload function id for remote merge.
pub const OFFLOAD_MERGE_FN: u32 = 0x4C53_4D31; // "LSM1"

/// Metadata for one immutable sorted run (kept in local memory).
#[derive(Debug, Clone)]
struct Run {
    addr: GlobalAddr,
    entries: usize,
    min_key: u64,
    max_key: u64,
    /// Every FENCE_EVERY-th key (plus the last), with its entry index.
    fences: Vec<(u64, usize)>,
    bloom: Arc<BloomFilter>,
}

/// Counters for the C9 metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct LsmStats {
    /// Lookups answered from the memtable.
    pub memtable_hits: u64,
    /// Run probes skipped thanks to the bloom filter.
    pub bloom_skips: u64,
    /// Remote block reads performed.
    pub block_reads: u64,
    /// Flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
}

/// A single-writer LSM tree pinned to one DSM group.
pub struct RemoteLsm {
    layer: Arc<DsmLayer>,
    group: usize,
    memtable: BTreeMap<u64, u64>,
    memtable_limit: usize,
    runs: Vec<Run>, // newest first
    stats: LsmStats,
}

impl RemoteLsm {
    /// A tree whose runs live on DSM group `group`, flushing the memtable
    /// at `memtable_limit` entries.
    pub fn new(layer: &Arc<DsmLayer>, group: usize, memtable_limit: usize) -> Self {
        assert!(memtable_limit >= 1);
        Self {
            layer: layer.clone(),
            group,
            memtable: BTreeMap::new(),
            memtable_limit,
            runs: Vec::new(),
            stats: LsmStats::default(),
        }
    }

    /// Register the merge handler on the layer's memory nodes (call once
    /// per layer before using [`RemoteLsm::compact_offloaded`]).
    pub fn register_offload(layer: &DsmLayer) {
        layer.register_offload(
            OFFLOAD_MERGE_FN,
            Arc::new(|region, arg: &[u8]| {
                // arg: [n_runs u64][(offset u64, entries u64) x n][out_offset u64]
                let n = u64::from_le_bytes(arg[0..8].try_into().unwrap()) as usize;
                let mut runs: Vec<(u64, u64)> = Vec::with_capacity(n);
                for i in 0..n {
                    let base = 8 + i * 16;
                    let off = u64::from_le_bytes(arg[base..base + 8].try_into().unwrap());
                    let cnt =
                        u64::from_le_bytes(arg[base + 8..base + 16].try_into().unwrap());
                    runs.push((off, cnt));
                }
                let out_off =
                    u64::from_le_bytes(arg[8 + n * 16..16 + n * 16].try_into().unwrap());
                // Merge newest-first: first occurrence of a key wins.
                let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
                let mut bytes_scanned = 0u64;
                for &(off, cnt) in &runs {
                    let mut buf = vec![0u8; cnt as usize * PAIR];
                    region.read(off, &mut buf).expect("run in range");
                    bytes_scanned += buf.len() as u64;
                    for pair in buf.chunks_exact(PAIR) {
                        let k = u64::from_le_bytes(pair[0..8].try_into().unwrap());
                        let v = u64::from_le_bytes(pair[8..16].try_into().unwrap());
                        merged.entry(k).or_insert(v);
                    }
                }
                let mut out = Vec::with_capacity(merged.len() * PAIR);
                for (k, v) in &merged {
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
                region.write(out_off, &out).expect("output in range");
                OffloadOutput {
                    // Result: merged entry count + the sorted keys (so the
                    // caller can rebuild bloom/fences without re-reading).
                    data: {
                        let mut d = (merged.len() as u64).to_le_bytes().to_vec();
                        for k in merged.keys() {
                            d.extend_from_slice(&k.to_le_bytes());
                        }
                        d
                    },
                    // ~2 ns per byte scanned at compute speed (merge is
                    // branchy) — scaled by the node's weak factor.
                    work_ns: bytes_scanned * 2,
                }
            }),
        );
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LsmStats {
        self.stats
    }

    /// Number of immutable runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Local-memory footprint of filters + fences, bytes.
    pub fn local_bytes(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.bloom.size_bytes() + r.fences.len() * 16)
            .sum::<usize>()
            + self.memtable.len() * 16
    }

    /// Insert or update.
    pub fn put(&mut self, ep: &Endpoint, key: u64, value: u64) -> DsmResult<()> {
        ep.charge_local(80); // local btree insert
        self.memtable.insert(key, value);
        if self.memtable.len() >= self.memtable_limit {
            self.flush(ep)?;
        }
        Ok(())
    }

    /// Point lookup.
    pub fn get(&mut self, ep: &Endpoint, key: u64) -> DsmResult<Option<u64>> {
        let _span = ep.span(Phase::IndexLookup);
        ep.charge_local(60); // local btree probe
        if let Some(&v) = self.memtable.get(&key) {
            self.stats.memtable_hits += 1;
            return Ok(Some(v));
        }
        // Newest run first.
        for i in 0..self.runs.len() {
            let run = &self.runs[i];
            if key < run.min_key || key > run.max_key {
                continue;
            }
            ep.charge_local(run.bloom.probe_cost_ns());
            if !run.bloom.contains(key) {
                self.stats.bloom_skips += 1;
                continue;
            }
            // Fence pointers narrow the read to one block.
            let block_start = match run.fences.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(f) => run.fences[f].1,
                Err(0) => 0,
                Err(f) => run.fences[f - 1].1,
            };
            ep.charge_local(40); // fence binary search
            let block_len = FENCE_EVERY.min(run.entries - block_start);
            let mut buf = vec![0u8; block_len * PAIR];
            self.layer.read(
                ep,
                run.addr.offset_by((block_start * PAIR) as u64),
                &mut buf,
            )?;
            self.stats.block_reads += 1;
            for pair in buf.chunks_exact(PAIR) {
                let k = u64::from_le_bytes(pair[0..8].try_into().unwrap());
                if k == key {
                    return Ok(Some(u64::from_le_bytes(pair[8..16].try_into().unwrap())));
                }
            }
            // Bloom false positive: key genuinely absent from this run.
        }
        Ok(None)
    }

    fn build_run_meta(addr: GlobalAddr, pairs: &[(u64, u64)]) -> Run {
        let mut bloom = BloomFilter::new(pairs.len(), 10);
        let mut fences = Vec::with_capacity(pairs.len() / FENCE_EVERY + 1);
        for (i, &(k, _)) in pairs.iter().enumerate() {
            bloom.insert(k);
            if i % FENCE_EVERY == 0 {
                fences.push((k, i));
            }
        }
        Run {
            addr,
            entries: pairs.len(),
            min_key: pairs.first().map(|&(k, _)| k).unwrap_or(0),
            max_key: pairs.last().map(|&(k, _)| k).unwrap_or(0),
            fences,
            bloom: Arc::new(bloom),
        }
    }

    /// Flush the memtable into a fresh immutable run.
    pub fn flush(&mut self, ep: &Endpoint) -> DsmResult<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let pairs: Vec<(u64, u64)> = std::mem::take(&mut self.memtable).into_iter().collect();
        let mut body = Vec::with_capacity(pairs.len() * PAIR);
        for &(k, v) in &pairs {
            body.extend_from_slice(&k.to_le_bytes());
            body.extend_from_slice(&v.to_le_bytes());
        }
        let addr = self.layer.alloc_on(self.group, body.len() as u64)?;
        self.layer.write(ep, addr, &body)?;
        self.runs.insert(0, Self::build_run_meta(addr, &pairs));
        self.stats.flushes += 1;
        Ok(())
    }

    /// Compact all runs into one **on the compute node**: reads every run
    /// over the fabric, merges locally, writes the result back.
    pub fn compact_local(&mut self, ep: &Endpoint) -> DsmResult<()> {
        if self.runs.len() <= 1 {
            return Ok(());
        }
        let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
        for run in &self.runs {
            let mut buf = vec![0u8; run.entries * PAIR];
            self.layer.read(ep, run.addr, &mut buf)?;
            ep.charge_local(buf.len() as u64 * 2); // merge work
            for pair in buf.chunks_exact(PAIR) {
                let k = u64::from_le_bytes(pair[0..8].try_into().unwrap());
                let v = u64::from_le_bytes(pair[8..16].try_into().unwrap());
                merged.entry(k).or_insert(v);
            }
        }
        let pairs: Vec<(u64, u64)> = merged.into_iter().collect();
        let mut body = Vec::with_capacity(pairs.len() * PAIR);
        for &(k, v) in &pairs {
            body.extend_from_slice(&k.to_le_bytes());
            body.extend_from_slice(&v.to_le_bytes());
        }
        let addr = self.layer.alloc_on(self.group, body.len().max(PAIR) as u64)?;
        self.layer.write(ep, addr, &body)?;
        self.replace_runs(ep, addr, &pairs)?;
        Ok(())
    }

    /// Compact all runs into one **on the memory node** (§6 offloading):
    /// ships run descriptors, the node merges at weak-CPU speed, only the
    /// merged key list returns.
    pub fn compact_offloaded(&mut self, ep: &Endpoint) -> DsmResult<()> {
        if self.runs.len() <= 1 {
            return Ok(());
        }
        // Output area sized for the worst case (no duplicate keys).
        let total: usize = self.runs.iter().map(|r| r.entries).sum();
        let out_addr = self.layer.alloc_on(self.group, (total * PAIR) as u64)?;

        let mut arg = Vec::new();
        arg.extend_from_slice(&(self.runs.len() as u64).to_le_bytes());
        for run in &self.runs {
            arg.extend_from_slice(&run.addr.offset().to_le_bytes());
            arg.extend_from_slice(&(run.entries as u64).to_le_bytes());
        }
        arg.extend_from_slice(&out_addr.offset().to_le_bytes());

        let reply = self.layer.offload(ep, out_addr, OFFLOAD_MERGE_FN, &arg)?;
        let n = u64::from_le_bytes(reply[0..8].try_into().unwrap()) as usize;
        // Rebuild local metadata from the returned key list; values stay
        // remote (we never shipped them).
        let keys: Vec<u64> = reply[8..]
            .chunks_exact(8)
            .take(n)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 0)).collect();
        let mut run = Self::build_run_meta(out_addr, &pairs);
        run.entries = n;
        self.replace_runs_meta(ep, run)?;
        Ok(())
    }

    fn replace_runs(&mut self, ep: &Endpoint, addr: GlobalAddr, pairs: &[(u64, u64)]) -> DsmResult<()> {
        let run = Self::build_run_meta(addr, pairs);
        self.replace_runs_meta(ep, run)
    }

    fn replace_runs_meta(&mut self, _ep: &Endpoint, run: Run) -> DsmResult<()> {
        for old in self.runs.drain(..) {
            // Free the old run's extent; tolerate already-freed errors in
            // degraded scenarios.
            match self.layer.free(old.addr) {
                Ok(()) | Err(DsmError::Alloc(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.runs.push(run);
        self.stats.compactions += 1;
        Ok(())
    }
}

impl std::fmt::Debug for RemoteLsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteLsm")
            .field("memtable", &self.memtable.len())
            .field("runs", &self.runs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::DsmConfig;
    use rdma_sim::{Fabric, NetworkProfile};

    fn layer() -> Arc<DsmLayer> {
        let fabric = Fabric::new(NetworkProfile::rdma_cx6());
        let l = DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 1,
                capacity_per_node: 16 << 20,
                replication: 1,
                mem_cores: 2,
            },
        );
        RemoteLsm::register_offload(&l);
        l
    }

    #[test]
    fn put_get_through_memtable_and_runs() {
        let l = layer();
        let ep = l.fabric().endpoint();
        let mut t = RemoteLsm::new(&l, 0, 64);
        for k in 0..500u64 {
            t.put(&ep, k, k + 1).unwrap();
        }
        assert!(t.run_count() > 2, "flushes happened");
        for k in (0..500u64).step_by(7) {
            assert_eq!(t.get(&ep, k).unwrap(), Some(k + 1), "key {k}");
        }
        assert_eq!(t.get(&ep, 10_000).unwrap(), None);
    }

    #[test]
    fn newest_value_wins_across_runs() {
        let l = layer();
        let ep = l.fabric().endpoint();
        let mut t = RemoteLsm::new(&l, 0, 4);
        t.put(&ep, 1, 100).unwrap();
        for k in 10..14u64 {
            t.put(&ep, k, k).unwrap(); // forces a flush containing key 1
        }
        t.put(&ep, 1, 200).unwrap(); // newer value in memtable/new run
        for k in 20..24u64 {
            t.put(&ep, k, k).unwrap();
        }
        assert_eq!(t.get(&ep, 1).unwrap(), Some(200));
        t.compact_local(&ep).unwrap();
        assert_eq!(t.run_count(), 1);
        assert_eq!(t.get(&ep, 1).unwrap(), Some(200), "survives compaction");
    }

    #[test]
    fn bloom_filters_save_round_trips() {
        let l = layer();
        let ep = l.fabric().endpoint();
        let mut t = RemoteLsm::new(&l, 0, 128);
        // Two runs with interleaved ranges (even vs odd keys) so the
        // min/max fence cannot rule either out — only the bloom can.
        for k in 0..128u64 {
            t.put(&ep, k * 2, k).unwrap();
        }
        for k in 0..128u64 {
            t.put(&ep, k * 2 + 1, k).unwrap();
        }
        t.flush(&ep).unwrap();
        let before = t.stats().block_reads;
        // Lookups for keys only in the *old* run should bloom-skip the
        // new run: block reads ~= lookups, not 2x.
        for k in 0..64u64 {
            t.get(&ep, k * 2).unwrap();
        }
        let reads = t.stats().block_reads - before;
        assert!(reads <= 70, "{reads} block reads for 64 lookups");
        assert!(t.stats().bloom_skips > 40);
    }

    #[test]
    fn offloaded_compaction_matches_local() {
        let l = layer();
        let ep = l.fabric().endpoint();
        let mut t = RemoteLsm::new(&l, 0, 32);
        for k in 0..200u64 {
            t.put(&ep, k, k * 3).unwrap();
        }
        t.flush(&ep).unwrap();
        assert!(t.run_count() > 1);
        t.compact_offloaded(&ep).unwrap();
        assert_eq!(t.run_count(), 1);
        for k in (0..200u64).step_by(11) {
            assert_eq!(t.get(&ep, k).unwrap(), Some(k * 3), "key {k}");
        }
    }

    #[test]
    fn offloaded_compaction_moves_fewer_bytes() {
        let build = |l: &Arc<DsmLayer>| {
            let ep = l.fabric().endpoint();
            let mut t = RemoteLsm::new(l, 0, 256);
            for k in 0..2_000u64 {
                t.put(&ep, k, k).unwrap();
            }
            t.flush(&ep).unwrap();
            t
        };
        let l1 = layer();
        let mut local = build(&l1);
        let ep_l = l1.fabric().endpoint();
        local.compact_local(&ep_l).unwrap();

        let l2 = layer();
        let mut off = build(&l2);
        let ep_o = l2.fabric().endpoint();
        off.compact_offloaded(&ep_o).unwrap();

        let bytes_local = ep_l.stats().total_bytes();
        let bytes_off = ep_o.stats().total_bytes();
        assert!(
            bytes_off < bytes_local / 2,
            "offload moved {bytes_off} vs local {bytes_local}"
        );
    }

    #[test]
    fn local_footprint_accounts_filters_and_fences() {
        let l = layer();
        let ep = l.fabric().endpoint();
        let mut t = RemoteLsm::new(&l, 0, 512);
        for k in 0..512u64 {
            t.put(&ep, k, k).unwrap();
        }
        assert!(t.local_bytes() > 512); // bloom at 10 bits/key alone
    }
}
