//! Logical sharding for the Figure 3c architecture.
//!
//! §4 Approach #3: "each compute node maintains sharding information
//! (e.g., range information) of the data it is responsible for … if a new
//! compute node is added, only the metadata (e.g., range information) is
//! copied into the new node without physically moving data."
//!
//! [`ShardMap`] is that metadata: split points over the key space mapping
//! ranges to owner compute nodes, versioned so stale copies are
//! detectable. [`LockTable`] is the owner-local no-wait lock table used
//! instead of remote RDMA locks for owned keys — the "best leverage local
//! memory" property of the sharded design.

use std::sync::atomic::{AtomicU64, Ordering};

use dsm::U64Map;
use parking_lot::{Mutex, RwLock};

/// Versioned range-to-owner map. Cheap to clone (metadata-only
/// resharding is the whole point).
#[derive(Debug)]
pub struct ShardMap {
    inner: RwLock<MapInner>,
    version: AtomicU64,
}

#[derive(Debug, Clone)]
struct MapInner {
    /// Sorted range starts; `starts[i]` owns keys `[starts[i], starts[i+1])`.
    starts: Vec<u64>,
    /// Owner compute node per range.
    owners: Vec<usize>,
    keyspace: u64,
}

impl ShardMap {
    /// Equal range split of `[0, keyspace)` over `nodes` owners.
    pub fn equal(nodes: usize, keyspace: u64) -> Self {
        assert!(nodes >= 1 && keyspace >= nodes as u64);
        let per = keyspace / nodes as u64;
        let starts = (0..nodes).map(|i| i as u64 * per).collect();
        let owners = (0..nodes).collect();
        Self {
            inner: RwLock::new(MapInner {
                starts,
                owners,
                keyspace,
            }),
            version: AtomicU64::new(1),
        }
    }

    /// Current map version (bumped by every reshard).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Owner compute node of `key`.
    pub fn owner_of(&self, key: u64) -> usize {
        let m = self.inner.read();
        assert!(key < m.keyspace, "key {key} outside keyspace");
        let idx = match m.starts.binary_search(&key) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        m.owners[idx]
    }

    /// Reassign `[low, high)` to `new_owner` — metadata only, O(ranges).
    /// Returns the map version after the change.
    pub fn reshard(&self, low: u64, high: u64, new_owner: usize) -> u64 {
        let mut m = self.inner.write();
        assert!(low < high && high <= m.keyspace);
        let old_owner_at = |m: &MapInner, k: u64| -> usize {
            let idx = match m.starts.binary_search(&k) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            m.owners[idx]
        };
        // Candidate boundaries: every old start plus the new range edges;
        // each segment between consecutive boundaries has one owner.
        let mut bounds = m.starts.clone();
        bounds.push(low);
        if high < m.keyspace {
            bounds.push(high);
        }
        bounds.sort_unstable();
        bounds.dedup();
        let mut starts = Vec::with_capacity(bounds.len());
        let mut owners = Vec::with_capacity(bounds.len());
        for &b in &bounds {
            let owner = if b >= low && b < high {
                new_owner
            } else {
                old_owner_at(&m, b)
            };
            if owners.last() == Some(&owner) {
                continue; // merge adjacent same-owner segments
            }
            starts.push(b);
            owners.push(owner);
        }
        m.starts = starts;
        m.owners = owners;
        self.version.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// All keys in `[0, keyspace)` owned by `node` (test helper; O(n)).
    pub fn owned_ranges(&self, node: usize) -> Vec<(u64, u64)> {
        let m = self.inner.read();
        let mut out = Vec::new();
        for i in 0..m.starts.len() {
            if m.owners[i] == node {
                let end = m.starts.get(i + 1).copied().unwrap_or(m.keyspace);
                out.push((m.starts[i], end));
            }
        }
        out
    }
}

/// Owner-local, no-wait lock table (the local half of §4 Challenge 7's
/// local/global split for the sharded architecture). Each held key
/// remembers the holding transaction's trace id so a conflicting
/// attempt learns *who* blocked it — the blocking-edge annotation
/// tail-latency forensics follows.
#[derive(Debug, Default)]
pub struct LockTable {
    locked: Mutex<U64Map<u64>>,
}

impl LockTable {
    /// A fresh table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to lock every key in `keys` (sorted, deduped by the caller)
    /// for the transaction with trace id `trace`. All-or-nothing: on
    /// conflict nothing is held and `Err(holder)` returns the blocking
    /// transaction's trace id (0 when the holder recorded none).
    pub fn try_lock_all(&self, keys: &[u64], trace: u64) -> Result<(), u64> {
        let mut held = self.locked.lock();
        if let Some(&holder) = keys.iter().find_map(|k| held.get(k)) {
            return Err(holder);
        }
        held.extend(keys.iter().map(|&k| (k, trace)));
        Ok(())
    }

    /// Release previously locked keys.
    pub fn unlock_all(&self, keys: &[u64]) {
        let mut held = self.locked.lock();
        for k in keys {
            held.remove(k);
        }
    }

    /// Number of currently held locks (diagnostics).
    pub fn held(&self) -> usize {
        self.locked.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_split_assigns_contiguous_ranges() {
        let m = ShardMap::equal(4, 1000);
        assert_eq!(m.owner_of(0), 0);
        assert_eq!(m.owner_of(249), 0);
        assert_eq!(m.owner_of(250), 1);
        assert_eq!(m.owner_of(999), 3);
    }

    #[test]
    fn reshard_reassigns_only_the_range() {
        let m = ShardMap::equal(4, 1000);
        let v0 = m.version();
        m.reshard(100, 300, 3);
        assert!(m.version() > v0);
        assert_eq!(m.owner_of(99), 0);
        assert_eq!(m.owner_of(100), 3);
        assert_eq!(m.owner_of(299), 3);
        assert_eq!(m.owner_of(300), 1);
        assert_eq!(m.owner_of(999), 3);
    }

    #[test]
    fn reshard_whole_keyspace() {
        let m = ShardMap::equal(2, 100);
        m.reshard(0, 100, 1);
        for k in [0u64, 49, 50, 99] {
            assert_eq!(m.owner_of(k), 1);
        }
        assert_eq!(m.owned_ranges(0), vec![]);
        assert_eq!(m.owned_ranges(1), vec![(0, 100)]);
    }

    #[test]
    fn repeated_reshards_keep_map_consistent() {
        let m = ShardMap::equal(3, 999);
        m.reshard(0, 10, 2);
        m.reshard(5, 500, 1);
        m.reshard(400, 600, 0);
        // Every key has exactly one owner and lookups never panic.
        for k in 0..999u64 {
            let o = m.owner_of(k);
            assert!(o < 3);
        }
        assert_eq!(m.owner_of(5), 1);
        assert_eq!(m.owner_of(450), 0);
        assert_eq!(m.owner_of(399), 1);
    }

    #[test]
    fn lock_table_all_or_nothing_and_names_the_blocker() {
        let t = LockTable::new();
        assert!(t.try_lock_all(&[1, 2, 3], 71).is_ok());
        assert_eq!(t.try_lock_all(&[3, 4], 72), Err(71), "conflict on 3 blames txn 71");
        assert_eq!(t.held(), 3, "failed attempt held nothing");
        assert!(t.try_lock_all(&[4, 5], 72).is_ok());
        t.unlock_all(&[1, 2, 3]);
        assert!(t.try_lock_all(&[3], 73).is_ok());
        assert_eq!(t.held(), 3);
        assert_eq!(t.try_lock_all(&[5], 73), Err(72));
    }
}
