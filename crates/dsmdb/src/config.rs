//! Cluster configuration: the experiment knobs. What follows from a knob
//! is derived, not set: the records' version count from the protocol
//! ([`CcProtocol::versions`]).

use rdma_sim::NetworkProfile;

/// The Figure 3 design axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// Fig. 3a: no local cache, no sharding; pure one-sided access.
    NoCacheNoShard,
    /// Fig. 3b: per-node cache + software coherence; no sharding.
    CacheNoShard(CoherenceMode),
    /// Fig. 3c: logical sharding; owner-local caching, cross-shard
    /// last-agent 2PC.
    CacheShard,
}

/// Software cache-coherence flavour for [`Architecture::CacheNoShard`]
/// (§4 Approach #2: "invalidation- vs. update-based"). Only invalidation
/// is built: the update-based flavour lost or tied on every measured mix
/// and could leave a remote copy holding a value that never committed
/// (EXPERIMENTS.md, "Update mode deleted"). The one variant stays because
/// the standalone benchmark workspace names it; nothing here matches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceMode {
    /// Writers invalidate remote cached copies (copies refetch on demand).
    Invalidate,
}

/// Concurrency-control protocol selection (§4 Challenge 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcProtocol {
    /// 2PL with 1-RT exclusive locks for all accesses.
    TplExclusive,
    /// 2PL with one-word shared-exclusive locks (readers share).
    TplSharedExclusive,
    /// Optimistic CC with version validation.
    Occ,
    /// Timestamp ordering (FAA oracle).
    Tso,
    /// Multi-version CC (FAA oracle): every record keeps
    /// [`MVCC_VERSIONS`] versions.
    Mvcc,
}

/// In-record versions under [`CcProtocol::Mvcc`]: enough for a reader to
/// find a snapshot while writers install newer ones.
pub const MVCC_VERSIONS: usize = 4;

impl CcProtocol {
    /// In-record versions the protocol needs: [`MVCC_VERSIONS`] for MVCC,
    /// one for every single-version protocol.
    pub fn versions(self) -> usize {
        if self == CcProtocol::Mvcc { MVCC_VERSIONS } else { 1 }
    }
}

/// Everything needed to build a [`crate::Cluster`]. The records' version
/// count is not a setting: it follows from `cc` ([`CcProtocol::versions`]).
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Compute nodes (multi-master width). Max 64 (sharer bitmap).
    pub compute_nodes: usize,
    /// Worker threads per compute node.
    pub threads_per_node: usize,
    /// Memory nodes forming the DSM layer.
    pub memory_nodes: usize,
    /// DSM replication factor (mirror-group size).
    pub replication: usize,
    /// Capacity per memory node, bytes.
    pub capacity_per_node: usize,
    /// Records in the (single) table.
    pub n_records: u64,
    /// Payload bytes per record.
    pub payload_size: usize,
    /// Local buffer-pool frames per compute node (caching architectures).
    pub cache_frames: usize,
    /// Network tier.
    pub profile: NetworkProfile,
    /// Figure 3 architecture.
    pub architecture: Architecture,
    /// CC protocol.
    pub cc: CcProtocol,
    /// Lease horizon of every lock word a session takes, virtual ns, or
    /// `None` for plain (unleased) words. Leased, a crashed owner's words
    /// are stolen once its lease runs out, and a writing transaction
    /// re-reads its words before it writes (3a exclusive 2PL only). Must
    /// exceed the worst-case lock-hold time of a healthy transaction;
    /// only crashed/stalled holders lose their leases.
    pub lease_ns: Option<u64>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            compute_nodes: 2,
            threads_per_node: 2,
            memory_nodes: 2,
            replication: 1,
            capacity_per_node: 32 << 20,
            n_records: 10_000,
            payload_size: 64,
            cache_frames: 1_024,
            profile: NetworkProfile::rdma_cx6(),
            architecture: Architecture::NoCacheNoShard,
            cc: CcProtocol::TplExclusive,
            lease_ns: None,
        }
    }
}

impl ClusterConfig {
    /// Panic-with-context validation of cross-field constraints.
    pub fn validate(&self) {
        assert!(self.compute_nodes >= 1 && self.compute_nodes <= 64);
        assert!(self.threads_per_node >= 1);
        assert!(self.n_records >= 1);
        assert!(self.payload_size >= 8, "payload must hold the i64 counter");
        if let Some(lease_ns) = self.lease_ns {
            assert!(lease_ns > 0, "lease horizon must be positive");
            assert!(
                matches!(self.architecture, Architecture::NoCacheNoShard),
                "leased locking fences its writes with a re-read of its lock words \
                 and requires the no-cache architecture"
            );
            assert!(self.cc == CcProtocol::TplExclusive, "leases are taken by exclusive 2PL only");
        }
        if matches!(self.architecture, Architecture::CacheNoShard(_)) {
            assert!(
                matches!(self.cc, CcProtocol::TplExclusive),
                "coherent caching requires exclusive lock-based CC: a record's sharer \
                 word belongs to the holder of its exclusive lock (see DESIGN.md)"
            );
        }
        if matches!(self.architecture, Architecture::CacheShard) {
            assert!(
                matches!(self.cc, CcProtocol::TplExclusive),
                "the sharded engine uses owner-local locking"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// MVCC keeps four versions per record; every other protocol one.
    #[test]
    fn the_version_count_follows_from_the_protocol() {
        assert_eq!(CcProtocol::Mvcc.versions(), 4);
        for cc in [CcProtocol::TplExclusive, CcProtocol::TplSharedExclusive, CcProtocol::Occ, CcProtocol::Tso] {
            assert_eq!(cc.versions(), 1, "{cc:?}");
        }
    }

    #[test]
    fn default_config_is_valid() {
        ClusterConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "lock-based CC")]
    fn coherent_cache_rejects_occ() {
        ClusterConfig {
            architecture: Architecture::CacheNoShard(CoherenceMode::Invalidate),
            cc: CcProtocol::Occ,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "exclusive lock-based CC")]
    fn coherent_cache_rejects_shared_exclusive_locks() {
        // Only the holder of a record's exclusive lock may write its
        // sharer word, and a shared-exclusive lock's readers hold none.
        ClusterConfig {
            architecture: Architecture::CacheNoShard(CoherenceMode::Invalidate),
            cc: CcProtocol::TplSharedExclusive,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "no-cache architecture")]
    fn leased_locking_rejects_cached_architectures() {
        ClusterConfig {
            architecture: Architecture::CacheNoShard(CoherenceMode::Invalidate),
            lease_ns: Some(2_000_000),
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "exclusive 2PL only")]
    fn leased_locking_rejects_other_protocols() {
        ClusterConfig {
            cc: CcProtocol::Occ,
            lease_ns: Some(2_000_000),
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn leased_locking_valid_on_no_cache() {
        ClusterConfig {
            lease_ns: Some(2_000_000),
            ..Default::default()
        }
        .validate();
    }
}
