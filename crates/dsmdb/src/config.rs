//! Cluster configuration: the experiment knobs.

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
/// (§4 Approach #2: "invalidation- vs. update-based").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceMode {
    /// Writers invalidate remote cached copies (copies refetch on demand).
    Invalidate,
    /// Writers push the new value into remote cached copies.
    Update,
}

/// Concurrency-control protocol selection (§4 Challenge 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcProtocol {
    /// 2PL with 1-RT exclusive locks for all accesses.
    TplExclusive,
    /// 2PL with 2-RT shared-exclusive locks (readers share).
    TplSharedExclusive,
    /// 2PL over lease locks: buffered writes, commit-time revalidation,
    /// crashed owners' locks stealable after lease expiry.
    TplLeased,
    /// Optimistic CC with version validation.
    Occ,
    /// Timestamp ordering (FAA oracle).
    Tso,
    /// Multi-version CC (FAA oracle; requires `versions >= 2`).
    Mvcc,
}

/// Everything needed to build a [`crate::Cluster`].
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
    /// In-record versions (>= 2 enables MVCC).
    pub versions: usize,
    /// Local buffer-pool frames per compute node (caching architectures).
    pub cache_frames: usize,
    /// Network tier.
    pub profile: NetworkProfile,
    /// Figure 3 architecture.
    pub architecture: Architecture,
    /// CC protocol.
    pub cc: CcProtocol,
    /// Lease horizon for [`CcProtocol::TplLeased`] locks, virtual ns.
    /// Must exceed the worst-case lock-hold time of a healthy
    /// transaction; only crashed/stalled holders lose their leases.
    pub lease_ns: u64,
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
            versions: 1,
            cache_frames: 1_024,
            profile: NetworkProfile::rdma_cx6(),
            architecture: Architecture::NoCacheNoShard,
            cc: CcProtocol::TplExclusive,
            lease_ns: 2_000_000,
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
        if self.cc == CcProtocol::Mvcc {
            assert!(self.versions >= 2, "MVCC needs >= 2 versions");
        }
        if self.cc == CcProtocol::TplLeased {
            assert!(self.lease_ns > 0, "lease horizon must be positive");
            assert!(
                matches!(self.architecture, Architecture::NoCacheNoShard),
                "leased locking commits via one direct doorbell write and \
                 requires the no-cache architecture"
            );
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

    #[test]
    fn default_config_is_valid() {
        ClusterConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "MVCC needs")]
    fn mvcc_requires_versions() {
        ClusterConfig {
            cc: CcProtocol::Mvcc,
            versions: 1,
            ..Default::default()
        }
        .validate();
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
        // Shared-exclusive 2PL keeps its holder count in the very word the
        // coherent cache keeps its sharers in.
        ClusterConfig {
            architecture: Architecture::CacheNoShard(CoherenceMode::Update),
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
            cc: CcProtocol::TplLeased,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn leased_locking_valid_on_no_cache() {
        ClusterConfig {
            cc: CcProtocol::TplLeased,
            ..Default::default()
        }
        .validate();
    }
}
