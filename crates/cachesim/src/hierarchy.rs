//! The two-level data-cache hierarchy plus main memory.

use crate::cache::{AccessOutcome, Cache};
use crate::config::MachineConfig;
use crate::stats::CacheStats;

/// Where an access was finally served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyOutcome {
    /// Served by the L1 data cache.
    L1Hit,
    /// Missed L1, served by the unified L2.
    L2Hit,
    /// Missed both caches, served by main memory.
    MemoryAccess,
}

/// L1 data cache, unified L2 and main memory with the configured latencies.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: MachineConfig,
    l1_data: Cache,
    l2: Cache,
    /// `l1 + l2` latency.
    l2_hit_latency: u64,
    /// `l1 + l2 + memory` latency.
    memory_access_latency: u64,
}

impl MemoryHierarchy {
    /// Creates an empty hierarchy for the given machine.
    ///
    /// # Panics
    ///
    /// Panics if a cache level has a geometry [`CacheConfig::new`] rejects,
    /// or if the latency of an access served by memory (`l1 + l2 + memory`)
    /// overflows a `u64`.  [`Simulator::simulate`] returns both as errors.
    ///
    /// [`CacheConfig::new`]: crate::CacheConfig::new
    /// [`Simulator::simulate`]: crate::Simulator::simulate
    pub fn new(config: MachineConfig) -> Self {
        let (l2_hit_latency, memory_access_latency) =
            config.miss_latencies().unwrap_or_else(|e| panic!("{e}"));
        MemoryHierarchy {
            l1_data: Cache::new(config.l1_data),
            l2: Cache::new(config.l2),
            config,
            l2_hit_latency,
            memory_access_latency,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Performs one data access and returns where it was served from and
    /// its latency in cycles.
    #[inline]
    pub fn access(&mut self, address: u64) -> (HierarchyOutcome, u64) {
        match self.l1_data.access(address) {
            AccessOutcome::Hit => (HierarchyOutcome::L1Hit, self.config.l1_latency),
            AccessOutcome::Miss => match self.l2.access(address) {
                AccessOutcome::Hit => (HierarchyOutcome::L2Hit, self.l2_hit_latency),
                AccessOutcome::Miss => (HierarchyOutcome::MemoryAccess, self.memory_access_latency),
            },
        }
    }

    /// L1 data-cache statistics.
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1_data.stats()
    }

    /// L2 statistics (accesses are L1 misses only).
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Empties both caches, keeping statistics.
    pub fn flush(&mut self) {
        self.l1_data.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_levels() {
        let mut h = MemoryHierarchy::new(MachineConfig::date05());
        // Cold miss goes to memory.
        let (where_from, lat) = h.access(0);
        assert_eq!(where_from, HierarchyOutcome::MemoryAccess);
        assert_eq!(lat, 1 + 6 + 70);
        // Immediately after, the same line hits in L1.
        let (where_from, lat) = h.access(4);
        assert_eq!(where_from, HierarchyOutcome::L1Hit);
        assert_eq!(lat, 1);
    }

    #[test]
    fn l2_serves_l1_conflict_misses() {
        // Two addresses that conflict in L1 (stride = L1 size) but coexist
        // in the larger, more associative L2.
        let cfg = MachineConfig::tiny();
        let stride = cfg.l1_data.size_bytes; // same L1 set, different L2 set or way
        let mut h = MemoryHierarchy::new(cfg);
        // Warm both lines (memory accesses).
        h.access(0);
        h.access(stride);
        h.access(2 * stride);
        // Re-access: L1 (2-way) cannot hold all three, L2 can.
        let (outcome, lat) = h.access(0);
        assert_eq!(outcome, HierarchyOutcome::L2Hit);
        assert_eq!(lat, 1 + 6);
        assert!(h.l2_stats().accesses > 0);
        assert!(h.l1_stats().misses >= 4);
    }

    #[test]
    #[should_panic(expected = "invalid machine configuration")]
    fn new_rejects_overflowing_latencies() {
        MemoryHierarchy::new(MachineConfig {
            memory_latency: u64::MAX - 3,
            ..MachineConfig::date05()
        });
    }

    #[test]
    fn flush_forces_memory_accesses_again() {
        let mut h = MemoryHierarchy::new(MachineConfig::tiny());
        h.access(64);
        h.flush();
        let (outcome, _) = h.access(64);
        assert_eq!(outcome, HierarchyOutcome::MemoryAccess);
    }
}
