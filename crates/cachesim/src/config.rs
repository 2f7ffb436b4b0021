//! Machine configurations.

use crate::cache::CacheConfig;
use crate::SimError;

/// The processor and memory-hierarchy parameters of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// L1 data cache geometry.
    pub l1_data: CacheConfig,
    /// Unified L2 cache geometry.
    pub l2: CacheConfig,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Main-memory latency in cycles.
    pub memory_latency: u64,
    /// Instructions issued per cycle by the in-order core.
    pub issue_width: u64,
}

impl MachineConfig {
    /// The machine the paper models with SimpleScalar: a 2-issue embedded
    /// processor, 8 KB 2-way L1 data cache with 32-byte lines, a unified
    /// 64 KB 4-way L2 with 64-byte lines, and 1 / 6 / 70-cycle latencies.
    pub fn date05() -> Self {
        MachineConfig {
            l1_data: CacheConfig::new(8 * 1024, 2, 32).expect("valid L1 geometry"),
            l2: CacheConfig::new(64 * 1024, 4, 64).expect("valid L2 geometry"),
            l1_latency: 1,
            l2_latency: 6,
            memory_latency: 70,
            issue_width: 2,
        }
    }

    /// A deliberately tiny hierarchy useful in unit tests (misses are easy
    /// to provoke).
    pub fn tiny() -> Self {
        MachineConfig {
            l1_data: CacheConfig::new(256, 2, 32).expect("valid L1 geometry"),
            l2: CacheConfig::new(1024, 2, 64).expect("valid L2 geometry"),
            l1_latency: 1,
            l2_latency: 6,
            memory_latency: 70,
            issue_width: 2,
        }
    }

    /// The latencies of an access served by L2 (`l1 + l2`) and of one
    /// served by memory (`l1 + l2 + memory`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidMachineConfig`] when a sum overflows.
    pub(crate) fn miss_latencies(&self) -> crate::Result<(u64, u64)> {
        let overflow = || {
            SimError::InvalidMachineConfig(format!(
                "latencies {} + {} + {} cycles overflow a u64",
                self.l1_latency, self.l2_latency, self.memory_latency
            ))
        };
        let l2_hit = self
            .l1_latency
            .checked_add(self.l2_latency)
            .ok_or_else(overflow)?;
        let memory = l2_hit
            .checked_add(self.memory_latency)
            .ok_or_else(overflow)?;
        Ok((l2_hit, memory))
    }

    /// Re-runs [`CacheConfig::new`]'s checks on both levels and
    /// [`MachineConfig::miss_latencies`]'s, for configurations built as
    /// struct literals.
    pub(crate) fn validated(self) -> crate::Result<Self> {
        self.miss_latencies()?;
        Ok(MachineConfig {
            l1_data: self.l1_data.validated()?,
            l2: self.l2.validated()?,
            ..self
        })
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::date05()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date05_matches_the_paper() {
        let c = MachineConfig::date05();
        assert_eq!(c.l1_data.size_bytes, 8 * 1024);
        assert_eq!(c.l1_data.associativity, 2);
        assert_eq!(c.l1_data.line_bytes, 32);
        assert_eq!(c.l2.size_bytes, 64 * 1024);
        assert_eq!(c.l2.associativity, 4);
        assert_eq!(c.l2.line_bytes, 64);
        assert_eq!(c.l1_latency, 1);
        assert_eq!(c.l2_latency, 6);
        assert_eq!(c.memory_latency, 70);
        assert_eq!(c.issue_width, 2);
        assert_eq!(MachineConfig::default(), c);
    }

    #[test]
    fn overflowing_latencies_are_rejected() {
        let date05 = MachineConfig::date05();
        assert_eq!(date05.miss_latencies(), Ok((7, 77)));
        assert_eq!(date05.validated(), Ok(date05));
        for machine in [
            MachineConfig {
                memory_latency: u64::MAX - 3,
                ..date05
            },
            MachineConfig {
                l2_latency: u64::MAX,
                memory_latency: 0,
                ..date05
            },
        ] {
            assert!(matches!(
                machine.validated(),
                Err(SimError::InvalidMachineConfig(msg)) if msg.contains("overflow")
            ));
        }
        let largest = MachineConfig {
            l1_latency: 0,
            l2_latency: 0,
            memory_latency: u64::MAX,
            ..date05
        };
        assert_eq!(largest.miss_latencies(), Ok((0, u64::MAX)));
    }

    #[test]
    fn tiny_is_smaller_than_date05() {
        let t = MachineConfig::tiny();
        assert!(t.l1_data.size_bytes < MachineConfig::date05().l1_data.size_bytes);
    }
}
