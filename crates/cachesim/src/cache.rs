//! A single set-associative cache with true-LRU replacement.

use crate::stats::CacheStats;
use crate::SimError;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u64,
    /// Line (block) size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Creates a configuration after validating it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidCacheConfig`] if any parameter is zero, the
    /// line size or set count is not a power of two, or the capacity is not
    /// divisible by `associativity × line_bytes`.
    pub fn new(size_bytes: u64, associativity: u64, line_bytes: u64) -> crate::Result<Self> {
        if size_bytes == 0 || associativity == 0 || line_bytes == 0 {
            return Err(SimError::InvalidCacheConfig(
                "size, associativity and line size must be non-zero".into(),
            ));
        }
        if !line_bytes.is_power_of_two() {
            return Err(SimError::InvalidCacheConfig(format!(
                "line size {line_bytes} is not a power of two"
            )));
        }
        let set_bytes = associativity.checked_mul(line_bytes);
        let Some(set_bytes) = set_bytes.filter(|&b| size_bytes.is_multiple_of(b)) else {
            return Err(SimError::InvalidCacheConfig(format!(
                "capacity {size_bytes} is not divisible by associativity {associativity} x line {line_bytes}"
            )));
        };
        let sets = size_bytes / set_bytes;
        if !sets.is_power_of_two() {
            return Err(SimError::InvalidCacheConfig(format!(
                "set count {sets} is not a power of two"
            )));
        }
        Ok(CacheConfig {
            size_bytes,
            associativity,
            line_bytes,
        })
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.associativity * self.line_bytes)
    }

    /// Re-runs [`CacheConfig::new`]'s checks, for configurations built as
    /// struct literals.
    pub(crate) fn validated(self) -> crate::Result<Self> {
        CacheConfig::new(self.size_bytes, self.associativity, self.line_bytes)
    }
}

/// Whether an access hit or missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled.
    Miss,
}

/// One set-associative cache with true-LRU replacement.
///
/// The tags live in one flat array of `sets × ways` slots, each set most
/// recently used first.  An empty way holds a sentinel that no resident tag
/// equals, and empty ways always trail the resident ones.  An access checks
/// the most recently used slot, then shifts the set down by one slot while
/// it searches, carrying the new tag in at the front: a hit stops at the
/// slot the tag left, and a miss pushes the last slot out, which evicts a
/// line unless that slot was empty.  Set and tag come from shifts and a
/// mask, since line size and set count are powers of two.
///
/// # Examples
///
/// ```
/// use mlo_cachesim::{Cache, CacheConfig, AccessOutcome};
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 32).unwrap());
/// assert_eq!(c.access(0), AccessOutcome::Miss);
/// assert_eq!(c.access(4), AccessOutcome::Hit);   // same 32-byte line
/// assert_eq!(c.access(32), AccessOutcome::Miss); // next line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    ways: usize,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    /// Set `s` owns slots `s * ways .. (s + 1) * ways`.
    tags: Vec<u64>,
    /// The tag of an empty way.  Tags are at most `u64::MAX >> (line_shift
    /// + set_shift)`, so only a single set of 1-byte lines can meet it; such
    /// an access moves it first (see [`Cache::move_empty`]).
    empty: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::new`] would reject the geometry (a
    /// struct literal can bypass it).
    pub fn new(config: CacheConfig) -> Self {
        let config = config.validated().unwrap_or_else(|e| panic!("{e}"));
        let sets = config.sets();
        let ways = config.associativity as usize;
        Cache {
            config,
            ways,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets - 1,
            tags: vec![u64::MAX; sets as usize * ways],
            empty: u64::MAX,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Accesses a byte address, updating LRU state and statistics.
    #[inline]
    pub fn access(&mut self, address: u64) -> AccessOutcome {
        let line = address >> self.line_shift;
        let tag = line >> self.set_shift;
        if tag == self.empty {
            self.move_empty();
        }
        let start = (line & self.set_mask) as usize * self.ways;
        let slots = &mut self.tags[start..start + self.ways];
        self.stats.accesses += 1;
        if slots[0] == tag {
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }
        let mut carried = tag;
        for slot in slots.iter_mut() {
            let displaced = std::mem::replace(slot, carried);
            if displaced == tag {
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }
            carried = displaced;
        }
        self.stats.misses += 1;
        if carried != self.empty {
            self.stats.evictions += 1;
        }
        AccessOutcome::Miss
    }

    /// Gives empty ways a sentinel that is neither resident nor the current
    /// one (which an access is about to bring in).  Of the `slots + 1`
    /// values counted down from it, one is free.
    #[cold]
    #[inline(never)]
    fn move_empty(&mut self) {
        let candidates = self.tags.len() + 1;
        let mut taken = vec![false; candidates];
        for &tag in &self.tags {
            let distance = self.empty.wrapping_sub(tag);
            if (1..=candidates as u64).contains(&distance) {
                taken[distance as usize - 1] = true;
            }
        }
        let free = taken
            .iter()
            .position(|&taken| !taken)
            .expect("slots + 1 candidates cannot all be resident");
        let fresh = self.empty.wrapping_sub(free as u64 + 1);
        for tag in &mut self.tags {
            if *tag == self.empty {
                *tag = fresh;
            }
        }
        self.empty = fresh;
    }

    /// Empties the cache (statistics are kept).
    pub fn flush(&mut self) {
        self.tags.fill(self.empty);
    }

    /// Resets the statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn config_validation() {
        assert!(CacheConfig::new(8 * 1024, 2, 32).is_ok());
        assert!(CacheConfig::new(0, 2, 32).is_err());
        assert!(CacheConfig::new(1024, 0, 32).is_err());
        assert!(CacheConfig::new(1024, 2, 0).is_err());
        assert!(CacheConfig::new(1024, 2, 33).is_err());
        assert!(CacheConfig::new(96, 3, 32).is_ok());
        assert!(CacheConfig::new(1000, 2, 32).is_err());
        assert_eq!(CacheConfig::new(8 * 1024, 2, 32).unwrap().sets(), 128);
    }

    #[test]
    #[should_panic(expected = "set count 3 is not a power of two")]
    fn new_rejects_geometries_that_bypass_validation() {
        Cache::new(CacheConfig {
            size_bytes: 3 * 2 * 32,
            associativity: 2,
            line_bytes: 32,
        });
    }

    #[test]
    fn huge_geometries_are_rejected_without_overflow() {
        assert!(CacheConfig::new(1 << 20, u64::MAX, 1 << 4).is_err());
    }

    #[test]
    fn spatial_locality_hits_within_a_line() {
        let mut c = Cache::new(CacheConfig::new(1024, 2, 32).unwrap());
        assert_eq!(c.access(100), AccessOutcome::Miss);
        for offset in 96..128 {
            if offset != 100 {
                assert_eq!(c.access(offset), AccessOutcome::Hit, "offset {offset}");
            }
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 32);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Direct-mapped-like scenario: 2-way set; three conflicting lines.
        let cfg = CacheConfig::new(64, 2, 32).unwrap(); // 1 set, 2 ways
        let mut c = Cache::new(cfg);
        assert_eq!(c.access(0), AccessOutcome::Miss); // line A
        assert_eq!(c.access(32), AccessOutcome::Miss); // line B
        assert_eq!(c.access(0), AccessOutcome::Hit); // A is MRU now
        assert_eq!(c.access(64), AccessOutcome::Miss); // line C evicts B
        assert_eq!(c.access(0), AccessOutcome::Hit); // A still resident
        assert_eq!(c.access(32), AccessOutcome::Miss); // B was evicted
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn flush_and_reset() {
        let mut c = Cache::new(CacheConfig::new(64, 2, 32).unwrap());
        c.access(0);
        c.access(0);
        assert_eq!(c.stats().hits, 1);
        c.flush();
        assert_eq!(c.access(0), AccessOutcome::Miss);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn conflict_misses_depend_on_associativity() {
        // Two addresses mapping to the same set: a direct-mapped cache
        // thrashes, a 2-way cache does not.
        let direct = CacheConfig::new(1024, 1, 32).unwrap();
        let two_way = CacheConfig::new(1024, 2, 32).unwrap();
        let stride = 1024; // same set in both configurations
        let mut dm = Cache::new(direct);
        let mut sa = Cache::new(two_way);
        for _ in 0..10 {
            dm.access(0);
            dm.access(stride);
            sa.access(0);
            sa.access(stride);
        }
        assert!(dm.stats().misses > sa.stats().misses);
        assert_eq!(sa.stats().misses, 2);
    }

    proptest! {
        #[test]
        fn hits_plus_misses_equals_accesses(addrs in proptest::collection::vec(0u64..4096, 1..200)) {
            let mut c = Cache::new(CacheConfig::new(512, 2, 32).unwrap());
            for a in &addrs {
                c.access(*a);
            }
            let s = c.stats();
            prop_assert_eq!(s.hits + s.misses, s.accesses);
            prop_assert_eq!(s.accesses, addrs.len() as u64);
        }

        #[test]
        fn bigger_cache_never_misses_more_on_repeated_scans(
            lines in 1u64..64,
        ) {
            // Scan a working set twice; a cache with more capacity (same
            // assoc/line) must not produce more misses.
            let addrs: Vec<u64> = (0..lines).flat_map(|l| vec![l * 32]).collect();
            let mut small = Cache::new(CacheConfig::new(256, 2, 32).unwrap());
            let mut large = Cache::new(CacheConfig::new(4096, 2, 32).unwrap());
            for _ in 0..2 {
                for &a in &addrs {
                    small.access(a);
                    large.access(a);
                }
            }
            prop_assert!(large.stats().misses <= small.stats().misses);
        }
    }
}
