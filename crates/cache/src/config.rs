//! Cache and latency configuration.

use std::fmt;
use std::ops::RangeInclusive;

/// Largest supported cache line. Lines beyond 4 KB exceed anything the
/// modeled machines (or the design-space sweep) can mean: a "cache" with
/// page-sized lines is a different structure, and the address
/// normalization layer's region staggering assumes sub-page lines.
pub const MAX_BLOCK_BYTES: u64 = 4096;

/// A typed rejection of a cache geometry.
///
/// Design-space sweeps enumerate geometries mechanically, so degenerate
/// points (zero ways, page-sized lines, ragged capacities) are expected
/// inputs, not programming errors: [`CacheConfig::try_new`] returns this
/// error and the sweep reports the cell as *skipped* with the reason,
/// instead of a worker panicking mid-wave. [`CacheConfig::new`] keeps
/// its panicking contract for hand-written configurations by panicking
/// with the same messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Size, ways, or block bytes was zero.
    ZeroGeometry {
        /// Total capacity in bytes.
        size_bytes: u64,
        /// Associativity.
        ways: u32,
        /// Line size in bytes.
        block_bytes: u64,
    },
    /// The block size is not a power of two.
    BlockNotPowerOfTwo {
        /// The rejected line size.
        block_bytes: u64,
    },
    /// The block size exceeds [`MAX_BLOCK_BYTES`].
    BlockTooLarge {
        /// The rejected line size.
        block_bytes: u64,
    },
    /// The capacity is not a whole number of sets (`size` not divisible
    /// by `ways * block_bytes`).
    RaggedCapacity {
        /// Total capacity in bytes.
        size_bytes: u64,
        /// Associativity.
        ways: u32,
        /// Line size in bytes.
        block_bytes: u64,
    },
    /// The set count is not a power of two where one is required (the
    /// sweep requires it at L2, whose direct-mapped presets and the
    /// normalization layer's 4 MB index staggering assume pow2 indexing).
    SetsNotPowerOfTwo {
        /// The offending set count.
        sets: u64,
    },
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::ZeroGeometry { size_bytes, ways, block_bytes } => write!(
                f,
                "zero-sized cache ({size_bytes} B, {ways} ways, {block_bytes} B blocks)"
            ),
            CacheConfigError::BlockNotPowerOfTwo { block_bytes } => {
                write!(f, "block size must be a power of two (got {block_bytes} B)")
            }
            CacheConfigError::BlockTooLarge { block_bytes } => write!(
                f,
                "block size must be at most {MAX_BLOCK_BYTES} B (got {block_bytes} B)"
            ),
            CacheConfigError::RaggedCapacity { size_bytes, ways, block_bytes } => write!(
                f,
                "capacity must be a whole number of sets \
                 ({size_bytes} B is not a multiple of {ways} ways x {block_bytes} B blocks)"
            ),
            CacheConfigError::SetsNotPowerOfTwo { sets } => {
                write!(f, "set count must be a power of two here (got {sets} sets)")
            }
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Write handling policy of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Write back with write allocate (the paper's Table 3 policy).
    WriteBackAllocate,
    /// Write through without allocation (stores never fill the cache).
    WriteThroughNoAllocate,
}

/// Geometry and policy of a single cache.
///
/// # Example
///
/// ```
/// use bioperf_cache::CacheConfig;
///
/// let l1 = CacheConfig::new(64 * 1024, 2, 64);
/// assert_eq!(l1.num_sets(), 512);
/// assert_eq!(l1.to_string(), "64 KB 2-way, 64 B blocks");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity; `1` means direct-mapped.
    pub ways: u32,
    /// Block (line) size in bytes; must be a power of two.
    pub block_bytes: u64,
    /// Write policy.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// Creates a write-back/write-allocate configuration.
    ///
    /// The set count need not be a power of two (design-space sweeps may
    /// use odd geometries); non-power-of-two set counts index through
    /// the general divide/modulo path instead of shift+mask.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid: zero sizes, non-power-of-two
    /// block size, or a capacity not divisible by `ways * block_bytes`.
    pub fn new(size_bytes: u64, ways: u32, block_bytes: u64) -> Self {
        match Self::try_new(size_bytes, ways, block_bytes) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a write-back/write-allocate configuration, rejecting
    /// degenerate geometries with a typed [`CacheConfigError`] instead
    /// of panicking — the entry point for mechanically enumerated
    /// design-space sweep points.
    pub fn try_new(size_bytes: u64, ways: u32, block_bytes: u64) -> Result<Self, CacheConfigError> {
        let cfg =
            Self { size_bytes, ways, block_bytes, write_policy: WritePolicy::WriteBackAllocate };
        cfg.validate_checked()?;
        Ok(cfg)
    }

    /// Sets the write policy.
    pub fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.write_policy = policy;
        self
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.block_bytes)
    }

    fn validate_checked(&self) -> Result<(), CacheConfigError> {
        if self.size_bytes == 0 || self.ways == 0 || self.block_bytes == 0 {
            return Err(CacheConfigError::ZeroGeometry {
                size_bytes: self.size_bytes,
                ways: self.ways,
                block_bytes: self.block_bytes,
            });
        }
        if !self.block_bytes.is_power_of_two() {
            return Err(CacheConfigError::BlockNotPowerOfTwo { block_bytes: self.block_bytes });
        }
        if self.block_bytes > MAX_BLOCK_BYTES {
            return Err(CacheConfigError::BlockTooLarge { block_bytes: self.block_bytes });
        }
        if !self.size_bytes.is_multiple_of(self.ways as u64 * self.block_bytes) {
            return Err(CacheConfigError::RaggedCapacity {
                size_bytes: self.size_bytes,
                ways: self.ways,
                block_bytes: self.block_bytes,
            });
        }
        // Any whole number of sets is simulatable: power-of-two set
        // counts (every shipped platform) take the shift+mask index
        // path, anything else the general divide/modulo path — see
        // `Cache::monomorphized_ways`.
        Ok(())
    }

    /// Requires a power-of-two set count, for the callers (the sweep's
    /// L2 axis) whose indexing contract assumes it.
    pub fn require_pow2_sets(&self) -> Result<(), CacheConfigError> {
        let sets = self.num_sets();
        if sets.is_power_of_two() {
            Ok(())
        } else {
            Err(CacheConfigError::SetsNotPowerOfTwo { sets })
        }
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let size = self.size_bytes;
        if size >= 1024 * 1024 && size.is_multiple_of(1024 * 1024) {
            write!(f, "{} MB ", size / (1024 * 1024))?;
        } else {
            write!(f, "{} KB ", size / 1024)?;
        }
        if self.ways == 1 {
            write!(f, "direct-mapped, {} B blocks", self.block_bytes)
        } else {
            write!(f, "{}-way, {} B blocks", self.ways, self.block_bytes)
        }
    }
}

/// Access latencies of a two-level hierarchy plus memory, in cycles.
///
/// The paper's Section 2.1 uses L1 = 3, L2 = 5, memory = 72 for its AMAT
/// computation, which [`LatencyConfig::alpha21264`] reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyConfig {
    /// L1 hit (load-to-use) latency.
    pub l1: u64,
    /// Additional latency of an L2 hit beyond the L1 probe.
    pub l2: u64,
    /// Additional latency of a memory access beyond the L2 probe.
    pub memory: u64,
}

impl LatencyConfig {
    /// The paper's Alpha 21264 reference latencies (Section 2.1).
    pub const fn alpha21264() -> Self {
        Self { l1: 3, l2: 5, memory: 72 }
    }

    /// Total latency of an access serviced at the given depth.
    pub fn total(&self, l1_miss: bool, l2_miss: bool) -> u64 {
        let mut lat = self.l1;
        if l1_miss {
            lat += self.l2;
            if l2_miss {
                lat += self.memory;
            }
        }
        lat
    }

    /// The paper's AMAT formula: `l1 + m1*(l2 + m2*mem)` for local miss
    /// ratios `m1` (L1) and `m2` (L2).
    pub fn amat(&self, m1: f64, m2: f64) -> f64 {
        self.l1 as f64 + m1 * (self.l2 as f64 + m2 * self.memory as f64)
    }

    /// The range every [`amat`](Self::amat) of miss ratios in `[0, 1]`
    /// lies in: from the L1 hit latency to the full L1 + L2 + memory
    /// latency. An AMAT outside it (or NaN) comes from a miss count
    /// above its access count.
    pub fn amat_range(&self) -> RangeInclusive<f64> {
        self.total(false, false) as f64..=self.total(true, true) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_l1_geometry() {
        let cfg = CacheConfig::new(64 * 1024, 2, 64);
        assert_eq!(cfg.num_sets(), 512);
    }

    #[test]
    fn alpha_l2_geometry() {
        let cfg = CacheConfig::new(4 * 1024 * 1024, 1, 64);
        assert_eq!(cfg.num_sets(), 65536);
        assert_eq!(cfg.to_string(), "4 MB direct-mapped, 64 B blocks");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_block_rejected() {
        CacheConfig::new(1024, 2, 48);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn ragged_capacity_rejected() {
        CacheConfig::new(1000, 2, 64);
    }

    #[test]
    fn non_pow2_set_counts_are_valid_geometries() {
        // 3 sets x 2 ways x 64 B: a legal sweep point; it indexes through
        // the general path rather than shift+mask.
        let cfg = CacheConfig::new(3 * 2 * 64, 2, 64);
        assert_eq!(cfg.num_sets(), 3);
    }

    #[test]
    fn paper_amat_formula_matches_blast_example() {
        // Section 2.1: blast AMAT = 3 + 1.78% * (5 + 4.05% * 72) = 3.14.
        let lat = LatencyConfig::alpha21264();
        let (m1, m2) = (0.0178, 0.0405);
        let amat = lat.amat(m1, m2);
        #[allow(clippy::approx_constant)] // 3.14 is the paper's AMAT figure, not pi
        let expected = 3.14f64;
        assert!((amat - expected).abs() < 0.01, "got {amat}");
    }

    #[test]
    fn total_latency_by_depth() {
        let lat = LatencyConfig::alpha21264();
        assert_eq!(lat.total(false, false), 3);
        assert_eq!(lat.total(true, false), 8);
        assert_eq!(lat.total(true, true), 80);
    }
}
