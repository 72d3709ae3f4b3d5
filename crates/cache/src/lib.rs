//! Set-associative cache hierarchy simulator.
//!
//! Reimplements the cache model the paper simulates with ATOM (its
//! Table 3): a 64 KB 2-way L1 data cache and a 4 MB direct-mapped unified
//! L2, both with 64-byte blocks, write-back/write-allocate, backed by main
//! memory with latencies of 3 / 5 / 72 cycles. The headline result this
//! model supports is the paper's Table 2: the BioPerf programs' loads
//! almost always hit in L1, so the average memory access time is dominated
//! by the multi-cycle L1 *hit* latency.
//!
//! # Example
//!
//! ```
//! use bioperf_cache::{alpha21264_hierarchy, AccessKind};
//!
//! let mut h = alpha21264_hierarchy();
//! let lat_miss = h.access(0x1_0000, AccessKind::Load);
//! let lat_hit = h.access(0x1_0000, AccessKind::Load);
//! assert!(lat_miss > lat_hit);
//! assert_eq!(lat_hit, 3); // L1 hit latency
//! assert_eq!(h.stats().l1.load_misses, 1);
//! ```

pub mod annotation;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod prefetch;
pub mod stackdist;

pub use annotation::{AnnotationError, AnnotationStream, MissLevelBank, ANN_SCHEMA};
pub use cache::{AccessResult, Cache};
pub use config::{CacheConfig, CacheConfigError, LatencyConfig, WritePolicy, MAX_BLOCK_BYTES};
pub use hierarchy::{
    alpha21264_hierarchy, AccessKind, CacheSim, Hierarchy, HierarchyStats, LevelStats, ServicedBy,
};
pub use prefetch::{PrefetchEngine, Prefetcher};
pub use stackdist::{StackDistProfiler, MAX_TRACKED_WAYS};
