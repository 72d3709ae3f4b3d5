//! Two-level hierarchy with per-level demand statistics and AMAT.

use bioperf_isa::{MicroOp, Program};
use bioperf_metrics::{LogHistogram, MetricSet};
use bioperf_trace::TraceConsumer;

use crate::cache::{AccessResult, Cache};
use crate::config::{CacheConfig, LatencyConfig};
use crate::prefetch::{PrefetchEngine, Prefetcher};

/// Demand access type presented to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A data load.
    Load,
    /// A data store.
    Store,
}

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicedBy {
    /// Hit in the L1 data cache.
    L1,
    /// Missed L1, hit the unified L2.
    L2,
    /// Missed both caches; serviced by main memory.
    Memory,
}

/// Demand statistics for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Load accesses presented to this level.
    pub load_accesses: u64,
    /// Load accesses that missed.
    pub load_misses: u64,
    /// Store accesses presented to this level.
    pub store_accesses: u64,
    /// Store accesses that missed.
    pub store_misses: u64,
    /// Dirty evictions written back out of this level.
    pub writebacks: u64,
}

impl LevelStats {
    /// Local load miss ratio (misses at this level / accesses that reached
    /// this level), the quantity in the paper's Table 2.
    pub fn load_miss_ratio(&self) -> f64 {
        if self.load_accesses == 0 {
            0.0
        } else {
            self.load_misses as f64 / self.load_accesses as f64
        }
    }
}

/// Aggregate statistics of a [`Hierarchy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 data cache demand stats.
    pub l1: LevelStats,
    /// Unified L2 demand stats (data side only — we trace no instruction
    /// fetches, mirroring the paper's data-cache focus).
    pub l2: LevelStats,
}

impl HierarchyStats {
    /// Fraction of all loads serviced by main memory (the paper's
    /// "overall" column: ~0.03% on average).
    pub fn overall_load_memory_ratio(&self) -> f64 {
        if self.l1.load_accesses == 0 {
            0.0
        } else {
            self.l2.load_misses as f64 / self.l1.load_accesses as f64
        }
    }
}

/// L1 data cache + unified L2 + main memory.
///
/// # Example
///
/// ```
/// use bioperf_cache::{alpha21264_hierarchy, AccessKind};
///
/// let mut h = alpha21264_hierarchy();
/// for _pass in 0..20 {
///     for i in 0..1000u64 {
///         h.access(i * 8, AccessKind::Load); // small working set: mostly L1 hits
///     }
/// }
/// assert!(h.stats().l1.load_miss_ratio() < 0.01);
/// assert!(h.amat() < 3.5);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1d: Cache,
    l2: Cache,
    latencies: LatencyConfig,
    stats: HierarchyStats,
    prefetch: PrefetchEngine,
    // Event metrics accumulate into dedicated local fields (one counter
    // per service level plus the latency histogram) so the per-access
    // cost when enabled is an array bump and a histogram record — no
    // name-keyed lookup; `take_metrics` publishes them under their names.
    metrics_on: bool,
    m_serviced: [u64; 3],
    m_latency: LogHistogram,
}

impl Hierarchy {
    /// Builds a hierarchy from per-level configurations (no prefetching).
    pub fn new(l1d: CacheConfig, l2: CacheConfig, latencies: LatencyConfig) -> Self {
        let block = l1d.block_bytes;
        Self {
            l1d: Cache::new(l1d),
            l2: Cache::new(l2),
            latencies,
            stats: HierarchyStats::default(),
            prefetch: PrefetchEngine::new(Prefetcher::None, block),
            metrics_on: false,
            m_serviced: [0; 3],
            m_latency: LogHistogram::new(),
        }
    }

    /// Switches on event-metric collection (service-level counters and a
    /// latency histogram per demand access). Off by default: the access
    /// path then pays exactly one predictable branch per event — the
    /// metrics layer's zero-cost-when-off contract.
    pub fn with_metrics(mut self) -> Self {
        self.metrics_on = true;
        self
    }

    /// Takes the collected event metrics (empty if collection is off),
    /// leaving collection in its current mode.
    pub fn take_metrics(&mut self) -> MetricSet {
        let mut out = MetricSet::new();
        // Names appear only once touched, matching the lazily-created
        // slots of the name-keyed path this replaced.
        let names = ["serviced_l1", "serviced_l2", "serviced_memory"];
        for (name, &n) in names.iter().zip(&self.m_serviced) {
            if n > 0 {
                out.counter_add(name, n);
            }
        }
        if self.m_latency.count() > 0 {
            out.histogram_merge("access_latency_cycles", &self.m_latency);
        }
        self.m_serviced = [0; 3];
        self.m_latency = LogHistogram::new();
        out
    }

    /// Attaches an L1 prefetcher (prefetched blocks fill L1 directly;
    /// their upstream traffic is not charged — an optimistic prefetcher,
    /// which only strengthens the paper's "prefetching cannot help here"
    /// conclusion).
    pub fn with_prefetcher(mut self, policy: Prefetcher) -> Self {
        self.prefetch = PrefetchEngine::new(policy, self.l1d.config().block_bytes);
        self
    }

    /// The configured latencies.
    pub fn latencies(&self) -> LatencyConfig {
        self.latencies
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Performs a demand access and returns its total latency in cycles.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> u64 {
        self.access_detailed(addr, kind).1
    }

    /// Performs a demand access, returning the servicing level and the
    /// total latency in cycles.
    pub fn access_detailed(&mut self, addr: u64, kind: AccessKind) -> (ServicedBy, u64) {
        let (level, latency) = self.access_inner(addr, kind);
        if self.metrics_on {
            self.m_serviced[match level {
                ServicedBy::L1 => 0,
                ServicedBy::L2 => 1,
                ServicedBy::Memory => 2,
            }] += 1;
            self.m_latency.record(latency);
        }
        (level, latency)
    }

    /// Block replay entry: runs a batch of demand accesses given as
    /// parallel address/is-load columns.
    ///
    /// Semantically identical to calling [`access`](Self::access) per
    /// element; the batch form hoists the metrics-mode branch out of the
    /// loop so the common metrics-off replay runs a tight
    /// [`access_inner`] loop with no instrumentation test per access.
    ///
    /// [`access_inner`]: Self::access_detailed
    pub fn access_block(&mut self, addrs: &[u64], loads: &[bool]) {
        debug_assert_eq!(addrs.len(), loads.len());
        let kind_of = |is_load: bool| if is_load { AccessKind::Load } else { AccessKind::Store };
        if self.metrics_on {
            for (&addr, &is_load) in addrs.iter().zip(loads) {
                self.access_detailed(addr, kind_of(is_load));
            }
        } else {
            for (&addr, &is_load) in addrs.iter().zip(loads) {
                self.access_inner(addr, kind_of(is_load));
            }
        }
    }

    #[inline]
    fn access_inner(&mut self, addr: u64, kind: AccessKind) -> (ServicedBy, u64) {
        let l1 = self.front(addr, kind);
        let level = self.back(addr, kind, l1);
        (level, self.latencies.total(level != ServicedBy::L1, level == ServicedBy::Memory))
    }

    /// The L1 half of a demand access: the L1 lookup, its prefetcher on
    /// a miss, and the L1 statistics. It never reads L2 state (prefetch
    /// fills drop their writebacks), so hierarchies with equal fresh
    /// fronts see equal outcomes ([`Self::shares_front_with`]).
    #[inline]
    pub(crate) fn front(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        let r1 = self.l1d.access(addr, kind == AccessKind::Store);
        let l1 = &mut self.stats.l1;
        match kind {
            AccessKind::Load => l1.load_accesses += 1,
            AccessKind::Store => l1.store_accesses += 1,
        }
        l1.writebacks += r1.writeback.is_some() as u64;
        if !r1.hit {
            match kind {
                AccessKind::Load => l1.load_misses += 1,
                AccessKind::Store => l1.store_misses += 1,
            }
            self.prefetch.on_miss(addr, &mut self.l1d);
        }
        r1
    }

    /// The L2 half of a demand access whose L1 half returned `r1`: the
    /// L1 victim's writeback, then on an L1 miss the demand access, with
    /// the L2 statistics. Returns the servicing level.
    #[inline]
    pub(crate) fn back(&mut self, addr: u64, kind: AccessKind, r1: AccessResult) -> ServicedBy {
        if let Some(wb) = r1.writeback {
            // Write the dirty block back into L2 (not counted as demand).
            let r2 = self.l2.access(wb, true);
            self.stats.l2.writebacks += r2.writeback.is_some() as u64;
        }
        if r1.hit {
            return ServicedBy::L1;
        }
        match kind {
            AccessKind::Load => self.stats.l2.load_accesses += 1,
            AccessKind::Store => self.stats.l2.store_accesses += 1,
        }
        let r2 = self.l2.access(addr, kind == AccessKind::Store);
        self.stats.l2.writebacks += r2.writeback.is_some() as u64;
        if r2.hit {
            return ServicedBy::L2;
        }
        match kind {
            AccessKind::Load => self.stats.l2.load_misses += 1,
            AccessKind::Store => self.stats.l2.store_misses += 1,
        }
        ServicedBy::Memory
    }

    /// Whether `other`'s L1 half would return this hierarchy's outcomes
    /// on any access sequence: both untouched and uninstrumented, with
    /// equal L1 geometry and prefetcher policy.
    pub(crate) fn shares_front_with(&self, other: &Hierarchy) -> bool {
        let fresh = |h: &Hierarchy| h.stats == HierarchyStats::default() && !h.metrics_on;
        fresh(self)
            && fresh(other)
            && self.l1d.config() == other.l1d.config()
            && self.prefetch.policy() == other.prefetch.policy()
    }

    /// Average memory access time for loads, computed with the paper's
    /// formula from the accumulated local miss ratios.
    pub fn amat(&self) -> f64 {
        let m1 = self.stats.l1.load_miss_ratio();
        let m2 = self.stats.l2.load_miss_ratio();
        self.latencies.amat(m1, m2)
    }
}

/// The paper's reference configuration (Table 3 geometry, Section 2.1
/// latencies): 64 KB 2-way L1D, 4 MB direct-mapped unified L2, 64-byte
/// blocks, write-back/write-allocate, latencies 3/5/72.
pub fn alpha21264_hierarchy() -> Hierarchy {
    Hierarchy::new(
        CacheConfig::new(64 * 1024, 2, 64),
        CacheConfig::new(4 * 1024 * 1024, 1, 64),
        LatencyConfig::alpha21264(),
    )
}

/// Trace consumer adapter: feeds every load and store of a micro-op trace
/// through a [`Hierarchy`], making the cache simulator pluggable into a
/// [`Tape`](bioperf_trace::Tape).
#[derive(Debug, Clone)]
pub struct CacheSim {
    hierarchy: Hierarchy,
}

impl CacheSim {
    /// Wraps a hierarchy for trace consumption.
    pub fn new(hierarchy: Hierarchy) -> Self {
        Self { hierarchy }
    }

    /// Switches on event-metric collection in the wrapped hierarchy.
    pub fn with_metrics(mut self) -> Self {
        self.hierarchy = self.hierarchy.with_metrics();
        self
    }

    /// Takes the wrapped hierarchy's collected event metrics.
    pub fn take_metrics(&mut self) -> bioperf_metrics::MetricSet {
        self.hierarchy.take_metrics()
    }

    /// The wrapped hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Unwraps the hierarchy.
    pub fn into_hierarchy(self) -> Hierarchy {
        self.hierarchy
    }
}

impl TraceConsumer for CacheSim {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        if let Some(addr) = op.addr {
            let kind = if op.kind.is_load() { AccessKind::Load } else { AccessKind::Store };
            self.hierarchy.access(addr, kind);
        }
    }

    fn consume_block(&mut self, block: &bioperf_trace::OpBlock, _program: &Program) {
        // The block decoder pre-filters address-carrying ops into parallel
        // columns (same `addr.is_some()` predicate as `consume`), so the
        // hot loop touches only memory ops and skips the MicroOp layout.
        self.hierarchy.access_block(block.mem_addrs(), block.mem_loads());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hierarchy() -> Hierarchy {
        Hierarchy::new(
            CacheConfig::new(1024, 2, 64),       // 1 KB L1
            CacheConfig::new(16 * 1024, 1, 64),  // 16 KB L2
            LatencyConfig::alpha21264(),
        )
    }

    #[test]
    fn first_touch_goes_to_memory() {
        let mut h = small_hierarchy();
        let (lvl, lat) = h.access_detailed(0x1000, AccessKind::Load);
        assert_eq!(lvl, ServicedBy::Memory);
        assert_eq!(lat, 80);
    }

    #[test]
    fn second_touch_hits_l1() {
        let mut h = small_hierarchy();
        h.access(0x1000, AccessKind::Load);
        let (lvl, lat) = h.access_detailed(0x1000, AccessKind::Load);
        assert_eq!(lvl, ServicedBy::L1);
        assert_eq!(lat, 3);
    }

    #[test]
    fn l1_victim_still_hits_l2() {
        let mut h = small_hierarchy();
        // L1: 8 sets x 2 ways. Fill set 0 beyond capacity; all blocks stay in L2.
        for i in 0..4u64 {
            h.access(i * 512, AccessKind::Load); // same L1 set 0
        }
        let (lvl, _) = h.access_detailed(0, AccessKind::Load);
        assert_eq!(lvl, ServicedBy::L2);
    }

    #[test]
    fn stats_accounting_is_consistent() {
        let mut h = small_hierarchy();
        for i in 0..100u64 {
            h.access(i * 64, AccessKind::Load);
        }
        for i in 0..50u64 {
            h.access(i * 64, AccessKind::Store);
        }
        let s = h.stats();
        assert_eq!(s.l1.load_accesses, 100);
        assert_eq!(s.l1.store_accesses, 50);
        // Every L1 miss becomes exactly one L2 access.
        assert_eq!(s.l1.load_misses, s.l2.load_accesses);
        assert_eq!(s.l1.store_misses, s.l2.store_accesses);
        assert!(s.l2.load_misses <= s.l2.load_accesses);
    }

    #[test]
    fn amat_equals_l1_latency_when_all_hit() {
        let mut h = small_hierarchy();
        h.access(0, AccessKind::Load);
        for _ in 0..999 {
            h.access(0, AccessKind::Load);
        }
        // miss ratio 1/1000 -> AMAT barely above 3.
        assert!(h.amat() > 3.0 && h.amat() < 3.1, "amat = {}", h.amat());
    }

    #[test]
    fn dirty_writeback_reaches_l2() {
        let mut h = small_hierarchy();
        h.access(0x000, AccessKind::Store); // dirty in L1
        for i in 1..3u64 {
            h.access(i * 512, AccessKind::Load); // evict set 0
        }
        assert!(h.stats().l1.writebacks >= 1);
    }

    #[test]
    fn chunked_working_set_has_low_miss_rate() {
        // The paper's explanation for the low L1 miss rates: programs work
        // on an L1-resident chunk for a while before moving on.
        let mut h = alpha21264_hierarchy();
        for chunk in 0..8u64 {
            let base = chunk * 16 * 1024;
            for _pass in 0..50 {
                for i in 0..(16 * 1024 / 8) {
                    h.access(base + i * 8, AccessKind::Load);
                }
            }
        }
        // Only compulsory misses remain: 256 blocks per 16 KB chunk over
        // 102 400 accesses per chunk = 0.25% local miss rate.
        assert!(
            h.stats().l1.load_miss_ratio() < 0.003,
            "chunked access should almost always hit: {}",
            h.stats().l1.load_miss_ratio()
        );
    }

    #[test]
    fn event_metrics_match_demand_stats() {
        let mut h = small_hierarchy().with_metrics();
        for i in 0..64u64 {
            h.access(i * 8, AccessKind::Load);
        }
        for i in 0..64u64 {
            h.access(i * 8, AccessKind::Load);
        }
        let m = h.take_metrics();
        let total = m.counter("serviced_l1").unwrap_or(0)
            + m.counter("serviced_l2").unwrap_or(0)
            + m.counter("serviced_memory").unwrap_or(0);
        assert_eq!(total, h.stats().l1.load_accesses);
        let lat = m.histogram("access_latency_cycles").expect("latency histogram");
        assert_eq!(lat.count(), total);
        assert_eq!(lat.min(), Some(3), "L1 hits cost the 3-cycle hit latency");
        // take_metrics drained the set but left collection on.
        h.access(0, AccessKind::Load);
        assert_eq!(h.take_metrics().counter("serviced_l1"), Some(1));
    }

    #[test]
    fn access_block_matches_per_access_loop() {
        // Same mixed load/store pattern through both entry points, with
        // metrics on and off; stats and metrics must be identical.
        let addrs: Vec<u64> = (0..256u64).map(|i| (i * 37) % 97 * 64).collect();
        let loads: Vec<bool> = (0..256).map(|i| i % 3 != 0).collect();
        for metrics in [false, true] {
            let build = || {
                let h = small_hierarchy();
                if metrics { h.with_metrics() } else { h }
            };
            let mut per_op = build();
            for (&a, &l) in addrs.iter().zip(&loads) {
                per_op.access(a, if l { AccessKind::Load } else { AccessKind::Store });
            }
            let mut blocked = build();
            blocked.access_block(&addrs, &loads);
            assert_eq!(per_op.stats(), blocked.stats(), "metrics={metrics}");
            assert_eq!(
                per_op.take_metrics().to_json().render(),
                blocked.take_metrics().to_json().render(),
                "metrics={metrics}"
            );
        }
    }

    #[test]
    fn metrics_off_collects_nothing_and_changes_nothing() {
        let mut plain = small_hierarchy();
        let mut instrumented = small_hierarchy().with_metrics();
        for i in 0..512u64 {
            plain.access(i * 64, AccessKind::Load);
            instrumented.access(i * 64, AccessKind::Load);
        }
        assert_eq!(plain.stats(), instrumented.stats(), "metrics must not perturb simulation");
        assert!(plain.take_metrics().is_empty());
        assert!(!instrumented.take_metrics().is_empty());
    }
}
