//! All-associativity LRU profiling via stack distances (Hill & Smith).
//!
//! One walk of a reference stream maintains a single global LRU stack of
//! blocks. For each reuse, the number of *same-set* blocks above the
//! reused block — its per-set-count stack distance — decides hit or miss
//! for every (sets, ways) LRU geometry at once: the access hits a
//! `ways`-way cache with that set count iff the distance is `< ways`.
//! Per-set-count histograms of those distances therefore yield exact
//! hit/miss totals for the whole geometry axis from a single pass.
//!
//! The model is exact for demand-only write-allocate true-LRU caches —
//! the sweep's L1 axis with `Prefetcher::None` — and is used to
//! cross-check the banked cache pass (see the core crate's
//! `sweep_self_check`) and
//! in the `stackdist_prop` property tests. Prefetchers inject non-demand
//! fills that perturb recency order, so prefetching geometries go
//! through the [`MissLevelBank`](crate::MissLevelBank) instead.

use std::collections::HashMap;

/// Stack distances at or beyond this many ways land in one saturation
/// bucket; geometry queries are answered exactly for `ways` up to this.
pub const MAX_TRACKED_WAYS: usize = 64;

const NIL: u32 = u32::MAX;

/// Single-pass all-associativity profiler over configured set counts.
#[derive(Debug)]
pub struct StackDistProfiler {
    block_shift: u32,
    set_counts: Vec<u64>,
    masks: Vec<u64>,
    // Intrusive doubly-linked LRU stack over an arena of blocks, with a
    // block -> node map (the regfile's O(1) LRU idiom, minus eviction:
    // the stack holds every block ever touched).
    prev: Vec<u32>,
    next: Vec<u32>,
    blocks: Vec<u64>,
    head: u32,
    map: HashMap<u64, u32>,
    // hist[s][d] counts reuses at distance d for set count s;
    // hist[s][MAX_TRACKED_WAYS] is the saturation bucket.
    hist: Vec<Vec<u64>>,
    cold: u64,
    accesses: u64,
}

impl StackDistProfiler {
    /// Builds a profiler for the given block size and set counts (all
    /// powers of two; duplicates allowed but wasteful).
    pub fn new(block_bytes: u64, set_counts: &[u64]) -> Self {
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        for &s in set_counts {
            assert!(s > 0 && s.is_power_of_two(), "set counts must be powers of two");
        }
        Self {
            block_shift: block_bytes.trailing_zeros(),
            set_counts: set_counts.to_vec(),
            masks: set_counts.iter().map(|&s| s - 1).collect(),
            prev: Vec::new(),
            next: Vec::new(),
            blocks: Vec::new(),
            head: NIL,
            map: HashMap::new(),
            hist: vec![vec![0; MAX_TRACKED_WAYS + 1]; set_counts.len()],
            cold: 0,
            accesses: 0,
        }
    }

    /// Presents one demand access (loads and stores are identical here:
    /// write-allocate means both establish residency the same way).
    pub fn access(&mut self, addr: u64) {
        self.accesses += 1;
        let block = addr >> self.block_shift;
        match self.map.get(&block).copied() {
            Some(node) => {
                // Count same-set blocks between the stack top and the
                // reused block, per configured set count.
                let mut counts = vec![0usize; self.masks.len()];
                let mut cur = self.head;
                while cur != node {
                    let b = self.blocks[cur as usize];
                    for (c, &mask) in counts.iter_mut().zip(&self.masks) {
                        *c += ((b ^ block) & mask == 0) as usize;
                    }
                    cur = self.next[cur as usize];
                }
                for (h, &d) in self.hist.iter_mut().zip(&counts) {
                    h[d.min(MAX_TRACKED_WAYS)] += 1;
                }
                self.move_to_head(node);
            }
            None => {
                self.cold += 1;
                let node = self.blocks.len() as u32;
                self.blocks.push(block);
                self.prev.push(NIL);
                self.next.push(self.head);
                if self.head != NIL {
                    self.prev[self.head as usize] = node;
                }
                self.head = node;
                self.map.insert(block, node);
            }
        }
    }

    fn move_to_head(&mut self, node: u32) {
        if node == self.head {
            return;
        }
        let (p, n) = (self.prev[node as usize], self.next[node as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
        self.prev[node as usize] = NIL;
        self.next[node as usize] = self.head;
        self.prev[self.head as usize] = node;
        self.head = node;
    }

    /// Total accesses presented.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Cold (first-touch) misses — misses in every geometry.
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// The reuse-distance histogram for one configured set count
    /// (`MAX_TRACKED_WAYS + 1` buckets, last one saturated).
    pub fn histogram(&self, set_count: u64) -> &[u64] {
        &self.hist[self.set_index(set_count)]
    }

    /// Exact hit count for a `(set_count, ways)` true-LRU geometry.
    pub fn hits(&self, set_count: u64, ways: u32) -> u64 {
        assert!(
            (ways as usize) <= MAX_TRACKED_WAYS,
            "ways {ways} beyond tracked depth {MAX_TRACKED_WAYS}"
        );
        let h = &self.hist[self.set_index(set_count)];
        h[..ways as usize].iter().sum()
    }

    /// Exact miss count (cold plus deep reuses) for a geometry.
    pub fn misses(&self, set_count: u64, ways: u32) -> u64 {
        self.accesses - self.hits(set_count, ways)
    }

    fn set_index(&self, set_count: u64) -> usize {
        self.set_counts
            .iter()
            .position(|&s| s == set_count)
            .unwrap_or_else(|| panic!("set count {set_count} was not configured"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::config::CacheConfig;

    #[test]
    fn sequential_stream_is_all_cold_misses() {
        let mut p = StackDistProfiler::new(64, &[1, 8]);
        for i in 0..100u64 {
            p.access(i * 64);
        }
        assert_eq!(p.accesses(), 100);
        assert_eq!(p.cold_misses(), 100);
        assert_eq!(p.misses(8, 2), 100);
    }

    #[test]
    fn tight_loop_hits_after_first_pass() {
        let mut p = StackDistProfiler::new(64, &[4]);
        for _pass in 0..10 {
            for i in 0..8u64 {
                p.access(i * 64); // 8 blocks over 4 sets: 2 blocks/set
            }
        }
        assert_eq!(p.cold_misses(), 8);
        // 2-way: everything after the first pass hits.
        assert_eq!(p.misses(4, 2), 8);
        // Direct-mapped: 2 same-set blocks alternate, distance 1 >= 1 way.
        assert_eq!(p.misses(4, 1), 80);
    }

    #[test]
    fn derived_misses_match_a_real_cache() {
        // A fixed pseudo-random mixed stream against the production Cache
        // for several geometries sharing one profile.
        let addrs: Vec<u64> = (0..4000u64).map(|i| (i.wrapping_mul(2654435761) % 911) * 64).collect();
        let mut p = StackDistProfiler::new(64, &[8, 16, 64]);
        for &a in &addrs {
            p.access(a);
        }
        for (sets, ways) in [(8u64, 1u32), (8, 4), (16, 2), (64, 2), (64, 8)] {
            let mut cache = Cache::new(CacheConfig::new(sets * ways as u64 * 64, ways, 64));
            let mut misses = 0u64;
            for &a in &addrs {
                if !cache.access(a, false).hit {
                    misses += 1;
                }
            }
            assert_eq!(p.misses(sets, ways), misses, "sets={sets} ways={ways}");
        }
    }

    #[test]
    fn histogram_totals_account_for_every_access() {
        let addrs: Vec<u64> = (0..2500u64).map(|i| (i * 97 % 401) * 32).collect();
        let mut p = StackDistProfiler::new(32, &[2, 32]);
        for &a in &addrs {
            p.access(a);
        }
        for &s in &[2u64, 32] {
            let total: u64 = p.histogram(s).iter().sum();
            assert_eq!(total + p.cold_misses(), p.accesses(), "set count {s}");
        }
    }
}
