//! Packed per-access miss-level annotation streams.
//!
//! The factored sweep's cache pass walks a recording's hierarchy-access
//! sequence once per cache-axis configuration and records, for every
//! demand access, which level serviced it. Each outcome is one of three
//! codes — L1 hit, L2 hit, or memory — so the stream packs four
//! annotations per byte. The timing pass later replays the same access
//! sequence and converts each code back into a latency through the
//! cell's own [`LatencyConfig`](crate::LatencyConfig), without touching
//! a live cache.
//!
//! Streams live only in memory, inside the sweep job that makes them:
//! a job runs a cache pass and then the timing lanes its streams feed,
//! and drops the streams before its next pass. At 2 bits per access
//! (about 0.44 accesses per recorded op) a stream costs about 0.11 B per
//! op of the trace.

use bioperf_trace::fnv1a;

use crate::hierarchy::{AccessKind, Hierarchy, HierarchyStats, ServicedBy};

/// A packed sequence of miss-level codes, two bits per access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnnotationStream {
    bits: Vec<u8>,
    len: usize,
}

impl AnnotationStream {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty stream with room for `accesses` annotations.
    pub fn with_capacity(accesses: usize) -> Self {
        Self { bits: Vec::with_capacity(accesses.div_ceil(4)), len: 0 }
    }

    /// Number of annotations recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of packed payload.
    pub fn byte_len(&self) -> usize {
        self.bits.len()
    }

    /// Appends one miss-level annotation.
    #[inline]
    pub fn push(&mut self, level: ServicedBy) {
        let code = level_code(level);
        let slot = self.len & 3;
        if slot == 0 {
            self.bits.push(code);
        } else {
            *self.bits.last_mut().expect("non-empty after first push") |= code << (slot * 2);
        }
        self.len += 1;
    }

    /// The raw 2-bit code at `index` (0 = L1, 1 = L2, 2 = memory).
    ///
    /// Out-of-range reads return the benign L1 code rather than
    /// panicking: an exhausted cursor is a *divergence* the conformance
    /// self-check must observe as wrong cycle counts, not a crash.
    #[inline]
    pub fn code(&self, index: usize) -> u8 {
        if index >= self.len {
            return 0;
        }
        (self.bits[index >> 2] >> ((index & 3) * 2)) & 3
    }

    /// A cheap content identity: `(annotation count, FNV-1a of the
    /// packed payload)`. Equal keys mean equal miss sequences for the sweep's
    /// timing memo (distinct cache geometries frequently produce the
    /// same sequence — e.g. every L2 that never misses after warmup).
    pub fn content_key(&self) -> (u64, u64) {
        (self.len as u64, fnv1a(&self.bits))
    }

    /// The miss level at `index`, if in range.
    pub fn level(&self, index: usize) -> Option<ServicedBy> {
        if index >= self.len {
            return None;
        }
        Some(match self.code(index) {
            0 => ServicedBy::L1,
            1 => ServicedBy::L2,
            _ => ServicedBy::Memory,
        })
    }
}

fn level_code(level: ServicedBy) -> u8 {
    match level {
        ServicedBy::L1 => 0,
        ServicedBy::L2 => 1,
        ServicedBy::Memory => 2,
    }
}

/// A bank of cache-axis configurations simulated from one shared access
/// sequence: each demand access presented to the bank is applied to every
/// member hierarchy, and each member records the servicing level into its
/// own [`AnnotationStream`]. One trace decode thus produces the
/// miss-level streams (and final [`HierarchyStats`]) for every cache
/// geometry in a cache pass.
#[derive(Debug)]
pub struct MissLevelBank {
    members: Vec<(Hierarchy, AnnotationStream)>,
    accesses: usize,
}

impl MissLevelBank {
    /// Builds a bank over the given hierarchies (latency values inside
    /// them are irrelevant here: only the servicing level is kept).
    pub fn new(hierarchies: Vec<Hierarchy>) -> Self {
        Self {
            members: hierarchies.into_iter().map(|h| (h, AnnotationStream::new())).collect(),
            accesses: 0,
        }
    }

    /// Accesses presented so far.
    pub fn accesses(&self) -> usize {
        self.accesses
    }

    /// Applies a run of demand accesses given as parallel address /
    /// is-load columns to every member, iterated member-major so each
    /// hierarchy's state stays hot.
    pub fn access_run(&mut self, addrs: &[u64], loads: &[bool]) {
        debug_assert_eq!(addrs.len(), loads.len());
        for (hierarchy, stream) in &mut self.members {
            for (&addr, &is_load) in addrs.iter().zip(loads) {
                let kind = if is_load { AccessKind::Load } else { AccessKind::Store };
                let (level, _) = hierarchy.access_detailed(addr, kind);
                stream.push(level);
            }
        }
        self.accesses += addrs.len();
    }

    /// Tears the bank down into per-member final stats and streams, in
    /// construction order.
    pub fn finish(self) -> Vec<(HierarchyStats, AnnotationStream)> {
        self.members.into_iter().map(|(h, s)| (*h.stats(), s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, LatencyConfig};

    fn tiny_hierarchy() -> Hierarchy {
        Hierarchy::new(
            CacheConfig::new(1024, 2, 64),
            CacheConfig::new(16 * 1024, 1, 64),
            LatencyConfig::alpha21264(),
        )
    }

    #[test]
    fn push_and_read_round_trip_all_levels() {
        let mut s = AnnotationStream::new();
        let levels = [
            ServicedBy::Memory,
            ServicedBy::L1,
            ServicedBy::L2,
            ServicedBy::L1,
            ServicedBy::Memory,
            ServicedBy::L2,
            ServicedBy::L1,
            ServicedBy::L1,
            ServicedBy::L2,
        ];
        for &l in &levels {
            s.push(l);
        }
        assert_eq!(s.len(), levels.len());
        for (i, &l) in levels.iter().enumerate() {
            assert_eq!(s.level(i), Some(l), "index {i}");
        }
        assert_eq!(s.level(levels.len()), None);
        assert_eq!(s.code(levels.len()), 0, "exhausted cursor reads the benign L1 code");
    }

    #[test]
    fn access_runs_match_direct_hierarchy_replays() {
        // Two geometries, fed in uneven runs: each member's stream and
        // stats equal its own hierarchy replayed access by access.
        let wide = || {
            Hierarchy::new(
                CacheConfig::new(4096, 4, 64),
                CacheConfig::new(16 * 1024, 1, 64),
                LatencyConfig::alpha21264(),
            )
        };
        let addrs: Vec<u64> = (0..600u64).map(|i| (i * 37) % 191 * 64).collect();
        let loads: Vec<bool> = (0..600).map(|i| i % 3 != 0).collect();
        let mut bank = MissLevelBank::new(vec![tiny_hierarchy(), wide()]);
        let mut at = 0;
        for run in [1, 7, 64, 128].into_iter().cycle() {
            let end = (at + run).min(addrs.len());
            bank.access_run(&addrs[at..end], &loads[at..end]);
            at = end;
            if at == addrs.len() {
                break;
            }
        }
        assert_eq!(bank.accesses(), addrs.len());
        let direct = [tiny_hierarchy(), wide()];
        for ((stats, stream), mut direct) in bank.finish().into_iter().zip(direct) {
            assert_eq!(stream.len(), addrs.len());
            for (i, (&a, &is_load)) in addrs.iter().zip(&loads).enumerate() {
                let kind = if is_load { AccessKind::Load } else { AccessKind::Store };
                assert_eq!(stream.level(i), Some(direct.access_detailed(a, kind).0), "access {i}");
            }
            assert_eq!(&stats, direct.stats());
        }
    }
}
