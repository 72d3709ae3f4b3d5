//! Packed per-access miss-level annotation streams.
//!
//! The factored sweep records, for every demand access of a trace's
//! hierarchy-access sequence under a cache-axis configuration, which
//! level serviced it. Each outcome is one of three codes — L1 hit, L2
//! hit, or memory — so a stream packs four annotations per byte. A
//! timing lane later converts each code back into a latency through the
//! cell's own [`LatencyConfig`](crate::LatencyConfig), without touching
//! a live cache. [`MissLevelBank`] produces the codes block by block
//! (its per-run code columns feed the sweep's live keyed pass directly)
//! and, when asked, whole streams (for the sweep's recorded later
//! passes).
//!
//! Streams live only in memory, inside the sweep job that makes them,
//! and are dropped with it. At 2 bits per access (about 0.44 accesses
//! per recorded op) a stream costs about 0.11 B per op of the trace.

use bioperf_trace::fnv1a;

use crate::cache::AccessResult;
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
        self.extend_codes(&[level_code(level)]);
    }

    /// Appends raw 2-bit codes (see [`Self::code`]), in order.
    pub fn extend_codes(&mut self, codes: &[u8]) {
        for &code in codes {
            let slot = self.len & 3;
            if slot == 0 {
                self.bits.push(code);
            } else {
                *self.bits.last_mut().expect("non-empty after first push") |= code << (slot * 2);
            }
            self.len += 1;
        }
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
    /// packed payload)`. Equal miss sequences have equal keys (distinct
    /// cache geometries frequently produce the same sequence — e.g.
    /// every L2 that never misses after warmup); unequal ones collide
    /// only as the hash does, so exact deduplication compares streams.
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
/// member hierarchy, and each member's servicing levels land in its
/// per-run code column ([`codes`](Self::codes)) and, unless the bank was
/// built [`without_streams`](Self::without_streams), in its own
/// [`AnnotationStream`]. One trace decode thus produces the miss-level
/// streams (and final [`HierarchyStats`]) for every cache geometry in a
/// cache pass.
///
/// Members whose L1 halves are interchangeable (equal fresh L1 geometry
/// and prefetcher, see `Hierarchy::shares_front_with`) form one *front
/// group*: the L1 half runs once per access for the whole group, and its
/// outcomes (hit, dirty victim) feed every member's own L2 in the
/// original order. The L1 half never reads L2 state, so each member's
/// stats and codes equal its own hierarchy's.
#[derive(Debug, Clone)]
pub struct MissLevelBank {
    members: Vec<Hierarchy>,
    /// Front groups: member indices ascending; the first runs the L1
    /// half for the group.
    fronts: Vec<Vec<usize>>,
    /// Per member: the last run's codes (see [`AnnotationStream::code`]).
    codes: Vec<Vec<u8>>,
    /// Per member: every code so far, if streams are kept.
    streams: Option<Vec<AnnotationStream>>,
    /// The front leader's outcomes for the current run.
    outcomes: Vec<AccessResult>,
    accesses: usize,
}

impl MissLevelBank {
    /// Builds a bank over the given hierarchies (latency values inside
    /// them are irrelevant here: only the servicing level is kept).
    pub fn new(hierarchies: Vec<Hierarchy>) -> Self {
        let mut fronts: Vec<Vec<usize>> = Vec::new();
        for (i, h) in hierarchies.iter().enumerate() {
            match fronts.iter_mut().find(|g| hierarchies[g[0]].shares_front_with(h)) {
                Some(group) => group.push(i),
                None => fronts.push(vec![i]),
            }
        }
        Self {
            codes: vec![Vec::new(); hierarchies.len()],
            streams: Some(vec![AnnotationStream::new(); hierarchies.len()]),
            members: hierarchies,
            fronts,
            outcomes: Vec::new(),
            accesses: 0,
        }
    }

    /// Keeps only each run's codes, no whole-trace streams ([`Self::finish`]
    /// then returns empty ones).
    pub fn without_streams(mut self) -> Self {
        self.streams = None;
        self
    }

    /// Members in the bank.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the bank has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Front groups: members sharing one L1 simulation count once.
    pub fn front_groups(&self) -> usize {
        self.fronts.len()
    }

    /// Accesses presented so far.
    pub fn accesses(&self) -> usize {
        self.accesses
    }

    /// Member `i`'s codes for the last run, one per access (0 = L1,
    /// 1 = L2, 2 = memory).
    pub fn codes(&self, i: usize) -> &[u8] {
        &self.codes[i]
    }

    /// Member `i`'s statistics so far: its L1 half's from its front
    /// group's leader, which ran the group's L1 simulation.
    pub fn stats(&self, i: usize) -> HierarchyStats {
        let group = self.fronts.iter().find(|g| g.contains(&i)).expect("every member has a front");
        HierarchyStats { l1: self.members[group[0]].stats().l1, l2: self.members[i].stats().l2 }
    }

    /// Applies a run of demand accesses given as parallel address /
    /// is-load columns to every member, iterated front group by front
    /// group and then member by member, so each structure's state stays
    /// hot.
    pub fn access_run(&mut self, addrs: &[u64], loads: &[bool]) {
        debug_assert_eq!(addrs.len(), loads.len());
        let kind = |is_load: bool| if is_load { AccessKind::Load } else { AccessKind::Store };
        let Self { members, fronts, codes, outcomes, .. } = self;
        for group in fronts.iter() {
            if let [only] = group[..] {
                let (hierarchy, out) = (&mut members[only], &mut codes[only]);
                out.clear();
                for (&addr, &is_load) in addrs.iter().zip(loads) {
                    out.push(level_code(hierarchy.access_detailed(addr, kind(is_load)).0));
                }
                continue;
            }
            let leader = &mut members[group[0]];
            outcomes.clear();
            outcomes.extend(
                addrs.iter().zip(loads).map(|(&addr, &is_load)| leader.front(addr, kind(is_load))),
            );
            for &i in group {
                let (hierarchy, out) = (&mut members[i], &mut codes[i]);
                out.clear();
                for ((&addr, &is_load), &r1) in addrs.iter().zip(loads).zip(outcomes.iter()) {
                    out.push(level_code(hierarchy.back(addr, kind(is_load), r1)));
                }
            }
        }
        if let Some(streams) = &mut self.streams {
            for (stream, codes) in streams.iter_mut().zip(&self.codes) {
                stream.extend_codes(codes);
            }
        }
        self.accesses += addrs.len();
    }

    /// Tears the bank down into per-member final stats and streams, in
    /// construction order (streams are empty for a bank built
    /// [`without_streams`](Self::without_streams)).
    pub fn finish(self) -> Vec<(HierarchyStats, AnnotationStream)> {
        let stats: Vec<HierarchyStats> = (0..self.len()).map(|i| self.stats(i)).collect();
        let streams = self.streams.unwrap_or_else(|| vec![AnnotationStream::new(); stats.len()]);
        stats.into_iter().zip(streams).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, LatencyConfig};
    use crate::prefetch::Prefetcher;

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
        // Six members fed in uneven runs: two L1 geometries, one of them
        // under three L2s and two prefetchers, so three members share an
        // L1 half and the rest run their own. Each member's stream and
        // stats equal its own hierarchy replayed access by access.
        let l2 = |kb: u64, ways: u32| CacheConfig::new(kb * 1024, ways, 64);
        let build = |l1: CacheConfig, l2: CacheConfig, prefetcher: Prefetcher| {
            Hierarchy::new(l1, l2, LatencyConfig::alpha21264()).with_prefetcher(prefetcher)
        };
        let (tiny, wide) = (CacheConfig::new(1024, 2, 64), CacheConfig::new(4096, 4, 64));
        let members = || {
            vec![
                build(tiny, l2(16, 1), Prefetcher::None),
                build(wide, l2(16, 1), Prefetcher::None),
                build(tiny, l2(2, 1), Prefetcher::None),
                build(tiny, l2(16, 1), Prefetcher::NextLine),
                build(tiny, l2(4, 2), Prefetcher::None),
                build(tiny, l2(2, 1), Prefetcher::NextLine),
            ]
        };
        let addrs: Vec<u64> = (0..600u64).map(|i| (i * 37) % 191 * 64).collect();
        let loads: Vec<bool> = (0..600).map(|i| i % 3 != 0).collect();
        let mut bank = MissLevelBank::new(members());
        assert_eq!(bank.front_groups(), 3, "tiny/none, wide/none, tiny/nextline");
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
        let finished = bank.finish();
        for (i, ((stats, stream), mut direct)) in finished.iter().zip(members()).enumerate() {
            assert_eq!(stream.len(), addrs.len());
            for (a, (&addr, &is_load)) in addrs.iter().zip(&loads).enumerate() {
                let kind = if is_load { AccessKind::Load } else { AccessKind::Store };
                let want = direct.access_detailed(addr, kind).0;
                assert_eq!(stream.level(a), Some(want), "member {i} access {a}");
            }
            assert_eq!(stats, direct.stats(), "member {i}");
        }
        assert_ne!(finished[0], finished[2], "the L2s must matter for the check to mean anything");
    }

    /// A bank without streams keeps each run's codes only; its stats
    /// are a streaming bank's.
    #[test]
    fn code_columns_match_the_stream() {
        let addrs: Vec<u64> = (0..300u64).map(|i| (i * 53) % 97 * 64).collect();
        let loads = vec![true; addrs.len()];
        let mut streaming = MissLevelBank::new(vec![tiny_hierarchy()]);
        let mut codes_only = MissLevelBank::new(vec![tiny_hierarchy()]).without_streams();
        let mut codes = Vec::new();
        for (a, l) in addrs.chunks(64).zip(loads.chunks(64)) {
            streaming.access_run(a, l);
            codes_only.access_run(a, l);
            assert_eq!(streaming.codes(0), codes_only.codes(0));
            codes.extend_from_slice(codes_only.codes(0));
        }
        let (stats, stream) = streaming.finish().pop().expect("one member");
        let (bare_stats, bare) = codes_only.finish().pop().expect("one member");
        assert_eq!((stats, bare.len()), (bare_stats, 0));
        assert_eq!(codes, (0..stream.len()).map(|i| stream.code(i)).collect::<Vec<u8>>());
    }
}
