//! A single set-associative cache with true-LRU replacement.

use bioperf_trace::inject;

use crate::config::{CacheConfig, WritePolicy};

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the block was present.
    pub hit: bool,
    /// Address of a dirty block evicted by this access's fill, if any.
    /// The owner (the hierarchy) forwards it to the next level.
    pub writeback: Option<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

/// Compile-time specialization of the per-access loops by geometry.
///
/// The four platform geometries use 1/2/4/8 ways over power-of-two set
/// counts, so those get dedicated monomorphized instantiations whose
/// tag-match and LRU-victim loops have fixed trip counts (`access_set`
/// over `&mut [Line; WAYS]` — the optimizer fully unrolls them) and
/// whose set indexing is a shift+mask. Any other associativity — or a
/// non-power-of-two set count, where masking is wrong — takes the
/// dynamic path, which runs the very same body with a runtime trip
/// count and divide/modulo indexing. Both paths share one
/// implementation, so results are identical by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaysDispatch {
    W1,
    W2,
    W4,
    W8,
    Dyn,
}

/// A single level of cache: set-associative, true-LRU, with write-back or
/// write-through policy per its [`CacheConfig`].
///
/// # Example
///
/// ```
/// use bioperf_cache::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64));
/// assert!(!c.access(0x40, false).hit);
/// assert!(c.access(0x40, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    set_shift: u32,
    /// Valid only when `sets` is a power of two (the mono dispatch).
    set_mask: u64,
    /// Set count, for the general divide/modulo index path and victim
    /// address reconstruction.
    sets: u64,
    dispatch: WaysDispatch,
    clock: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        Self {
            // Shift+mask indexing is only correct for power-of-two set
            // counts; odd sweep geometries fall back to the general
            // divide/modulo dispatch whatever their associativity.
            dispatch: match config.ways {
                _ if !sets.is_power_of_two() => WaysDispatch::Dyn,
                1 => WaysDispatch::W1,
                2 => WaysDispatch::W2,
                4 => WaysDispatch::W4,
                8 => WaysDispatch::W8,
                _ => WaysDispatch::Dyn,
            },
            config,
            lines: vec![Line::default(); (sets * config.ways as u64) as usize],
            set_shift: config.block_bytes.trailing_zeros(),
            set_mask: sets.wrapping_sub(1),
            sets,
            clock: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Splits an address into (set index, tag): shift+mask. Only correct
    /// for power-of-two set counts — the mono dispatch guarantees it.
    #[inline(always)]
    fn index_pow2(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.set_shift;
        ((block & self.set_mask) as usize, block >> self.set_mask.count_ones())
    }

    /// Splits an address into (set index, tag) for any set count:
    /// divide/modulo. Agrees with [`index_pow2`](Self::index_pow2) on
    /// power-of-two set counts.
    #[inline(always)]
    fn index_general(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.set_shift;
        ((block % self.sets) as usize, block / self.sets)
    }

    /// Splits an address into (set index, tag) along whichever path the
    /// dispatch selected.
    fn index(&self, addr: u64) -> (usize, u64) {
        if self.dispatch == WaysDispatch::Dyn {
            self.index_general(addr)
        } else {
            self.index_pow2(addr)
        }
    }

    /// Accesses `addr`; `is_store` selects the write path. Returns whether
    /// it hit and any dirty block evicted by the fill.
    pub fn access(&mut self, addr: u64, is_store: bool) -> AccessResult {
        match self.dispatch {
            WaysDispatch::W1 => self.access_mono::<1>(addr, is_store),
            WaysDispatch::W2 => self.access_mono::<2>(addr, is_store),
            WaysDispatch::W4 => self.access_mono::<4>(addr, is_store),
            WaysDispatch::W8 => self.access_mono::<8>(addr, is_store),
            WaysDispatch::Dyn => self.access_dyn(addr, is_store),
        }
    }

    /// Fixed-geometry instantiation: the set index is a shift+mask and
    /// the set is viewed as `&mut [Line; WAYS]`, so every loop in
    /// [`access_set`] has a compile-time trip count.
    fn access_mono<const WAYS: usize>(&mut self, addr: u64, is_store: bool) -> AccessResult {
        self.clock += 1;
        let (set, tag) = self.index_pow2(addr);
        let base = set * WAYS;
        let set_lines: &mut [Line; WAYS] =
            (&mut self.lines[base..base + WAYS]).try_into().expect("set holds WAYS lines");
        access_set(
            set_lines,
            tag,
            is_store,
            self.clock,
            self.config.write_policy,
            set as u64,
            self.sets,
            self.set_shift,
        )
    }

    /// Dynamic fallback for geometries without a monomorphized
    /// instantiation (odd associativity or non-power-of-two set count):
    /// same body, runtime trip count, divide/modulo indexing.
    fn access_dyn(&mut self, addr: u64, is_store: bool) -> AccessResult {
        self.clock += 1;
        let (set, tag) = self.index_general(addr);
        let ways = self.config.ways as usize;
        let base = set * ways;
        access_set(
            &mut self.lines[base..base + ways],
            tag,
            is_store,
            self.clock,
            self.config.write_policy,
            set as u64,
            self.sets,
            self.set_shift,
        )
    }

    /// The associativity the access path was specialized for (`None` for
    /// the dynamic fallback — odd associativity *or* a non-power-of-two
    /// set count, which cannot use shift+mask indexing). Exposed so
    /// tests can pin which geometries are const-instantiated, and so
    /// block-replay loops can assert every shipped platform takes the
    /// specialized path.
    pub fn monomorphized_ways(&self) -> Option<u32> {
        match self.dispatch {
            WaysDispatch::W1 => Some(1),
            WaysDispatch::W2 => Some(2),
            WaysDispatch::W4 => Some(4),
            WaysDispatch::W8 => Some(8),
            WaysDispatch::Dyn => None,
        }
    }

    /// Whether the block containing `addr` is currently resident (no state
    /// change).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let ways = self.config.ways as usize;
        self.lines[set * ways..(set + 1) * ways].iter().any(|l| l.valid && l.tag == tag)
    }
}

/// The shared access body: tag match, LRU touch, victim choice, fill.
///
/// Called with `&mut [Line; WAYS]` (coerced to a slice whose length the
/// optimizer knows) from the monomorphized instantiations and with a
/// runtime slice from the dynamic fallback. `#[inline(always)]` so each
/// caller gets its own specialized copy.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn access_set(
    set_lines: &mut [Line],
    tag: u64,
    is_store: bool,
    clock: u64,
    write_policy: WritePolicy,
    set: u64,
    sets: u64,
    set_shift: u32,
) -> AccessResult {
    if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
        if !inject::active(inject::LRU_TOUCH) {
            line.last_use = clock;
        }
        if is_store {
            match write_policy {
                WritePolicy::WriteBackAllocate => line.dirty = true,
                WritePolicy::WriteThroughNoAllocate => {}
            }
        }
        return AccessResult { hit: true, writeback: None };
    }

    // Miss. Write-through/no-allocate stores do not fill.
    if is_store && write_policy == WritePolicy::WriteThroughNoAllocate {
        return AccessResult { hit: false, writeback: None };
    }

    // Fill: choose an invalid way, else the LRU way.
    let victim_idx = match set_lines.iter().position(|l| !l.valid) {
        Some(i) => i,
        None => {
            let (i, _) = set_lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .expect("non-empty set");
            i
        }
    };
    let victim = set_lines[victim_idx];
    // `tag * sets + set` inverts both index paths: for power-of-two set
    // counts it equals `(tag << set_bits) | set`, and for the general
    // path it inverts the divide/modulo split.
    let writeback =
        (victim.valid && victim.dirty).then(|| (victim.tag * sets + set) << set_shift);
    set_lines[victim_idx] = Line {
        tag,
        valid: true,
        dirty: is_store
            && write_policy == WritePolicy::WriteBackAllocate
            && !inject::active(inject::DIRTY_WRITEBACK),
        last_use: clock,
    };
    AccessResult { hit: false, writeback }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WritePolicy;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B blocks = 256 B.
        Cache::new(CacheConfig::new(256, 2, 64))
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(63, false).hit, "same block");
        assert!(!c.access(64, false).hit, "next block");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds blocks whose block-address has bit 6 clear: 0x000, 0x080, 0x100...
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // touch 0x000 so 0x080 is LRU
        c.access(0x100, false); // evicts 0x080
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn writeback_emitted_for_dirty_victim() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x080, false);
        let r = c.access(0x100, false); // evicts dirty 0x000
        assert_eq!(r.writeback, Some(0x000));
    }

    #[test]
    fn clean_victim_produces_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x080, false);
        let r = c.access(0x100, false);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn write_through_stores_do_not_allocate() {
        let mut c = Cache::new(
            CacheConfig::new(256, 2, 64).with_write_policy(WritePolicy::WriteThroughNoAllocate),
        );
        assert!(!c.access(0x000, true).hit);
        assert!(!c.probe(0x000), "store miss must not fill");
        c.access(0x000, false);
        assert!(c.access(0x000, true).hit, "store hit allowed");
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 4 sets x 1 way.
        let mut c = Cache::new(CacheConfig::new(256, 1, 64));
        c.access(0x000, false);
        c.access(0x100, false); // same set (4 sets of 64B: set = block % 4)
        assert!(!c.probe(0x000));
        assert!(c.probe(0x100));
    }

    #[test]
    fn distinct_tags_same_set_coexist_up_to_assoc() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x080, false);
        assert!(c.probe(0x000) && c.probe(0x080));
    }

    #[test]
    fn platform_associativities_are_monomorphized() {
        // The four platform geometries (1/2/4/8 ways over power-of-two
        // set counts) get fixed-trip shift+mask instantiations; odd
        // associativity takes the dynamic path.
        for ways in [1u32, 2, 4, 8] {
            let c = Cache::new(CacheConfig::new(4096, ways, 64));
            assert_eq!(c.monomorphized_ways(), Some(ways));
        }
        let c = Cache::new(CacheConfig::new(4096 * 3, 3, 64));
        assert_eq!(c.monomorphized_ways(), None);
    }

    #[test]
    fn non_pow2_set_count_disqualifies_shift_mask_indexing() {
        // 3 sets x 2 ways: the associativity alone would qualify, but
        // masking with a non-power-of-two set count would alias sets, so
        // the dispatch must fall back to the general divide/modulo path.
        let c = Cache::new(CacheConfig::new(3 * 2 * 64, 2, 64));
        assert_eq!(c.monomorphized_ways(), None);
    }

    #[test]
    fn non_pow2_set_count_is_textbook_lru_with_modulo_indexing() {
        // 3 sets x 1 way x 64 B blocks: set = block % 3. Blocks 0 and 3
        // conflict; blocks 0, 1, 2 coexist.
        let mut c = Cache::new(CacheConfig::new(3 * 64, 1, 64));
        for blk in 0..3u64 {
            assert!(!c.access(blk * 64, false).hit);
        }
        for blk in 0..3u64 {
            assert!(c.access(blk * 64, false).hit, "blocks 0..3 map to distinct sets");
        }
        assert!(!c.access(3 * 64, false).hit, "block 3 conflicts with block 0");
        assert!(!c.probe(0));
        assert!(c.probe(3 * 64) && c.probe(64) && c.probe(2 * 64));
    }

    #[test]
    fn non_pow2_writeback_reconstructs_the_victim_address() {
        // Direct-mapped, 3 sets: dirty block 0 is evicted by block 3
        // (same set); the writeback address must be block 0's, proving
        // `tag * sets + set` inverts the modulo index split.
        let mut c = Cache::new(CacheConfig::new(3 * 64, 1, 64));
        c.access(0, true); // dirty fill of set 0
        let r = c.access(3 * 64, false); // evicts it
        assert_eq!(r.writeback, Some(0));
        // And a deeper tag: block 9 (tag 3, set 0) evicting block 3.
        c.access(9 * 64, true);
        let r = c.access(12 * 64, false);
        assert_eq!(r.writeback, Some(9 * 64));
    }

    #[test]
    fn dynamic_fallback_is_textbook_lru_too() {
        // The dynamic path runs the same shared body as the unrolled
        // instantiations; pin its fill/LRU behavior on an odd geometry.
        let mut c = Cache::new(CacheConfig::new(6 * 64, 6, 64)); // 1 set x 6 ways
        assert_eq!(c.monomorphized_ways(), None);
        for blk in 0..6u64 {
            assert!(!c.access(blk * 64, false).hit);
        }
        for blk in 0..6u64 {
            assert!(c.access(blk * 64, false).hit);
        }
        // Touch order is 0..5, so 0 is LRU; a 7th block evicts it.
        c.access(6 * 64, false);
        assert!(!c.probe(0));
        assert!(c.probe(6 * 64));
    }
}
