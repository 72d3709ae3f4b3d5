//! Deterministic address normalization.
//!
//! The [`Tape`](crate::Tape) records effective addresses of real Rust
//! references, so a raw trace depends on where the allocator happened to
//! place each buffer: two identical runs produce cache statistics that
//! differ by a handful of conflict misses, and runs on different machines
//! (or under ASLR) are not comparable at all. The [`AddressNormalizer`]
//! rewrites every traced address into a stable *virtual* address space so
//! that identical `(program, variant, scale, seed)` runs emit
//! bit-identical address streams — the property the paper-claim checks
//! (Table 2 AMAT, Table 8 speedups) assert exactly.
//!
//! # Model
//!
//! The virtual space is a sequence of **regions**. A region is created in
//! one of two ways, both of which happen at deterministic points of the
//! traced program's execution:
//!
//! * **Registration** ([`Tracer::region`](crate::Tracer::region)): a
//!   kernel declares a working array right after allocating it. The whole
//!   `[base, base + len)` raw range maps onto one fresh region, so the
//!   array's internal layout — element offsets, line crossings, stride
//!   patterns — is preserved exactly. Registration supersedes any older
//!   region overlapping the same raw range (the memory was necessarily
//!   freed and reused).
//! * **First touch**: a load or store whose raw address lies in no known
//!   region opens a fallback region covering exactly the touched object
//!   (`size_of::<T>()` bytes). Later touches that exactly abut or overlap
//!   a region's edge extend it, so an unregistered array scanned
//!   contiguously still coalesces into a single region.
//!
//! Region slots are numbered in creation order. Since kernels execute the
//! same instrumented operations in the same order on every run, creation
//! order — and therefore every normalized address — is a pure function of
//! the workload, not of the allocator. Each slot's base address carries a
//! deterministic line-aligned stagger so that regions do not all collide
//! on cache set 0 the way a uniform power-of-two placement would.
//!
//! # The recent-region table
//!
//! Every traced load and store asks for its region, and the kernels'
//! inner loops sweep a handful of arrays in alternation, so a small table
//! of recently used regions answers almost every touch without walking
//! the `BTreeMap`. Each entry holds `(raw base, limit, virt base)` with
//! `limit = min(base + len, next region's base)`, and a touch hits only
//! when `base <= addr && addr + size <= limit`: such a touch lies inside
//! exactly one region and extends nothing, so the map would answer it
//! with `virt base + (addr - base)` as well. Only a registration can
//! make an entry wrong, since it drops the regions it supersedes, so it
//! clears the table. Other region changes leave every entry exact or
//! conservative: a forward extension only grows `len`; a backward
//! extension re-keys a region at a lower base with a matching lower
//! virtual base, which maps every address it held as before; and neither
//! a backward extension nor a new fallback region starts inside any
//! region's `[base, limit)`, or the touch would have landed in that
//! region instead. The map stays the one source of truth, and
//! [`NormalizerStats::table_misses`] counts the touches that reached it.
//!
//! The one caveat is *cross-allocation* coalescing: two separate
//! unregistered allocations would be joined if the allocator placed them
//! with zero gap and the trace touched them edge-to-edge. Heap allocators
//! keep per-chunk metadata between allocations, so this does not occur in
//! practice, and registered regions are immune by construction. Register
//! every hot array (the kernels in this workspace all do).

use std::collections::BTreeMap;

/// Start of the virtual heap (all normalized addresses sit above this).
const HEAP_BASE: u64 = 0x4000_0000_0000;

/// Virtual spacing between region slots; no region may outgrow it.
const SLOT_SPACING: u64 = 1 << 32;

/// Headroom below a region's anchor for backward extension.
const ANCHOR_BIAS: u64 = 1 << 31;

/// One region of the virtual address space.
#[derive(Debug, Clone, Copy)]
struct Region {
    /// Current raw extent in bytes.
    len: u64,
    /// Virtual address of the region's current raw base.
    virt_base: u64,
}

/// Statistics about the normalization pass (diagnostics only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NormalizerStats {
    /// Regions created through explicit registration.
    pub registered_regions: u64,
    /// Regions created by first touch of an unregistered address.
    pub fallback_regions: u64,
    /// Touches the recent-region table could not answer, which walked
    /// the region map instead. A deterministic work counter: it depends
    /// only on the touch sequence.
    pub table_misses: u64,
}

/// Entries in the recent-region table. At Small scale, eight miss on
/// about half of the HMM kernels' touches (their inner loops cycle
/// through more arrays); sixteen miss on 1.1–1.9% of those and of
/// dnapenny's touches, and on at most 0.12% of every other kernel's.
const TABLE_ENTRIES: usize = 16;

/// One recent-region table entry; `span == 0` marks an empty slot.
#[derive(Debug, Clone, Copy, Default)]
struct Recent {
    /// Raw base address of the region.
    base: u64,
    /// `limit - base`: the raw extent known to belong to this region
    /// alone.
    span: u64,
    /// Virtual address of `base`.
    virt_base: u64,
}

/// Maps raw (allocator-dependent) addresses to stable virtual addresses.
#[derive(Debug, Default)]
pub struct AddressNormalizer {
    /// Live regions keyed by current raw base address.
    regions: BTreeMap<u64, Region>,
    /// Recent-region table in front of `regions` (see the module docs).
    recent: [Recent; TABLE_ENTRIES],
    /// Slot the next table fill replaces (round robin).
    next_fill: usize,
    /// Next region slot to hand out (creation-order identity).
    next_slot: u64,
    stats: NormalizerStats,
}

/// SplitMix64 finalizer — the per-slot stagger hash.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl AddressNormalizer {
    /// Creates an empty normalizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Diagnostics about region creation so far.
    pub fn stats(&self) -> NormalizerStats {
        self.stats
    }

    /// Virtual anchor address of region slot `slot`.
    ///
    /// Slots are spaced far apart, biased to leave backward-extension
    /// headroom, and staggered by a deterministic line-aligned offset so
    /// region bases spread across cache sets like real allocations do.
    fn slot_anchor(slot: u64) -> u64 {
        // Stagger < 4 MiB, 64-byte aligned: slot spacing is a power of
        // two (≡ 0 modulo every cache's way size), so without the stagger
        // every region base would compete for the same sets of the 4 MB
        // direct-mapped L2. Spreading bases across its full index range
        // mimics how a real bump-ish allocator scatters arrays.
        let stagger = mix(slot) & 0x003F_FFC0;
        HEAP_BASE + slot * SLOT_SPACING + ANCHOR_BIAS + stagger
    }

    fn new_region(&mut self, len: u64) -> Region {
        let slot = self.next_slot;
        self.next_slot += 1;
        assert!(
            len < SLOT_SPACING - ANCHOR_BIAS - (1 << 22),
            "region of {len} bytes exceeds the virtual slot capacity"
        );
        Region { len, virt_base: Self::slot_anchor(slot) }
    }

    /// Declares `[base, base + len)` as one fresh region, superseding any
    /// overlapping older regions (their memory was freed and reused).
    pub fn register(&mut self, base: u64, len: u64) {
        if len == 0 {
            return;
        }
        // Drop every region overlapping the new range.
        let mut doomed = Vec::new();
        if let Some((&b, r)) = self.regions.range(..base).next_back() {
            if b + r.len > base {
                doomed.push(b);
            }
        }
        doomed.extend(self.regions.range(base..base + len).map(|(&b, _)| b));
        for b in doomed {
            self.regions.remove(&b);
        }
        let region = self.new_region(len);
        self.stats.registered_regions += 1;
        self.regions.insert(base, region);
        // Superseded regions may sit in the table.
        self.recent = [Recent::default(); TABLE_ENTRIES];
    }

    /// Maps one touched object `[addr, addr + size)` to its virtual
    /// address, opening or extending a region as needed.
    #[inline]
    pub fn normalize(&mut self, addr: u64, size: u64) -> u64 {
        let size = size.max(1);
        for e in &self.recent {
            let offset = addr.wrapping_sub(e.base);
            if offset < e.span && e.span - offset >= size {
                return e.virt_base + offset;
            }
        }
        self.normalize_slow(addr, size)
    }

    /// Enters the region keyed `base` into the recent-region table,
    /// refreshing its entry if it already has one.
    fn fill_recent(&mut self, base: u64, region: Region) {
        let mut limit = base + region.len;
        if let Some((&next, _)) = self.regions.range(base + 1..).next() {
            limit = limit.min(next);
        }
        let entry = Recent { base, span: limit - base, virt_base: region.virt_base };
        let slot = match self.recent.iter().position(|e| e.span > 0 && e.base == base) {
            Some(slot) => slot,
            None => {
                let slot = self.next_fill;
                self.next_fill = (slot + 1) % TABLE_ENTRIES;
                slot
            }
        };
        self.recent[slot] = entry;
    }

    /// The region-map walk behind [`normalize`](Self::normalize), for
    /// touches the recent-region table cannot answer.
    #[cold]
    #[inline(never)]
    fn normalize_slow(&mut self, addr: u64, size: u64) -> u64 {
        self.stats.table_misses += 1;

        // Inside or exactly at the growing edge of a preceding region?
        if let Some((&base, region)) = self.regions.range_mut(..=addr).next_back() {
            if addr <= base + region.len {
                let end = addr + size - base;
                if end > region.len {
                    region.len = end;
                }
                let region = *region;
                self.fill_recent(base, region);
                return region.virt_base + (addr - base);
            }
        }

        // Exactly abutting (or overlapping) the front of a following
        // region? Extend it backward, keeping its mapping linear.
        if let Some((&base, &region)) = self.regions.range(addr..addr + size + 1).next() {
            debug_assert!(base > addr);
            let growth = base - addr;
            assert!(
                growth < ANCHOR_BIAS,
                "region extended {growth} bytes backward past its anchor headroom"
            );
            self.regions.remove(&base);
            let grown = Region {
                len: region.len + growth,
                virt_base: region.virt_base - growth,
            };
            self.regions.insert(addr, grown);
            self.fill_recent(addr, grown);
            return grown.virt_base;
        }

        // Unknown memory: open a fallback region for this object.
        let region = self.new_region(size);
        self.stats.fallback_regions += 1;
        self.regions.insert(addr, region);
        self.fill_recent(addr, region);
        region.virt_base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_touch_sequences_normalize_identically() {
        // Two "runs" of the same logical program with different raw
        // layouts (simulating allocator drift) produce identical virtual
        // streams.
        let run = |heap_base: u64| -> Vec<u64> {
            let mut n = AddressNormalizer::new();
            let a = heap_base; // array A: 64 elements of 8 bytes
            let b = heap_base + 0x2000; // array B elsewhere
            n.register(a, 512);
            n.register(b, 512);
            let mut out = Vec::new();
            for i in 0..64 {
                out.push(n.normalize(a + i * 8, 8));
                out.push(n.normalize(b + (63 - i) * 8, 8));
            }
            out.push(n.normalize(heap_base + 0x9000, 8)); // stray scalar
            out
        };
        assert_eq!(run(0x7f12_3450_0000), run(0x5566_0000_1230));
    }

    #[test]
    fn registered_region_preserves_internal_layout() {
        let mut n = AddressNormalizer::new();
        let base = 0x1234_5678;
        n.register(base, 4096);
        let v0 = n.normalize(base, 4);
        let v100 = n.normalize(base + 100, 4);
        let v4092 = n.normalize(base + 4092, 4);
        assert_eq!(v100 - v0, 100);
        assert_eq!(v4092 - v0, 4092);
        assert_eq!(n.stats().registered_regions, 1);
        assert_eq!(n.stats().fallback_regions, 0);
    }

    #[test]
    fn contiguous_first_touch_coalesces() {
        let mut n = AddressNormalizer::new();
        let base = 0x9000;
        let first = n.normalize(base, 4);
        for i in 1..100u64 {
            let v = n.normalize(base + i * 4, 4);
            assert_eq!(v, first + i * 4, "element {i} left the region");
        }
        assert_eq!(n.stats().fallback_regions, 1);
    }

    #[test]
    fn backward_touch_extends_frontward_region() {
        let mut n = AddressNormalizer::new();
        let base = 0x9000;
        let v8 = n.normalize(base + 8, 8);
        let v0 = n.normalize(base, 8); // exactly abuts the front
        assert_eq!(v8 - v0, 8);
        assert_eq!(n.stats().fallback_regions, 1);
    }

    #[test]
    fn disjoint_objects_get_disjoint_regions() {
        let mut n = AddressNormalizer::new();
        let a = n.normalize(0x9000, 8);
        let b = n.normalize(0x9010, 8); // 8-byte gap: different object
        assert_ne!(a, b);
        assert_eq!(n.stats().fallback_regions, 2);
        // The same raw addresses keep their mapping.
        assert_eq!(n.normalize(0x9000, 8), a);
        assert_eq!(n.normalize(0x9010, 8), b);
    }

    #[test]
    fn registration_supersedes_overlapping_regions() {
        let mut n = AddressNormalizer::new();
        let stale = n.normalize(0x9000, 8);
        n.register(0x8f00, 0x200); // reused allocation covering 0x9000
        let fresh = n.normalize(0x9000, 8);
        assert_ne!(stale, fresh);
        assert_eq!(n.normalize(0x8f00, 8) + 0x100, fresh);
    }

    #[test]
    fn slot_anchors_are_staggered() {
        let anchors: Vec<u64> = (0..16).map(AddressNormalizer::slot_anchor).collect();
        let offsets: std::collections::HashSet<u64> =
            anchors.iter().map(|a| a & (SLOT_SPACING - 1)).collect();
        assert!(offsets.len() > 8, "slot bases should spread across cache sets");
        assert!(anchors.iter().all(|a| a % 64 == 0), "anchors stay line-aligned");
    }

    #[test]
    fn zero_sized_registration_is_ignored() {
        let mut n = AddressNormalizer::new();
        n.register(0x9000, 0);
        assert_eq!(n.stats().registered_regions, 0);
    }
}
