//! Property test: the recent-region table in front of
//! [`AddressNormalizer`]'s region map never changes an answer. Random
//! sequences of registrations and touches over a small arena — so that
//! regions overlap, extend forward and backward, supersede each other and
//! abut — must normalize every touch exactly as the plain `BTreeMap`
//! walk does. That walk is kept below, verbatim, as the reference.

use std::collections::BTreeMap;

use bioperf_trace::AddressNormalizer;
use proptest::prelude::*;

/// Reference: the uncached region-map normalizer.
mod reference {
    use super::BTreeMap;

    const HEAP_BASE: u64 = 0x4000_0000_0000;
    const SLOT_SPACING: u64 = 1 << 32;
    const ANCHOR_BIAS: u64 = 1 << 31;

    #[derive(Clone, Copy)]
    struct Region {
        len: u64,
        virt_base: u64,
    }

    #[derive(Default)]
    pub struct Normalizer {
        regions: BTreeMap<u64, Region>,
        next_slot: u64,
        pub registered: u64,
        pub fallback: u64,
    }

    fn mix(z: u64) -> u64 {
        let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl Normalizer {
        fn new_region(&mut self, len: u64) -> Region {
            let slot = self.next_slot;
            self.next_slot += 1;
            let stagger = mix(slot) & 0x003F_FFC0;
            Region { len, virt_base: HEAP_BASE + slot * SLOT_SPACING + ANCHOR_BIAS + stagger }
        }

        pub fn register(&mut self, base: u64, len: u64) {
            if len == 0 {
                return;
            }
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
            self.registered += 1;
            self.regions.insert(base, region);
        }

        pub fn normalize(&mut self, addr: u64, size: u64) -> u64 {
            let size = size.max(1);
            if let Some((&base, region)) = self.regions.range_mut(..=addr).next_back() {
                if addr <= base + region.len {
                    let end = addr + size - base;
                    if end > region.len {
                        region.len = end;
                    }
                    return region.virt_base + (addr - base);
                }
            }
            if let Some((&base, &region)) = self.regions.range(addr..addr + size + 1).next() {
                let growth = base - addr;
                self.regions.remove(&base);
                let grown = Region { len: region.len + growth, virt_base: region.virt_base - growth };
                self.regions.insert(addr, grown);
                return grown.virt_base;
            }
            let region = self.new_region(size);
            self.fallback += 1;
            self.regions.insert(addr, region);
            region.virt_base
        }
    }
}

/// Raw base of the test arena; every address lies in its first 1 KiB.
const ARENA: u64 = 0x7f00_0000_0000;

/// One event: `(is_register, unit, size_class)`. A registration covers
/// `[ARENA + 8·unit, +8·(size_class + 1))`; a touch reads
/// `1 << (size_class % 4)` bytes at `ARENA + 4·unit`, so touches land on
/// edges, inside, just past and just before regions.
type Event = (bool, u64, u64);

fn event() -> impl Strategy<Value = Event> {
    (prop::bool::ANY, 0..256u64, 0..24u64)
}

/// Replays `events` through both normalizers, failing on the first
/// touch whose answers differ.
fn check(events: &[Event], registers_per_touch: u64) {
    let (mut cached, mut uncached) = (AddressNormalizer::new(), reference::Normalizer::default());
    for (i, &(register, unit, size_class)) in events.iter().enumerate() {
        // Registrations are rarer than touches, as in the kernels.
        if register && unit % registers_per_touch == 0 {
            let (base, len) = (ARENA + 8 * (unit % 128), 8 * (size_class + 1));
            cached.register(base, len);
            uncached.register(base, len);
        } else {
            let (addr, size) = (ARENA + 4 * unit, 1u64 << (size_class % 4));
            prop_assert_eq!(
                cached.normalize(addr, size),
                uncached.normalize(addr, size),
                "event {} touches {:#x}+{}",
                i,
                addr,
                size
            );
        }
    }
    let stats = cached.stats();
    prop_assert_eq!(stats.registered_regions, uncached.registered);
    prop_assert_eq!(stats.fallback_regions, uncached.fallback);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Mixed registrations and touches: supersession and stale entries.
    #[test]
    fn cached_normalize_matches_the_region_map(
        events in prop::collection::vec(event(), 1..400),
    ) {
        check(&events, 3);
    }

    /// Mostly touches: long-lived fallback regions that grow forward and
    /// backward, abut, and outnumber the table's entries.
    #[test]
    fn cached_normalize_matches_the_region_map_under_growth(
        events in prop::collection::vec(event(), 1..400),
    ) {
        check(&events, 29);
    }
}

/// The table is actually in use: a hot loop over two registered arrays
/// reaches the region map only on each array's first touch.
#[test]
fn repeated_touches_of_known_regions_skip_the_region_map() {
    let mut n = AddressNormalizer::new();
    n.register(ARENA, 512);
    n.register(ARENA + 0x1000, 512);
    for round in 0..4 {
        for i in 0..64 {
            n.normalize(ARENA + 8 * i, 8);
            n.normalize(ARENA + 0x1000 + 8 * i, 8);
        }
        assert_eq!(n.stats().table_misses, 2, "round {round}");
    }
}
