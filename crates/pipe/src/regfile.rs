//! The register-pressure model: LRU sets of live virtual registers, one
//! per register-file size, kept in a single recency list.
//!
//! Models a graph-coloring-free "spill at capacity" allocator: values
//! pushed out of the architected register file must be reloaded before
//! reuse. Semantically each file is a move-to-front LRU list, and the
//! original implementation was literally that — a `Vec` scanned per
//! operand. On the 126-entry Itanium 2 file that scan dominated replay,
//! so the list is an intrusive doubly-linked LRU over a slot arena with
//! an open-addressed value→slot index, and one [`reference`] is O(1) per
//! size — because LRU order is a pure function of the access sequence,
//! the eviction sequence is *identical* to the scanned version's (pinned
//! by `tests/regfile_equivalence.rs` on real program traces).
//!
//! Several sizes share one list by LRU inclusion (Mattson et al.'s stack
//! algorithms, as `bioperf_cache::stackdist` applies them to caches):
//! every size sees the same reference sequence, and a referenced value
//! that missed is immediately re-inserted, so a value is resident in a
//! file of capacity `c` iff its recency position is `< c`. The list is
//! sized to the largest capacity; each smaller capacity keeps a boundary
//! marker on the slot at position `c - 1`, and each slot records how
//! many boundaries lie above it (its *band*). A reference moves the
//! markers it crosses one step toward the MRU end.
//!
//! [`reference`]: RegFile::reference

use bioperf_trace::inject;

/// Sentinel for "no slot" in the linked list and the hash index.
const NIL: u32 = u32::MAX;

/// Fibonacci-multiplicative hash constant (2^64 / φ).
const HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy)]
struct Slot {
    value: u64,
    /// Toward the LRU end.
    prev: u32,
    /// Toward the MRU end.
    next: u32,
}

/// O(1)-per-size LRU register files over virtual-register numbers.
///
/// `head` is the least-recently-used value (the largest file's eviction
/// victim), `tail` the most-recently-used. The index is a linear-probe
/// table of slot ids sized ≥ 4× the largest capacity (load factor
/// ≤ 25%), with backward-shift deletion so probes never traverse
/// tombstones. Each entry's key is mirrored into a flat `keys` array so
/// the probe loop — the hottest path in the whole register model — walks
/// one contiguous array instead of dereferencing the slot arena per step.
#[derive(Debug, Clone)]
pub struct RegFile {
    slots: Vec<Slot>,
    /// `bands[s]`: how many of the smaller capacities slot `s`'s recency
    /// position has reached, so it is resident in sizes `bands[s]..`.
    bands: Vec<u8>,
    head: u32,
    tail: u32,
    index: Vec<u32>,
    /// `keys[pos]` is the value of the entry at `index[pos]`; garbage
    /// wherever `index[pos] == NIL`.
    keys: Vec<u64>,
    /// `index.len() == 1 << bits`; hashes take the top `bits` of v * K.
    shift: u32,
    /// Distinct capacities, ascending; the last sizes the list.
    caps: Vec<usize>,
    /// `marks[k]`: the slot at recency position `caps[k] - 1` (the LRU
    /// resident of size `k`), `NIL` until the list holds `caps[k]`
    /// values. One per capacity below the largest.
    marks: Vec<u32>,
    /// One bit per size.
    all: u32,
}

impl RegFile {
    /// Residents a file with `logical_regs` registers holds: a few
    /// registers are permanently claimed for addressing, constants, and
    /// the stack/frame pointers.
    pub fn capacity_of(logical_regs: u32) -> usize {
        (logical_regs.saturating_sub(2)).max(2) as usize
    }

    /// Files with the given numbers of logical registers, sharing one
    /// recency list. Files of equal capacity are one size.
    ///
    /// # Panics
    ///
    /// If `logical_regs` is empty or names more than 32 capacities.
    pub fn new(logical_regs: &[u32]) -> Self {
        let mut caps: Vec<usize> = logical_regs.iter().map(|&r| Self::capacity_of(r)).collect();
        caps.sort_unstable();
        caps.dedup();
        assert!((1..=32).contains(&caps.len()), "1 to 32 register-file sizes");
        let largest = caps[caps.len() - 1];
        let table = (largest * 4).next_power_of_two().max(8);
        Self {
            slots: Vec::with_capacity(largest),
            bands: Vec::with_capacity(largest),
            head: NIL,
            tail: NIL,
            index: vec![NIL; table],
            keys: vec![0; table],
            shift: 64 - table.trailing_zeros(),
            marks: vec![NIL; caps.len() - 1],
            all: u32::MAX >> (32 - caps.len()),
            caps,
        }
    }

    /// The distinct capacities, ascending: bit `k` of a
    /// [`reference`](Self::reference) mask is `sizes()[k]`.
    pub fn sizes(&self) -> &[usize] {
        &self.caps
    }

    /// Values currently resident in size `k`.
    pub fn residents(&self, k: usize) -> usize {
        self.bands.iter().filter(|&&b| b as usize <= k).count()
    }

    /// References `v` in every size: returns the mask of sizes it was
    /// resident in, and leaves it MRU everywhere (a size it missed in
    /// evicts its LRU value, if full, to take it in).
    pub fn reference(&mut self, v: u64) -> u32 {
        // One probe pass answers "resident?" and, on a miss, leaves
        // `pos` at the first free entry of v's chain — the exact
        // position a separate index_insert would find again.
        let mask = self.index.len() - 1;
        let mut pos = self.hash(v);
        loop {
            let slot = self.index[pos];
            if slot == NIL {
                break;
            }
            if self.keys[pos] == v {
                let band = self.bands[slot as usize];
                if !inject::active(inject::REGFILE_TOUCH_STALE) && self.tail != slot {
                    // v leaves position ≥ caps[k] for every k < band:
                    // each of those boundaries slides one step.
                    for k in 0..band as usize {
                        self.cross(k);
                    }
                    // As the LRU resident of size `band`, v hands the
                    // boundary to its successor, which stays inside.
                    let b = band as usize;
                    if b < self.marks.len() && self.marks[b] == slot {
                        self.marks[b] = self.slots[slot as usize].next;
                    }
                    self.bands[slot as usize] = 0;
                    self.unlink(slot);
                    self.push_mru(slot);
                }
                return self.all & (u32::MAX << band);
            }
            pos = (pos + 1) & mask;
        }
        let len = self.slots.len();
        if len < self.caps[self.caps.len() - 1] {
            for k in 0..self.marks.len() {
                if self.caps[k] <= len {
                    self.cross(k);
                }
            }
            let slot = len as u32;
            self.slots.push(Slot { value: v, prev: NIL, next: NIL });
            self.bands.push(0);
            self.push_mru(slot);
            self.index[pos] = slot;
            self.keys[pos] = v;
            for k in 0..self.marks.len() {
                if self.caps[k] == len + 1 {
                    self.marks[k] = self.head;
                }
            }
        } else if inject::active(inject::REGFILE_EVICT_MRU) {
            // The MRU value is replaced in place: nobody moves.
            let slot = self.tail;
            let evicted = self.slots[slot as usize].value;
            self.index_remove(evicted);
            self.slots[slot as usize].value = v;
            self.index_insert(v, slot);
        } else {
            // Reuse the LRU slot for the incoming value. The removal's
            // backward shift can slide entries into (or past) `pos`, so
            // v's entry must be re-probed, not placed at the stale `pos`.
            for k in 0..self.marks.len() {
                self.cross(k);
            }
            let slot = self.head;
            let evicted = self.slots[slot as usize].value;
            self.index_remove(evicted);
            self.unlink(slot);
            self.slots[slot as usize].value = v;
            self.bands[slot as usize] = 0;
            self.push_mru(slot);
            self.index_insert(v, slot);
        }
        0
    }

    /// Moves boundary `k` one step toward the MRU end: its resident at
    /// position `caps[k] - 1` drops out of size `k`.
    fn cross(&mut self, k: usize) {
        let m = self.marks[k];
        self.bands[m as usize] += 1;
        self.marks[k] = self.slots[m as usize].next;
    }

    fn hash(&self, v: u64) -> usize {
        (v.wrapping_mul(HASH_K) >> self.shift) as usize
    }

    fn index_insert(&mut self, v: u64, slot: u32) {
        let mask = self.index.len() - 1;
        let mut pos = self.hash(v);
        while self.index[pos] != NIL {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = slot;
        self.keys[pos] = v;
    }

    /// Removes `v`'s entry with backward-shift deletion: later entries of
    /// the probe chain slide into the hole unless they already sit at or
    /// past their ideal position, so lookups never need tombstones.
    ///
    /// `v` must be present: its entry is then reachable without crossing
    /// a free slot, so probing on `keys` alone (garbage at free entries
    /// is never inspected) cannot misidentify the entry.
    fn index_remove(&mut self, v: u64) {
        let mask = self.index.len() - 1;
        let mut pos = self.hash(v);
        while self.keys[pos] != v {
            pos = (pos + 1) & mask;
        }
        let mut hole = pos;
        let mut probe = (pos + 1) & mask;
        while self.index[probe] != NIL {
            let ideal = self.hash(self.keys[probe]);
            if (probe.wrapping_sub(ideal) & mask) >= (probe.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[probe];
                self.keys[hole] = self.keys[probe];
                hole = probe;
            }
            probe = (probe + 1) & mask;
        }
        self.index[hole] = NIL;
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn push_mru(&mut self, slot: u32) {
        self.slots[slot as usize].prev = self.tail;
        self.slots[slot as usize].next = NIL;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.slots[self.tail as usize].next = slot;
        }
        self.tail = slot;
    }
}

// The scanned reference implementation this LRU replaced lives in the
// conformance crate as `bioperf_conform::RefRegFile` (this crate cannot
// depend on it without a cycle). Differential coverage — adversarial
// synthetic sequences, real-trace equivalence, seeded fuzzing — lives in
// `crates/conform` and `tests/regfile_equivalence.rs`; the tests below
// only pin the basic LRU contract directly.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_semantics() {
        let mut rf = RegFile::new(&[6]); // capacity 4
        assert_eq!(rf.sizes(), [4]);
        for v in 1..=4 {
            assert_eq!(rf.reference(v), 0);
        }
        assert_eq!(rf.reference(1), 1, "1 becomes MRU");
        assert_eq!(rf.reference(5), 0, "evicts 2, now LRU");
        assert_eq!(rf.reference(1), 1);
        assert_eq!(rf.reference(2), 0, "2 was evicted; evicts 3");
        assert_eq!(rf.reference(3), 0);
        assert_eq!(rf.residents(0), 4);
    }

    #[test]
    fn sizes_are_nested_by_recency() {
        // Capacities 2 and 4 (equal logical counts share one size).
        let mut rf = RegFile::new(&[6, 4, 6]);
        assert_eq!(rf.sizes(), [2, 4]);
        for v in 1..=4 {
            assert_eq!(rf.reference(v), 0);
        }
        // Recency order MRU→LRU: 4 3 2 1.
        assert_eq!(rf.reference(3), 0b11, "position 1: in both");
        // 3 4 2 1.
        assert_eq!(rf.reference(2), 0b10, "position 2: only in the larger");
        // 2 3 4 1.
        assert_eq!(rf.reference(1), 0b10, "position 3: only in the larger");
        // 1 2 3 4.
        assert_eq!(rf.reference(9), 0, "new value evicts 4 from the larger");
        // 9 1 2 3.
        assert_eq!(rf.reference(4), 0);
        // 4 9 1 2.
        assert_eq!(rf.reference(1), 0b10);
        assert_eq!((rf.residents(0), rf.residents(1)), (2, 4));
    }
}
