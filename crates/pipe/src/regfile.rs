//! The register-pressure model: an LRU set of live virtual registers.
//!
//! Models a graph-coloring-free "spill at capacity" allocator: values
//! pushed out of the architected register file must be reloaded before
//! reuse. Semantically this is a move-to-front LRU list, and the original
//! implementation was literally that — a `Vec` scanned per operand. On
//! the 126-entry Itanium 2 file that scan dominated replay, so the list
//! is now an intrusive doubly-linked LRU over a slot arena with an
//! open-addressed value→slot index: `touch` and `insert` are O(1) and —
//! because LRU order is a pure function of the access sequence —
//! the eviction sequence is *identical* to the scanned version's
//! (pinned by `tests/regfile_equivalence.rs` on real program traces).

use bioperf_trace::inject;

/// Sentinel for "no slot" in the linked list and the hash index.
const NIL: u32 = u32::MAX;

/// Fibonacci-multiplicative hash constant (2^64 / φ).
const HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy)]
struct Slot {
    value: u64,
    prev: u32,
    next: u32,
}

/// O(1) LRU over virtual-register numbers.
///
/// `head` is the least-recently-used value (the eviction victim), `tail`
/// the most-recently-used. The index is a linear-probe table of slot ids
/// sized ≥ 4× capacity (load factor ≤ 25%), with backward-shift deletion
/// so probes never traverse tombstones. Each entry's key is mirrored
/// into a flat `keys` array so the probe loop — the hottest path in the
/// whole register model — walks one contiguous array instead of
/// dereferencing the slot arena per step.
#[derive(Debug, Clone)]
pub struct RegFile {
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    index: Vec<u32>,
    /// `keys[pos]` is the value of the entry at `index[pos]`; garbage
    /// wherever `index[pos] == NIL`.
    keys: Vec<u64>,
    /// `index.len() == 1 << bits`; hashes take the top `bits` of v * K.
    shift: u32,
    capacity: usize,
}

impl RegFile {
    /// A file with the given number of logical registers.
    pub fn new(logical_regs: u32) -> Self {
        // A few registers are permanently claimed for addressing,
        // constants, and the stack/frame pointers.
        let capacity = (logical_regs.saturating_sub(2)).max(2) as usize;
        let table = (capacity * 4).next_power_of_two().max(8);
        Self {
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            index: vec![NIL; table],
            keys: vec![0; table],
            shift: 64 - table.trailing_zeros(),
            capacity,
        }
    }

    /// Residents the file can hold before evicting.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently resident values.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Touches `v`; returns `true` if it was resident (now MRU).
    pub fn touch(&mut self, v: u64) -> bool {
        if let Some(slot) = self.find(v) {
            if !inject::active(inject::REGFILE_TOUCH_STALE) {
                self.move_to_mru(slot);
            }
            true
        } else {
            false
        }
    }

    /// Inserts `v` as MRU, returning the evicted LRU value if the file
    /// was full (`None` if `v` was already resident or there was room).
    pub fn insert(&mut self, v: u64) -> Option<u64> {
        // One merged probe pass answers "resident?" and, on a miss,
        // leaves `pos` at the first free entry of v's chain — the exact
        // position a separate index_insert would find again.
        let mask = self.index.len() - 1;
        let mut pos = self.hash(v);
        loop {
            let slot = self.index[pos];
            if slot == NIL {
                break;
            }
            if self.keys[pos] == v {
                // Already resident: refresh, exactly like `touch`.
                if !inject::active(inject::REGFILE_TOUCH_STALE) {
                    self.move_to_mru(slot);
                }
                return None;
            }
            pos = (pos + 1) & mask;
        }
        if self.slots.len() < self.capacity {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot { value: v, prev: NIL, next: NIL });
            self.push_mru(slot);
            self.index[pos] = slot;
            self.keys[pos] = v;
            None
        } else {
            // Reuse the LRU slot for the incoming value. The removal's
            // backward shift can slide entries into (or past) `pos`, so
            // v's entry must be re-probed, not placed at the stale `pos`.
            let slot = if inject::active(inject::REGFILE_EVICT_MRU) {
                self.tail
            } else {
                self.head
            };
            let evicted = self.slots[slot as usize].value;
            self.index_remove(evicted);
            self.unlink(slot);
            self.slots[slot as usize].value = v;
            self.push_mru(slot);
            self.index_insert(v, slot);
            Some(evicted)
        }
    }

    fn hash(&self, v: u64) -> usize {
        (v.wrapping_mul(HASH_K) >> self.shift) as usize
    }

    fn find(&self, v: u64) -> Option<u32> {
        let mask = self.index.len() - 1;
        let mut pos = self.hash(v);
        loop {
            let slot = self.index[pos];
            if slot == NIL {
                return None;
            }
            if self.keys[pos] == v {
                return Some(slot);
            }
            pos = (pos + 1) & mask;
        }
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

    fn move_to_mru(&mut self, slot: u32) {
        if self.tail == slot {
            return;
        }
        self.unlink(slot);
        self.push_mru(slot);
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
        let mut rf = RegFile::new(6); // capacity 4
        assert_eq!(rf.capacity(), 4);
        assert_eq!(rf.insert(1), None);
        assert_eq!(rf.insert(2), None);
        assert_eq!(rf.insert(3), None);
        assert_eq!(rf.insert(4), None);
        assert!(rf.touch(1)); // 1 becomes MRU
        assert_eq!(rf.insert(5), Some(2), "2 is now LRU");
        assert!(!rf.touch(2));
        assert!(rf.touch(1));
    }

    #[test]
    fn eviction_order_at_capacity_is_strict_lru() {
        let mut rf = RegFile::new(4); // capacity 2
        assert_eq!(rf.insert(10), None);
        assert_eq!(rf.insert(20), None);
        assert_eq!(rf.insert(30), Some(10), "oldest goes first");
        assert_eq!(rf.insert(40), Some(20));
        assert_eq!(rf.insert(30), None, "already resident: refresh, no eviction");
        assert_eq!(rf.insert(50), Some(40), "30 was refreshed above 40");
        assert_eq!(rf.insert(60), Some(30));
    }

    #[test]
    fn reinserting_resident_value_refreshes_without_evicting() {
        let mut rf = RegFile::new(5); // capacity 3
        rf.insert(1);
        rf.insert(2);
        rf.insert(3);
        assert_eq!(rf.insert(2), None);
        assert_eq!(rf.len(), 3);
        assert_eq!(rf.insert(4), Some(1), "2 refreshed, 1 remains LRU");
    }
}
