//! The scanned reference register file.
//!
//! This is the original `Vec`-scan move-to-front LRU that
//! `bioperf_pipe::RegFile` replaced with an intrusive linked list, now
//! holding several file sizes at once. LRU order is a pure function of
//! the access sequence, so one reference file per size must agree with
//! every residency bit the optimized file reports for that size — which
//! pins which value each eviction removes. This is the *only* copy of
//! the oracle; the equivalence tests in `tests/regfile_equivalence.rs`
//! and the conformance fuzzer both import it from here.

/// Scan-based LRU over virtual-register numbers: index 0 is the LRU
/// victim, the back is most recently used.
#[derive(Debug, Clone)]
pub struct RefRegFile {
    slots: Vec<u64>,
    capacity: usize,
}

impl RefRegFile {
    /// A file with the given number of logical registers; the capacity
    /// formula must match `RegFile::new` (a few registers are reserved
    /// for addressing, constants, and the stack/frame pointers).
    pub fn new(logical_regs: u32) -> Self {
        let capacity = (logical_regs.saturating_sub(2)).max(2) as usize;
        Self { slots: Vec::with_capacity(capacity), capacity }
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
        if let Some(pos) = self.slots.iter().position(|&x| x == v) {
            let val = self.slots.remove(pos);
            self.slots.push(val);
            true
        } else {
            false
        }
    }

    /// Inserts `v` as MRU, returning the evicted LRU value if the file
    /// was full (`None` if `v` was already resident or there was room).
    pub fn insert(&mut self, v: u64) -> Option<u64> {
        if self.touch(v) {
            return None;
        }
        let evicted =
            if self.slots.len() == self.capacity { Some(self.slots.remove(0)) } else { None };
        self.slots.push(v);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_semantics() {
        let mut rf = RefRegFile::new(6); // capacity 4
        assert_eq!(rf.capacity(), 4);
        assert_eq!(rf.insert(1), None);
        assert_eq!(rf.insert(2), None);
        assert_eq!(rf.insert(3), None);
        assert_eq!(rf.insert(4), None);
        assert!(rf.touch(1)); // 1 becomes MRU
        assert_eq!(rf.insert(5), Some(2), "2 is now LRU");
        assert!(!rf.touch(2));
        assert!(rf.touch(1));
        assert!(!rf.is_empty());
        assert_eq!(rf.len(), 4);
    }
}
