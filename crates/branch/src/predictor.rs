//! Predictor components and the per-branch hybrid.

use bioperf_trace::inject;

use crate::counter::SatCounter;

/// A single-counter bimodal predictor: learns a branch's bias.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bimodal {
    counter: SatCounter,
}

impl Bimodal {
    /// Creates a cold (weakly not-taken) bimodal predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Predicted direction.
    #[inline]
    pub fn predict(&self) -> bool {
        self.counter.predict()
    }

    /// Trains on the observed outcome.
    #[inline]
    pub fn update(&mut self, taken: bool) {
        self.counter.train(taken);
    }
}

/// A global-history-indexed table of two-bit counters.
///
/// Because the study gives every static branch a *private* table (no
/// aliasing), no PC hashing is required; the table is indexed purely by
/// the low `bits` of the global history register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryTable {
    counters: Vec<SatCounter>,
    mask: u64,
}

impl HistoryTable {
    /// Creates a table with `2^bits` counters.
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds 20 (tables beyond a megaentry per branch
    /// are a configuration error).
    pub fn new(bits: u32) -> Self {
        assert!(bits <= 20, "history table too large ({bits} bits)");
        let size = 1usize << bits;
        Self { counters: vec![SatCounter::weakly_not_taken(); size], mask: (size - 1) as u64 }
    }

    /// Predicted direction under the given global history.
    #[inline]
    pub fn predict(&self, history: u64) -> bool {
        self.counters[(history & self.mask) as usize].predict()
    }

    /// Trains the counter selected by `history`.
    #[inline]
    pub fn update(&mut self, history: u64, taken: bool) {
        self.counters[(history & self.mask) as usize].train(taken);
    }
}

/// The per-static-branch hybrid predictor: bimodal + history-indexed
/// component + chooser, as in the paper's measurement methodology.
///
/// The chooser trains toward whichever component was correct when they
/// disagree (McFarling-style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hybrid {
    bimodal: Bimodal,
    history: HistoryTable,
    chooser: SatCounter,
}

impl Hybrid {
    /// Creates a hybrid with a `2^history_bits`-entry history component.
    pub fn new(history_bits: u32) -> Self {
        Self {
            bimodal: Bimodal::new(),
            history: HistoryTable::new(history_bits),
            // Start preferring the bimodal component: the history table is
            // cold and noisy early on.
            chooser: SatCounter::weakly_not_taken(),
        }
    }

    /// Predicted direction under the given global history.
    ///
    /// Chooser state ≥ 2 selects the history component.
    #[inline]
    pub fn predict(&self, history: u64) -> bool {
        if self.chooser.predict() {
            self.history.predict(history)
        } else {
            self.bimodal.predict()
        }
    }

    /// Trains all components on the observed outcome.
    #[inline]
    pub fn update(&mut self, history: u64, taken: bool) {
        let bi = self.bimodal.predict();
        let hi = self.history.predict(history);
        if bi != hi && !inject::active(inject::CHOOSER_STALE) {
            // Train the chooser toward the correct component.
            self.chooser.train(hi == taken);
        }
        self.bimodal.update(taken);
        self.history.update(history, taken);
    }

    /// Predicts, updates, and reports whether the prediction was correct.
    #[inline]
    pub fn predict_and_update(&mut self, history: u64, taken: bool) -> bool {
        let pred = self.predict(history);
        self.update(history, taken);
        pred == taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_bias() {
        let mut b = Bimodal::new();
        for _ in 0..4 {
            b.update(true);
        }
        assert!(b.predict());
    }

    #[test]
    fn history_table_learns_period_two() {
        let mut t = HistoryTable::new(4);
        let mut h = 0u64;
        let mut wrong = 0;
        for i in 0..200u64 {
            let taken = i % 2 == 0;
            if t.predict(h) != taken {
                wrong += 1;
            }
            t.update(h, taken);
            h = (h << 1) | taken as u64;
        }
        assert!(wrong < 10, "{wrong} mispredicts on period-2 pattern");
    }

    #[test]
    fn hybrid_beats_bimodal_on_patterned_branch() {
        // Period-4 pattern TTNN: bimodal is ~50%, history component ~100%.
        let pattern = [true, true, false, false];
        let mut hybrid = Hybrid::new(8);
        let mut bimodal = Bimodal::new();
        let mut h = 0u64;
        let (mut hybrid_wrong, mut bimodal_wrong) = (0, 0);
        for i in 0..1000usize {
            let taken = pattern[i % 4];
            if hybrid.predict(h) != taken {
                hybrid_wrong += 1;
            }
            if bimodal.predict() != taken {
                bimodal_wrong += 1;
            }
            hybrid.update(h, taken);
            bimodal.update(taken);
            h = (h << 1) | taken as u64;
        }
        assert!(hybrid_wrong < bimodal_wrong / 4, "hybrid {hybrid_wrong} vs bimodal {bimodal_wrong}");
    }

    #[test]
    fn hybrid_matches_bimodal_on_biased_branch() {
        let mut hybrid = Hybrid::new(8);
        let mut h = 0u64;
        let mut wrong = 0;
        for _ in 0..500 {
            if !hybrid.predict(h) {
                wrong += 1;
            }
            hybrid.update(h, true);
            h = (h << 1) | 1;
        }
        assert!(wrong <= 2, "always-taken branch: {wrong} wrong");
    }

    #[test]
    fn predict_and_update_reports_correctness() {
        let mut p = Hybrid::new(4);
        // Cold predictor says not-taken; feed taken.
        assert!(!p.predict_and_update(0, true));
        // After warmup it should predict taken.
        for _ in 0..4 {
            p.predict_and_update(0, true);
        }
        assert!(p.predict_and_update(0, true));
    }

    #[test]
    fn random_branch_mispredicts_often() {
        // A pseudo-random branch should stay hard to predict — this is the
        // paper's hard-to-predict case (Table 4a rates of 6-20%).
        let mut p = Hybrid::new(10);
        let mut h = 0u64;
        let mut state = 0x12345678u64;
        let mut wrong = 0;
        let n = 10_000;
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let taken = (state >> 33) & 1 == 1;
            if !p.predict_and_update(h, taken) {
                wrong += 1;
            }
            h = (h << 1) | taken as u64;
        }
        let rate = wrong as f64 / n as f64;
        assert!(rate > 0.3, "random branch mispredict rate {rate} suspiciously low");
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_history_table_rejected() {
        HistoryTable::new(21);
    }
}
