//! Branch prediction for the BioPerf load-characterization study.
//!
//! The paper measures branch misprediction rates with "a hybrid branch
//! predictor with an entry for each static branch (i.e., there is no
//! aliasing)". This crate reimplements that measurement setup: every
//! static conditional branch owns a private [`Hybrid`] predictor (a
//! bimodal component, a global-history-indexed component, and a chooser),
//! and the [`BranchProfiler`] tracks per-branch execution and
//! misprediction counts — the inputs to the paper's Table 4 and Table 5.
//!
//! # Example
//!
//! ```
//! use bioperf_branch::Hybrid;
//!
//! let mut p = Hybrid::new(10);
//! let mut history = 0u64;
//! let mut wrong = 0;
//! for i in 0..1000u64 {
//!     let taken = i % 2 == 0; // perfectly periodic: history component learns it
//!     if p.predict(history) != taken {
//!         wrong += 1;
//!     }
//!     p.update(history, taken);
//!     history = (history << 1) | taken as u64;
//! }
//! assert!(wrong < 20, "alternating pattern should be learned, {wrong} wrong");
//! ```

pub mod aliased;
pub mod counter;
pub mod dynpred;
pub mod predictor;
pub mod profiler;

pub use aliased::AliasedHybrid;
pub use counter::SatCounter;
pub use dynpred::{DynPredictor, PredictorKind};
pub use predictor::{Bimodal, HistoryTable, Hybrid};
pub use profiler::{BranchProfiler, BranchStats};

/// The paper's threshold for a "hard-to-predict" branch (Table 4b counts
/// loads after branches with a misprediction rate of 5% or higher).
pub const HARD_TO_PREDICT_THRESHOLD: f64 = 0.05;
