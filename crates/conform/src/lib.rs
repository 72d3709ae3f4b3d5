//! Differential conformance harness for the simulator stack.
//!
//! PR 3 replaced the study's naive models with heavily optimized ones —
//! a 12-byte packed trace codec with SSA destination elision, an
//! intrusive O(1) register-file LRU, masked issue/ready rings in the
//! cycle simulator. Every paper number now rests on those fast paths
//! being *exactly* equivalent to the obvious implementations. This crate
//! makes that equivalence executable:
//!
//! * **Reference models** ([`RefRegFile`], [`RefCache`]/[`RefHierarchy`],
//!   [`RefPredictor`], [`RefPipeline`], [`RefTape`]) — deliberately
//!   naive, scan-everything implementations whose correctness is
//!   auditable by inspection. They trade all speed for obviousness.
//! * **One set of differential checks** ([`fuzz::check_trace`]) — runs
//!   a trace through the optimized and reference implementations on a
//!   set of platforms and diffs per-op events and final results.
//! * **A seeded fuzzer** ([`fuzz`]) — generates adversarial op streams
//!   biased toward the hard cases (SSA-counter resync around `lit()`
//!   gaps, set-conflict address patterns, register eviction storms,
//!   mispredict-flush interleavings) and checks each on one platform.
//!   Failing streams are shrunk to minimal witnesses via the proptest
//!   shim's removal-based minimizer.
//! * **A fault catalogue** ([`fault`]) — 13 seeded bugs, hooked into
//!   the optimized crates through the always-compiled registry in
//!   `bioperf_trace::inject`, can be armed one at a time; mutation tests
//!   assert the fuzzer detects every one within a bounded case budget,
//!   proving the harness has teeth.
//!
//! The CLI front end lives in `bioperf_core::orchestrate::run_conform`
//! (`bioperf-loadchar conform`), which also runs `check_trace` over all
//! nine real program traces and one sweep self-check
//! (`bioperf_core::sweep_self_check`) for the sweep-level code above
//! any op stream.

pub mod cache;
pub mod fault;
pub mod fuzz;
pub mod pipeline;
pub mod predictor;
pub mod regfile;
pub mod tape;

pub use cache::{RefCache, RefHierarchy};
pub use fault::FaultId;
pub use fuzz::{CaseOutcome, CounterExample, Divergence};
pub use pipeline::RefPipeline;
pub use predictor::RefPredictor;
pub use regfile::RefRegFile;
pub use tape::RefTape;
