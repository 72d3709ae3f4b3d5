//! Load-instruction characterization — the paper's primary contribution.
//!
//! This crate ties the substrates together into the study's analyses:
//!
//! * [`coverage`] — cumulative dynamic-load coverage versus ranked static
//!   loads (Figure 2): the bio kernels concentrate >90% of their dynamic
//!   loads in a few dozen static loads, SPEC-like code does not.
//! * [`loadchar`] — the dataflow analyses behind Tables 4 and 5:
//!   detection of **load→branch** sequences (a load whose value feeds a
//!   conditional branch through a tight dependence chain) and
//!   **branch→load** sequences (a load with a tight dependence chain
//!   right after a hard-to-predict branch), plus per-static-load profiles
//!   (execution frequency, L1 miss rate, fed-branch misprediction rate,
//!   source location).
//! * [`characterize`] — the one-pass [`Characterizer`] combining
//!   instruction mix, cache behaviour, branch prediction, and the
//!   sequence analyses; [`characterize_program`] runs a BioPerf kernel
//!   through it.
//! * [`evaluate`] — the performance-evaluation harness: runs Original vs
//!   LoadTransformed kernels through the four platform timing models
//!   (Tables 7/8, Figure 9).
//! * [`orchestrate`] — the parallel experiment runner: executes each
//!   instrumented kernel *once* (a tuple fan-out feeds the characterizer
//!   and a replay recorder simultaneously), replays each recording once
//!   through a bank of platform simulators, and schedules the
//!   per-program jobs on a scoped worker pool with results in job order
//!   — `--jobs 1` and `--jobs N` produce identical output.
//! * [`sweep`] — design-space exploration: grid sweeps over cache
//!   geometry, pipeline shape, predictor family, and prefetcher policy,
//!   with resumable FNV-checksummed checkpoints and per-program
//!   [`pareto`]-front reports.
//! * [`report`] — plain-text table formatting used by the `bioperf-bench`
//!   binaries that regenerate every table and figure.
//!
//! # Example
//!
//! ```no_run
//! use bioperf_core::characterize::characterize_program;
//! use bioperf_kernels::{ProgramId, Scale};
//!
//! let report = characterize_program(ProgramId::Hmmsearch, Scale::Small, 42);
//! assert!(report.mix.loads() > 0);
//! assert!(report.cache.l1.load_miss_ratio() < 0.05);
//! println!("load→branch fraction: {:.1}%", report.sequences.load_to_branch_fraction() * 100.0);
//! ```

pub mod candidates;
pub mod characterize;
pub mod coverage;
pub mod evaluate;
pub mod loadchar;
pub mod orchestrate;
pub mod pareto;
pub mod report;
pub mod sweep;

pub use candidates::{find_candidates, CandidateCriteria, TransformCandidate};
pub use characterize::{characterize_program, Characterizer, CharacterizationReport};
pub use coverage::LoadCoverage;
pub use evaluate::{evaluate_program, EvalCell, EvalMatrix};
pub use loadchar::{HotLoad, LoadBranchAnalysis, SequenceSummary};
pub use orchestrate::{
    characterize_all, evaluate_all, run_conform, run_jobs, run_suite, ConformConfig,
    ConformResult, FaultId, ProgramCrossCheck, SuiteConfig, SuiteError, SuiteResult,
};
pub use pareto::{pareto_frontier, ParetoPoint};
pub use sweep::{
    run_sweep, sweep_self_check, CellError, CellMeasure, CellSpec, CheckpointError, SweepConfig,
    SweepError, SweepGrid, SweepResult, SWEEP_SCHEMA,
};
