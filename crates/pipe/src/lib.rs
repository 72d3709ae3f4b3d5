//! Trace-driven processor timing models for the four evaluation
//! platforms.
//!
//! The paper times its original and load-transformed programs on four
//! real machines (Table 7): an out-of-order Alpha 21264, an out-of-order
//! PowerPC G5, a register-scarce out-of-order Pentium 4, and an in-order
//! Itanium 2. Those machines are unobtainable, so this crate models the
//! microarchitectural mechanisms the paper's analysis rests on:
//!
//! * multi-cycle L1 **load-to-use latency** fed by a per-platform cache
//!   hierarchy ([`bioperf_cache`]),
//! * **branch resolution** through dataflow: a branch fed by a load
//!   resolves later, so its misprediction redirect comes later — the L1
//!   hit latency is effectively added to the misprediction penalty
//!   (the paper's load→branch effect),
//! * **post-misprediction exposure**: after a redirect the front end
//!   restarts, so the latency of the loads fetched next cannot hide under
//!   older work (the branch→load effect),
//! * **register pressure**: an LRU spill model inserts reload/spill
//!   traffic when more values are live than the platform has logical
//!   registers (why the 8-register Pentium 4 benefits least, Section 5),
//! * an **in-order issue** mode (why the Itanium 2 still speeds up: the
//!   transformation lengthens basic blocks and removes hard branches).
//!
//! # Example
//!
//! ```
//! use bioperf_pipe::{CycleSim, PlatformConfig};
//! use bioperf_trace::{Tape, Tracer};
//! use bioperf_isa::here;
//!
//! let mut tape = Tape::new(CycleSim::new(PlatformConfig::alpha21264()));
//! let xs = vec![1u64; 256];
//! for x in &xs {
//!     let v = tape.int_load(here!("demo"), x);
//!     tape.int_op(here!("demo"), &[v]);
//! }
//! let (_, sim) = tape.finish();
//! let result = sim.into_result();
//! assert!(result.cycles > 0);
//! assert_eq!(result.instructions, 512);
//! ```

pub mod annotate;
pub mod config;
mod plan;
pub mod regfile;
pub mod simulator;
mod timing;
pub mod timing_bank;

pub use annotate::CachePassSim;
pub use config::{OpLatencies, PlatformConfig};
pub use regfile::RegFile;
pub use simulator::{CycleSim, OpTiming, PlatformBank, SimResult};
pub use timing::MAX_WIDTH;
pub use timing_bank::TimingBank;
