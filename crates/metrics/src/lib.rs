//! Observability for the BioPerf reproduction pipeline.
//!
//! The paper's argument is metric-driven — load mixes, miss rates,
//! sequence fractions, AMAT, speedups — so every experiment in this
//! workspace emits a machine-readable metric snapshot alongside its text
//! tables. This crate is the shared substrate:
//!
//! * [`counter`] — monotonic [`Counter`]s and last-write [`Gauge`]s,
//! * [`histogram`] — the mergeable log-scale [`LogHistogram`],
//! * [`set`] — the named [`MetricSet`] that simulators fill when their
//!   metrics are switched on and that suites merge under path prefixes,
//! * [`timer`] — scoped wall-clock [`Timings`] spans (per program ×
//!   phase),
//! * [`json`] — a dependency-free, escape-correct, deterministic [`Json`]
//!   emitter plus a minimal parser for tests and CI schema checks.
//!
//! The environment has no crates.io access, hence no `serde`; [`json`] is
//! deliberately self-contained.
//!
//! # Determinism contract
//!
//! Counters and histograms fed from the (deterministic) simulators, and
//! gauges derived from their results, are bit-identical across runs and
//! worker counts; [`MetricSet::to_json`] sorts names, so the emitted
//! bytes are too. Wall-clock [`Timings`] are not deterministic and are
//! emitted in a separate `run` section by the suite orchestrator.
//!
//! # Example
//!
//! ```
//! use bioperf_metrics::MetricSet;
//!
//! let mut shard = MetricSet::new();
//! shard.counter_add("l1_hits", 3);
//! shard.histogram_record("latency_cycles", 72);
//!
//! let mut suite = MetricSet::new();
//! suite.merge_prefixed("events/blast/cache/", &shard);
//! assert_eq!(suite.counter("events/blast/cache/l1_hits"), Some(3));
//! let text = suite.to_json().render();
//! assert!(text.contains("\"events/blast/cache/l1_hits\":3"));
//! ```

pub mod counter;
pub mod histogram;
pub mod json;
pub mod set;
pub mod timer;

pub use counter::{Counter, Gauge};
pub use histogram::LogHistogram;
pub use json::Json;
pub use set::MetricSet;
pub use timer::{SpanStats, Timings};
