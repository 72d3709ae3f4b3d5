//! Seeded fault hooks for the differential conformance harness.
//!
//! With the `conform-inject` feature enabled, the conformance crate can
//! arm exactly one catalogued fault process-wide; the corresponding call
//! site in the optimized model then misbehaves in a specific, documented
//! way, and the conformance fuzzer must detect the divergence within its
//! case budget — mutation testing for the test suite itself. Without the
//! feature (every production build) [`active`] is a constant `false` the
//! optimizer removes; with the feature compiled in but nothing armed,
//! behavior is bit-identical to an uninstrumented build.

/// No fault armed. Never passed to [`active`].
pub const NONE: u8 = 0;
/// Encode near-source backward deltas ≥ 2 off by one, corrupting the
/// decoded dataflow edge.
pub const SRC_DELTA: u8 = 1;
/// After a far-destination side-table entry, advance the running SSA
/// counter instead of resynchronizing it to the recorded destination.
pub const SSA_RESYNC: u8 = 2;
/// Record a stale SSA start counter in each spilled segment header,
/// breaking the standalone-decode invariant of non-first segments.
pub const SEG_COUNTER: u8 = 3;
/// Mis-carry the running SSA counter across a block edge in the block
/// decoder, corrupting every implicit destination after the first
/// non-initial block boundary.
pub const BLOCK_CARRY: u8 = 4;
/// Rotate each sweep bank job's per-cell results by one before the
/// cell merge, crediting every measurement to a neighboring grid cell.
/// The atomic lives here (not in the sweep's own crate) because the
/// conformance catalogue can only arm faults in crates *below* it in
/// the dependency graph; the perturbation site is in `bioperf-core`.
pub const SWEEP_MERGE: u8 = 5;
/// Start the factored sweep's miss-level annotation cursor at 1 instead
/// of 0, so every annotated access reads its successor's level — the
/// off-by-one the conformance fuzzer's factored leg and the
/// `sweep-factor` self-check must catch. Lives here for the same
/// dependency-graph reason as [`SWEEP_MERGE`]; the perturbation site is
/// `TimingBank::push_lane` in `bioperf-pipe`.
pub const ANN_SKEW: u8 = 6;

#[cfg(feature = "conform-inject")]
mod imp {
    use std::sync::atomic::{AtomicU8, Ordering};

    static ARMED: AtomicU8 = AtomicU8::new(super::NONE);

    /// Arms `fault` (or [`super::NONE`] to disarm) for the whole process.
    pub fn set(fault: u8) {
        ARMED.store(fault, Ordering::SeqCst);
    }

    /// Whether `fault` is the currently armed fault.
    #[inline]
    pub fn active(fault: u8) -> bool {
        ARMED.load(Ordering::Relaxed) == fault
    }
}

#[cfg(not(feature = "conform-inject"))]
mod imp {
    /// No-op without the `conform-inject` feature.
    pub fn set(_fault: u8) {}

    /// Constant `false` without the `conform-inject` feature.
    #[inline(always)]
    pub fn active(_fault: u8) -> bool {
        false
    }
}

pub use imp::{active, set};
