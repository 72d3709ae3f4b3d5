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
/// Drop the front-end redirect after a mispredicted branch (the
/// misprediction is still counted, but costs nothing).
pub const DROPPED_FLUSH: u8 = 1;
/// Evict the most-recently-used register instead of the LRU victim.
pub const REGFILE_EVICT_MRU: u8 = 2;
/// Find a resident register without refreshing its LRU position.
pub const REGFILE_TOUCH_STALE: u8 = 3;
/// Key a `TimingBank` lane's shared latency fill on its annotation
/// stream alone, so lanes with different latency tables read the first
/// such lane's latencies.
pub const FILL_OVERSHARE: u8 = 4;

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
