//! Seeded fault hooks for the differential conformance harness.
//!
//! The conformance crate's catalogue (`bioperf_conform::FaultId`) can arm
//! exactly one fault process-wide by storing its code here; the
//! corresponding call site in an optimized model then misbehaves in a
//! specific, documented way, and the conformance fuzzer must detect the
//! divergence within its case budget — mutation testing for the test
//! suite itself. Every hook site in trace, cache, branch, pipe and core
//! reads the one [`active`] check below; `bioperf-trace` hosts it because
//! it is the lowest crate all of them depend on. The hooks are always
//! compiled: with nothing armed each site costs one relaxed load and
//! behavior is identical to a build without them.

use std::sync::atomic::{AtomicU8, Ordering};

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
/// Site: the sweep merge in `bioperf-core`.
pub const SWEEP_MERGE: u8 = 5;
/// Start the factored sweep's miss-level annotation cursor at 1 instead
/// of 0, so every annotated access reads its successor's level. Site:
/// the annotated fill source in `bioperf-pipe`'s `PlatformBank`.
pub const ANN_SKEW: u8 = 6;
/// Skip the LRU `last_use` refresh on a cache hit, so replacement decays
/// toward FIFO order. Site: `bioperf-cache`.
pub const LRU_TOUCH: u8 = 7;
/// Fill store misses as clean lines, silently dropping their writeback.
/// Site: `bioperf-cache`.
pub const DIRTY_WRITEBACK: u8 = 8;
/// Never train the hybrid's chooser, pinning it to its cold preference
/// for the bimodal component. Site: `bioperf-branch`.
pub const CHOOSER_STALE: u8 = 9;
/// Drop the front-end redirect after a mispredicted branch (the
/// misprediction is still counted, but costs nothing). Site: the timing
/// core in `bioperf-pipe`.
pub const DROPPED_FLUSH: u8 = 10;
/// Evict the most-recently-used register instead of the LRU victim.
/// Site: `bioperf-pipe`'s register file.
pub const REGFILE_EVICT_MRU: u8 = 11;
/// Find a resident register without refreshing its LRU position. Site:
/// `bioperf-pipe`'s register file.
pub const REGFILE_TOUCH_STALE: u8 = 12;
/// Key an annotated `PlatformBank` member's shared latency fill on its
/// annotation stream alone, so `TimingBank` lanes with different latency
/// tables read the first such lane's latencies. Site: `bioperf-pipe`.
pub const FILL_OVERSHARE: u8 = 13;

static ARMED: AtomicU8 = AtomicU8::new(NONE);

/// Arms `fault` (or [`NONE`] to disarm) for the whole process.
pub fn set(fault: u8) {
    ARMED.store(fault, Ordering::SeqCst);
}

/// Whether `fault` is the currently armed fault.
#[inline]
pub fn active(fault: u8) -> bool {
    ARMED.load(Ordering::Relaxed) == fault
}
