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
/// Rotate each sweep program's per-cell results by one before the cell
/// merge, crediting every measurement to a neighboring grid cell.
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
/// Skip the live block feed's final partial-block flush, so the last
/// `len % BLOCK_OPS` ops of a streamed trace never reach its consumer.
/// Site: [`BlockFeed`](crate::BlockFeed)'s `finish`.
pub const FEED_TAIL: u8 = 14;
/// Fork a keyed `PlatformBank` class's lanes after the block's timing
/// cores ran instead of before, so a forked lane starts from its parent's
/// state *after* the block, timed with the parent's codes. Site:
/// `bioperf-pipe`'s keyed refinement.
pub const REFINE_STALE: u8 = 15;
/// Claim issue slots in a fixed 4096-slot ring that overwrites whatever
/// cycle a slot holds, as both timing engines once did, so a claim 4096
/// cycles before a live one resets that cycle's count. Sites:
/// `bioperf-pipe`'s timing core and `bioperf-conform`'s reference
/// pipeline.
pub const ISSUE_ALIAS: u8 = 16;
/// Leave the issue window out of a keyed `PlatformBank`'s shadow-lane
/// equivalence and materialization, so lanes whose in-flight issue
/// claims differ merge, and a materialized lane starts with none. Site:
/// `bioperf-pipe`'s shadow lanes.
pub const SHADOW_STALE: u8 = 17;

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
