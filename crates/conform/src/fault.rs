//! The catalogue of injectable faults (mutation testing for the fuzzer).
//!
//! A conformance harness is only trustworthy if it *would* catch the bug
//! classes it claims to cover. Each [`FaultId`] names one realistic,
//! subtle mutation hooked into an optimized crate. Every hook reads the
//! one fault registry in `bioperf_trace::inject` (always compiled; a
//! disarmed hook costs one relaxed load). [`arm`] stores exactly one
//! fault's [`code`](FaultId::code) there, process-wide; [`disarm`]
//! restores correct behavior. The mutation tests in `tests/inject.rs`
//! assert the fuzzer detects every catalogued fault within its
//! [`budget`](FaultId::budget) of cases, and the `conform --inject
//! <fault>` CLI mode does the same from the command line.
//!
//! Arming is a `SeqCst` store, so it happens-before any worker thread
//! spawned afterwards; the orchestrator arms before fanning out and
//! disarms after joining.

use std::fmt;

use bioperf_trace::inject;

/// One catalogued seeded bug in an optimized component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultId {
    /// L1/L2 hits stop refreshing the line's LRU stamp, so replacement
    /// degrades toward FIFO.
    CacheLruTouch,
    /// Store-miss fills forget the dirty bit, so their eventual eviction
    /// emits no writeback.
    CacheDirtyWriteback,
    /// The packed encoder shortens near source deltas ≥ 2 by one,
    /// re-linking a source to a younger producer.
    PackedSrcDelta,
    /// The packed encoder advances its SSA counter by one on far
    /// destinations instead of resynchronizing to the written vreg.
    PackedSsaResync,
    /// The spill recorder writes a stale SSA start counter into segment
    /// headers, so non-first segments no longer decode standalone.
    SegmentStartCounter,
    /// The block decoder mis-carries the running SSA counter across a
    /// block edge, shifting every implicit destination decoded after the
    /// first non-initial block boundary.
    BlockBoundaryCarry,
    /// Mispredicted branches stop redirecting the front end (the flush
    /// is dropped), erasing the misprediction penalty.
    PipeDroppedFlush,
    /// The register file evicts the most recently used value instead of
    /// the least.
    RegfileEvictMru,
    /// Touching a resident register no longer moves it to MRU, so LRU
    /// order goes stale.
    RegfileTouchStale,
    /// The hybrid predictor's chooser stops training, freezing component
    /// selection at its cold state.
    BranchChooserStale,
    /// The design-space sweep's cell merge rotates each program's
    /// per-cell results by one, crediting every measurement to a
    /// neighboring grid cell.
    SweepMergeOrder,
    /// The factored sweep's miss-level annotation cursor starts at 1
    /// instead of 0, so every annotated access reads its successor's
    /// level.
    FactoredAnnotationSkew,
    /// The factored sweep's timing bank keys its shared latency fill on
    /// the annotation stream alone, ignoring the latency table, so a lane
    /// reads the latencies of the first lane on its stream.
    TimingFillOvershare,
    /// The live block feed skips its final partial-block flush, so a
    /// fed platform bank never sees a trace's last `len % BLOCK_OPS`
    /// ops.
    LiveFeedTail,
    /// A keyed platform bank forks a diverging key's lanes after the
    /// block's timing cores ran, so the forked lanes keep their parent's
    /// timing of the block where the key's codes first differ.
    RefineStaleFork,
    /// Both timing engines claim issue slots in the fixed 4096-slot ring
    /// they once shared, so a claim 4096 cycles before a live cycle
    /// resets that cycle's count and more than the issue width issue
    /// there.
    IssueRingAlias,
    /// A keyed platform bank's shadow lanes ignore the issue window:
    /// lanes whose in-flight issue claims differ merge, and a
    /// materialized lane starts with no claims in flight.
    ShadowStaleWindow,
}

impl FaultId {
    /// Every catalogued fault, in reporting order.
    pub const ALL: [FaultId; 17] = [
        FaultId::CacheLruTouch,
        FaultId::CacheDirtyWriteback,
        FaultId::PackedSrcDelta,
        FaultId::PackedSsaResync,
        FaultId::SegmentStartCounter,
        FaultId::BlockBoundaryCarry,
        FaultId::PipeDroppedFlush,
        FaultId::RegfileEvictMru,
        FaultId::RegfileTouchStale,
        FaultId::BranchChooserStale,
        FaultId::SweepMergeOrder,
        FaultId::FactoredAnnotationSkew,
        FaultId::TimingFillOvershare,
        FaultId::LiveFeedTail,
        FaultId::RefineStaleFork,
        FaultId::IssueRingAlias,
        FaultId::ShadowStaleWindow,
    ];

    /// Stable CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            FaultId::CacheLruTouch => "cache-lru-touch",
            FaultId::CacheDirtyWriteback => "cache-dirty-writeback",
            FaultId::PackedSrcDelta => "packed-src-delta",
            FaultId::PackedSsaResync => "packed-ssa-resync",
            FaultId::SegmentStartCounter => "segment-start-counter",
            FaultId::BlockBoundaryCarry => "block-boundary-carry",
            FaultId::PipeDroppedFlush => "pipe-dropped-flush",
            FaultId::RegfileEvictMru => "regfile-evict-mru",
            FaultId::RegfileTouchStale => "regfile-touch-stale",
            FaultId::BranchChooserStale => "branch-chooser-stale",
            FaultId::SweepMergeOrder => "sweep-merge-order",
            FaultId::FactoredAnnotationSkew => "factored-annotation-skew",
            FaultId::TimingFillOvershare => "timing-fill-overshare",
            FaultId::LiveFeedTail => "live-feed-tail",
            FaultId::RefineStaleFork => "refine-stale-fork",
            FaultId::IssueRingAlias => "issue-ring-alias",
            FaultId::ShadowStaleWindow => "shadow-stale-window",
        }
    }

    /// Inverse of [`name`](FaultId::name).
    pub fn parse(s: &str) -> Option<FaultId> {
        Self::ALL.into_iter().find(|f| f.name() == s)
    }

    /// One-line description for CLI listings.
    pub fn describe(self) -> &'static str {
        match self {
            FaultId::CacheLruTouch => "cache hits stop refreshing LRU order",
            FaultId::CacheDirtyWriteback => "store-miss fills lose the dirty bit",
            FaultId::PackedSrcDelta => "encoder shortens near source deltas by one",
            FaultId::PackedSsaResync => "encoder skips SSA counter resync on far dsts",
            FaultId::SegmentStartCounter => "segment headers record a stale SSA start counter",
            FaultId::BlockBoundaryCarry => "block decoder mis-carries the SSA counter across block edges",
            FaultId::PipeDroppedFlush => "mispredict redirects are dropped",
            FaultId::RegfileEvictMru => "register file evicts MRU instead of LRU",
            FaultId::RegfileTouchStale => "register touches stop updating LRU order",
            FaultId::BranchChooserStale => "hybrid chooser stops training",
            FaultId::SweepMergeOrder => "sweep cell merge rotates each program's results by one",
            FaultId::FactoredAnnotationSkew => {
                "factored sweep's annotation cursor starts off by one"
            }
            FaultId::TimingFillOvershare => {
                "timing bank shares a latency fill across latency tables"
            }
            FaultId::LiveFeedTail => "live block feed drops its final partial block",
            FaultId::RefineStaleFork => "keyed bank forks diverging lanes after the block ran",
            FaultId::IssueRingAlias => "timing engines claim issue slots in an aliasing 4096-slot ring",
            FaultId::ShadowStaleWindow => "shadow lanes ignore the in-flight issue window",
        }
    }

    /// The fault's code in the `bioperf_trace::inject` registry: the
    /// value its hook site checks with `inject::active`.
    pub fn code(self) -> u8 {
        match self {
            FaultId::CacheLruTouch => inject::LRU_TOUCH,
            FaultId::CacheDirtyWriteback => inject::DIRTY_WRITEBACK,
            FaultId::PackedSrcDelta => inject::SRC_DELTA,
            FaultId::PackedSsaResync => inject::SSA_RESYNC,
            FaultId::SegmentStartCounter => inject::SEG_COUNTER,
            FaultId::BlockBoundaryCarry => inject::BLOCK_CARRY,
            FaultId::PipeDroppedFlush => inject::DROPPED_FLUSH,
            FaultId::RegfileEvictMru => inject::REGFILE_EVICT_MRU,
            FaultId::RegfileTouchStale => inject::REGFILE_TOUCH_STALE,
            FaultId::BranchChooserStale => inject::CHOOSER_STALE,
            FaultId::SweepMergeOrder => inject::SWEEP_MERGE,
            FaultId::FactoredAnnotationSkew => inject::ANN_SKEW,
            FaultId::TimingFillOvershare => inject::FILL_OVERSHARE,
            FaultId::LiveFeedTail => inject::FEED_TAIL,
            FaultId::RefineStaleFork => inject::REFINE_STALE,
            FaultId::IssueRingAlias => inject::ISSUE_ALIAS,
            FaultId::ShadowStaleWindow => inject::SHADOW_STALE,
        }
    }

    /// Fuzz-case budget within which the harness must detect this fault
    /// (asserted by `tests/inject.rs`; measured detection indices are
    /// recorded in `EXPERIMENTS.md` and sit well under these bounds).
    pub fn budget(self) -> u64 {
        match self {
            // Codec faults corrupt almost any stream with sources/gaps.
            FaultId::PackedSrcDelta => 32,
            FaultId::PackedSsaResync => 32,
            // Any stream long enough for a second segment with a nonzero
            // start counter (segment_check splits at sizes 1 and 5).
            FaultId::SegmentStartCounter => 32,
            // Any stream spanning at least two decode blocks; the block
            // cross-check decodes at small block sizes so even short fuzz
            // streams have interior edges.
            FaultId::BlockBoundaryCarry => 32,
            // Mispredicts are frequent; the first redirect-worthy one
            // exposes the dropped flush.
            FaultId::PipeDroppedFlush => 128,
            // Needs a full set plus a hit-reordered eviction.
            FaultId::CacheLruTouch => 256,
            // Needs a store-miss fill that is later evicted.
            FaultId::CacheDirtyWriteback => 256,
            // Needs the register file at capacity (1 in 4 cases runs the
            // 8-register Pentium 4).
            FaultId::RegfileEvictMru => 256,
            FaultId::RegfileTouchStale => 256,
            // Needs a branch where the trained chooser would switch
            // components; patterned branch modes make these common.
            FaultId::BranchChooserStale => 1024,
            // Not detected by the op-level fuzzer at all: the sweep
            // self-check (one tiny 16-cell factored sweep diffed against
            // direct per-cell replays) fires deterministically on its
            // single run, so the budget only bounds the fuzz phase that
            // runs alongside it.
            FaultId::SweepMergeOrder => 16,
            // The pipeline check's factored leg (a cache pass feeding a
            // timing bank) reads every annotation one late, so
            // the first access whose level differs from its successor's
            // exposes it. The sweep self-check also fires on its single
            // run, through its later pass's timing banks.
            FaultId::FactoredAnnotationSkew => 16,
            // The pipeline check's checked lane follows a decoy whose L1
            // latency is one cycle longer on the same stream, so the
            // first load whose latency reaches the cycle count exposes
            // it. The sweep self-check's latency triples on shared
            // streams and classes also fire on its single run.
            FaultId::TimingFillOvershare => 16,
            // The pipeline check's live-feed leg feeds the whole stream
            // op by op; a fuzz stream is shorter than one block, so all
            // of it is the dropped tail and any nonempty stream exposes
            // it.
            FaultId::LiveFeedTail => 16,
            // The pipeline check's keyed leg forks the platform's key
            // off a 4 KB-line decoy at the first new line of a touched
            // page, where the decoy hits and the platform goes to
            // memory; the stale fork times that block with the decoy's
            // L1 hit. The sweep self-check's prefetching keys also fork.
            FaultId::RefineStaleFork => 16,
            // Only the issue-width check sees it, and only on a ladder
            // case (every eighth): a miss's consumers must fill a cycle
            // that an independent op 4096 cycles earlier then resets.
            FaultId::IssueRingAlias => 64,
            // The keyed legs' platform lane starts as a shadow of the
            // decoy's and materializes at its first miss, and the
            // single-op leg merges and materializes it again wherever
            // the codes agree and diverge; a materialization with ops
            // in flight loses their issue claims.
            FaultId::ShadowStaleWindow => 16,
        }
    }
}

impl fmt::Display for FaultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Arms exactly `fault`, replacing any armed fault. Process-wide; arm
/// before spawning workers so the store happens-before their reads.
pub fn arm(fault: FaultId) {
    inject::set(fault.code());
}

/// Disarms the armed fault, if any.
pub fn disarm() {
    inject::set(inject::NONE);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for f in FaultId::ALL {
            assert_eq!(FaultId::parse(f.name()), Some(f));
            assert!(seen.insert(f.name()), "duplicate name {f}");
            assert!(f.budget() > 0);
            assert!(!f.describe().is_empty());
        }
        assert_eq!(FaultId::parse("no-such-fault"), None);
    }
}
