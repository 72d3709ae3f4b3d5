//! The timing core: the serial dispatch / issue / ROB recurrence.
//!
//! [`TimingCore`] is the only part of a replay that depends on simulated
//! time. It consumes one block of the [`Plan`] (operand and destination
//! slots) plus two columns its caller's memory/predictor stage fills in:
//! the block's flag column (a register-file size's spill flags plus a
//! [`PredictorWalk`]'s redirect bits) and its latencies
//! ([`LatencyFill`]). A `PlatformBank` builds each flag column once per
//! (walk, size) pair and each fill once per fill group — from a live
//! hierarchy or from a miss-level annotation stream — and every member's
//! core reads them as slices. The core owns the ready-ring *cycles*; the
//! plan owns the ring's tags.
//!
//! Issue slots live in a ring of `(cycle, count)` slots indexed by the
//! cycle's low bits. Every claim is at or after its op's dispatch, and
//! the front end never moves back, so a slot holding a cycle before the
//! claiming op's dispatch is dead and may be reset; a claim that would
//! overwrite a live cycle doubles the ring instead (checked only when
//! the live cycles may span more than the ring). The ring therefore
//! never loses a live cycle's count, so no result depends on its size,
//! and the recurrence is shift-invariant:
//! a state with every live cycle moved by `d` times every later op `d`
//! cycles later. The keyed bank's shadow lanes rest on that:
//! [`TimingCore::offset_of`] finds two cores whose live state differs
//! by such a shift, and [`TimingCore::materialize`] copies one into the
//! other. A fresh core's ring is 4096 slots, and it grows only as far as
//! the live span, which a sweep bounds per cell
//! ([`PlatformConfig::issue_span`]).

use bioperf_branch::{DynPredictor, PredictorKind};
use bioperf_cache::AccessKind;
use bioperf_isa::{MicroOp, OpKind, StaticId};
use bioperf_metrics::{LogHistogram, MetricSet};
use bioperf_trace::inject;

use crate::config::PlatformConfig;
use crate::plan::{
    BranchPlan, Plan, SizePlan, ACC_FP_LOAD, ACC_LOAD, ACC_RELOAD, ACC_RELOAD_COMPUTED,
    ACC_TAG_BITS, READY_RING, SPILL_MASK, SRC_RELOAD_COMPUTED,
};

/// A fresh core's issue-ring size. The ring doubles whenever a claim
/// would overwrite a slot whose cycle is still live, so it always holds
/// every live cycle exactly and no claim depends on the ring's size.
const ISSUE_RING: usize = 1 << 12;

/// Each issue-ring slot packs `(cycle << 8) | issued-count` into one
/// `u64` (issue widths are ≤ [`MAX_WIDTH`], cycles nowhere near 2⁵⁶),
/// so a claim is one load, one compare and one store on a 32 KB ring.
/// A zeroed slot reads as cycle 0 with no issues.
const ISSUE_COUNT_BITS: u32 = 8;

/// The largest issue span, in cycles, a sweep cell may have
/// ([`PlatformConfig::issue_span`]): the issue ring grows to cover the
/// live span, so this caps it at 2²⁴ slots (128 MiB).
pub const MAX_ISSUE_SPAN: u64 = 1 << 24;

/// The widest fetch and issue the core can run: a full slot's count must
/// fit the issue ring's count field.
pub const MAX_WIDTH: u32 = (1 << ISSUE_COUNT_BITS) - 1;

/// The longest latency, in cycles, of one level of an access: the L1
/// hit (integer or FP), the L2 extra and the memory extra. A fill
/// stores an access's total as a `u32`, and at this bound a
/// `DEFAULT_CAPACITY`-op trace still ends below the issue ring's
/// 2⁵⁶-cycle limit.
pub const MAX_LATENCY: u64 = 1 << 20;

/// Flag bit next to the plan's spill bits: the op is a branch that
/// mispredicted, so the front end redirects when it resolves.
const FLAG_REDIRECT: u8 = 1 << 7;

/// Cap on recorded timeline entries; recording is for walkthroughs and
/// debugging, not full runs.
const TIMELINE_CAP: usize = 65_536;

/// One op's timing in the recorded timeline (see
/// [`CycleSim::with_timeline`](crate::CycleSim::with_timeline)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// Static instruction.
    pub sid: StaticId,
    /// Operation kind.
    pub kind: OpKind,
    /// Cycle the op was dispatched by the front end.
    pub dispatch: u64,
    /// Cycle the op issued to an execution unit.
    pub issue: u64,
    /// Cycle its result became available / it resolved.
    pub complete: u64,
    /// Whether this was a branch that mispredicted.
    pub mispredicted: bool,
}

/// One predictor walk over each block's branch events, shared by every
/// consumer with the same if-conversion mode and predictor kind.
#[derive(Debug, Clone)]
pub(crate) struct PredictorWalk {
    pub(crate) kind: PredictorKind,
    /// Index into the plan's if-conversion modes.
    pub(crate) mode: usize,
    predictor: DynPredictor,
    pub(crate) mispredicts: u64,
    /// The current block's mispredicted branches (block-relative ops).
    redirects: Vec<u32>,
}

impl PredictorWalk {
    /// A fresh predictor of `kind` over the plan's mode `mode`.
    pub(crate) fn new(kind: PredictorKind, mode: usize) -> Self {
        Self { kind, mode, predictor: DynPredictor::new(kind), mispredicts: 0, redirects: Vec::new() }
    }

    /// Walks the block's branch events of this walk's mode in order.
    pub(crate) fn walk(&mut self, plan: &Plan) {
        self.redirects.clear();
        for &(ci, sid, taken) in &plan.modes[self.mode].events {
            if !self.predictor.observe(sid, taken) {
                self.redirects.push(ci);
            }
        }
        self.mispredicts += self.redirects.len() as u64;
    }

    /// Writes the block's flag column: a size's spill flags plus a
    /// redirect bit on every branch this walk mispredicted.
    pub(crate) fn flags(&self, spill: &[u8], flags: &mut Vec<u8>) {
        flags.clear();
        flags.extend_from_slice(spill);
        for &ci in &self.redirects {
            flags[ci as usize] |= FLAG_REDIRECT;
        }
    }
}

/// One latency table's per-block fill: every op's completion latency
/// and the in-order stream of spill-reload latencies. Depends only on
/// the block's plan, the table, and the access latencies fed to
/// [`load`](Self::load) — not on pipe shape or predictor — so lanes
/// sharing an annotation stream and a table share one fill.
#[derive(Debug, Clone)]
pub(crate) struct LatencyFill {
    /// Execution latency by `OpKind::code()` for kinds whose latency is
    /// a platform constant; loads are overwritten per block, stores and
    /// resolving branches take 1.
    lat_lut: [u32; 12],
    fp_load_extra: u64,
    spill_forward_extra: u64,
    lat: Vec<u32>,
    spill_lat: Vec<u32>,
}

impl LatencyFill {
    /// An empty fill with `cfg`'s latency table.
    ///
    /// # Panics
    ///
    /// If a level latency exceeds [`MAX_LATENCY`]: its access totals
    /// would silently truncate.
    pub(crate) fn new(cfg: &PlatformConfig) -> Self {
        let levels = [cfg.int_load_latency, cfg.fp_load_latency, cfg.l2_latency, cfg.memory_latency];
        assert!(
            levels.iter().all(|&l| l <= MAX_LATENCY),
            "{}: int load, FP load, L2 and memory latencies {levels:?} must be at most {MAX_LATENCY}",
            cfg.name
        );
        let mut lat_lut = [1u32; 12];
        for kind in OpKind::ALL {
            if !kind.is_load() && !kind.is_store() {
                lat_lut[kind.code() as usize] = cfg.op_latency(kind) as u32;
            }
        }
        Self {
            lat_lut,
            fp_load_extra: cfg.fp_load_latency.saturating_sub(cfg.int_load_latency),
            spill_forward_extra: cfg.spill_forward_extra,
            lat: Vec::new(),
            spill_lat: Vec::new(),
        }
    }

    /// Whether `other` turns the same access latencies into the same
    /// fill (equal kind-code LUT, FP-load and spill-forward extras).
    pub(crate) fn same_table(&self, other: &Self) -> bool {
        self.lat_lut == other.lat_lut
            && self.fp_load_extra == other.fp_load_extra
            && self.spill_forward_extra == other.spill_forward_extra
    }

    /// Fills the block's latencies: the kind-code LUT, then one
    /// `access(addr, kind)` per access event of `size` in order — the
    /// caller's memory stage, returning the access's total latency —
    /// then latency 1 for every branch that resolves in `branches`' mode.
    pub(crate) fn load(
        &mut self,
        codes: &[u8],
        size: &SizePlan,
        branches: &BranchPlan,
        mut access: impl FnMut(u64, AccessKind) -> u64,
    ) {
        self.lat.clear();
        self.lat.extend(codes.iter().map(|&c| self.lat_lut[c as usize]));
        self.spill_lat.clear();
        for (e, &ev) in size.acc_tag.iter().enumerate() {
            let kind = if size.acc_load[e] { AccessKind::Load } else { AccessKind::Store };
            let l = access(size.acc_addr[e], kind);
            let ci = (ev >> ACC_TAG_BITS) as usize;
            match ev & ((1 << ACC_TAG_BITS) - 1) {
                ACC_LOAD => self.lat[ci] = l as u32,
                ACC_FP_LOAD => self.lat[ci] = (l + self.fp_load_extra) as u32,
                ACC_RELOAD => self.spill_lat.push(l as u32),
                // The forwarding stall rides on the reload latency.
                ACC_RELOAD_COMPUTED => self.spill_lat.push((l + self.spill_forward_extra) as u32),
                _ => {}
            }
        }
        for &(ci, _, _) in &branches.events {
            self.lat[ci as usize] = 1;
        }
    }
}

/// One timing configuration's scheduling state.
#[derive(Debug, Clone)]
pub(crate) struct TimingCore {
    // Shape.
    in_order: bool,
    fetch_width: u32,
    issue_width: u64,
    mispredict_penalty: u64,
    // Scheduling state.
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    issue_ring: Box<[u64]>,
    /// Completion cycles keyed like the plan's ready-ring tags, plus the
    /// two out-of-band `SINK_SLOT`/`ZERO_SLOT` entries.
    ready_cycle: Vec<u64>,
    /// Completion cycles of the last `rob_size` ops: a ring that starts
    /// full of cycle-0 completions, so the slot at `rob_pos` always
    /// holds the completion of the op `rob_size` places before the next
    /// one — the entry that op must wait on to enter the ROB.
    rob: Vec<u64>,
    rob_pos: usize,
    last_issue: u64,
    max_completion: u64,
    // Instrumentation, read only by the observed loop.
    pub(crate) metrics_on: bool,
    m_op_latency: LogHistogram,
    m_issue_delay: LogHistogram,
    m_redirects: u64,
    pub(crate) timeline: Option<Vec<OpTiming>>,
}

impl TimingCore {
    /// An idle core with `cfg`'s shape.
    ///
    /// # Panics
    ///
    /// If a width is outside `1..=MAX_WIDTH` or the ROB is empty: the
    /// recurrence would silently mis-time (or index out of bounds).
    pub(crate) fn new(cfg: &PlatformConfig) -> Self {
        assert!(
            (1..=MAX_WIDTH).contains(&cfg.fetch_width)
                && (1..=MAX_WIDTH).contains(&cfg.issue_width)
                && cfg.rob_size > 0,
            "{}: fetch/issue widths must be 1..={MAX_WIDTH} and the ROB non-empty \
             (fetch {}, issue {}, ROB {})",
            cfg.name,
            cfg.fetch_width,
            cfg.issue_width,
            cfg.rob_size
        );
        Self {
            in_order: cfg.in_order,
            fetch_width: cfg.fetch_width,
            issue_width: cfg.issue_width as u64,
            mispredict_penalty: cfg.mispredict_penalty,
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            issue_ring: vec![0; ISSUE_RING].into_boxed_slice(),
            // Two extra slots: the write sink and the constant-zero read.
            ready_cycle: vec![0; READY_RING + 2],
            rob: vec![0; cfg.rob_size],
            rob_pos: 0,
            last_issue: 0,
            max_completion: 0,
            metrics_on: false,
            m_op_latency: LogHistogram::new(),
            m_issue_delay: LogHistogram::new(),
            m_redirects: 0,
            timeline: None,
        }
    }

    /// Total cycles so far: the last completion or the front end's
    /// position, whichever is later.
    pub(crate) fn cycles(&self) -> u64 {
        self.max_completion.max(self.fetch_cycle)
    }

    /// Ops issued at cycle `c`, if `c` is live.
    fn issued_at(&self, c: u64) -> u64 {
        let packed = self.issue_ring[c as usize & (self.issue_ring.len() - 1)];
        if packed >> ISSUE_COUNT_BITS == c {
            packed & ((1 << ISSUE_COUNT_BITS) - 1)
        } else {
            0
        }
    }

    /// The live issue window: the front-end cycle through the last
    /// completion. Every claim is at or after its op's dispatch and at or
    /// before its completion, so no other cycle holds a live claim.
    fn window(&self) -> std::ops::RangeInclusive<u64> {
        self.fetch_cycle..=self.cycles()
    }

    /// The offset `d` at which `other` is this core's state shifted by
    /// `d` cycles (wrapping), if it is one: same shape assumed, equal
    /// fetch counts, and, counted from each core's front-end cycle, equal
    /// last issue, last completion, ROB entries, ready cycles in `slots`
    /// and (with `window`) issue counts over the live window. A value at
    /// or before a core's front-end cycle reads as 0: every op from now
    /// on dispatches at or after it, so such a value never delays one.
    /// The caller's `slots` must cover every ready slot written by the
    /// last ROB's worth of ops; every other slot holds a completion at or
    /// before the front-end cycle (the ROB's head bounds it).
    pub(crate) fn offset_of(&self, other: &TimingCore, slots: &[u32], window: bool) -> Option<u64> {
        let (f, g) = (self.fetch_cycle, other.fetch_cycle);
        let same = |a: u64, b: u64| a.saturating_sub(f) == b.saturating_sub(g);
        let n = self.rob.len();
        let rob = |core: &TimingCore, k: usize| core.rob[(core.rob_pos + k) % n];
        let agrees = self.fetched_this_cycle == other.fetched_this_cycle
            && same(self.last_issue, other.last_issue)
            && same(self.max_completion, other.max_completion)
            && (0..n).all(|k| same(rob(self, k), rob(other, k)))
            && slots.iter().all(|&s| same(self.ready_cycle[s as usize], other.ready_cycle[s as usize]))
            && (!window || self.window().all(|c| self.issued_at(c) == other.issued_at(c - f + g)));
        agrees.then(|| g.wrapping_sub(f))
    }

    /// Overwrites this core's live state with `leader`'s shifted by
    /// `shift` cycles (wrapping) — the scalars, the ROB, the ready cycles
    /// in `slots` and (with `window`) the live issue window — writing 0
    /// for values at or before the leader's front-end cycle. Every other
    /// ready slot and issue slot keeps this core's own value. That is
    /// exact for a fresh core (zeros) and for a core that equalled
    /// `leader` shifted when it stopped running: its own state is then
    /// the state it would have run from, so its values are the ones it
    /// would hold now except in slots the ops it skipped wrote. `slots`
    /// covers those while they are the last ROB's worth of ops; older
    /// ones hold values at or before the front-end cycle either way.
    pub(crate) fn materialize(&mut self, leader: &TimingCore, shift: u64, slots: &[u32], window: bool) {
        let f = leader.fetch_cycle;
        let live = |v: u64| if v > f { v.wrapping_add(shift) } else { 0 };
        self.fetch_cycle = f.wrapping_add(shift);
        self.fetched_this_cycle = leader.fetched_this_cycle;
        self.last_issue = live(leader.last_issue);
        self.max_completion = live(leader.max_completion);
        self.rob_pos = leader.rob_pos;
        for (own, &theirs) in self.rob.iter_mut().zip(&leader.rob) {
            *own = live(theirs);
        }
        for &s in slots {
            self.ready_cycle[s as usize] = live(leader.ready_cycle[s as usize]);
        }
        if window {
            if self.issue_ring.len() < leader.issue_ring.len() {
                self.issue_ring = vec![0; leader.issue_ring.len()].into_boxed_slice();
            }
            // The window may be longer than the ring, with its claimed
            // cycles spread out; only those own slots, so only those are
            // written (no cycle this core left in the window has a count
            // its leader lacks).
            let mask = self.issue_ring.len() - 1;
            for c in leader.window() {
                let issued = leader.issued_at(c);
                if issued > 0 {
                    let own = c.wrapping_add(shift);
                    self.issue_ring[own as usize & mask] = (own << ISSUE_COUNT_BITS) | issued;
                }
            }
        }
    }

    /// Takes the event metrics (unprefixed), leaving collection in its
    /// current mode. Names appear only once touched.
    pub(crate) fn take_metrics(&mut self) -> MetricSet {
        let mut out = MetricSet::new();
        if self.m_op_latency.count() > 0 {
            out.histogram_merge("op_latency_cycles", &self.m_op_latency);
        }
        if self.m_issue_delay.count() > 0 {
            out.histogram_merge("issue_delay_cycles", &self.m_issue_delay);
        }
        if self.m_redirects > 0 {
            out.counter_add("mispredict_redirects", self.m_redirects);
        }
        self.m_op_latency = LogHistogram::new();
        self.m_issue_delay = LogHistogram::new();
        self.m_redirects = 0;
        out
    }

    /// Runs one planned block through the scheduling recurrence, with
    /// the block's flag column (from [`PredictorWalk::flags`]) and latencies.
    /// `ops` is the block's decoded ops, read only when a timeline is
    /// recorded.
    pub(crate) fn run_block(
        &mut self,
        plan: &Plan,
        flags: &[u8],
        fill: &LatencyFill,
        ops: &[MicroOp],
    ) {
        let (lat, spill_lat) = (&fill.lat[..], &fill.spill_lat[..]);
        // One switch per block picks a monomorphized loop, so the
        // uninstrumented loop carries no instrumentation branch.
        match (self.in_order, self.metrics_on || self.timeline.is_some()) {
            (false, false) => self.run::<false, false>(plan, flags, lat, spill_lat, ops),
            (true, false) => self.run::<true, false>(plan, flags, lat, spill_lat, ops),
            (false, true) => self.run::<false, true>(plan, flags, lat, spill_lat, ops),
            (true, true) => self.run::<true, true>(plan, flags, lat, spill_lat, ops),
        }
    }

    /// The recurrence over one block. Its scalar state and its three
    /// rings live in locals for the whole block — the rings are taken
    /// out of `self`, a pointer swap — so no ring store can alias a
    /// scalar and the compiler keeps the scalars in registers; all of it
    /// is written back once at the end.
    fn run<const IN_ORDER: bool, const OBSERVE: bool>(
        &mut self,
        plan: &Plan,
        flags: &[u8],
        lat: &[u32],
        spill_lat: &[u32],
        ops: &[MicroOp],
    ) {
        let mut ring = std::mem::take(&mut self.issue_ring);
        let mut ready_cycle = std::mem::take(&mut self.ready_cycle);
        let mut rob = std::mem::take(&mut self.rob);
        let (fetch_width, issue_width, penalty) =
            (self.fetch_width, self.issue_width, self.mispredict_penalty);
        let rob_size = rob.len();
        let mut fetch_cycle = self.fetch_cycle;
        let mut fetched = self.fetched_this_cycle;
        let mut rob_pos = self.rob_pos;
        let mut last_issue = self.last_issue;
        let mut max_completion = self.max_completion;
        let mut spill_idx = 0usize;
        // Claims an issue slot at or after `$earliest` for the op
        // dispatched at `$dispatch`, where `$top` bounds every cycle
        // claimed so far and `$earliest` is at most the later of the two.
        // Live cycles lie in `$dispatch..=$top` and the claim steps past
        // full (so live) cycles only, so while `$top` lies within a
        // ring's length of `$dispatch` every live cycle and the claim
        // have slots of their own and the plain claim cannot overwrite
        // one; otherwise the checked claim grows the ring if it would.
        // (For an op without reloads the check reads no operand, so it
        // need not wait for one.)
        macro_rules! claim {
            ($dispatch:ident, $top:expr, $earliest:expr) => {
                if $top < $dispatch + ring.len() as u64 - 1 {
                    issue_at(&mut ring, $earliest, issue_width)
                } else {
                    issue_at_growing(&mut ring, $dispatch, $earliest, issue_width)
                }
            };
        }
        let per_op = plan.src.iter().zip(&plan.dst).zip(flags.iter().zip(lat));
        for (i, ((&slots, &dst), (&flags, &lat))) in per_op.enumerate() {
            // Dispatch: one front-end slot, after the ROB entry of the op
            // `rob_size` places back has retired (a pre-filled cycle-0
            // entry never stalls: the front end is never before cycle 0).
            if fetched >= fetch_width {
                fetch_cycle += 1;
                fetched = 0;
            }
            let head = rob[rob_pos];
            if head > fetch_cycle {
                fetch_cycle = head;
                fetched = 0;
            }
            fetched += 1;
            let dispatch = fetch_cycle;
            // Bounds every cycle claimed so far and this op's earliest
            // issue: an operand is an earlier op's completion or reload
            // (at most the last completion) or one of this op's reloads.
            let mut reach = max_completion;
            let operands = if flags & SPILL_MASK == 0 {
                // Common case: three unconditional ring reads (absent
                // sources resolve to ZERO_SLOT's constant 0).
                let a = ready_cycle[slots[0] as usize];
                let b = ready_cycle[slots[1] as usize];
                let c = ready_cycle[slots[2] as usize];
                a.max(b).max(c)
            } else {
                let mut operands = 0u64;
                // The last completion bounds every earlier op's claims and
                // every reloaded value's ready cycle (a source is reloaded
                // once, before this op writes its slot).
                let mut top = max_completion;
                for (j, &slot) in slots.iter().enumerate() {
                    let base = ready_cycle[slot as usize];
                    let code = (flags >> (2 * j)) & 0b11;
                    if code == 0 {
                        operands = operands.max(base);
                        continue;
                    }
                    // Spill reload: a real instruction consuming one
                    // front-end slot (it folds into its consumer as a
                    // memory operand) and issue bandwidth; a computed
                    // value's spill store claims an issue slot too.
                    fetched += 1;
                    if code == SRC_RELOAD_COMPUTED {
                        top = top.max(claim!(dispatch, top, dispatch));
                    }
                    let start = claim!(dispatch, top, dispatch.max(base));
                    top = top.max(start);
                    let ready = start + spill_lat[spill_idx] as u64;
                    spill_idx += 1;
                    ready_cycle[slot as usize] = ready;
                    operands = operands.max(ready);
                }
                reach = reach.max(operands);
                operands
            };
            let mut earliest = dispatch.max(operands);
            if IN_ORDER {
                // Issue in program order: an op cannot issue before its
                // elder.
                earliest = earliest.max(last_issue);
            }
            // This op's spill and reload claims are at or before
            // `earliest`, so `reach` bounds them and `earliest` both.
            let start = claim!(dispatch, reach, earliest);
            if IN_ORDER {
                last_issue = start;
            }
            let completion = start + lat as u64;
            let mispredicted = flags & FLAG_REDIRECT != 0;
            if mispredicted && !inject::active(inject::DROPPED_FLUSH) {
                // The front end restarts after the branch resolves:
                // resolution delay (e.g. waiting on a load) adds directly
                // to the misprediction cost.
                let redirect = completion + penalty;
                if redirect > fetch_cycle {
                    fetch_cycle = redirect;
                    fetched = 0;
                }
            }
            ready_cycle[dst as usize] = completion;
            rob[rob_pos] = completion;
            rob_pos += 1;
            if rob_pos == rob_size {
                rob_pos = 0;
            }
            max_completion = max_completion.max(completion);
            if OBSERVE {
                self.observe(&ops[i], dispatch, start, completion, mispredicted);
            }
        }
        self.fetch_cycle = fetch_cycle;
        self.fetched_this_cycle = fetched;
        self.rob_pos = rob_pos;
        self.last_issue = last_issue;
        self.max_completion = max_completion;
        self.issue_ring = ring;
        self.ready_cycle = ready_cycle;
        self.rob = rob;
    }

    /// Records one op's event metrics and timeline entry.
    fn observe(&mut self, op: &MicroOp, dispatch: u64, issue: u64, complete: u64, mispredicted: bool) {
        if self.metrics_on {
            self.m_op_latency.record(complete - dispatch);
            self.m_issue_delay.record(issue - dispatch);
            self.m_redirects += mispredicted as u64;
        }
        if let Some(tl) = self.timeline.as_mut() {
            if tl.len() < TIMELINE_CAP {
                tl.push(OpTiming { sid: op.sid, kind: op.kind, dispatch, issue, complete, mispredicted });
            }
        }
    }
}

/// Claims an issue slot at the first cycle ≥ `earliest` with fewer than
/// `issue_width` issues and returns that cycle. A full slot is one
/// compare; a slot whose cycle tag differs is reset, never counted (a
/// select), so the caller must know that slot's cycle is dead (see the
/// `claim!` macro) or call [`issue_at_growing`].
#[inline(always)]
fn issue_at(ring: &mut [u64], earliest: u64, issue_width: u64) -> u64 {
    let mask = ring.len() - 1;
    let mut c = earliest;
    loop {
        let slot = &mut ring[(c as usize) & mask];
        let packed = *slot;
        if packed != (c << ISSUE_COUNT_BITS) | issue_width {
            *slot = if packed >> ISSUE_COUNT_BITS == c { packed + 1 } else { (c << ISSUE_COUNT_BITS) | 1 };
            return c;
        }
        c += 1;
    }
}

/// [`issue_at`] where live cycles may share a slot: `floor` is the
/// claiming op's dispatch cycle, and since the front end never moves
/// back and every claim is at or after its op's dispatch, a cycle before
/// it is never claimed again. A slot holding a dead or never-claimed
/// cycle (a zeroed slot away from position 0) is reset; one holding
/// another live cycle doubles the ring first ([`grown`]), so no cycle's
/// count is ever lost. An armed `issue-ring-alias` fault resets live
/// slots too: the fixed 4096-slot ring both engines used to claim in.
#[cold]
#[inline(never)]
fn issue_at_growing(ring: &mut Box<[u64]>, floor: u64, earliest: u64, issue_width: u64) -> u64 {
    if inject::active(inject::ISSUE_ALIAS) {
        return issue_at(ring, earliest, issue_width);
    }
    let mut c = earliest;
    loop {
        let mask = ring.len() - 1;
        let packed = ring[(c as usize) & mask];
        let held = packed >> ISSUE_COUNT_BITS;
        if held != c && held >= floor && (held ^ c) as usize & mask == 0 {
            *ring = grown(ring, floor);
        } else if packed != (c << ISSUE_COUNT_BITS) | issue_width {
            return issue_at(ring, c, issue_width);
        } else {
            c += 1;
        }
    }
}

/// `ring` doubled, every slot whose cycle is live (at or after `floor`)
/// at its cycle's new position. Two live cycles never collide there: they
/// would have shared a slot in the smaller ring.
fn grown(ring: &[u64], floor: u64) -> Box<[u64]> {
    let mut grown = vec![0u64; ring.len() * 2].into_boxed_slice();
    let mask = grown.len() - 1;
    for (pos, &packed) in ring.iter().enumerate() {
        let held = packed >> ISSUE_COUNT_BITS;
        if held >= floor && held as usize & (ring.len() - 1) == pos {
            grown[held as usize & mask] = packed;
        }
    }
    grown
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A live issue window longer than the ring keeps every claimed
    /// cycle's count through a materialization, however the unclaimed
    /// cycles between them fall on the ring.
    #[test]
    fn materialize_keeps_every_claimed_cycle_of_a_long_window() {
        let cfg = PlatformConfig::alpha21264();
        let mut leader = TimingCore::new(&cfg);
        let ring = ISSUE_RING as u64;
        leader.fetch_cycle = 100;
        leader.max_completion = 100 + 3 * ring;
        let claims = [(101, cfg.issue_width as u64), (102 + ring, 2), (150 + 2 * ring, 1)];
        for (c, n) in claims {
            leader.issue_ring[c as usize & (ISSUE_RING - 1)] = (c << ISSUE_COUNT_BITS) | n;
        }
        let mut shadow = TimingCore::new(&cfg);
        shadow.materialize(&leader, 5, &[], true);
        for c in leader.window() {
            assert_eq!(shadow.issued_at(c + 5), leader.issued_at(c), "cycle {c}");
        }
        assert_eq!(leader.offset_of(&shadow, &[], true), Some(5));
    }
}
