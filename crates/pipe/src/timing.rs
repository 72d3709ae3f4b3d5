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

/// Issue-ring size; bounds the span of active cycles, which is limited
/// by the ROB size times the largest latency.
const ISSUE_RING: usize = 1 << 12;

/// Each issue-ring slot packs `(cycle << 8) | issued-count` into one
/// `u64` (issue widths are ≤ [`MAX_WIDTH`], cycles nowhere near 2⁵⁶),
/// so a claim is one load, one compare and one store on a 32 KB ring.
const ISSUE_COUNT_BITS: u32 = 8;

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
    issue_ring: Vec<u64>,
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
            issue_ring: vec![u64::MAX; ISSUE_RING],
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
        let mut issue_ring = std::mem::take(&mut self.issue_ring);
        let mut ready_cycle = std::mem::take(&mut self.ready_cycle);
        let mut rob = std::mem::take(&mut self.rob);
        let ring: &mut [u64; ISSUE_RING] =
            issue_ring.as_mut_slice().try_into().expect("an ISSUE_RING-slot issue ring");
        let (fetch_width, issue_width, penalty) =
            (self.fetch_width, self.issue_width, self.mispredict_penalty);
        let rob_size = rob.len();
        let mut fetch_cycle = self.fetch_cycle;
        let mut fetched = self.fetched_this_cycle;
        let mut rob_pos = self.rob_pos;
        let mut last_issue = self.last_issue;
        let mut max_completion = self.max_completion;
        let mut spill_idx = 0usize;
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
            let operands = if flags & SPILL_MASK == 0 {
                // Common case: three unconditional ring reads (absent
                // sources resolve to ZERO_SLOT's constant 0).
                let a = ready_cycle[slots[0] as usize];
                let b = ready_cycle[slots[1] as usize];
                let c = ready_cycle[slots[2] as usize];
                a.max(b).max(c)
            } else {
                let mut operands = 0u64;
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
                        issue_at(ring, dispatch, issue_width);
                    }
                    let start = issue_at(ring, dispatch.max(base), issue_width);
                    let ready = start + spill_lat[spill_idx] as u64;
                    spill_idx += 1;
                    ready_cycle[slot as usize] = ready;
                    operands = operands.max(ready);
                }
                operands
            };
            let mut earliest = dispatch.max(operands);
            if IN_ORDER {
                // Issue in program order: an op cannot issue before its
                // elder.
                earliest = earliest.max(last_issue);
            }
            let start = issue_at(ring, earliest, issue_width);
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
        self.issue_ring = issue_ring;
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
/// compare; any slot whose cycle tag differs belongs to a lapped (or
/// never-claimed) cycle and is reset, not counted.
#[inline(always)]
fn issue_at(ring: &mut [u64; ISSUE_RING], earliest: u64, issue_width: u64) -> u64 {
    let mut c = earliest;
    loop {
        let slot = &mut ring[(c as usize) & (ISSUE_RING - 1)];
        let packed = *slot;
        if packed != (c << ISSUE_COUNT_BITS) | issue_width {
            *slot = if packed >> ISSUE_COUNT_BITS == c { packed + 1 } else { (c << ISSUE_COUNT_BITS) | 1 };
            return c;
        }
        c += 1;
    }
}
