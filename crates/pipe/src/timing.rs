//! The timing core: the serial dispatch / issue / ROB recurrence.
//!
//! [`TimingCore`] is the only part of a replay that depends on simulated
//! time. It consumes one chunk of the [`Plan`] (operand and destination
//! slots) plus two columns its caller's memory/predictor stage fills in:
//! the chunk's flag column (a register-file size's spill flags plus a
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
/// so a claim is one load plus one store on a 32 KB ring.
const ISSUE_COUNT_BITS: u32 = 8;
const ISSUE_COUNT_MASK: u64 = (1 << ISSUE_COUNT_BITS) - 1;

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

/// One predictor walk over each chunk's branch events, shared by every
/// consumer with the same if-conversion mode and predictor kind.
#[derive(Debug, Clone)]
pub(crate) struct PredictorWalk {
    pub(crate) kind: PredictorKind,
    /// Index into the plan's if-conversion modes.
    pub(crate) mode: usize,
    predictor: DynPredictor,
    pub(crate) mispredicts: u64,
    /// The current chunk's mispredicted branches (chunk-relative ops).
    redirects: Vec<u32>,
}

impl PredictorWalk {
    /// A fresh predictor of `kind` over the plan's mode `mode`.
    pub(crate) fn new(kind: PredictorKind, mode: usize) -> Self {
        Self { kind, mode, predictor: DynPredictor::new(kind), mispredicts: 0, redirects: Vec::new() }
    }

    /// Walks the chunk's branch events of this walk's mode in order.
    pub(crate) fn walk(&mut self, plan: &Plan) {
        self.redirects.clear();
        for &(ci, sid, taken) in &plan.modes[self.mode].events {
            if !self.predictor.observe(sid, taken) {
                self.redirects.push(ci);
            }
        }
        self.mispredicts += self.redirects.len() as u64;
    }

    /// Writes the chunk's flag column: a size's spill flags plus a
    /// redirect bit on every branch this walk mispredicted.
    pub(crate) fn flags(&self, spill: &[u8], flags: &mut Vec<u8>) {
        flags.clear();
        flags.extend_from_slice(spill);
        for &ci in &self.redirects {
            flags[ci as usize] |= FLAG_REDIRECT;
        }
    }
}

/// One latency table's per-chunk fill: every op's completion latency
/// and the in-order stream of spill-reload latencies. Depends only on
/// the chunk's plan, the table, and the access latencies fed to
/// [`load`](Self::load) — not on pipe shape or predictor — so lanes
/// sharing an annotation stream and a table share one fill.
#[derive(Debug, Clone)]
pub(crate) struct LatencyFill {
    /// Execution latency by `OpKind::code()` for kinds whose latency is
    /// a platform constant; loads are overwritten per chunk, stores and
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

    /// Fills the chunk's latencies: the kind-code LUT, then one
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
    rob_size: usize,
    mispredict_penalty: u64,
    // Scheduling state.
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    issue_ring: Vec<u64>,
    /// Completion cycles keyed like the plan's ready-ring tags, plus the
    /// two out-of-band `SINK_SLOT`/`ZERO_SLOT` entries.
    ready_cycle: Vec<u64>,
    /// Completion cycles of in-flight ops, oldest first: a fixed ring
    /// over `rob_size` slots (`rob_head` indexes the oldest, `rob_len`
    /// counts residents — never more than `rob_size`).
    rob: Vec<u64>,
    rob_head: usize,
    rob_len: usize,
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
            rob_size: cfg.rob_size,
            mispredict_penalty: cfg.mispredict_penalty,
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            issue_ring: vec![u64::MAX; ISSUE_RING],
            // Two extra slots: the write sink and the constant-zero read.
            ready_cycle: vec![0; READY_RING + 2],
            rob: vec![0; cfg.rob_size],
            rob_head: 0,
            rob_len: 0,
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

    /// Runs one planned chunk through the scheduling recurrence, with
    /// the chunk's flag column (from [`PredictorWalk::flags`]) and latencies.
    /// `ops` is the chunk's decoded ops, read only when a timeline is
    /// recorded.
    pub(crate) fn run_chunk(
        &mut self,
        plan: &Plan,
        flags: &[u8],
        fill: &LatencyFill,
        ops: &[MicroOp],
    ) {
        let (lat, spill_lat) = (&fill.lat[..], &fill.spill_lat[..]);
        // One switch per chunk picks a monomorphized loop, so the
        // uninstrumented loop carries no instrumentation branch.
        match (self.in_order, self.metrics_on || self.timeline.is_some()) {
            (false, false) => self.run::<false, false>(plan, flags, lat, spill_lat, ops),
            (true, false) => self.run::<true, false>(plan, flags, lat, spill_lat, ops),
            (false, true) => self.run::<false, true>(plan, flags, lat, spill_lat, ops),
            (true, true) => self.run::<true, true>(plan, flags, lat, spill_lat, ops),
        }
    }

    fn run<const IN_ORDER: bool, const OBSERVE: bool>(
        &mut self,
        plan: &Plan,
        flags: &[u8],
        lat: &[u32],
        spill_lat: &[u32],
        ops: &[MicroOp],
    ) {
        let mut spill_idx = 0usize;
        for (i, (&slots, &dst)) in plan.src.iter().zip(&plan.dst).enumerate() {
            let dispatch = self.dispatch();
            let flags = flags[i];
            let operands = if flags & SPILL_MASK == 0 {
                // Common case: three unconditional ring reads (absent
                // sources resolve to ZERO_SLOT's constant 0).
                let a = self.ready_cycle[slots[0] as usize];
                let b = self.ready_cycle[slots[1] as usize];
                let c = self.ready_cycle[slots[2] as usize];
                a.max(b).max(c)
            } else {
                let mut operands = 0u64;
                for (j, &slot) in slots.iter().enumerate() {
                    let base = self.ready_cycle[slot as usize];
                    let code = (flags >> (2 * j)) & 0b11;
                    if code == 0 {
                        operands = operands.max(base);
                        continue;
                    }
                    // Spill reload: a real instruction consuming one
                    // front-end slot (it folds into its consumer as a
                    // memory operand) and issue bandwidth; a computed
                    // value's spill store claims an issue slot too.
                    self.fetched_this_cycle += 1;
                    if code == SRC_RELOAD_COMPUTED {
                        self.issue_at(dispatch);
                    }
                    let start = self.issue_at(dispatch.max(base));
                    let ready = start + spill_lat[spill_idx] as u64;
                    spill_idx += 1;
                    self.ready_cycle[slot as usize] = ready;
                    operands = operands.max(ready);
                }
                operands
            };
            let mut earliest = dispatch.max(operands);
            if IN_ORDER {
                // Issue in program order: an op cannot issue before its
                // elder.
                earliest = earliest.max(self.last_issue);
            }
            let start = self.issue_at(earliest);
            if IN_ORDER {
                self.last_issue = start;
            }
            let completion = start + lat[i] as u64;
            let mispredicted = flags & FLAG_REDIRECT != 0;
            if mispredicted && !inject::active(inject::DROPPED_FLUSH) {
                // The front end restarts after the branch resolves:
                // resolution delay (e.g. waiting on a load) adds directly
                // to the misprediction cost.
                let redirect = completion + self.mispredict_penalty;
                if redirect > self.fetch_cycle {
                    self.fetch_cycle = redirect;
                    self.fetched_this_cycle = 0;
                }
            }
            self.ready_cycle[dst as usize] = completion;
            // `dispatch` freed a slot whenever the ring was full, so this
            // push can never overflow `rob_size`.
            let mut pos = self.rob_head + self.rob_len;
            if pos >= self.rob_size {
                pos -= self.rob_size;
            }
            self.rob[pos] = completion;
            self.rob_len += 1;
            if completion > self.max_completion {
                self.max_completion = completion;
            }
            if OBSERVE {
                self.observe(&ops[i], dispatch, start, completion, mispredicted);
            }
        }
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

    /// Advances the front end by one dispatch slot and returns the
    /// dispatch cycle for the next op.
    fn dispatch(&mut self) -> u64 {
        if self.fetched_this_cycle >= self.fetch_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        // ROB full: the front end stalls until the oldest op retires.
        if self.rob_len == self.rob_size {
            let head = self.rob[self.rob_head];
            self.rob_head += 1;
            if self.rob_head == self.rob_size {
                self.rob_head = 0;
            }
            self.rob_len -= 1;
            if head > self.fetch_cycle {
                self.fetch_cycle = head;
                self.fetched_this_cycle = 0;
            }
        }
        self.fetched_this_cycle += 1;
        self.fetch_cycle
    }

    /// Claims an issue slot at the first cycle ≥ `earliest` with
    /// bandwidth available.
    fn issue_at(&mut self, earliest: u64) -> u64 {
        let mut c = earliest;
        loop {
            let slot = &mut self.issue_ring[(c as usize) & (ISSUE_RING - 1)];
            let packed = *slot;
            if packed >> ISSUE_COUNT_BITS != c {
                // Stale slot from a lapped cycle: reset and claim.
                *slot = (c << ISSUE_COUNT_BITS) | 1;
                return c;
            }
            if packed & ISSUE_COUNT_MASK < self.issue_width {
                *slot = packed + 1;
                return c;
            }
            c += 1;
        }
    }
}
