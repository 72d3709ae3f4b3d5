//! The plan pass: the part of a replay that does not depend on time.
//!
//! Three of the pipeline's structures evolve independently of simulated
//! *time*: which values spill depends only on the vreg touch sequence,
//! cache state only on the access sequence, and predictor state only on
//! the outcome sequence. [`Plan`] therefore turns each decoded
//! [`OpBlock`] — up to `BLOCK_OPS` ops, or one op on the per-op
//! `consume` path — into dense per-block arrays that every consumer
//! shares, in one call:
//!
//! * per-op **operand slots** and **destination slots** for the timing
//!   core (absent producers read `ZERO_SLOT`, absent destinations write
//!   `SINK_SLOT`), the same for every platform;
//! * per register-file size ([`SizePlan`]), the per-op spill **flags**
//!   and the merged **access events**: the demand column interleaved
//!   with the spill traffic the register model inserts, in the exact
//!   order a hierarchy sees them (an op's reloads precede its own
//!   access; a computed value's spill store precedes its reload);
//! * per if-conversion mode ([`BranchPlan`]), the **branch events**:
//!   conditional branches, merged with selects on platforms without
//!   if-conversion (they resolve like branches there).
//!
//! The register reference stream — every destination, plus every source
//! whose ready-ring tag still matches — does not depend on the file
//! size, so one walk through a multi-size [`RegFile`] plans every size.
//! The plan owns the register model and the ready-ring *tags*; the
//! timing core ([`crate::timing`]) owns the ready-ring *cycles*.

use bioperf_isa::{OpKind, StaticId};
use bioperf_trace::{OpBlock, REG_EVENT_DST, REG_EVENT_DST_LOAD, REG_EVENT_IDX_SHIFT, REG_EVENT_POS};

use crate::regfile::RegFile;

/// Ready-ring size; bounds the span of live values, which is limited by
/// the ROB size times the largest latency.
pub(crate) const READY_RING: usize = 1 << 16;

/// Two out-of-band ready-ring slots: reads of `ZERO_SLOT` always see
/// cycle 0 (an absent or long-dead producer), writes to `SINK_SLOT` are
/// discarded (an op with no destination). Both let the operand loop run
/// without testing `Option`s.
pub(crate) const SINK_SLOT: u32 = READY_RING as u32;
pub(crate) const ZERO_SLOT: u32 = READY_RING as u32 + 1;

/// Per-op flag byte: two bits per source position (`00` plain, `01`
/// reload rematerialized from a load, `10` reload of a computed value
/// through a spill slot). The timing core adds the redirect bit.
pub(crate) const SRC_RELOAD_LOAD: u8 = 0b01;
pub(crate) const SRC_RELOAD_COMPUTED: u8 = 0b10;
pub(crate) const SPILL_MASK: u8 = 0b11_11_11;

/// Where spilled values live: a small stack-like region that stays
/// L1-resident, as real spill slots do.
pub(crate) const SPILL_BASE: u64 = 0x7fff_0000_0000;
pub(crate) const SPILL_SLOTS: u64 = 512;

/// Access-event tags (low bits of [`SizePlan::acc_tag`]; the op's index
/// in its block sits above [`ACC_TAG_BITS`]). Spill stores are tagged
/// `ACC_STORE` like demand stores: neither produces a latency.
pub(crate) const ACC_LOAD: u32 = 0;
pub(crate) const ACC_FP_LOAD: u32 = 1;
pub(crate) const ACC_STORE: u32 = 2;
pub(crate) const ACC_RELOAD: u32 = 3;
pub(crate) const ACC_RELOAD_COMPUTED: u32 = 4;
pub(crate) const ACC_TAG_BITS: u32 = 3;

/// One register-file size's share of the plan: its spill counters and
/// the current block's spill flags and merged access events.
#[derive(Debug, Clone, Default)]
pub(crate) struct SizePlan {
    pub(crate) spill_stores: u64,
    pub(crate) spill_reloads: u64,
    /// Per op of the block: spill flags.
    pub(crate) flags: Vec<u8>,
    /// Spill events in (op, source-position) order: `ci << 1 | computed`
    /// plus the spill-slot address, merged into the access events.
    spill_ev: Vec<u32>,
    spill_addr: Vec<u64>,
    /// Merged access events: `ci << ACC_TAG_BITS | tag`, the address,
    /// and whether the access is a load.
    pub(crate) acc_tag: Vec<u32>,
    pub(crate) acc_addr: Vec<u64>,
    pub(crate) acc_load: Vec<bool>,
}

/// One if-conversion mode's branch events.
#[derive(Debug, Clone)]
pub(crate) struct BranchPlan {
    if_conversion: bool,
    pub(crate) branches: u64,
    /// The block's branch events: op index in the block, static id,
    /// outcome.
    pub(crate) events: Vec<(u32, StaticId, bool)>,
}

/// The shared plan pass over one trace: register model, ready-ring
/// tags, and the current block's plan arrays — operand and destination
/// slots once, spill flags and access events per register-file size,
/// branch events per if-conversion mode.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    regs: RegFile,
    /// The resident vreg keyed by `vreg & (READY_RING - 1)`. The
    /// untouched-slot sentinel `u64::MAX` is *observable* (an aliasing
    /// `VReg(u64::MAX)` source reads as a computed value ready at cycle
    /// 0 — part of the documented ring contract the conformance
    /// reference reproduces), so the tag stores the full vreg and the
    /// from-load flag lives in its own array.
    ready_tag: Vec<u64>,
    /// Whether each slot's resident value came straight from a load
    /// (spill reloads of such values rematerialize: no store).
    ready_from_load: Vec<bool>,
    pub(crate) instructions: u64,
    /// Per op of the block: operand slots, destination slot.
    pub(crate) src: Vec<[u32; 3]>,
    pub(crate) dst: Vec<u32>,
    /// Aligned with `regs.sizes()`.
    pub(crate) sizes: Vec<SizePlan>,
    pub(crate) modes: Vec<BranchPlan>,
}

impl Plan {
    /// A fresh plan over register files of `logical_regs` registers and
    /// the if-conversion `modes` whose branch events are planned (equal
    /// capacities and repeated modes are planned once).
    pub(crate) fn new(logical_regs: &[u32], modes: &[bool]) -> Self {
        let regs = RegFile::new(logical_regs);
        let mut branch_modes: Vec<BranchPlan> = Vec::new();
        for &if_conversion in modes {
            if !branch_modes.iter().any(|m| m.if_conversion == if_conversion) {
                branch_modes.push(BranchPlan { if_conversion, branches: 0, events: Vec::new() });
            }
        }
        Self {
            sizes: vec![SizePlan::default(); regs.sizes().len()],
            modes: branch_modes,
            regs,
            ready_tag: vec![u64::MAX; READY_RING],
            ready_from_load: vec![false; READY_RING],
            instructions: 0,
            src: Vec::new(),
            dst: Vec::new(),
        }
    }

    /// The index into [`Self::sizes`] of a file with `logical_regs`
    /// registers.
    pub(crate) fn size_index(&self, logical_regs: u32) -> usize {
        let cap = RegFile::capacity_of(logical_regs);
        self.regs.sizes().iter().position(|&c| c == cap).expect("a planned register-file size")
    }

    /// The index into [`Self::modes`] of an if-conversion mode.
    pub(crate) fn mode_index(&self, if_conversion: bool) -> usize {
        self.modes
            .iter()
            .position(|m| m.if_conversion == if_conversion)
            .expect("a planned if-conversion mode")
    }

    /// Plans every op of `block`: registers, then accesses, then
    /// branches.
    pub(crate) fn block(&mut self, block: &OpBlock) {
        self.block_memory(block);
        for mode in &mut self.modes {
            mode.plan(block);
        }
    }

    /// The register and access halves of [`block`](Self::block), for
    /// consumers that never look at branch outcomes.
    pub(crate) fn block_memory(&mut self, block: &OpBlock) {
        self.instructions += block.len() as u64;
        self.plan_regs(block);
        for size in &mut self.sizes {
            size.plan_accesses(block);
        }
    }

    /// One register walk for every size: spill planning and ready-ring
    /// tags.
    ///
    /// Walks the block's register-event column — one entry per *present*
    /// source or destination, in program order — so the loop never tests
    /// an `Option` slot or touches a registerless op.
    fn plan_regs(&mut self, block: &OpBlock) {
        let n = block.len();
        self.src.clear();
        self.src.resize(n, [ZERO_SLOT; 3]);
        self.dst.clear();
        self.dst.resize(n, SINK_SLOT);
        for size in &mut self.sizes {
            size.flags.clear();
            size.flags.resize(n, 0);
            size.spill_ev.clear();
            size.spill_addr.clear();
        }
        let every_size = u32::MAX >> (32 - self.sizes.len());
        for (&meta, &v) in block.reg_event_meta().iter().zip(block.reg_event_vreg()) {
            let ci = (meta >> REG_EVENT_IDX_SHIFT) as usize;
            let slot = (v as usize) & (READY_RING - 1);
            if meta & REG_EVENT_DST != 0 {
                self.ready_tag[slot] = v;
                self.ready_from_load[slot] = meta & REG_EVENT_DST_LOAD != 0;
                self.regs.reference(v);
                self.dst[ci] = slot as u32;
                continue;
            }
            if self.ready_tag[slot] != v {
                // No recorded producer: an immediate or long-dead value,
                // read as cycle 0 through ZERO_SLOT.
                continue;
            }
            let pos = (meta & REG_EVENT_POS) as usize;
            self.src[ci][pos] = slot as u32;
            // A miss re-inserts the value (the reload rewrites the slot
            // with the same tag and flag, so only its cycle — the timing
            // core's — changes).
            let mut spilled = every_size & !self.regs.reference(v);
            if spilled == 0 {
                continue;
            }
            // Spilled and reused: this value really generates spill
            // code in every size it missed in — a store at its eviction
            // and a reload here. Values that die without a post-eviction
            // use generate none: the allocator keeps dead intermediates
            // out of the file. A value that came straight from a load
            // rematerializes by repeating the load (no store, no
            // forwarding stall).
            let computed = !self.ready_from_load[slot];
            let flag = if computed { SRC_RELOAD_COMPUTED } else { SRC_RELOAD_LOAD };
            let addr = SPILL_BASE + (v % SPILL_SLOTS) * 8;
            while spilled != 0 {
                let size = &mut self.sizes[spilled.trailing_zeros() as usize];
                spilled &= spilled - 1;
                size.spill_reloads += 1;
                size.spill_stores += computed as u64;
                size.flags[ci] |= flag << (2 * pos);
                size.spill_ev.push((ci as u32) << 1 | computed as u32);
                size.spill_addr.push(addr);
            }
        }
    }
}

impl SizePlan {
    /// The block's pre-filtered demand column merged with this size's
    /// planned spill traffic. Spill slots live in the same hierarchy as
    /// demand accesses, and an op resolves operands (reloads) before it
    /// executes (its own access), so ties break toward the spill stream.
    fn plan_accesses(&mut self, block: &OpBlock) {
        self.acc_tag.clear();
        self.acc_addr.clear();
        self.acc_load.clear();
        let codes = block.kind_codes();
        let mem_idx = block.mem_idx();
        let mem_addrs = block.mem_addrs();
        let mem_loads = block.mem_loads();
        let (mut m, mut sp) = (0, 0);
        loop {
            let mem_ci = mem_idx.get(m).copied().unwrap_or(u32::MAX);
            let sp_ci = self.spill_ev.get(sp).map_or(u32::MAX, |&e| e >> 1);
            if sp_ci <= mem_ci {
                if sp_ci == u32::MAX {
                    break;
                }
                let addr = self.spill_addr[sp];
                let tag = if self.spill_ev[sp] & 1 != 0 {
                    // Computed values round-trip through the slot: the
                    // store happens here, then the forwarded reload.
                    self.push_access(sp_ci << ACC_TAG_BITS | ACC_STORE, addr, false);
                    ACC_RELOAD_COMPUTED
                } else {
                    ACC_RELOAD
                };
                self.push_access(sp_ci << ACC_TAG_BITS | tag, addr, true);
                sp += 1;
                continue;
            }
            let (addr, load) = (mem_addrs[m], mem_loads[m]);
            m += 1;
            let code = codes[mem_ci as usize];
            if code > OpKind::FpStore.code() {
                // An address-carrying non-memory kind is not an access.
                continue;
            }
            let tag = if !load {
                ACC_STORE
            } else if code == OpKind::FpLoad.code() {
                ACC_FP_LOAD
            } else {
                ACC_LOAD
            };
            self.push_access(mem_ci << ACC_TAG_BITS | tag, addr, load);
        }
    }

    fn push_access(&mut self, tag: u32, addr: u64, load: bool) {
        self.acc_tag.push(tag);
        self.acc_addr.push(addr);
        self.acc_load.push(load);
    }
}

impl BranchPlan {
    /// This mode's pre-filtered outcome stream for the block. Without
    /// if-conversion, selects resolve through the same predictor, so the
    /// two columns merge back into program order.
    fn plan(&mut self, block: &OpBlock) {
        self.events.clear();
        let branch_idx = block.branch_idx();
        let branch_sids = block.branch_sids();
        let branch_taken = block.branch_taken();
        let select_idx = block.select_idx();
        let select_sids = block.select_sids();
        let select_taken = block.select_taken();
        let (mut br, mut sel) = (0, 0);
        loop {
            let b = branch_idx.get(br).copied().unwrap_or(u32::MAX);
            let s = select_idx.get(sel).copied().unwrap_or(u32::MAX);
            if b < s {
                self.events.push((b, branch_sids[br], branch_taken[br]));
                br += 1;
            } else if s != u32::MAX {
                // With if-conversion a select stays an ALU op: only the
                // cursor moves.
                if !self.if_conversion {
                    self.events.push((s, select_sids[sel], select_taken[sel]));
                }
                sel += 1;
            } else {
                break;
            }
        }
        self.branches += self.events.len() as u64;
    }
}
