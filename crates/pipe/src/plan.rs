//! The plan pass: the part of a replay that does not depend on time.
//!
//! Three of the pipeline's structures evolve independently of simulated
//! *time*: which values spill depends only on the vreg touch sequence,
//! cache state only on the access sequence, and predictor state only on
//! the outcome sequence. [`Plan`] therefore turns each chunk of an
//! [`OpBlock`] into dense per-chunk arrays that every consumer shares:
//!
//! * per-op **operand slots**, **destination slots** and spill **flags**
//!   for the timing core (absent producers read `ZERO_SLOT`, absent
//!   destinations write `SINK_SLOT`);
//! * the merged **access events**: the demand column interleaved with
//!   the spill traffic the register model inserts, in the exact order a
//!   hierarchy sees them (an op's reloads precede its own access; a
//!   computed value's spill store precedes its reload);
//! * the **branch events**: conditional branches, merged with selects on
//!   platforms without if-conversion (they resolve like branches there).
//!
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

/// Consumers plan over sub-chunks of this many ops, not whole blocks:
/// the plan arrays plus one chunk's columns stay cache-resident across
/// the plan, memory and timing stages.
pub(crate) const PHASE_CHUNK: usize = 512;

/// Where spilled values live: a small stack-like region that stays
/// L1-resident, as real spill slots do.
pub(crate) const SPILL_BASE: u64 = 0x7fff_0000_0000;
pub(crate) const SPILL_SLOTS: u64 = 512;

/// Access-event tags (low bits of [`Plan::acc_tag`]; the chunk-relative
/// op index sits above [`ACC_TAG_BITS`]). Spill stores are tagged
/// `ACC_STORE` like demand stores: neither produces a latency.
pub(crate) const ACC_LOAD: u32 = 0;
pub(crate) const ACC_FP_LOAD: u32 = 1;
pub(crate) const ACC_STORE: u32 = 2;
pub(crate) const ACC_RELOAD: u32 = 3;
pub(crate) const ACC_RELOAD_COMPUTED: u32 = 4;
pub(crate) const ACC_TAG_BITS: u32 = 3;

/// Per-block cursors into the [`OpBlock`] columns; each chunk consumes
/// its column prefix and leaves the cursors at the next chunk's first
/// entry.
#[derive(Debug, Default, Clone, Copy)]
struct Cursors {
    ev: usize,
    mem: usize,
    br: usize,
    sel: usize,
}

/// The shared plan pass over one trace: register model, ready-ring
/// tags, instruction/branch/spill counters, and the current chunk's
/// plan arrays.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    if_conversion: bool,
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
    cur: Cursors,
    pub(crate) instructions: u64,
    pub(crate) branches: u64,
    pub(crate) spill_stores: u64,
    pub(crate) spill_reloads: u64,
    /// Per op of the chunk: spill flags, operand slots, destination slot.
    pub(crate) flags: Vec<u8>,
    pub(crate) src: Vec<[u32; 3]>,
    pub(crate) dst: Vec<u32>,
    /// Spill events in (op, source-position) order: `ci << 1 | computed`
    /// plus the spill-slot address, merged into the access events.
    spill_ev: Vec<u32>,
    spill_addr: Vec<u64>,
    /// Merged access events: `ci << ACC_TAG_BITS | tag`, the address,
    /// and whether the access is a load.
    pub(crate) acc_tag: Vec<u32>,
    pub(crate) acc_addr: Vec<u64>,
    pub(crate) acc_load: Vec<bool>,
    /// Branch events: chunk-relative op index, static id, outcome.
    pub(crate) branch_ev: Vec<(u32, StaticId, bool)>,
}

impl Plan {
    /// A fresh plan for a platform with `logical_regs` registers;
    /// `if_conversion` decides whether selects resolve as branches.
    pub(crate) fn new(logical_regs: u32, if_conversion: bool) -> Self {
        Self {
            if_conversion,
            regs: RegFile::new(logical_regs),
            ready_tag: vec![u64::MAX; READY_RING],
            ready_from_load: vec![false; READY_RING],
            cur: Cursors::default(),
            instructions: 0,
            branches: 0,
            spill_stores: 0,
            spill_reloads: 0,
            flags: Vec::new(),
            src: Vec::new(),
            dst: Vec::new(),
            spill_ev: Vec::new(),
            spill_addr: Vec::new(),
            acc_tag: Vec::new(),
            acc_addr: Vec::new(),
            acc_load: Vec::new(),
            branch_ev: Vec::new(),
        }
    }

    /// Plans ops `lo..hi` of `block`: registers, then accesses, then
    /// branches. A block's chunks must be planned in order from `lo = 0`.
    pub(crate) fn chunk(&mut self, block: &OpBlock, lo: usize, hi: usize) {
        self.chunk_memory(block, lo, hi);
        self.plan_branches(block, lo, hi);
    }

    /// The register and access halves of [`chunk`](Self::chunk), for
    /// consumers that never look at branch outcomes.
    pub(crate) fn chunk_memory(&mut self, block: &OpBlock, lo: usize, hi: usize) {
        if lo == 0 {
            self.cur = Cursors::default();
        }
        self.instructions += (hi - lo) as u64;
        self.plan_regs(block, lo, hi);
        self.plan_accesses(block, lo, hi);
    }

    /// Register file, spill planning, and ready-ring tags.
    ///
    /// Walks the block's register-event column — one entry per *present*
    /// source or destination, in program order — so the loop never tests
    /// an `Option` slot or touches a registerless op.
    fn plan_regs(&mut self, block: &OpBlock, lo: usize, hi: usize) {
        let n = hi - lo;
        self.flags.clear();
        self.flags.resize(n, 0);
        self.src.clear();
        self.src.resize(n, [ZERO_SLOT; 3]);
        self.dst.clear();
        self.dst.resize(n, SINK_SLOT);
        self.spill_ev.clear();
        self.spill_addr.clear();
        let metas = block.reg_event_meta();
        let vregs = block.reg_event_vreg();
        // Flag bits live below the index field, so one shifted compare
        // bounds the chunk.
        let end = (hi as u32) << REG_EVENT_IDX_SHIFT;
        while self.cur.ev < metas.len() {
            let meta = metas[self.cur.ev];
            if meta >= end {
                break;
            }
            let v = vregs[self.cur.ev];
            self.cur.ev += 1;
            let ci = (meta >> REG_EVENT_IDX_SHIFT) as usize - lo;
            let slot = (v as usize) & (READY_RING - 1);
            if meta & REG_EVENT_DST != 0 {
                self.ready_tag[slot] = v;
                self.ready_from_load[slot] = meta & REG_EVENT_DST_LOAD != 0;
                self.regs.insert(v);
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
            if self.regs.touch(v) {
                continue;
            }
            // Spilled and reused: this value really generates spill
            // code — a store at its eviction and a reload here. Values
            // that die without a post-eviction use generate none: the
            // allocator keeps dead intermediates out of the file. A
            // value that came straight from a load rematerializes by
            // repeating the load (no store, no forwarding stall).
            self.spill_reloads += 1;
            let computed = !self.ready_from_load[slot];
            if computed {
                self.spill_stores += 1;
                self.flags[ci] |= SRC_RELOAD_COMPUTED << (2 * pos);
            } else {
                self.flags[ci] |= SRC_RELOAD_LOAD << (2 * pos);
            }
            self.spill_ev.push((ci as u32) << 1 | computed as u32);
            self.spill_addr.push(SPILL_BASE + (v % SPILL_SLOTS) * 8);
            // The reload rewrites the slot with the same tag and flag,
            // so only its cycle (the timing core's) changes.
            self.regs.insert(v);
        }
    }

    /// The pre-filtered demand column merged with the planned spill
    /// traffic. Spill slots live in the same hierarchy as demand
    /// accesses, and an op resolves operands (reloads) before it
    /// executes (its own access), so ties break toward the spill stream.
    fn plan_accesses(&mut self, block: &OpBlock, lo: usize, hi: usize) {
        self.acc_tag.clear();
        self.acc_addr.clear();
        self.acc_load.clear();
        let codes = &block.kind_codes()[lo..hi];
        let mem_idx = block.mem_idx();
        let mem_addrs = block.mem_addrs();
        let mem_loads = block.mem_loads();
        let end = hi as u32;
        let mut sp = 0;
        loop {
            let mem = self.cur.mem;
            let mem_ci = if mem < mem_idx.len() && mem_idx[mem] < end {
                mem_idx[mem] - lo as u32
            } else {
                u32::MAX
            };
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
            self.cur.mem += 1;
            let code = codes[mem_ci as usize];
            if code > OpKind::FpStore.code() {
                // An address-carrying non-memory kind is not an access.
                continue;
            }
            let tag = if !mem_loads[mem] {
                ACC_STORE
            } else if code == OpKind::FpLoad.code() {
                ACC_FP_LOAD
            } else {
                ACC_LOAD
            };
            self.push_access(mem_ci << ACC_TAG_BITS | tag, mem_addrs[mem], mem_loads[mem]);
        }
    }

    fn push_access(&mut self, tag: u32, addr: u64, load: bool) {
        self.acc_tag.push(tag);
        self.acc_addr.push(addr);
        self.acc_load.push(load);
    }

    /// The pre-filtered outcome stream. Without if-conversion, selects
    /// resolve through the same predictor, so the two columns merge back
    /// into program order.
    fn plan_branches(&mut self, block: &OpBlock, lo: usize, hi: usize) {
        self.branch_ev.clear();
        let end = hi as u32;
        let branch_idx = block.branch_idx();
        let branch_sids = block.branch_sids();
        let branch_taken = block.branch_taken();
        let select_idx = block.select_idx();
        let select_sids = block.select_sids();
        let select_taken = block.select_taken();
        loop {
            let b = branch_idx.get(self.cur.br).copied().unwrap_or(u32::MAX);
            let s = select_idx.get(self.cur.sel).copied().unwrap_or(u32::MAX);
            let idx = b.min(s);
            if idx >= end {
                break;
            }
            if b < s {
                let e = self.cur.br;
                self.cur.br += 1;
                self.branch_ev.push((idx - lo as u32, branch_sids[e], branch_taken[e]));
            } else {
                // With if-conversion a select stays an ALU op: only the
                // cursor moves.
                let e = self.cur.sel;
                self.cur.sel += 1;
                if !self.if_conversion {
                    self.branch_ev.push((idx - lo as u32, select_sids[e], select_taken[e]));
                }
            }
        }
        self.branches += self.branch_ev.len() as u64;
    }
}
