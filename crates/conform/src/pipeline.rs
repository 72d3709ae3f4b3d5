//! Straight-line reference re-implementation of the cycle simulator.
//!
//! `bioperf_pipe::CycleSim` earns its speed from preallocated masked
//! rings and an intrusive register-file LRU. [`RefPipeline`] recomputes
//! the same cycle accounting with `HashMap`s and `Vec::remove(0)`,
//! layered on the conformance crate's own reference models
//! ([`RefHierarchy`], [`RefRegFile`],
//! [`RefPredictor`]) so no optimized component is in the loop.
//!
//! Issue slots are keyed by their exact cycle, so the reference shares
//! no ring with the simulator: the simulator's issue ring grows to hold
//! every live cycle, and any slot it lost would show here as a
//! difference. Two ready-ring behaviors are part of the simulator's
//! *documented contract* and are therefore reproduced rather than
//! "fixed":
//!
//! * slot aliasing — the ready ring is a `vreg & (2^16 - 1)` map, which
//!   bounds the span of simultaneously-live vregs; a colliding vreg
//!   evicts the old entry in both models;
//! * the untouched-slot sentinel — a never-written ready slot reads as
//!   `(u64::MAX, 0)`, so `VReg(u64::MAX)` appears "ready at cycle 0"
//!   instead of unknown. The reference map reproduces this by defaulting
//!   absent entries to the same sentinel.

use std::collections::HashMap;

use bioperf_cache::AccessKind;
use bioperf_isa::{MicroOp, OpKind, Program, VReg};
use bioperf_pipe::{PlatformConfig, SimResult};
use bioperf_trace::{inject, TraceConsumer};

use crate::cache::RefHierarchy;
use crate::predictor::RefPredictor;
use crate::regfile::RefRegFile;

/// The ready-ring size and the spill-slot region, pinned to the
/// optimized simulator's values (they are observable through slot
/// aliasing and spill addresses).
const READY_RING: usize = 1 << 16;
const SPILL_BASE: u64 = 0x7fff_0000_0000;
/// The issue ring an armed `issue-ring-alias` fault restores.
const ALIAS_RING: u64 = 1 << 12;
/// Fewest issue slots kept before dead cycles are dropped.
const PRUNE_MIN: usize = 4096;
const SPILL_SLOTS: u64 = 512;

/// Naive trace-driven cycle model of one platform.
#[derive(Debug, Clone)]
pub struct RefPipeline {
    cfg: PlatformConfig,
    hierarchy: RefHierarchy,
    predictor: RefPredictor,
    fp_load_extra: u64,

    fetch_cycle: u64,
    fetched_this_cycle: u32,
    /// Cycle → `(cycle, ops issued that cycle)`, for cycles at or after
    /// the front end's (earlier ones are never claimed again).
    issue_slots: HashMap<u64, (u64, u32)>,
    /// `issue_slots` size at which dead cycles are next dropped.
    prune_at: usize,
    /// Ring-index → `(vreg, ready cycle)`.
    ready_slots: HashMap<usize, (u64, u64)>,
    /// Ring-index → whether the resident value came from a load.
    from_load: HashMap<usize, bool>,
    rob: Vec<u64>,
    last_issue: u64,
    regs: RefRegFile,

    max_completion: u64,
    instructions: u64,
    branches: u64,
    mispredicts: u64,
    spill_stores: u64,
    spill_reloads: u64,
}

impl RefPipeline {
    /// Creates a reference simulator for one platform.
    pub fn new(cfg: PlatformConfig) -> Self {
        Self {
            hierarchy: RefHierarchy::for_platform(&cfg),
            predictor: RefPredictor::new(),
            fp_load_extra: cfg.fp_load_latency.saturating_sub(cfg.int_load_latency),
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            issue_slots: HashMap::new(),
            prune_at: PRUNE_MIN,
            ready_slots: HashMap::new(),
            from_load: HashMap::new(),
            rob: Vec::new(),
            last_issue: 0,
            regs: RefRegFile::new(cfg.logical_regs),
            max_completion: 0,
            instructions: 0,
            branches: 0,
            mispredicts: 0,
            spill_stores: 0,
            spill_reloads: 0,
            cfg,
        }
    }

    /// The simulation result so far.
    pub fn result(&self) -> SimResult {
        SimResult {
            cycles: self.max_completion.max(self.fetch_cycle),
            instructions: self.instructions,
            branches: self.branches,
            mispredicts: self.mispredicts,
            spill_stores: self.spill_stores,
            spill_reloads: self.spill_reloads,
            cache: *self.hierarchy.stats(),
        }
    }

    fn issue_at(&mut self, earliest: u64) -> u64 {
        if self.issue_slots.len() >= self.prune_at {
            let front = self.fetch_cycle;
            self.issue_slots.retain(|_, &mut (cycle, _)| cycle >= front);
            self.prune_at = PRUNE_MIN.max(2 * self.issue_slots.len());
        }
        // An armed `issue-ring-alias` fault keys the slots by the cycle's
        // position in a 4096-slot ring, where a claim resets whatever
        // cycle the slot held: the ring both engines used to share.
        let alias = inject::active(inject::ISSUE_ALIAS);
        let mut c = earliest;
        loop {
            let key = if alias { c & (ALIAS_RING - 1) } else { c };
            let slot = self.issue_slots.entry(key).or_insert((c, 0));
            if slot.0 != c {
                *slot = (c, 0);
            }
            if slot.1 < self.cfg.issue_width {
                slot.1 += 1;
                return c;
            }
            c += 1;
        }
    }

    fn ready_of(&self, v: VReg) -> Option<u64> {
        let slot = self
            .ready_slots
            .get(&((v.0 as usize) & (READY_RING - 1)))
            .copied()
            .unwrap_or((u64::MAX, 0));
        (slot.0 == v.0).then_some(slot.1)
    }

    fn set_ready(&mut self, v: VReg, cycle: u64) {
        self.ready_slots.insert((v.0 as usize) & (READY_RING - 1), (v.0, cycle));
    }

    fn is_from_load(&self, v: VReg) -> bool {
        self.from_load.get(&((v.0 as usize) & (READY_RING - 1))).copied().unwrap_or(false)
    }

    fn dispatch(&mut self) -> u64 {
        if self.fetched_this_cycle >= self.cfg.fetch_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        if self.rob.len() >= self.cfg.rob_size {
            let head = self.rob.remove(0);
            if head > self.fetch_cycle {
                self.fetch_cycle = head;
                self.fetched_this_cycle = 0;
            }
        }
        self.fetched_this_cycle += 1;
        self.fetch_cycle
    }

    fn src_ready(&mut self, src: VReg, dispatch: u64) -> u64 {
        let Some(base) = self.ready_of(src) else {
            return 0;
        };
        if self.regs.touch(src.0) {
            return base;
        }
        self.spill_reloads += 1;
        self.fetched_this_cycle += 1;
        let (addr, extra) = if self.is_from_load(src) {
            (SPILL_BASE + (src.0 % SPILL_SLOTS) * 8, 0)
        } else {
            self.spill_stores += 1;
            let addr = SPILL_BASE + (src.0 % SPILL_SLOTS) * 8;
            self.hierarchy.access(addr, AccessKind::Store);
            self.issue_at(dispatch);
            (addr, self.cfg.spill_forward_extra)
        };
        let start = self.issue_at(dispatch.max(base));
        let lat = self.hierarchy.access(addr, AccessKind::Load) + extra;
        let ready = start + lat;
        self.set_ready(src, ready);
        self.regs.insert(src.0);
        ready
    }

    fn resolve_branch(&mut self, op: &MicroOp, resolve: u64) {
        self.branches += 1;
        let correct = self.predictor.observe(op.sid, op.taken);
        if !correct {
            self.mispredicts += 1;
            let redirect = resolve + self.cfg.mispredict_penalty;
            if redirect > self.fetch_cycle {
                self.fetch_cycle = redirect;
                self.fetched_this_cycle = 0;
            }
        }
    }
}

impl TraceConsumer for RefPipeline {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        self.instructions += 1;
        let dispatch = self.dispatch();

        let mut operands = 0u64;
        for src in op.sources() {
            operands = operands.max(self.src_ready(src, dispatch));
        }
        let mut earliest = dispatch.max(operands);
        if self.cfg.in_order {
            earliest = earliest.max(self.last_issue);
        }
        let start = self.issue_at(earliest);
        if self.cfg.in_order {
            self.last_issue = start;
        }

        let completion = match op.kind {
            OpKind::IntLoad | OpKind::FpLoad => {
                let lat = self
                    .hierarchy
                    .access(op.addr.expect("loads carry addresses"), AccessKind::Load);
                let extra = if op.kind == OpKind::FpLoad { self.fp_load_extra } else { 0 };
                start + lat + extra
            }
            OpKind::IntStore | OpKind::FpStore => {
                self.hierarchy.access(op.addr.expect("stores carry addresses"), AccessKind::Store);
                start + 1
            }
            OpKind::CondBranch => {
                let resolve = start + 1;
                self.resolve_branch(op, resolve);
                resolve
            }
            OpKind::CondMove if !self.cfg.if_conversion => {
                let resolve = start + 1;
                self.resolve_branch(op, resolve);
                resolve
            }
            kind => start + self.cfg.op_latency(kind),
        };

        if let Some(dst) = op.dst {
            self.set_ready(dst, completion);
            self.from_load.insert((dst.0 as usize) & (READY_RING - 1), op.kind.is_load());
            self.regs.insert(dst.0);
        }
        self.rob.push(completion);
        if self.rob.len() > self.cfg.rob_size {
            self.rob.remove(0);
        }
        if completion > self.max_completion {
            self.max_completion = completion;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioperf_isa::StaticId;

    fn sid(n: u32) -> StaticId {
        StaticId::from_raw(n)
    }

    #[test]
    fn dependent_alu_chain_serializes() {
        let program = Program::new();
        let mut sim = RefPipeline::new(PlatformConfig::alpha21264());
        for i in 0..100u64 {
            let src = (i > 0).then(|| VReg(i - 1));
            sim.consume(
                &MicroOp::compute(sid(0), OpKind::IntAlu, VReg(i), [src, None, None]),
                &program,
            );
        }
        let r = sim.result();
        assert_eq!(r.instructions, 100);
        assert!(r.cycles >= 99, "1-cycle chain must serialize: {}", r.cycles);
    }

    #[test]
    fn unknown_source_is_ready_immediately() {
        let program = Program::new();
        let mut sim = RefPipeline::new(PlatformConfig::alpha21264());
        // VReg(u64::MAX) aliases the untouched-sentinel slot: ready at 0.
        sim.consume(
            &MicroOp::compute(sid(0), OpKind::IntAlu, VReg(0), [Some(VReg(u64::MAX)), None, None]),
            &program,
        );
        assert_eq!(sim.result().instructions, 1);
    }
}
