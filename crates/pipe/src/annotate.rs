//! A recorded cache pass: one trace decode drives a bank of cache-axis
//! configurations and records each one's miss-level annotation stream.
//!
//! [`CachePassSim`] replays exactly the hierarchy-access sequence a full
//! [`CycleSim`](crate::CycleSim) would generate — the demand loads and
//! stores plus the spill stores/reloads inserted by the register-pressure
//! model — without any timing state: it is the plan pass's access events
//! fed to a [`MissLevelBank`]. That sequence depends only on the trace
//! and the platform's logical register count: every sweep cell shares
//! the register file geometry, so one pass serves every timing
//! configuration. Every live pass of the sweep runs the same bank inside
//! a keyed [`PlatformBank`](crate::PlatformBank), which keeps only each
//! block's codes; a cache pass keeps whole streams, and serves the sweep
//! self-check's stack-distance address log, the conformance fuzzer's
//! annotated [`TimingBank`](crate::TimingBank) leg and the frozen
//! performance benchmark. Each access is applied to every member
//! [`Hierarchy`], and the servicing level lands in that member's
//! [`AnnotationStream`]; annotated timing lanes convert levels back to
//! latencies through each lane's own latency table.

use bioperf_cache::{AnnotationStream, Hierarchy, HierarchyStats, MissLevelBank};
use bioperf_isa::{MicroOp, Program};
use bioperf_trace::{OpBlock, TraceConsumer};

use crate::plan::Plan;

/// Replays a trace's hierarchy-access sequence into a bank of cache
/// configurations, producing per-config stats and annotation streams.
#[derive(Debug)]
pub struct CachePassSim {
    plan: Plan,
    bank: MissLevelBank,
    addr_log: Option<Vec<u64>>,
    /// Reused one-op block for per-op [`TraceConsumer::consume`].
    one: OpBlock,
}

impl CachePassSim {
    /// Builds a cache pass over the given member hierarchies, using the
    /// platform's logical register count for the spill model (identical
    /// across sweep cells, so the access sequence is shared).
    pub fn new(logical_regs: u32, hierarchies: Vec<Hierarchy>) -> Self {
        Self {
            // Branch outcomes are never planned here, so no
            // if-conversion mode is.
            plan: Plan::new(&[logical_regs], &[]),
            bank: MissLevelBank::new(hierarchies),
            addr_log: None,
            one: OpBlock::default(),
        }
    }

    /// Also record the raw address sequence presented to the bank, for
    /// analytic cross-checks (the sweep's stack-distance verification
    /// profiles exactly this stream).
    pub fn with_address_log(mut self) -> Self {
        self.addr_log = Some(Vec::new());
        self
    }

    /// The logged address sequence, when [`Self::with_address_log`] was
    /// requested.
    pub fn address_log(&self) -> Option<&[u64]> {
        self.addr_log.as_deref()
    }

    /// Accesses presented to the bank so far (the annotation length).
    pub fn accesses(&self) -> usize {
        self.bank.accesses()
    }

    /// Final per-member stats and annotation streams, in construction
    /// order.
    pub fn finish_bank(self) -> Vec<(HierarchyStats, AnnotationStream)> {
        self.bank.finish()
    }
}

impl TraceConsumer for CachePassSim {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        let mut one = std::mem::take(&mut self.one);
        one.fill_one(op);
        self.consume_block(&one, program);
        self.one = one;
    }

    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        // Each member hierarchy takes the block's accesses in a single
        // run.
        self.plan.block_memory(block);
        let accesses = &self.plan.sizes[0];
        if let Some(log) = &mut self.addr_log {
            log.extend_from_slice(&accesses.acc_addr);
        }
        self.bank.access_run(&accesses.acc_addr, &accesses.acc_load);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::simulator::tests::spill_heavy_recording;
    use crate::simulator::CycleSim;

    /// The cache pass must present exactly the access sequence a live
    /// `CycleSim` presents to its hierarchy — pinned by comparing final
    /// hierarchy stats on every platform, per-op and blocked.
    #[test]
    fn cache_pass_reproduces_cyclesim_hierarchy_stats() {
        let recording = spill_heavy_recording();
        let program = recording.program().clone();
        for cfg in PlatformConfig::all() {
            let mut sim = CycleSim::new(cfg);
            recording.replay_bank(std::slice::from_mut(&mut sim));
            let reference = sim.into_result().cache;

            let mut blocked = CachePassSim::new(cfg.logical_regs, vec![cfg.hierarchy()]);
            recording.replay_bank(std::slice::from_mut(&mut blocked));
            let (stats, stream) = blocked.finish_bank().pop().expect("one member");
            assert_eq!(stats, reference, "{} blocked cache pass diverged", cfg.name);
            assert_eq!(
                stream.len() as u64,
                reference.l1.load_accesses + reference.l1.store_accesses,
                "{}: one annotation per demand access",
                cfg.name
            );

            let mut per_op = CachePassSim::new(cfg.logical_regs, vec![cfg.hierarchy()]);
            for op in recording.iter() {
                per_op.consume(&op, &program);
            }
            let (stats, _) = per_op.finish_bank().pop().expect("one member");
            assert_eq!(stats, reference, "{} per-op cache pass diverged", cfg.name);
        }
    }

    /// A multi-member bank must equal independent single-member passes.
    #[test]
    fn bank_members_are_independent() {
        let recording = spill_heavy_recording();
        let cfg = PlatformConfig::pentium4();
        let others = PlatformConfig::alpha21264();
        let mut bank =
            CachePassSim::new(cfg.logical_regs, vec![cfg.hierarchy(), others.hierarchy()]);
        recording.replay_bank(std::slice::from_mut(&mut bank));
        let banked = bank.finish_bank();

        for (i, member_cfg) in [&cfg, &others].into_iter().enumerate() {
            let mut solo = CachePassSim::new(cfg.logical_regs, vec![member_cfg.hierarchy()]);
            recording.replay_bank(std::slice::from_mut(&mut solo));
            let (stats, stream) = solo.finish_bank().pop().expect("one member");
            assert_eq!(stats, banked[i].0, "member {i} stats");
            assert_eq!(stream, banked[i].1, "member {i} stream");
        }
    }
}
