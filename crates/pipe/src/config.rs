//! Platform configurations (the paper's Table 7).

use bioperf_cache::{CacheConfig, Hierarchy, LatencyConfig};
use bioperf_isa::OpKind;

/// Execution latencies for non-memory operation classes, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpLatencies {
    /// Integer ALU (add/compare/logic).
    pub int_alu: u64,
    /// Conditional move / select. Cheap on most cores, but slow on the
    /// Pentium 4 (Intel's optimization manual recommended branches over
    /// `cmov` on that microarchitecture).
    pub cmov: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// FP add/sub/compare.
    pub fp_alu: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP divide / long-latency FP.
    pub fp_div: u64,
}

impl OpLatencies {
    /// Typical early-2000s latencies.
    pub const fn classic() -> Self {
        Self { int_alu: 1, cmov: 1, int_mul: 7, fp_alu: 4, fp_mul: 4, fp_div: 16 }
    }

    /// Pentium 4 latencies: slow conditional moves and multiplies.
    pub const fn pentium4() -> Self {
        Self { int_alu: 1, cmov: 6, int_mul: 14, fp_alu: 4, fp_mul: 6, fp_div: 23 }
    }
}

/// One evaluation platform: core shape, latencies, caches, registers.
///
/// The four presets correspond to the paper's Table 7 machines. Cache
/// geometry and L1 latencies follow the table; parameters the table omits
/// (ROB sizes, widths, misprediction penalties, L2/memory latencies for
/// the x86/IPF rows) use the machines' published microarchitecture
/// numbers, recorded in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformConfig {
    /// Platform name as in Table 7.
    pub name: &'static str,
    /// In-order issue (Itanium 2) vs. out-of-order.
    pub in_order: bool,
    /// Front-end dispatch width (micro-ops per cycle).
    pub fetch_width: u32,
    /// Issue (execute) width per cycle.
    pub issue_width: u32,
    /// Reorder-buffer / in-flight window size.
    pub rob_size: usize,
    /// Integer L1 load-to-use latency.
    pub int_load_latency: u64,
    /// Floating-point L1 load-to-use latency.
    pub fp_load_latency: u64,
    /// Extra cycles for an L2 hit beyond the L1 probe.
    pub l2_latency: u64,
    /// Extra cycles for memory beyond the L2 probe.
    pub memory_latency: u64,
    /// Front-end refill penalty after a branch misprediction redirect.
    pub mispredict_penalty: u64,
    /// Extra latency on a spill reload beyond the L1 hit (store-to-load
    /// forwarding cost; large on the Pentium 4).
    pub spill_forward_extra: u64,
    /// Whether this platform's compiler/ISA realizes the transformed
    /// code's selects as conditional moves. True on the Alpha (the DEC
    /// compiler emits `cmov`, paper Figure 7) and the Itanium
    /// (predication); false on the PowerPC 970 (no integer conditional
    /// move) and the paper's gcc 3.3/i386-target Pentium 4 build — there
    /// a select executes as a compare-and-branch.
    pub if_conversion: bool,
    /// Architected integer registers visible to the compiler.
    pub logical_regs: u32,
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Non-memory op latencies.
    pub ops: OpLatencies,
}

impl PlatformConfig {
    /// Alpha 21264: 4-wide out-of-order, 3-cycle integer L1, 64 KB 2-way
    /// L1D, 4 MB direct-mapped L2, 32 registers.
    pub fn alpha21264() -> Self {
        Self {
            name: "Alpha 21264",
            in_order: false,
            fetch_width: 4,
            issue_width: 6,
            rob_size: 80,
            int_load_latency: 3,
            fp_load_latency: 4,
            l2_latency: 8,
            memory_latency: 72,
            mispredict_penalty: 7,
            spill_forward_extra: 0,
            if_conversion: true,
            logical_regs: 32,
            l1: CacheConfig::new(64 * 1024, 2, 64),
            l2: CacheConfig::new(4 * 1024 * 1024, 1, 64),
            ops: OpLatencies::classic(),
        }
    }

    /// PowerPC G5 (970): 4-wide out-of-order, 3-cycle integer L1, 32 KB
    /// 2-way L1D, 512 KB 8-way L2, 32 registers, deeper pipeline.
    pub fn ppc_g5() -> Self {
        Self {
            name: "PowerPC G5",
            in_order: false,
            fetch_width: 4,
            issue_width: 4,
            rob_size: 100,
            int_load_latency: 3,
            fp_load_latency: 5,
            l2_latency: 11,
            memory_latency: 100,
            mispredict_penalty: 11,
            spill_forward_extra: 0,
            if_conversion: false,
            logical_regs: 32,
            l1: CacheConfig::new(32 * 1024, 2, 64),
            l2: CacheConfig::new(512 * 1024, 8, 64),
            ops: OpLatencies::classic(),
        }
    }

    /// Pentium 4: 3-wide out-of-order, 2-cycle integer L1, tiny 8 KB
    /// 4-way L1D, 512 KB 8-way L2, only 8 logical registers, very deep
    /// pipeline.
    pub fn pentium4() -> Self {
        Self {
            name: "Pentium 4",
            in_order: false,
            fetch_width: 3,
            issue_width: 3,
            rob_size: 126,
            int_load_latency: 2,
            fp_load_latency: 6,
            l2_latency: 7,
            memory_latency: 100,
            mispredict_penalty: 20,
            spill_forward_extra: 4,
            if_conversion: false,
            logical_regs: 8,
            l1: CacheConfig::new(8 * 1024, 4, 64),
            l2: CacheConfig::new(512 * 1024, 8, 64),
            ops: OpLatencies::pentium4(),
        }
    }

    /// Itanium 2: 6-wide in-order, 1-cycle integer L1, 16 KB 4-way L1D,
    /// 256 KB 8-way L2, 128 registers.
    pub fn itanium2() -> Self {
        Self {
            name: "Itanium 2",
            in_order: true,
            fetch_width: 6,
            issue_width: 6,
            rob_size: 48,
            int_load_latency: 1,
            fp_load_latency: 5,
            l2_latency: 5,
            memory_latency: 80,
            mispredict_penalty: 6,
            spill_forward_extra: 0,
            if_conversion: true,
            logical_regs: 128,
            l1: CacheConfig::new(16 * 1024, 4, 64),
            l2: CacheConfig::new(256 * 1024, 8, 64),
            ops: OpLatencies::classic(),
        }
    }

    /// The four platforms in the paper's Table 7/8 order.
    pub fn all() -> [PlatformConfig; 4] {
        [Self::alpha21264(), Self::ppc_g5(), Self::pentium4(), Self::itanium2()]
    }

    /// This platform's cache level latencies (the integer load hit at L1).
    pub fn latencies(&self) -> LatencyConfig {
        LatencyConfig { l1: self.int_load_latency, l2: self.l2_latency, memory: self.memory_latency }
    }

    /// Builds this platform's cache hierarchy.
    pub fn hierarchy(&self) -> Hierarchy {
        Hierarchy::new(self.l1, self.l2, self.latencies())
    }

    /// The span of cycles this platform's issue ring may have to hold at
    /// once, estimated as the ROB size times one more than its slowest
    /// op: a load that goes to memory (at the FP hit latency if that is
    /// slower) or its slowest execution unit. The timing core's ring
    /// grows to whatever span a trace reaches; the sweep skips cells
    /// whose span exceeds [`MAX_ISSUE_SPAN`](crate::MAX_ISSUE_SPAN), so
    /// no cell can make a ring grow without bound.
    pub fn issue_span(&self) -> u64 {
        let hit = self.int_load_latency.max(self.fp_load_latency);
        let access = hit.saturating_add(self.l2_latency).saturating_add(self.memory_latency);
        let OpLatencies { int_alu, cmov, int_mul, fp_alu, fp_mul, fp_div } = self.ops;
        let op = [int_alu, cmov, int_mul, fp_alu, fp_mul, fp_div].into_iter().fold(access, u64::max);
        (self.rob_size as u64).saturating_mul(op.saturating_add(1))
    }

    /// Execution latency of a non-load op kind.
    pub fn op_latency(&self, kind: OpKind) -> u64 {
        match kind {
            OpKind::IntAlu | OpKind::CondBranch | OpKind::Jump => self.ops.int_alu,
            OpKind::CondMove => self.ops.cmov,
            OpKind::IntMul => self.ops.int_mul,
            OpKind::FpAlu => self.ops.fp_alu,
            OpKind::FpMul => self.ops.fp_mul,
            OpKind::FpDiv => self.ops.fp_div,
            OpKind::IntStore | OpKind::FpStore => 1,
            OpKind::IntLoad | OpKind::FpLoad => {
                unreachable!("load latency comes from the cache hierarchy")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_platforms_match_table7_key_facts() {
        let [alpha, ppc, p4, ipf] = PlatformConfig::all();
        assert_eq!(alpha.int_load_latency, 3);
        assert_eq!(ppc.int_load_latency, 3);
        assert_eq!(p4.int_load_latency, 2);
        assert_eq!(ipf.int_load_latency, 1);
        assert_eq!(p4.logical_regs, 8);
        assert_eq!(ipf.logical_regs, 128);
        assert!(ipf.in_order);
        assert!(!alpha.in_order && !ppc.in_order && !p4.in_order);
        assert_eq!(alpha.l1.size_bytes, 64 * 1024);
        assert_eq!(ppc.l1.size_bytes, 32 * 1024);
        assert_eq!(p4.l1.size_bytes, 8 * 1024);
        assert_eq!(ipf.l1.size_bytes, 16 * 1024);
    }

    #[test]
    fn op_latencies_are_sensible() {
        let c = PlatformConfig::alpha21264();
        assert_eq!(c.op_latency(OpKind::IntAlu), 1);
        assert!(c.op_latency(OpKind::FpDiv) > c.op_latency(OpKind::FpMul));
    }

    #[test]
    #[should_panic(expected = "cache hierarchy")]
    fn load_latency_is_not_an_op_latency() {
        PlatformConfig::alpha21264().op_latency(OpKind::IntLoad);
    }

    #[test]
    fn hierarchy_uses_platform_l1_latency() {
        let mut h = PlatformConfig::pentium4().hierarchy();
        h.access(0x40, bioperf_cache::AccessKind::Load);
        let lat = h.access(0x40, bioperf_cache::AccessKind::Load);
        assert_eq!(lat, 2);
    }
}
