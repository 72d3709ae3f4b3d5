//! Property tests: block-batched replay is invisible.
//!
//! The block decoder carries streaming state (the SSA counter, the
//! side-table cursors) across block edges, and the `OpBlock` side
//! columns are a second, derived view of the decoded ops. Both must be
//! exact for *arbitrary* streams — SSA resync gaps, far sources,
//! zero-distance self references — at any block size, and across
//! segment boundaries in spilled recordings:
//!
//! * an order-sensitive digest of every op field must match per-op
//!   replay for block sizes 1, 3, 4095, 4096, and 8192 (plus a random
//!   size), in-memory and segmented;
//! * every filter column (memory, branch, select, kind codes, register
//!   events) must agree entry-for-entry with the ops it summarizes —
//!   the invariant the pipeline's plan pass trusts blindly.

use bioperf_isa::{MicroOp, OpKind, Program, StaticId, VReg, MAX_SRCS};
use bioperf_trace::{
    OpBlock, Recorder, SpillRecorder, TraceConsumer, REG_EVENT_DST, REG_EVENT_DST_LOAD,
    REG_EVENT_IDX_SHIFT, REG_EVENT_POS,
};
use proptest::prelude::*;

/// One op descriptor, as in `packed_prop`: `(kind, taken)`,
/// `(dst_mode, dst_value)`, three `(src_mode, src_value)` slots,
/// `(has_addr, addr)`.
type OpSpec = ((usize, bool), (u8, u64), Vec<(u8, u64)>, (bool, u64));

fn op_spec() -> impl Strategy<Value = OpSpec> {
    (
        (0..OpKind::ALL.len(), prop::bool::ANY),
        (0..4u8, any::<u64>()),
        prop::collection::vec((0..4u8, any::<u64>()), 3..4),
        (prop::bool::ANY, any::<u64>()),
    )
}

/// Materializes descriptors into a `MicroOp` stream, tracking the SSA
/// counter so "near" sources really are near and resync gaps (lit-style
/// holes, random destinations) really desynchronize the decoder.
fn build_ops(specs: &[OpSpec]) -> Vec<MicroOp> {
    let mut ops = Vec::with_capacity(specs.len());
    let mut next_vreg = 0u64;
    for (i, ((kind_idx, taken), (dst_mode, dst_value), src_specs, (has_addr, addr))) in
        specs.iter().enumerate()
    {
        let base = next_vreg;
        let mut srcs = [None; MAX_SRCS];
        for (slot, (src_mode, src_value)) in src_specs.iter().enumerate().take(MAX_SRCS) {
            srcs[slot] = match src_mode {
                0 => None,
                1 if base > 0 => {
                    let span = base.min(u64::from(u16::MAX));
                    Some(VReg(base - 1 - (src_value % span.max(1)).min(span - 1)))
                }
                1 => None,
                2 => Some(VReg(*src_value)),
                _ => Some(VReg(base)),
            };
        }
        let dst = match dst_mode {
            0 => None,
            1 => {
                let v = next_vreg;
                next_vreg = next_vreg.wrapping_add(1);
                Some(VReg(v))
            }
            2 => {
                next_vreg = next_vreg.wrapping_add(1);
                let v = next_vreg;
                next_vreg = next_vreg.wrapping_add(1);
                Some(VReg(v))
            }
            _ => {
                next_vreg = dst_value.wrapping_add(1);
                Some(VReg(*dst_value))
            }
        };
        ops.push(MicroOp {
            sid: StaticId::from_raw(i as u32 % 97),
            kind: OpKind::ALL[*kind_idx],
            dst,
            srcs,
            addr: has_addr.then_some(*addr),
            taken: *taken,
        });
    }
    ops
}

/// Order-sensitive digest of everything a consumer can observe.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
struct Digest {
    hash: u64,
    ops: u64,
    finishes: u64,
}

impl Digest {
    fn mix(&mut self, x: u64) {
        self.hash = (self.hash ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    }

    fn op(&mut self, op: &MicroOp) {
        self.mix(op.sid.index() as u64);
        self.mix(u64::from(op.kind.code()));
        self.mix(op.dst.map_or(u64::MAX, |v| v.0));
        for src in &op.srcs {
            self.mix(src.map_or(u64::MAX, |v| v.0));
        }
        self.mix(op.addr.unwrap_or(u64::MAX));
        self.mix(u64::from(op.taken));
        self.ops += 1;
    }
}

impl TraceConsumer for Digest {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        self.op(op);
    }

    fn finish(&mut self, _program: &Program) {
        self.finishes += 1;
    }
}

/// Digesting consumer with a `consume_block` override that first
/// cross-checks every side column against the ops array.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
struct BlockedDigest(Digest);

impl BlockedDigest {
    fn check_columns(block: &OpBlock) {
        let ops = block.ops();
        assert_eq!(block.kind_codes().len(), ops.len());
        let metas = block.reg_event_meta();
        let vregs = block.reg_event_vreg();
        assert_eq!(metas.len(), vregs.len());
        let (mut mem, mut br, mut sel, mut ev) = (0, 0, 0, 0);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(block.kind_codes()[i], op.kind.code());
            if let Some(addr) = op.addr {
                assert_eq!(block.mem_idx()[mem] as usize, i);
                assert_eq!(block.mem_addrs()[mem], addr);
                assert_eq!(block.mem_loads()[mem], op.kind.is_load());
                mem += 1;
            }
            if op.kind.is_cond_branch() {
                assert_eq!(block.branch_idx()[br] as usize, i);
                assert_eq!(block.branch_sids()[br], op.sid);
                assert_eq!(block.branch_taken()[br], op.taken);
                br += 1;
            } else if op.kind == OpKind::CondMove {
                assert_eq!(block.select_idx()[sel] as usize, i);
                assert_eq!(block.select_sids()[sel], op.sid);
                assert_eq!(block.select_taken()[sel], op.taken);
                sel += 1;
            }
            for (pos, src) in op.srcs.iter().enumerate() {
                let Some(v) = src else { continue };
                let meta = metas[ev];
                assert_eq!((meta >> REG_EVENT_IDX_SHIFT) as usize, i);
                assert_eq!(meta & REG_EVENT_DST, 0);
                assert_eq!((meta & REG_EVENT_POS) as usize, pos);
                assert_eq!(vregs[ev], v.0);
                ev += 1;
            }
            if let Some(dst) = op.dst {
                let meta = metas[ev];
                assert_eq!((meta >> REG_EVENT_IDX_SHIFT) as usize, i);
                assert_ne!(meta & REG_EVENT_DST, 0);
                assert_eq!(meta & REG_EVENT_DST_LOAD != 0, op.kind.is_load());
                assert_eq!(vregs[ev], dst.0);
                ev += 1;
            }
        }
        assert_eq!(mem, block.mem_addrs().len());
        assert_eq!(mem, block.mem_idx().len());
        assert_eq!(br, block.branch_sids().len());
        assert_eq!(sel, block.select_idx().len());
        assert_eq!(ev, metas.len());
    }
}

impl TraceConsumer for BlockedDigest {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        self.0.op(op);
    }

    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        Self::check_columns(block);
        for op in block.ops() {
            self.0.op(op);
        }
    }

    fn finish(&mut self, _program: &Program) {
        self.0.finishes += 1;
    }
}

/// The block sizes the issue pins: degenerate (1), tiny and unaligned
/// (3), one off the default (4095), the default (4096), and larger than
/// the default (8192).
const BLOCK_SIZES: [usize; 5] = [1, 3, 4095, 4096, 8192];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blocked_replay_digest_matches_per_op_replay(
        specs in prop::collection::vec(op_spec(), 0..700),
        random_block in 1usize..700,
    ) {
        let ops = build_ops(&specs);
        let program = Program::new();
        let mut recorder = Recorder::new();
        for op in &ops {
            recorder.consume(op, &program);
        }
        let recording = recorder.into_recording(program);

        let mut reference = Digest::default();
        recording.replay(&mut reference);
        prop_assert_eq!(reference.ops, ops.len() as u64);

        for block_ops in BLOCK_SIZES.into_iter().chain([random_block]) {
            let mut blocked = BlockedDigest::default();
            recording.replay_bank_blocks(std::slice::from_mut(&mut blocked), block_ops);
            prop_assert_eq!(
                &blocked.0, &reference,
                "block size {} diverged from per-op replay", block_ops
            );
        }
    }

    #[test]
    fn blocked_replay_is_exact_across_segment_boundaries(
        specs in prop::collection::vec(op_spec(), 1..500),
        segment_ops in 1usize..300,
        block_ops in 1usize..300,
    ) {
        // Segment edges end a block early (a block never spans two
        // segments) and force the decoder to re-anchor from the segment
        // header, on top of the block-level cursor carry.
        let ops = build_ops(&specs);
        let program = Program::new();
        let mut reference = Digest::default();
        let mut spill = SpillRecorder::in_memory(segment_ops, usize::MAX);
        for op in &ops {
            reference.consume(op, &program);
            spill.consume(op, &program);
        }
        reference.finish(&program);
        let segmented = spill.into_segmented(program).expect("in-memory spill");
        prop_assert_eq!(segmented.len(), ops.len());

        for block_ops in BLOCK_SIZES.into_iter().chain([block_ops]) {
            let mut blocked = BlockedDigest::default();
            segmented
                .replay_bank_blocks(std::slice::from_mut(&mut blocked), block_ops)
                .expect("streamed blocked replay");
            prop_assert_eq!(
                &blocked.0, &reference,
                "segments of {} ops, block size {} diverged", segment_ops, block_ops
            );
        }
    }
}
