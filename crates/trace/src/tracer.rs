//! The [`Tracer`] abstraction and its no-op implementation.

use crate::packed::OpBlock;
use bioperf_isa::{MicroOp, OpKind, Program, SrcLoc};

/// Receives the dynamic micro-op stream produced by a [`Tape`].
///
/// Consumers are streaming: they see each op exactly once, in program
/// order, and must not assume the trace fits in memory. [`finish`] is
/// called once after the last op.
///
/// The replay hot path delivers ops in decoded batches through
/// [`consume_block`]; the default implementation loops over [`consume`],
/// so a consumer only implements the per-op form unless it wants the
/// batched one for speed. An override must be observably equivalent to
/// the default — same state after the block, same `finish` result — for
/// every possible block, including blocks cut short by segment
/// boundaries (the conformance fuzzer cross-checks this).
///
/// [`Tape`]: crate::Tape
/// [`finish`]: TraceConsumer::finish
/// [`consume`]: TraceConsumer::consume
/// [`consume_block`]: TraceConsumer::consume_block
pub trait TraceConsumer {
    /// Observes one dynamic instruction.
    fn consume(&mut self, op: &MicroOp, program: &Program);

    /// Observes one decoded block of dynamic instructions, in trace
    /// order. Equivalent to calling [`consume`](TraceConsumer::consume)
    /// on each op of [`OpBlock::ops`]; hot simulators override it with a
    /// monomorphic loop over the block (or one of its filter columns).
    fn consume_block(&mut self, block: &OpBlock, program: &Program) {
        for op in block.ops() {
            self.consume(op, program);
        }
    }

    /// Called once after the trace ends.
    fn finish(&mut self, _program: &Program) {}
}

impl<C: TraceConsumer + ?Sized> TraceConsumer for &mut C {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        (**self).consume(op, program);
    }
    fn consume_block(&mut self, block: &OpBlock, program: &Program) {
        (**self).consume_block(block, program);
    }
    fn finish(&mut self, program: &Program) {
        (**self).finish(program);
    }
}

impl<C: TraceConsumer + ?Sized> TraceConsumer for Box<C> {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        (**self).consume(op, program);
    }
    fn consume_block(&mut self, block: &OpBlock, program: &Program) {
        (**self).consume_block(block, program);
    }
    fn finish(&mut self, program: &Program) {
        (**self).finish(program);
    }
}

macro_rules! impl_consumer_for_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: TraceConsumer),+> TraceConsumer for ($($name,)+) {
            fn consume(&mut self, op: &MicroOp, program: &Program) {
                $(self.$idx.consume(op, program);)+
            }
            fn consume_block(&mut self, block: &OpBlock, program: &Program) {
                $(self.$idx.consume_block(block, program);)+
            }
            fn finish(&mut self, program: &Program) {
                $(self.$idx.finish(program);)+
            }
        }
    };
}

impl_consumer_for_tuple!(A: 0);
impl_consumer_for_tuple!(A: 0, B: 1);
impl_consumer_for_tuple!(A: 0, B: 1, C: 2);
impl_consumer_for_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_consumer_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_consumer_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Instrumentation interface the BioPerf kernels are written against.
///
/// Each method both *describes* one machine-level operation of the
/// kernel's hot code and, in the [`Tape`] implementation, records it. The
/// associated [`Val`] type threads SSA dataflow through the kernel; with
/// [`NullTracer`] it is `()` and all calls compile away.
///
/// Address arguments are real Rust references into the kernel's working
/// arrays, so the recorded effective addresses reflect the kernel's true
/// memory layout — the cache simulator sees realistic locality.
///
/// [`Tape`]: crate::Tape
/// [`Val`]: Tracer::Val
pub trait Tracer {
    /// Handle to a traced SSA value.
    type Val: Copy;

    /// A value with no recorded producer (an immediate or a register that
    /// was live before the traced region).
    fn lit(&mut self) -> Self::Val;

    /// Records an integer load from `addr`.
    fn int_load<T>(&mut self, loc: SrcLoc, addr: &T) -> Self::Val;

    /// Records an integer load whose *address* depends on `base`
    /// (pointer chasing / computed indexing).
    fn int_load_via<T>(&mut self, loc: SrcLoc, addr: &T, base: Self::Val) -> Self::Val;

    /// Records a floating-point load from `addr`.
    fn fp_load<T>(&mut self, loc: SrcLoc, addr: &T) -> Self::Val;

    /// Records an integer store of `value` to `addr`.
    fn int_store<T>(&mut self, loc: SrcLoc, addr: &T, value: Self::Val);

    /// Records a floating-point store of `value` to `addr`.
    fn fp_store<T>(&mut self, loc: SrcLoc, addr: &T, value: Self::Val);

    /// Records a computational op of `kind` over `srcs` (at most 3).
    fn op(&mut self, loc: SrcLoc, kind: OpKind, srcs: &[Self::Val]) -> Self::Val;

    /// Records a conditional branch whose condition derives from `srcs`,
    /// with dynamic outcome `taken`. Returns `taken` so kernels can write
    /// `if t.branch(loc, &[v], cond) { ... }`.
    fn branch(&mut self, loc: SrcLoc, srcs: &[Self::Val], taken: bool) -> bool;

    /// Records a conditional move (select) whose condition derives from
    /// the first source, with dynamic selection outcome `cond`. On ISAs
    /// without a conditional move (PowerPC integer code, i386-target
    /// gcc), the platform timing model executes this as a branch, so the
    /// outcome must be recorded.
    fn select(&mut self, loc: SrcLoc, srcs: &[Self::Val], cond: bool) -> Self::Val;

    /// Records an unconditional control transfer (loop back-edge,
    /// call/return of a traced helper).
    fn jump(&mut self, loc: SrcLoc);

    /// Declares `data`'s backing memory as one contiguous working array.
    ///
    /// Kernels call this right after allocating (or re-sizing) each hot
    /// array. It emits no micro-op; it feeds the address-normalization
    /// pass (see [`normalize`](crate::normalize)) so traced addresses are
    /// independent of where the allocator placed the array. The default
    /// is a no-op, so `NullTracer` and custom tracers compile it away.
    #[inline]
    fn region<T>(&mut self, _loc: SrcLoc, _data: &[T]) {}

    /// Like [`region`](Tracer::region), but declares `elems` elements
    /// starting at `base` without requiring an initialized slice.
    ///
    /// For buffers that *grow while traced* (an arena, a hash-table entry
    /// pool): reserve the worst-case capacity first, then declare the
    /// whole reserved range so later pushes never move the buffer out of
    /// its region. The pointer is never dereferenced.
    #[inline]
    fn region_raw<T>(&mut self, _loc: SrcLoc, _base: *const T, _elems: usize) {}

    /// Single-cycle integer ALU op (add/sub/compare/logic).
    #[inline]
    fn int_op(&mut self, loc: SrcLoc, srcs: &[Self::Val]) -> Self::Val {
        self.op(loc, OpKind::IntAlu, srcs)
    }

    /// Floating-point add/sub/compare.
    #[inline]
    fn fp_op(&mut self, loc: SrcLoc, srcs: &[Self::Val]) -> Self::Val {
        self.op(loc, OpKind::FpAlu, srcs)
    }

    /// Floating-point multiply.
    #[inline]
    fn fp_mul(&mut self, loc: SrcLoc, srcs: &[Self::Val]) -> Self::Val {
        self.op(loc, OpKind::FpMul, srcs)
    }

    /// Long-latency floating-point op (divide, exp/log approximations).
    #[inline]
    fn fp_div(&mut self, loc: SrcLoc, srcs: &[Self::Val]) -> Self::Val {
        self.op(loc, OpKind::FpDiv, srcs)
    }

    /// Integer multiply.
    #[inline]
    fn int_mul(&mut self, loc: SrcLoc, srcs: &[Self::Val]) -> Self::Val {
        self.op(loc, OpKind::IntMul, srcs)
    }
}

/// A tracer whose every operation is an inlined no-op.
///
/// Kernels monomorphized against `NullTracer` compile to the plain
/// computation — this is the "uninstrumented binary" used for native
/// wall-clock measurements (the reproduction's analog of the paper's
/// `time`-measured runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl NullTracer {
    /// Creates a no-op tracer.
    pub fn new() -> Self {
        Self
    }
}

impl Tracer for NullTracer {
    type Val = ();

    #[inline(always)]
    fn lit(&mut self) -> Self::Val {}
    #[inline(always)]
    fn int_load<T>(&mut self, _loc: SrcLoc, _addr: &T) -> Self::Val {}
    #[inline(always)]
    fn int_load_via<T>(&mut self, _loc: SrcLoc, _addr: &T, _base: Self::Val) -> Self::Val {}
    #[inline(always)]
    fn fp_load<T>(&mut self, _loc: SrcLoc, _addr: &T) -> Self::Val {}
    #[inline(always)]
    fn int_store<T>(&mut self, _loc: SrcLoc, _addr: &T, _value: Self::Val) {}
    #[inline(always)]
    fn fp_store<T>(&mut self, _loc: SrcLoc, _addr: &T, _value: Self::Val) {}
    #[inline(always)]
    fn op(&mut self, _loc: SrcLoc, _kind: OpKind, _srcs: &[Self::Val]) -> Self::Val {}
    #[inline(always)]
    fn branch(&mut self, _loc: SrcLoc, _srcs: &[Self::Val], taken: bool) -> bool {
        taken
    }
    #[inline(always)]
    fn select(&mut self, _loc: SrcLoc, _srcs: &[Self::Val], _cond: bool) -> Self::Val {}
    #[inline(always)]
    fn jump(&mut self, _loc: SrcLoc) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioperf_isa::here;

    #[test]
    fn null_tracer_branch_returns_outcome() {
        let mut t = NullTracer::new();
        assert!(t.branch(here!("f"), &[], true));
        assert!(!t.branch(here!("f"), &[], false));
    }

    #[test]
    #[allow(clippy::let_unit_value)]
    fn null_tracer_values_are_unit() {
        let mut t = NullTracer::new();
        let a = t.int_load(here!("f"), &42u64);
        let b = t.int_op(here!("f"), &[a, a]);
        t.int_store(here!("f"), &42u64, b);
    }

    /// A consumer that counts ops, used to verify fan-out impls.
    #[derive(Default)]
    struct Counter(u64, bool);

    impl TraceConsumer for Counter {
        fn consume(&mut self, _op: &MicroOp, _p: &Program) {
            self.0 += 1;
        }
        fn finish(&mut self, _p: &Program) {
            self.1 = true;
        }
    }

    #[test]
    fn tuple_consumers_fan_out() {
        let mut pair = (Counter::default(), Counter::default());
        let p = Program::new();
        let op = MicroOp::compute(
            bioperf_isa::StaticId::from_raw(0),
            OpKind::IntAlu,
            bioperf_isa::VReg(0),
            [None, None, None],
        );
        pair.consume(&op, &p);
        pair.finish(&p);
        assert_eq!(pair.0 .0, 1);
        assert_eq!(pair.1 .0, 1);
        assert!(pair.0 .1 && pair.1 .1);
    }
}
