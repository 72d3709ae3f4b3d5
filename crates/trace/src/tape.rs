//! The recording tracer.

use bioperf_isa::{MicroOp, OpKind, Program, SrcLoc, VReg, MAX_SRCS};

use crate::normalize::{AddressNormalizer, NormalizerStats};
use crate::tracer::{TraceConsumer, Tracer};

/// Handle to a traced SSA value (a virtual register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Val(VReg);

impl Val {
    /// The underlying virtual register.
    pub fn vreg(self) -> VReg {
        self.0
    }
}

/// Recording implementation of [`Tracer`]: executes the kernel's
/// instrumentation calls, interning static instructions and streaming
/// [`MicroOp`]s to a [`TraceConsumer`].
///
/// Equivalent to running an ATOM-instrumented binary: the consumer plays
/// the role of the analysis routine linked into the binary.
///
/// By default every recorded effective address passes through an
/// [`AddressNormalizer`], so the emitted stream — and any cache
/// statistics computed from it — is bit-identical across runs regardless
/// of allocator placement or ASLR. [`Tape::raw`] opts out and records
/// true process addresses.
///
/// # Example
///
/// ```
/// use bioperf_isa::here;
/// use bioperf_trace::{consumers::InstrMix, Tape, Tracer};
///
/// let mut tape = Tape::new(InstrMix::default());
/// let x = tape.int_load(here!("demo"), &7u64);
/// let y = tape.int_op(here!("demo"), &[x]);
/// tape.branch(here!("demo"), &[y], true);
/// let (program, mix) = tape.finish();
/// assert_eq!(mix.total(), 3);
/// assert_eq!(program.len(), 3);
/// ```
#[derive(Debug)]
pub struct Tape<C> {
    program: Program,
    consumer: C,
    next_vreg: u64,
    ops_emitted: u64,
    normalizer: Option<AddressNormalizer>,
}

impl<C: TraceConsumer> Tape<C> {
    /// Creates a tape streaming into `consumer`, with deterministic
    /// address normalization on.
    pub fn new(consumer: C) -> Self {
        Self {
            program: Program::new(),
            consumer,
            next_vreg: 0,
            ops_emitted: 0,
            normalizer: Some(AddressNormalizer::new()),
        }
    }

    /// Creates a tape recording raw process addresses (no normalization).
    ///
    /// Useful for inspecting the kernel's true memory layout; raw traces
    /// are *not* reproducible across runs.
    pub fn raw(consumer: C) -> Self {
        Self { normalizer: None, ..Self::new(consumer) }
    }

    /// Address-normalization diagnostics, or `None` for a raw tape.
    pub fn normalizer_stats(&self) -> Option<NormalizerStats> {
        self.normalizer.as_ref().map(|n| n.stats())
    }

    /// Number of dynamic micro-ops emitted so far.
    pub fn ops_emitted(&self) -> u64 {
        self.ops_emitted
    }

    /// The static-instruction table built so far.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Borrows the consumer (e.g. to inspect running statistics).
    pub fn consumer(&self) -> &C {
        &self.consumer
    }

    /// Ends the trace: notifies the consumer and returns the static
    /// program together with the consumer.
    pub fn finish(mut self) -> (Program, C) {
        self.consumer.finish(&self.program);
        (self.program, self.consumer)
    }

    #[inline]
    fn fresh(&mut self) -> VReg {
        let v = VReg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    #[inline]
    fn emit(&mut self, op: MicroOp) {
        self.ops_emitted += 1;
        self.consumer.consume(&op, &self.program);
    }

    #[inline]
    fn srcs_array(srcs: &[Val]) -> [Option<VReg>; MAX_SRCS] {
        assert!(
            srcs.len() <= MAX_SRCS,
            "micro-ops take at most {MAX_SRCS} sources; chain ops for wider fan-in"
        );
        let mut out = [None; MAX_SRCS];
        for (slot, v) in out.iter_mut().zip(srcs) {
            *slot = Some(v.0);
        }
        out
    }

    #[inline]
    fn effective_addr<T>(&mut self, addr: &T) -> u64 {
        let raw = addr as *const T as u64;
        match &mut self.normalizer {
            Some(n) => n.normalize(raw, std::mem::size_of::<T>() as u64),
            None => raw,
        }
    }

    #[inline]
    fn record_load<T>(&mut self, loc: SrcLoc, kind: OpKind, addr: &T, base: Option<Val>) -> Val {
        let sid = self.program.intern(kind, loc);
        let dst = self.fresh();
        let ea = self.effective_addr(addr);
        let op = MicroOp::load(sid, kind, dst, ea, base.map(|b| b.0));
        self.emit(op);
        Val(dst)
    }

    #[inline]
    fn record_store<T>(&mut self, loc: SrcLoc, kind: OpKind, addr: &T, value: Val) {
        let sid = self.program.intern(kind, loc);
        let ea = self.effective_addr(addr);
        let op = MicroOp::store(sid, kind, Some(value.0), ea);
        self.emit(op);
    }
}

impl<C: TraceConsumer> Tracer for Tape<C> {
    type Val = Val;

    #[inline]
    fn lit(&mut self) -> Val {
        // Literals occupy a vreg but emit no op: they are "already ready"
        // values (immediates / pre-loop live-ins). Consumers treat vregs
        // with no recorded producer as ready at time zero.
        Val(self.fresh())
    }

    #[inline]
    fn int_load<T>(&mut self, loc: SrcLoc, addr: &T) -> Val {
        self.record_load(loc, OpKind::IntLoad, addr, None)
    }

    #[inline]
    fn int_load_via<T>(&mut self, loc: SrcLoc, addr: &T, base: Val) -> Val {
        self.record_load(loc, OpKind::IntLoad, addr, Some(base))
    }

    #[inline]
    fn fp_load<T>(&mut self, loc: SrcLoc, addr: &T) -> Val {
        self.record_load(loc, OpKind::FpLoad, addr, None)
    }

    #[inline]
    fn int_store<T>(&mut self, loc: SrcLoc, addr: &T, value: Val) {
        self.record_store(loc, OpKind::IntStore, addr, value);
    }

    #[inline]
    fn fp_store<T>(&mut self, loc: SrcLoc, addr: &T, value: Val) {
        self.record_store(loc, OpKind::FpStore, addr, value);
    }

    #[inline]
    fn op(&mut self, loc: SrcLoc, kind: OpKind, srcs: &[Val]) -> Val {
        debug_assert!(!kind.is_mem() && !kind.is_cond_branch(), "use the dedicated methods");
        let sid = self.program.intern(kind, loc);
        let dst = self.fresh();
        let op = MicroOp::compute(sid, kind, dst, Self::srcs_array(srcs));
        self.emit(op);
        Val(dst)
    }

    #[inline]
    fn branch(&mut self, loc: SrcLoc, srcs: &[Val], taken: bool) -> bool {
        let sid = self.program.intern(OpKind::CondBranch, loc);
        let op = MicroOp::branch(sid, Self::srcs_array(srcs), taken);
        self.emit(op);
        taken
    }

    #[inline]
    fn select(&mut self, loc: SrcLoc, srcs: &[Val], cond: bool) -> Val {
        let sid = self.program.intern(OpKind::CondMove, loc);
        let dst = self.fresh();
        let mut op = MicroOp::compute(sid, OpKind::CondMove, dst, Self::srcs_array(srcs));
        op.taken = cond;
        self.emit(op);
        Val(dst)
    }

    #[inline]
    fn jump(&mut self, loc: SrcLoc) {
        let sid = self.program.intern(OpKind::Jump, loc);
        let op = MicroOp {
            sid,
            kind: OpKind::Jump,
            dst: None,
            srcs: [None; MAX_SRCS],
            addr: None,
            taken: true,
        };
        self.emit(op);
    }

    #[inline]
    fn region<T>(&mut self, _loc: SrcLoc, data: &[T]) {
        if let Some(n) = &mut self.normalizer {
            n.register(data.as_ptr() as u64, std::mem::size_of_val(data) as u64);
        }
    }

    #[inline]
    fn region_raw<T>(&mut self, _loc: SrcLoc, base: *const T, elems: usize) {
        if let Some(n) = &mut self.normalizer {
            n.register(base as u64, (elems * std::mem::size_of::<T>()) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioperf_isa::here;

    /// Collects the raw op stream for assertions.
    #[derive(Default)]
    struct Collect(Vec<MicroOp>);

    impl TraceConsumer for Collect {
        fn consume(&mut self, op: &MicroOp, _p: &Program) {
            self.0.push(*op);
        }
    }

    #[test]
    fn vregs_are_ssa() {
        let mut t = Tape::new(Collect::default());
        let a = t.int_load(here!("f"), &1u64);
        let b = t.int_load(here!("f"), &2u64);
        let c = t.int_op(here!("f"), &[a, b]);
        assert_ne!(a.vreg(), b.vreg());
        assert_ne!(b.vreg(), c.vreg());
        let (_, ops) = t.finish();
        assert_eq!(ops.0.len(), 3);
        assert_eq!(ops.0[2].srcs[0], Some(a.vreg()));
        assert_eq!(ops.0[2].srcs[1], Some(b.vreg()));
    }

    #[test]
    fn raw_tape_records_true_addresses() {
        let xs = [5u64, 6, 7];
        let mut t = Tape::raw(Collect::default());
        t.int_load(here!("f"), &xs[2]);
        let (_, ops) = t.finish();
        assert_eq!(ops.0[0].addr, Some(&xs[2] as *const u64 as u64));
        assert!(Tape::raw(Collect::default()).normalizer_stats().is_none());
    }

    #[test]
    fn normalized_addresses_preserve_array_layout() {
        let xs = [5u64, 6, 7];
        let mut t = Tape::new(Collect::default());
        t.region(here!("f"), &xs);
        for x in &xs {
            t.int_load(here!("f"), x);
        }
        let stats = t.normalizer_stats().unwrap();
        assert_eq!(stats.registered_regions, 1);
        assert_eq!(stats.fallback_regions, 0);
        let (_, ops) = t.finish();
        let a: Vec<u64> = ops.0.iter().map(|op| op.addr.unwrap()).collect();
        assert_eq!(a[1] - a[0], 8);
        assert_eq!(a[2] - a[1], 8);
        assert_ne!(a[0], &xs[0] as *const u64 as u64, "addresses are virtual");
    }

    #[test]
    fn normalized_streams_are_allocation_invariant() {
        // The same logical trace over two *different* heap allocations
        // emits bit-identical address streams.
        let run = || {
            let xs: Vec<u64> = (0..64).collect();
            let mut t = Tape::new(Collect::default());
            t.region(here!("f"), &xs);
            for i in [0usize, 63, 7, 7, 31] {
                t.int_load(here!("f"), &xs[i]);
            }
            let (_, ops) = t.finish();
            ops.0.iter().map(|op| op.addr.unwrap()).collect::<Vec<u64>>()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
    }

    #[test]
    fn same_loop_site_shares_static_id() {
        let xs = [1u64, 2, 3, 4];
        let mut t = Tape::new(Collect::default());
        for x in &xs {
            t.int_load(here!("f"), x);
        }
        let (program, ops) = t.finish();
        assert_eq!(program.len(), 1, "one static load");
        assert_eq!(ops.0.len(), 4, "four dynamic loads");
        assert!(ops.0.windows(2).all(|w| w[0].sid == w[1].sid));
    }

    #[test]
    fn branch_returns_and_records_outcome() {
        let mut t = Tape::new(Collect::default());
        let v = t.lit();
        assert!(t.branch(here!("f"), &[v], true));
        assert!(!t.branch(here!("f"), &[v], false));
        let (_, ops) = t.finish();
        assert!(ops.0[0].taken);
        assert!(!ops.0[1].taken);
    }

    #[test]
    fn lit_emits_no_op() {
        let mut t = Tape::new(Collect::default());
        let _ = t.lit();
        assert_eq!(t.ops_emitted(), 0);
    }

    #[test]
    fn pointer_chase_records_base_dependence() {
        let x = 9u64;
        let mut t = Tape::new(Collect::default());
        let p = t.int_load(here!("f"), &x);
        t.int_load_via(here!("f"), &x, p);
        let (_, ops) = t.finish();
        assert_eq!(ops.0[1].srcs[0], Some(p.vreg()));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_sources_panics() {
        let mut t = Tape::new(Collect::default());
        let v = t.lit();
        t.int_op(here!("f"), &[v, v, v, v]);
    }

    #[test]
    fn stores_record_value_dependence() {
        let x = 1u64;
        let mut t = Tape::new(Collect::default());
        let v = t.int_load(here!("f"), &x);
        t.int_store(here!("f"), &x, v);
        let (_, ops) = t.finish();
        assert_eq!(ops.0[1].srcs[0], Some(v.vreg()));
        assert!(ops.0[1].kind.is_store());
    }
}
