//! Seeded adversarial stream generation and differential checking.
//!
//! [`generate_stream`] derives a micro-op stream from a single `u64`
//! seed, biased toward the optimized implementations' hard cases:
//!
//! * SSA-counter gaps (`lit()`-style claimed-but-unproduced vregs) and
//!   wild destination resyncs, which exercise the packed codec's far-dst
//!   side table and counter resynchronization;
//! * delta-0 / future / `u64::MAX` source references, which exercise the
//!   far-src path and the ready-ring sentinel;
//! * set-conflict address ladders, a hot page, spill-slot collisions,
//!   and near-overflow bases, which exercise LRU victim selection,
//!   dirty-writeback propagation, and address wraparound;
//! * per-branch outcome patterns (biased / alternating / random), which
//!   exercise every hybrid-predictor component and mispredict-flush
//!   interleavings.
//!
//! [`check_trace`] replays one trace through every optimized
//! implementation and its reference twin on a set of platforms, diffing
//! per-op events and final statistics, and holds every platform bank
//! result to the model's physical bounds. It is the one implementation
//! of each differential check: fuzz streams run it on one platform
//! ([`check_stream`]), and the conformance harness runs it on every
//! real program trace. [`run_case`] adds deterministic per-case seeding,
//! platform rotation, and removal-based counterexample shrinking.

use std::collections::HashMap;
use std::sync::Arc;

use bioperf_branch::{BranchProfiler, PredictorKind};
use bioperf_cache::{AccessKind, CacheConfig, MAX_BLOCK_BYTES};
use bioperf_isa::{MicroOp, OpKind, Program, StaticId, VReg, MAX_SRCS};
use bioperf_pipe::{CachePassSim, CycleSim, PlatformBank, PlatformConfig, RegFile, SimResult, TimingBank};
use bioperf_trace::packed::PackedStream;
use bioperf_trace::{BlockFeed, OpBlock, SpillRecorder, TraceConsumer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cache::RefHierarchy;
use crate::pipeline::RefPipeline;
use crate::predictor::RefPredictor;
use crate::regfile::RefRegFile;

/// The simulator's spill-slot region; generated addresses deliberately
/// collide with it so spill traffic and demand traffic interleave.
const SPILL_BASE: u64 = 0x7fff_0000_0000;
const SPILL_SLOTS: u64 = 512;

/// Predicate evaluations spent shrinking one failing stream.
const SHRINK_BUDGET: usize = 2000;

/// One observed disagreement between an optimized implementation and its
/// reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which check failed: `codec`, `block`, `segment`, `cache`,
    /// `regfile`, `predictor`, `bounds`, or `pipeline`.
    pub component: &'static str,
    /// Human-readable mismatch description.
    pub detail: String,
}

impl Divergence {
    fn new(component: &'static str, detail: String) -> Self {
        Self { component, detail }
    }

    /// Names the platform a per-platform check diverged on.
    fn on(mut self, platform: &PlatformConfig) -> Self {
        self.detail = format!("{}: {}", platform.name, self.detail);
        self
    }
}

/// A divergence together with its shrunk witness stream.
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// Failing check on the shrunk stream.
    pub component: &'static str,
    /// Mismatch description on the shrunk stream.
    pub detail: String,
    /// Minimal (under removal shrinking) op stream that still diverges.
    pub ops: Vec<MicroOp>,
}

/// Outcome of one fuzz case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Case index within the run.
    pub index: u64,
    /// Derived stream seed (reproduce with `generate_stream(seed)`).
    pub seed: u64,
    /// Platform the case ran on.
    pub platform: &'static str,
    /// Generated stream length.
    pub ops: usize,
    /// The divergence, if any check failed.
    pub divergence: Option<CounterExample>,
}

/// Derives the stream seed of case `index` from the run's base seed
/// (SplitMix64-style mix, so consecutive indices decorrelate).
pub fn case_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every `LADDER_EVERY`th case (the last of each run of that many) is a
/// ladder case: [`generate_ladder_stream`] on [`ladder_platform`].
const LADDER_EVERY: u64 = 8;

/// Whether case `index` is a ladder case.
fn is_ladder_case(index: u64) -> bool {
    index % LADDER_EVERY == LADDER_EVERY - 1
}

/// The platform case `index` runs on: round-robin over the Table 7
/// machines (so every fourth case stresses each configuration), except
/// that a ladder case runs on [`ladder_platform`].
pub fn platform_for_case(index: u64) -> PlatformConfig {
    if is_ladder_case(index) {
        return ladder_platform(index / LADDER_EVERY);
    }
    PlatformConfig::all()[(index % 4) as usize]
}

/// The stream of case `index` from its seed: [`generate_ladder_stream`]
/// on a ladder case, [`generate_stream`] otherwise.
pub fn stream_for_case(index: u64, seed: u64) -> Vec<MicroOp> {
    if is_ladder_case(index) {
        generate_ladder_stream(seed)
    } else {
        generate_stream(seed)
    }
}

/// The `k`th ladder platform: an out-of-order Table 7 machine whose
/// memory access takes 4096 or 8192 cycles plus a few (4–17) in total.
/// An op dispatched that few cycles after a miss issues claims the issue
/// cycle a whole multiple of 4096 cycles before the one the miss's
/// consumers claim — the pair a 4096-slot issue ring aliases.
pub fn ladder_platform(k: u64) -> PlatformConfig {
    let out_of_order = [PlatformConfig::alpha21264(), PlatformConfig::ppc_g5(), PlatformConfig::pentium4()];
    let mut platform = out_of_order[(k % 3) as usize];
    let total = 4096 * (1 + (k / 3) % 2) + 4 + (k * 5) % 14;
    platform.memory_latency = total - platform.int_load_latency - platform.l2_latency;
    platform
}

/// Generates the adversarial op stream for one seed.
pub fn generate_stream(seed: u64) -> Vec<MicroOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(16usize..160);
    let mut ops = Vec::with_capacity(len);

    // SSA state mirroring the tape's monotone vreg allocation.
    let mut counter: u64 = 0;
    let mut produced: Vec<u64> = Vec::new();

    // Per-static-branch outcome behavior.
    let n_sids = rng.gen_range(1u32..10);
    let modes: Vec<u8> = (0..n_sids).map(|_| rng.gen_range(0u8..4)).collect();
    let mut alternators = vec![false; n_sids as usize];

    // Address-pattern state: one conflict stride per stream plus a hot
    // page. 32 KB strides collide L1 sets on every platform; 4 MB
    // strides collide the Alpha's direct-mapped L2; 64 B walks blocks.
    let stride = [32 * 1024u64, 64, 4 << 20, 2048][rng.gen_range(0usize..4)];
    let conflict_base =
        if rng.gen_bool(0.08) { u64::MAX - 2 * (4 << 20) } else { rng.gen_range(0..1u64 << 40) };
    let hot_base = rng.gen_range(0..1u64 << 32) & !0xFFF;
    let mut conflict_rung: u64 = 0;

    for _ in 0..len {
        let sid = StaticId::from_raw(rng.gen_range(0..n_sids));
        let roll = rng.gen_range(0u32..100);
        let op = if roll < 30 {
            let kind = if rng.gen_bool(0.25) { OpKind::FpLoad } else { OpKind::IntLoad };
            let base = pick_src(&mut rng, &produced, counter);
            let addr = pick_addr(&mut rng, stride, conflict_base, &mut conflict_rung, hot_base);
            let dst = pick_dst(&mut rng, &mut counter, &mut produced);
            MicroOp { sid, kind, dst: Some(dst), srcs: [base, None, None], addr: Some(addr), taken: false }
        } else if roll < 45 {
            let kind = if rng.gen_bool(0.2) { OpKind::FpStore } else { OpKind::IntStore };
            let value = pick_src(&mut rng, &produced, counter);
            let addr = pick_addr(&mut rng, stride, conflict_base, &mut conflict_rung, hot_base);
            MicroOp { sid, kind, dst: None, srcs: [value, None, None], addr: Some(addr), taken: false }
        } else if roll < 65 {
            let srcs = [
                pick_src(&mut rng, &produced, counter),
                pick_src(&mut rng, &produced, counter),
                None,
            ];
            let taken = branch_outcome(&mut rng, modes[sid.index()], &mut alternators[sid.index()]);
            MicroOp { sid, kind: OpKind::CondBranch, dst: None, srcs, addr: None, taken }
        } else if roll < 90 {
            let kind = match rng.gen_range(0u32..10) {
                0..=6 => OpKind::IntAlu,
                7 => OpKind::IntMul,
                _ => OpKind::CondMove,
            };
            let srcs = [
                pick_src(&mut rng, &produced, counter),
                pick_src(&mut rng, &produced, counter),
                pick_src(&mut rng, &produced, counter),
            ];
            // A select's outcome matters on platforms without
            // if-conversion, where it executes as compare-and-branch.
            let taken = kind == OpKind::CondMove
                && branch_outcome(&mut rng, modes[sid.index()], &mut alternators[sid.index()]);
            let dst = pick_dst(&mut rng, &mut counter, &mut produced);
            MicroOp { sid, kind, dst: Some(dst), srcs, addr: None, taken }
        } else if roll < 95 {
            // Jumps occasionally carry a (meaningless) address so the
            // codec's addr flag is exercised off the memory-op path.
            let addr = rng.gen_bool(0.3).then(|| rng.gen::<u64>());
            MicroOp { sid, kind: OpKind::Jump, dst: None, srcs: [None; MAX_SRCS], addr, taken: false }
        } else {
            let kind = match rng.gen_range(0u32..3) {
                0 => OpKind::FpAlu,
                1 => OpKind::FpMul,
                _ => OpKind::FpDiv,
            };
            let srcs = [
                pick_src(&mut rng, &produced, counter),
                pick_src(&mut rng, &produced, counter),
                None,
            ];
            let dst = pick_dst(&mut rng, &mut counter, &mut produced);
            MicroOp { sid, kind, dst: Some(dst), srcs, addr: None, taken: false }
        };
        ops.push(op);
    }
    ops
}

/// Generates a long, high-IPC stream for one seed: a run of 300–600
/// ALU ops, mostly independent (about one fetch width per cycle), then,
/// in two streams of three, one to four bursts, each a load from a fresh
/// far address (a miss at every level) followed by 40–90 ops of which
/// about half consume it and the rest are independent. On a
/// [`ladder_platform`] each burst's consumers wait thousands of cycles
/// on the miss while the independent ops keep issuing near the front
/// end, so many issue cycles exactly 4096 apart are live at once.
pub fn generate_ladder_stream(seed: u64) -> Vec<MicroOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let op = |kind: OpKind, dst: u64, src: Option<u64>, addr: Option<u64>| MicroOp {
        sid: StaticId::from_raw(u32::from(kind == OpKind::IntLoad)),
        kind,
        dst: Some(VReg(dst)),
        srcs: [src.map(VReg), None, None],
        addr,
        taken: false,
    };
    let mut ops = Vec::new();
    // Any load's first touch waits on memory, so the run is ALU ops, a
    // quarter of them reading the op four back.
    for v in 0..rng.gen_range(300u64..600) {
        let src = (v >= 4 && rng.gen_bool(0.25)).then(|| v - 4);
        ops.push(op(OpKind::IntAlu, v, src, None));
    }
    // A third of the streams stay throughput-bound, where cycles sit
    // near ⌈instructions / issue width⌉.
    let bursts = if rng.gen_bool(1.0 / 3.0) { 0 } else { rng.gen_range(1..5) };
    for _ in 0..bursts {
        let missed = ops.len() as u64;
        let addr = rng.gen_range(1u64 << 40..1 << 48) & !0x3F;
        ops.push(op(OpKind::IntLoad, missed, None, Some(addr)));
        for _ in 0..rng.gen_range(40..90) {
            let src = rng.gen_bool(0.5).then_some(missed);
            ops.push(op(OpKind::IntAlu, ops.len() as u64, src, None));
        }
    }
    ops
}

/// Destination picker: mostly the running counter (the codec's elided
/// fast path), with `lit()`-style gaps and occasional wild resyncs.
fn pick_dst(rng: &mut StdRng, counter: &mut u64, produced: &mut Vec<u64>) -> VReg {
    let roll = rng.gen_range(0u32..100);
    if (82..94).contains(&roll) {
        // A lit() gap: vregs claimed with no producing op.
        *counter += rng.gen_range(1u64..4);
    } else if (94..98).contains(&roll) {
        // Forward resync far beyond any near encoding.
        *counter += rng.gen_range(4u64..100_000);
    } else if roll >= 98 {
        // Fully wild destination (can rewind the counter).
        *counter = rng.gen();
    }
    let v = *counter;
    *counter = counter.wrapping_add(1);
    produced.push(v);
    VReg(v)
}

/// Source picker: biased toward recent producers (near deltas) but with
/// deep-history, delta-0, future, sentinel, and wild references mixed in.
fn pick_src(rng: &mut StdRng, produced: &[u64], counter: u64) -> Option<VReg> {
    let roll = rng.gen_range(0u32..100);
    match roll {
        0..=34 => {
            let window = produced.len().min(8);
            (window > 0).then(|| {
                VReg(produced[produced.len() - 1 - rng.gen_range(0..window)])
            })
        }
        35..=49 => (!produced.is_empty()).then(|| VReg(produced[rng.gen_range(0..produced.len())])),
        50..=57 => Some(VReg(counter)), // delta 0: unencodable as near
        58..=63 => Some(VReg(counter.wrapping_add(rng.gen_range(1u64..100)))),
        64..=67 => Some(VReg(u64::MAX)), // ready-ring sentinel alias
        68..=74 => Some(VReg(rng.gen())),
        _ => None,
    }
}

/// Per-dynamic-branch outcome under one of four per-sid modes.
fn branch_outcome(rng: &mut StdRng, mode: u8, alternator: &mut bool) -> bool {
    match mode {
        0 => true,
        1 => false,
        2 => {
            *alternator = !*alternator;
            *alternator
        }
        _ => rng.gen(),
    }
}

/// Memory-address picker over four adversarial classes.
fn pick_addr(
    rng: &mut StdRng,
    stride: u64,
    conflict_base: u64,
    conflict_rung: &mut u64,
    hot_base: u64,
) -> u64 {
    match rng.gen_range(0u32..100) {
        0..=39 => {
            let addr = conflict_base.wrapping_add(*conflict_rung * stride);
            *conflict_rung = (*conflict_rung + 1) % 64;
            addr
        }
        40..=69 => hot_base + rng.gen_range(0u64..512) * 8,
        70..=84 => SPILL_BASE + rng.gen_range(0..SPILL_SLOTS) * 8,
        _ => rng.gen(),
    }
}

/// Runs every differential check over one stream on one platform,
/// returning the first divergence: [`check_trace`] with a single
/// platform.
pub fn check_stream(ops: &[MicroOp], platform: &PlatformConfig) -> Option<Divergence> {
    check_trace(ops, std::slice::from_ref(platform))
}

/// Runs every differential check over one trace, returning the first
/// divergence. The platform-independent checks (codec, block, segment,
/// predictor) run once; the cache check runs once per platform; the
/// register-file check drives one multi-size file over every platform's
/// size; the pipeline check replays one platform bank over all
/// platforms and holds each of its results to the model's bounds
/// before diffing it. Check order is cheapest-first so shrinking
/// re-evaluations stay fast.
///
/// Block, segment and pipeline sizes scale with the trace: with
/// `unit = max(1, len / 4096)`, blocks are `3·unit` and `8·unit` ops,
/// segments `unit` and `5·unit`, and pipeline blocks `unit`, `3·unit`
/// and `8·unit`. Fuzz streams (under 4096 ops) keep `unit = 1`, so
/// every offset is a block or segment edge; a real program trace gets
/// a few thousand edges per size instead of millions.
pub fn check_trace(ops: &[MicroOp], platforms: &[PlatformConfig]) -> Option<Divergence> {
    let unit = (ops.len() >> 12).max(1);
    let mut stream = PackedStream::new();
    for op in ops {
        stream.push(op);
    }
    codec_check(ops, &stream)
        .or_else(|| block_check(ops, &stream, [3 * unit, 8 * unit]))
        .or_else(|| segment_check(ops, [unit, 5 * unit]))
        .or_else(|| platforms.iter().find_map(|p| cache_check(ops, p).map(|d| d.on(p))))
        .or_else(|| regfile_check(ops, platforms))
        .or_else(|| predictor_check(ops))
        .or_else(|| issue_width_check(ops, platforms))
        .or_else(|| pipeline_check(ops, &stream, platforms, [unit, 3 * unit, 8 * unit]))
}

/// Decodes `stream` in `block_ops`-op blocks, driving every member of
/// `bank` off each decoded block.
fn replay_blocks<C: TraceConsumer>(stream: &PackedStream, bank: &mut [C], block_ops: usize) {
    let program = Program::new();
    let mut decoder = stream.block_decoder();
    let mut block = OpBlock::with_capacity(block_ops);
    while decoder.next_block(&mut block, block_ops) > 0 {
        for member in bank.iter_mut() {
            member.consume_block(&block, &program);
        }
    }
}

/// Packed round-trip vs. the raw stream, via both decode paths.
fn codec_check(ops: &[MicroOp], stream: &PackedStream) -> Option<Divergence> {
    if stream.len() != ops.len() {
        return Some(Divergence::new(
            "codec",
            format!("encoded {} ops out of {}", stream.len(), ops.len()),
        ));
    }
    let mut mismatch = None;
    let mut i = 0usize;
    stream.for_each(|decoded| {
        if mismatch.is_none() && *decoded != ops[i] {
            mismatch = Some(Divergence::new(
                "codec",
                format!("op {i}: for_each decoded {decoded:?}, recorded {:?}", ops[i]),
            ));
        }
        i += 1;
    });
    if mismatch.is_some() {
        return mismatch;
    }
    for (i, (decoded, recorded)) in stream.iter().zip(ops).enumerate() {
        if decoded != *recorded {
            return Some(Divergence::new(
                "codec",
                format!("op {i}: iter decoded {decoded:?}, recorded {recorded:?}"),
            ));
        }
    }
    None
}

/// Block decoder vs. the raw stream (which [`codec_check`] has already
/// pinned the per-op decode paths against). At the fuzzer's sizes, 3 and
/// 8, several block edges fall inside even the shortest stream, so the
/// cross-block cursor carry (SSA counter, address, far-ref bases) is
/// exercised at every offset; the SoA filter columns are checked
/// against the decoded ops they were derived from.
fn block_check(ops: &[MicroOp], stream: &PackedStream, sizes: [usize; 2]) -> Option<Divergence> {
    for block_ops in sizes {
        let mut decoder = stream.block_decoder();
        let mut block = OpBlock::with_capacity(block_ops);
        let mut at = 0usize;
        while decoder.next_block(&mut block, block_ops) > 0 {
            let mut mem = 0usize;
            let mut branches = 0usize;
            for (j, op) in block.ops().iter().enumerate() {
                let i = at + j;
                if *op != ops[i] {
                    return Some(Divergence::new(
                        "block",
                        format!(
                            "block_ops {block_ops} op {i}: block decoded {op:?}, recorded {:?}",
                            ops[i]
                        ),
                    ));
                }
                if let Some(addr) = op.addr {
                    if block.mem_addrs().get(mem) != Some(&addr)
                        || block.mem_loads().get(mem) != Some(&op.kind.is_load())
                    {
                        return Some(Divergence::new(
                            "block",
                            format!("block_ops {block_ops} op {i}: memory column out of step"),
                        ));
                    }
                    mem += 1;
                }
                if op.kind.is_cond_branch() {
                    if block.branch_sids().get(branches) != Some(&op.sid)
                        || block.branch_taken().get(branches) != Some(&op.taken)
                    {
                        return Some(Divergence::new(
                            "block",
                            format!("block_ops {block_ops} op {i}: branch column out of step"),
                        ));
                    }
                    branches += 1;
                }
            }
            if mem != block.mem_addrs().len() || branches != block.branch_sids().len() {
                return Some(Divergence::new(
                    "block",
                    format!(
                        "block_ops {block_ops} at op {at}: columns hold {}/{} entries, ops imply {mem}/{branches}",
                        block.mem_addrs().len(),
                        block.branch_sids().len()
                    ),
                ));
            }
            at += block.len();
        }
        if at != ops.len() {
            return Some(Divergence::new(
                "block",
                format!("block_ops {block_ops}: decoded {at} ops out of {}", ops.len()),
            ));
        }
    }
    None
}

/// Segmented spill/replay round-trip vs. the raw stream. At the
/// fuzzer's sizes, 1 and 5, segments split at every position and
/// mid-resync-gap, so the per-segment header state (the SSA start
/// counter) carries the whole standalone-decode burden.
fn segment_check(ops: &[MicroOp], sizes: [usize; 2]) -> Option<Divergence> {
    #[derive(Default)]
    struct Collect(Vec<MicroOp>);
    impl TraceConsumer for Collect {
        fn consume(&mut self, op: &MicroOp, _p: &Program) {
            self.0.push(*op);
        }
    }

    for segment_ops in sizes {
        let mut spill = SpillRecorder::in_memory(segment_ops, usize::MAX);
        let program = Program::new();
        for op in ops {
            spill.consume(op, &program);
        }
        let segmented = match spill.into_segmented(program) {
            Ok(s) => s,
            Err(e) => {
                return Some(Divergence::new(
                    "segment",
                    format!("segment_ops {segment_ops}: spill failed: {e}"),
                ))
            }
        };
        let mut replayed = Collect::default();
        if let Err(e) = segmented.replay(&mut replayed) {
            return Some(Divergence::new(
                "segment",
                format!("segment_ops {segment_ops}: replay failed: {e}"),
            ));
        }
        if replayed.0.len() != ops.len() {
            return Some(Divergence::new(
                "segment",
                format!(
                    "segment_ops {segment_ops}: replayed {} ops out of {}",
                    replayed.0.len(),
                    ops.len()
                ),
            ));
        }
        for (i, (decoded, recorded)) in replayed.0.iter().zip(ops).enumerate() {
            if decoded != recorded {
                return Some(Divergence::new(
                    "segment",
                    format!(
                        "segment_ops {segment_ops} op {i}: streamed {decoded:?}, recorded {recorded:?}"
                    ),
                ));
            }
        }
    }
    None
}

/// Optimized hierarchy vs. [`RefHierarchy`], per-access and final stats.
fn cache_check(ops: &[MicroOp], platform: &PlatformConfig) -> Option<Divergence> {
    let mut optimized = platform.hierarchy();
    let mut reference = RefHierarchy::for_platform(platform);
    for (i, op) in ops.iter().enumerate() {
        let Some(addr) = op.addr else { continue };
        let kind = if op.kind.is_load() { AccessKind::Load } else { AccessKind::Store };
        let fast = optimized.access_detailed(addr, kind);
        let slow = reference.access_detailed(addr, kind);
        if fast != slow {
            return Some(Divergence::new(
                "cache",
                format!("op {i} addr {addr:#x} {kind:?}: optimized {fast:?}, reference {slow:?}"),
            ));
        }
    }
    (optimized.stats() != reference.stats()).then(|| {
        Divergence::new(
            "cache",
            format!("final stats: optimized {:?}, reference {:?}", optimized.stats(), reference.stats()),
        )
    })
}

/// One optimized multi-size register file — a size per distinct
/// capacity among `platforms` — vs. one [`RefRegFile`] per size, under
/// the plan's access pattern: a source is a `touch` plus an `insert` on
/// a miss, a destination an `insert`. Every residency bit and each
/// size's final resident count must agree.
fn regfile_check(ops: &[MicroOp], platforms: &[PlatformConfig]) -> Option<Divergence> {
    let regs: Vec<u32> = platforms.iter().map(|p| p.logical_regs).collect();
    let mut optimized = RegFile::new(&regs);
    let mut reference: Vec<RefRegFile> = regs.iter().map(|&r| RefRegFile::new(r)).collect();
    reference.sort_by_key(RefRegFile::capacity);
    reference.dedup_by_key(|r| r.capacity());
    let sizes: Vec<usize> = reference.iter().map(RefRegFile::capacity).collect();
    if optimized.sizes() != sizes {
        let detail = format!("sizes: optimized {:?}, reference {sizes:?}", optimized.sizes());
        return Some(Divergence::new("regfile", detail));
    }
    for (i, op) in ops.iter().enumerate() {
        let refs = op.sources().map(|v| (v, false)).chain(op.dst.map(|d| (d, true)));
        for (v, is_dst) in refs {
            let fast = optimized.reference(v.0);
            let mut slow = 0u32;
            for (k, file) in reference.iter_mut().enumerate() {
                let resident = if is_dst {
                    // An insert neither grows the file nor evicts
                    // exactly when the value was already resident.
                    let before = file.len();
                    file.insert(v.0).is_none() && file.len() == before
                } else {
                    let hit = file.touch(v.0);
                    if !hit {
                        file.insert(v.0);
                    }
                    hit
                };
                slow |= (resident as u32) << k;
            }
            if fast != slow {
                let what = if is_dst { "insert" } else { "touch" };
                return Some(Divergence::new(
                    "regfile",
                    format!(
                        "op {i} {what}({}) over sizes {sizes:?}: optimized residency {fast:#b}, reference {slow:#b}",
                        v.0
                    ),
                ));
            }
        }
    }
    sizes.iter().enumerate().find_map(|(k, size)| {
        let (fast, slow) = (optimized.residents(k), reference[k].len());
        (fast != slow).then(|| {
            Divergence::new(
                "regfile",
                format!("size {size} residents: optimized {fast}, reference {slow}"),
            )
        })
    })
}

/// Optimized per-branch profiler vs. [`RefPredictor`], per-branch
/// correctness and final totals.
fn predictor_check(ops: &[MicroOp]) -> Option<Divergence> {
    let mut optimized = BranchProfiler::new();
    let mut reference = RefPredictor::new();
    for (i, op) in ops.iter().enumerate() {
        if !op.kind.is_cond_branch() {
            continue;
        }
        let fast = optimized.observe(op.sid, op.taken);
        let slow = reference.observe(op.sid, op.taken);
        if fast != slow {
            return Some(Divergence::new(
                "predictor",
                format!(
                    "op {i} sid {} taken {}: optimized correct={fast}, reference correct={slow}",
                    op.sid.index(),
                    op.taken
                ),
            ));
        }
    }
    (optimized.total_executions() != reference.total_executions()
        || optimized.total_mispredictions() != reference.total_mispredictions())
    .then(|| {
        Divergence::new(
            "predictor",
            format!(
                "totals: optimized {}/{}, reference {}/{}",
                optimized.total_mispredictions(),
                optimized.total_executions(),
                reference.total_mispredictions(),
                reference.total_executions()
            ),
        )
    })
}

/// Ops of a trace's prefix the issue-width check times: a timeline's
/// capacity.
const TIMELINE_OPS: usize = 65_536;

/// The one timing check that does not rest on an issue ring's
/// bookkeeping: on every platform, counted from a [`CycleSim`] timeline
/// of the trace's first [`TIMELINE_OPS`] ops, no cycle may issue more
/// than `issue_width` ops. A ring that lost a live cycle's count lets
/// more issue there, in both engines alike, so the differential checks
/// cannot see it.
fn issue_width_check(ops: &[MicroOp], platforms: &[PlatformConfig]) -> Option<Divergence> {
    let program = Program::new();
    platforms.iter().find_map(|platform| {
        let mut sim = CycleSim::new(*platform).with_timeline();
        for op in &ops[..ops.len().min(TIMELINE_OPS)] {
            sim.consume(op, &program);
        }
        let mut issued: HashMap<u64, u32> = HashMap::new();
        for op in sim.timeline().unwrap_or_default() {
            *issued.entry(op.issue).or_default() += 1;
        }
        let (cycle, n) = issued.into_iter().filter(|&(_, n)| n > platform.issue_width).min()?;
        let detail = format!("{n} ops issue at cycle {cycle}, above issue width {}", platform.issue_width);
        Some(Divergence::new("bounds", detail).on(platform))
    })
}

/// A keyed [`PlatformBank`] with one lane timing `platform` (hybrid
/// predictor) over two keys: `decoy`, the representative, and the
/// platform's own geometry.
fn keyed_bank(platform: &PlatformConfig, decoy: &PlatformConfig) -> PlatformBank {
    let hierarchies = vec![decoy.hierarchy(), platform.hierarchy()];
    let mut bank = PlatformBank::keyed(platform.logical_regs, platform.if_conversion, hierarchies);
    bank.push_keyed_lane(platform, PredictorKind::Hybrid);
    bank
}

/// The keyed leg's decoy key for `platform`: 4 KB lines, so it hits on
/// every untouched line of a touched page, where the platform misses.
fn page_lines(platform: &PlatformConfig) -> PlatformConfig {
    let mut decoy = *platform;
    decoy.l1 = CacheConfig::new(256 * 1024, 4, MAX_BLOCK_BYTES);
    decoy.l2 = CacheConfig::new(4 * 1024 * 1024, 1, MAX_BLOCK_BYTES);
    decoy
}

/// Full cycle simulation, the production engines vs. [`RefPipeline`]:
/// one [`PlatformBank`] over every platform, replayed from packed
/// blocks of each size in `sizes` (the spilled suite's engine: one
/// decode, one register walk and one predictor walk per family drive
/// every member, with block edges at every offset at the fuzzer's sizes
/// 1, 3 and 8); the same bank fed op by op through a [`BlockFeed`] (the
/// in-memory suite's engine, [`BLOCK_OPS`](bioperf_trace::BLOCK_OPS)
/// blocks built live, the tail flushed at the end); then, per platform,
/// a [`CachePassSim`]
/// feeding a [`TimingBank`] (the annotated engine; the sweep no longer
/// runs one), taking cycles
/// and counters from the bank and hierarchy stats from the cache pass.
/// The checked lane is a latency-fill follower: two decoy lanes on the
/// same stream go first, one whose L1 latency is one cycle longer (it
/// must not share the fill) and one with the same latencies but another
/// width, ROB and predictor (it must, and leads the checked lane's
/// group). Last, a keyed [`PlatformBank`] fed op by op through a
/// [`BlockFeed`] (every live pass of the sweep) whose representative key
/// is a decoy with 4 KB lines, so the platform's own key forks off its
/// class at the first block where a new line of a touched page misses;
/// the checked lane is the fork of the platform's lane. The same keyed
/// bank replayed from `sizes[0]`-op blocks (single ops on fuzz streams)
/// times the platform's lane as a shadow of the decoy's wherever their
/// codes agree and their states converged, and materializes it where
/// they diverge again.
///
/// Before it is compared, every bank result must satisfy the model's
/// bounds ([`bound_violation`]), so a fault that breaks one is reported
/// as a `bounds` divergence.
fn pipeline_check(
    ops: &[MicroOp],
    stream: &PackedStream,
    platforms: &[PlatformConfig],
    sizes: [usize; 3],
) -> Option<Divergence> {
    let program = Program::new();
    let slow: Vec<SimResult> = platforms
        .iter()
        .map(|&platform| {
            let mut reference = RefPipeline::new(platform);
            for op in ops {
                reference.consume(op, &program);
            }
            reference.result()
        })
        .collect();
    let check_bank = |bank: &PlatformBank, engine: &str| {
        platforms.iter().zip(&slow).enumerate().find_map(|(i, (platform, slow))| {
            let fast = bank.result(i);
            if let Some(violation) = bound_violation(&fast, platform) {
                let detail = format!("{engine}: {violation}");
                return Some(Divergence::new("bounds", detail).on(platform));
            }
            (fast != *slow).then(|| {
                let detail = format!("{engine}: optimized {fast:?}, reference {slow:?}");
                Divergence::new("pipeline", detail).on(platform)
            })
        })
    };
    for block_ops in sizes {
        let mut bank = PlatformBank::new(platforms);
        replay_blocks(stream, std::slice::from_mut(&mut bank), block_ops);
        if let Some(divergence) = check_bank(&bank, &format!("{block_ops}-op blocks")) {
            return Some(divergence);
        }
    }
    let mut feed = BlockFeed::new(PlatformBank::new(platforms), ops.len());
    for op in ops {
        feed.consume(op, &program);
    }
    feed.finish(&program);
    if let Some(divergence) = check_bank(&feed.into_inner(), "live feed") {
        return Some(divergence);
    }
    let block_ops = sizes[2];
    for (platform, slow) in platforms.iter().zip(&slow) {
        let mut pass = CachePassSim::new(platform.logical_regs, vec![platform.hierarchy()]);
        replay_blocks(stream, std::slice::from_mut(&mut pass), block_ops);
        let (stats, annotations) = pass.finish_bank().pop().expect("one member");
        let annotations = Arc::new(annotations);
        let mut slower = *platform;
        slower.int_load_latency += 1;
        slower.fp_load_latency += 1;
        let mut reshaped = *platform;
        reshaped.fetch_width += 1;
        reshaped.issue_width += 1;
        reshaped.rob_size *= 2;
        let mut bank = TimingBank::new(platform.logical_regs, platform.if_conversion);
        bank.push_lane(&slower, PredictorKind::Hybrid, Arc::clone(&annotations));
        bank.push_lane(&reshaped, PredictorKind::Bimodal, Arc::clone(&annotations));
        bank.push_lane(platform, PredictorKind::Hybrid, annotations);
        replay_blocks(stream, std::slice::from_mut(&mut bank), block_ops);
        let fast = SimResult { cache: stats, ..bank.into_results()[2] };
        if fast != *slow {
            let detail = format!("factored: optimized {fast:?}, reference {slow:?}");
            return Some(Divergence::new("pipeline", detail).on(platform));
        }

        let decoy = page_lines(platform);
        let mut feed = BlockFeed::new(keyed_bank(platform, &decoy), ops.len());
        for op in ops {
            feed.consume(op, &program);
        }
        feed.finish(&program);
        let fast = feed.into_inner().key_result(0, 1);
        if fast != *slow {
            let detail = format!("keyed: optimized {fast:?}, reference {slow:?}");
            return Some(Divergence::new("pipeline", detail).on(platform));
        }
        let mut bank = keyed_bank(platform, &decoy);
        replay_blocks(stream, std::slice::from_mut(&mut bank), sizes[0]);
        let fast = bank.key_result(0, 1);
        if fast != *slow {
            let detail = format!("keyed {}-op blocks: optimized {fast:?}, reference {slow:?}", sizes[0]);
            return Some(Divergence::new("pipeline", detail).on(platform));
        }
    }
    None
}

/// The first model-level bound `r` violates on `platform`, whatever the
/// engine: no platform issues more than `issue_width` trace
/// instructions per cycle, so a run takes at least
/// ⌈instructions / issue_width⌉ cycles; no more branches mispredict than
/// execute; every L1 demand miss is exactly one L2 demand access, for
/// loads and for stores alike (prefetches and writebacks reach L2 but
/// are not demand traffic); and the paper-formula AMAT lies in the
/// platform's [`LatencyConfig::amat_range`].
///
/// [`LatencyConfig::amat_range`]: bioperf_cache::LatencyConfig::amat_range
fn bound_violation(r: &SimResult, platform: &PlatformConfig) -> Option<String> {
    let min_cycles = r.instructions.div_ceil(u64::from(platform.issue_width));
    if r.cycles < min_cycles {
        return Some(format!(
            "{} cycles for {} instructions at issue width {}, below the {min_cycles}-cycle bound",
            r.cycles, r.instructions, platform.issue_width
        ));
    }
    if r.mispredicts > r.branches {
        return Some(format!("{} mispredicts exceed {} branches", r.mispredicts, r.branches));
    }
    let (l1, l2) = (&r.cache.l1, &r.cache.l2);
    if (l2.load_accesses, l2.store_accesses) != (l1.load_misses, l1.store_misses) {
        return Some(format!(
            "L2 demand accesses ({} loads, {} stores) differ from L1 demand misses \
             ({} loads, {} stores)",
            l2.load_accesses, l2.store_accesses, l1.load_misses, l1.store_misses
        ));
    }
    let lat = platform.latencies();
    let amat = lat.amat(l1.load_miss_ratio(), l2.load_miss_ratio());
    let range = lat.amat_range();
    (!range.contains(&amat)).then(|| {
        format!("AMAT {amat} outside [{}, {}]", range.start(), range.end())
    })
}

/// Runs one fuzz case: derive the seed, generate, check, and — on
/// divergence — shrink to a minimal witness and re-derive its diagnosis.
pub fn run_case(base_seed: u64, index: u64) -> CaseOutcome {
    let seed = case_seed(base_seed, index);
    let platform = platform_for_case(index);
    let ops = stream_for_case(index, seed);
    let generated = ops.len();
    let divergence = check_stream(&ops, &platform).map(|first| {
        let shrunk = proptest::shrink::minimize_removals(
            &ops,
            |candidate| check_stream(candidate, &platform).is_some(),
            SHRINK_BUDGET,
        );
        let on_shrunk = check_stream(&shrunk, &platform).unwrap_or(first);
        CounterExample { component: on_shrunk.component, detail: on_shrunk.detail, ops: shrunk }
    });
    CaseOutcome { index, seed, platform: platform.name, ops: generated, divergence }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_stream(7), generate_stream(7));
        assert_ne!(generate_stream(7), generate_stream(8));
    }

    #[test]
    fn streams_cover_the_adversarial_features() {
        // Over a few seeds the generator must exercise every feature the
        // checks depend on: memory ops, branches, gaps, far references.
        let mut mem = 0usize;
        let mut branches = 0usize;
        let mut gaps = 0usize;
        let mut prev_max: u64 = 0;
        for seed in 0..20u64 {
            let ops = generate_stream(seed);
            assert!((16..160).contains(&ops.len()));
            for op in &ops {
                if op.addr.is_some() {
                    mem += 1;
                }
                if op.kind.is_cond_branch() {
                    branches += 1;
                }
                if let Some(d) = op.dst {
                    if d.0 > prev_max.wrapping_add(1) {
                        gaps += 1;
                    }
                    prev_max = d.0;
                }
            }
            prev_max = 0;
        }
        assert!(mem > 100, "memory ops: {mem}");
        assert!(branches > 50, "branches: {branches}");
        assert!(gaps > 10, "counter gaps: {gaps}");
    }

    #[test]
    fn case_seeds_decorrelate() {
        let s: Vec<u64> = (0..16).map(|i| case_seed(1, i)).collect();
        let mut unique = s.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), s.len());
    }

    #[test]
    fn bound_violation_holds_hierarchy_traffic_and_amat() {
        use bioperf_cache::{HierarchyStats, LevelStats};
        let platform = PlatformConfig::alpha21264();
        let level = |load_accesses, load_misses, store_accesses, store_misses| LevelStats {
            load_accesses,
            load_misses,
            store_accesses,
            store_misses,
            writebacks: 0,
        };
        let sound = SimResult {
            cycles: 100,
            instructions: 100,
            branches: 10,
            mispredicts: 1,
            spill_stores: 0,
            spill_reloads: 0,
            cache: HierarchyStats { l1: level(40, 4, 20, 2), l2: level(4, 1, 2, 0) },
        };
        assert_eq!(bound_violation(&sound, &platform), None);
        // A prefetch or writeback counted as demand traffic at L2.
        let mut extra = sound;
        extra.cache.l2.store_accesses += 1;
        let found = bound_violation(&extra, &platform).expect("store traffic is not conserved");
        assert!(found.contains("L2 demand accesses"), "{found}");
        let mut lost = sound;
        lost.cache.l2.load_accesses -= 1;
        assert!(bound_violation(&lost, &platform).is_some(), "load traffic is not conserved");
        // More L1 load misses than loads, passed on to L2 consistently:
        // traffic is conserved, but the AMAT leaves its range.
        let mut over = sound;
        over.cache.l1.load_misses = 41;
        over.cache.l2.load_accesses = 41;
        over.cache.l2.load_misses = 41;
        let found = bound_violation(&over, &platform).expect("AMAT above its range");
        assert!(found.contains("AMAT"), "{found}");
    }

    /// The keyed single-op leg exercises shadow lanes: over a sample of
    /// cases, its platform lane both merges into a shadow of the decoy's
    /// and materializes again, so a fault in either step can show.
    #[test]
    fn keyed_leg_merges_and_materializes_shadow_lanes() {
        crate::fault::disarm();
        let mut work = bioperf_pipe::BankWork::default();
        for index in 0..32u64 {
            let platform = platform_for_case(index);
            let mut stream = PackedStream::new();
            for op in &stream_for_case(index, case_seed(1, index)) {
                stream.push(op);
            }
            let mut bank = keyed_bank(&platform, &page_lines(&platform));
            replay_blocks(&stream, std::slice::from_mut(&mut bank), 1);
            work += bank.work();
        }
        assert!(work.merges > 0 && work.materializations > 0, "{work:?}");
    }

    /// Ladder cases are long, run on out-of-order platforms whose memory
    /// access spans the old issue ring, and mostly hold misses.
    #[test]
    fn ladder_cases_are_long_and_span_the_old_issue_ring() {
        let ladder: Vec<u64> = (0..64).filter(|&i| is_ladder_case(i)).collect();
        assert_eq!(ladder.len(), 8);
        let mut bursts = 0;
        for &index in &ladder {
            let platform = platform_for_case(index);
            assert!(!platform.in_order, "case {index}");
            let total = platform.latencies().total(true, true);
            assert!(total % 4096 >= 4 && total % 4096 < 18 && total > 4096, "case {index}: {total}");
            let ops = stream_for_case(index, case_seed(1, index));
            assert!(ops.len() >= 300, "case {index}: {} ops", ops.len());
            bursts += ops.iter().filter(|op| op.addr.is_some_and(|a| a >= 1 << 40)).count();
        }
        assert!(bursts >= 8, "{bursts} misses over the ladder cases");
    }

    #[test]
    fn clean_build_has_no_divergence_on_a_quick_sample() {
        crate::fault::disarm();
        for index in 0..24u64 {
            let outcome = run_case(42, index);
            assert!(
                outcome.divergence.is_none(),
                "case {index} (seed {}) diverged: {:?}",
                outcome.seed,
                outcome.divergence
            );
        }
    }
}
