//! The factored sweep's timing pass: one trace decode drives a bank of
//! annotated timing configurations through one shared plan.
//!
//! A sweep's timing cells differ only in what the timing core sees: the
//! register/spill plan depends only on the trace and the platform's
//! logical register count, and predictor evolution only on the trace and
//! the predictor family — both shared by construction across a sweep's
//! timing axis (every cell keeps the base platform's register file and
//! if-conversion mode). [`TimingBank`] therefore runs the plan pass once
//! per chunk, each distinct predictor family once per chunk, and per
//! lane only the annotation-to-latency fill and the timing core. Every
//! lane's result equals a live `CycleSim` replay with the lane's cache
//! geometry and timing configuration (`SimResult::cache` aside) — pinned
//! by this module's tests, the conformance fuzzer, and the sweep's
//! factored-vs-oracle self-check.

use std::sync::Arc;

use bioperf_branch::{DynPredictor, PredictorKind};
use bioperf_cache::{AnnotationStream, HierarchyStats, LatencyConfig};
use bioperf_isa::{MicroOp, Program};
use bioperf_trace::{OpBlock, TraceConsumer};

use crate::config::PlatformConfig;
use crate::plan::{Plan, PHASE_CHUNK};
use crate::simulator::SimResult;
use crate::timing::TimingCore;

/// One timing configuration: its annotation cursor, level-to-latency
/// table, predictor family, and timing core.
#[derive(Debug, Clone)]
struct TimingLane {
    /// Index into the bank's predictor families.
    family: usize,
    stream: Arc<AnnotationStream>,
    pos: usize,
    /// Total access latency by 2-bit level code (L1 / L2 / memory; the
    /// fourth entry aliases L1 so indexing a raw code never
    /// bounds-checks). An exhausted cursor reads the benign L1 code, so
    /// a skewed replay diverges instead of crashing.
    ann_lat: [u64; 4],
    core: TimingCore,
}

/// A predictor family shared by every lane that uses it.
#[derive(Debug)]
struct Family {
    kind: PredictorKind,
    predictor: DynPredictor,
    mispredicts: u64,
    /// The current chunk's mispredicted branch ops.
    redirects: Vec<u32>,
}

/// Replays a trace once through a bank of annotated timing
/// configurations, sharing the register/spill plan across every lane and
/// each predictor family across its lanes.
///
/// All lanes must share the platform's `logical_regs` and
/// `if_conversion` (true of every sweep grid cell — both come from the
/// base platform, not the swept axes); [`Self::push_lane`] panics
/// otherwise.
#[derive(Debug)]
pub struct TimingBank {
    logical_regs: u32,
    if_conversion: bool,
    plan: Plan,
    families: Vec<Family>,
    lanes: Vec<TimingLane>,
    /// Reused one-op block for per-op [`TraceConsumer::consume`].
    one: OpBlock,
}

impl TimingBank {
    /// An empty bank over the shared platform invariants.
    pub fn new(logical_regs: u32, if_conversion: bool) -> Self {
        Self {
            logical_regs,
            if_conversion,
            plan: Plan::new(logical_regs, if_conversion),
            families: Vec::new(),
            lanes: Vec::new(),
            one: OpBlock::default(),
        }
    }

    /// Adds one timing configuration: a platform shape, a predictor
    /// family, and its precomputed miss-level stream.
    pub fn push_lane(
        &mut self,
        cfg: &PlatformConfig,
        pred: PredictorKind,
        stream: Arc<AnnotationStream>,
    ) {
        assert_eq!(cfg.logical_regs, self.logical_regs, "lanes must share the register file");
        assert_eq!(cfg.if_conversion, self.if_conversion, "lanes must share if-conversion");
        let family = match self.families.iter().position(|f| f.kind == pred) {
            Some(f) => f,
            None => {
                self.families.push(Family {
                    kind: pred,
                    predictor: DynPredictor::new(pred),
                    mispredicts: 0,
                    redirects: Vec::new(),
                });
                self.families.len() - 1
            }
        };
        let lat = LatencyConfig {
            l1: cfg.int_load_latency,
            l2: cfg.l2_latency,
            memory: cfg.memory_latency,
        };
        // An armed `factored-annotation-skew` fault starts the cursor one
        // annotation in — the off-by-one the conformance fuzzer and the
        // sweep self-check must catch.
        let pos = bioperf_trace::inject::active(bioperf_trace::inject::ANN_SKEW) as usize;
        self.lanes.push(TimingLane {
            family,
            stream,
            pos,
            ann_lat: [
                lat.total(false, false),
                lat.total(true, false),
                lat.total(true, true),
                lat.total(false, false),
            ],
            core: TimingCore::new(cfg),
        });
    }

    /// Lanes pushed so far.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the bank has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Final per-lane results, in push order. `SimResult::cache` is
    /// zeroed: the cache pass that produced the streams owns the
    /// hierarchy stats.
    pub fn into_results(self) -> Vec<SimResult> {
        self.lanes
            .iter()
            .map(|lane| SimResult {
                cycles: lane.core.cycles(),
                instructions: self.plan.instructions,
                branches: self.plan.branches,
                mispredicts: self.families[lane.family].mispredicts,
                spill_stores: self.plan.spill_stores,
                spill_reloads: self.plan.spill_reloads,
                cache: HierarchyStats::default(),
            })
            .collect()
    }
}

impl TraceConsumer for TimingBank {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        let mut one = std::mem::take(&mut self.one);
        one.fill_one(op);
        self.consume_block(&one, program);
        self.one = one;
    }

    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        let Self { plan, families, lanes, .. } = self;
        let n = block.len();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + PHASE_CHUNK).min(n);
            plan.chunk(block, lo, hi);
            for f in families.iter_mut() {
                f.redirects.clear();
                for &(ci, sid, taken) in &plan.branch_ev {
                    if !f.predictor.observe(sid, taken) {
                        f.mispredicts += 1;
                        f.redirects.push(ci);
                    }
                }
            }
            for lane in lanes.iter_mut() {
                let TimingLane { family, stream, pos, ann_lat, core } = lane;
                // Every planned access pops exactly one annotation.
                core.load_chunk(&block.kind_codes()[lo..hi], plan, |_, _| {
                    let code = stream.code(*pos);
                    *pos += 1;
                    ann_lat[code as usize]
                });
                for &ci in &families[*family].redirects {
                    core.mark_redirect(ci);
                }
                core.run_chunk(plan, &[]);
            }
            lo = hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::CachePassSim;
    use crate::simulator::CycleSim;
    use bioperf_branch::PredictorKind;
    use bioperf_isa::here;
    use bioperf_trace::{Recorder, Tape, Tracer};

    fn spill_heavy_recording() -> bioperf_trace::Recording {
        let mut tape = Tape::new(Recorder::new());
        let xs: Vec<u64> = (0..512).map(|i| i * 3).collect();
        let mut state = 0xFEED_F00Du64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        for r in 0..400usize {
            let temps: Vec<_> =
                (0..12).map(|i| tape.int_load(here!("t"), &xs[(r * 7 + i) % 512])).collect();
            let mut acc = tape.lit();
            for v in &temps {
                acc = tape.int_op(here!("t"), &[acc, *v]);
            }
            let sel = tape.select(here!("t"), &[acc], rand_bit());
            tape.branch(here!("t"), &[sel], rand_bit());
            let f = tape.fp_load(here!("t"), &xs[r % 512]);
            let g = tape.fp_op(here!("t"), &[f]);
            tape.fp_store(here!("t"), &xs[(r * 13) % 512], g);
        }
        let (program, rec) = tape.finish();
        rec.into_recording(program)
    }

    /// Timing-axis variants of a base platform (latency triple, pipe
    /// shape), as the sweep derives them.
    fn variants(base: PlatformConfig) -> Vec<PlatformConfig> {
        let mut v = Vec::new();
        for (l1, l2, mem) in [(3, 8, 72), (2, 5, 60)] {
            for (width, rob) in [(2u32, 32usize), (6, 128)] {
                let mut cfg = base;
                cfg.int_load_latency = l1;
                cfg.fp_load_latency = l1 + 1;
                cfg.l2_latency = l2;
                cfg.memory_latency = mem;
                cfg.issue_width = width;
                cfg.fetch_width = width;
                cfg.rob_size = rob;
                v.push(cfg);
            }
        }
        v
    }

    /// Every lane of a heterogeneous bank (mixed latencies, pipe shapes,
    /// predictor families, and cache geometries) must reproduce a live
    /// `CycleSim` with the lane's geometry and timing configuration —
    /// which also pins the cache pass's annotations to the live
    /// hierarchy.
    #[test]
    fn bank_lanes_match_independent_live_cyclesims() {
        let recording = spill_heavy_recording();
        for base in PlatformConfig::all() {
            let mut alt = base;
            alt.l1 = PlatformConfig::pentium4().l1;
            let geometries = [base, alt];
            let mut pass = CachePassSim::new(
                base.logical_regs,
                geometries.iter().map(PlatformConfig::hierarchy).collect(),
            );
            recording.replay_bank(std::slice::from_mut(&mut pass));
            let streams: Vec<Arc<AnnotationStream>> =
                pass.finish_bank().into_iter().map(|(_, s)| Arc::new(s)).collect();

            let preds = [PredictorKind::Hybrid, PredictorKind::Bimodal, PredictorKind::Aliased];
            let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
            let mut expected = Vec::new();
            for (i, mut cfg) in variants(base).into_iter().enumerate() {
                let pred = preds[i % preds.len()];
                let g = i % geometries.len();
                bank.push_lane(&cfg, pred, streams[g].clone());
                cfg.l1 = geometries[g].l1;
                let mut live = CycleSim::new(cfg).with_predictor(pred);
                recording.replay_bank(std::slice::from_mut(&mut live));
                expected.push(SimResult { cache: HierarchyStats::default(), ..live.into_result() });
            }
            recording.replay_bank(std::slice::from_mut(&mut bank));
            let got = bank.into_results();
            assert_eq!(got, expected, "{}: banked timing lanes diverged", base.name);
        }
    }

    /// The per-op consume path (one-op blocks) equals the blocked path.
    #[test]
    fn per_op_path_matches_blocked_path() {
        let recording = spill_heavy_recording();
        let base = PlatformConfig::alpha21264();
        let mut pass = CachePassSim::new(base.logical_regs, vec![base.hierarchy()]);
        recording.replay_bank(std::slice::from_mut(&mut pass));
        let (_, stream) = pass.finish_bank().pop().expect("one member");
        let stream = Arc::new(stream);

        let mk = || {
            let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
            for (i, cfg) in variants(base).into_iter().enumerate() {
                let pred = [PredictorKind::Hybrid, PredictorKind::Bimodal][i % 2];
                bank.push_lane(&cfg, pred, stream.clone());
            }
            bank
        };
        let mut blocked = mk();
        recording.replay_bank(std::slice::from_mut(&mut blocked));
        let mut per_op = mk();
        let program = recording.program().clone();
        for op in recording.iter() {
            per_op.consume(&op, &program);
        }
        assert_eq!(per_op.into_results(), blocked.into_results());
    }
}
