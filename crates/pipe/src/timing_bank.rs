//! The factored sweep's timing pass: one trace decode drives a bank of
//! annotated timing configurations through one shared plan.
//!
//! A sweep's timing cells differ only in what the timing core sees: the
//! register/spill plan depends only on the trace and the platform's
//! logical register count, and predictor evolution only on the trace and
//! the predictor family — both shared by construction across a sweep's
//! timing axis (every cell keeps the base platform's register file and
//! if-conversion mode). Latencies depend only on the annotation stream
//! and the latency table, never on pipe shape or predictor. So per chunk
//! [`TimingBank`] runs the plan pass once, each distinct predictor family
//! once (building that family's flag column), and the annotation-to-
//! latency fill once per *fill group* — lanes with the same stream and
//! the same latency table — and per lane only the timing core, which
//! reads its family's flags and its group's fill in place. Every
//! lane's result equals a live `CycleSim` replay with the lane's cache
//! geometry and timing configuration (`SimResult::cache` aside) — pinned
//! by this module's tests, the conformance fuzzer, and the sweep's
//! factored-vs-oracle self-check.

use std::sync::Arc;

use bioperf_branch::PredictorKind;
use bioperf_cache::{AnnotationStream, HierarchyStats, LatencyConfig};
use bioperf_isa::{MicroOp, Program};
use bioperf_trace::{inject, OpBlock, TraceConsumer};

use crate::config::PlatformConfig;
use crate::plan::{Plan, PHASE_CHUNK};
use crate::simulator::SimResult;
use crate::timing::{LatencyFill, PredictorWalk, TimingCore};

/// One timing configuration: its predictor family, its fill group, and
/// its timing core.
#[derive(Debug, Clone)]
struct TimingLane {
    /// Index into the bank's predictor families.
    family: usize,
    /// Index into the bank's fill groups.
    group: usize,
    core: TimingCore,
}

/// A predictor family shared by every lane that uses it.
#[derive(Debug)]
struct Family {
    walk: PredictorWalk,
    /// The current chunk's flag column: plan flags plus this family's
    /// redirect bits.
    flags: Vec<u8>,
}

/// One annotation cursor and latency table, filled once per chunk for
/// every lane that shares both.
#[derive(Debug, Clone)]
struct FillGroup {
    stream: Arc<AnnotationStream>,
    pos: usize,
    /// Total access latency by 2-bit level code (L1 / L2 / memory; the
    /// fourth entry aliases L1 so indexing a raw code never
    /// bounds-checks). An exhausted cursor reads the benign L1 code, so
    /// a skewed replay diverges instead of crashing.
    ann_lat: [u64; 4],
    fill: LatencyFill,
}

impl FillGroup {
    /// Whether a lane with `other`'s stream and table can read this
    /// group's fill: the same stream (the same `Arc`, or equal
    /// contents), cursor start, level latencies and latency table.
    fn shares_fill(&self, other: &Self) -> bool {
        // An armed `timing-fill-overshare` fault keys the fill on the
        // stream alone, so lanes with different latency tables share.
        let same_table = (self.ann_lat == other.ann_lat && self.fill.same_table(&other.fill))
            || inject::active(inject::FILL_OVERSHARE);
        same_table
            && self.pos == other.pos
            && (Arc::ptr_eq(&self.stream, &other.stream) || self.stream == other.stream)
    }
}

/// Replays a trace once through a bank of annotated timing
/// configurations, sharing the register/spill plan across every lane,
/// each predictor family across its lanes, and each latency fill across
/// its fill group.
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
    groups: Vec<FillGroup>,
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
            plan: Plan::new(&[logical_regs], &[if_conversion]),
            families: Vec::new(),
            groups: Vec::new(),
            lanes: Vec::new(),
            one: OpBlock::default(),
        }
    }

    /// Adds one timing configuration: a platform shape, a predictor
    /// family, and its precomputed miss-level stream. The lane joins the
    /// first fill group with the same stream and latency table, or
    /// starts a new one.
    pub fn push_lane(
        &mut self,
        cfg: &PlatformConfig,
        pred: PredictorKind,
        stream: Arc<AnnotationStream>,
    ) {
        assert_eq!(cfg.logical_regs, self.logical_regs, "lanes must share the register file");
        assert_eq!(cfg.if_conversion, self.if_conversion, "lanes must share if-conversion");
        let family = match self.families.iter().position(|f| f.walk.kind == pred) {
            Some(f) => f,
            None => {
                self.families.push(Family { walk: PredictorWalk::new(pred, 0), flags: Vec::new() });
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
        let pos = inject::active(inject::ANN_SKEW) as usize;
        let candidate = FillGroup {
            stream,
            pos,
            ann_lat: [
                lat.total(false, false),
                lat.total(true, false),
                lat.total(true, true),
                lat.total(false, false),
            ],
            fill: LatencyFill::new(cfg),
        };
        let group = match self.groups.iter().position(|g| g.shares_fill(&candidate)) {
            Some(g) => g,
            None => {
                self.groups.push(candidate);
                self.groups.len() - 1
            }
        };
        self.lanes.push(TimingLane { family, group, core: TimingCore::new(cfg) });
    }

    /// Lanes pushed so far.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Distinct latency fills per chunk: lanes sharing an annotation
    /// stream and a latency table share one.
    pub fn fill_groups(&self) -> usize {
        self.groups.len()
    }

    /// Whether the bank has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Final per-lane results, in push order. `SimResult::cache` is
    /// zeroed: the cache pass that produced the streams owns the
    /// hierarchy stats.
    pub fn into_results(self) -> Vec<SimResult> {
        let size = &self.plan.sizes[0];
        self.lanes
            .iter()
            .map(|lane| SimResult {
                cycles: lane.core.cycles(),
                instructions: self.plan.instructions,
                branches: self.plan.modes[0].branches,
                mispredicts: self.families[lane.family].walk.mispredicts,
                spill_stores: size.spill_stores,
                spill_reloads: size.spill_reloads,
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
        let Self { plan, families, groups, lanes, .. } = self;
        let n = block.len();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + PHASE_CHUNK).min(n);
            plan.chunk(block, lo, hi);
            for f in families.iter_mut() {
                f.walk.walk(plan);
                f.walk.flags(&plan.sizes[0].flags, &mut f.flags);
            }
            for g in groups.iter_mut() {
                let FillGroup { stream, pos, ann_lat, fill } = g;
                // Every planned access pops exactly one annotation.
                fill.load(&block.kind_codes()[lo..hi], &plan.sizes[0], &plan.modes[0], |_, _| {
                    let code = stream.code(*pos);
                    *pos += 1;
                    ann_lat[code as usize]
                });
            }
            for lane in lanes.iter_mut() {
                let flags = &families[lane.family].flags;
                lane.core.run_chunk(plan, flags, &groups[lane.group].fill, &[]);
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

    /// One timing-axis variant of a base platform (latency triple, pipe
    /// shape), as the sweep derives it.
    fn variant(
        base: PlatformConfig,
        (l1, l2, mem): (u64, u64, u64),
        (width, rob): (u32, usize),
    ) -> PlatformConfig {
        let mut cfg = base;
        cfg.int_load_latency = l1;
        cfg.fp_load_latency = l1 + 1;
        cfg.l2_latency = l2;
        cfg.memory_latency = mem;
        cfg.issue_width = width;
        cfg.fetch_width = width;
        cfg.rob_size = rob;
        cfg
    }

    fn variants(base: PlatformConfig) -> Vec<PlatformConfig> {
        let mut v = Vec::new();
        for lat in [(3, 8, 72), (2, 5, 60)] {
            for pipe in [(2u32, 32usize), (6, 128)] {
                v.push(variant(base, lat, pipe));
            }
        }
        v
    }

    /// The `sweep-timing` benchmark's 24 timing cells in grid order
    /// (latency outermost, then pipe shape, then predictor).
    fn sweep_timing_lanes(base: PlatformConfig) -> Vec<(PlatformConfig, PredictorKind)> {
        let mut v = Vec::new();
        for lat in [(1, 3, 40), (3, 5, 72), (4, 8, 100)] {
            for pipe in [(2u32, 32usize), (4, 80), (6, 128), (8, 192)] {
                for pred in [PredictorKind::Hybrid, PredictorKind::Bimodal] {
                    v.push((variant(base, lat, pipe), pred));
                }
            }
        }
        v
    }

    /// The miss-level stream of `cfg`'s hierarchy over `recording`.
    fn annotations(
        recording: &bioperf_trace::Recording,
        cfg: &PlatformConfig,
    ) -> Arc<AnnotationStream> {
        let mut pass = CachePassSim::new(cfg.logical_regs, vec![cfg.hierarchy()]);
        recording.replay_bank(std::slice::from_mut(&mut pass));
        Arc::new(pass.finish_bank().pop().expect("one member").1)
    }

    /// A live `CycleSim` replay of `cfg` with predictor `pred`, with the
    /// cache stats a bank lane leaves zeroed.
    fn live(
        recording: &bioperf_trace::Recording,
        cfg: PlatformConfig,
        pred: PredictorKind,
    ) -> SimResult {
        let mut sim = CycleSim::new(cfg).with_predictor(pred);
        recording.replay_bank(std::slice::from_mut(&mut sim));
        SimResult { cache: HierarchyStats::default(), ..sim.into_result() }
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
                expected.push(live(&recording, cfg, pred));
            }
            recording.replay_bank(std::slice::from_mut(&mut bank));
            let got = bank.into_results();
            assert_eq!(got, expected, "{}: banked timing lanes diverged", base.name);
        }
    }

    /// Lanes that share one fill — the same stream, or an equal stream
    /// in its own `Arc`, under the same latency table — but differ in
    /// pipe shape and predictor, next to a lane that differs only in its
    /// latency triple: every lane must still equal its live `CycleSim`.
    #[test]
    fn lanes_sharing_a_fill_match_live_cyclesims() {
        let recording = spill_heavy_recording();
        for base in PlatformConfig::all() {
            let stream = annotations(&recording, &base);
            let twin = Arc::new(AnnotationStream::clone(&stream));
            let lat = (base.int_load_latency, base.l2_latency, base.memory_latency);
            let slower = (lat.0 + 1, lat.1, lat.2);
            let lanes = [
                (variant(base, lat, (2, 32)), PredictorKind::Hybrid, &stream),
                (variant(base, lat, (6, 128)), PredictorKind::Bimodal, &stream),
                (variant(base, lat, (4, 80)), PredictorKind::Aliased, &twin),
                (variant(base, slower, (2, 32)), PredictorKind::Hybrid, &stream),
            ];
            let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
            for (cfg, pred, stream) in &lanes {
                bank.push_lane(cfg, *pred, Arc::clone(stream));
            }
            assert_eq!(bank.fill_groups(), 2, "{}: three lanes share one fill", base.name);
            recording.replay_bank(std::slice::from_mut(&mut bank));
            let expected: Vec<SimResult> =
                lanes.iter().map(|&(cfg, pred, _)| live(&recording, cfg, pred)).collect();
            assert_eq!(bank.into_results(), expected, "{}: shared-fill lanes diverged", base.name);
        }
    }

    /// How lanes are split into banks never changes a lane's result: one
    /// bank, one-lane banks, and a shuffled uneven split agree.
    #[test]
    fn results_do_not_depend_on_bank_partition() {
        let recording = spill_heavy_recording();
        let base = PlatformConfig::pentium4();
        let mut alt = base;
        alt.l1 = PlatformConfig::alpha21264().l1;
        let streams = [annotations(&recording, &base), annotations(&recording, &alt)];
        let lanes = sweep_timing_lanes(base);
        let run = |idx: &[usize]| {
            let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
            for &i in idx {
                bank.push_lane(&lanes[i].0, lanes[i].1, Arc::clone(&streams[i % 2]));
            }
            recording.replay_bank(std::slice::from_mut(&mut bank));
            bank.into_results()
        };
        let all: Vec<usize> = (0..lanes.len()).collect();
        let whole = run(&all);
        let singles: Vec<SimResult> = all.iter().flat_map(|&i| run(&[i])).collect();
        assert_eq!(singles, whole, "one-lane banks diverged from one bank");

        let mut order = all.clone();
        let mut state = 0x5EED_u64;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut split = vec![None; lanes.len()];
        for part in [&order[..5], &order[5..16], &order[16..]] {
            for (&i, r) in part.iter().zip(run(part)) {
                split[i] = Some(r);
            }
        }
        let split: Vec<SimResult> = split.into_iter().map(|r| r.expect("every lane ran")).collect();
        assert_eq!(split, whole, "a shuffled split diverged from one bank");
    }

    /// The sweep-timing grid's 24 lanes on one stream need one fill per
    /// latency triple, not one per lane.
    #[test]
    fn sweep_timing_lanes_form_one_fill_group_per_latency_triple() {
        let recording = spill_heavy_recording();
        let base = PlatformConfig::alpha21264();
        let stream = annotations(&recording, &base);
        let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
        for (cfg, pred) in sweep_timing_lanes(base) {
            bank.push_lane(&cfg, pred, Arc::clone(&stream));
        }
        assert_eq!(bank.len(), 24);
        assert_eq!(bank.fill_groups(), 3);
    }

    /// The per-op consume path (one-op blocks) equals the blocked path.
    #[test]
    fn per_op_path_matches_blocked_path() {
        let recording = spill_heavy_recording();
        let base = PlatformConfig::alpha21264();
        let stream = annotations(&recording, &base);

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
