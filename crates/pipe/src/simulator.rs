//! The trace-driven cycle simulator.
//!
//! [`PlatformBank`] is the live-replay engine: one plan pass
//! ([`crate::plan`]) and one predictor walk per (if-conversion,
//! predictor kind) family shared by every member, then per member a live
//! cache hierarchy feeding one timing core ([`crate::timing`]).
//! [`CycleSim`] is a one-member bank. Per-op [`TraceConsumer::consume`]
//! runs the same engine on one-op blocks, so there is a single execution
//! path.

use bioperf_branch::PredictorKind;
use bioperf_cache::{Hierarchy, HierarchyStats, Prefetcher};
use bioperf_isa::{MicroOp, Program};
use bioperf_metrics::MetricSet;
use bioperf_trace::{OpBlock, TraceConsumer};

use crate::config::PlatformConfig;
use crate::plan::{Plan, PHASE_CHUNK};
use crate::timing::{LatencyFill, PredictorWalk, TimingCore};
pub use crate::timing::OpTiming;

/// Results of simulating one trace on one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed trace instructions (excludes inserted spill traffic).
    pub instructions: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branches mispredicted by the platform predictor.
    pub mispredicts: u64,
    /// Spill stores inserted by the register-pressure model.
    pub spill_stores: u64,
    /// Reload loads inserted by the register-pressure model.
    pub spill_reloads: u64,
    /// Cache demand statistics.
    pub cache: HierarchyStats,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// One platform model's own stages: its live hierarchy, latency fill and
/// timing core, reading its register-file size's plan and its predictor
/// walk's redirects.
#[derive(Debug, Clone)]
struct Member {
    cfg: PlatformConfig,
    /// Index into the plan's register-file sizes.
    size: usize,
    /// Index into the bank's predictor walks.
    walk: usize,
    hierarchy: Hierarchy,
    /// The current chunk's flag column.
    flags: Vec<u8>,
    fill: LatencyFill,
    core: TimingCore,
}

/// Trace-driven cycle-level models of several platforms off one decode
/// and one plan walk.
///
/// Per chunk the bank makes one register walk through a multi-size
/// register file (the plan's spill flags and access events per distinct
/// register-file size) and one predictor walk per (if-conversion,
/// predictor kind) family; each member then runs only its own stages —
/// live hierarchy, latency fill and timing core. Every member's result
/// equals its own [`CycleSim`] replay, which is a one-member bank.
#[derive(Debug, Clone)]
pub struct PlatformBank {
    plan: Plan,
    walks: Vec<PredictorWalk>,
    members: Vec<Member>,
    /// Reused one-op block for per-op [`TraceConsumer::consume`].
    one: OpBlock,
}

impl PlatformBank {
    /// One member per platform, each with the paper's hybrid predictor
    /// (panics like [`Self::with_predictors`]).
    pub fn new(platforms: &[PlatformConfig]) -> Self {
        Self::with_predictors(platforms.iter().map(|&p| (p, PredictorKind::Hybrid)))
    }

    /// One member per (platform, predictor family) pair, in order.
    ///
    /// # Panics
    ///
    /// If `members` is empty or spans more than 32 register-file
    /// capacities.
    pub fn with_predictors(
        members: impl IntoIterator<Item = (PlatformConfig, PredictorKind)>,
    ) -> Self {
        let members: Vec<(PlatformConfig, PredictorKind)> = members.into_iter().collect();
        let regs: Vec<u32> = members.iter().map(|(cfg, _)| cfg.logical_regs).collect();
        let modes: Vec<bool> = members.iter().map(|(cfg, _)| cfg.if_conversion).collect();
        let plan = Plan::new(&regs, &modes);
        let mut walks: Vec<PredictorWalk> = Vec::new();
        let members = members
            .into_iter()
            .map(|(cfg, kind)| {
                let mode = plan.mode_index(cfg.if_conversion);
                let walk = match walks.iter().position(|w| w.kind == kind && w.mode == mode) {
                    Some(w) => w,
                    None => {
                        walks.push(PredictorWalk::new(kind, mode));
                        walks.len() - 1
                    }
                };
                Member {
                    size: plan.size_index(cfg.logical_regs),
                    walk,
                    hierarchy: cfg.hierarchy(),
                    flags: Vec::new(),
                    fill: LatencyFill::new(&cfg),
                    core: TimingCore::new(&cfg),
                    cfg,
                }
            })
            .collect();
        Self { plan, walks, members, one: OpBlock::default() }
    }

    /// Switches on event-metric collection in every member (see
    /// [`CycleSim::with_metrics`]).
    pub fn with_metrics(mut self) -> Self {
        for m in &mut self.members {
            m.core.metrics_on = true;
        }
        self.map_hierarchies(Hierarchy::with_metrics)
    }

    fn map_hierarchies(mut self, f: impl Fn(Hierarchy) -> Hierarchy) -> Self {
        self.members = self
            .members
            .into_iter()
            .map(|mut m| {
                m.hierarchy = f(m.hierarchy);
                m
            })
            .collect();
        self
    }

    /// Members in the bank.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the bank has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Predictor walks per chunk: one per distinct (if-conversion,
    /// predictor kind) family.
    pub fn predictor_walks(&self) -> usize {
        self.walks.len()
    }

    /// Distinct register-file capacities the one register walk plans.
    pub fn register_sizes(&self) -> usize {
        self.plan.sizes.len()
    }

    /// Member `i`'s running result.
    pub fn result(&self, i: usize) -> SimResult {
        let m = &self.members[i];
        let size = &self.plan.sizes[m.size];
        let walk = &self.walks[m.walk];
        SimResult {
            cycles: m.core.cycles(),
            instructions: self.plan.instructions,
            branches: self.plan.modes[walk.mode].branches,
            mispredicts: walk.mispredicts,
            spill_stores: size.spill_stores,
            spill_reloads: size.spill_reloads,
            cache: *m.hierarchy.stats(),
        }
    }

    /// Every member's result, in construction order.
    pub fn results(&self) -> Vec<SimResult> {
        (0..self.len()).map(|i| self.result(i)).collect()
    }

    /// Takes member `i`'s event metrics — pipeline events under `pipe/`,
    /// cache events under `cache/` — leaving collection in its current
    /// mode. Empty when collection is off.
    pub fn take_metrics(&mut self, i: usize) -> MetricSet {
        let m = &mut self.members[i];
        let mut out = MetricSet::new();
        out.merge_prefixed("pipe/", &m.core.take_metrics());
        out.merge_prefixed("cache/", &m.hierarchy.take_metrics());
        out
    }
}

impl TraceConsumer for PlatformBank {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        let mut one = std::mem::take(&mut self.one);
        one.fill_one(op);
        self.consume_block(&one, program);
        self.one = one;
    }

    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        let Self { plan, walks, members, .. } = self;
        let n = block.len();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + PHASE_CHUNK).min(n);
            plan.chunk(block, lo, hi);
            for walk in walks.iter_mut() {
                walk.walk(plan);
            }
            for m in members.iter_mut() {
                let size = &plan.sizes[m.size];
                let walk = &walks[m.walk];
                // The hierarchy and the predictor are independent, so all
                // of the chunk's accesses and then all of its outcomes keep
                // each structure's exact update order.
                let Member { hierarchy, fill, .. } = m;
                fill.load(&block.kind_codes()[lo..hi], size, &plan.modes[walk.mode], |addr, kind| {
                    hierarchy.access(addr, kind)
                });
                walk.flags(&size.flags, &mut m.flags);
                m.core.run_chunk(plan, &m.flags, &m.fill, &block.ops()[lo..hi]);
            }
            lo = hi;
        }
    }
}

/// Trace-driven cycle-level model of one platform: a one-member
/// [`PlatformBank`].
///
/// Plug it into a [`Tape`](bioperf_trace::Tape) (or feed it ops directly
/// via [`TraceConsumer`]) and read the final [`SimResult`].
#[derive(Debug, Clone)]
pub struct CycleSim {
    bank: PlatformBank,
}

impl CycleSim {
    /// Creates a simulator for one platform.
    pub fn new(cfg: PlatformConfig) -> Self {
        Self { bank: PlatformBank::new(&[cfg]) }
    }

    /// Switches on event-metric collection: per-op dispatch-to-complete
    /// latency histograms in the pipeline plus the cache hierarchy's
    /// service counters. Off by default; the timing core then runs a
    /// loop with no instrumentation in it (the metrics layer's
    /// zero-cost-when-off contract).
    pub fn with_metrics(self) -> Self {
        Self { bank: self.bank.with_metrics() }
    }

    /// Takes the collected event metrics — pipeline events under `pipe/`,
    /// cache events under `cache/` — leaving collection in its current
    /// mode. Empty when collection is off.
    pub fn take_metrics(&mut self) -> MetricSet {
        self.bank.take_metrics(0)
    }

    /// Swaps in a branch predictor of the given family. The default is
    /// the paper's idealized per-static-branch hybrid
    /// ([`PredictorKind::Hybrid`]); design-space sweep cells select other
    /// families per configuration.
    pub fn with_predictor(mut self, kind: PredictorKind) -> Self {
        self.bank.walks[0] = PredictorWalk::new(kind, 0);
        self
    }

    /// Installs a hardware prefetcher in the cache hierarchy. The default
    /// is [`Prefetcher::None`] — the paper's baseline machines do not
    /// prefetch.
    pub fn with_prefetcher(self, policy: Prefetcher) -> Self {
        Self { bank: self.bank.map_hierarchies(|h| h.with_prefetcher(policy)) }
    }

    /// Enables per-op timeline recording (capped at 65 536 ops). Use for
    /// short pedagogical traces like the Figure 3/4 walkthrough.
    pub fn with_timeline(mut self) -> Self {
        self.bank.members[0].core.timeline = Some(Vec::new());
        self
    }

    /// The recorded timeline, if enabled.
    pub fn timeline(&self) -> Option<&[OpTiming]> {
        self.bank.members[0].core.timeline.as_deref()
    }

    /// The platform being simulated.
    pub fn config(&self) -> &PlatformConfig {
        &self.bank.members[0].cfg
    }

    /// Finalizes and returns the simulation result.
    pub fn into_result(self) -> SimResult {
        self.result()
    }

    /// Running result snapshot (cheap; caches copied).
    pub fn result(&self) -> SimResult {
        self.bank.result(0)
    }
}

impl TraceConsumer for CycleSim {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        self.bank.consume(op, program);
    }

    fn consume_block(&mut self, block: &OpBlock, program: &Program) {
        self.bank.consume_block(block, program);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioperf_isa::here;
    use bioperf_trace::{Tape, Tracer};

    fn sim(cfg: PlatformConfig, f: impl FnOnce(&mut Tape<CycleSim>)) -> SimResult {
        let mut tape = Tape::new(CycleSim::new(cfg));
        f(&mut tape);
        let (_, sim) = tape.finish();
        sim.into_result()
    }

    /// A dependent chain of ALU ops costs ~1 cycle each; independent ops
    /// pack `issue_width` per cycle.
    #[test]
    fn dependent_chain_vs_independent_ops() {
        let n = 10_000;
        let dep = sim(PlatformConfig::alpha21264(), |t| {
            let mut v = t.lit();
            for _ in 0..n {
                v = t.int_op(here!("chain"), &[v]);
            }
        });
        let indep = sim(PlatformConfig::alpha21264(), |t| {
            let a = t.lit();
            for _ in 0..n {
                t.int_op(here!("indep"), &[a]);
            }
        });
        assert!(dep.cycles > (n as u64) * 9 / 10, "chain must serialize: {}", dep.cycles);
        assert!(
            indep.cycles < dep.cycles / 2,
            "independent ops must overlap: {} vs {}",
            indep.cycles,
            dep.cycles
        );
    }

    /// An L1-resident pointer chase costs the load-to-use latency per hop.
    #[test]
    fn load_latency_shows_on_dependent_loads() {
        let cell = 42u64;
        let n = 5_000u64;
        let alpha = sim(PlatformConfig::alpha21264(), |t| {
            let mut v = t.int_load(here!("chase"), &cell);
            for _ in 0..n {
                v = t.int_load_via(here!("chase"), &cell, v);
            }
        });
        // 3 cycles per hop on Alpha.
        assert!(alpha.cycles > n * 5 / 2, "expected ~3 cycles/hop, got {} total", alpha.cycles);

        let ipf = sim(PlatformConfig::itanium2(), |t| {
            let mut v = t.int_load(here!("chase"), &cell);
            for _ in 0..n {
                v = t.int_load_via(here!("chase"), &cell, v);
            }
        });
        assert!(ipf.cycles < alpha.cycles, "1-cycle L1 must beat 3-cycle L1");
    }

    /// Random branches get mispredicted and cost the redirect penalty.
    #[test]
    fn mispredicted_branches_dominate_random_control_flow() {
        // L1-resident working set so branch effects are not masked by
        // memory misses; LCG outcomes so the history predictor cannot
        // learn the pattern.
        let xs: Vec<u64> = (0..64).collect();
        let mut state = 0x1234_5678u64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        let predictable = sim(PlatformConfig::alpha21264(), |t| {
            for i in 0..4000usize {
                let v = t.int_load(here!("pred"), &xs[i % 64]);
                t.branch(here!("pred"), &[v], true);
            }
        });
        let random = sim(PlatformConfig::alpha21264(), |t| {
            for i in 0..4000usize {
                let v = t.int_load(here!("rand"), &xs[i % 64]);
                t.branch(here!("rand"), &[v], rand_bit());
            }
        });
        assert!(
            random.cycles > predictable.cycles * 2,
            "random {} vs predictable {}",
            random.cycles,
            predictable.cycles
        );
        assert!(random.mispredict_rate() > 0.3);
        assert!(predictable.mispredict_rate() < 0.02);
    }

    /// The paper's central mechanism: a load feeding a mispredicted
    /// branch delays its resolution, inflating the effective penalty.
    /// Hoisting the load (making the branch input ready earlier) must
    /// recover cycles even though the branch stays unpredictable.
    #[test]
    fn load_to_branch_latency_adds_to_mispredict_cost() {
        let xs: Vec<u64> = (0..4000).collect();
        // Baseline: branch condition comes straight from a fresh load.
        let tight = sim(PlatformConfig::alpha21264(), |t| {
            for (i, x) in xs.iter().enumerate() {
                let v = t.int_load(here!("tight"), x);
                let c = t.int_op(here!("tight"), &[v]);
                t.branch(here!("tight"), &[c], i % 3 == 0);
            }
        });
        // Hoisted: the load for the *next* branch issues one iteration
        // early, so the compare's input is ready when the branch arrives.
        let hoisted = sim(PlatformConfig::alpha21264(), |t| {
            let mut v = t.int_load(here!("hoist"), &xs[0]);
            for (i, _) in xs.iter().enumerate().take(xs.len() - 1) {
                let next = t.int_load(here!("hoist"), &xs[i + 1]);
                let c = t.int_op(here!("hoist"), &[v]);
                t.branch(here!("hoist"), &[c], i % 3 == 0);
                v = next;
            }
        });
        assert!(
            hoisted.cycles < tight.cycles,
            "hoisting must help: {} vs {}",
            hoisted.cycles,
            tight.cycles
        );
    }

    /// Register pressure: with only 8 logical registers, keeping many
    /// values live inserts spill traffic; with 128 it does not.
    #[test]
    fn register_pressure_spills_on_pentium4_only() {
        let work = |t: &mut Tape<CycleSim>| {
            let xs = vec![7u64; 64];
            for _ in 0..200 {
                // 16 simultaneously-live temporaries.
                let temps: Vec<_> = (0..16).map(|i| t.int_load(here!("temps"), &xs[i])).collect();
                let mut acc = t.lit();
                for v in &temps {
                    acc = t.int_op(here!("temps"), &[acc, *v]);
                }
            }
        };
        let p4 = sim(PlatformConfig::pentium4(), work);
        let ipf = sim(PlatformConfig::itanium2(), work);
        assert!(p4.spill_reloads > 0, "P4 must spill");
        assert_eq!(ipf.spill_reloads, 0, "128 registers never spill here");
    }

    /// In-order issue serializes behind a stalled elder; out-of-order
    /// does not.
    #[test]
    fn in_order_exposes_stalls_more() {
        let work = |t: &mut Tape<CycleSim>| {
            let cell = 3u64;
            for _ in 0..2000 {
                let v = t.int_load(here!("io"), &cell);
                let w = t.int_op(here!("io"), &[v]); // dependent: waits for load
                let _ = t.int_op(here!("io"), &[w]);
                // Independent work that OOO can slide under the load.
                let a = t.lit();
                for _ in 0..3 {
                    t.int_op(here!("io"), &[a]);
                }
            }
        };
        let mut ooo_cfg = PlatformConfig::alpha21264();
        ooo_cfg.int_load_latency = 3;
        let ooo = sim(ooo_cfg, work);
        let mut io_cfg = PlatformConfig::alpha21264();
        io_cfg.in_order = true;
        let io = sim(io_cfg, work);
        assert!(io.cycles >= ooo.cycles, "in-order {} vs ooo {}", io.cycles, ooo.cycles);
    }

    /// Enough live temporaries to force P4 spills, plus branches,
    /// selects, FP traffic, and strided loads.
    fn mixed_recording() -> (Program, bioperf_trace::Recording) {
        use bioperf_trace::Recorder;
        let mut tape = Tape::new(Recorder::new());
        let xs: Vec<u64> = (0..512).map(|i| i * 3).collect();
        let mut state = 0xDEAD_BEEFu64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        for r in 0..400usize {
            let temps: Vec<_> = (0..12).map(|i| tape.int_load(here!("t"), &xs[(r * 7 + i) % 512])).collect();
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
        let recording = rec.into_recording(program.clone());
        (program, recording)
    }

    /// Block size must never change a result: per-op `consume` (one-op
    /// blocks built by `fill_one`) and decoded blocks of odd sizes, whose
    /// edges fall mid-spill-sequence, must leave identical state —
    /// including spill counters and cache stats, on both in-order and
    /// out-of-order cores.
    #[test]
    fn blocked_replay_matches_per_op_replay() {
        let (program, recording) = mixed_recording();
        for cfg in PlatformConfig::all() {
            let mut per_op = CycleSim::new(cfg);
            for op in recording.iter() {
                per_op.consume(&op, &program);
            }
            let reference = per_op.into_result();
            for block_ops in [1usize, 3, 64, 4096] {
                let mut blocked = CycleSim::new(cfg);
                recording.replay_bank_blocks(std::slice::from_mut(&mut blocked), block_ops);
                assert_eq!(
                    blocked.into_result(),
                    reference,
                    "{} diverged at {}-op blocks",
                    cfg.name,
                    block_ops
                );
            }
        }
    }

    /// Sharing the plan and the predictor walks never changes a member:
    /// every member of a bank — the four presets; duplicate platforms;
    /// mixed predictor kinds and if-conversion modes over every register
    /// size — equals its own `CycleSim` replay, results and event series,
    /// at every block size and through per-op `consume`, with metrics
    /// off (the uninstrumented core loop) and on.
    #[test]
    fn platform_bank_members_match_independent_cyclesims() {
        let (program, recording) = mixed_recording();
        let presets = PlatformConfig::all();
        let kinds = [PredictorKind::Hybrid, PredictorKind::Bimodal, PredictorKind::Aliased];
        let hybrid = |p: &PlatformConfig| (*p, PredictorKind::Hybrid);
        let mut mixed: Vec<(PlatformConfig, PredictorKind)> = Vec::new();
        for (i, p) in presets.iter().enumerate() {
            let mut flipped = *p;
            flipped.if_conversion = !p.if_conversion;
            mixed.push((*p, kinds[i % 3]));
            mixed.push((flipped, kinds[(i + 1) % 3]));
        }
        let banks = [
            ("presets", presets.iter().map(hybrid).collect(), 3, 2),
            ("duplicates", [0, 2, 0, 2, 2].iter().map(|&i| hybrid(&presets[i])).collect(), 2, 2),
            ("mixed", mixed, 3, 4),
        ];
        for (name, members, sizes, walks) in banks {
            for metrics in [false, true] {
                let solo: Vec<(SimResult, MetricSet)> = members
                    .iter()
                    .map(|&(cfg, kind)| {
                        let sim = CycleSim::new(cfg).with_predictor(kind);
                        let mut sim = if metrics { sim.with_metrics() } else { sim };
                        recording.replay_bank(std::slice::from_mut(&mut sim));
                        (sim.result(), sim.take_metrics())
                    })
                    .collect();
                let new_bank = || {
                    let bank = PlatformBank::with_predictors(members.iter().copied());
                    if metrics { bank.with_metrics() } else { bank }
                };
                let check = |mut bank: PlatformBank, path: &str| {
                    assert_eq!((bank.register_sizes(), bank.predictor_walks()), (sizes, walks), "{name}");
                    for (i, expected) in solo.iter().enumerate() {
                        let got = (bank.result(i), bank.take_metrics(i));
                        assert_eq!(&got, expected, "{name} member {i} ({path}, metrics {metrics})");
                    }
                };
                for block_ops in [1usize, 3, 64, 4096] {
                    let mut bank = new_bank();
                    recording.replay_bank_blocks(std::slice::from_mut(&mut bank), block_ops);
                    check(bank, &format!("{block_ops}-op blocks"));
                }
                let mut bank = new_bank();
                for op in recording.iter() {
                    bank.consume(&op, &program);
                }
                check(bank, "per-op");
            }
        }
    }

    /// The factored engine: a cache pass's annotation stream feeding a
    /// one-lane `TimingBank` must reproduce a live `CycleSim` exactly —
    /// cycles and counters from the bank, hierarchy stats from the pass —
    /// blocked and per-op, on every platform.
    #[test]
    fn annotated_replay_matches_live_hierarchy_replay() {
        use crate::annotate::CachePassSim;
        use crate::timing_bank::TimingBank;
        use bioperf_trace::{Recorder, TraceConsumer};
        let mut tape = Tape::new(Recorder::new());
        let xs: Vec<u64> = (0..512).map(|i| i * 5).collect();
        let mut state = 0xC0FF_EE11u64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        for r in 0..400usize {
            let temps: Vec<_> =
                (0..12).map(|i| tape.int_load(here!("a"), &xs[(r * 11 + i) % 512])).collect();
            let mut acc = tape.lit();
            for v in &temps {
                acc = tape.int_op(here!("a"), &[acc, *v]);
            }
            let sel = tape.select(here!("a"), &[acc], rand_bit());
            tape.branch(here!("a"), &[sel], rand_bit());
            let f = tape.fp_load(here!("a"), &xs[r % 512]);
            let g = tape.fp_op(here!("a"), &[f]);
            tape.fp_store(here!("a"), &xs[(r * 3) % 512], g);
        }
        let (program, rec) = tape.finish();
        let recording = rec.into_recording(program.clone());
        for cfg in PlatformConfig::all() {
            let mut live = CycleSim::new(cfg);
            recording.replay_bank(std::slice::from_mut(&mut live));
            let reference = live.into_result();

            let mut pass = CachePassSim::new(cfg.logical_regs, vec![cfg.hierarchy()]);
            recording.replay_bank(std::slice::from_mut(&mut pass));
            let (stats, stream) = pass.finish_bank().pop().expect("one member");
            assert_eq!(stats, reference.cache, "{} cache pass stats", cfg.name);
            let stream = std::sync::Arc::new(stream);
            let bank = || {
                let mut bank = TimingBank::new(cfg.logical_regs, cfg.if_conversion);
                bank.push_lane(&cfg, PredictorKind::Hybrid, stream.clone());
                bank
            };

            let mut blocked = bank();
            recording.replay_bank(std::slice::from_mut(&mut blocked));
            let mut per_op = bank();
            for op in recording.iter() {
                per_op.consume(&op, &program);
            }
            for (path, lane) in [("blocked", blocked), ("per-op", per_op)] {
                let got = SimResult { cache: stats, ..lane.into_results()[0] };
                assert_eq!(got, reference, "{} {path} annotated lane", cfg.name);
            }
        }
    }

    #[test]
    fn empty_trace_is_zero_cycles() {
        let r = sim(PlatformConfig::alpha21264(), |_| {});
        assert_eq!(r.cycles, 0);
        assert_eq!(r.instructions, 0);
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn event_metrics_do_not_perturb_timing() {
        let work = |t: &mut Tape<CycleSim>| {
            let cell = 9u64;
            for i in 0..2000 {
                let v = t.int_load(here!("m"), &cell);
                let c = t.int_op(here!("m"), &[v]);
                t.branch(here!("m"), &[c], i % 7 == 0);
            }
        };
        let plain = sim(PlatformConfig::alpha21264(), work);
        let mut tape = Tape::new(CycleSim::new(PlatformConfig::alpha21264()).with_metrics());
        work(&mut tape);
        let (_, mut instrumented) = tape.finish();
        let m = instrumented.take_metrics();
        let r = instrumented.into_result();
        assert_eq!(r, plain, "metrics collection must not change the simulation");
        let lat = m.histogram("pipe/op_latency_cycles").expect("op latency histogram");
        assert_eq!(lat.count(), r.instructions);
        assert_eq!(m.counter("pipe/mispredict_redirects"), Some(r.mispredicts));
        let serviced = m.counter("cache/serviced_l1").unwrap_or(0)
            + m.counter("cache/serviced_l2").unwrap_or(0)
            + m.counter("cache/serviced_memory").unwrap_or(0);
        assert_eq!(serviced, r.cache.l1.load_accesses + r.cache.l1.store_accesses);
        // And a plain simulator yields no metrics at all.
        let mut off = CycleSim::new(PlatformConfig::alpha21264());
        assert!(off.take_metrics().is_empty());
    }

}
