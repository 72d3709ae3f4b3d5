//! The trace-driven replay engine.
//!
//! [`PlatformBank`] is the one replay engine. Per chunk it makes one
//! plan pass (the `plan` module), one predictor walk per (if-conversion,
//! predictor kind) family, one flag column per (walk, register-file
//! size) pair and one latency fill per *fill group*; each member then
//! runs only its timing core (the `timing` module). A fill group's access
//! latencies come either from a live cache hierarchy — every live member
//! has a group of its own — or from a cache pass's miss-level
//! annotations, shared by every member with the same stream and latency
//! table. [`CycleSim`] is a one-member live bank; [`TimingBank`], the
//! factored sweep's timing pass, is a bank of annotated members over one
//! register file and if-conversion mode. Per-op
//! [`TraceConsumer::consume`] runs the same engine on one-op blocks, so
//! there is a single execution path.

use std::sync::Arc;

use bioperf_branch::PredictorKind;
use bioperf_cache::{AnnotationStream, Hierarchy, HierarchyStats, LatencyConfig, Prefetcher};
use bioperf_isa::{MicroOp, Program};
use bioperf_metrics::MetricSet;
use bioperf_trace::{inject, OpBlock, TraceConsumer};

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

/// Where a fill group's access latencies come from.
#[derive(Debug, Clone)]
enum Source {
    /// A live cache hierarchy, simulated access by access.
    Live(Box<Hierarchy>),
    /// A cache pass's miss-level stream, read from cursor `pos` on.
    Annotated {
        stream: Arc<AnnotationStream>,
        pos: usize,
        /// Total access latency by 2-bit level code (L1 / L2 / memory;
        /// the fourth entry aliases L1 so indexing a raw code never
        /// bounds-checks). An exhausted cursor reads the benign L1 code,
        /// so a skewed replay diverges instead of crashing.
        lat: [u64; 4],
    },
}

impl Source {
    /// `stream` read through `cfg`'s level latencies.
    fn annotated(cfg: &PlatformConfig, stream: Arc<AnnotationStream>) -> Self {
        let lat = LatencyConfig { l1: cfg.int_load_latency, l2: cfg.l2_latency, memory: cfg.memory_latency };
        // An armed `factored-annotation-skew` fault starts the cursor one
        // annotation in — the off-by-one the conformance fuzzer and the
        // sweep self-check must catch.
        let pos = inject::active(inject::ANN_SKEW) as usize;
        let hit = lat.total(false, false);
        Source::Annotated { stream, pos, lat: [hit, lat.total(true, false), lat.total(true, true), hit] }
    }
}

/// One latency fill per chunk, read by every member of the group.
#[derive(Debug, Clone)]
struct FillGroup {
    source: Source,
    /// Index into the plan's register-file sizes (access events).
    size: usize,
    /// Index into the plan's if-conversion modes (resolving branches).
    mode: usize,
    fill: LatencyFill,
}

impl FillGroup {
    /// Whether a member with `other`'s source can read this group's
    /// fill: both annotated, with the same stream (the same `Arc`, or
    /// equal contents), cursor start, level latencies, latency table,
    /// register-file size and if-conversion mode. A live hierarchy
    /// belongs to its member alone.
    fn shares_fill(&self, other: &Self) -> bool {
        let (
            Source::Annotated { stream, pos, lat },
            Source::Annotated { stream: other_stream, pos: other_pos, lat: other_lat },
        ) = (&self.source, &other.source)
        else {
            return false;
        };
        // An armed `timing-fill-overshare` fault keys the fill on the
        // stream alone, so members with different latency tables share.
        let same_table = (lat == other_lat && self.fill.same_table(&other.fill))
            || inject::active(inject::FILL_OVERSHARE);
        same_table
            && (self.size, self.mode, pos) == (other.size, other.mode, other_pos)
            && (Arc::ptr_eq(stream, other_stream) || stream == other_stream)
    }

    /// Fills the chunk's latencies (`codes` are its kind codes) from
    /// this group's source.
    fn load(&mut self, codes: &[u8], plan: &Plan) {
        let (size, branches) = (&plan.sizes[self.size], &plan.modes[self.mode]);
        match &mut self.source {
            Source::Live(hierarchy) => {
                self.fill.load(codes, size, branches, |addr, kind| hierarchy.access(addr, kind))
            }
            Source::Annotated { stream, pos, lat } => {
                // Every planned access pops exactly one annotation.
                self.fill.load(codes, size, branches, |_, _| {
                    let code = stream.code(*pos);
                    *pos += 1;
                    lat[code as usize]
                })
            }
        }
    }
}

/// One flag column per chunk — a register-file size's spill flags plus
/// a predictor walk's redirect bits — read by every member with both.
#[derive(Debug, Clone)]
struct FlagColumn {
    /// Index into the bank's predictor walks.
    walk: usize,
    /// Index into the plan's register-file sizes.
    size: usize,
    flags: Vec<u8>,
}

/// One platform model: the flag column and fill group it reads, and
/// its own timing core.
#[derive(Debug, Clone)]
struct Member {
    cfg: PlatformConfig,
    /// Index into the bank's flag columns.
    column: usize,
    /// Index into the bank's fill groups.
    group: usize,
    core: TimingCore,
}

/// The index of the first element of `v` that is `same` as `item`,
/// after pushing `item` if there is none.
fn index_or_push<T>(v: &mut Vec<T>, item: T, same: impl Fn(&T, &T) -> bool) -> usize {
    match v.iter().position(|x| same(x, &item)) {
        Some(i) => i,
        None => {
            v.push(item);
            v.len() - 1
        }
    }
}

/// Trace-driven cycle-level models of several platforms off one decode
/// and one plan walk.
///
/// Per chunk the bank makes one register walk through a multi-size
/// register file (the plan's spill flags and access events per distinct
/// register-file size), one predictor walk per (if-conversion, predictor
/// kind) family, one flag column per (walk, size) pair and one latency
/// fill per fill group; each member then runs only its timing core.
/// Every member's result equals its own [`CycleSim`] replay, which is a
/// one-member bank.
#[derive(Debug, Clone)]
pub struct PlatformBank {
    plan: Plan,
    walks: Vec<PredictorWalk>,
    columns: Vec<FlagColumn>,
    groups: Vec<FillGroup>,
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

    /// One live member per (platform, predictor family) pair, in order.
    ///
    /// # Panics
    ///
    /// If `members` is empty or spans more than 32 register-file
    /// capacities, or a platform fails the timing core's or the latency
    /// fill's bounds ([`MAX_WIDTH`](crate::MAX_WIDTH),
    /// [`MAX_LATENCY`](crate::MAX_LATENCY)).
    pub fn with_predictors(
        members: impl IntoIterator<Item = (PlatformConfig, PredictorKind)>,
    ) -> Self {
        let members: Vec<(PlatformConfig, PredictorKind)> = members.into_iter().collect();
        let regs: Vec<u32> = members.iter().map(|(cfg, _)| cfg.logical_regs).collect();
        let modes: Vec<bool> = members.iter().map(|(cfg, _)| cfg.if_conversion).collect();
        let mut bank = Self::planned(&regs, &modes);
        for (cfg, kind) in members {
            bank.push(cfg, kind, None);
        }
        bank
    }

    /// An empty bank whose plan covers register files of `logical_regs`
    /// registers and the if-conversion `modes`.
    fn planned(logical_regs: &[u32], modes: &[bool]) -> Self {
        Self {
            plan: Plan::new(logical_regs, modes),
            walks: Vec::new(),
            columns: Vec::new(),
            groups: Vec::new(),
            members: Vec::new(),
            one: OpBlock::default(),
        }
    }

    /// Adds a member timing `cfg` with a `kind` predictor. It reads a
    /// live hierarchy of its own when `stream` is `None`, and otherwise
    /// joins the first fill group over an equal stream and latency
    /// table, or starts one. Walks and flag columns are shared by key.
    fn push(&mut self, cfg: PlatformConfig, kind: PredictorKind, stream: Option<Arc<AnnotationStream>>) {
        let fill = LatencyFill::new(&cfg);
        let core = TimingCore::new(&cfg);
        let source = match stream {
            None => Source::Live(Box::new(cfg.hierarchy())),
            Some(stream) => Source::annotated(&cfg, stream),
        };
        let (size, mode) =
            (self.plan.size_index(cfg.logical_regs), self.plan.mode_index(cfg.if_conversion));
        let walk = index_or_push(&mut self.walks, PredictorWalk::new(kind, mode), |a, b| {
            (a.kind, a.mode) == (b.kind, b.mode)
        });
        let column =
            index_or_push(&mut self.columns, FlagColumn { walk, size, flags: Vec::new() }, |a, b| {
                (a.walk, a.size) == (b.walk, b.size)
            });
        let group =
            index_or_push(&mut self.groups, FillGroup { source, size, mode, fill }, FillGroup::shares_fill);
        self.members.push(Member { cfg, column, group, core });
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
        self.groups = self
            .groups
            .into_iter()
            .map(|mut g| {
                if let Source::Live(h) = g.source {
                    g.source = Source::Live(Box::new(f(*h)));
                }
                g
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

    /// Member `i`'s running result. `SimResult::cache` is zeroed for an
    /// annotated member: the cache pass that produced its stream owns
    /// the hierarchy stats.
    pub fn result(&self, i: usize) -> SimResult {
        let m = &self.members[i];
        let column = &self.columns[m.column];
        let size = &self.plan.sizes[column.size];
        let walk = &self.walks[column.walk];
        SimResult {
            cycles: m.core.cycles(),
            instructions: self.plan.instructions,
            branches: self.plan.modes[walk.mode].branches,
            mispredicts: walk.mispredicts,
            spill_stores: size.spill_stores,
            spill_reloads: size.spill_reloads,
            cache: match &self.groups[m.group].source {
                Source::Live(hierarchy) => *hierarchy.stats(),
                Source::Annotated { .. } => HierarchyStats::default(),
            },
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
        if let Source::Live(hierarchy) = &mut self.groups[m.group].source {
            out.merge_prefixed("cache/", &hierarchy.take_metrics());
        }
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
        let Self { plan, walks, columns, groups, members, .. } = self;
        let n = block.len();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + PHASE_CHUNK).min(n);
            plan.chunk(block, lo, hi);
            for walk in walks.iter_mut() {
                walk.walk(plan);
            }
            for c in columns.iter_mut() {
                walks[c.walk].flags(&plan.sizes[c.size].flags, &mut c.flags);
            }
            // Hierarchies, predictors and timing cores are independent,
            // so all of the chunk's fills and then all of its cores keep
            // each structure's exact update order.
            for g in groups.iter_mut() {
                g.load(&block.kind_codes()[lo..hi], plan);
            }
            for m in members.iter_mut() {
                let flags = &columns[m.column].flags;
                m.core.run_chunk(plan, flags, &groups[m.group].fill, &block.ops()[lo..hi]);
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

/// The factored sweep's timing pass: a [`PlatformBank`] of annotated
/// members, one per sweep timing configuration ("lane").
///
/// A lane's access latencies come from a cache pass's miss-level
/// stream ([`CachePassSim`](crate::CachePassSim)) converted through the
/// lane's own latency table, so lanes on one stream with one table
/// share a fill, and the register/spill plan and each predictor family
/// run once for every lane. Every lane's result equals a live
/// [`CycleSim`] replay with the lane's cache geometry and timing
/// configuration, `SimResult::cache` aside.
///
/// All lanes must share the platform's `logical_regs` and
/// `if_conversion` (true of every sweep grid cell — both come from the
/// base platform, not the swept axes); [`Self::push_lane`] panics
/// otherwise.
#[derive(Debug)]
pub struct TimingBank {
    logical_regs: u32,
    if_conversion: bool,
    bank: PlatformBank,
}

impl TimingBank {
    /// An empty bank over the shared platform invariants.
    pub fn new(logical_regs: u32, if_conversion: bool) -> Self {
        Self { logical_regs, if_conversion, bank: PlatformBank::planned(&[logical_regs], &[if_conversion]) }
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
        self.bank.push(*cfg, pred, Some(stream));
    }

    /// Lanes pushed so far.
    pub fn len(&self) -> usize {
        self.bank.len()
    }

    /// Distinct latency fills per chunk: lanes sharing an annotation
    /// stream and a latency table share one.
    pub fn fill_groups(&self) -> usize {
        self.bank.groups.len()
    }

    /// Whether the bank has no lanes.
    pub fn is_empty(&self) -> bool {
        self.bank.is_empty()
    }

    /// Final per-lane results, in push order. `SimResult::cache` is
    /// zeroed: the cache pass that produced the streams owns the
    /// hierarchy stats.
    pub fn into_results(self) -> Vec<SimResult> {
        self.bank.results()
    }
}

impl TraceConsumer for TimingBank {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        self.bank.consume(op, program);
    }

    fn consume_block(&mut self, block: &OpBlock, program: &Program) {
        self.bank.consume_block(block, program);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::annotate::CachePassSim;
    use bioperf_isa::here;
    use bioperf_trace::{Recorder, Recording, Tape, Tracer};

    /// Enough live temporaries to force Pentium 4 spills, plus random
    /// branches and selects, FP traffic, and strided loads and stores.
    pub(crate) fn spill_heavy_recording() -> Recording {
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

    /// Block size must never change a result: per-op `consume` (one-op
    /// blocks built by `fill_one`) and decoded blocks of odd sizes, whose
    /// edges fall mid-spill-sequence, must leave identical state —
    /// including spill counters and cache stats, on both in-order and
    /// out-of-order cores.
    #[test]
    fn blocked_replay_matches_per_op_replay() {
        let recording = spill_heavy_recording();
        let program = recording.program().clone();
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

    /// Sharing the plan, the predictor walks and the flag columns never
    /// changes a member:
    /// every member of a bank — the four presets; duplicate platforms;
    /// mixed predictor kinds and if-conversion modes over every register
    /// size — equals its own `CycleSim` replay, results and event series,
    /// at every block size and through per-op `consume`, with metrics
    /// off (the uninstrumented core loop) and on.
    #[test]
    fn platform_bank_members_match_independent_cyclesims() {
        let recording = spill_heavy_recording();
        let program = recording.program().clone();
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
            ("presets", presets.iter().map(hybrid).collect(), [3, 2, 4]),
            ("duplicates", [0, 2, 0, 2, 2].iter().map(|&i| hybrid(&presets[i])).collect(), [2, 2, 2]),
            ("mixed", mixed, [3, 4, 7]),
        ];
        for (name, members, shared) in banks {
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
                    let counts = [bank.plan.sizes.len(), bank.walks.len(), bank.columns.len()];
                    assert_eq!(counts, shared, "{name}: sizes, walks, flag columns");
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
        let recording = spill_heavy_recording();
        let program = recording.program().clone();
        for cfg in PlatformConfig::all() {
            let mut live = CycleSim::new(cfg);
            recording.replay_bank(std::slice::from_mut(&mut live));
            let reference = live.into_result();

            let mut pass = CachePassSim::new(cfg.logical_regs, vec![cfg.hierarchy()]);
            recording.replay_bank(std::slice::from_mut(&mut pass));
            let (stats, stream) = pass.finish_bank().pop().expect("one member");
            assert_eq!(stats, reference.cache, "{} cache pass stats", cfg.name);
            let stream = Arc::new(stream);
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
        recording: &Recording,
        cfg: &PlatformConfig,
    ) -> Arc<AnnotationStream> {
        let mut pass = CachePassSim::new(cfg.logical_regs, vec![cfg.hierarchy()]);
        recording.replay_bank(std::slice::from_mut(&mut pass));
        Arc::new(pass.finish_bank().pop().expect("one member").1)
    }

    /// A live `CycleSim` replay of `cfg` with predictor `pred`, with the
    /// cache stats a bank lane leaves zeroed.
    fn live(
        recording: &Recording,
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
