//! Load→branch / branch→load sequence detection and per-load profiles
//! (the analyses behind the paper's Tables 4 and 5).

use std::collections::VecDeque;

use bioperf_branch::BranchProfiler;
use bioperf_cache::{alpha21264_hierarchy, AccessKind, Hierarchy};
use bioperf_isa::{MicroOp, Program, SrcLoc, StaticId, VReg};
use bioperf_trace::TraceConsumer;

/// Maximum dependence-chain length from a load to a branch for the load
/// to count as part of a load→branch sequence (the paper's chains are
/// 2–4 instructions: load → add → compare → branch).
const MAX_CHAIN: u8 = 6;

/// How many origin loads a value can carry (a compare merges two
/// operands that may each derive from two loads).
const MAX_ORIGINS: usize = 4;

/// Window of ops after a hard-to-predict branch within which a load
/// counts as "right after" the branch (Table 4b).
const AFTER_BRANCH_WINDOW: u64 = 10;

/// A load within the window must have a consumer within this many ops to
/// count as having a "tight dependence chain".
const TIGHT_USE_DISTANCE: u64 = 6;

/// Minimum executions before a branch's running misprediction rate is
/// trusted for hard-to-predict classification (cold predictors always
/// miss their first executions).
const HARD_CLASSIFY_MIN_EXECS: u64 = 32;

const VREG_RING: usize = 1 << 16;
const COUNTED_RING: usize = 1 << 16;

/// Dataflow origin of a value: which dynamic loads it derives from.
#[derive(Debug, Clone, Copy)]
struct OriginRec {
    vreg: u64,
    chain_len: u8,
    n: u8,
    load_sids: [StaticId; MAX_ORIGINS],
    dyn_ids: [u64; MAX_ORIGINS],
}

impl OriginRec {
    const EMPTY: OriginRec = OriginRec {
        vreg: u64::MAX,
        chain_len: 0,
        n: 0,
        load_sids: [StaticId::from_raw(0); MAX_ORIGINS],
        dyn_ids: [0; MAX_ORIGINS],
    };
}

/// Per-static-load statistics (Table 5 rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Dynamic executions of this static load.
    pub executions: u64,
    /// L1 data cache misses among those executions.
    pub l1_misses: u64,
    /// Executions of branches this load's value fed (through a tight
    /// chain).
    pub fed_branch_executions: u64,
    /// Mispredictions among those fed branches.
    pub fed_branch_mispredictions: u64,
    /// Executions that started a tight dependent chain right after a
    /// hard-to-predict branch (Table 4b membership, per static load).
    pub after_hard_branch: u64,
}

impl LoadStats {
    /// This load's own L1 miss rate.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.executions as f64
        }
    }

    /// Fraction of this load's executions that sat right behind a
    /// hard-to-predict branch with a tight dependent chain.
    pub fn after_hard_branch_fraction(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.after_hard_branch as f64 / self.executions as f64
        }
    }

    /// Misprediction rate of the branches fed by this load.
    pub fn fed_branch_misprediction_rate(&self) -> f64 {
        if self.fed_branch_executions == 0 {
            0.0
        } else {
            self.fed_branch_mispredictions as f64 / self.fed_branch_executions as f64
        }
    }
}

/// One row of the paper's Table 5: a hot load's profile, mapped back to
/// source.
#[derive(Debug, Clone)]
pub struct HotLoad {
    /// Static instruction id ("load index" in the paper).
    pub sid: StaticId,
    /// Fraction of all executed loads contributed by this static load.
    pub frequency: f64,
    /// This load's L1 miss rate.
    pub l1_miss_rate: f64,
    /// Misprediction rate of the branches this load feeds.
    pub branch_misprediction_rate: f64,
    /// Source location (function, file, line).
    pub loc: SrcLoc,
}

/// Aggregate results of the sequence analysis (Table 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct SequenceSummary {
    /// Total dynamic loads.
    pub total_loads: u64,
    /// Dynamic loads whose value fed a conditional branch through a
    /// tight dependence chain (Table 4a numerator).
    pub loads_to_branch: u64,
    /// Executions of branches at the end of such sequences.
    pub sequence_branch_executions: u64,
    /// Mispredictions among those.
    pub sequence_branch_mispredictions: u64,
    /// Dynamic loads with a tight dependence chain appearing right after
    /// a hard-to-predict (≥5%) branch (Table 4b numerator).
    pub loads_after_hard_branch: u64,
}

impl SequenceSummary {
    /// Table 4a: load→branch sequences as a fraction of executed loads.
    pub fn load_to_branch_fraction(&self) -> f64 {
        if self.total_loads == 0 {
            0.0
        } else {
            self.loads_to_branch as f64 / self.total_loads as f64
        }
    }

    /// Table 4a: average misprediction rate of sequence-ending branches.
    pub fn sequence_branch_misprediction_rate(&self) -> f64 {
        if self.sequence_branch_executions == 0 {
            0.0
        } else {
            self.sequence_branch_mispredictions as f64 / self.sequence_branch_executions as f64
        }
    }

    /// Table 4b: loads after hard-to-predict branches as a fraction of
    /// executed loads.
    pub fn loads_after_hard_branch_fraction(&self) -> f64 {
        if self.total_loads == 0 {
            0.0
        } else {
            self.loads_after_hard_branch as f64 / self.total_loads as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    sid: StaticId,
    vreg: u64,
    expires_at: u64,
}

/// The combined dataflow analysis: tracks which loads feed branches
/// (load→branch), which loads with tight chains follow hard-to-predict
/// branches (branch→load), per-static-load L1 and fed-branch statistics,
/// and the branch-misprediction profile — one streaming pass.
#[derive(Debug)]
pub struct LoadBranchAnalysis {
    profiler: BranchProfiler,
    hierarchy: Hierarchy,
    origins: Vec<OriginRec>,
    counted: Vec<u64>,
    loads: Vec<LoadStats>,
    summary: SequenceSummary,
    op_index: u64,
    last_hard_branch_at: Option<u64>,
    pending: VecDeque<PendingLoad>,
}

impl Default for LoadBranchAnalysis {
    fn default() -> Self {
        Self::new()
    }
}

impl LoadBranchAnalysis {
    /// Creates the analysis with the paper's reference cache hierarchy
    /// and measurement predictor.
    pub fn new() -> Self {
        Self {
            profiler: BranchProfiler::new(),
            hierarchy: alpha21264_hierarchy(),
            origins: vec![OriginRec::EMPTY; VREG_RING],
            counted: vec![u64::MAX; COUNTED_RING],
            loads: Vec::new(),
            summary: SequenceSummary::default(),
            op_index: 0,
            last_hard_branch_at: None,
            pending: VecDeque::new(),
        }
    }

    /// Switches on event-metric collection in the reference hierarchy
    /// (see [`Hierarchy::with_metrics`]).
    pub fn with_metrics(mut self) -> Self {
        self.hierarchy = self.hierarchy.with_metrics();
        self
    }

    /// The reference hierarchy every traced load and store went through.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Takes the reference hierarchy's collected event metrics (empty
    /// unless built [`with_metrics`](Self::with_metrics)).
    pub fn take_cache_metrics(&mut self) -> bioperf_metrics::MetricSet {
        self.hierarchy.take_metrics()
    }

    /// Aggregate sequence results (Table 4).
    pub fn summary(&self) -> SequenceSummary {
        self.summary
    }

    /// The measurement branch profiler (per-branch rates, totals).
    pub fn profiler(&self) -> &BranchProfiler {
        &self.profiler
    }

    /// Statistics for one static load.
    pub fn load_stats(&self, sid: StaticId) -> LoadStats {
        self.loads.get(sid.index()).copied().unwrap_or_default()
    }

    /// Per-static-load statistics, indexed by [`StaticId::index`].
    pub fn all_load_stats(&self) -> &[LoadStats] {
        &self.loads
    }

    /// The `n` hottest loads as Table 5 rows, most frequent first.
    pub fn hot_loads(&self, n: usize, program: &Program) -> Vec<HotLoad> {
        let total = self.summary.total_loads.max(1);
        let mut rows: Vec<(usize, &LoadStats)> =
            self.loads.iter().enumerate().filter(|(_, s)| s.executions > 0).collect();
        rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.executions));
        rows.into_iter()
            .take(n)
            .map(|(idx, s)| {
                let sid = StaticId::from_raw(idx as u32);
                HotLoad {
                    sid,
                    frequency: s.executions as f64 / total as f64,
                    l1_miss_rate: s.l1_miss_rate(),
                    branch_misprediction_rate: s.fed_branch_misprediction_rate(),
                    loc: program.get(sid).loc,
                }
            })
            .collect()
    }

    fn origin_of(&self, v: VReg) -> Option<&OriginRec> {
        let rec = &self.origins[(v.0 as usize) & (VREG_RING - 1)];
        (rec.vreg == v.0).then_some(rec)
    }

    fn set_origin(&mut self, v: VReg, rec: OriginRec) {
        self.origins[(v.0 as usize) & (VREG_RING - 1)] = rec;
    }

    fn load_stats_mut(&mut self, sid: StaticId) -> &mut LoadStats {
        let idx = sid.index();
        if idx >= self.loads.len() {
            self.loads.resize(idx + 1, LoadStats::default());
        }
        &mut self.loads[idx]
    }

    /// Marks a dynamic load as counted for Table 4a; returns true the
    /// first time.
    fn count_once(&mut self, dyn_id: u64) -> bool {
        let slot = &mut self.counted[(dyn_id as usize) & (COUNTED_RING - 1)];
        if *slot == dyn_id {
            false
        } else {
            *slot = dyn_id;
            true
        }
    }

    /// Checks pending after-hard-branch loads for consumption by this op.
    fn check_pending_consumption(&mut self, op: &MicroOp) {
        if self.pending.is_empty() {
            return;
        }
        while let Some(front) = self.pending.front() {
            if front.expires_at < self.op_index {
                self.pending.pop_front();
            } else {
                break;
            }
        }
        let mut consumed: Vec<usize> = Vec::new();
        for src in op.sources() {
            for (i, p) in self.pending.iter().enumerate() {
                if p.vreg == src.0 && !consumed.contains(&i) {
                    consumed.push(i);
                }
            }
        }
        // Count and remove (largest index first to keep indices valid).
        consumed.sort_unstable_by(|a, b| b.cmp(a));
        for i in consumed {
            if let Some(pl) = self.pending.remove(i) {
                self.summary.loads_after_hard_branch += 1;
                self.load_stats_mut(pl.sid).after_hard_branch += 1;
            }
        }
    }
}

impl TraceConsumer for LoadBranchAnalysis {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        self.op_index += 1;

        if op.kind.is_load() {
            let dyn_id = self.summary.total_loads;
            self.summary.total_loads += 1;

            // Cache profile for this static load.
            let hit = matches!(
                self.hierarchy.access_detailed(op.addr.expect("loads carry addresses"), AccessKind::Load),
                (bioperf_cache::ServicedBy::L1, _)
            );
            let stats = self.load_stats_mut(op.sid);
            stats.executions += 1;
            if !hit {
                stats.l1_misses += 1;
            }

            // New dataflow origin.
            if let Some(dst) = op.dst {
                let mut rec = OriginRec::EMPTY;
                rec.vreg = dst.0;
                rec.chain_len = 0;
                rec.n = 1;
                rec.load_sids[0] = op.sid;
                rec.dyn_ids[0] = dyn_id;
                self.set_origin(dst, rec);
            }

            // Table 4b candidate: load right after a hard-to-predict
            // branch; counts when something consumes it soon.
            if let (Some(at), Some(dst)) = (self.last_hard_branch_at, op.dst) {
                if self.op_index - at <= AFTER_BRANCH_WINDOW {
                    self.pending.push_back(PendingLoad {
                        sid: op.sid,
                        vreg: dst.0,
                        expires_at: self.op_index + TIGHT_USE_DISTANCE,
                    });
                }
            }
            return;
        }

        self.check_pending_consumption(op);

        if op.kind.is_store() {
            self.hierarchy.access(op.addr.expect("stores carry addresses"), AccessKind::Store);
            return;
        }

        if op.kind.is_cond_branch() {
            // Gather load origins feeding this branch.
            let mut origins: Vec<(StaticId, u64)> = Vec::new();
            for src in op.sources() {
                if let Some(rec) = self.origin_of(src) {
                    if rec.chain_len <= MAX_CHAIN {
                        for i in 0..rec.n as usize {
                            origins.push((rec.load_sids[i], rec.dyn_ids[i]));
                        }
                    }
                }
            }
            let correct = self.profiler.observe(op.sid, op.taken);
            if !origins.is_empty() {
                self.summary.sequence_branch_executions += 1;
                if !correct {
                    self.summary.sequence_branch_mispredictions += 1;
                }
                for (sid, dyn_id) in origins {
                    if self.count_once(dyn_id) {
                        self.summary.loads_to_branch += 1;
                    }
                    let stats = self.load_stats_mut(sid);
                    stats.fed_branch_executions += 1;
                    if !correct {
                        stats.fed_branch_mispredictions += 1;
                    }
                }
            }
            // Hard-to-predict marker for Table 4b.
            let bstats = self.profiler.stats(op.sid);
            if bstats.executions >= HARD_CLASSIFY_MIN_EXECS
                && self.profiler.is_hard_to_predict(op.sid)
            {
                self.last_hard_branch_at = Some(self.op_index);
            }
            return;
        }

        // Computational op: propagate load origins through the dataflow.
        if let Some(dst) = op.dst {
            let mut rec = OriginRec::EMPTY;
            rec.vreg = dst.0;
            let mut max_chain = 0u8;
            for src in op.sources() {
                if let Some(srec) = self.origin_of(src) {
                    if srec.chain_len >= MAX_CHAIN {
                        continue;
                    }
                    max_chain = max_chain.max(srec.chain_len + 1);
                    for i in 0..srec.n as usize {
                        if (rec.n as usize) < MAX_ORIGINS
                            && !rec.dyn_ids[..rec.n as usize].contains(&srec.dyn_ids[i])
                        {
                            rec.load_sids[rec.n as usize] = srec.load_sids[i];
                            rec.dyn_ids[rec.n as usize] = srec.dyn_ids[i];
                            rec.n += 1;
                        }
                    }
                }
            }
            if rec.n > 0 {
                rec.chain_len = max_chain;
                self.set_origin(dst, rec);
            } else {
                // Clear any stale record occupying this ring slot.
                self.set_origin(dst, OriginRec { vreg: dst.0, ..OriginRec::EMPTY });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioperf_isa::here;
    use bioperf_trace::{Tape, Tracer};

    #[test]
    fn direct_load_to_branch_is_detected() {
        let x = 1u64;
        let mut tape = Tape::new(LoadBranchAnalysis::new());
        for i in 0..100u64 {
            let v = tape.int_load(here!("k"), &x);
            let c = tape.int_op(here!("k"), &[v]);
            tape.branch(here!("k"), &[c], i % 3 == 0);
        }
        let (_, a) = tape.finish();
        let s = a.summary();
        assert_eq!(s.total_loads, 100);
        assert_eq!(s.loads_to_branch, 100, "every load feeds the branch");
        assert_eq!(s.sequence_branch_executions, 100);
    }

    #[test]
    fn unrelated_loads_are_not_counted() {
        let x = 1u64;
        let mut tape = Tape::new(LoadBranchAnalysis::new());
        let cond = tape.lit();
        for i in 0..50u64 {
            // A load that feeds only arithmetic, never a branch.
            let v = tape.int_load(here!("k"), &x);
            tape.int_op(here!("k"), &[v]);
            tape.branch(here!("k"), &[cond], i % 2 == 0);
        }
        let (_, a) = tape.finish();
        assert_eq!(a.summary().loads_to_branch, 0);
    }

    #[test]
    fn long_chains_are_excluded() {
        let x = 1u64;
        let mut tape = Tape::new(LoadBranchAnalysis::new());
        for i in 0..50u64 {
            let mut v = tape.int_load(here!("k"), &x);
            for _ in 0..(MAX_CHAIN as usize + 3) {
                v = tape.int_op(here!("k"), &[v]);
            }
            tape.branch(here!("k"), &[v], i % 2 == 0);
        }
        let (_, a) = tape.finish();
        assert_eq!(a.summary().loads_to_branch, 0, "chain too long to count");
    }

    #[test]
    fn loads_after_hard_branch_are_counted_when_consumed() {
        let x = 1u64;
        let mut state = 7u64;
        let mut tape = Tape::new(LoadBranchAnalysis::new());
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let taken = (state >> 33) & 1 == 1;
            let c = tape.lit();
            tape.branch(here!("hard"), &[c], taken);
            // Dependent load chain right after the branch.
            let v = tape.int_load(here!("after"), &x);
            tape.int_op(here!("after"), &[v]);
        }
        let (_, a) = tape.finish();
        let s = a.summary();
        assert!(
            s.loads_after_hard_branch > 300,
            "most post-branch loads count once the branch is known-hard: {}",
            s.loads_after_hard_branch
        );
    }

    #[test]
    fn loads_after_predictable_branch_are_not_counted() {
        let x = 1u64;
        let mut tape = Tape::new(LoadBranchAnalysis::new());
        for _ in 0..500 {
            let c = tape.lit();
            tape.branch(here!("easy"), &[c], true);
            let v = tape.int_load(here!("after"), &x);
            tape.int_op(here!("after"), &[v]);
        }
        let (_, a) = tape.finish();
        assert_eq!(a.summary().loads_after_hard_branch, 0);
    }

    #[test]
    fn unconsumed_loads_after_hard_branch_do_not_count() {
        let x = 1u64;
        let mut state = 3u64;
        let mut tape = Tape::new(LoadBranchAnalysis::new());
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = tape.lit();
            tape.branch(here!("hard"), &[c], (state >> 33) & 1 == 1);
            // Load whose value nothing consumes.
            tape.int_load(here!("dead"), &x);
        }
        let (_, a) = tape.finish();
        assert_eq!(a.summary().loads_after_hard_branch, 0);
    }

    #[test]
    fn hot_loads_report_frequency_and_location() {
        let x = 1u64;
        let mut state = 11u64;
        let mut tape = Tape::new(LoadBranchAnalysis::new());
        for _ in 0..400u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = tape.int_load(here!("hot_fn"), &x);
            let c = tape.int_op(here!("hot_fn"), &[v]);
            tape.branch(here!("hot_fn"), &[c], (state >> 33) & 1 == 1);
        }
        tape.int_load(here!("cold_fn"), &x);
        let (program, a) = tape.finish();
        let rows = a.hot_loads(2, &program);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].frequency > rows[1].frequency);
        assert_eq!(rows[0].loc.function, "hot_fn");
        assert!(rows[0].branch_misprediction_rate > 0.2, "random branch is hard");
        assert!(rows[0].l1_miss_rate < 0.1, "single cell always hits after warmup");
    }

    #[test]
    fn per_load_l1_miss_tracking() {
        // Loads striding through a large array miss; a fixed cell hits.
        let big = vec![0u64; 1 << 16];
        let mut tape = Tape::new(LoadBranchAnalysis::new());
        for i in 0..4096usize {
            tape.int_load(here!("stride"), &big[i * 8 % big.len()]);
            tape.int_load(here!("fixed"), &big[0]);
        }
        let (program, a) = tape.finish();
        let rows = a.hot_loads(2, &program);
        let stride = rows.iter().find(|r| r.loc.function == "stride").unwrap();
        let fixed = rows.iter().find(|r| r.loc.function == "fixed").unwrap();
        assert!(stride.l1_miss_rate > fixed.l1_miss_rate);
    }

    #[test]
    fn compare_merges_two_load_origins() {
        let (x, y) = (1u64, 2u64);
        let mut tape = Tape::new(LoadBranchAnalysis::new());
        for i in 0..100u64 {
            let a = tape.int_load(here!("a"), &x);
            let b = tape.int_load(here!("b"), &y);
            let c = tape.int_op(here!("cmp"), &[a, b]);
            tape.branch(here!("br"), &[c], i % 2 == 0);
        }
        let (_, a) = tape.finish();
        assert_eq!(a.summary().loads_to_branch, 200, "both operand loads count");
    }
}
