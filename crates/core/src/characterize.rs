//! The one-pass program characterizer (Figures 1–2, Tables 1–5).

use bioperf_cache::HierarchyStats;
use bioperf_isa::{MicroOp, OpClass, Program};
use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_metrics::MetricSet;
use bioperf_trace::{consumers::InstrMix, Tape, TraceConsumer};

use crate::coverage::LoadCoverage;
use crate::loadchar::{HotLoad, LoadBranchAnalysis, SequenceSummary};

/// Streaming consumer combining all of the paper's characterization
/// passes: instruction mix, load coverage, cache behaviour, and the
/// load↔branch sequence/profile analysis. The analysis's reference
/// hierarchy sees every traced load and store, so it is also the Table 2
/// cache simulation.
#[derive(Debug)]
pub struct Characterizer {
    /// Instruction-mix counters (Figure 1 / Table 1).
    pub mix: InstrMix,
    /// Load-coverage accumulator (Figure 2).
    pub coverage: LoadCoverage,
    /// Sequence and per-load analysis (Tables 4 and 5) and the reference
    /// hierarchy's cache behaviour (Table 2).
    pub analysis: LoadBranchAnalysis,
}

impl Characterizer {
    /// Creates a characterizer with the paper's reference cache.
    pub fn new() -> Self {
        Self {
            mix: InstrMix::default(),
            coverage: LoadCoverage::new(),
            analysis: LoadBranchAnalysis::new(),
        }
    }

    /// Like [`new`](Self::new), but with event-metric collection switched
    /// on in the reference hierarchy; the collected events come back in
    /// [`CharacterizationReport::events`].
    pub fn with_metrics() -> Self {
        Self { analysis: LoadBranchAnalysis::new().with_metrics(), ..Self::new() }
    }

    /// Finalizes into a report.
    pub fn into_report(mut self, program: Program, hot_load_rows: usize) -> CharacterizationReport {
        let events = self.analysis.take_cache_metrics();
        let cache = self.analysis.hierarchy();
        let amat = cache.amat();
        let hot_loads = self.analysis.hot_loads(hot_load_rows, &program);
        CharacterizationReport {
            mix: self.mix,
            coverage: self.coverage,
            cache: *cache.stats(),
            amat,
            sequences: self.analysis.summary(),
            overall_branch_misprediction_rate: self.analysis.profiler().overall_misprediction_rate(),
            hot_loads,
            load_stats: self.analysis.all_load_stats().to_vec(),
            static_loads: program.count_kind(bioperf_isa::OpKind::is_load),
            program,
            events,
        }
    }
}

impl Default for Characterizer {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceConsumer for Characterizer {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        self.mix.consume(op, program);
        self.coverage.consume(op, program);
        self.analysis.consume(op, program);
    }
}

/// Everything the characterization tables need for one program.
#[derive(Debug)]
pub struct CharacterizationReport {
    /// Instruction mix (Figure 1, Table 1).
    pub mix: InstrMix,
    /// Load coverage (Figure 2).
    pub coverage: LoadCoverage,
    /// Reference-hierarchy cache statistics (Table 2).
    pub cache: HierarchyStats,
    /// Average memory access time under the paper's formula (Table 2).
    pub amat: f64,
    /// Sequence analysis (Table 4).
    pub sequences: SequenceSummary,
    /// Overall dynamic branch misprediction rate.
    pub overall_branch_misprediction_rate: f64,
    /// The hottest loads (Table 5).
    pub hot_loads: Vec<HotLoad>,
    /// Full per-static-load statistics, indexed by static-id index.
    pub load_stats: Vec<crate::loadchar::LoadStats>,
    /// Number of distinct static loads traced.
    pub static_loads: usize,
    /// The traced static program (for source mapping).
    pub program: Program,
    /// Raw event metrics from the reference hierarchy (empty unless the
    /// characterizer was built with [`Characterizer::with_metrics`]).
    pub events: MetricSet,
}

impl CharacterizationReport {
    /// Per-static-load statistics for one load (zeros if never traced).
    pub fn analysis_load_stats(&self, sid: bioperf_isa::StaticId) -> crate::loadchar::LoadStats {
        self.load_stats.get(sid.index()).copied().unwrap_or_default()
    }

    /// Exports every metric the paper's characterization tables report —
    /// the Figure 1 mix, Figure 2 coverage, Table 2 cache behaviour, and
    /// the Table 4 sequence fractions — as named series under `prefix`
    /// (conventionally `char/<program>/`).
    pub fn export_metrics(&self, out: &mut MetricSet, prefix: &str) {
        let c = |name: &str| format!("{prefix}{name}");
        // Figure 1 / Table 1: instruction mix.
        out.counter_add(&c("instructions"), self.mix.total());
        out.counter_add(&c("dynamic_loads"), self.mix.loads());
        out.counter_add(&c("dynamic_stores"), self.mix.stores());
        out.counter_add(&c("cond_branches"), self.mix.cond_branches());
        out.gauge_set(&c("load_fraction"), self.mix.class_fraction(OpClass::Load));
        out.gauge_set(&c("store_fraction"), self.mix.class_fraction(OpClass::Store));
        out.gauge_set(&c("branch_fraction"), self.mix.class_fraction(OpClass::CondBranch));
        out.gauge_set(&c("fp_fraction"), self.mix.fp_fraction());
        // Figure 2: static-load coverage.
        out.counter_add(&c("static_loads"), self.static_loads as u64);
        out.gauge_set(&c("coverage_top10"), self.coverage.coverage_at(10));
        out.gauge_set(&c("coverage_top80"), self.coverage.coverage_at(80));
        // Tables 2/3: cache miss rates and AMAT.
        out.counter_add(&c("l1_load_misses"), self.cache.l1.load_misses);
        out.counter_add(&c("l2_load_misses"), self.cache.l2.load_misses);
        out.gauge_set(&c("l1_load_miss_rate"), self.cache.l1.load_miss_ratio());
        out.gauge_set(&c("l2_load_miss_rate"), self.cache.l2.load_miss_ratio());
        out.gauge_set(&c("overall_memory_rate"), self.cache.overall_load_memory_ratio());
        out.gauge_set(&c("amat_cycles"), self.amat);
        // Table 4: load↔branch sequences.
        out.gauge_set(&c("load_to_branch_fraction"), self.sequences.load_to_branch_fraction());
        out.gauge_set(
            &c("sequence_branch_mispredict_rate"),
            self.sequences.sequence_branch_misprediction_rate(),
        );
        out.gauge_set(
            &c("load_after_hard_branch_fraction"),
            self.sequences.loads_after_hard_branch_fraction(),
        );
        out.gauge_set(&c("branch_mispredict_rate"), self.overall_branch_misprediction_rate);
    }
}

/// Runs one BioPerf program (original source shape) through the full
/// characterizer — the reproduction's equivalent of an ATOM profiling
/// run.
pub fn characterize_program(program: ProgramId, scale: Scale, seed: u64) -> CharacterizationReport {
    let mut tape = Tape::new(Characterizer::new());
    registry::run(&mut tape, program, Variant::Original, scale, seed);
    let (static_program, characterizer) = tape.finish();
    characterizer.into_report(static_program, 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmmsearch_characterization_matches_paper_shape() {
        let r = characterize_program(ProgramId::Hmmsearch, Scale::Test, 1);
        // Figure 1: loads are a large fraction of instructions.
        let load_frac = r.mix.class_fraction(bioperf_isa::OpClass::Load);
        assert!((0.2..0.5).contains(&load_frac), "load fraction {load_frac}");
        // Table 2: almost all loads hit L1.
        assert!(r.cache.l1.load_miss_ratio() < 0.02, "{}", r.cache.l1.load_miss_ratio());
        assert!(r.amat < 3.5, "AMAT {} dominated by the L1 hit latency", r.amat);
        // Figure 2: a handful of static loads covers everything.
        assert!(r.coverage.coverage_at(80) > 0.9);
        // Table 4a: most loads lead to branches.
        assert!(r.sequences.load_to_branch_fraction() > 0.5);
        // Table 5: hot loads exist with source mapping.
        assert!(!r.hot_loads.is_empty());
        assert!(r.hot_loads[0].loc.file.contains("viterbi"));
    }

    #[test]
    fn characterization_is_deterministic() {
        // Address normalization (bioperf_trace::normalize) makes traced
        // addresses independent of allocator placement, so two runs of
        // the same (program, scale, seed) must agree *exactly* — cache
        // conflict misses included — for every program.
        for p in ProgramId::ALL {
            let a = characterize_program(p, Scale::Test, 9);
            let b = characterize_program(p, Scale::Test, 9);
            assert_eq!(a.mix, b.mix, "{p}: instruction mix");
            assert_eq!(a.sequences.loads_to_branch, b.sequences.loads_to_branch, "{p}");
            assert_eq!(a.cache, b.cache, "{p}: cache statistics must be bit-identical");
            assert_eq!(a.amat, b.amat, "{p}: AMAT");
        }
    }

    #[test]
    fn all_nine_programs_characterize() {
        for p in ProgramId::ALL {
            let r = characterize_program(p, Scale::Test, 3);
            assert!(r.mix.total() > 10_000, "{p}: tiny trace {}", r.mix.total());
            assert!(r.mix.loads() > 0, "{p}");
            assert!(r.static_loads > 0, "{p}");
        }
    }
}
