//! `bioperf-loadchar` — command-line front end to the reproduction.
//!
//! ```text
//! bioperf-loadchar list
//! bioperf-loadchar characterize <program> [scale]
//! bioperf-loadchar candidates   <program> [scale]
//! bioperf-loadchar coverage     <program> [scale]
//! bioperf-loadchar evaluate     <program> [scale]
//! bioperf-loadchar suite [--scale <scale>] [--jobs <n>] [--seed <u64>] [--metrics <out.json>]
//!                        [--trace-cap <ops>] [--spill-dir <dir>] [--segment-ops <ops>]
//! bioperf-loadchar conform [--cases <n>] [--seed <u64>] [--jobs <n>] [--metrics <out.json>]
//!                          [--inject <fault>] [--out <dir>] [--fuzz-only]
//! bioperf-loadchar sweep [--grid smoke|standard] [--scale <scale>] [--seed <u64>]
//!                        [--jobs <n>] [--programs <a,b>] [--l1 <KBxW,..>] [--l2 <KBxW,..>]
//!                        [--line <B,..>] [--lat <L1:L2:MEM,..>] [--pipe <WxROB,..>]
//!                        [--pred <name,..>] [--prefetch <name,..>] [--checkpoint <file>]
//!                        [--max-cells <n>] [--out <report.json>]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use bioperf_core::candidates::{find_candidates, CandidateCriteria};
use bioperf_core::characterize::characterize_program;
use bioperf_core::evaluate::{evaluate_program, EvalMatrix};
use bioperf_core::orchestrate::{
    run_conform, run_suite, ConformConfig, FaultId, SpillConfig, SuiteConfig,
};
use bioperf_core::report::{pct, pct2, TextTable};
use bioperf_core::sweep::{parse_prefetcher, run_sweep, SweepConfig, SweepGrid};
use bioperf_branch::PredictorKind;
use bioperf_isa::OpClass;
use bioperf_kernels::{ProgramId, Scale};
use bioperf_pipe::PlatformConfig;

const SEED: u64 = 42;

fn usage() -> ExitCode {
    eprintln!("bioperf-loadchar — IISWC 2006 BioPerf load-characterization reproduction");
    eprintln!();
    eprintln!("usage:");
    eprintln!("  bioperf-loadchar list");
    eprintln!("  bioperf-loadchar characterize <program> [test|small|medium|large]");
    eprintln!("  bioperf-loadchar candidates   <program> [scale]");
    eprintln!("  bioperf-loadchar coverage     <program> [scale]");
    eprintln!("  bioperf-loadchar evaluate     <program> [scale]");
    eprintln!("  bioperf-loadchar suite [--scale <scale>] [--jobs <n>] [--seed <u64>]");
    eprintln!("                         [--metrics <out.json>] [--trace-cap <ops>]");
    eprintln!("                         [--spill-dir <dir>] [--segment-ops <ops>]");
    eprintln!("  bioperf-loadchar conform [--cases <n>] [--seed <u64>] [--jobs <n>]");
    eprintln!("                           [--metrics <out.json>] [--inject <fault>]");
    eprintln!("                           [--out <dir>] [--fuzz-only]");
    eprintln!("  bioperf-loadchar sweep [--grid smoke|standard] [axis and run flags;");
    eprintln!("                         see 'sweep --help' via any bad flag for details]");
    eprintln!();
    eprintln!("suite runs the whole study — nine characterizations plus the 6-program ×");
    eprintln!("4-platform runtime evaluation — on a worker pool (--jobs 0 = all cores).");
    eprintln!("Output is identical for every worker count. --metrics additionally writes");
    eprintln!("every paper metric, raw simulator event, and phase timing as JSON; its");
    eprintln!("\"deterministic\" section is byte-identical for every --jobs value.");
    eprintln!("--trace-cap bounds the replay recorder (0 = default capacity).");
    eprintln!("--spill-dir records traces as fixed-size segment files under <dir> and");
    eprintln!("streams the replay wave from disk (peak memory stays O(segment size);");
    eprintln!("output is byte-identical to in-memory runs). --segment-ops sets the ops");
    eprintln!("per segment file (0 = default) and requires --spill-dir. --trace-cap");
    eprintln!("still bounds each trace's *total* ops across all its segments.");
    eprintln!();
    eprintln!("conform differentially fuzzes every simulator against its naive reference");
    eprintln!("model (seeded, deterministic; shrunk counterexamples land in --out) and");
    eprintln!("cross-checks the nine real program traces end-to-end (--fuzz-only skips");
    eprintln!("that). --inject <fault> arms one catalogued mutation and exits 0 only if");
    eprintln!("the fuzzer detects it within the fault's case budget.");
    eprintln!();
    eprintln!("programs: blast clustalw dnapenny fasta hmmcalibrate hmmpfam hmmsearch");
    eprintln!("          predator promlk   (evaluate: the six transformed programs only)");
    ExitCode::FAILURE
}

fn parse_scale(arg: Option<&str>) -> Option<Scale> {
    match arg {
        None => Some(Scale::Small),
        Some("test") => Some(Scale::Test),
        Some("small") => Some(Scale::Small),
        Some("medium") => Some(Scale::Medium),
        Some("large") => Some(Scale::Large),
        Some(_) => None,
    }
}

fn cmd_list() -> ExitCode {
    let mut table = TextTable::new(&["program", "area", "transformed"]);
    let area = |p: ProgramId| match p {
        ProgramId::Blast | ProgramId::Clustalw | ProgramId::Fasta => "sequence analysis",
        ProgramId::Dnapenny | ProgramId::Promlk => "molecular phylogeny",
        ProgramId::Hmmcalibrate | ProgramId::Hmmpfam | ProgramId::Hmmsearch => "sequence analysis (HMM)",
        ProgramId::Predator => "protein structure",
    };
    for p in ProgramId::ALL {
        table.row_owned(vec![
            p.name().to_string(),
            area(p).to_string(),
            if p.is_transformable() { "yes".into() } else { "no (characterized only)".into() },
        ]);
    }
    print!("{}", table.render());
    ExitCode::SUCCESS
}

fn cmd_characterize(program: ProgramId, scale: Scale) -> ExitCode {
    let r = characterize_program(program, scale, SEED);
    println!("{program} at {scale:?} scale (seed {SEED}):\n");
    println!("instruction mix ({} total):", r.mix.total());
    for class in OpClass::ALL {
        println!("  {class:<14} {}", pct(r.mix.class_fraction(class)));
    }
    println!("  floating-point {}", pct(r.mix.fp_fraction()));
    println!("\nloads:");
    println!("  static loads            {}", r.static_loads);
    println!("  coverage of hottest 80  {}", pct(r.coverage.coverage_at(80)));
    println!("  L1 local miss rate      {}", pct2(r.cache.l1.load_miss_ratio()));
    println!("  AMAT                    {:.2} cycles", r.amat);
    println!("\nsequences:");
    println!("  load→branch             {}", pct(r.sequences.load_to_branch_fraction()));
    println!("  their mispredict rate   {}", pct(r.sequences.sequence_branch_misprediction_rate()));
    println!("  load after hard branch  {}", pct(r.sequences.loads_after_hard_branch_fraction()));
    ExitCode::SUCCESS
}

fn cmd_candidates(program: ProgramId, scale: Scale) -> ExitCode {
    let r = characterize_program(program, scale, SEED);
    let cands = find_candidates(&r, CandidateCriteria::default());
    if cands.is_empty() {
        println!("{program}: no scheduling candidates found");
        return ExitCode::SUCCESS;
    }
    let mut table = TextTable::new(&["location", "pattern", "freq", "fed mispredict", "score"]);
    for c in &cands {
        table.row_owned(vec![
            format!("{}:{}", c.loc.function, c.loc.line),
            c.reason.to_string(),
            pct(c.frequency),
            pct(c.fed_branch_misprediction_rate),
            format!("{:.4}", c.score),
        ]);
    }
    print!("{}", table.render());
    ExitCode::SUCCESS
}

fn cmd_coverage(program: ProgramId, scale: Scale) -> ExitCode {
    let r = characterize_program(program, scale, SEED);
    println!("{program}: {} static loads, {} dynamic loads", r.static_loads, r.mix.loads());
    for rank in [1usize, 2, 5, 10, 20, 40, 80] {
        let cov = r.coverage.coverage_at(rank);
        let bar = "#".repeat((cov * 50.0) as usize);
        println!("  top {rank:>3}: {:>6}  {bar}", pct(cov));
    }
    ExitCode::SUCCESS
}

fn cmd_evaluate(program: ProgramId, scale: Scale) -> ExitCode {
    if !program.is_transformable() {
        eprintln!("{program} has no load-transformed variant (paper Section 3.3)");
        return ExitCode::FAILURE;
    }
    let mut table =
        TextTable::new(&["platform", "original (cycles)", "transformed", "speedup"]);
    for platform in PlatformConfig::all() {
        if !EvalMatrix::cell_applicable(program, platform.name) {
            table.row_owned(vec![platform.name.into(), "n.a.".into(), "n.a.".into(), "n.a.".into()]);
            continue;
        }
        let cell = evaluate_program(program, platform, scale, SEED);
        table.row_owned(vec![
            platform.name.to_string(),
            cell.original.cycles.to_string(),
            cell.transformed.cycles.to_string(),
            format!("{:+.1}%", (cell.speedup() - 1.0) * 100.0),
        ]);
    }
    print!("{}", table.render());
    ExitCode::SUCCESS
}

fn cmd_suite(
    scale: Scale,
    jobs: usize,
    seed: u64,
    metrics: Option<&str>,
    trace_cap: usize,
    spill: Option<SpillConfig>,
) -> ExitCode {
    // Raw event collection (the only part with a hot-loop cost) is only
    // switched on when the caller asked for the JSON snapshot.
    let suite = match run_suite(SuiteConfig { scale, seed, jobs, metrics: metrics.is_some(), trace_cap, spill }) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("suite: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("BioPerf load-characterization suite ({scale:?} scale, seed {seed})\n");
    let mut table =
        TextTable::new(&["program", "loads", "L1 local", "AMAT", "cov@80", "load→branch"]);
    for (program, r) in &suite.reports {
        table.row_owned(vec![
            program.name().to_string(),
            pct(r.mix.class_fraction(OpClass::Load)),
            pct2(r.cache.l1.load_miss_ratio()),
            format!("{:.2}", r.amat),
            pct(r.coverage.coverage_at(80)),
            pct(r.sequences.load_to_branch_fraction()),
        ]);
    }
    print!("{}", table.render());

    println!("\nruntime evaluation (simulated cycles, original → load-transformed):\n");
    let platforms: Vec<&str> = PlatformConfig::all().iter().map(|p| p.name).collect();
    let mut header = vec!["program"];
    header.extend(platforms.iter());
    let mut table = TextTable::new(&header);
    for program in ProgramId::TRANSFORMED {
        let mut row = vec![program.name().to_string()];
        for platform in &platforms {
            let cell = suite
                .eval
                .cells
                .iter()
                .find(|c| c.program == program && c.platform == *platform);
            row.push(match cell {
                None => "n.a.".to_string(),
                Some(c) => format!("{:+.1}%", (c.speedup() - 1.0) * 100.0),
            });
        }
        table.row_owned(row);
    }
    print!("{}", table.render());

    println!("\nharmonic-mean speedups:");
    for platform in &platforms {
        println!("  {platform:<16} {:.3}x", suite.eval.harmonic_mean_speedup(platform));
    }

    if let Some(path) = metrics {
        if let Err(e) = std::fs::write(path, suite.to_json().render_pretty()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {path} ({} metric series)", suite.metrics.len());
    }
    ExitCode::SUCCESS
}

struct SuiteArgs<'a> {
    scale: Scale,
    jobs: usize,
    seed: u64,
    metrics: Option<&'a str>,
    trace_cap: usize,
    spill_dir: Option<&'a str>,
    segment_ops: usize,
}

impl SuiteArgs<'_> {
    /// The resolved spill configuration, if `--spill-dir` was given.
    fn spill(&self) -> Option<SpillConfig> {
        self.spill_dir
            .map(|dir| SpillConfig { dir: PathBuf::from(dir), segment_ops: self.segment_ops })
    }
}

fn parse_suite_args<'a>(mut it: impl Iterator<Item = &'a str>) -> Option<SuiteArgs<'a>> {
    let mut parsed = SuiteArgs {
        scale: Scale::Test,
        jobs: 0,
        seed: SEED,
        metrics: None,
        trace_cap: 0,
        spill_dir: None,
        segment_ops: 0,
    };
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag {
            "--scale" => parsed.scale = parse_scale(Some(value))?,
            "--jobs" => parsed.jobs = value.parse().ok()?,
            "--seed" => parsed.seed = value.parse().ok()?,
            "--metrics" => parsed.metrics = Some(value),
            "--trace-cap" => parsed.trace_cap = value.parse().ok()?,
            "--spill-dir" => parsed.spill_dir = Some(value),
            "--segment-ops" => parsed.segment_ops = value.parse().ok()?,
            _ => return None,
        }
    }
    // Segment sizing only means something when spilling is on.
    if parsed.segment_ops != 0 && parsed.spill_dir.is_none() {
        return None;
    }
    Some(parsed)
}

struct ConformArgs<'a> {
    cases: u64,
    seed: u64,
    jobs: usize,
    metrics: Option<&'a str>,
    inject: Option<&'a str>,
    out: &'a str,
    fuzz_only: bool,
}

fn parse_conform_args<'a>(mut it: impl Iterator<Item = &'a str>) -> Option<ConformArgs<'a>> {
    let mut parsed = ConformArgs {
        cases: 256,
        seed: SEED,
        jobs: 0,
        metrics: None,
        inject: None,
        out: "results/conform",
        fuzz_only: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--fuzz-only" {
            parsed.fuzz_only = true;
            continue;
        }
        let value = it.next()?;
        match flag {
            "--cases" => parsed.cases = value.parse().ok()?,
            "--seed" => parsed.seed = value.parse().ok()?,
            "--jobs" => parsed.jobs = value.parse().ok()?,
            "--metrics" => parsed.metrics = Some(value),
            "--inject" => parsed.inject = Some(value),
            "--out" => parsed.out = value,
            _ => return None,
        }
    }
    Some(parsed)
}

/// Exit code for sweep usage errors, per the bench-CLI convention
/// (strict parsing: unknown, malformed, and duplicate flags all land
/// here rather than silently winning or losing).
const SWEEP_USAGE_EXIT: u8 = 2;

/// Exit code of a sweep that ran cleanly but left cells unmeasured
/// because `--max-cells` capped the invocation.
const SWEEP_PARTIAL_EXIT: u8 = 3;

fn sweep_usage() {
    eprintln!("usage: bioperf-loadchar sweep [--grid smoke|standard] [--scale <scale>]");
    eprintln!("           [--seed <u64>] [--jobs <n>] [--programs <a,b>]");
    eprintln!("           [--l1 <KBxWAYS,..>] [--l2 <KBxWAYS,..>] [--line <BYTES,..>]");
    eprintln!("           [--lat <L1:L2:MEM,..>] [--pipe <WIDTHxROB,..>]");
    eprintln!("           [--pred <hybrid|aliased|bimodal,..>]");
    eprintln!("           [--prefetch <none|nextline|stride,..>]");
    eprintln!("           [--checkpoint <file>] [--max-cells <n>] [--out <report.json>]");
    eprintln!("           [--no-factor]");
    eprintln!();
    eprintln!("Sweeps the configuration grid (axis flags override the preset's axes),");
    eprintln!("replaying both variants of each program through every cell, and prints");
    eprintln!("each program's Pareto frontier over (AMAT, speedup, hardware cost).");
    eprintln!("Output is byte-identical for every --jobs value. --checkpoint appends");
    eprintln!("completed cells to a resumable bioperf-sweep/v1 file; --max-cells bounds");
    eprintln!("new measurements per invocation (exit {SWEEP_PARTIAL_EXIT} while cells remain). --out writes");
    eprintln!("the deterministic JSON report. --no-factor disables the factored");
    eprintln!("cache-pass/timing-pass evaluation (slower; bit-identical output).");
}

struct SweepArgs<'a> {
    cfg: SweepConfig,
    out: Option<&'a str>,
}

/// Strict sweep-flag parser: every flag takes exactly one value, appears
/// at most once, and must parse; anything else is a usage error naming
/// the offender.
fn parse_sweep_args<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<SweepArgs<'a>, String> {
    fn split_list(value: &str) -> impl Iterator<Item = &str> {
        value.split(',').filter(|s| !s.is_empty())
    }
    fn pair(item: &str, sep: char) -> Result<(&str, &str), String> {
        item.split_once(sep).ok_or_else(|| format!("malformed value '{item}' (expected A{sep}B)"))
    }
    fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("malformed number '{s}'"))
    }

    let mut grid = SweepGrid::smoke();
    let mut grid_flag: Option<&str> = None;
    let mut overrides: Vec<(&str, &str)> = Vec::new();
    let mut args = SweepArgs {
        cfg: SweepConfig {
            scale: Scale::Test,
            seed: SEED,
            jobs: 0,
            programs: Vec::new(),
            grid: SweepGrid::smoke(),
            checkpoint: None,
            max_cells: 0,
            factor: true,
        },
        out: None,
    };
    let mut seen: Vec<&str> = Vec::new();
    while let Some(flag) = it.next() {
        if seen.contains(&flag) {
            return Err(format!("duplicate flag {flag}"));
        }
        seen.push(flag);
        if flag == "--no-factor" {
            args.cfg.factor = false;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag {
            "--grid" => grid_flag = Some(value),
            "--scale" => {
                args.cfg.scale =
                    parse_scale(Some(value)).ok_or_else(|| format!("unknown scale '{value}'"))?;
            }
            "--seed" => args.cfg.seed = num(value)?,
            "--jobs" => args.cfg.jobs = num(value)?,
            "--max-cells" => args.cfg.max_cells = num(value)?,
            "--checkpoint" => args.cfg.checkpoint = Some(PathBuf::from(value)),
            "--out" => args.out = Some(value),
            "--programs" => {
                for name in split_list(value) {
                    let p = ProgramId::from_name(name)
                        .ok_or_else(|| format!("unknown program '{name}'"))?;
                    args.cfg.programs.push(p);
                }
            }
            "--l1" | "--l2" | "--line" | "--lat" | "--pipe" | "--pred" | "--prefetch" => {
                overrides.push((flag, value));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if let Some(name) = grid_flag {
        grid = match name {
            "smoke" => SweepGrid::smoke(),
            "standard" => SweepGrid::standard(),
            _ => return Err(format!("unknown grid '{name}' (smoke or standard)")),
        };
    }
    // Axis overrides replace the preset's axis wholesale, in flag order.
    for (flag, value) in overrides {
        match flag {
            "--l1" | "--l2" => {
                let mut axis = Vec::new();
                for item in split_list(value) {
                    let (kb, ways) = pair(item, 'x')?;
                    axis.push((num(kb)?, num(ways)?));
                }
                if flag == "--l1" {
                    grid.l1 = axis;
                } else {
                    grid.l2 = axis;
                }
            }
            "--line" => {
                grid.line = split_list(value).map(num).collect::<Result<_, _>>()?;
            }
            "--lat" => {
                let mut axis = Vec::new();
                for item in split_list(value) {
                    let (l1, rest) = pair(item, ':')?;
                    let (l2, mem) = pair(rest, ':')?;
                    axis.push((num(l1)?, num(l2)?, num(mem)?));
                }
                grid.lat = axis;
            }
            "--pipe" => {
                let mut axis = Vec::new();
                for item in split_list(value) {
                    let (width, rob) = pair(item, 'x')?;
                    axis.push((num(width)?, num(rob)?));
                }
                grid.pipe = axis;
            }
            "--pred" => {
                let mut axis = Vec::new();
                for name in split_list(value) {
                    axis.push(
                        PredictorKind::from_name(name)
                            .ok_or_else(|| format!("unknown predictor '{name}'"))?,
                    );
                }
                grid.pred = axis;
            }
            "--prefetch" => {
                let mut axis = Vec::new();
                for name in split_list(value) {
                    axis.push(
                        parse_prefetcher(name)
                            .ok_or_else(|| format!("unknown prefetcher '{name}'"))?,
                    );
                }
                grid.prefetch = axis;
            }
            _ => unreachable!("only axis flags are deferred"),
        }
    }
    args.cfg.grid = grid;
    Ok(args)
}

fn cmd_sweep(args: &SweepArgs) -> ExitCode {
    let result = match run_sweep(&args.cfg) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Worker count and cache-hit statistics go to stderr: stdout and the
    // JSON report are byte-identical for every --jobs value and for any
    // --max-cells/resume split of the same sweep.
    eprintln!(
        "sweep: {} cells x {} programs on {} workers \
         ({} replayed, {} from checkpoint, {} traces recorded)",
        result.grid.cells(),
        result.programs.len(),
        result.workers,
        result.computed,
        result.cached,
        result.recorded,
    );

    print!("{}", result.render_table());
    if !result.complete {
        println!(
            "sweep incomplete: --max-cells {} left cells unmeasured (rerun to continue)",
            args.cfg.max_cells
        );
    }

    if let Some(path) = args.out {
        if let Err(e) = std::fs::write(path, result.to_json().render_pretty()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if result.complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(SWEEP_PARTIAL_EXIT)
    }
}

fn cmd_conform(args: &ConformArgs) -> ExitCode {
    let injected = match args.inject {
        None => None,
        Some(name) => match FaultId::parse(name) {
            Some(f) => Some(f),
            None => {
                eprintln!("error: unknown fault '{name}'; catalogued faults:");
                for f in FaultId::ALL {
                    eprintln!("  {:<22} {}", f.name(), f.describe());
                }
                return ExitCode::FAILURE;
            }
        },
    };

    // Mutation mode runs exactly the fault's case budget: exit status is
    // the harness's answer to "would the fuzzer catch this bug in time".
    let cases = injected.map_or(args.cases, FaultId::budget);
    let result = match run_conform(&ConformConfig {
        cases,
        seed: args.seed,
        jobs: args.jobs,
        inject: injected,
        check_programs: !args.fuzz_only,
        out_dir: Some(PathBuf::from(args.out)),
    }) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("conform: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Throughput and worker count go to stderr: stdout (like the JSON
    // report) is byte-identical for every --jobs value.
    let secs = result.elapsed.as_secs_f64();
    eprintln!(
        "conform: {} cases in {secs:.2}s on {} workers ({:.0} cases/sec)",
        result.cases,
        result.workers,
        if secs > 0.0 { result.cases as f64 / secs } else { 0.0 }
    );

    let status = if let Some(f) = injected {
        match result.first_detection() {
            Some(index) => {
                let witness = result.divergent.first().and_then(|o| o.divergence.as_ref());
                let (component, len) =
                    witness.map_or(("?", 0), |ce| (ce.component, ce.ops.len()));
                println!(
                    "fault {f} detected at case {index} (budget {}): {component} diverged, \
                     {len}-op witness",
                    f.budget()
                );
                ExitCode::SUCCESS
            }
            None => {
                println!("fault {f} ESCAPED its {}-case budget", f.budget());
                ExitCode::FAILURE
            }
        }
    } else {
        println!("conformance fuzz: {} cases, seed {}", result.cases, result.seed);
        println!("  {} stream ops, {} divergences", result.fuzz_ops, result.divergent.len());
        for outcome in &result.divergent {
            let ce = outcome.divergence.as_ref().expect("divergent cases carry a counterexample");
            println!(
                "  case {} ({}, stream seed {:#x}): {} diverged — {}",
                outcome.index, outcome.platform, outcome.seed, ce.component, ce.detail
            );
        }
        if !result.programs.is_empty() {
            println!("program cross-checks:");
            for check in &result.programs {
                match &check.divergence {
                    None => println!(
                        "  {:<14} ok ({} ops, {} platforms)",
                        check.program.name(),
                        check.ops,
                        check.platforms
                    ),
                    Some(d) => println!("  {:<14} DIVERGED: {d}", check.program.name()),
                }
            }
        }
        for path in &result.artifacts {
            println!("wrote counterexample {}", path.display());
        }
        if result.is_clean() { ExitCode::SUCCESS } else { ExitCode::FAILURE }
    };

    if let Some(path) = args.metrics {
        if let Err(e) = std::fs::write(path, result.to_json().render_pretty()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    status
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("list") => cmd_list(),
        Some("suite") => {
            let Some(suite_args) = parse_suite_args(it) else {
                eprintln!("error: bad suite arguments");
                return usage();
            };
            let spill = suite_args.spill();
            cmd_suite(
                suite_args.scale,
                suite_args.jobs,
                suite_args.seed,
                suite_args.metrics,
                suite_args.trace_cap,
                spill,
            )
        }
        Some("conform") => {
            let Some(conform_args) = parse_conform_args(it) else {
                eprintln!("error: bad conform arguments");
                return usage();
            };
            cmd_conform(&conform_args)
        }
        Some("sweep") => match parse_sweep_args(it) {
            Ok(sweep_args) => cmd_sweep(&sweep_args),
            Err(e) => {
                eprintln!("error: {e}");
                sweep_usage();
                ExitCode::from(SWEEP_USAGE_EXIT)
            }
        },
        Some(cmd @ ("characterize" | "candidates" | "coverage" | "evaluate")) => {
            let Some(program) = it.next().and_then(ProgramId::from_name) else {
                eprintln!("error: expected a program name");
                return usage();
            };
            let Some(scale) = parse_scale(it.next()) else {
                eprintln!("error: unknown scale");
                return usage();
            };
            match cmd {
                "characterize" => cmd_characterize(program, scale),
                "candidates" => cmd_candidates(program, scale),
                "coverage" => cmd_coverage(program, scale),
                "evaluate" => cmd_evaluate(program, scale),
                _ => unreachable!("matched above"),
            }
        }
        _ => usage(),
    }
}
