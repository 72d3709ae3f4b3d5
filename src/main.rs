//! `bioperf-loadchar` — command-line front end to the reproduction:
//! `list`, the per-program `characterize`/`candidates`/`coverage`/
//! `evaluate`, and the `suite`, `conform` and `sweep` runners. Every
//! subcommand reads its arguments with [`bioperf_core::cli`];
//! `bioperf-loadchar --help` prints the usage text below.

use std::path::PathBuf;
use std::process::ExitCode;

use bioperf_core::candidates::{find_candidates, CandidateCriteria};
use bioperf_core::characterize::characterize_program;
use bioperf_core::cli::{self, CliError, Spec};
use bioperf_core::orchestrate::{
    evaluate_all, run_conform, run_suite, ConformConfig, FaultId, SpillConfig, SuiteConfig,
};
use bioperf_core::report::{pct, pct2, TextTable};
use bioperf_core::sweep::{parse_list, run_sweep, AxisError, SweepConfig, SweepGrid};
use bioperf_isa::OpClass;
use bioperf_kernels::{ProgramId, Scale};
use bioperf_pipe::PlatformConfig;

const SEED: u64 = 42;

const USAGE: &str = "\
bioperf-loadchar — IISWC 2006 BioPerf load-characterization reproduction

usage:
  bioperf-loadchar list
  bioperf-loadchar characterize <program> [test|small|medium|large]
  bioperf-loadchar candidates   <program> [scale]
  bioperf-loadchar coverage     <program> [scale]
  bioperf-loadchar evaluate     <program> [scale]
  bioperf-loadchar suite [--scale <scale>] [--jobs <n>] [--seed <u64>]
                         [--metrics <out.json>] [--trace-cap <ops>]
                         [--spill-dir <dir>] [--segment-ops <ops>]
  bioperf-loadchar conform [--cases <n>] [--seed <u64>] [--jobs <n>]
                           [--metrics <out.json>] [--inject <fault>]
                           [--out <dir>] [--fuzz-only]
  bioperf-loadchar sweep [--grid smoke|standard|timing] [axis and run flags;
                         see 'sweep --help' for details]

suite runs the whole study — nine characterizations plus the 6-program ×
4-platform runtime evaluation — on a worker pool (--jobs 0 = all cores,
at most 256). Output is identical for every worker count. --metrics
additionally writes every paper metric, raw simulator event, and phase
timing as JSON; its \"deterministic\" section is byte-identical for every
--jobs value. Each job runs one kernel once and its platform models
consume the trace in blocks as it is produced, so nothing is recorded
and in-memory peak memory is O(workers x block), not O(trace).
--trace-cap bounds each trace's ops (0 = default capacity); an overflow
reports the first overflowing trace in job order, at any --jobs.
--spill-dir instead records traces as fixed-size segment files under
<dir> and streams each replay from disk (peak memory stays O(workers x
segment size); output is byte-identical to in-memory runs).
--segment-ops sets the ops per segment file (0 = default) and requires
--spill-dir. --trace-cap still bounds each trace's *total* ops across
all its segments.

conform differentially fuzzes every simulator against its naive reference
model (seeded, deterministic; shrunk counterexamples land in --out) and
cross-checks the nine real program traces end-to-end (--fuzz-only skips
that). --inject <fault> arms one catalogued mutation and exits 0 only if
the fuzzer detects it within the fault's case budget.

Unknown, repeated and value-less flags and malformed values exit 2 with
the offender named; --help prints this text.

programs: blast clustalw dnapenny fasta hmmcalibrate hmmpfam hmmsearch
          predator promlk   (evaluate: the six transformed programs only)";

const SWEEP_USAGE: &str = "\
usage: bioperf-loadchar sweep [--grid smoke|standard|timing] [--scale <scale>]
           [--seed <u64>] [--jobs <n>] [--programs <a,b>]
           [--l1 <KBxWAYS,..>] [--l2 <KBxWAYS,..>] [--line <BYTES,..>]
           [--lat <L1:L2:MEM,..>] [--pipe <WIDTHxROB,..>]
           [--pred <hybrid|aliased|bimodal,..>]
           [--prefetch <none|nextline|stride,..>]
           [--checkpoint <file>] [--max-cells <n>] [--out <report.json>]

Sweeps the configuration grid (axis flags override the preset's axes),
replaying both variants of each program through every cell, and prints
each program's Pareto frontier over (AMAT, speedup, hardware cost).
The presets: smoke (64 cells, the default), standard (576 cells) and
timing (one cache geometry, 24 timing cells). Output is byte-identical
for every --jobs value. --checkpoint appends completed cells to a
resumable bioperf-sweep/v1 file; --max-cells bounds new measurements per
invocation (exit 3 while cells remain). --out writes the deterministic
JSON report.";

/// Exit code of a sweep that ran cleanly but left cells unmeasured
/// because `--max-cells` capped the invocation.
const SWEEP_PARTIAL_EXIT: u8 = 3;

const NO_ARGS: Spec = Spec { values: &[], switches: &[], positionals: &[], required: 0 };

const PROGRAM_ARGS: Spec =
    Spec { values: &[], switches: &[], positionals: &["program", "scale"], required: 1 };

const SUITE_ARGS: Spec = Spec {
    values: &["--scale", "--jobs", "--seed", "--metrics", "--trace-cap", "--spill-dir", "--segment-ops"],
    switches: &[],
    positionals: &[],
    required: 0,
};

const CONFORM_ARGS: Spec = Spec {
    values: &["--cases", "--seed", "--jobs", "--metrics", "--inject", "--out"],
    switches: &["--fuzz-only"],
    positionals: &[],
    required: 0,
};

/// The axis flags are `--` plus each of [`SweepGrid::AXES`].
const SWEEP_ARGS: Spec = Spec {
    values: &[
        "--grid", "--scale", "--seed", "--jobs", "--programs", "--checkpoint", "--max-cells", "--out",
        "--l1", "--l2", "--line", "--lat", "--pipe", "--pred", "--prefetch",
    ],
    switches: &[],
    positionals: &[],
    required: 0,
};

fn program(name: &str) -> Result<ProgramId, AxisError> {
    ProgramId::from_name(name).ok_or_else(|| AxisError::Unknown { what: "program", item: name.into() })
}

/// The program and scale (default small) of `characterize`,
/// `candidates`, `coverage` and `evaluate`.
fn program_args(argv: &[String]) -> Result<(ProgramId, Scale), CliError> {
    let a = cli::read(argv, &PROGRAM_ARGS)?;
    let program = a.parse_with("program", program)?.expect("the program is a required positional");
    Ok((program, a.parse_with("scale", cli::scale)?.unwrap_or(Scale::Small)))
}

/// The suite configuration and the `--metrics` path.
fn suite_args(argv: &[String]) -> Result<(SuiteConfig, Option<&str>), CliError> {
    let a = cli::read(argv, &SUITE_ARGS)?;
    let segment_ops = a.number("--segment-ops")?.unwrap_or(0);
    // Segment sizing only means something when spilling is on.
    if segment_ops != 0 && a.value("--spill-dir").is_none() {
        let reason = "requires --spill-dir".into();
        return Err(CliError::BadValue { flag: "--segment-ops".into(), reason });
    }
    let metrics = a.value("--metrics");
    let config = SuiteConfig {
        scale: a.parse_with("--scale", cli::scale)?.unwrap_or(Scale::Test),
        seed: a.number("--seed")?.unwrap_or(SEED),
        jobs: a.jobs()?,
        // Raw event collection (the only part with a hot-loop cost) is
        // only switched on when the caller asked for the JSON snapshot.
        metrics: metrics.is_some(),
        trace_cap: a.number("--trace-cap")?.unwrap_or(0),
        spill: a.value("--spill-dir").map(|dir| SpillConfig { dir: PathBuf::from(dir), segment_ops }),
    };
    Ok((config, metrics))
}

/// The conform configuration (fault not yet resolved), the `--inject`
/// fault name and the `--metrics` path.
fn conform_args(
    argv: &[String],
) -> Result<(ConformConfig, Option<&str>, Option<&str>), CliError> {
    let a = cli::read(argv, &CONFORM_ARGS)?;
    let config = ConformConfig {
        cases: a.number("--cases")?.unwrap_or(256),
        seed: a.number("--seed")?.unwrap_or(SEED),
        jobs: a.jobs()?,
        inject: None,
        check_programs: !a.switch("--fuzz-only"),
        out_dir: Some(PathBuf::from(a.value("--out").unwrap_or("results/conform"))),
    };
    Ok((config, a.value("--inject"), a.value("--metrics")))
}

/// The sweep configuration and the `--out` report path.
fn sweep_args(argv: &[String]) -> Result<(SweepConfig, Option<&str>), CliError> {
    let a = cli::read(argv, &SWEEP_ARGS)?;
    let mut grid = a
        .parse_with("--grid", SweepGrid::preset)?
        .unwrap_or_else(SweepGrid::smoke);
    // Axis flags replace the preset's axes wholesale.
    for axis in SweepGrid::AXES {
        a.parse_with(&format!("--{axis}"), |value| grid.set_axis(axis, value))?;
    }
    let config = SweepConfig {
        scale: a.parse_with("--scale", cli::scale)?.unwrap_or(Scale::Test),
        seed: a.number("--seed")?.unwrap_or(SEED),
        jobs: a.jobs()?,
        programs: a.parse_with("--programs", |v| parse_list(v, program))?.unwrap_or_default(),
        grid,
        checkpoint: a.value("--checkpoint").map(PathBuf::from),
        max_cells: a.number("--max-cells")?.unwrap_or(0),
        factor: true,
    };
    Ok((config, a.value("--out")))
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
    let matrix = match evaluate_all(&[program], &PlatformConfig::all(), scale, SEED, 0) {
        Ok(matrix) => matrix,
        Err(e) => {
            eprintln!("evaluate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut table =
        TextTable::new(&["platform", "original (cycles)", "transformed", "speedup"]);
    for platform in PlatformConfig::all() {
        table.row_owned(match matrix.cell(program, platform.name) {
            None => vec![platform.name.into(), "n.a.".into(), "n.a.".into(), "n.a.".into()],
            Some(cell) => vec![
                platform.name.to_string(),
                cell.original.cycles.to_string(),
                cell.transformed.cycles.to_string(),
                format!("{:+.1}%", (cell.speedup() - 1.0) * 100.0),
            ],
        });
    }
    print!("{}", table.render());
    ExitCode::SUCCESS
}

fn cmd_suite(config: SuiteConfig, metrics: Option<&str>) -> ExitCode {
    let (scale, seed) = (config.scale, config.seed);
    let suite = match run_suite(config) {
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
    print!("{}", suite.eval.speedup_table(&ProgramId::TRANSFORMED, &platforms).render());

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

fn cmd_sweep(config: &SweepConfig, out: Option<&str>) -> ExitCode {
    let result = match run_sweep(config) {
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
         ({} replayed, {} from checkpoint, {} traces executed, \
         at most {} alive at once; {} lane-blocks, {} core-blocks run, {} materializations)",
        result.grid.cells(),
        result.programs.len(),
        result.workers,
        result.computed,
        result.cached,
        result.recorded,
        result.live_traces_peak,
        result.work.lane_blocks,
        result.work.core_blocks,
        result.work.materializations,
    );

    print!("{}", result.render_table());
    if !result.complete {
        println!(
            "sweep incomplete: --max-cells {} left cells unmeasured (rerun to continue)",
            config.max_cells
        );
    }

    if let Some(path) = out {
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

fn cmd_conform(mut config: ConformConfig, inject: Option<&str>, metrics: Option<&str>) -> ExitCode {
    let injected = match inject {
        None => None,
        Some(name) => match FaultId::parse(name) {
            Some(f) => Some(f),
            None => {
                eprintln!("error: unknown fault '{name}'; catalogued faults:");
                for f in FaultId::ALL {
                    eprintln!("  {:<22} {}", f.name(), f.describe());
                }
                return ExitCode::from(cli::USAGE_EXIT);
            }
        },
    };

    // Mutation mode runs exactly the fault's case budget: exit status is
    // the harness's answer to "would the fuzzer catch this bug in time".
    config.cases = injected.map_or(config.cases, FaultId::budget);
    config.inject = injected;
    let result = match run_conform(&config) {
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

    if let Some(path) = metrics {
        if let Err(e) = std::fs::write(path, result.to_json().render_pretty()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    status
}

fn main() -> ExitCode {
    let argv = cli::or_exit(cli::argv(), "error", USAGE);
    let rest = argv.get(1..).unwrap_or_default();
    let top = |e| cli::or_exit::<ExitCode>(Err(e), "error", USAGE);
    match argv.first().map(String::as_str) {
        None => top(CliError::Missing("command")),
        Some("--help" | "-h") => top(CliError::Help),
        Some("list") => {
            cli::or_exit(cli::read(rest, &NO_ARGS), "error: bad list arguments", USAGE);
            cmd_list()
        }
        Some("suite") => {
            let (config, metrics) =
                cli::or_exit(suite_args(rest), "error: bad suite arguments", USAGE);
            cmd_suite(config, metrics)
        }
        Some("conform") => {
            let (config, inject, metrics) =
                cli::or_exit(conform_args(rest), "error: bad conform arguments", USAGE);
            cmd_conform(config, inject, metrics)
        }
        Some("sweep") => {
            let (config, out) = cli::or_exit(sweep_args(rest), "error", SWEEP_USAGE);
            cmd_sweep(&config, out)
        }
        Some(cmd @ ("characterize" | "candidates" | "coverage" | "evaluate")) => {
            let (program, scale) =
                cli::or_exit(program_args(rest), &format!("error: bad {cmd} arguments"), USAGE);
            match cmd {
                "characterize" => cmd_characterize(program, scale),
                "candidates" => cmd_candidates(program, scale),
                "coverage" => cmd_coverage(program, scale),
                "evaluate" => cmd_evaluate(program, scale),
                _ => unreachable!("matched above"),
            }
        }
        Some(other) => top(CliError::Unexpected(other.into())),
    }
}
