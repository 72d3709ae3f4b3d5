//! The sweep engine oracle and speedup gate: runs one grid over every
//! transformed program **twice** — once through the factored two-pass
//! pipeline and once through the unfactored oracle (one live
//! `PlatformBank` member per cell) — and exits 1 unless every cell's
//! measurements are bit-identical between the two. It then prints a
//! wall-clock / cells-per-second comparison of the two. `--min-speedup
//! <x>` turns the comparison into a regression gate: exit status 1 if
//! the factored path is less than `x`× faster. `--grid standard` swaps
//! in the 576-cell exploration grid (the configuration the speedup
//! target is specified against), and `--grid timing` the 24-cell timing
//! grid. The sweep subcommand's axis flags (`--l1`, `--l2`, `--line`,
//! `--lat`, `--pipe`, `--pred`, `--prefetch`) replace the preset's axes
//! wholesale, so any grid can be diffed against the oracle.
//!
//! It writes no file: the committed `BENCH_sweep.json` has one producer,
//! `bioperf-loadchar sweep --out`.

use std::time::Instant;

use bioperf_bench::{banner, REPRO_SEED};
use bioperf_core::cli::{self, CliError, Spec};
use bioperf_core::sweep::{run_sweep, SweepConfig, SweepGrid, SweepResult};
use bioperf_kernels::Scale;

const ARTIFACT: &str = "bench_sweep";

const USAGE: &str = "usage: bench_sweep [test|small|medium|large] [--jobs <n>] \
                     [--grid smoke|standard|timing] [--min-speedup <x>]\n       \
                     [--l1 <KBxWAYS,..>] [--l2 <KBxWAYS,..>] [--line <BYTES,..>] \
                     [--lat <L1:L2:MEM,..>] [--pipe <WIDTHxROB,..>] [--pred <name,..>] \
                     [--prefetch <name,..>]";

/// The axis flags are `--` plus each of [`SweepGrid::AXES`].
const SPEC: Spec = Spec {
    values: &[
        "--jobs", "--grid", "--min-speedup", "--l1", "--l2", "--line", "--lat", "--pipe", "--pred",
        "--prefetch",
    ],
    switches: &[],
    positionals: &["scale"],
    required: 0,
};

struct Args {
    scale: Scale,
    jobs: usize,
    grid: SweepGrid,
    min_speedup: Option<f64>,
}

fn read_args(argv: &[String]) -> Result<Args, CliError> {
    let a = cli::read(argv, &SPEC)?;
    let mut grid = a.parse_with("--grid", SweepGrid::preset)?.unwrap_or_else(SweepGrid::smoke);
    for axis in SweepGrid::AXES {
        a.parse_with(&format!("--{axis}"), |value| grid.set_axis(axis, value))?;
    }
    Ok(Args {
        scale: a.parse_with("scale", cli::scale)?.unwrap_or(Scale::Test),
        jobs: a.jobs()?,
        grid,
        min_speedup: a.parse_with("--min-speedup", cli::positive)?,
    })
}

fn main() {
    let argv = cli::or_exit(cli::argv(), ARTIFACT, USAGE);
    let args = cli::or_exit(read_args(&argv), ARTIFACT, USAGE);

    banner("Design-space sweep: factored engine vs unfactored oracle", args.scale);
    let cfg = SweepConfig {
        scale: args.scale,
        seed: REPRO_SEED,
        jobs: args.jobs,
        programs: Vec::new(), // every transformed program
        grid: args.grid,
        checkpoint: None,
        max_cells: 0,
        factor: true,
    };
    let timed = |cfg: &SweepConfig| -> (SweepResult, f64) {
        let start = Instant::now();
        let result = run_sweep(cfg).unwrap_or_else(|e| {
            eprintln!("{ARTIFACT}: {e}");
            std::process::exit(1);
        });
        (result, start.elapsed().as_secs_f64())
    };
    let (result, factored_secs) = timed(&cfg);
    let (oracle, unfactored_secs) = timed(&SweepConfig { factor: false, ..cfg });

    // The comparison is only meaningful if the two strategies agree; a
    // mismatch here is a correctness bug, not a performance result.
    for (p, per_cell) in result.measures.iter().enumerate() {
        if *per_cell != oracle.measures[p] {
            eprintln!(
                "{ARTIFACT}: factored and unfactored measurements diverge for {}",
                result.programs[p].name()
            );
            std::process::exit(1);
        }
    }
    println!(
        "engines agree on all {} cells x {} programs ({} skipped)",
        result.grid.cells(),
        result.programs.len(),
        result.skipped.len()
    );

    let cells = result.computed as f64;
    let speedup = unfactored_secs / factored_secs;
    println!(
        "factored:   {factored_secs:8.2} s  {:9.1} cells/s",
        cells / factored_secs
    );
    println!(
        "unfactored: {unfactored_secs:8.2} s  {:9.1} cells/s",
        cells / unfactored_secs
    );
    println!("speedup:    {speedup:8.2} x");

    if let Some(floor) = args.min_speedup {
        if speedup < floor {
            eprintln!(
                "{ARTIFACT}: factored sweep speedup {speedup:.2}x is below the {floor:.2}x floor"
            );
            std::process::exit(1);
        }
        println!("speedup floor ok ({speedup:.2}x >= {floor:.2}x)");
    }
}
