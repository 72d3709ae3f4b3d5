//! The design-space sweep snapshot: runs the smoke grid over every
//! transformed program and writes each program's Pareto frontier as one
//! JSON document (`BENCH_sweep.json` at the repository root; CI
//! regenerates and schema-checks it on every push).
//!
//! The sweep runs **twice** — once through the factored two-pass
//! pipeline and once through the unfactored oracle (one live
//! `PlatformBank` member per cell) — and exits 1 unless every cell's
//! measurements are bit-identical between the two; this is the oracle
//! check. It then prints a wall-clock / cells-per-second comparison of
//! the two. `--min-speedup <x>` turns the comparison into a regression
//! gate: exit status 1 if the factored path is less than `x`× faster.
//! `--grid standard` swaps in the 576-cell exploration grid (the
//! configuration the speedup target is specified against), and `--grid
//! timing` the 24-cell timing grid.
//!
//! `--check` mode does not run anything: it parses an existing document
//! and verifies its `bioperf-sweep/v1` shape, failing with exit status 1
//! on drift — the guard CI runs against the committed artifact.

use std::path::PathBuf;
use std::time::Instant;

use bioperf_bench::{banner, write_or_exit, REPRO_SEED};
use bioperf_core::cli::{self, CliError, Spec};
use bioperf_core::sweep::{run_sweep, SweepConfig, SweepGrid, SweepResult, SWEEP_SCHEMA};
use bioperf_kernels::Scale;
use bioperf_metrics::{json, Json};

const ARTIFACT: &str = "bench_sweep";

const USAGE: &str = "usage: bench_sweep [test|small|medium|large] [--jobs <n>] [--out <path>] \
                     [--grid smoke|standard|timing] [--min-speedup <x>] [--check]";

const SPEC: Spec = Spec {
    values: &["--jobs", "--out", "--grid", "--min-speedup"],
    switches: &["--check"],
    positionals: &["scale"],
    required: 0,
};

struct Args {
    scale: Scale,
    jobs: usize,
    out: PathBuf,
    grid: SweepGrid,
    min_speedup: Option<f64>,
    check: bool,
}

fn read_args(argv: &[String]) -> Result<Args, CliError> {
    let a = cli::read(argv, &SPEC)?;
    Ok(Args {
        scale: a.parse_with("scale", cli::scale)?.unwrap_or(Scale::Test),
        jobs: a.jobs()?,
        out: PathBuf::from(a.value("--out").unwrap_or("BENCH_sweep.json")),
        grid: a
            .parse_with("--grid", SweepGrid::preset)?
            .unwrap_or_else(SweepGrid::smoke),
        min_speedup: a.parse_with("--min-speedup", cli::positive)?,
        check: a.switch("--check"),
    })
}

/// The schema invariants `--check` pins (and the `cli_sweep` test
/// re-checks against the committed artifact).
fn check_document(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SWEEP_SCHEMA) {
        return Err(format!("schema tag is not {SWEEP_SCHEMA:?}"));
    }
    if doc.keys() != vec!["schema", "deterministic"] {
        return Err(format!("unexpected top-level keys {:?}", doc.keys()));
    }
    let det = doc.get("deterministic").ok_or("missing deterministic section")?;
    if det.keys() != vec!["config", "skipped", "frontier"] {
        return Err(format!("unexpected deterministic keys {:?}", det.keys()));
    }
    let config = det.get("config").ok_or("missing config")?;
    if config.keys() != vec!["scale", "seed", "grid_hash", "cells", "programs", "complete"] {
        return Err(format!("unexpected config keys {:?}", config.keys()));
    }
    if config.get("complete").and_then(Json::as_u64) != Some(1) {
        return Err("committed sweep artifact must be complete".into());
    }
    let frontier = det.get("frontier").ok_or("missing frontier section")?;
    for program in frontier.keys() {
        let points = frontier.get(program).expect("listed key");
        let Json::Array(points) = points else {
            return Err(format!("frontier.{program} is not an array"));
        };
        if points.is_empty() {
            return Err(format!("frontier.{program} is empty"));
        }
        for point in points {
            for key in
                ["cell", "config", "amat", "speedup", "cost", "cycles_original", "cycles_transformed"]
            {
                if point.get(key).is_none() {
                    return Err(format!("a frontier.{program} point is missing {key:?}"));
                }
            }
        }
    }
    Ok(())
}

fn main() {
    let argv = cli::or_exit(cli::argv(), ARTIFACT, USAGE);
    let args = cli::or_exit(read_args(&argv), ARTIFACT, USAGE);

    if args.check {
        let checked = std::fs::read_to_string(&args.out)
            .map_err(|e| format!("cannot be read: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("does not parse: {e}")))
            .and_then(|doc| check_document(&doc));
        if let Err(msg) = checked {
            eprintln!("{ARTIFACT}: {}: {msg}", args.out.display());
            std::process::exit(1);
        }
        println!("{}: schema ok ({SWEEP_SCHEMA})", args.out.display());
        return;
    }

    banner("Design-space sweep: Pareto frontiers + factored-path timing", args.scale);
    let cfg = SweepConfig {
        scale: args.scale,
        seed: REPRO_SEED,
        jobs: args.jobs,
        programs: Vec::new(), // every transformed program
        grid: args.grid.clone(),
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

    print!("{}", result.render_table());
    let doc = result.to_json();
    check_document(&doc).expect("freshly generated sweep document must satisfy its own schema");
    write_or_exit(ARTIFACT, &args.out, &doc.render_pretty());
    println!(
        "wrote {} ({} cells x {} programs, {} skipped)",
        args.out.display(),
        result.grid.cells(),
        result.programs.len(),
        result.skipped.len()
    );

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
