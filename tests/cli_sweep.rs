//! CLI contract tests for the `sweep` subcommand: strict argument
//! parsing (unknown, malformed, duplicate, and value-less flags exit 2
//! with usage — the bench-CLI convention), worker-count and
//! `--no-factor` independence of stdout and the JSON report across a
//! ≥500-cell grid, the partial-exit
//! contract of `--max-cells`, skipped-cell diagnostics for degenerate
//! geometries, and the schema pin of the committed `BENCH_sweep.json`
//! artifact.

use std::process::{Command, Output};

use bioperf_core::pareto::ParetoPoint;
use bioperf_core::sweep::SWEEP_SCHEMA;
use bioperf_metrics::{json, Json};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bioperf-loadchar"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn malformed_sweep_command_lines_exit_2_with_usage() {
    for (bad, why) in [
        (vec!["sweep", "--frobnicate", "1"], "unknown flag"),
        (vec!["sweep", "--jobs"], "missing value"),
        (vec!["sweep", "--jobs", "two"], "malformed number"),
        (vec!["sweep", "--jobs", "1", "--jobs", "2"], "duplicate flag"),
        (vec!["sweep", "--l1", "32y2"], "malformed axis value"),
        (vec!["sweep", "--lat", "3:5"], "incomplete latency triple"),
        (vec!["sweep", "--grid", "huge"], "unknown grid"),
        (vec!["sweep", "--scale", "huge"], "unknown scale"),
        (vec!["sweep", "--pred", "oracle"], "unknown predictor"),
        (vec!["sweep", "--prefetch", "psychic"], "unknown prefetcher"),
        (vec!["sweep", "--programs", "nosuch"], "unknown program"),
    ] {
        let out = run(&bad);
        assert_eq!(out.status.code(), Some(2), "{why}: {bad:?} must exit 2");
        let err = stderr(&out);
        assert!(err.contains("error:"), "{why}: diagnostic missing: {err}");
        assert!(err.contains("usage:"), "{why}: usage missing: {err}");
    }
}

#[test]
fn standard_grid_sweep_is_byte_identical_across_worker_counts() {
    // ≥ 500 configurations: the standard preset enumerates 576 cells.
    let dir = std::env::temp_dir().join(format!("bioperf-sweep-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("jobs1.json");
    let b = dir.join("jobs4.json");
    let c = dir.join("oracle.json");
    let mk = |extra: &[&str], path: &std::path::Path| {
        let mut args = vec!["sweep", "--grid", "standard", "--programs", "predator"];
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--out", path.to_str().expect("utf-8 temp path")]);
        run(&args)
    };
    let seq = mk(&["--jobs", "1"], &a);
    let par = mk(&["--jobs", "4"], &b);
    let oracle = mk(&["--jobs", "4", "--no-factor"], &c);
    assert!(seq.status.success(), "{}", stderr(&seq));
    assert!(par.status.success(), "{}", stderr(&par));
    assert!(oracle.status.success(), "{}", stderr(&oracle));
    assert_eq!(stdout(&seq), stdout(&par), "sweep stdout must not depend on --jobs");
    assert_eq!(
        stdout(&par),
        stdout(&oracle),
        "sweep stdout must not depend on --no-factor"
    );
    let a = std::fs::read_to_string(&a).expect("jobs1 report");
    let b = std::fs::read_to_string(&b).expect("jobs4 report");
    let c = std::fs::read_to_string(&c).expect("oracle report");
    assert_eq!(a, b, "sweep JSON report must be byte-identical across --jobs");
    assert_eq!(b, c, "the factored sweep must match the --no-factor oracle byte for byte");
    let doc = json::parse(&a).expect("report parses");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SWEEP_SCHEMA));
    let config = doc.get("deterministic").and_then(|d| d.get("config")).expect("config");
    assert_eq!(config.get("cells").and_then(Json::as_u64), Some(576));
    assert_eq!(config.get("complete").and_then(Json::as_u64), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn max_cells_budget_exits_3_and_reports_the_interruption() {
    let out = run(&["sweep", "--programs", "predator", "--max-cells", "3"]);
    assert_eq!(out.status.code(), Some(3), "a budget-capped sweep must exit 3");
    assert!(stdout(&out).contains("sweep incomplete"), "stdout: {}", stdout(&out));
}

#[test]
fn degenerate_cells_are_skipped_with_diagnostics_not_panics() {
    // An L2 axis whose set count is not a power of two: every cell using
    // it is diagnosed and skipped; the sweep itself still succeeds.
    let out = run(&[
        "sweep",
        "--programs",
        "predator",
        "--l1",
        "32x2",
        "--l2",
        "4096x1,3000x1",
        "--line",
        "64",
        "--pred",
        "hybrid",
        "--prefetch",
        "none",
        "--pipe",
        "4x80",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("skipped cells:"), "stdout: {text}");
    assert!(text.contains("set count must be a power of two"), "stdout: {text}");
    // The valid half of the grid still produced a frontier.
    assert!(text.contains("predator Pareto frontier:"), "stdout: {text}");

    // Zero ways takes the ZeroGeometry path of the same machinery.
    let out = run(&["sweep", "--programs", "predator", "--l1", "32x0,32x2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("zero-sized cache"), "stdout: {}", stdout(&out));

    // Pipe shapes the timing core cannot run (zero width, empty ROB) are
    // diagnosed the same way, next to a valid shape that still runs.
    let out = run(&["sweep", "--programs", "predator", "--l1", "32x2", "--pipe", "0x80,4x0,4x80"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for shape in ["pipe 0x80:", "pipe 4x0:"] {
        assert!(text.contains(shape), "stdout: {text}");
    }
    assert!(!text.contains("pipe 4x80:"), "stdout: {text}");
    assert!(text.contains("predator Pareto frontier:"), "stdout: {text}");
}

fn load_committed_artifact() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_sweep.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("{path} must be committed (regenerate with `cargo run --release --bin bench_sweep`): {e}")
    });
    json::parse(&text).expect("BENCH_sweep.json parses with the in-workspace parser")
}

#[test]
fn committed_sweep_artifact_matches_schema_v1() {
    let doc = load_committed_artifact();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SWEEP_SCHEMA));
    assert_eq!(doc.keys(), vec!["schema", "deterministic"]);
    let det = doc.get("deterministic").expect("deterministic section");
    assert_eq!(det.keys(), vec!["config", "skipped", "frontier"]);
    let config = det.get("config").expect("config");
    assert_eq!(config.keys(), vec!["scale", "seed", "grid_hash", "cells", "programs", "complete"]);
    assert_eq!(config.get("seed").and_then(Json::as_u64), Some(42));
    assert_eq!(config.get("cells").and_then(Json::as_u64), Some(64));
    assert_eq!(config.get("complete").and_then(Json::as_u64), Some(1));

    let frontier = det.get("frontier").expect("frontier");
    let programs = frontier.keys();
    assert_eq!(
        programs,
        vec!["dnapenny", "hmmpfam", "hmmsearch", "hmmcalibrate", "predator", "clustalw"],
        "one frontier per transformed program, in enumeration order"
    );
    for program in programs {
        let Some(Json::Array(points)) = frontier.get(program) else {
            panic!("frontier.{program} is not an array")
        };
        assert!(!points.is_empty(), "frontier.{program} is empty");
        for point in points {
            for key in
                ["cell", "config", "amat", "speedup", "cost", "cycles_original", "cycles_transformed"]
            {
                assert!(point.get(key).is_some(), "frontier.{program} point missing {key}");
            }
        }
    }
}

#[test]
fn committed_frontiers_are_mutually_non_dominated() {
    let doc = load_committed_artifact();
    let frontier = doc.get("deterministic").and_then(|d| d.get("frontier")).expect("frontier");
    for program in frontier.keys() {
        let Some(Json::Array(points)) = frontier.get(program) else { unreachable!() };
        let points: Vec<ParetoPoint> = points
            .iter()
            .map(|p| ParetoPoint {
                id: p.get("cell").and_then(Json::as_u64).expect("cell") as u32,
                amat: p.get("amat").and_then(Json::as_f64).expect("amat"),
                speedup: p.get("speedup").and_then(Json::as_f64).expect("speedup"),
                cost: p.get("cost").and_then(Json::as_u64).expect("cost"),
            })
            .collect();
        for a in &points {
            for b in &points {
                assert!(
                    !a.dominates(b),
                    "{program}: committed frontier cell {} dominates cell {}",
                    a.id,
                    b.id
                );
            }
        }
    }
}
