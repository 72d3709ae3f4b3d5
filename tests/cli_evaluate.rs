//! CLI contract tests for `evaluate <program> [scale]`: each applicable
//! platform row carries the cycles the per-cell reference
//! (`evaluate_program`) simulates, the cell the paper could not run
//! reads `n.a.`, and a program without a load-transformed variant is
//! rejected with exit 1.

use std::process::{Command, Output};

use bioperf_loadchar::core::evaluate::{evaluate_program, EvalMatrix};
use bioperf_loadchar::kernels::{ProgramId, Scale};
use bioperf_loadchar::pipe::PlatformConfig;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bioperf-loadchar")).args(args).output().expect("binary runs")
}

#[test]
fn evaluate_rows_match_the_per_cell_reference() {
    let out = run(&["evaluate", "dnapenny", "test"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "evaluate failed: {}", String::from_utf8_lossy(&out.stderr));
    let program = ProgramId::Dnapenny;
    for platform in PlatformConfig::all() {
        let row = stdout
            .lines()
            .find_map(|line| line.strip_prefix(platform.name))
            .unwrap_or_else(|| panic!("no {} row in:\n{stdout}", platform.name));
        let fields: Vec<&str> = row.split_whitespace().collect();
        if !EvalMatrix::cell_applicable(program, platform.name) {
            assert_eq!(fields, ["n.a."; 3], "{}", platform.name);
            continue;
        }
        let cell = evaluate_program(program, platform, Scale::Test, 42);
        assert_eq!(fields[0], cell.original.cycles.to_string(), "{} original", platform.name);
        assert_eq!(fields[1], cell.transformed.cycles.to_string(), "{} transformed", platform.name);
    }
    assert!(stdout.contains("Itanium"), "the n.a. row is printed, not dropped:\n{stdout}");
}

#[test]
fn evaluate_rejects_an_untransformed_program() {
    let out = run(&["evaluate", "blast", "test"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("blast has no load-transformed variant"), "{stderr}");
    assert!(out.stdout.is_empty());
}
