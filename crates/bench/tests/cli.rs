//! End-to-end command-line contract of the table/figure binaries: bad
//! arguments are rejected loudly (exit status 2 plus a usage message),
//! never silently ignored, and `--json` writes a parseable document.
//!
//! Only the instant binaries (table6/table7, which run no kernels) are
//! spawned with *valid* arguments, so the test stays fast; the rejection
//! paths never get as far as running a workload on any binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary spawns")
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bioperf-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn unknown_scale_is_rejected_with_usage() {
    // A typo'd scale used to be silently... no: it panicked; but extra
    // args after a valid scale *were* silently ignored. Both must now be
    // status-2 usage errors.
    let out = run(env!("CARGO_BIN_EXE_fig1_instr_mix"), &["huge"]);
    assert_eq!(out.status.code(), Some(2), "unknown scale must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scale"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn extra_arguments_are_rejected_not_ignored() {
    let out = run(env!("CARGO_BIN_EXE_table8_runtime"), &["test", "extra"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = run(env!("CARGO_BIN_EXE_table2_cache_perf"), &["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));

    // A repeated flag is rejected by name before anything runs.
    let out = run(env!("CARGO_BIN_EXE_bench_sweep"), &["--grid", "smoke", "--grid", "standard"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("duplicate flag --grid") && err.contains("usage:"), "stderr: {err}");
}

#[test]
fn fixed_workload_binaries_reject_positional_args() {
    let out = run(env!("CARGO_BIN_EXE_table7_platforms"), &["medium"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument"));
}

#[test]
fn help_exits_zero_with_usage() {
    let out = run(env!("CARGO_BIN_EXE_fig9_speedup"), &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn json_twin_is_written_and_parses() {
    let path = tmp_path("table6.json");
    let out = run(
        env!("CARGO_BIN_EXE_table6_transform_scope"),
        &["--json", path.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("json twin written");
    std::fs::remove_file(&path).ok();
    let doc = bioperf_metrics::json::parse(&text).expect("twin parses");
    assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some("bioperf-table/v1"));
    assert_eq!(doc.get("artifact").and_then(|s| s.as_str()), Some("table6_transform_scope"));
    let table = doc.get("tables").and_then(|t| t.get("table6")).expect("table6 present");
    // Six transformed programs -> six rows.
    match table.get("rows") {
        Some(bioperf_metrics::Json::Array(rows)) => assert_eq!(rows.len(), 6),
        other => panic!("rows missing or not an array: {other:?}"),
    }
}

#[test]
fn unwritable_json_path_exits_1_naming_it() {
    let path = tmp_path("missing-dir").join("t7.json");
    let out = run(env!("CARGO_BIN_EXE_table7_platforms"), &["--json", path.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    let want = format!("table7_platforms: writing {}: ", path.display());
    assert!(err.contains(&want), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn bench_suite_rejects_bad_args_and_bad_documents() {
    let out = run(env!("CARGO_BIN_EXE_bench_suite"), &["--jobs", "many"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs expects a number, not 'many'"));

    // --check on a non-suite document must fail with status 1.
    let path = tmp_path("bogus-suite.json");
    std::fs::write(&path, "{\"schema\":\"something-else/v9\"}").unwrap();
    let out =
        run(env!("CARGO_BIN_EXE_bench_suite"), &["--check", "--out", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema tag"));
}
