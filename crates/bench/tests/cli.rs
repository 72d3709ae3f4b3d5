//! End-to-end command-line contract of the table/figure binaries: bad
//! arguments are rejected loudly (exit status 2 plus a usage message),
//! never silently ignored, `--json` writes a parseable document, and a
//! closed stdout ends a binary by `SIGPIPE` rather than a panic.
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
fn bench_sweep_takes_no_output_flags() {
    // The sweep oracle writes no file: `bioperf-loadchar sweep --out` is
    // the committed artifact's only producer.
    for flag in ["--out", "--check"] {
        let out = run(env!("CARGO_BIN_EXE_bench_sweep"), &[flag, "x.json"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option '{flag}'")), "stderr: {err}");
    }
}

#[cfg(unix)]
#[test]
fn closed_stdout_ends_the_binary_by_sigpipe_without_a_panic() {
    use std::os::unix::process::ExitStatusExt;

    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_table7_platforms"))
        .stdout(writer)
        .output()
        .expect("binary spawns");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.signal(), Some(13), "status {:?}, stderr: {err}", out.status);
    assert!(!err.contains("panicked"), "stderr: {err}");
}
