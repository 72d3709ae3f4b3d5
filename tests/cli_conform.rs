//! CLI contract tests for the `conform` and `suite` subcommands: exit
//! codes and diagnostics for the error paths (trace-capacity overflow,
//! unwritable `--metrics` targets, unknown faults), plus the
//! worker-count-independence of conform's stdout and JSON report.

use std::process::{Command, Output};

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
fn suite_trace_cap_overflow_exits_1_with_a_typed_diagnostic() {
    let out = run(&["suite", "--jobs", "2", "--trace-cap", "16"]);
    assert!(!out.status.success(), "16-op recorder cap must fail the suite");
    let err = stderr(&out);
    assert!(err.contains("suite:"), "stderr: {err}");
    assert!(err.contains("capacity"), "stderr: {err}");
    assert!(err.contains("16 ops"), "stderr should report the captured prefix: {err}");
}

#[test]
fn conform_rejects_an_unwritable_metrics_path() {
    let out = run(&[
        "conform",
        "--cases",
        "2",
        "--fuzz-only",
        "--metrics",
        "/nonexistent-dir/conform.json",
    ]);
    assert!(!out.status.success(), "unwritable --metrics path must exit 1");
    let err = stderr(&out);
    assert!(err.contains("error: writing /nonexistent-dir/conform.json"), "stderr: {err}");
}

#[test]
fn conform_rejects_an_unknown_fault_and_lists_the_catalogue() {
    let out = run(&["conform", "--inject", "no-such-fault"]);
    assert_eq!(out.status.code(), Some(2), "an unknown fault is a usage error");
    let err = stderr(&out);
    assert!(err.contains("unknown fault 'no-such-fault'"), "stderr: {err}");
    // The listing names every catalogued fault with its description.
    for name in ["cache-lru-touch", "packed-ssa-resync", "pipe-dropped-flush", "branch-chooser-stale"]
    {
        assert!(err.contains(name), "fault listing missing {name}: {err}");
    }
}

#[test]
fn conform_rejects_malformed_flags() {
    let out = run(&["conform", "--cases"]);
    assert_eq!(out.status.code(), Some(2), "--cases without a value is a usage error");
    assert!(stderr(&out).contains("bad conform arguments"));
    let out = run(&["conform", "--frobnicate", "1"]);
    assert!(!out.status.success());
    // Repeated flags and an unbounded worker count are usage errors that
    // name the flag, rejected before anything runs.
    for (bad, prefix, flag) in [
        (vec!["conform", "--seed", "1", "--seed", "2"], "bad conform arguments", "--seed"),
        (vec!["conform", "--jobs", "100000"], "bad conform arguments", "--jobs"),
        (vec!["suite", "--jobs", "1", "--jobs", "2"], "bad suite arguments", "--jobs"),
    ] {
        let out = run(&bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?} must exit 2");
        let err = stderr(&out);
        assert!(err.contains(prefix) && err.contains(flag), "{bad:?}: {err}");
        assert!(err.contains("usage:"), "{bad:?}: usage missing: {err}");
    }
    let out = run(&["suite", "--help"]);
    assert_eq!(out.status.code(), Some(0), "suite --help prints usage");
    assert!(stdout(&out).contains("usage:"), "stdout: {}", stdout(&out));
}

#[test]
fn clean_fuzz_run_exits_0_and_stdout_is_worker_count_independent() {
    let seq = run(&["conform", "--cases", "6", "--seed", "9", "--jobs", "1", "--fuzz-only"]);
    let par = run(&["conform", "--cases", "6", "--seed", "9", "--jobs", "2", "--fuzz-only"]);
    assert!(seq.status.success(), "clean fuzz run must exit 0: {}", stderr(&seq));
    assert!(par.status.success());
    let a = stdout(&seq);
    assert!(a.contains("0 divergences"), "stdout: {a}");
    assert_eq!(a, stdout(&par), "conform stdout must not depend on --jobs");
}

#[test]
fn conform_metrics_json_is_byte_identical_across_worker_counts() {
    let dir = std::env::temp_dir().join(format!("bioperf-conform-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("jobs1.json");
    let b = dir.join("jobs2.json");
    let mk = |jobs: &str, path: &std::path::Path| {
        run(&[
            "conform",
            "--cases",
            "6",
            "--seed",
            "9",
            "--jobs",
            jobs,
            "--fuzz-only",
            "--metrics",
            path.to_str().expect("utf-8 temp path"),
        ])
    };
    let seq = mk("1", &a);
    let par = mk("2", &b);
    assert!(seq.status.success(), "{}", stderr(&seq));
    assert!(par.status.success(), "{}", stderr(&par));
    let a = std::fs::read_to_string(&a).expect("jobs1 report");
    let b = std::fs::read_to_string(&b).expect("jobs2 report");
    assert_eq!(a, b, "conform JSON report must be byte-identical across --jobs");
    assert!(a.contains("\"schema\": \"bioperf-conform/v1\""), "{a}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_fault_is_detected_and_reported() {
    // packed-src-delta has the smallest budget (32 cases), so this stays
    // quick even in debug builds.
    let out = run(&["conform", "--inject", "packed-src-delta", "--fuzz-only"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("fault packed-src-delta detected at case"), "stdout: {text}");
    assert!(text.contains("witness"), "stdout: {text}");
}
