//! Exit statuses of the `bench_perf` executable.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_perf"))
        .args(args)
        .output()
        .expect("bench_perf runs")
}

#[test]
fn rejected_command_lines_exit_with_the_usage_status() {
    for bad in [
        &["--workload", "nope"][..],
        &["--frobnicate"],
        &["--workload", "suite-small", "--trace", "yes"],
    ] {
        let out = run(bad);
        assert_eq!(
            out.status.code(),
            Some(bioperf_bench::USAGE_EXIT),
            "{bad:?}"
        );
        assert!(out.stdout.is_empty(), "{bad:?} must print no result line");
    }
}

#[test]
fn check_passes_on_the_committed_benchmark_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_perf"))
        .arg("--check")
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("bench_perf runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
