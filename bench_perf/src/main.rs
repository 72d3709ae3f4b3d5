//! `bench_perf`: one command for the end-to-end and per-layer
//! performance of the trace -> cache -> timing pipeline.
//!
//! ```text
//! bench_perf --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! bench_perf --check
//! ```
//!
//! With `--trace 0` it times samples of one workload's public entry point
//! (`orchestrate::run_suite` or `sweep::run_sweep`), one at a time, each
//! in a child process of its own (this executable re-invoked with the
//! hidden `--sample` flag), until `--seconds` would be exceeded; it
//! prints each end-to-end metric's distribution and checks the outputs.
//! With `--trace 1` it runs the traced pass of `layers` instead and
//! prints the per-layer metrics. The last line of standard output is
//! always one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--check` validates `BENCHMARK.json` in the working directory. See
//! README.md in this directory.

mod layers;
mod spec;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use bioperf_bench::USAGE_EXIT;
use bioperf_metrics::{json, Json};

use crate::spec::{Metric, END_TO_END, PER_LAYER, PINNED_SEED};
use crate::workload::{SampleOut, Workload};

const USAGE: &str =
    "usage: bench_perf --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
       bench_perf --check
workloads: suite-small suite-small-spill sweep-cache sweep-timing";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    Check,
    Run {
        workload: Workload,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    /// One sample, in a child process (the hidden `--sample` flag).
    Sample {
        workload: Workload,
        seed: u64,
        tmp: PathBuf,
    },
}

/// Strict parser: an unknown flag, a duplicate, a missing or malformed
/// value, or an unknown workload is an error.
fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut flags: Vec<(&str, &str)> = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if ![
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--check",
            "--sample",
            "--tmp",
        ]
        .contains(&flag)
        {
            return Err(format!("unknown argument '{flag}'"));
        }
        if flags.iter().any(|(f, _)| *f == flag) {
            return Err(format!("duplicate {flag}"));
        }
        let value = if flag == "--check" {
            ""
        } else {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))?
        };
        flags.push((flag, value));
    }
    let get = |flag: &str| flags.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v);
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} needs a whole number"))
        })
    };
    let workload = |flag: &str| -> Result<Workload, String> {
        let name = get(flag).ok_or("--workload is required")?;
        Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))
    };
    let allowed = |mode: &[&str]| -> Result<(), String> {
        match flags.iter().find(|(f, _)| !mode.contains(f)) {
            Some((f, _)) => Err(format!("{f} does not go with {}", mode[0])),
            None => Ok(()),
        }
    };
    if get("--check").is_some() {
        allowed(&["--check"])?;
        return Ok(Mode::Check);
    }
    if get("--sample").is_some() {
        allowed(&["--sample", "--seed", "--tmp"])?;
        return Ok(Mode::Sample {
            workload: workload("--sample")?,
            seed: number("--seed", PINNED_SEED)?,
            tmp: PathBuf::from(get("--tmp").ok_or("--tmp is required")?),
        });
    }
    allowed(&["--workload", "--seed", "--seconds", "--trace"])?;
    let seconds = number("--seconds", 25)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    Ok(Mode::Run {
        workload: workload("--workload")?,
        seed: number("--seed", PINNED_SEED)?,
        seconds,
        trace,
    })
}

/// Worker threads for every sample: `min(nproc, 4)`.
fn jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one sample in a child process and parses its report.
fn spawn_sample(w: Workload, seed: u64, tmp: &Path) -> Result<SampleOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--sample", w.name(), "--seed", &seed.to_string()])
        .arg("--tmp")
        .arg(tmp)
        // Anything the program puts in the system temp dir stays here.
        .env("TMPDIR", tmp)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a sample: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "sample exited with {}: {}",
            out.status,
            stdout.trim()
        ));
    }
    let line = stdout.lines().last().ok_or("sample printed nothing")?;
    SampleOut::from_json(&json::parse(line)?)
}

/// The result line: the last line the benchmark prints.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&Metric, Json)>,
) -> String {
    let metrics = metrics
        .into_iter()
        .map(|(m, value)| {
            (
                m.name.to_string(),
                Json::object(vec![("value", value), ("unit", Json::str(m.unit))]),
            )
        })
        .collect();
    Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted as u64)),
        ("failed", Json::U64(failed as u64)),
        ("metrics", Json::Object(metrics)),
    ])
    .render()
}

/// One sample's value of an end-to-end metric, with times rescaled to
/// the reference host speed.
fn sample_value(m: &Metric, s: &SampleOut) -> f64 {
    let speed = s.speed();
    match m.name {
        "wall_s" => s.wall_s * speed,
        "setup_s" => s.setup_s * speed,
        "cpu_s" => s.cpu_s * speed,
        "peak_rss_mib" => s.rss_bytes as f64 / f64::from(1 << 20),
        "sim_mops" => s.sim_ops as f64 / (s.wall_s * speed) / 1e6,
        other => panic!("no sample value for end-to-end metric {other}"),
    }
}

/// Samples one workload for `seconds`, then checks and reports.
fn run_end_to_end(w: Workload, seed: u64, seconds: u64, tmp: &Path) -> Result<bool, String> {
    let reference = spec::reference()?;
    let start = Instant::now();
    let mut samples: Vec<Result<SampleOut, String>> = Vec::new();
    loop {
        let t = Instant::now();
        samples.push(spawn_sample(w, seed, tmp));
        // Stop before a sample that would run past the time budget.
        if (start.elapsed() + t.elapsed()).as_secs_f64() > seconds as f64 {
            break;
        }
    }

    // Every sample must reproduce the same output: the pinned digest at
    // the pinned seed, otherwise the first sample's.
    let mut expected = if seed == PINNED_SEED {
        Some(spec::pinned_digest(&reference, w)?)
    } else {
        None
    };
    let mut failed = 0;
    let mut good: Vec<SampleOut> = Vec::new();
    for (i, s) in samples.into_iter().enumerate() {
        match s {
            Ok(s) => {
                let digest = workload::digest_hex(&s.rows);
                let want = expected.get_or_insert_with(|| digest.clone());
                if digest == *want {
                    good.push(s);
                } else {
                    eprintln!("sample {i}: output digest {digest}, expected {want}");
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("sample {i}: {e}");
                failed += 1;
            }
        }
    }
    let attempted = failed + good.len();
    let mut correct = failed == 0 && !good.is_empty();
    if let Some(first) = good.first() {
        match workload::spot_check(w, seed, &first.rows) {
            Ok(key) => println!("spot check: {key} matches a direct simulation"),
            Err(e) => {
                eprintln!("spot check failed: {e}");
                correct = false;
            }
        }
        if !first.hmean.is_empty() {
            let pct = |xs: Vec<f64>| {
                xs.iter()
                    .map(|x| format!("{x:+.1}%"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            println!(
                "harmonic-mean speedups (Alpha, G5, P4, Itanium): {}; paper Figure 9: {}; mean error {:.2} pp",
                pct(first.hmean.iter().map(|h| (h - 1.0) * 100.0).collect()),
                pct(workload::PAPER_FIG9_PCT.to_vec()),
                workload::paper_err_pp(&first.hmean)
            );
        }
    }
    println!(
        "{} seed {seed}: {attempted} samples, {failed} failed, digest {}",
        w.name(),
        expected.as_deref().unwrap_or("none")
    );

    let mut metrics = Vec::new();
    if !good.is_empty() {
        println!(
            "{:<13} {:>10} {:>10} {:>10} {:>10} {:>10} {:>3}",
            "metric", "median", "q1", "q3", "min", "max", "n"
        );
        for m in &END_TO_END {
            let values: Vec<f64> = good.iter().map(|s| sample_value(m, s)).collect();
            let s = stats::summarize(&values, m.higher_is_better);
            let tail = s
                .tail
                .map(|(p, v)| format!("  p{p} (worse side) {v:.4}"))
                .unwrap_or_default();
            println!(
                "{:<13} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>3}{tail}",
                m.name, s.median, s.q1, s.q3, s.min, s.max, s.n
            );
            metrics.push((m, Json::F64(s.median)));
        }
        let median = |f: fn(&SampleOut) -> f64| {
            stats::summarize(&good.iter().map(f).collect::<Vec<_>>(), false).median
        };
        println!(
            "times above are rescaled to the reference host: probe {:.4} s here, {} s there; raw wall_s {:.4}",
            median(|s| s.probe_s),
            workload::PROBE_REF_S,
            median(|s| s.wall_s)
        );
    }
    println!("{}", result_line(correct, attempted, failed, metrics));
    Ok(correct)
}

/// The traced run plus one sample for the CPU-coverage base and the
/// output cross-check.
fn run_traced(w: Workload, seed: u64, tmp: &Path) -> Result<bool, String> {
    let reference = spec::reference()?;
    let traced = layers::run_trace(w, seed, tmp)?;
    let mut correct = true;
    let sample = spawn_sample(w, seed, tmp);
    let mut counters = traced.counters;
    let mut coverage = 0.0;
    match &sample {
        Ok(s) => {
            counters.cells = s.cells;
            counters.traces_recorded = s.traces;
            coverage = traced.busy_s / s.cpu_s;
            let (got, replayed) = (
                workload::digest_hex(&s.rows),
                workload::digest_hex(&traced.rows),
            );
            if got != replayed {
                eprintln!("the layer replay produced digest {replayed}, the workload {got}");
                correct = false;
            }
            if seed == PINNED_SEED && got != spec::pinned_digest(&reference, w)? {
                eprintln!("output digest {got} differs from the pinned one");
                correct = false;
            }
        }
        Err(e) => {
            eprintln!("sample: {e}");
            correct = false;
        }
    }
    let section = counters.to_json().render();
    println!("counters: {section}");
    if seed == PINNED_SEED {
        let pinned = spec::pinned_counters(&reference, w)?.render();
        if section != pinned {
            eprintln!("counters differ from the pinned section {pinned}");
            correct = false;
        }
    }
    print!("{}", traced.spans.render());

    let mut values: Vec<(&str, Json)> = traced
        .metrics
        .iter()
        .map(|&(name, v)| (name, Json::F64(v)))
        .collect();
    values.push(("layers.cpu_coverage", Json::F64(coverage)));
    values.extend(counters.entries().map(|(name, v)| (name, Json::U64(v))));
    for (name, _) in &values {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not a declared per-layer metric"
        );
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(Json::F64(0.0), |(_, v)| v.clone());
            (m, v)
        })
        .collect();
    let failed = usize::from(!correct);
    println!("{}", result_line(correct, 1, failed, metrics));
    Ok(correct)
}

/// A per-process scratch directory inside the working directory, for
/// spilled segments and anything the program writes to the temp dir;
/// removed on drop, also when unwinding from a panic.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("current_dir: {e}"))?
            .join(".bench_perf_tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails, harmlessly, while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mode = match parse_args(&argv) {
        Ok(mode) => mode,
        Err(msg) => {
            eprintln!("bench_perf: {msg}\n{USAGE}");
            return ExitCode::from(USAGE_EXIT as u8);
        }
    };
    let outcome = match mode {
        Mode::Check => std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e}"))
            .and_then(|text| {
                let errors = spec::check(&text, &spec::reference()?);
                for e in &errors {
                    eprintln!("bench_perf --check: {e}");
                }
                if errors.is_empty() {
                    println!("BENCHMARK.json ok");
                }
                Ok(errors.is_empty())
            }),
        Mode::Sample {
            workload,
            seed,
            tmp,
        } => workload::run_sample(workload, seed, jobs(), &tmp).map(|s| {
            println!("{}", s.to_json().render());
            true
        }),
        Mode::Run {
            workload,
            seed,
            seconds,
            trace,
        } => Scratch::create().and_then(|tmp| {
            println!(
                "host: nproc {}, cpu {}, jobs {}",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
                cpu_model(),
                jobs()
            );
            if trace {
                run_traced(workload, seed, &tmp.0)
            } else {
                run_end_to_end(workload, seed, seconds, &tmp.0)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let mode = parse(&[
            "--workload",
            "sweep-cache",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]);
        assert_eq!(
            mode,
            Ok(Mode::Run {
                workload: Workload::SweepCache,
                seed: 7,
                seconds: 20,
                trace: true
            })
        );
        let mode = parse(&["--workload", "suite-small"]);
        assert_eq!(
            mode,
            Ok(Mode::Run {
                workload: Workload::SuiteSmall,
                seed: 42,
                seconds: 25,
                trace: false
            })
        );
        assert_eq!(parse(&["--check"]), Ok(Mode::Check));
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for bad in [
            &["--workload", "suite-large"][..],
            &["--workload", "suite-small", "--warmup", "1"],
            &["--workload", "suite-small", "--seed"],
            &["--workload", "suite-small", "--seed", "x"],
            &["--workload", "suite-small", "--trace", "2"],
            &["--workload", "suite-small", "--seconds", "0"],
            &["--workload", "suite-small", "--workload", "sweep-cache"],
            &["--check", "--workload", "suite-small"],
            &["--seed", "3"],
            &["suite-small"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn time_metrics_are_rescaled_to_the_reference_host_speed() {
        let mut s = SampleOut {
            setup_s: 1.0,
            wall_s: 2.0,
            cpu_s: 3.5,
            probe_s: workload::PROBE_REF_S,
            rss_bytes: 3 << 20,
            sim_ops: 8_000_000,
            cells: 1,
            traces: 1,
            hmean: Vec::new(),
            rows: Vec::new(),
        };
        let values =
            |s: &SampleOut| -> Vec<f64> { END_TO_END.iter().map(|m| sample_value(m, s)).collect() };
        assert_eq!(values(&s), [2.0, 1.0, 3.5, 3.0, 4.0]);
        // A host running at half speed doubles every raw time; the
        // rescaled times, and peak RSS, stay put.
        s.probe_s *= 2.0;
        (s.setup_s, s.wall_s, s.cpu_s) = (2.0, 4.0, 7.0);
        assert_eq!(values(&s), [2.0, 1.0, 3.5, 3.0, 4.0]);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, vec![(&END_TO_END[0], Json::F64(1.5))]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}"#
        );
    }
}
