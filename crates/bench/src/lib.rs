//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every table/figure binary regenerates one artifact of the paper:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_instr_mix` | Figure 1 — instruction mix per program |
//! | `table1_instr_counts` | Table 1 — instruction counts and FP% |
//! | `fig2_load_coverage` | Figure 2 — static-load coverage, BioPerf vs SPEC |
//! | `table2_cache_perf` | Tables 2 and 3 — cache miss rates and AMAT |
//! | `table4_sequences` | Table 4 — load→branch and branch→load sequences |
//! | `table5_hot_loads` | Table 5 — hot-load profile of hmmsearch |
//! | `table6_transform_scope` | Table 6 — transformation scope |
//! | `table7_platforms` | Table 7 — evaluation platforms |
//! | `table8_runtime` | Table 8 — simulated cycles, original vs transformed |
//! | `fig9_speedup` | Figure 9 — speedups and harmonic means |
//! | `fig3_walkthrough` | Figures 3–5 — cycle-by-cycle pipeline walkthrough |
//! | `find_candidates` | Section 3 — ranked load-scheduling candidates |
//! | `ablation_mechanisms` | (extension) which modeled mechanism carries the speedup |
//! | `ablation_predictor` | (extension) no-aliasing vs realistic predictors |
//! | `ablation_prefetch` | (extension) prefetching vs the source transformation |
//!
//! Two binaries check rather than regenerate: `bench_sweep` runs a sweep
//! through the factored engine and the unfactored oracle and fails on
//! any per-cell divergence or below a speedup floor, and
//! `replay_throughput` times the replay hot loop. The committed
//! `BENCH_suite.json` and `BENCH_sweep.json` are written by
//! `bioperf-loadchar suite --metrics` and `bioperf-loadchar sweep --out`.
//!
//! # Command line
//!
//! Every binary takes an optional workload scale (`test`, `small`,
//! `medium`, `large`) plus `--json <path>` to additionally write the
//! printed tables as a machine-readable JSON twin ([`JsonReport`]).
//! Arguments are read by [`bioperf_core::cli`]: unknown, repeated or
//! value-less flags, extra positionals and malformed values are rejected
//! with a usage message and exit status 2 — they are never silently
//! ignored, so a typo'd scale cannot masquerade as a finished
//! default-scale run — and `--help` prints usage and exits 0.

use std::path::PathBuf;

use bioperf_core::cli::{self, CliError, Spec};
use bioperf_core::report::TextTable;
use bioperf_core::{evaluate_all, EvalMatrix};
use bioperf_kernels::{ProgramId, Scale};
use bioperf_metrics::Json;
use bioperf_pipe::PlatformConfig;

/// Seed used by every reproduction run (fixed for repeatability).
pub const REPRO_SEED: u64 = 42;

/// Schema tag of the table binaries' `--json` documents.
pub const TABLE_SCHEMA: &str = "bioperf-table/v1";

/// Exit status for rejected command lines ([`cli::USAGE_EXIT`]).
pub const USAGE_EXIT: i32 = cli::USAGE_EXIT as i32;

/// Parsed command line of a table/figure binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Workload scale (the binary's default unless overridden).
    pub scale: Scale,
    /// Where to write the JSON twin, if `--json` was given.
    pub json: Option<PathBuf>,
}

impl BenchArgs {
    /// Reads `argv` (without the program name): an optional scale
    /// (`default` when absent; rejected unless `takes_scale`) and
    /// `--json <path>`.
    pub fn from_argv(argv: &[String], default: Scale, takes_scale: bool) -> Result<Self, CliError> {
        const SCALED: Spec =
            Spec { values: &["--json"], switches: &[], positionals: &["scale"], required: 0 };
        const FIXED: Spec = Spec { values: &["--json"], switches: &[], positionals: &[], required: 0 };
        let a = cli::read(argv, if takes_scale { &SCALED } else { &FIXED })?;
        Ok(Self {
            scale: a.parse_with("scale", cli::scale)?.unwrap_or(default),
            json: a.value("--json").map(PathBuf::from),
        })
    }
}

/// Parses the process command line for a scale-taking binary; prints
/// usage and exits with status [`USAGE_EXIT`] on a malformed command
/// line, and with status 0 on `--help`.
pub fn bench_args(artifact: &str, default: Scale) -> BenchArgs {
    bench_args_with(artifact, default, true)
}

/// [`bench_args`] for binaries with a fixed workload (table 6/7, the
/// Figure 3 walkthrough): any positional argument is rejected.
pub fn bench_args_no_scale(artifact: &str) -> BenchArgs {
    bench_args_with(artifact, Scale::Test, false)
}

fn bench_args_with(artifact: &str, default: Scale, takes_scale: bool) -> BenchArgs {
    let usage = if takes_scale {
        format!("usage: {artifact} [test|small|medium|large] [--json <path>]")
    } else {
        format!("usage: {artifact} [--json <path>]")
    };
    let argv = cli::or_exit(cli::argv(), artifact, &usage);
    cli::or_exit(BenchArgs::from_argv(&argv, default, takes_scale), artifact, &usage)
}

/// The machine-readable twin of a binary's printed tables.
///
/// Collects the same [`TextTable`]s the binary prints (cell-for-cell —
/// the JSON holds the exact rendered strings) plus free-form notes, and
/// writes them as one pretty-printed document when the user asked for
/// `--json`.
#[derive(Debug, Clone)]
pub struct JsonReport {
    artifact: String,
    scale: Option<Scale>,
    tables: Vec<(String, Json)>,
    notes: Vec<String>,
}

impl JsonReport {
    /// A report for one named artifact at one scale. Pass `None` for the
    /// fixed-workload binaries.
    pub fn new(artifact: &str, scale: Option<Scale>) -> Self {
        Self { artifact: artifact.to_string(), scale, tables: Vec::new(), notes: Vec::new() }
    }

    /// Adds a printed table under `name`.
    pub fn table(&mut self, name: &str, table: &TextTable) {
        self.tables.push((name.to_string(), table.to_json()));
    }

    /// Adds an arbitrary pre-built JSON value under `name` (for artifacts
    /// with non-tabular parts, like the walkthrough timelines).
    pub fn value(&mut self, name: &str, value: Json) {
        self.tables.push((name.to_string(), value));
    }

    /// Adds a free-form note (the "Paper shape: …" trailer lines).
    pub fn note(&mut self, text: &str) {
        self.notes.push(text.to_string());
    }

    /// The full document: schema/artifact/scale/seed header, then the
    /// tables in print order, then the notes.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema", Json::str(TABLE_SCHEMA)),
            ("artifact", Json::str(self.artifact.clone())),
            (
                "scale",
                self.scale.map_or(Json::Null, |s| Json::str(s.name())),
            ),
            ("seed", Json::U64(REPRO_SEED)),
            ("tables", Json::Object(self.tables.clone())),
            (
                "notes",
                Json::Array(self.notes.iter().map(|n| Json::str(n.clone())).collect()),
            ),
        ])
    }

    /// Writes the document to the `--json` path, if one was requested.
    /// If it cannot, prints `{artifact}: writing <path>: <error>` on
    /// stderr and exits with status 1: a binary has no recovery path, and
    /// a missing artifact must fail loudly but without a panic.
    pub fn write_if_requested(&self, args: &BenchArgs) {
        if let Some(path) = &args.json {
            if let Err(e) = std::fs::write(path, self.to_json().render_pretty()) {
                eprintln!("{}: writing {}: {e}", self.artifact, path.display());
                std::process::exit(1);
            }
            println!("wrote {}", path.display());
        }
    }
}

/// The process's peak resident set size (`VmHWM`) in bytes, read from
/// `/proc/self/status`. `None` off Linux or if the field is absent —
/// callers report "n/a" rather than a fake number. A high-water mark:
/// it proves a phase stayed *under* a bound only if the whole process
/// did, which is why the streamed-replay memory smoke runs spill mode
/// as its own process.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// [`evaluate_all`] at [`REPRO_SEED`] on every worker; on a failure
/// prints `{artifact}: <error>` on stderr and exits with status 1.
pub fn evaluate_or_exit(
    artifact: &str,
    programs: &[ProgramId],
    platforms: &[PlatformConfig],
    scale: Scale,
) -> EvalMatrix {
    evaluate_all(programs, platforms, scale, REPRO_SEED, 0).unwrap_or_else(|e| {
        eprintln!("{artifact}: {e}");
        std::process::exit(1);
    })
}

/// Standard header printed by every binary.
pub fn banner(artifact: &str, scale: Scale) {
    println!("=== {artifact} ===");
    println!("(reproduction of IISWC 2006 BioPerf load-characterization; scale {scale:?}, seed {REPRO_SEED})");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_command_line_keeps_the_default() {
        let a = BenchArgs::from_argv(&[], Scale::Medium, true).unwrap();
        assert_eq!(a, BenchArgs { scale: Scale::Medium, json: None });
    }

    #[test]
    fn scale_and_json_parse_in_either_order() {
        let a = BenchArgs::from_argv(&argv(&["small", "--json", "out.json"]), Scale::Medium, true)
            .unwrap();
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("out.json")));
        let b = BenchArgs::from_argv(&argv(&["--json", "out.json", "small"]), Scale::Medium, true)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_command_lines_are_rejected_not_ignored() {
        for bad in [
            vec!["huge"],                    // unknown scale
            vec!["test", "small"],           // two scales
            vec!["--jsn", "x"],              // misspelled option
            vec!["--json"],                  // missing value
            vec!["--json", "a", "--json", "b"], // duplicate
        ] {
            assert!(
                BenchArgs::from_argv(&argv(&bad), Scale::Medium, true).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn fixed_workload_binaries_reject_positional_args() {
        assert!(BenchArgs::from_argv(&argv(&["test"]), Scale::Test, false).is_err());
        let a = BenchArgs::from_argv(&argv(&["--json", "x.json"]), Scale::Test, false).unwrap();
        assert!(a.json.is_some());
    }

    #[test]
    fn json_report_shape() {
        let mut t = TextTable::new(&["program", "loads"]);
        t.row(&["blast", "30.1%"]);
        let mut r = JsonReport::new("fig1_instr_mix", Some(Scale::Test));
        r.table("figure1", &t);
        r.note("loads average ~30%");
        let j = r.to_json();
        assert_eq!(j.keys(), vec!["schema", "artifact", "scale", "seed", "tables", "notes"]);
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(TABLE_SCHEMA));
        assert_eq!(j.get("scale").and_then(Json::as_str), Some("test"));
        let table = j.get("tables").and_then(|t| t.get("figure1")).expect("table");
        assert_eq!(table.get("columns").expect("columns").render(), "[\"program\",\"loads\"]");
        // The document round-trips through the in-workspace parser.
        let parsed = bioperf_metrics::json::parse(&j.render_pretty()).unwrap();
        assert_eq!(parsed, j);
    }
}
