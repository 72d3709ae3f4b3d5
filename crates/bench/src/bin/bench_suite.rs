//! The full-suite metric snapshot: runs the nine-program
//! characterization plus the Table 8 evaluation and writes every paper
//! metric series, raw simulator event counter, and phase timing as one
//! JSON document (`BENCH_suite.json` at the repository root; CI
//! regenerates and schema-checks it on every push).
//!
//! `--check` mode does not run anything: it parses an existing document
//! and verifies its schema shape, failing with exit status 1 on drift —
//! the guard CI runs against the committed artifact.

use std::path::PathBuf;

use bioperf_bench::{banner, write_or_exit, REPRO_SEED};
use bioperf_core::cli::{self, CliError, Spec};
use bioperf_core::orchestrate::{run_suite, SuiteConfig, SUITE_SCHEMA};
use bioperf_kernels::Scale;
use bioperf_metrics::{json, Json};

const ARTIFACT: &str = "bench_suite";

const USAGE: &str =
    "usage: bench_suite [test|small|medium|large] [--jobs <n>] [--out <path>] [--check]";

const SPEC: Spec =
    Spec { values: &["--jobs", "--out"], switches: &["--check"], positionals: &["scale"], required: 0 };

struct Args {
    scale: Scale,
    jobs: usize,
    out: PathBuf,
    check: bool,
}

fn read_args(argv: &[String]) -> Result<Args, CliError> {
    let a = cli::read(argv, &SPEC)?;
    Ok(Args {
        scale: a.parse_with("scale", cli::scale)?.unwrap_or(Scale::Test),
        jobs: a.jobs()?,
        out: PathBuf::from(a.value("--out").unwrap_or("BENCH_suite.json")),
        check: a.switch("--check"),
    })
}

/// The schema invariants `--check` pins (and the `bench_suite_schema`
/// test re-checks against the committed artifact).
fn check_document(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SUITE_SCHEMA) {
        return Err(format!("schema tag is not {SUITE_SCHEMA:?}"));
    }
    if doc.keys() != vec!["schema", "run", "deterministic"] {
        return Err(format!("unexpected top-level keys {:?}", doc.keys()));
    }
    let run = doc.get("run").ok_or("missing run section")?;
    for key in ["jobs", "workers", "jobs_per_worker", "replayed_ops", "ops_per_sec", "timings"] {
        if run.get(key).is_none() {
            return Err(format!("run section is missing {key:?}"));
        }
    }
    let det = doc.get("deterministic").ok_or("missing deterministic section")?;
    if det.keys() != vec!["config", "counters", "gauges", "histograms"] {
        return Err(format!("unexpected deterministic keys {:?}", det.keys()));
    }
    let config = det.get("config").ok_or("missing config")?;
    for key in ["scale", "seed", "programs", "eval_cells"] {
        if config.get(key).is_none() {
            return Err(format!("config is missing {key:?}"));
        }
    }
    if config.get("programs").and_then(Json::as_u64) != Some(9) {
        return Err("config.programs is not 9".into());
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
        println!("{}: schema ok ({SUITE_SCHEMA})", args.out.display());
        return;
    }

    banner("Suite metric snapshot: paper series + simulator events + timings", args.scale);
    let suite = run_suite(SuiteConfig {
        scale: args.scale,
        seed: REPRO_SEED,
        jobs: args.jobs,
        metrics: true,
        trace_cap: 0,
        spill: None,
    })
    .unwrap_or_else(|e| {
        eprintln!("{ARTIFACT}: {e}");
        std::process::exit(1);
    });
    let doc = suite.to_json();
    check_document(&doc).expect("freshly generated suite document must satisfy its own schema");
    write_or_exit(ARTIFACT, &args.out, &doc.render_pretty());
    println!(
        "wrote {} ({} programs, {} eval cells, {} metric series)",
        args.out.display(),
        suite.reports.len(),
        suite.eval.cells.len(),
        suite.metrics.len()
    );
}
