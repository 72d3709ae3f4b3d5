//! Schema pin for the committed `BENCH_suite.json` artifact.
//!
//! The file is regenerated by `cargo run --release -- suite --metrics
//! BENCH_suite.json` (`artifact_sync.rs` checks it is what that command
//! writes); this test fails if the committed document drifts from the
//! `bioperf-suite/v1` shape the tooling — and any external dashboard
//! reading the artifact — depends on.

use bioperf_core::orchestrate::SUITE_SCHEMA;
use bioperf_metrics::{json, Json};

fn load() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_suite.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path} must be committed (regenerate with `cargo run --release -- suite --metrics BENCH_suite.json`): {e}"));
    json::parse(&text).expect("BENCH_suite.json parses with the in-workspace parser")
}

#[test]
fn committed_suite_artifact_matches_schema_v1() {
    let doc = load();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SUITE_SCHEMA));
    assert_eq!(doc.keys(), vec!["schema", "run", "deterministic"]);

    let run = doc.get("run").expect("run section");
    assert_eq!(
        run.keys(),
        vec![
            "jobs",
            "workers",
            "jobs_per_worker",
            "live_traces_peak",
            "replayed_ops",
            "ops_per_sec",
            "timings"
        ]
    );
    // 9 characterizations + 12 bank replays (6 transformable programs ×
    // 2 variants; each bank decodes once for every applicable platform).
    assert_eq!(run.get("jobs").and_then(Json::as_u64), Some(21));
    // Each job drops its trace before its worker claims the next one.
    let workers = run.get("workers").and_then(Json::as_u64).expect("worker count");
    let live = run.get("live_traces_peak").and_then(Json::as_u64).expect("live-trace peak");
    assert!((1..=workers).contains(&live), "{live} traces alive on {workers} workers");
    assert!(run.get("replayed_ops").and_then(Json::as_u64).unwrap_or(0) > 0);
    let rates = run.get("ops_per_sec").expect("replay throughput gauges");
    assert!(rates.get("total").is_some());

    let det = doc.get("deterministic").expect("deterministic section");
    assert_eq!(det.keys(), vec!["config", "counters", "gauges", "histograms"]);
    let config = det.get("config").expect("config");
    assert_eq!(config.keys(), vec!["scale", "seed", "programs", "eval_cells"]);
    assert_eq!(config.get("programs").and_then(Json::as_u64), Some(9));
    assert_eq!(config.get("eval_cells").and_then(Json::as_u64), Some(23));
    assert_eq!(config.get("seed").and_then(Json::as_u64), Some(42));
}

#[test]
fn committed_suite_artifact_carries_the_paper_series() {
    let doc = load();
    let det = doc.get("deterministic").expect("deterministic section");
    let counters = det.get("counters").expect("counters");
    let gauges = det.get("gauges").expect("gauges");

    // One characterization series per program, the evaluation series per
    // transformed program, and the raw simulator events.
    for program in
        ["blast", "clustalw", "dnapenny", "fasta", "hmmcalibrate", "hmmpfam", "hmmsearch", "predator", "promlk"]
    {
        assert!(
            counters.get(&format!("char/{program}/instructions")).is_some(),
            "missing char series for {program}"
        );
        assert!(
            gauges.get(&format!("char/{program}/amat_cycles")).is_some(),
            "missing AMAT gauge for {program}"
        );
    }
    assert!(counters.get("eval/hmmsearch/Alpha 21264/original_cycles").is_some());
    assert!(gauges.get("eval/harmonic_mean/Alpha 21264").is_some());
    assert!(counters.get("events/hmmsearch/cache/serviced_l1").is_some());
    let histograms = det.get("histograms").expect("histograms");
    assert!(histograms.get("events/hmmsearch/cache/access_latency_cycles").is_some());

    // The timings section names every program × phase span. An
    // in-memory run feeds each bank inside its kernel's trace span, so
    // there is no separate replay span (spilled runs add one).
    let timings = doc.get("run").and_then(|r| r.get("timings")).expect("timings");
    assert!(timings.get("hmmsearch/trace").is_some());
    assert!(timings.get("hmmsearch/characterize").is_some());
    assert!(timings.get("hmmsearch/replay").is_none());
    assert!(timings.get("blast/characterize").is_some());
}
