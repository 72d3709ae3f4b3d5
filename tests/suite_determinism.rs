//! The suite's cross-worker determinism contract, end to end: a
//! single-threaded run and a 4-worker run of the full study must agree
//! not just on the in-memory results but on the *bytes* of the emitted
//! deterministic metrics JSON (`suite --metrics` / `BENCH_suite.json`).
//!
//! Wall-clock timings are exempt by design — they live in the document's
//! `run` section, which this test deliberately does not compare.

use bioperf_core::orchestrate::{run_suite, SuiteConfig, SUITE_SCHEMA};
use bioperf_kernels::Scale;
use bioperf_metrics::Json;

fn config(jobs: usize) -> SuiteConfig {
    SuiteConfig { scale: Scale::Test, seed: 42, jobs, metrics: true, trace_cap: 0, spill: None }
}

#[test]
fn suite_results_and_metrics_json_are_worker_count_independent() {
    let seq = run_suite(config(1)).expect("suite");
    let par = run_suite(config(4)).expect("suite");

    // Structured results agree…
    assert_eq!(seq.reports.len(), par.reports.len());
    for ((pa, a), (pb, b)) in seq.reports.iter().zip(&par.reports) {
        assert_eq!(pa, pb);
        assert_eq!(a.mix, b.mix, "{pa}: instruction mix");
        assert_eq!(a.cache, b.cache, "{pa}: cache statistics");
        assert_eq!(a.amat, b.amat, "{pa}: AMAT");
    }
    assert_eq!(seq.eval.cells.len(), par.eval.cells.len());
    for (a, b) in seq.eval.cells.iter().zip(&par.eval.cells) {
        assert_eq!((a.program, a.platform), (b.program, b.platform));
        assert_eq!(a.original.cycles, b.original.cycles, "{} original", a.program);
        assert_eq!(a.transformed.cycles, b.transformed.cycles, "{} transformed", a.program);
    }

    // …and so does the merged metric set, byte for byte, both compact
    // and pretty-printed.
    assert_eq!(seq.metrics, par.metrics, "merged metric sets must be equal");
    let seq_bytes = seq.deterministic_json().render_pretty();
    let par_bytes = par.deterministic_json().render_pretty();
    assert_eq!(seq_bytes, par_bytes, "deterministic JSON must be byte-identical");
    assert_eq!(seq.deterministic_json().render(), par.deterministic_json().render());

    // Every job drops its trace before its worker claims the next one,
    // so one worker holds one trace at a time and four hold at most four.
    assert_eq!(seq.live_traces_peak, 1);
    assert!((1..=4).contains(&par.live_traces_peak), "{} live traces", par.live_traces_peak);
    // Still 12 traces replayed: 9 characterizations + 12 bank replays.
    assert_eq!((seq.jobs, par.jobs), (9 + 12, 9 + 12));

    // Worker counts differ between the runs and may legitimately differ
    // in the full document — but only inside the `run` section.
    assert_eq!(seq.workers, 1);
    assert_eq!(par.to_json().get("schema").and_then(Json::as_str), Some(SUITE_SCHEMA));
    let run = par.to_json();
    let run = run.get("run").expect("run section");
    assert_eq!(run.get("workers").and_then(Json::as_u64), Some(4));
}

#[test]
fn event_metrics_switch_changes_events_not_results() {
    // metrics=false must not change any simulated number — only drop the
    // raw `events/` series from the output.
    let with = run_suite(config(2)).expect("suite");
    let without = run_suite(SuiteConfig { metrics: false, ..config(2) }).expect("suite");
    for ((pa, a), (_, b)) in with.reports.iter().zip(&without.reports) {
        assert_eq!(a.cache, b.cache, "{pa}: cache stats must not depend on event collection");
    }
    for (a, b) in with.eval.cells.iter().zip(&without.eval.cells) {
        assert_eq!(a.original.cycles, b.original.cycles);
        assert_eq!(a.transformed.cycles, b.transformed.cycles);
    }
    assert!(with.metrics.counter("events/hmmsearch/cache/serviced_l1").is_some());
    assert!(without.metrics.counter("events/hmmsearch/cache/serviced_l1").is_none());
    // The paper series are present either way and agree exactly.
    let key = "char/hmmsearch/instructions";
    assert_eq!(with.metrics.counter(key), without.metrics.counter(key));
    assert!(with.metrics.counter(key).is_some());
}
