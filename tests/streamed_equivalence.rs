//! The spill mode's equivalence contract, end to end: running the full
//! suite with traces spilled to disk segments and replayed through the
//! streaming double-buffered bank must be *bit-identical* to the
//! all-in-memory suite — per-program hierarchy statistics, per-platform
//! cycle counts, and the bytes of the deterministic metrics JSON — for
//! every program, at any worker count.
//!
//! This is the guarantee that makes `--spill-dir` safe to flip on for
//! traces too large for RAM: it changes where the ops live, never what
//! the models see.

use std::path::PathBuf;

use bioperf_core::orchestrate::{run_suite, SpillConfig, SuiteConfig};
use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_pipe::{CycleSim, PlatformConfig};
use bioperf_trace::{Recorder, SpillRecorder, Tape, TraceConsumer};

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bioperf-streamed-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(jobs: usize, spill: Option<SpillConfig>) -> SuiteConfig {
    SuiteConfig { scale: Scale::Test, seed: 42, jobs, metrics: true, trace_cap: 0, spill }
}

#[test]
fn streamed_suite_matches_in_memory_suite_for_every_program() {
    let memory = run_suite(config(1, None)).expect("in-memory suite");
    let dir = scratch("j1");
    // Small segments force every trace through multiple spill/prefetch
    // cycles rather than degenerating to one segment per trace.
    let streamed = run_suite(config(1, Some(SpillConfig { dir: dir.clone(), segment_ops: 1 << 12 })))
        .expect("streamed suite");

    // Per-program characterization: the paper-series statistics must be
    // equal, not merely close.
    assert_eq!(memory.reports.len(), streamed.reports.len());
    assert_eq!(memory.reports.len(), ProgramId::ALL.len(), "every program present");
    for ((pa, a), (pb, b)) in memory.reports.iter().zip(&streamed.reports) {
        assert_eq!(pa, pb);
        assert_eq!(a.mix, b.mix, "{pa}: instruction mix");
        assert_eq!(a.cache, b.cache, "{pa}: cache hierarchy statistics");
        assert_eq!(a.amat, b.amat, "{pa}: AMAT");
    }

    // Per-platform evaluation cells: identical simulated cycles both for
    // the original and the load-transformed variant.
    assert_eq!(memory.eval.cells.len(), streamed.eval.cells.len());
    for (a, b) in memory.eval.cells.iter().zip(&streamed.eval.cells) {
        assert_eq!((a.program, a.platform), (b.program, b.platform));
        assert_eq!(a.original, b.original, "{} {} original", a.program, a.platform);
        assert_eq!(a.transformed, b.transformed, "{} {} transformed", a.program, a.platform);
    }

    // The deterministic JSON — what `bench_suite` commits as
    // `BENCH_suite.json` — is byte-identical.
    assert_eq!(
        memory.deterministic_json().render_pretty(),
        streamed.deterministic_json().render_pretty(),
        "deterministic JSON must be byte-identical between memory and spill modes"
    );
    assert_eq!(memory.replay.replayed_ops, streamed.replay.replayed_ops);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_suite_is_worker_count_independent() {
    // The spill mode composes with the job pool: one worker streaming
    // segments sequentially and four workers streaming concurrently (one
    // segmented recording shared per program, different interleavings of
    // loader threads) must still produce the same bytes.
    let dir1 = scratch("seq");
    let dir4 = scratch("par");
    let seq = run_suite(config(1, Some(SpillConfig { dir: dir1.clone(), segment_ops: 1 << 12 })))
        .expect("streamed suite, 1 worker");
    let par = run_suite(config(4, Some(SpillConfig { dir: dir4.clone(), segment_ops: 1 << 12 })))
        .expect("streamed suite, 4 workers");
    assert_eq!(seq.metrics, par.metrics, "merged metric sets must be equal");
    assert_eq!(
        seq.deterministic_json().render_pretty(),
        par.deterministic_json().render_pretty(),
        "deterministic JSON must be byte-identical across worker counts"
    );
    assert_eq!(seq.workers, 1);
    assert_eq!(par.workers, 4);
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

#[test]
fn blocked_streamed_bank_matches_per_op_in_memory_replay() {
    // The two replay transports composed: disk-shaped segments (here
    // in-memory, same chunking and headers) *and* block-batched decode
    // through the pipeline's plan pass and timing core, against the
    // plainest possible replay — one op at a time out of the in-memory
    // recording, straight into `consume`. Odd block sizes interact with
    // the segment edges (a block never spans two segments), so every
    // combination exercises mid-stream cursor hand-off.
    let mut tape = Tape::new(Recorder::new());
    registry::run(&mut tape, ProgramId::Hmmsearch, Variant::Original, Scale::Test, 42);
    let (program, rec) = tape.finish();
    let recording = rec.into_recording(program);

    let platforms = PlatformConfig::all();
    let reference: Vec<_> = platforms
        .iter()
        .map(|&platform| {
            let mut sim = CycleSim::new(platform);
            let program = recording.program();
            for op in recording.iter() {
                sim.consume(&op, program);
            }
            sim.finish(program);
            sim.into_result()
        })
        .collect();

    for segment_ops in [509, 1 << 12] {
        let mut spill = SpillRecorder::in_memory(segment_ops, usize::MAX);
        for op in recording.iter() {
            spill.consume(&op, recording.program());
        }
        let segmented =
            spill.into_segmented(recording.program().clone()).expect("in-memory spill");
        for block_ops in [1, 127, 4096] {
            let mut bank: Vec<CycleSim> =
                platforms.iter().map(|&p| CycleSim::new(p)).collect();
            segmented.replay_bank_blocks(&mut bank, block_ops).expect("streamed replay");
            for (platform, (sim, want)) in
                platforms.iter().zip(bank.into_iter().zip(&reference))
            {
                assert_eq!(
                    sim.into_result(),
                    *want,
                    "{}: {segment_ops}-op segments, {block_ops}-op blocks",
                    platform.name
                );
            }
        }
    }
}

#[test]
fn segment_size_does_not_leak_into_results() {
    // Segment granularity is an implementation knob: 1 Ki-op segments
    // and one-giant-segment spills must agree byte-for-byte.
    let fine_dir = scratch("fine");
    let coarse_dir = scratch("coarse");
    let fine =
        run_suite(config(2, Some(SpillConfig { dir: fine_dir.clone(), segment_ops: 1 << 10 })))
            .expect("fine-grained spill");
    let coarse = run_suite(config(2, Some(SpillConfig { dir: coarse_dir.clone(), segment_ops: 0 })))
        .expect("default-granularity spill");
    assert_eq!(
        fine.deterministic_json().render_pretty(),
        coarse.deterministic_json().render_pretty(),
        "segment size must not affect any deterministic output"
    );
    let _ = std::fs::remove_dir_all(&fine_dir);
    let _ = std::fs::remove_dir_all(&coarse_dir);
}
