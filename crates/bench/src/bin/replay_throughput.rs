//! Replay-throughput smoke benchmark: records one heavy trace and
//! replays it through every platform model, reporting Mops/s per
//! platform, the packed encoding's bytes/op, and the process's peak
//! RSS. Platforms are measured three ways — once each sequentially
//! (per-platform regression signal), once as a single-decode in-memory
//! `PlatformBank` (the suite's production replay path: one decode and
//! one plan walk for all four), and once as a *streamed* bank off
//! spilled disk segments (the spill-mode replay path) — and
//! `--min-mops <x>` turns the bank aggregate into a hard floor: the
//! binary exits 1 below it, which is how CI fails a change that
//! regresses the replay hot loop. CI runs this in release mode and
//! posts the table to the job summary.
//!
//! A last row times the factored sweep's production lane shape: one
//! keyed `PlatformBank` over the geometry of the `timing` sweep preset
//! (the `sweep-timing` benchmark workload's grid) with one keyed lane
//! per grid cell, the shape of every live pass of a sweep job, replayed
//! from the same recording and reported as lane-op Mops/s and as the
//! ratio of lane ns/op to the ns/op of a decode-only pass in the same
//! process (no floor: informational).
//!
//! `--spill-dir <dir>` switches to a streamed-only run: the trace is
//! recorded directly into segment files (never held in memory whole)
//! and only the streamed bank is measured, with `--min-mops` applied to
//! it. CI runs this mode under `ulimit -v` to prove streamed peak
//! memory is bounded by the segment size, not the trace size.

use std::path::PathBuf;
use std::time::Instant;

use bioperf_bench::{banner, peak_rss_bytes, BenchArgs, JsonReport, REPRO_SEED};
use bioperf_core::cli::{self, CliError, Spec};
use bioperf_core::report::TextTable;
use bioperf_core::SweepGrid;
use bioperf_isa::{MicroOp, Program};
use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_metrics::Json;
use bioperf_pipe::{CycleSim, PlatformBank, PlatformConfig, SimResult};
use bioperf_trace::{
    segment_recording, OpBlock, Recorder, Recording, SegmentedRecording, SpillRecorder, Tape,
    TraceConsumer,
};

const ARTIFACT: &str = "replay_throughput";

const USAGE: &str = "usage: replay_throughput [test|small|medium|large] [--json <path>] \
                     [--min-mops <x>] [--spill-dir <dir>] [--segment-ops <n>]";

const SPEC: Spec = Spec {
    values: &["--json", "--min-mops", "--spill-dir", "--segment-ops"],
    switches: &[],
    positionals: &["scale"],
    required: 0,
};

struct Args {
    /// Scale and `--json` path.
    bench: BenchArgs,
    /// Fail (exit 1) if the bank aggregate falls below this many Mops/s.
    min_mops: Option<f64>,
    /// Streamed-only mode: record straight to segments under this dir.
    spill_dir: Option<PathBuf>,
    /// Ops per segment file.
    segment_ops: usize,
}

fn read_args(argv: &[String]) -> Result<Args, CliError> {
    let a = cli::read(argv, &SPEC)?;
    Ok(Args {
        bench: BenchArgs {
            scale: a.parse_with("scale", cli::scale)?.unwrap_or(Scale::Small),
            json: a.value("--json").map(PathBuf::from),
        },
        min_mops: a.parse_with("--min-mops", cli::positive)?,
        spill_dir: a.value("--spill-dir").map(PathBuf::from),
        segment_ops: a
            .parse_with("--segment-ops", cli::positive)?
            .unwrap_or(bioperf_trace::DEFAULT_SEGMENT_OPS),
    })
}

/// Streamed bank replay of a segmented recording; returns per-platform
/// results and elapsed seconds. Exits 1 on a segment error.
fn streamed_bank(segmented: &SegmentedRecording, platforms: &[PlatformConfig]) -> (Vec<SimResult>, f64) {
    let mut bank = PlatformBank::new(platforms);
    let start = Instant::now();
    if let Err(e) = segmented.replay_bank(std::slice::from_mut(&mut bank)) {
        eprintln!("{ARTIFACT}: streamed replay failed: {e}");
        std::process::exit(1);
    }
    let secs = start.elapsed().as_secs_f64();
    (bank.results(), secs)
}

/// A consumer that does nothing with its blocks, so a replay into it
/// times the packed decode alone.
struct DecodeOnly;

impl TraceConsumer for DecodeOnly {
    fn consume(&mut self, _op: &MicroOp, _program: &Program) {}

    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        std::hint::black_box(block.len());
    }
}

/// The sweep's production lane shape over `recording`: one keyed
/// `PlatformBank` whose one key is the [`SweepGrid::timing`] geometry,
/// with a keyed lane per grid cell. Returns the lane count, the bank's
/// seconds and a decode-only pass's seconds.
fn sweep_timing_lanes(recording: &Recording) -> (usize, f64, f64) {
    let grid = SweepGrid::timing();
    let cells: Vec<_> = (0..grid.cells())
        .map(|c| grid.spec(c).resolve().expect("the sweep-timing grid's cells are valid"))
        .collect();
    let base = cells[0];
    let hierarchy = base.platform.hierarchy().with_prefetcher(base.prefetch);
    let (regs, if_conversion) = (base.platform.logical_regs, base.platform.if_conversion);
    let mut bank = PlatformBank::keyed(regs, if_conversion, vec![hierarchy]);
    for rc in &cells {
        bank.push_keyed_lane(&rc.platform, rc.pred);
    }
    let start = Instant::now();
    recording.replay_bank(std::slice::from_mut(&mut bank));
    let lane_secs = start.elapsed().as_secs_f64();
    std::hint::black_box(bank.results());
    let start = Instant::now();
    recording.replay_bank(std::slice::from_mut(&mut DecodeOnly));
    let decode_secs = start.elapsed().as_secs_f64();
    (cells.len(), lane_secs, decode_secs)
}

fn report_peak_rss(json: &mut JsonReport) {
    match peak_rss_bytes() {
        Some(bytes) => {
            let mib = bytes as f64 / (1024.0 * 1024.0);
            println!("peak RSS (VmHWM): {mib:.0} MiB");
            json.value("peak_rss_bytes", Json::U64(bytes));
        }
        None => println!("peak RSS (VmHWM): n/a on this platform"),
    }
}

fn enforce_floor(label: &str, mops: f64, floor: Option<f64>) {
    if let Some(floor) = floor {
        if mops < floor {
            eprintln!(
                "{ARTIFACT}: {label} aggregate {mops:.1} Mops/s is below the {floor:.1} Mops/s floor"
            );
            std::process::exit(1);
        }
        println!("{label} aggregate {mops:.1} Mops/s clears the {floor:.1} Mops/s floor");
    }
}

/// Streamed-only mode: record straight into segment files and replay the
/// streamed bank. The whole trace is never resident, so `ulimit -v` caps
/// meaningfully bound this mode.
fn run_spill_only(args: &Args, spill_dir: &PathBuf) {
    let scale = args.bench.scale;
    banner("Replay throughput: streamed segment decode + cycle simulation", scale);
    let program = ProgramId::Hmmsearch;
    let segment_ops = args.segment_ops;
    let recorder = match SpillRecorder::to_dir(spill_dir, segment_ops, bioperf_trace::replay::DEFAULT_CAPACITY) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{ARTIFACT}: {e}");
            std::process::exit(1);
        }
    };
    let mut tape = Tape::new(recorder);
    let start = Instant::now();
    registry::run(&mut tape, program, Variant::Original, scale, REPRO_SEED);
    let record_secs = start.elapsed().as_secs_f64();
    let (static_program, rec) = tape.finish();
    if rec.overflowed() {
        eprintln!("{ARTIFACT}: {program} trace exceeded the recorder capacity");
        std::process::exit(1);
    }
    let segmented = match rec.into_segmented(static_program) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{ARTIFACT}: {e}");
            std::process::exit(1);
        }
    };
    let ops = segmented.len() as u64;
    println!(
        "{program}: {ops} ops spilled to {} segments ({segment_ops} ops each) in {record_secs:.2}s\n",
        segmented.segment_count()
    );

    let platforms = PlatformConfig::all();
    let (_, secs) = streamed_bank(&segmented, &platforms);
    let platform_ops = ops * platforms.len() as u64;
    let mops = platform_ops as f64 / secs / 1e6;

    let mut table = TextTable::new(&["platform", "replay (s)", "Mops/s", "cycles"]);
    table.row_owned(vec![
        format!("streamed bank ({} segs)", segmented.segment_count()),
        format!("{secs:.3}"),
        format!("{mops:.1}"),
        String::new(),
    ]);
    println!("{}", table.render());

    let mut json = JsonReport::new(ARTIFACT, Some(scale));
    json.value("ops", Json::U64(ops));
    json.value("segments", Json::U64(segmented.segment_count() as u64));
    json.value("segment_ops", Json::U64(segment_ops as u64));
    json.value("mops_per_sec/streamed_bank", Json::F64(mops));
    json.note("hmmsearch recorded straight to disk segments; four platform models off one streamed bank decode");
    report_peak_rss(&mut json);
    json.write_if_requested(&args.bench);
    enforce_floor("streamed bank", mops, args.min_mops);
}

fn main() {
    let argv = cli::or_exit(cli::argv(), ARTIFACT, USAGE);
    let args = cli::or_exit(read_args(&argv), ARTIFACT, USAGE);
    if let Some(spill_dir) = args.spill_dir.clone() {
        run_spill_only(&args, &spill_dir);
        return;
    }
    let scale = args.bench.scale;
    banner("Replay throughput: packed-trace decode + cycle simulation", scale);

    let program = ProgramId::Hmmsearch;
    let mut tape = Tape::new(Recorder::new());
    let start = Instant::now();
    registry::run(&mut tape, program, Variant::Original, scale, REPRO_SEED);
    let record_secs = start.elapsed().as_secs_f64();
    let (static_program, rec) = tape.finish();
    if rec.overflowed() {
        eprintln!("{ARTIFACT}: {program} trace exceeded the recorder capacity");
        std::process::exit(1);
    }
    let recording = rec.into_recording(static_program);
    let ops = recording.len() as u64;
    println!(
        "{program}: {ops} ops recorded in {record_secs:.2}s, {:.1} bytes/op packed\n",
        recording.bytes_per_op()
    );

    let platforms = PlatformConfig::all();
    let mut table = TextTable::new(&["platform", "replay (s)", "Mops/s", "cycles"]);
    let mut json = JsonReport::new(ARTIFACT, Some(scale));

    // One sequential pass per platform: decode + simulate, the
    // per-platform regression signal.
    let mut sequential = Vec::new();
    let mut sequential_secs = 0.0;
    for platform in platforms.iter() {
        let mut sim = CycleSim::new(*platform);
        let start = Instant::now();
        recording.replay(&mut sim);
        let secs = start.elapsed().as_secs_f64();
        sequential_secs += secs;
        let result = sim.into_result();
        let mops = ops as f64 / secs / 1e6;
        table.row_owned(vec![
            platform.name.to_string(),
            format!("{secs:.3}"),
            format!("{mops:.1}"),
            result.cycles.to_string(),
        ]);
        json.value(&format!("mops_per_sec/{}", platform.name), Json::F64(mops));
        sequential.push(result);
    }
    let platform_ops = ops * platforms.len() as u64;
    let sequential_mops = platform_ops as f64 / sequential_secs / 1e6;
    table.row_owned(vec![
        "sequential total".to_string(),
        format!("{sequential_secs:.3}"),
        format!("{sequential_mops:.1}"),
        String::new(),
    ]);

    // The blocked bank pass: the stream is decoded into SoA op blocks and
    // one `PlatformBank` consumes a whole block at a time — one plan walk
    // and one predictor walk per family for all four platforms, the
    // suite's production replay path.
    let mut bank = PlatformBank::new(&platforms);
    let start = Instant::now();
    recording.replay_bank(std::slice::from_mut(&mut bank));
    let bank_secs = start.elapsed().as_secs_f64();
    let bank_mops = platform_ops as f64 / bank_secs / 1e6;
    for (platform, (banked, solo)) in platforms.iter().zip(bank.results().iter().zip(&sequential)) {
        if banked != solo {
            eprintln!("{ARTIFACT}: {}: bank replay diverged from sequential replay", platform.name);
            std::process::exit(1);
        }
    }
    table.row_owned(vec![
        format!("bank ({}-op blocks)", bioperf_trace::BLOCK_OPS),
        format!("{bank_secs:.3}"),
        format!("{bank_mops:.1}"),
        String::new(),
    ]);

    // The streamed pass: the same recording spilled to disk segments and
    // replayed through the bank with background prefetch — the spill
    // mode's production path, verified bit-identical to the in-memory
    // bank before its row is trusted.
    let segment_ops = args.segment_ops;
    let seg_dir = std::env::temp_dir().join(format!("bioperf-replay-seg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&seg_dir);
    let segmented = match segment_recording(&recording, &seg_dir, segment_ops) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{ARTIFACT}: spilling the recording failed: {e}");
            std::process::exit(1);
        }
    };
    let (streamed, streamed_secs) = streamed_bank(&segmented, &platforms);
    let _ = std::fs::remove_dir_all(&seg_dir);
    let streamed_mops = platform_ops as f64 / streamed_secs / 1e6;
    for (platform, (a, b)) in platforms.iter().zip(streamed.iter().zip(&sequential)) {
        if a != b {
            eprintln!(
                "{ARTIFACT}: {}: streamed replay diverged from sequential replay",
                platform.name
            );
            std::process::exit(1);
        }
    }
    table.row_owned(vec![
        format!("streamed bank ({} segs)", segmented.segment_count()),
        format!("{streamed_secs:.3}"),
        format!("{streamed_mops:.1}"),
        String::new(),
    ]);

    // The sweep's production lane shape, against a decode-only pass in
    // the same process: the ratio cancels most of the host's speed.
    let (lanes, lane_secs, decode_secs) = sweep_timing_lanes(&recording);
    let lane_ops = ops * lanes as u64;
    let lane_mops = lane_ops as f64 / lane_secs / 1e6;
    let lane_ns = lane_secs * 1e9 / lane_ops as f64;
    let decode_ns = decode_secs * 1e9 / ops as f64;
    let lane_ratio = lane_ns / decode_ns;
    table.row_owned(vec![
        format!("sweep-timing lanes ({lanes})"),
        format!("{lane_secs:.3}"),
        format!("{lane_mops:.1}"),
        String::new(),
    ]);
    println!("{}", table.render());
    println!(
        "sweep-timing lanes: {lane_ns:.2} ns/lane-op vs {decode_ns:.2} ns/op decode-only \
         (ratio {lane_ratio:.2})\n"
    );

    json.value("ops", Json::U64(ops));
    json.value("bytes_per_op", Json::F64(recording.bytes_per_op()));
    json.value("mops_per_sec/total", Json::F64(sequential_mops));
    json.value("mops_per_sec/bank_total", Json::F64(bank_mops));
    json.value("mops_per_sec/streamed_bank", Json::F64(streamed_mops));
    json.value("segments", Json::U64(segmented.segment_count() as u64));
    json.value("mops_per_sec/sweep_timing_lanes", Json::F64(lane_mops));
    json.value("sweep_timing_lane_to_decode_ratio", Json::F64(lane_ratio));
    json.note("one hmmsearch recording; each platform replayed sequentially, all four off one block-batched bank decode, then off one streamed segment decode; then a keyed bank of the sweep-timing grid's one geometry and 24 lanes, as lane-op Mops/s and lane ns/op over decode-only ns/op");
    report_peak_rss(&mut json);
    json.write_if_requested(&args.bench);
    enforce_floor("bank", bank_mops, args.min_mops);
}
