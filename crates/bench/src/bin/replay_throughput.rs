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
//! `--spill-dir <dir>` switches to a streamed-only run: the trace is
//! recorded directly into segment files (never held in memory whole)
//! and only the streamed bank is measured, with `--min-mops` applied to
//! it. CI runs this mode under `ulimit -v` to prove streamed peak
//! memory is bounded by the segment size, not the trace size.

use std::path::PathBuf;
use std::time::Instant;

use bioperf_bench::{banner, peak_rss_bytes, usage as usage_line, JsonReport, REPRO_SEED, USAGE_EXIT};
use bioperf_core::report::TextTable;
use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_metrics::Json;
use bioperf_pipe::{CycleSim, PlatformBank, PlatformConfig, SimResult};
use bioperf_trace::{segment_recording, Recorder, SegmentedRecording, SpillRecorder, Tape};

const ARTIFACT: &str = "replay_throughput";

fn usage() -> String {
    format!(
        "{} [--min-mops <x>] [--spill-dir <dir>] [--segment-ops <n>] [--block-ops <n>]",
        usage_line(ARTIFACT, true).trim_end()
    )
}

fn bail(msg: &str) -> ! {
    eprintln!("{ARTIFACT}: {msg}");
    eprintln!("{}", usage());
    std::process::exit(USAGE_EXIT);
}

struct Args {
    scale: Scale,
    json: Option<PathBuf>,
    /// Fail (exit 1) if the bank aggregate falls below this many Mops/s.
    min_mops: Option<f64>,
    /// Streamed-only mode: record straight to segments under this dir.
    spill_dir: Option<PathBuf>,
    /// Ops per segment file (0 = `DEFAULT_SEGMENT_OPS`).
    segment_ops: usize,
    /// Ops per decode block in the bank passes (0 = `BLOCK_OPS`).
    block_ops: usize,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        scale: Scale::Small,
        json: None,
        min_mops: None,
        spill_dir: None,
        segment_ops: 0,
        block_ops: 0,
    };
    let mut scale_seen = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        std::process::exit(0);
    }
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                if parsed.json.is_some() {
                    bail("duplicate --json");
                }
                match it.next() {
                    Some(path) if !path.is_empty() => parsed.json = Some(PathBuf::from(path)),
                    _ => bail("--json needs a file path"),
                }
            }
            "--min-mops" => {
                if parsed.min_mops.is_some() {
                    bail("duplicate --min-mops");
                }
                match it.next().and_then(|v| v.parse::<f64>().ok()) {
                    Some(x) if x.is_finite() && x > 0.0 => parsed.min_mops = Some(x),
                    _ => bail("--min-mops needs a positive number"),
                }
            }
            "--spill-dir" => {
                if parsed.spill_dir.is_some() {
                    bail("duplicate --spill-dir");
                }
                match it.next() {
                    Some(path) if !path.is_empty() => parsed.spill_dir = Some(PathBuf::from(path)),
                    _ => bail("--spill-dir needs a directory path"),
                }
            }
            "--segment-ops" => {
                if parsed.segment_ops != 0 {
                    bail("duplicate --segment-ops");
                }
                match it.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => parsed.segment_ops = n,
                    _ => bail("--segment-ops needs a positive op count"),
                }
            }
            "--block-ops" => {
                if parsed.block_ops != 0 {
                    bail("duplicate --block-ops");
                }
                match it.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => parsed.block_ops = n,
                    _ => bail("--block-ops needs a positive op count"),
                }
            }
            s if s.starts_with('-') => bail(&format!("unknown option '{s}'")),
            s => {
                if scale_seen {
                    bail(&format!("unexpected extra argument '{s}'"));
                }
                match Scale::from_name(s) {
                    Some(scale) => parsed.scale = scale,
                    None => bail(&format!("unknown scale '{s}' (use test|small|medium|large)")),
                }
                scale_seen = true;
            }
        }
    }
    parsed
}

fn effective_segment_ops(args: &Args) -> usize {
    if args.segment_ops == 0 {
        bioperf_trace::DEFAULT_SEGMENT_OPS
    } else {
        args.segment_ops
    }
}

fn effective_block_ops(args: &Args) -> usize {
    if args.block_ops == 0 {
        bioperf_trace::BLOCK_OPS
    } else {
        args.block_ops
    }
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
    let scale = args.scale;
    banner("Replay throughput: streamed segment decode + cycle simulation", scale);
    let program = ProgramId::Hmmsearch;
    let segment_ops = effective_segment_ops(args);
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
    json.write_if_requested(&args_to_bench(args));
    enforce_floor("streamed bank", mops, args.min_mops);
}

fn main() {
    let args = parse_args();
    if let Some(spill_dir) = args.spill_dir.clone() {
        run_spill_only(&args, &spill_dir);
        return;
    }
    let scale = args.scale;
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
    let block_ops = effective_block_ops(&args);
    let mut bank = PlatformBank::new(&platforms);
    let start = Instant::now();
    recording.replay_bank_blocks(std::slice::from_mut(&mut bank), block_ops);
    let bank_secs = start.elapsed().as_secs_f64();
    let bank_mops = platform_ops as f64 / bank_secs / 1e6;
    for (platform, (banked, solo)) in platforms.iter().zip(bank.results().iter().zip(&sequential)) {
        if banked != solo {
            eprintln!("{ARTIFACT}: {}: bank replay diverged from sequential replay", platform.name);
            std::process::exit(1);
        }
    }
    table.row_owned(vec![
        format!("bank ({block_ops}-op blocks)"),
        format!("{bank_secs:.3}"),
        format!("{bank_mops:.1}"),
        String::new(),
    ]);

    // The streamed pass: the same recording spilled to disk segments and
    // replayed through the bank with background prefetch — the spill
    // mode's production path, verified bit-identical to the in-memory
    // bank before its row is trusted.
    let segment_ops = effective_segment_ops(&args);
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
    println!("{}", table.render());

    json.value("ops", Json::U64(ops));
    json.value("bytes_per_op", Json::F64(recording.bytes_per_op()));
    json.value("block_ops", Json::U64(block_ops as u64));
    json.value("mops_per_sec/total", Json::F64(sequential_mops));
    json.value("mops_per_sec/bank_total", Json::F64(bank_mops));
    json.value("mops_per_sec/streamed_bank", Json::F64(streamed_mops));
    json.value("segments", Json::U64(segmented.segment_count() as u64));
    json.note("one hmmsearch recording; each platform replayed sequentially, all four off one block-batched bank decode, then off one streamed segment decode");
    report_peak_rss(&mut json);
    json.write_if_requested(&args_to_bench(&args));
    enforce_floor("bank", bank_mops, args.min_mops);
}

/// Adapter so [`JsonReport::write_if_requested`] (which takes the shared
/// [`bioperf_bench::BenchArgs`]) works with this binary's extended
/// command line.
fn args_to_bench(args: &Args) -> bioperf_bench::BenchArgs {
    bioperf_bench::BenchArgs { scale: args.scale, json: args.json.clone() }
}
