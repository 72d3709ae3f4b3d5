//! Parallel single-trace experiment orchestration.
//!
//! The paper's experiments decompose into independent jobs, scheduled in
//! two waves on a [`std::thread::scope`] worker pool ([`run_jobs`]):
//!
//! * **Prepare** (one job per program): the instrumented kernel runs
//!   *once* with a tuple fan-out `(Characterizer, Recorder)`, so a single
//!   execution feeds the instruction-mix/coverage/cache/sequence passes
//!   **and** captures the packed trace; transformable programs also
//!   record their load-transformed variant.
//! * **Replay** (one job per program × variant): each [`Arc`]-shared
//!   recording is decoded exactly once and the single decoded op stream
//!   drives a *bank* of platform simulators
//!   (`Recording::replay_bank`), so the 23-cell evaluation pays one
//!   packed-decode per recording instead of one per platform pass.
//!
//! Result vectors are indexed by job, not by completion order, and the
//! bank→cell merge walks a fixed enumeration, so the orchestrated
//! output is identical for any worker count. Combined with address
//! normalization (see `bioperf_trace::normalize`) this makes the whole
//! suite deterministic: `--jobs 1` and `--jobs N` produce byte-identical
//! reports.
//!
//! Trace-capacity overflow surfaces as a typed [`SuiteError`] (the
//! `suite` CLI reports it and exits 1) rather than a panic.
//!
//! The same pool also drives the conformance harness ([`run_conform`]):
//! seeded differential fuzz cases (optimized implementations vs. the
//! `bioperf_conform` reference models) fan out one job per case, the
//! nine real program traces run the same differential checks
//! (`fuzz::check_trace`) on every platform they are evaluated on, one
//! sweep self-check diffs a tiny factored sweep against direct per-cell
//! replays, and mutation mode arms one catalogued [`FaultId`] before
//! spawning workers so the harness can prove it would catch that bug
//! class.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bioperf_conform::fuzz::{self, CaseOutcome};
use bioperf_conform::RefTape;
use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_metrics::{Json, MetricSet, Timings};
use bioperf_pipe::{PlatformBank, PlatformConfig, SimResult};
use bioperf_trace::{
    replay::DEFAULT_CAPACITY, Recorder, Recording, SegmentError, SegmentedRecording,
    SpillRecorder, Tape, TraceConsumer,
};

pub use bioperf_conform::{fault, FaultId};

use crate::characterize::{CharacterizationReport, Characterizer};
use crate::evaluate::{EvalCell, EvalMatrix};

/// Schema tag of the suite's emitted JSON documents (`suite --metrics`,
/// `BENCH_suite.json`); bump on breaking shape changes.
pub const SUITE_SCHEMA: &str = "bioperf-suite/v1";

/// A typed orchestration failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuiteError {
    /// A kernel emitted more ops than the recorder could hold, so the
    /// captured trace is a prefix and every replay-derived number would
    /// be wrong.
    TraceOverflow {
        /// Program whose trace overflowed.
        program: ProgramId,
        /// Variant being recorded.
        variant: Variant,
        /// Ops captured before the recorder hit its capacity.
        captured: usize,
    },
    /// Spilling or streaming a segmented trace failed; the inner error
    /// names the offending segment path.
    Segment {
        /// Program whose trace was being spilled or streamed.
        program: ProgramId,
        /// Variant the trace belongs to.
        variant: Variant,
        /// The segment-level failure (I/O, truncation, corruption, …).
        error: SegmentError,
    },
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::TraceOverflow { program, variant, captured } => write!(
                f,
                "{program} ({}): trace exceeded the recorder capacity after {captured} ops; \
                 rerun at a smaller scale",
                variant.label()
            ),
            SuiteError::Segment { program, variant, error } => {
                write!(f, "{program} ({}): {error}", variant.label())
            }
        }
    }
}

impl std::error::Error for SuiteError {}

/// Runs `jobs` closures on up to `threads` workers and returns their
/// results *in job order* (result `i` is job `i`'s output, regardless of
/// which worker finished when).
///
/// `threads == 1` degenerates to a plain sequential map with no thread
/// machinery at all, so a single-job run is bit-for-bit the reference
/// execution that parallel runs are compared against.
///
/// # Panics
///
/// Propagates a panic from any job once all workers have stopped.
pub fn run_jobs<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let next = AtomicUsize::new(0);
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i].lock().unwrap().take().expect("each job index is claimed once");
                let out = job();
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("scope joined every worker"))
        .collect()
}

/// Worker count to use when the caller passes `0` ("auto").
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Spill-to-disk configuration: record each (program, variant) trace as
/// fixed-size segment files under a per-trace subdirectory of `dir` and
/// stream the replay wave from disk, bounding peak memory by O(segment
/// size) instead of O(trace size).
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Root directory for segment files (one `<program>-<variant>/`
    /// subdirectory per captured trace; created as needed).
    pub dir: PathBuf,
    /// Ops per segment file; `0` means
    /// [`bioperf_trace::DEFAULT_SEGMENT_OPS`].
    pub segment_ops: usize,
}

impl SpillConfig {
    /// The effective segment size.
    pub fn segment_ops(&self) -> usize {
        if self.segment_ops == 0 {
            bioperf_trace::DEFAULT_SEGMENT_OPS
        } else {
            self.segment_ops
        }
    }

    /// The segment directory of one (program, variant) trace.
    fn trace_dir(&self, program: ProgramId, variant: Variant) -> PathBuf {
        self.dir.join(format!("{}-{}", program.name(), variant.label()))
    }
}

/// Configuration for [`run_suite`].
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Workload scale for every job.
    pub scale: Scale,
    /// Seed for every job (the suite is deterministic in it).
    pub seed: u64,
    /// Worker threads; `0` means [`default_jobs`].
    pub jobs: usize,
    /// Collect raw event metrics inside the cache/pipeline simulators.
    /// The paper-metric series and the phase timings are always
    /// collected; this switch only controls the per-access event sinks,
    /// which are the part with a (small) hot-loop cost.
    pub metrics: bool,
    /// Recorder capacity (in ops) for every captured trace; `0` means
    /// [`DEFAULT_CAPACITY`]. Small caps force the
    /// [`SuiteError::TraceOverflow`] path deterministically. In spill
    /// mode the cap bounds the *total* ops of a trace across all its
    /// segments, exactly as it bounds the one in-memory recording
    /// otherwise.
    pub trace_cap: usize,
    /// Spill captured traces to disk segments and stream the replay
    /// wave ([`None`] keeps recordings in memory). The replay output is
    /// byte-identical either way.
    pub spill: Option<SpillConfig>,
}

impl SuiteConfig {
    /// The effective recorder capacity ([`DEFAULT_CAPACITY`] when
    /// [`Self::trace_cap`] is `0`).
    pub fn capacity(&self) -> usize {
        if self.trace_cap == 0 {
            DEFAULT_CAPACITY
        } else {
            self.trace_cap
        }
    }
}

/// Wall-clock replay throughput, aggregated over the suite's replay
/// wave. Non-deterministic by nature: reported in the JSON `run`
/// section (`run/ops_per_sec/…`), never in the deterministic section.
#[derive(Debug, Clone, Default)]
pub struct ReplayThroughput {
    /// Ops decoded and simulated across all platform passes (each
    /// platform consumes its recording's ops once, even though one bank
    /// decode feeds every platform in the bank).
    pub replayed_ops: u64,
    /// Elapsed wall-clock of the whole replay wave, pool start to pool
    /// join. The `total` gauge divides by *this* — not by summed per-job
    /// CPU-seconds, which overlap on the pool and would under-report
    /// true aggregate throughput whenever jobs run in parallel.
    pub seconds: f64,
    /// Per-platform `(name, ops, seconds)` in [`PlatformConfig::all`]
    /// order. A bank job's elapsed time is split evenly across the
    /// platforms it drove, so the per-platform rates stay comparable
    /// CPU-time rates after the (program × variant) resharding; only
    /// `total` is a wall-clock rate.
    pub per_platform: Vec<(&'static str, u64, f64)>,
}

impl ReplayThroughput {
    /// Accumulates one platform's share of a replay job (its recording's
    /// ops and its even split of the job's elapsed time).
    fn add(&mut self, platform: &'static str, ops: u64, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        self.replayed_ops += ops;
        if let Some(slot) = self.per_platform.iter_mut().find(|(name, _, _)| *name == platform) {
            slot.1 += ops;
            slot.2 += secs;
        } else {
            self.per_platform.push((platform, ops, secs));
        }
    }

    /// Aggregate replay throughput in ops per second, measured against
    /// the wave's elapsed wall-clock (0 if nothing ran).
    pub fn ops_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.replayed_ops as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// The `run/ops_per_sec` gauge object: one entry per platform plus
    /// the `total` aggregate.
    fn to_json(&self) -> Json {
        let mut entries: Vec<(String, Json)> = self
            .per_platform
            .iter()
            .map(|(name, ops, secs)| {
                let rate = if *secs > 0.0 { *ops as f64 / secs } else { 0.0 };
                (name.to_string(), Json::F64(rate))
            })
            .collect();
        entries.push(("total".to_string(), Json::F64(self.ops_per_sec())));
        Json::Object(entries)
    }
}

/// Everything the full suite produces: the nine characterization
/// reports (in [`ProgramId::ALL`] order) and the Table 8 evaluation
/// matrix (program-major in [`ProgramId::TRANSFORMED`] order).
#[derive(Debug)]
pub struct SuiteResult {
    /// Scale the suite ran at.
    pub scale: Scale,
    /// Seed the suite ran with.
    pub seed: u64,
    /// Worker threads actually used.
    pub workers: usize,
    /// Jobs scheduled on the pool across both waves: one prepare job per
    /// program plus one replay bank job per (program, variant).
    pub jobs: usize,
    /// One characterization report per program, in `ProgramId::ALL` order.
    pub reports: Vec<(ProgramId, CharacterizationReport)>,
    /// The runtime-evaluation matrix (Tables 7–8, Figure 9).
    pub eval: EvalMatrix,
    /// Every deterministic metric series: the paper metrics exported from
    /// the reports and the evaluation matrix, plus (when
    /// [`SuiteConfig::metrics`] was set) the simulators' raw event
    /// counters and histograms. Identical for every worker count.
    pub metrics: MetricSet,
    /// Wall-clock span timings per program × phase — non-deterministic by
    /// nature and therefore kept out of [`Self::deterministic_json`].
    pub timings: Timings,
    /// Replay-shard throughput (wall-clock; `run` section only).
    pub replay: ReplayThroughput,
}

impl SuiteResult {
    /// The deterministic section of the suite document: run
    /// configuration (scale, seed — but *not* worker count) plus every
    /// metric series, names sorted. Byte-identical across worker counts;
    /// the `suite_determinism` integration test compares exactly these
    /// bytes for `--jobs 1` vs `--jobs 4`.
    pub fn deterministic_json(&self) -> Json {
        let mut entries = vec![(
            "config".to_string(),
            Json::object(vec![
                ("scale", Json::str(self.scale.name())),
                ("seed", Json::U64(self.seed)),
                ("programs", Json::U64(self.reports.len() as u64)),
                ("eval_cells", Json::U64(self.eval.cells.len() as u64)),
            ]),
        )];
        entries.extend(self.metrics.to_json_entries());
        Json::Object(entries)
    }

    /// The full suite document: `schema`, a non-deterministic `run`
    /// section (worker count, pool utilization, replay throughput,
    /// wall-clock timings), and the
    /// [`deterministic`](Self::deterministic_json) section.
    pub fn to_json(&self) -> Json {
        let run = Json::object(vec![
            ("jobs", Json::U64(self.jobs as u64)),
            ("workers", Json::U64(self.workers as u64)),
            ("jobs_per_worker", Json::F64(jobs_per_worker(self.jobs, self.workers))),
            ("replayed_ops", Json::U64(self.replay.replayed_ops)),
            ("ops_per_sec", self.replay.to_json()),
            ("timings", self.timings.to_json()),
        ]);
        Json::object(vec![
            ("schema", Json::str(SUITE_SCHEMA)),
            ("run", run),
            ("deterministic", self.deterministic_json()),
        ])
    }
}

/// The `run/jobs_per_worker` gauge: jobs divided by workers, clamped to
/// `0` when no worker ran and rounded to two decimals so the rendering
/// is always a stable, short, finite decimal (the JSON layer cannot
/// represent NaN or infinity).
fn jobs_per_worker(jobs: usize, workers: usize) -> f64 {
    if workers == 0 {
        return 0.0;
    }
    let ratio = jobs as f64 / workers as f64;
    if !ratio.is_finite() {
        return 0.0;
    }
    (ratio * 100.0).round() / 100.0
}

/// One captured trace, either resident in memory or spilled to disk
/// segments. Replay banks treat both identically; only the streaming
/// mechanics (and peak memory) differ.
#[derive(Clone)]
enum TraceStore {
    Memory(Arc<Recording>),
    Segmented(Arc<SegmentedRecording>),
}

impl TraceStore {
    fn len(&self) -> usize {
        match self {
            TraceStore::Memory(r) => r.len(),
            TraceStore::Segmented(s) => s.len(),
        }
    }

    /// Single-decode fan-out over a bank of consumers (segmented stores
    /// stream with the next segment prefetched in the background).
    fn replay_bank<C: TraceConsumer>(&self, bank: &mut [C]) -> Result<(), SegmentError> {
        match self {
            TraceStore::Memory(r) => {
                r.replay_bank(bank);
                Ok(())
            }
            TraceStore::Segmented(s) => s.replay_bank(bank),
        }
    }
}

/// Both captured traces of one transformable program, shared with the
/// replay bank jobs.
struct ProgramRecordings {
    original: TraceStore,
    transformed: TraceStore,
}

/// Output of one per-program prepare job.
struct PreparedProgram {
    report: CharacterizationReport,
    /// Characterization events, already namespaced `events/<name>/cache/…`
    /// (empty unless event collection was requested).
    events: MetricSet,
    /// This job's wall-clock phase spans.
    timings: Timings,
    /// Captured traces; `None` for the three programs the paper
    /// characterized but did not transform.
    recordings: Option<ProgramRecordings>,
}

/// Output of one replay bank job: every applicable platform's pass over
/// one recording, produced by a single decode of the packed stream.
struct BankOutput {
    /// `(platform result, raw events)` aligned with the job's platform
    /// list (events are un-namespaced and empty unless requested).
    results: Vec<(SimResult, MetricSet)>,
    /// Ops in the recording (what *each* platform consumed).
    ops: u64,
    /// Wall-clock of the whole bank pass (shared decode included).
    elapsed: Duration,
}

/// The platform models applicable to `program`, in
/// [`PlatformConfig::all`] order (dnapenny has no Itanium cell).
fn applicable_platforms(program: ProgramId) -> Vec<PlatformConfig> {
    PlatformConfig::all()
        .into_iter()
        .filter(|p| EvalMatrix::cell_applicable(program, p.name))
        .collect()
}

/// Executes one variant once and captures its trace.
pub(crate) fn record_variant(
    program: ProgramId,
    variant: Variant,
    scale: Scale,
    seed: u64,
    capacity: usize,
) -> Result<Recording, SuiteError> {
    let mut tape = Tape::new(Recorder::with_capacity(capacity));
    registry::run(&mut tape, program, variant, scale, seed);
    let (static_program, rec) = tape.finish();
    if rec.overflowed() {
        return Err(SuiteError::TraceOverflow { program, variant, captured: rec.len() });
    }
    Ok(rec.into_recording(static_program))
}

/// Executes one variant once, spilling its trace to disk segments.
fn record_variant_spilled(
    program: ProgramId,
    variant: Variant,
    scale: Scale,
    seed: u64,
    capacity: usize,
    spill: &SpillConfig,
) -> Result<SegmentedRecording, SuiteError> {
    let seg_err = |error| SuiteError::Segment { program, variant, error };
    let recorder = SpillRecorder::to_dir(spill.trace_dir(program, variant), spill.segment_ops(), capacity)
        .map_err(seg_err)?;
    let mut tape = Tape::new(recorder);
    registry::run(&mut tape, program, variant, scale, seed);
    let (static_program, rec) = tape.finish();
    if rec.overflowed() {
        return Err(SuiteError::TraceOverflow { program, variant, captured: rec.len() });
    }
    rec.into_segmented(static_program).map_err(seg_err)
}

/// One prepare job: characterize `program` from a single instrumented
/// execution and, if it has a load-transformed variant, capture both
/// variants' traces for the replay wave. Every phase runs under a
/// wall-clock span (`<program>/trace`, `/characterize`); with `events`
/// set the characterizer also collects raw cache events, namespaced
/// `events/<program>/cache/…`.
fn prepare_program(
    program: ProgramId,
    scale: Scale,
    seed: u64,
    events: bool,
    capacity: usize,
    spill: Option<SpillConfig>,
) -> Result<PreparedProgram, SuiteError> {
    let name = program.name();
    let mut timings = Timings::new();
    let mut metrics = MetricSet::new();
    let characterizer = if events { Characterizer::with_metrics() } else { Characterizer::new() };

    if !program.is_transformable() {
        let mut tape = Tape::new(characterizer);
        timings.time(&format!("{name}/trace"), || {
            registry::run(&mut tape, program, Variant::Original, scale, seed);
        });
        let (static_program, characterizer) = tape.finish();
        let report = timings
            .time(&format!("{name}/characterize"), || characterizer.into_report(static_program, 10));
        metrics.merge_prefixed(&format!("events/{name}/cache/"), &report.events);
        return Ok(PreparedProgram { report, events: metrics, timings, recordings: None });
    }

    // Single original-variant execution: the tuple consumer fans the op
    // stream out to the characterizer and the replay recorder — in-memory
    // or spilling, per the config — at once.
    let (original, report) = match &spill {
        None => {
            let mut tape = Tape::new((characterizer, Recorder::with_capacity(capacity)));
            timings.time(&format!("{name}/trace"), || {
                registry::run(&mut tape, program, Variant::Original, scale, seed);
            });
            let (static_program, (characterizer, rec)) = tape.finish();
            if rec.overflowed() {
                return Err(SuiteError::TraceOverflow {
                    program,
                    variant: Variant::Original,
                    captured: rec.len(),
                });
            }
            let original = TraceStore::Memory(Arc::new(rec.into_recording(static_program.clone())));
            let report = timings.time(&format!("{name}/characterize"), || {
                characterizer.into_report(static_program, 10)
            });
            (original, report)
        }
        Some(spill) => {
            let seg_err =
                |error| SuiteError::Segment { program, variant: Variant::Original, error };
            let recorder = SpillRecorder::to_dir(
                spill.trace_dir(program, Variant::Original),
                spill.segment_ops(),
                capacity,
            )
            .map_err(seg_err)?;
            let mut tape = Tape::new((characterizer, recorder));
            timings.time(&format!("{name}/trace"), || {
                registry::run(&mut tape, program, Variant::Original, scale, seed);
            });
            let (static_program, (characterizer, rec)) = tape.finish();
            if rec.overflowed() {
                return Err(SuiteError::TraceOverflow {
                    program,
                    variant: Variant::Original,
                    captured: rec.len(),
                });
            }
            let segmented = rec.into_segmented(static_program.clone()).map_err(seg_err)?;
            let original = TraceStore::Segmented(Arc::new(segmented));
            let report = timings.time(&format!("{name}/characterize"), || {
                characterizer.into_report(static_program, 10)
            });
            (original, report)
        }
    };
    metrics.merge_prefixed(&format!("events/{name}/cache/"), &report.events);

    let transformed = timings.time(&format!("{name}/trace"), || match &spill {
        None => record_variant(program, Variant::LoadTransformed, scale, seed, capacity)
            .map(|rec| TraceStore::Memory(Arc::new(rec))),
        Some(spill) => {
            record_variant_spilled(program, Variant::LoadTransformed, scale, seed, capacity, spill)
                .map(|seg| TraceStore::Segmented(Arc::new(seg)))
        }
    })?;
    Ok(PreparedProgram {
        report,
        events: metrics,
        timings,
        recordings: Some(ProgramRecordings { original, transformed }),
    })
}

/// Replays one trace store through a bank of platform models with a
/// single decode pass, timing the whole pass. Segmented stores stream
/// from disk and can fail with a typed segment error.
fn replay_bank_job(
    store: &TraceStore,
    platforms: &[PlatformConfig],
    events: bool,
) -> Result<BankOutput, SegmentError> {
    let bank = PlatformBank::new(platforms);
    let mut bank = if events { bank.with_metrics() } else { bank };
    let start = Instant::now();
    store.replay_bank(std::slice::from_mut(&mut bank))?;
    let elapsed = start.elapsed();
    let results = (0..bank.len()).map(|i| (bank.result(i), bank.take_metrics(i))).collect();
    Ok(BankOutput { results, ops: store.len() as u64, elapsed })
}

/// One program's shard-merged replay output.
#[derive(Default)]
struct ProgramReplay {
    /// Table 8 cells, platform-major in [`PlatformConfig::all`] order.
    cells: Vec<EvalCell>,
    /// Simulator events, namespaced
    /// `events/<name>/<platform>/{original|transformed}/…`.
    events: MetricSet,
}

/// Bank-merged output of the replay wave.
struct BankedReplay {
    /// Aligned with the `recorded` input (one entry per program).
    per_program: Vec<ProgramReplay>,
    /// `<name>/replay` spans, one per bank job.
    timings: Timings,
    throughput: ReplayThroughput,
    /// Bank jobs scheduled.
    jobs: usize,
}

/// The replay wave: one bank job per (program, variant), scheduled
/// together on the pool so recordings of different programs
/// load-balance. Each job decodes its recording exactly once and drives
/// every applicable platform model off the shared stream. The job
/// enumeration — program (input order) × variant (original first) — is
/// fixed, and outputs are merged by walking the same enumeration, so
/// results are identical for any worker count.
fn replay_banked(
    recorded: &[(ProgramId, ProgramRecordings)],
    threads: usize,
    events: bool,
) -> Result<BankedReplay, SuiteError> {
    let mut jobs = Vec::new();
    for (program, recs) in recorded {
        let platforms: Arc<Vec<PlatformConfig>> = Arc::new(applicable_platforms(*program));
        for store in [&recs.original, &recs.transformed] {
            let store = store.clone();
            let platforms = Arc::clone(&platforms);
            jobs.push(move || replay_bank_job(&store, &platforms, events));
        }
    }
    let bank_jobs = jobs.len();
    let wave = Instant::now();
    let outputs = run_jobs(jobs, threads);
    let wall = wave.elapsed();

    let mut per_program = Vec::with_capacity(recorded.len());
    let mut timings = Timings::new();
    let mut throughput = ReplayThroughput::default();
    let mut out = outputs.into_iter();
    for (program, _) in recorded {
        let name = program.name();
        let mut merged = ProgramReplay::default();
        let platforms = applicable_platforms(*program);
        // The fixed enumeration pairs job outputs back to (program,
        // variant), so a streamed-replay failure names its trace.
        let seg_err = |variant, error| SuiteError::Segment { program: *program, variant, error };
        let original = out
            .next()
            .expect("one bank per enumeration slot")
            .map_err(|e| seg_err(Variant::Original, e))?;
        let transformed = out
            .next()
            .expect("one bank per enumeration slot")
            .map_err(|e| seg_err(Variant::LoadTransformed, e))?;
        for bank in [&original, &transformed] {
            timings.record(&format!("{name}/replay"), bank.elapsed);
        }
        for (i, platform) in platforms.iter().enumerate() {
            for (bank, variant) in [(&original, "original"), (&transformed, "transformed")] {
                throughput.add(platform.name, bank.ops, bank.elapsed / platforms.len() as u32);
                merged.events.merge_prefixed(
                    &format!("events/{name}/{}/{variant}/", platform.name),
                    &bank.results[i].1,
                );
            }
            merged.cells.push(EvalCell {
                program: *program,
                platform: platform.name,
                original: original.results[i].0,
                transformed: transformed.results[i].0,
            });
        }
        per_program.push(merged);
    }
    throughput.seconds = wall.as_secs_f64();
    Ok(BankedReplay { per_program, timings, throughput, jobs: bank_jobs })
}

/// Runs the nine-program characterization suite and the six-program ×
/// four-platform runtime evaluation as two parallel job waves: per-
/// program prepare jobs, then per-(program, variant) replay bank jobs —
/// each decoding its shared recording once for all platform models.
pub fn run_suite(cfg: SuiteConfig) -> Result<SuiteResult, SuiteError> {
    let threads = if cfg.jobs == 0 { default_jobs() } else { cfg.jobs };

    // Wave 1: trace + characterize + record, one job per program.
    let capacity = cfg.capacity();
    let jobs: Vec<_> = ProgramId::ALL
        .into_iter()
        .map(|program| {
            let spill = cfg.spill.clone();
            move || prepare_program(program, cfg.scale, cfg.seed, cfg.metrics, capacity, spill)
        })
        .collect();
    let results = run_jobs(jobs, threads);

    // Merge per-job outputs in job order, so the merged metric set is the
    // same whatever order the workers finished in.
    let mut reports = Vec::with_capacity(ProgramId::ALL.len());
    let mut recorded: Vec<(ProgramId, ProgramRecordings)> = Vec::new();
    let mut metrics = MetricSet::new();
    let mut timings = Timings::new();
    for (program, result) in ProgramId::ALL.into_iter().zip(results) {
        let prepared = result?;
        metrics.merge(&prepared.events);
        timings.merge(&prepared.timings);
        reports.push((program, prepared.report));
        if let Some(recordings) = prepared.recordings {
            recorded.push((program, recordings));
        }
    }

    // Wave 2: replay banks across all programs at once.
    let replay = replay_banked(&recorded, threads, cfg.metrics)?;
    timings.merge(&replay.timings);
    for merged in &replay.per_program {
        metrics.merge(&merged.events);
    }
    // Emit Table 8 cells program-major in the paper's (TRANSFORMED)
    // order, independent of ALL's ordering.
    let mut cells = Vec::new();
    for program in ProgramId::TRANSFORMED {
        if let Some(i) = recorded.iter().position(|(p, _)| *p == program) {
            cells.extend(replay.per_program[i].cells.iter().copied());
        }
    }
    let eval = EvalMatrix { cells };
    // The paper-metric series are always exported, events switch or not.
    for (program, report) in &reports {
        report.export_metrics(&mut metrics, &format!("char/{}/", program.name()));
    }
    eval.export_metrics(&mut metrics, "eval/");
    Ok(SuiteResult {
        scale: cfg.scale,
        seed: cfg.seed,
        workers: threads,
        jobs: reports.len() + replay.jobs,
        reports,
        eval,
        metrics,
        timings,
        replay: replay.throughput,
    })
}

/// Characterizes every program in parallel; results in
/// [`ProgramId::ALL`] order. The parallel backend behind the
/// table/figure binaries that loop over all nine programs.
pub fn characterize_all(
    scale: Scale,
    seed: u64,
    jobs: usize,
) -> Vec<(ProgramId, CharacterizationReport)> {
    let threads = if jobs == 0 { default_jobs() } else { jobs };
    let work: Vec<_> = ProgramId::ALL
        .into_iter()
        .map(|program| move || crate::characterize::characterize_program(program, scale, seed))
        .collect();
    ProgramId::ALL.into_iter().zip(run_jobs(work, threads)).collect()
}

/// Runs the Table 8 evaluation in parallel: per program, each variant is
/// executed once (wave 1), then each recording is decoded once by a
/// replay bank job that drives every platform model (wave 2). Cell
/// order matches [`EvalMatrix::run`].
pub fn evaluate_all(scale: Scale, seed: u64, jobs: usize) -> Result<EvalMatrix, SuiteError> {
    let threads = if jobs == 0 { default_jobs() } else { jobs };
    let work: Vec<_> = ProgramId::TRANSFORMED
        .into_iter()
        .map(|program| {
            move || -> Result<ProgramRecordings, SuiteError> {
                Ok(ProgramRecordings {
                    original: TraceStore::Memory(Arc::new(record_variant(
                        program,
                        Variant::Original,
                        scale,
                        seed,
                        DEFAULT_CAPACITY,
                    )?)),
                    transformed: TraceStore::Memory(Arc::new(record_variant(
                        program,
                        Variant::LoadTransformed,
                        scale,
                        seed,
                        DEFAULT_CAPACITY,
                    )?)),
                })
            }
        })
        .collect();
    let mut recorded = Vec::with_capacity(ProgramId::TRANSFORMED.len());
    for (program, result) in ProgramId::TRANSFORMED.into_iter().zip(run_jobs(work, threads)) {
        recorded.push((program, result?));
    }
    let replay = replay_banked(&recorded, threads, false)?;
    Ok(EvalMatrix { cells: replay.per_program.into_iter().flat_map(|p| p.cells).collect() })
}

/// Schema tag of the conformance report (`conform --metrics`); bump on
/// breaking shape changes.
pub const CONFORM_SCHEMA: &str = "bioperf-conform/v1";

/// Configuration for [`run_conform`].
#[derive(Debug, Clone)]
pub struct ConformConfig {
    /// Seeded fuzz cases to run.
    pub cases: u64,
    /// Base seed; case `i`'s stream seed is derived from it.
    pub seed: u64,
    /// Worker threads; `0` means [`default_jobs`].
    pub jobs: usize,
    /// Arm this catalogued fault for the fuzz run (mutation mode).
    pub inject: Option<FaultId>,
    /// Also cross-check the nine real program traces end-to-end
    /// (ignored in mutation mode, where only the fuzzer runs).
    pub check_programs: bool,
    /// Directory for shrunk counterexample artifacts (written only when
    /// a *clean* run diverges — in mutation mode divergence is the
    /// expected outcome).
    pub out_dir: Option<PathBuf>,
}

/// End-to-end differential check of one real program's captured trace.
#[derive(Debug, Clone)]
pub struct ProgramCrossCheck {
    /// Program that was traced.
    pub program: ProgramId,
    /// Ops in the recorded trace.
    pub ops: u64,
    /// Platform models replayed (optimized and reference each).
    pub platforms: usize,
    /// First mismatch found, if any.
    pub divergence: Option<String>,
}

/// Everything [`run_conform`] produces.
#[derive(Debug)]
pub struct ConformResult {
    /// Fuzz cases run.
    pub cases: u64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads actually used.
    pub workers: usize,
    /// The fault armed during the run, if any.
    pub injected: Option<FaultId>,
    /// Total generated stream ops across all cases.
    pub fuzz_ops: u64,
    /// The divergent cases, in case order, each carrying its shrunk
    /// counterexample.
    pub divergent: Vec<CaseOutcome>,
    /// Per-program end-to-end cross-checks (empty unless requested).
    pub programs: Vec<ProgramCrossCheck>,
    /// Counterexample files written to [`ConformConfig::out_dir`].
    pub artifacts: Vec<PathBuf>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl ConformResult {
    /// Index of the first divergent case (the detection latency that
    /// mutation mode compares against [`FaultId::budget`]).
    pub fn first_detection(&self) -> Option<u64> {
        self.divergent.first().map(|o| o.index)
    }

    /// Whether every check passed.
    pub fn is_clean(&self) -> bool {
        self.divergent.is_empty() && self.programs.iter().all(|p| p.divergence.is_none())
    }

    /// The deterministic conformance report. Case outcomes are in case
    /// order and shrinking is deterministic, so this is byte-identical
    /// for every worker count (`conform --jobs 1` vs `--jobs 4`).
    pub fn deterministic_json(&self) -> Json {
        let divergent: Vec<Json> = self
            .divergent
            .iter()
            .map(|o| {
                let ce = o.divergence.as_ref().expect("divergent cases carry a counterexample");
                Json::object(vec![
                    ("case", Json::U64(o.index)),
                    ("stream_seed", Json::U64(o.seed)),
                    ("platform", Json::str(o.platform)),
                    ("component", Json::str(ce.component)),
                    ("witness_ops", Json::U64(ce.ops.len() as u64)),
                    ("detail", Json::str(ce.detail.clone())),
                ])
            })
            .collect();
        let programs: Vec<Json> = self
            .programs
            .iter()
            .map(|p| {
                Json::object(vec![
                    ("program", Json::str(p.program.name())),
                    ("ops", Json::U64(p.ops)),
                    ("platforms", Json::U64(p.platforms as u64)),
                    ("divergence", p.divergence.clone().map_or(Json::Null, Json::Str)),
                ])
            })
            .collect();
        Json::object(vec![
            (
                "config",
                Json::object(vec![
                    ("cases", Json::U64(self.cases)),
                    ("seed", Json::U64(self.seed)),
                    (
                        "fault",
                        Json::str(self.injected.map_or("none", FaultId::name)),
                    ),
                ]),
            ),
            (
                "fuzz",
                Json::object(vec![
                    ("ops", Json::U64(self.fuzz_ops)),
                    ("divergences", Json::U64(self.divergent.len() as u64)),
                    ("first_detection", self.first_detection().map_or(Json::Null, Json::U64)),
                ]),
            ),
            ("divergent", Json::Array(divergent)),
            ("programs", Json::Array(programs)),
        ])
    }

    /// The full conformance document: `schema` plus the
    /// [`deterministic`](Self::deterministic_json) report. Unlike the
    /// suite document there is no `run` section — worker count and
    /// throughput go to stderr — so the whole file is byte-identical
    /// across worker counts.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema", Json::str(CONFORM_SCHEMA)),
            ("deterministic", self.deterministic_json()),
        ])
    }
}

/// Traces `program` into an unpacked reference tape and runs the
/// conformance layer's differential checks ([`fuzz::check_trace`]) over
/// it on every platform the program is evaluated on: the same codec,
/// block, segment, cache, register-file, predictor and pipeline checks
/// the fuzzer runs, at block and segment sizes scaled to the trace.
fn cross_check_program(program: ProgramId, seed: u64) -> ProgramCrossCheck {
    let mut tape = Tape::new(RefTape::new());
    registry::run(&mut tape, program, Variant::Original, Scale::Test, seed);
    let (_, reference) = tape.finish();
    let platforms = applicable_platforms(program);
    ProgramCrossCheck {
        program,
        ops: reference.len() as u64,
        platforms: platforms.len(),
        divergence: fuzz::check_trace(&reference.ops, &platforms)
            .map(|d| format!("{}: {}", d.component, d.detail)),
    }
}

/// Writes one shrunk counterexample as a self-contained text artifact.
fn write_counterexample(dir: &Path, base_seed: u64, outcome: &CaseOutcome) -> io::Result<PathBuf> {
    use std::fmt::Write as _;
    let ce = outcome.divergence.as_ref().expect("only divergent cases are written");
    let mut text = String::new();
    let _ = writeln!(text, "conformance counterexample");
    let _ = writeln!(text, "base seed:   {base_seed}");
    let _ = writeln!(text, "case index:  {}", outcome.index);
    let _ = writeln!(text, "stream seed: {:#x}", outcome.seed);
    let _ = writeln!(text, "platform:    {}", outcome.platform);
    let _ = writeln!(text, "component:   {}", ce.component);
    let _ = writeln!(text, "detail:      {}", ce.detail);
    let _ = writeln!(text);
    let _ = writeln!(
        text,
        "reproduce: bioperf-loadchar conform --cases {} --seed {base_seed} --jobs 1",
        outcome.index + 1
    );
    let _ = writeln!(
        text,
        "(the full {}-op stream is generate_stream({:#x}); the {} ops below are the",
        outcome.ops,
        outcome.seed,
        ce.ops.len()
    );
    let _ = writeln!(text, "removal-shrunk witness — see DESIGN.md section 6)");
    let _ = writeln!(text);
    for (i, op) in ce.ops.iter().enumerate() {
        let _ = writeln!(text, "[{i:3}] {op:?}");
    }
    let path = dir.join(format!("case-{:05}.txt", outcome.index));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Runs the conformance harness: seeded differential fuzzing of every
/// simulator against its reference model (one pool job per case), plus
/// — in clean mode — the nine real program trace cross-checks.
///
/// Mutation mode ([`ConformConfig::inject`]) arms the fault *before*
/// spawning workers (the `SeqCst` store happens-before every job) and
/// disarms it before returning, whatever the outcome.
pub fn run_conform(cfg: &ConformConfig) -> io::Result<ConformResult> {
    let start = Instant::now();
    let threads = if cfg.jobs == 0 { default_jobs() } else { cfg.jobs };

    match cfg.inject {
        Some(f) => fault::arm(f),
        None => fault::disarm(),
    }
    let seed = cfg.seed;
    let jobs: Vec<_> = (0..cfg.cases).map(|index| move || fuzz::run_case(seed, index)).collect();
    let outcomes = run_jobs(jobs, threads);

    // The sweep end to end: a tiny factored sweep diffed against direct
    // per-cell replays, plus an analytic stack-distance cross-check of
    // its cache pass. The cell merge runs above the op-level fuzzer's
    // horizon, so this is the detector for `sweep-merge-order`; the
    // fuzzer's factored leg also sees `factored-annotation-skew` and
    // `timing-fill-overshare`. Runs while the fault is still armed, under
    // those three faults and in clean full-check mode.
    let sweep_divergence = if matches!(
        cfg.inject,
        Some(
            FaultId::SweepMergeOrder
                | FaultId::FactoredAnnotationSkew
                | FaultId::TimingFillOvershare
        )
    ) || (cfg.inject.is_none() && cfg.check_programs)
    {
        crate::sweep::sweep_self_check(seed)
    } else {
        None
    };
    fault::disarm();

    let fuzz_ops = outcomes.iter().map(|o| o.ops as u64).sum();
    let mut divergent: Vec<CaseOutcome> =
        outcomes.into_iter().filter(|o| o.divergence.is_some()).collect();
    if let Some(detail) = sweep_divergence {
        divergent.push(CaseOutcome {
            index: cfg.cases,
            seed,
            platform: "sweep",
            ops: 0,
            divergence: Some(fuzz::CounterExample { component: "sweep", detail, ops: Vec::new() }),
        });
    }

    let programs = if cfg.inject.is_none() && cfg.check_programs {
        let jobs: Vec<_> = ProgramId::ALL
            .into_iter()
            .map(|program| move || cross_check_program(program, seed))
            .collect();
        run_jobs(jobs, threads)
    } else {
        Vec::new()
    };

    let mut artifacts = Vec::new();
    if cfg.inject.is_none() && !divergent.is_empty() {
        if let Some(dir) = &cfg.out_dir {
            std::fs::create_dir_all(dir)?;
            for outcome in &divergent {
                artifacts.push(write_counterexample(dir, cfg.seed, outcome)?);
            }
        }
    }

    Ok(ConformResult {
        cases: cfg.cases,
        seed: cfg.seed,
        workers: threads,
        injected: cfg.inject,
        fuzz_ops,
        divergent,
        programs,
        artifacts,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_jobs_preserves_job_order() {
        let jobs: Vec<_> = (0..32).map(|i| move || i * 10).collect();
        let seq = run_jobs(jobs, 1);
        let jobs: Vec<_> = (0..32).map(|i| move || i * 10).collect();
        let par = run_jobs(jobs, 8);
        assert_eq!(seq, par);
        assert_eq!(seq, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn run_jobs_handles_more_threads_than_jobs() {
        let jobs: Vec<_> = (0..3).map(|i| move || i).collect();
        assert_eq!(run_jobs(jobs, 64), vec![0, 1, 2]);
        let none: Vec<Box<dyn FnOnce() -> i32 + Send>> = Vec::new();
        assert!(run_jobs(none, 4).is_empty());
    }

    #[test]
    fn single_trace_job_matches_direct_characterization() {
        // The tuple fan-out execution inside a prepare job must produce
        // the same characterization as a dedicated characterization run,
        // and capture both variants' traces for the replay wave.
        let direct =
            crate::characterize::characterize_program(ProgramId::Hmmsearch, Scale::Test, 7);
        let job =
            prepare_program(ProgramId::Hmmsearch, Scale::Test, 7, false, DEFAULT_CAPACITY, None)
                .expect("prepare");
        assert_eq!(direct.mix, job.report.mix);
        assert_eq!(direct.cache, job.report.cache);
        assert_eq!(direct.sequences.loads_to_branch, job.report.sequences.loads_to_branch);
        let recordings = job.recordings.expect("hmmsearch is transformable");
        assert!(recordings.original.len() > 0);
        assert!(recordings.transformed.len() > 0);
    }

    #[test]
    fn replayed_platform_sims_match_direct_execution() {
        // Record-once + bank replay must equal running the kernel
        // directly into each platform model.
        let direct = crate::evaluate::evaluate_program(
            ProgramId::Predator,
            PlatformConfig::alpha21264(),
            Scale::Test,
            5,
        );
        let recording =
            record_variant(ProgramId::Predator, Variant::Original, Scale::Test, 5, DEFAULT_CAPACITY)
                .expect("record");
        let store = TraceStore::Memory(Arc::new(recording));
        let platforms = applicable_platforms(ProgramId::Predator);
        let bank = replay_bank_job(&store, &platforms, false).expect("bank");
        assert_eq!(bank.results.len(), platforms.len());
        let alpha = platforms
            .iter()
            .position(|p| p.name == PlatformConfig::alpha21264().name)
            .expect("alpha is applicable");
        assert_eq!(bank.results[alpha].0.cycles, direct.original.cycles);
        assert_eq!(bank.results[alpha].0.instructions, direct.original.instructions);
        assert_eq!(bank.ops, store.len() as u64);
    }

    #[test]
    fn jobs_per_worker_gauge_is_clamped_and_rounded() {
        // Zero-worker edge: clamp to 0.0 instead of emitting inf/NaN,
        // which the JSON layer cannot represent.
        assert_eq!(jobs_per_worker(7, 0), 0.0);
        assert_eq!(jobs_per_worker(0, 0), 0.0);
        // One-worker edge: exact integer ratio survives the rounding.
        assert_eq!(jobs_per_worker(21, 1), 21.0);
        assert_eq!(jobs_per_worker(0, 1), 0.0);
        // Non-terminating ratios render as a stable two-decimal value.
        assert_eq!(jobs_per_worker(1, 3), 0.33);
        assert_eq!(jobs_per_worker(2, 3), 0.67);
        assert_eq!(jobs_per_worker(21, 2), 10.5);
    }

    #[test]
    fn replay_throughput_total_uses_wave_wall_clock() {
        // Per-platform seconds accumulate (CPU-time style), but the
        // aggregate divides by the wave's elapsed wall-clock, set once —
        // summed shard seconds would under-report parallel throughput.
        let mut t = ReplayThroughput::default();
        t.add("A", 1_000, Duration::from_secs(2));
        t.add("B", 1_000, Duration::from_secs(2));
        t.seconds = 2.0; // both platform passes overlapped on the pool
        assert_eq!(t.ops_per_sec(), 1_000.0, "2k ops in 2s of wall-clock");
        let a = &t.per_platform[0];
        assert_eq!((a.0, a.1, a.2), ("A", 1_000, 2.0));

        let empty = ReplayThroughput::default();
        assert_eq!(empty.ops_per_sec(), 0.0, "no replay ran");
    }

    #[test]
    fn trace_overflow_is_a_typed_error_not_a_panic() {
        let err = record_variant(ProgramId::Hmmsearch, Variant::Original, Scale::Test, 42, 10)
            .expect_err("10-op capacity must overflow");
        match &err {
            SuiteError::TraceOverflow { program, variant, captured } => {
                assert_eq!(*program, ProgramId::Hmmsearch);
                assert_eq!(*variant, Variant::Original);
                assert_eq!(*captured, 10);
            }
            other => panic!("expected TraceOverflow, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("hmmsearch"), "{msg}");
        assert!(msg.contains("capacity"), "{msg}");
    }

    #[test]
    fn parallel_suite_equals_sequential_suite() {
        let seq =
            run_suite(SuiteConfig { scale: Scale::Test, seed: 11, jobs: 1, metrics: true, trace_cap: 0, spill: None })
                .expect("suite");
        let par =
            run_suite(SuiteConfig { scale: Scale::Test, seed: 11, jobs: 4, metrics: true, trace_cap: 0, spill: None })
                .expect("suite");
        assert_eq!(seq.reports.len(), par.reports.len());
        for ((pa, a), (pb, b)) in seq.reports.iter().zip(&par.reports) {
            assert_eq!(pa, pb);
            assert_eq!(a.mix, b.mix, "{pa}");
            assert_eq!(a.cache, b.cache, "{pa}: cache stats must not depend on worker count");
            assert_eq!(a.amat, b.amat, "{pa}");
        }
        assert_eq!(seq.eval.cells.len(), par.eval.cells.len());
        // 6 programs x 4 platforms - 1 n.a. cell, like EvalMatrix::run.
        assert_eq!(seq.eval.cells.len(), 23);
        for (a, b) in seq.eval.cells.iter().zip(&par.eval.cells) {
            assert_eq!(a.program, b.program);
            assert_eq!(a.platform, b.platform);
            assert_eq!(a.original.cycles, b.original.cycles);
            assert_eq!(a.transformed.cycles, b.transformed.cycles);
        }
        // The whole deterministic JSON section — config, paper metrics,
        // raw simulator events — must be byte-identical across worker
        // counts. Timings and throughput live in the `run` section and
        // are excluded.
        assert_eq!(seq.deterministic_json().render(), par.deterministic_json().render());
        // Both runs scheduled the same job set: 9 prepare jobs + 12
        // replay banks (6 transformable programs × 2 variants).
        assert_eq!(seq.jobs, par.jobs);
        assert_eq!(seq.jobs, 9 + 12);
        assert_eq!(seq.replay.replayed_ops, par.replay.replayed_ops);
    }

    #[test]
    fn suite_json_has_expected_shape() {
        let suite =
            run_suite(SuiteConfig { scale: Scale::Test, seed: 3, jobs: 2, metrics: false, trace_cap: 0, spill: None })
                .expect("suite");
        let doc = suite.to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SUITE_SCHEMA));
        assert_eq!(doc.keys(), vec!["schema", "run", "deterministic"]);
        let run = doc.get("run").expect("run section");
        assert_eq!(
            run.keys(),
            vec!["jobs", "workers", "jobs_per_worker", "replayed_ops", "ops_per_sec", "timings"]
        );
        let rates = run.get("ops_per_sec").expect("throughput gauges");
        assert!(rates.get("total").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
        assert!(rates.get("Alpha 21264").is_some());
        assert!(run.get("replayed_ops").and_then(Json::as_u64).unwrap_or(0) > 0);
        let det = doc.get("deterministic").expect("deterministic section");
        assert_eq!(det.keys(), vec!["config", "counters", "gauges", "histograms"]);
        let config = det.get("config").expect("config");
        assert_eq!(config.get("scale").and_then(Json::as_str), Some("test"));
        assert_eq!(config.get("seed").and_then(Json::as_u64), Some(3));
        assert_eq!(config.get("programs").and_then(Json::as_u64), Some(9));
        assert_eq!(config.get("eval_cells").and_then(Json::as_u64), Some(23));
        // Paper series are exported even with event metrics off.
        let counters = det.get("counters").expect("counters");
        assert!(counters.get("char/hmmsearch/instructions").is_some());
        let gauges = det.get("gauges").expect("gauges");
        assert!(gauges.get("eval/harmonic_mean/Alpha 21264").is_some());
        // Raw simulator events only appear when asked for.
        assert!(counters.keys().iter().all(|k| !k.starts_with("events/")));
        let with_events =
            run_suite(SuiteConfig { scale: Scale::Test, seed: 3, jobs: 2, metrics: true, trace_cap: 0, spill: None })
                .expect("suite");
        let doc = with_events.to_json();
        let counters = doc.get("deterministic").and_then(|d| d.get("counters")).expect("counters");
        assert!(counters.get("events/hmmsearch/cache/serviced_l1").is_some());
        // Round-trips through the in-crate parser.
        let text = doc.render_pretty();
        let parsed = bioperf_metrics::json::parse(&text).expect("suite JSON parses");
        assert_eq!(parsed.render(), doc.render());
    }

    #[test]
    fn suite_respects_a_small_trace_cap() {
        let err =
            run_suite(SuiteConfig { scale: Scale::Test, seed: 42, jobs: 1, metrics: false, trace_cap: 16, spill: None })
                .expect_err("16-op capacity must overflow");
        match err {
            SuiteError::TraceOverflow { captured, .. } => assert_eq!(captured, 16),
            other => panic!("expected TraceOverflow, got {other:?}"),
        }
    }

    /// A unique scratch directory under the target-adjacent temp dir.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bioperf-orch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spilled_suite_is_byte_identical_to_in_memory_suite() {
        let memory = run_suite(SuiteConfig {
            scale: Scale::Test,
            seed: 11,
            jobs: 2,
            metrics: true,
            trace_cap: 0,
            spill: None,
        })
        .expect("suite");
        // Tiny segments force many per-trace segment files, and jobs=4
        // overlaps loader threads with pool workers.
        let dir = scratch("spill-eq");
        let spilled = run_suite(SuiteConfig {
            scale: Scale::Test,
            seed: 11,
            jobs: 4,
            metrics: true,
            trace_cap: 0,
            spill: Some(SpillConfig { dir: dir.clone(), segment_ops: 1 << 12 }),
        })
        .expect("spilled suite");
        assert_eq!(
            memory.deterministic_json().render(),
            spilled.deterministic_json().render(),
            "streamed replay must not change a single deterministic byte"
        );
        assert_eq!(memory.jobs, spilled.jobs);
        assert_eq!(memory.replay.replayed_ops, spilled.replay.replayed_ops);
        // The traces really were spilled: every transformable program
        // left segment files behind.
        let traces = std::fs::read_dir(&dir).expect("spill dir").count();
        assert_eq!(traces, 2 * ProgramId::TRANSFORMED.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_cap_bounds_total_ops_across_segments() {
        // segment_ops far below the cap: a per-segment misreading would
        // never overflow, the whole-trace cap must still trip at 16 ops.
        let dir = scratch("spill-cap");
        let err = run_suite(SuiteConfig {
            scale: Scale::Test,
            seed: 42,
            jobs: 1,
            metrics: false,
            trace_cap: 16,
            spill: Some(SpillConfig { dir: dir.clone(), segment_ops: 4 }),
        })
        .expect_err("16-op total capacity must overflow even with 4-op segments");
        match err {
            SuiteError::TraceOverflow { captured, .. } => assert_eq!(captured, 16),
            other => panic!("expected TraceOverflow, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_middle_segment_is_a_typed_suite_error() {
        let dir = scratch("spill-missing");
        let spill = SpillConfig { dir: dir.clone(), segment_ops: 1 << 10 };
        let prepared =
            prepare_program(ProgramId::Predator, Scale::Test, 5, false, DEFAULT_CAPACITY, Some(spill))
                .expect("prepare");
        let recordings = prepared.recordings.expect("predator is transformable");
        let TraceStore::Segmented(segmented) = &recordings.original else {
            panic!("spill mode must produce segmented stores");
        };
        let paths = segmented.segment_paths();
        assert!(paths.len() >= 2, "need a middle segment to delete");
        let victim = paths[paths.len() / 2].to_path_buf();
        std::fs::remove_file(&victim).expect("delete middle segment");

        let recorded = vec![(ProgramId::Predator, recordings)];
        let err = match replay_banked(&recorded, 2, false) {
            Ok(_) => panic!("replay with a missing segment must fail"),
            Err(e) => e,
        };
        match &err {
            SuiteError::Segment { program, variant, error } => {
                assert_eq!(*program, ProgramId::Predator);
                assert_eq!(*variant, Variant::Original);
                assert_eq!(error.path(), victim.as_path());
                assert!(matches!(error, SegmentError::Missing { .. }), "{error:?}");
            }
            other => panic!("expected Segment error, got {other:?}"),
        }
        assert!(err.to_string().contains(victim.to_str().unwrap()), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // No test here arms a fault: the fault registry is process-global
    // and this binary's tests run concurrently. Mutation coverage lives
    // in the conform crate's serial `tests/inject.rs`.
    #[test]
    fn conform_fuzz_report_is_identical_across_worker_counts() {
        let cfg = |jobs| ConformConfig {
            cases: 12,
            seed: 7,
            jobs,
            inject: None,
            check_programs: false,
            out_dir: None,
        };
        let seq = run_conform(&cfg(1)).expect("conform");
        let par = run_conform(&cfg(4)).expect("conform");
        assert!(seq.is_clean(), "clean build diverged: {:?}", seq.divergent.first());
        assert_eq!(seq.workers, 1);
        assert_eq!(par.workers, 4);
        assert_eq!(seq.fuzz_ops, par.fuzz_ops);
        // The whole JSON document, not just a section, is byte-stable.
        assert_eq!(seq.to_json().render_pretty(), par.to_json().render_pretty());
        let doc = seq.to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(CONFORM_SCHEMA));
        let det = doc.get("deterministic").expect("deterministic section");
        assert_eq!(det.keys(), vec!["config", "fuzz", "divergent", "programs"]);
        assert_eq!(det.get("config").and_then(|c| c.get("fault")).and_then(Json::as_str), Some("none"));
        assert!(det.get("fuzz").and_then(|f| f.get("ops")).and_then(Json::as_u64).unwrap_or(0) > 0);
    }

    #[test]
    fn program_cross_check_passes_on_a_real_trace() {
        let check = cross_check_program(ProgramId::Predator, 5);
        assert_eq!(check.divergence, None, "predator trace diverged");
        assert!(check.ops > 0);
        assert_eq!(check.platforms, applicable_platforms(ProgramId::Predator).len());
    }

    #[test]
    fn evaluate_all_matches_eval_matrix_run() {
        let a = EvalMatrix::run(Scale::Test, 2);
        let b = evaluate_all(Scale::Test, 2, 3).expect("evaluate");
        // The suite's Table 8 comes from recordings captured with the
        // characterizer fused into the original variant's tape: that
        // fusion must leave every simulated result unchanged.
        let suite = run_suite(SuiteConfig {
            scale: Scale::Test,
            seed: 2,
            jobs: 2,
            metrics: false,
            trace_cap: 0,
            spill: None,
        })
        .expect("suite");
        for other in [&b, &suite.eval] {
            assert_eq!(a.cells.len(), other.cells.len());
            for (x, y) in a.cells.iter().zip(&other.cells) {
                assert_eq!(x.program, y.program);
                assert_eq!(x.platform, y.platform);
                assert_eq!(x.original, y.original, "{} on {}", x.program, x.platform);
                assert_eq!(x.transformed, y.transformed, "{} on {}", x.program, x.platform);
            }
        }
    }
}
