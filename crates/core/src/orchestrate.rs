//! Parallel single-trace experiment orchestration.
//!
//! The paper's experiments decompose into independent jobs, scheduled on
//! a [`std::thread::scope`] worker pool ([`run_jobs`]), one job per
//! (program, variant) execution. Like the paper's ATOM analysis
//! routines, the in-memory suite never saves a trace: each job runs its
//! kernel once and the analyses consume the op stream as it is produced,
//! one block per worker in flight (the `live_traces_peak` gauge counts
//! the traces):
//!
//! * a transformable program's **original** job runs the instrumented
//!   kernel into `(Characterizer, BlockFeed<PlatformBank>)`: one
//!   execution feeds the instruction-mix/coverage/cache/sequence passes
//!   **and** a *bank* of platform simulators, in blocks built live — no
//!   packed encode or decode;
//! * its **load-transformed** job runs into `BlockFeed<PlatformBank>`;
//! * the three untransformed programs' jobs only characterize.
//!
//! With [`SuiteConfig::spill`] set, a job records its trace to disk
//! segments instead and streams them back through the bank; results
//! are byte-identical either way.
//!
//! Jobs start longest first (`run_jobs_ranked`), but result vectors
//! are indexed by job, not by start or completion order, and the
//! bank→cell merge walks a fixed enumeration, so the orchestrated output
//! is identical for any worker count. Combined with address
//! normalization (see `bioperf_trace::normalize`) this makes the whole
//! suite deterministic: `--jobs 1` and `--jobs N` produce byte-identical
//! reports.
//!
//! Trace-capacity overflow surfaces as a typed [`SuiteError`] (the
//! `suite` CLI reports it and exits 1) rather than a panic. The first
//! failed job in enumeration order stops the pool: later jobs do not
//! start, and that failure is the one reported, whatever the worker
//! count.
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
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bioperf_conform::fuzz::{self, CaseOutcome};
use bioperf_conform::RefTape;
use bioperf_isa::Program;
use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_metrics::{Json, MetricSet, Timings};
use bioperf_pipe::{PlatformBank, PlatformConfig, SimResult};
use bioperf_trace::{
    replay::DEFAULT_CAPACITY, BlockFeed, Recorder, Recording, SegmentError, SegmentedRecording,
    SpillRecorder, Tape,
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
    /// A kernel emitted more ops than the trace capacity, so the
    /// recorded or fed trace is a prefix and every simulated number
    /// would be wrong.
    TraceOverflow {
        /// Program whose trace overflowed.
        program: ProgramId,
        /// Variant being traced.
        variant: Variant,
        /// Ops captured before the trace hit its capacity.
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
                "{program} ({}): trace exceeded its capacity after {captured} ops; \
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

/// [`run_jobs`] over fallible `(rank, job)` pairs: the pool claims jobs
/// in ascending rank (ties keep input order) and returns the results in
/// input order, so the rank shapes load balance and never output.
///
/// The first failure stops the pool: once job `i` has failed, no job
/// after `i` in input order starts (jobs already running finish). Every
/// job before the first failed one still runs, so the error returned is
/// always that of the first failing job in input order, whatever the
/// worker count and claim order.
pub(crate) fn run_jobs_ranked<K, T, E, F>(jobs: Vec<(K, F)>, threads: usize) -> Result<Vec<T>, E>
where
    K: Ord,
    T: Send,
    E: Send,
    F: FnOnce() -> Result<T, E> + Send,
{
    // Lowest input index that has failed so far. It publishes no data
    // (results travel through `run_jobs`), so relaxed ordering suffices:
    // a stale read only lets a doomed job start.
    let first_failed = AtomicUsize::new(usize::MAX);
    let mut ranked: Vec<(usize, (K, F))> = jobs.into_iter().enumerate().collect();
    ranked.sort_by(|(_, (a, _)), (_, (b, _))| a.cmp(b));
    let first_failed = &first_failed;
    let (order, pool): (Vec<usize>, Vec<_>) = ranked
        .into_iter()
        .map(|(i, (_, job))| {
            (i, move || {
                let out = (first_failed.load(Ordering::Relaxed) > i).then(job)?;
                if out.is_err() {
                    first_failed.fetch_min(i, Ordering::Relaxed);
                }
                Some(out)
            })
        })
        .unzip();
    let mut out: Vec<Option<Result<T, E>>> = order.iter().map(|_| None).collect();
    for (i, result) in order.into_iter().zip(run_jobs(pool, threads)) {
        out[i] = result;
    }
    // A job is skipped only after an earlier one failed, so the collect
    // stops at that error before reaching a skipped slot.
    out.into_iter().map(|r| r.expect("only jobs after a failure are skipped")).collect()
}

/// Programs by trace length at Small scale, longest first: the four
/// large kernels, then the rest. Jobs start in this order
/// ([`run_jobs_ranked`]), since the pool claims jobs in order and a long
/// job started last would run alone; no trace length is known before a
/// job has run its kernel.
const LONGEST_FIRST: [ProgramId; 9] = [
    ProgramId::Clustalw,
    ProgramId::Hmmpfam,
    ProgramId::Hmmcalibrate,
    ProgramId::Hmmsearch,
    ProgramId::Blast,
    ProgramId::Promlk,
    ProgramId::Fasta,
    ProgramId::Predator,
    ProgramId::Dnapenny,
];

/// Start rank of one (program, variant) job: programs in
/// [`LONGEST_FIRST`] order, each program's two variants next to each
/// other, original first.
pub(crate) fn job_rank(program: ProgramId, variant: Variant) -> (usize, bool) {
    let at = LONGEST_FIRST.iter().position(|&p| p == program).expect("every program is ranked");
    (at, variant == Variant::LoadTransformed)
}

/// High-water mark of traces in flight at once during one pool run,
/// whether fed live, recorded or spilled. A job holds a [`LiveTrace`]
/// from before its kernel starts until after its trace (or block buffer)
/// is dropped, so the peak is at most the worker count.
#[derive(Debug, Default)]
pub(crate) struct LiveTraces {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl LiveTraces {
    /// Counts one more live trace until the returned guard drops.
    pub(crate) fn enter(&self) -> LiveTrace<'_> {
        // Each increment returns its exact place in the counter's
        // modification order, so the maximum over them is exact even
        // with relaxed ordering.
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(live, Ordering::Relaxed);
        LiveTrace(self)
    }

    /// Most traces that were alive at once.
    pub(crate) fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// One live trace of a [`LiveTraces`] gauge.
pub(crate) struct LiveTrace<'a>(&'a LiveTraces);

impl Drop for LiveTrace<'_> {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Worker count to use when the caller passes `0` ("auto").
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Spill-to-disk configuration: record each (program, variant) trace as
/// fixed-size segment files under a per-trace subdirectory of `dir` and
/// stream its bank replay from disk, bounding peak memory by O(segment
/// size). (The in-memory suite records nothing: its banks are fed live.)
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
    /// Capacity (in ops) of every trace, fed or spilled; `0` means
    /// [`DEFAULT_CAPACITY`]. Small caps force the
    /// [`SuiteError::TraceOverflow`] path deterministically. In spill
    /// mode the cap bounds the *total* ops of a trace across all its
    /// segments, exactly as it bounds the ops a live feed passes to its
    /// bank otherwise.
    pub trace_cap: usize,
    /// Spill each trace to disk segments and stream its bank replay from
    /// them ([`None`] feeds each bank live, recording nothing). The
    /// output is byte-identical either way.
    pub spill: Option<SpillConfig>,
}

impl SuiteConfig {
    /// The effective trace capacity ([`DEFAULT_CAPACITY`] when
    /// [`Self::trace_cap`] is `0`).
    pub fn capacity(&self) -> usize {
        if self.trace_cap == 0 {
            DEFAULT_CAPACITY
        } else {
            self.trace_cap
        }
    }
}

/// Wall-clock replay throughput, aggregated over the suite's pool.
/// Non-deterministic by nature: reported in the JSON `run` section
/// (`run/ops_per_sec/total`), never in the deterministic section. There
/// is no per-platform rate: one bank drives every platform, so the pool
/// never times a platform on its own.
#[derive(Debug, Clone, Default)]
pub struct ReplayThroughput {
    /// Ops simulated across all platform passes (each platform consumes
    /// its trace's ops once, even though one bank block feeds every
    /// platform in the bank).
    pub replayed_ops: u64,
    /// Elapsed wall-clock of the whole job pool, pool start to pool
    /// join. Each job runs its kernel as well as its bank, so this
    /// covers tracing and characterization too: the gauge is the
    /// suite's end-to-end replay rate, not the bank loop's. It divides by
    /// *this*, not by summed per-job seconds, which overlap on the pool
    /// and would under-report aggregate throughput whenever jobs run in
    /// parallel.
    pub seconds: f64,
}

impl ReplayThroughput {
    /// Aggregate replay throughput in ops per second, measured against
    /// the pool's elapsed wall-clock (0 if nothing ran).
    pub fn ops_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.replayed_ops as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// The `run/ops_per_sec` gauge object.
    fn to_json(&self) -> Json {
        Json::object(vec![("total", Json::F64(self.ops_per_sec()))])
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
    /// Work items the pool ran: one characterization per program plus
    /// one platform bank per (program, variant) trace, so
    /// `jobs − reports.len()` is the number of traces the banks
    /// consumed. A transformable program's original variant does both
    /// in one pool job.
    pub jobs: usize,
    /// Most traces in flight at once: at most [`Self::workers`], and
    /// exactly 1 on one worker.
    pub live_traces_peak: usize,
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
    /// section (worker count, pool utilization, live-trace high-water
    /// mark, replay throughput, wall-clock timings), and the
    /// [`deterministic`](Self::deterministic_json) section.
    pub fn to_json(&self) -> Json {
        let run = Json::object(vec![
            ("jobs", Json::U64(self.jobs as u64)),
            ("workers", Json::U64(self.workers as u64)),
            ("jobs_per_worker", Json::F64(jobs_per_worker(self.jobs, self.workers))),
            ("live_traces_peak", Json::U64(self.live_traces_peak as u64)),
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

/// Output of one platform bank: every applicable platform's pass over
/// one (program, variant) trace.
struct BankOutput {
    /// `(platform result, raw events)` aligned with the job's platform
    /// list (events are un-namespaced and empty unless requested).
    results: Vec<(SimResult, MetricSet)>,
    /// Ops in the trace (what *each* platform consumed).
    ops: u64,
}

impl BankOutput {
    /// Every member's result and events, from a bank that has consumed
    /// an `ops`-op trace.
    fn drain(mut bank: PlatformBank, ops: usize) -> Self {
        let results = (0..bank.len()).map(|i| (bank.result(i), bank.take_metrics(i))).collect();
        BankOutput { results, ops: ops as u64 }
    }
}

/// The members of `platforms` that `program` is evaluated on, in the
/// order given ([`EvalMatrix::cell_applicable`]).
fn applicable_platforms(program: ProgramId, platforms: &[PlatformConfig]) -> Vec<PlatformConfig> {
    platforms.iter().copied().filter(|p| EvalMatrix::cell_applicable(program, p.name)).collect()
}

/// One bank of `platforms`, collecting raw events if `events` is set.
fn platform_bank(platforms: &[PlatformConfig], events: bool) -> PlatformBank {
    let bank = PlatformBank::new(platforms);
    if events {
        bank.with_metrics()
    } else {
        bank
    }
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

/// One (program, variant) execution: one pool job of [`run_suite`] or
/// [`evaluate_all`].
#[derive(Debug, Clone)]
struct TraceJob {
    program: ProgramId,
    variant: Variant,
    /// The members of the bank the execution feeds (none if untransformable).
    platforms: Vec<PlatformConfig>,
}

/// Every (program, variant) execution over `programs`, each feeding a
/// bank of its program's applicable `platforms`, in the fixed
/// enumeration the merges walk: programs in input order, each original
/// variant just before its load-transformed one (untransformed programs
/// have only the original, with no bank).
fn enumerate_jobs(programs: &[ProgramId], platforms: &[PlatformConfig]) -> Vec<TraceJob> {
    let mut jobs = Vec::new();
    for &program in programs {
        if !program.is_transformable() {
            jobs.push(TraceJob { program, variant: Variant::Original, platforms: Vec::new() });
            continue;
        }
        let platforms = applicable_platforms(program, platforms);
        for variant in Variant::ALL {
            jobs.push(TraceJob { program, variant, platforms: platforms.clone() });
        }
    }
    jobs
}

/// Executes one variant once into `characterizer` (if any) and, through
/// a [`BlockFeed`], a bank of the job's platforms: the in-memory suite's
/// and [`evaluate_all`]'s job. The bank consumes each block as the
/// kernel fills it, so no trace is recorded, encoded or decoded, and at
/// most `capacity` ops are fed.
fn feed_variant(
    job: &TraceJob,
    scale: Scale,
    seed: u64,
    capacity: usize,
    characterizer: Option<Characterizer>,
    events: bool,
) -> Result<(Program, Option<Characterizer>, BankOutput), SuiteError> {
    let (program, variant) = (job.program, job.variant);
    let feed = BlockFeed::new(platform_bank(&job.platforms, events), capacity);
    let mut tape = Tape::new((characterizer, feed));
    registry::run(&mut tape, program, variant, scale, seed);
    let (static_program, (characterizer, feed)) = tape.finish();
    if feed.overflowed() {
        return Err(SuiteError::TraceOverflow { program, variant, captured: feed.len() });
    }
    let ops = feed.len();
    Ok((static_program, characterizer, BankOutput::drain(feed.into_inner(), ops)))
}

/// Executes one variant once into `characterizer` (if any) and a spill
/// recorder writing the trace's segments under the config's directory.
fn record_spilled(
    job: &TraceJob,
    cfg: &SuiteConfig,
    spill: &SpillConfig,
    characterizer: Option<Characterizer>,
) -> Result<(Program, Option<Characterizer>, SegmentedRecording), SuiteError> {
    let (program, variant) = (job.program, job.variant);
    let seg_err = |error| SuiteError::Segment { program, variant, error };
    let recorder =
        SpillRecorder::to_dir(spill.trace_dir(program, variant), spill.segment_ops(), cfg.capacity())
            .map_err(seg_err)?;
    let mut tape = Tape::new((characterizer, recorder));
    registry::run(&mut tape, program, variant, cfg.scale, cfg.seed);
    let (static_program, (characterizer, rec)) = tape.finish();
    if rec.overflowed() {
        return Err(SuiteError::TraceOverflow { program, variant, captured: rec.len() });
    }
    let segmented = rec.into_segmented(static_program.clone()).map_err(seg_err)?;
    Ok((static_program, characterizer, segmented))
}

/// Streams a spilled trace back from disk (next segment prefetched in
/// the background) through one bank of the job's platforms. A failed
/// read is a [`SuiteError::Segment`] naming the trace and segment.
fn replay_spilled(
    job: &TraceJob,
    segmented: &SegmentedRecording,
    events: bool,
) -> Result<BankOutput, SuiteError> {
    let (program, variant) = (job.program, job.variant);
    let mut bank = platform_bank(&job.platforms, events);
    segmented
        .replay_bank(std::slice::from_mut(&mut bank))
        .map_err(|error| SuiteError::Segment { program, variant, error })?;
    Ok(BankOutput::drain(bank, segmented.len()))
}

/// What one suite job produces.
struct JobOutput {
    /// The characterization report and its raw cache events, namespaced
    /// `events/<name>/cache/…` (original variants only; the events are
    /// empty unless requested).
    report: Option<(CharacterizationReport, MetricSet)>,
    /// The platform bank's output (transformable programs only).
    bank: Option<BankOutput>,
    /// This job's wall-clock phase spans.
    timings: Timings,
}

/// One suite job: executes one (program, variant) kernel once, under a
/// `<program>/trace` span. An original variant feeds a characterizer
/// (report built under `<program>/characterize`, with raw cache events
/// if [`SuiteConfig::metrics`] is set). A transformable program's
/// variant also drives the bank of its job's platforms: live through
/// [`feed_variant`], or from the segments a spilling run wrote, streamed
/// back under `<program>/replay`. The trace counts in `live` meanwhile.
fn run_suite_job(
    job: &TraceJob,
    cfg: &SuiteConfig,
    live: &LiveTraces,
) -> Result<JobOutput, SuiteError> {
    let (program, variant) = (job.program, job.variant);
    let name = program.name();
    let trace_span = format!("{name}/trace");
    let mut timings = Timings::new();
    let characterizer = (variant == Variant::Original)
        .then(|| if cfg.metrics { Characterizer::with_metrics() } else { Characterizer::new() });
    // Built before a spilled trace's replay, so the two never overlap.
    let report = |static_program, characterizer: Option<Characterizer>, timings: &mut Timings| {
        characterizer.map(|characterizer| {
            let report = timings
                .time(&format!("{name}/characterize"), || characterizer.into_report(static_program, 10));
            let mut events = MetricSet::new();
            events.merge_prefixed(&format!("events/{name}/cache/"), &report.events);
            (report, events)
        })
    };
    let (report, bank) = if !program.is_transformable() {
        let mut tape = Tape::new(characterizer);
        timings.time(&trace_span, || registry::run(&mut tape, program, variant, cfg.scale, cfg.seed));
        let (static_program, characterizer) = tape.finish();
        (report(static_program, characterizer, &mut timings), None)
    } else {
        let _live = live.enter();
        match &cfg.spill {
            None => {
                let (static_program, characterizer, bank) = timings.time(&trace_span, || {
                    feed_variant(job, cfg.scale, cfg.seed, cfg.capacity(), characterizer, cfg.metrics)
                })?;
                (report(static_program, characterizer, &mut timings), Some(bank))
            }
            Some(spill) => {
                let (static_program, characterizer, segmented) =
                    timings.time(&trace_span, || record_spilled(job, cfg, spill, characterizer))?;
                let report = report(static_program, characterizer, &mut timings);
                let bank = timings
                    .time(&format!("{name}/replay"), || replay_spilled(job, &segmented, cfg.metrics))?;
                (report, Some(bank))
            }
        }
    };
    Ok(JobOutput { report, bank, timings })
}

/// One program's cells, in its job's platform order, from its variants' banks.
fn eval_cells(job: &TraceJob, original: &BankOutput, transformed: &BankOutput) -> Vec<EvalCell> {
    let program = job.program;
    job.platforms
        .iter()
        .enumerate()
        .map(|(i, platform)| EvalCell {
            program,
            platform: platform.name,
            original: original.results[i].0,
            transformed: transformed.results[i].0,
        })
        .collect()
}

/// Runs the nine-program characterization suite and the six-program ×
/// four-platform runtime evaluation on one job pool. Each job executes
/// one (program, variant) kernel once: original variants feed the
/// characterizer, and a transformable program's variants feed a bank of
/// every platform model as the kernel runs (or, spilling, record
/// segments and stream them back), so at most one trace per worker is
/// in flight. The first failed job in enumeration order stops the pool
/// and is the error returned.
pub fn run_suite(cfg: SuiteConfig) -> Result<SuiteResult, SuiteError> {
    let threads = if cfg.jobs == 0 { default_jobs() } else { cfg.jobs };
    let enumeration = enumerate_jobs(&ProgramId::ALL, &PlatformConfig::all());
    let live = LiveTraces::default();
    let work: Vec<_> = enumeration
        .iter()
        .map(|job| {
            let (cfg, live) = (&cfg, &live);
            (job_rank(job.program, job.variant), move || run_suite_job(job, cfg, live))
        })
        .collect();
    let pool = Instant::now();
    let outputs = run_jobs_ranked(work, threads)?;
    let seconds = pool.elapsed().as_secs_f64();

    // Merge in the fixed enumeration order, so the merged metric set is
    // the same whatever order the workers ran in: every
    // characterization first, then each transformable program's banks.
    let mut reports = Vec::with_capacity(ProgramId::ALL.len());
    let mut metrics = MetricSet::new();
    let mut timings = Timings::new();
    let mut banks = Vec::new();
    for (job, output) in enumeration.iter().zip(outputs) {
        timings.merge(&output.timings);
        if let Some((report, events)) = output.report {
            metrics.merge(&events);
            reports.push((job.program, report));
        }
        banks.extend(output.bank.map(|bank| (job, bank)));
    }
    let replays = banks.len();
    let mut replay = ReplayThroughput { replayed_ops: 0, seconds };
    let mut per_program = Vec::new();
    let mut banks = banks.into_iter();
    while let (Some((job, original)), Some((_, transformed))) = (banks.next(), banks.next()) {
        let name = job.program.name();
        for (i, platform) in job.platforms.iter().enumerate() {
            for (bank, variant) in [(&original, "original"), (&transformed, "transformed")] {
                replay.replayed_ops += bank.ops;
                metrics.merge_prefixed(
                    &format!("events/{name}/{}/{variant}/", platform.name),
                    &bank.results[i].1,
                );
            }
        }
        per_program.push((job.program, eval_cells(job, &original, &transformed)));
    }
    // Emit Table 8 cells program-major in the paper's (TRANSFORMED)
    // order, independent of ALL's ordering.
    let mut cells = Vec::new();
    for program in ProgramId::TRANSFORMED {
        if let Some((_, program_cells)) = per_program.iter().find(|(p, _)| *p == program) {
            cells.extend(program_cells.iter().copied());
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
        jobs: reports.len() + replays,
        live_traces_peak: live.peak(),
        reports,
        eval,
        metrics,
        timings,
        replay,
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

/// Evaluates `programs` on `platforms` with [`run_suite`]'s job shape,
/// characterization left out: one pool job per (program, variant)
/// executes the variant once into one bank of the program's applicable
/// members of `platforms` ([`EvalMatrix::cell_applicable`]). Table 8 is
/// `evaluate_all(&ProgramId::TRANSFORMED, &PlatformConfig::all(), ..)`.
///
/// Cells are program-major in `programs` order, then in `platforms`
/// order, inapplicable cells skipped (a program with none applicable
/// runs no job). Applicability goes by platform *name*: any member named
/// "...Itanium..." is skipped for dnapenny, whatever its model. Names
/// need not be unique (a tweaked copy keeps its base's), so read by position.
///
/// # Panics
///
/// If a program has no load-transformed variant.
pub fn evaluate_all(
    programs: &[ProgramId],
    platforms: &[PlatformConfig],
    scale: Scale,
    seed: u64,
    jobs: usize,
) -> Result<EvalMatrix, SuiteError> {
    assert!(programs.iter().all(|p| p.is_transformable()), "every program needs a load-transformed variant");
    let threads = if jobs == 0 { default_jobs() } else { jobs };
    // An empty bank panics, so a program with no member runs nothing.
    let mut enumeration = enumerate_jobs(programs, platforms);
    enumeration.retain(|job| !job.platforms.is_empty());
    let work: Vec<_> = enumeration
        .iter()
        .map(|job| {
            let run = move || {
                feed_variant(job, scale, seed, DEFAULT_CAPACITY, None, false).map(|(.., bank)| bank)
            };
            (job_rank(job.program, job.variant), run)
        })
        .collect();
    let banks = run_jobs_ranked(work, threads)?;
    let mut cells = Vec::new();
    for (variants, banks) in enumeration.chunks(2).zip(banks.chunks(2)) {
        cells.extend(eval_cells(&variants[0], &banks[0], &banks[1]));
    }
    Ok(EvalMatrix { cells })
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
    let platforms = applicable_platforms(program, &PlatformConfig::all());
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
    // fuzzer's factored and keyed legs also see `timing-fill-overshare`
    // and `refine-stale-fork`. Runs while the fault is still armed, under
    // those three faults and in clean full-check mode.
    let sweep_divergence = if matches!(
        cfg.inject,
        Some(FaultId::SweepMergeOrder | FaultId::TimingFillOvershare | FaultId::RefineStaleFork)
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

    /// A suite configuration at Test scale with default capacity.
    fn test_config(seed: u64, jobs: usize, spill: Option<SpillConfig>) -> SuiteConfig {
        SuiteConfig { scale: Scale::Test, seed, jobs, metrics: false, trace_cap: 0, spill }
    }

    #[test]
    fn single_trace_job_matches_direct_characterization() {
        // The tuple fan-out execution inside an original-variant job
        // must produce the same characterization as a dedicated
        // characterization run, and feed its bank; the transformed job
        // only feeds its bank.
        let direct =
            crate::characterize::characterize_program(ProgramId::Hmmsearch, Scale::Test, 7);
        let (cfg, live) = (test_config(7, 1, None), LiveTraces::default());
        let jobs = enumerate_jobs(&[ProgramId::Hmmsearch, ProgramId::Blast], &PlatformConfig::all());
        let job = run_suite_job(&jobs[0], &cfg, &live).expect("job");
        let (report, _) = job.report.expect("original jobs characterize");
        assert_eq!(direct.mix, report.mix);
        assert_eq!(direct.cache, report.cache);
        assert_eq!(direct.sequences.loads_to_branch, report.sequences.loads_to_branch);
        assert_eq!(job.bank.expect("hmmsearch is transformable").ops, direct.mix.total());
        let job = run_suite_job(&jobs[1], &cfg, &live).expect("job");
        assert!(job.report.is_none());
        assert!(job.bank.expect("transformed jobs feed a bank").ops > 0);
        // An untransformed program's job characterizes and feeds nothing.
        assert_eq!(jobs.len(), 3, "blast has no load-transformed job");
        let job = run_suite_job(&jobs[2], &cfg, &live).expect("job");
        assert!(job.report.is_some());
        assert!(job.bank.is_none());
        assert_eq!(live.peak(), 1, "one job at a time, and blast's job holds no trace");
        assert_eq!(job.timings.to_json().keys(), vec!["blast/characterize", "blast/trace"]);
    }

    #[test]
    fn fed_platform_sims_match_direct_execution() {
        // A fed bank must equal running the kernel directly into each
        // platform model, one CycleSim at a time.
        let job = &enumerate_jobs(&[ProgramId::Predator], &PlatformConfig::all())[0];
        let (_, _, bank) = feed_variant(job, Scale::Test, 5, DEFAULT_CAPACITY, None, false).expect("feed");
        assert_eq!(bank.results.len(), 4);
        for (&platform, (fed, _)) in job.platforms.iter().zip(&bank.results) {
            let direct = crate::evaluate::evaluate_program(job.program, platform, Scale::Test, 5);
            assert_eq!(*fed, direct.original, "{}", platform.name);
            assert_eq!(bank.ops, fed.instructions);
        }
        // A heterogeneous bank (the mechanism ablation's tweaks, names
        // repeated) through `evaluate_all`: cell `i` is platform `i`, and
        // both variants equal their direct executions.
        let tweaks: [fn(&mut PlatformConfig); 6] = [
            |c| c.if_conversion = true,
            |c| c.if_conversion = false,
            |c| c.logical_regs = 256,
            |c| {
                c.int_load_latency = 1;
                c.fp_load_latency = 2;
            },
            |c| c.mispredict_penalty = 0,
            |c| c.mispredict_penalty *= 2,
        ];
        let platforms: Vec<PlatformConfig> = tweaks
            .iter()
            .flat_map(|tweak| {
                PlatformConfig::all().map(|mut p| {
                    tweak(&mut p);
                    p
                })
            })
            .collect();
        let program = ProgramId::Hmmsearch;
        let matrix = evaluate_all(&[program], &platforms, Scale::Test, 5, 2).expect("evaluate");
        assert_eq!(matrix.cells.len(), platforms.len());
        for (&platform, cell) in platforms.iter().zip(&matrix.cells) {
            let direct = crate::evaluate::evaluate_program(program, platform, Scale::Test, 5);
            assert_eq!((cell.program, cell.platform), (program, platform.name));
            assert_eq!(cell.original, direct.original, "{platform:?}");
            assert_eq!(cell.transformed, direct.transformed, "{platform:?}");
        }
    }

    #[test]
    fn fed_banks_equal_recorded_replays_for_every_trace() {
        // The independent reference for the live feed: record each of
        // the twelve (program, variant) traces and replay it through a
        // fresh bank. Every result and every raw event series must
        // match, and an original variant's characterizer fused into the
        // fed tape must leave them unchanged.
        let seed = 9;
        let mut ragged = 0;
        for job in enumerate_jobs(&ProgramId::TRANSFORMED, &PlatformConfig::all()) {
            let (program, variant) = (job.program, job.variant);
            let characterizer = (variant == Variant::Original).then(Characterizer::with_metrics);
            let (_, characterizer, fed) =
                feed_variant(&job, Scale::Test, seed, DEFAULT_CAPACITY, characterizer, true).expect("feed");
            assert_eq!(characterizer.is_some(), variant == Variant::Original);
            let recording =
                record_variant(program, variant, Scale::Test, seed, DEFAULT_CAPACITY).expect("record");
            let mut bank = platform_bank(&job.platforms, true);
            recording.replay_bank(std::slice::from_mut(&mut bank));
            let replayed = BankOutput::drain(bank, recording.len());
            assert_eq!(fed.ops, replayed.ops, "{program} ({})", variant.label());
            assert_eq!(fed.results, replayed.results, "{program} ({})", variant.label());
            assert!(fed.results.iter().all(|(_, events)| !events.is_empty()), "events were collected");
            ragged += usize::from(!recording.len().is_multiple_of(bioperf_trace::BLOCK_OPS));
        }
        assert!(ragged > 0, "some trace must end in a partial block");
    }

    #[test]
    fn ranked_jobs_return_in_input_order() {
        // Ranks reorder the pool, never the results.
        let jobs: Vec<_> = (0..16).map(|i| (15 - i, move || Ok::<_, ()>(i * 10))).collect();
        assert_eq!(run_jobs_ranked(jobs, 3), Ok((0..16).map(|i| i * 10).collect::<Vec<_>>()));
        let order = std::sync::Mutex::new(Vec::new());
        let jobs: Vec<_> = [2, 0, 1, 0]
            .into_iter()
            .enumerate()
            .map(|(i, rank)| {
                let order = &order;
                (rank, move || {
                    order.lock().unwrap().push(i);
                    Ok::<_, ()>(())
                })
            })
            .collect();
        run_jobs_ranked(jobs, 1).expect("no job fails");
        assert_eq!(*order.lock().unwrap(), vec![1, 3, 2, 0], "rank order, ties in input order");
        // Every program is ranked, and a program's variants are adjacent.
        for program in ProgramId::ALL {
            let (at, transformed) = job_rank(program, Variant::LoadTransformed);
            assert!(transformed);
            assert_eq!(job_rank(program, Variant::Original), (at, false));
        }
    }

    #[test]
    fn the_first_failure_stops_the_pool() {
        // Ten jobs in rank order = input order; job 3 fails. On one
        // worker nothing after it runs.
        let ran = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..10)
            .map(|i| {
                let ran = &ran;
                (i, move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 3 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                })
            })
            .collect();
        assert_eq!(run_jobs_ranked(jobs, 1), Err(3));
        assert_eq!(ran.load(Ordering::Relaxed), 4, "jobs 0..=3 ran, 4..10 were skipped");
        // Claimed in reverse, jobs 5 and 2 fail: 9..=5 run until 5
        // fails, 4 and 3 still run, 2 fails, and 1 and 0 still run. The
        // error is the first in input order, on any worker count.
        for threads in [1, 2, 4] {
            let jobs: Vec<_> = (0..10)
                .map(|i| (10 - i, move || if i == 2 || i == 5 { Err(i) } else { Ok(i) }))
                .collect();
            assert_eq!(run_jobs_ranked(jobs, threads), Err(2), "{threads} workers");
        }
    }

    #[test]
    fn trace_cap_overflow_reports_the_same_first_failure_on_any_worker_count() {
        // At Small scale a 4M-op cap overflows clustalw (both variants)
        // and hmmpfam's original: the report names clustalw's original,
        // the first of them in enumeration order, at every worker count.
        let messages: Vec<String> = [1, 2, 4]
            .into_iter()
            .map(|jobs| {
                let cfg = SuiteConfig { scale: Scale::Small, trace_cap: 4_000_000, ..test_config(42, jobs, None) };
                run_suite(cfg).expect_err("a 4M-op cap overflows at Small scale").to_string()
            })
            .collect();
        assert!(messages[0].starts_with("clustalw (original)"), "{}", messages[0]);
        assert!(messages[0].contains("after 4000000 ops"), "{}", messages[0]);
        assert!(messages.iter().all(|m| *m == messages[0]), "{messages:?}");
    }

    #[test]
    fn live_trace_gauge_tracks_the_high_water_mark() {
        let live = LiveTraces::default();
        {
            let _a = live.enter();
            let _b = live.enter();
        }
        let _c = live.enter();
        assert_eq!(live.peak(), 2, "two guards overlapped, the third came after");
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
    fn replay_throughput_total_uses_pool_wall_clock() {
        // The aggregate divides by the job pool's elapsed wall-clock,
        // set once — summed per-job seconds would under-report parallel
        // throughput.
        let t = ReplayThroughput { replayed_ops: 2_000, seconds: 2.0 };
        assert_eq!(t.ops_per_sec(), 1_000.0, "2k ops in 2s of wall-clock");
        assert_eq!(t.to_json().keys(), vec!["total"], "no per-platform split");

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
        // 6 programs x 4 platforms - 1 n.a. cell.
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
        // Both runs did the same work: 9 characterizations + 12 bank
        // replays (6 transformable programs × 2 variants).
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
        let rates = run.get("ops_per_sec").expect("throughput gauges");
        assert!(rates.get("total").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
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
        // Only a spilled trace is replayed, under its own span.
        assert!(memory.timings.to_json().get("hmmsearch/replay").is_none());
        assert!(spilled.timings.to_json().get("hmmsearch/replay").is_some());
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
        // A segment deleted between a job's record and replay halves
        // fails the replay with a typed error naming the file.
        let dir = scratch("spill-missing");
        let spill = SpillConfig { dir: dir.clone(), segment_ops: 1 << 10 };
        let job = &enumerate_jobs(&[ProgramId::Predator], &PlatformConfig::all())[0];
        let cfg = test_config(5, 1, Some(spill.clone()));
        let (_, _, segmented) = record_spilled(job, &cfg, &spill, None).expect("record");
        let paths = segmented.segment_paths();
        assert!(paths.len() >= 2, "need a middle segment to delete");
        let victim = paths[paths.len() / 2].to_path_buf();
        std::fs::remove_file(&victim).expect("delete middle segment");

        let err = match replay_spilled(job, &segmented, false) {
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
        assert_eq!(check.platforms, 4);
    }

    #[test]
    fn evaluate_all_matches_the_suite_on_any_worker_count() {
        let table8 = |jobs| {
            evaluate_all(&ProgramId::TRANSFORMED, &PlatformConfig::all(), Scale::Test, 2, jobs)
                .expect("evaluate")
        };
        let (a, b) = (table8(1), table8(3));
        // The suite's Table 8 comes from banks fed with the characterizer
        // fused into the original variant's tape: that fusion must leave
        // every simulated result unchanged. (All three are fed live; the
        // recorded reference is `fed_banks_equal_recorded_replays_for_every_trace`.)
        let suite = run_suite(SuiteConfig {
            scale: Scale::Test,
            seed: 2,
            jobs: 2,
            metrics: false,
            trace_cap: 0,
            spill: None,
        })
        .expect("suite");
        // A program with no applicable platform runs no job (an empty
        // bank would panic) and gets no cell.
        let none = evaluate_all(&[ProgramId::Dnapenny], &[PlatformConfig::itanium2()], Scale::Test, 2, 1);
        assert!(none.expect("nothing to run").cells.is_empty());
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

    #[test]
    #[should_panic(expected = "load-transformed variant")]
    fn evaluate_all_rejects_an_untransformable_program() {
        let _ = evaluate_all(&[ProgramId::Blast], &PlatformConfig::all(), Scale::Test, 2, 1);
    }
}
