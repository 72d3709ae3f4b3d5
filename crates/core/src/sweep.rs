//! Design-space exploration: grid sweeps with resumable checkpoints and
//! Pareto-front reports.
//!
//! The paper's Table 8 evaluates four hand-picked platforms; the question
//! it raises — which cache geometry / pipeline shape / predictor family
//! closes the load-latency gap per program — is a sweep over a
//! configuration grid. [`run_sweep`] enumerates the grid ([`SweepGrid`]),
//! validates every cell's cache geometry (degenerate points become
//! skipped-cell diagnostics, not panics), and fans the surviving cells
//! out over the [`run_jobs`](crate::orchestrate::run_jobs) worker pool,
//! one job per (program, variant). A job executes its variant's kernel
//! once and runs the program's missing cells over the op stream in grid
//! order; whatever it records it drops before its worker claims the
//! next job, so no trace is shared between jobs and at most one per
//! worker is alive at once ([`SweepResult::live_traces_peak`]). Jobs with
//! more cells start first, then by program trace length, but results go
//! back by (program, variant), and the merge walks programs in input
//! order and each program's cells in grid order, so output is
//! byte-identical at any `--jobs` and for either engine.
//!
//! By default the evaluation is **factored** along the grid's two
//! independent axis groups. The hierarchy-access sequence a cell's
//! simulator generates depends only on the trace and the register-file
//! geometry — which every cell shares — never on latencies, pipeline
//! shape, or predictor; and a cell's cycles depend only on its timing
//! axis and the 2-bit miss-level code of each access under its cache
//! axis (L1 × L2 × line × prefetcher). So a job's first pass is live:
//! the kernel feeds a keyed [`PlatformBank`] block by block, one plan
//! walk driving up to `CACHE_PASS_KEYS` (32) cache-axis hierarchies
//! and the timing lanes of as many timing axes as fit 32 potential
//! lanes. Keys whose codes have agreed so far share one lane per timing
//! axis; a key whose block codes diverge forks its own lanes, so lanes
//! run once per distinct code stream. Only a job with more keys or axes
//! than that records its trace as well, and its later passes replay the
//! recording through [`CachePassSim`]s for the remaining keys and
//! [`TimingBank`]s for the remaining (axis, class) lanes, on the class
//! representatives' streams; the streams are dropped with the job. On
//! the standard grid this collapses 1152 hierarchy simulations to 64
//! while producing bit-identical measurements. The unfactored oracle
//! ([`SweepConfig::factor`] `false`) records each job and runs every
//! cell as a live [`PlatformBank`] member that simulates its own
//! hierarchy; the conformance harness's sweep self-check diffs the
//! factored path against direct per-cell replays
//! ([`sweep_self_check`]).
//!
//! Completed `(program, cell)` measurements append to a
//! **`bioperf-sweep/v1` checkpoint** (binary, FNV-1a-checksummed records,
//! content-addressed by a hash of seed/scale/programs/grid — the same
//! header discipline as the `bioperf-seg` trace segments). The append
//! happens once, after every scheduled cell is measured, so a killed run
//! keeps nothing; resumption works per invocation: a run stopped by its
//! `--max-cells` budget checkpoints what it measured, and the next
//! invocation measures only the rest. Re-running a finished sweep
//! replays nothing. Corruption (truncation, bit flips, a grid-hash
//! mismatch) surfaces as a typed [`CheckpointError`] naming the path.
//!
//! The report reduces each program's cells to the Pareto frontier over
//! (AMAT, speedup of the load transformation, hardware-cost proxy) — see
//! [`crate::pareto`].

use std::cmp::Reverse;
use std::fmt;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bioperf_branch::PredictorKind;
use bioperf_cache::{
    AnnotationStream, CacheConfig, CacheConfigError, Hierarchy, HierarchyStats, LatencyConfig,
    Prefetcher, StackDistProfiler,
};
use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_metrics::Json;
use bioperf_pipe::{
    BankWork, CachePassSim, CycleSim, OpLatencies, PlatformBank, PlatformConfig, TimingBank,
    MAX_ISSUE_SPAN, MAX_LATENCY, MAX_WIDTH,
};
use bioperf_trace::{fnv1a, replay::DEFAULT_CAPACITY, BlockFeed, Recorder, Recording, Tape};

use crate::orchestrate::{
    default_jobs, job_rank, record_variant, run_jobs_ranked, LiveTraces, SuiteError,
};
use crate::pareto::{pareto_frontier, ParetoPoint};
use crate::report::TextTable;

/// Schema tag of the sweep's JSON report *and* the checkpoint file
/// format; bump on breaking shape changes.
pub const SWEEP_SCHEMA: &str = "bioperf-sweep/v1";

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"BPSWEEP1";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Fixed checkpoint header size in bytes.
pub const CHECKPOINT_HEADER_LEN: usize = 32;

/// Size of one checkpoint record in bytes.
pub const CHECKPOINT_RECORD_LEN: usize = 40;

/// Members per timing bank of either engine: potential lanes (keys ×
/// timing axes) of the factored live pass, annotated lanes of a later
/// pass, live per-cell members in the unfactored oracle. A member is a
/// timing core (about 0.55 MiB of ready and issue rings; a live member
/// adds its hierarchy), so the cap bounds a job's memory, while every
/// member past the first shares the bank's plan and predictor walks,
/// and (keyed or annotated) its group's latency fill.
const TIMING_BANK_LANES: usize = 32;

/// Cache-axis configurations per cache pass of a factored job, the live
/// pass's included: one register plan drives this many hierarchies, and
/// a recording job's streams of them (about 0.11 B per op each) are all
/// it holds besides the recording. The standard grid has exactly this
/// many.
const CACHE_PASS_KEYS: usize = 32;

/// Largest cache level a grid cell may ask for, in KB (64 MiB): 8× the
/// largest geometry any shipped grid uses, and about 24 MiB of line
/// state. A larger level is a skipped cell, not an allocation failure.
pub const MAX_CACHE_KB: u64 = 65536;

/// Largest ROB a grid cell may ask for, in entries: far past any real
/// core, and 512 KiB of ROB ring. A larger ROB is a skipped cell, not an
/// allocation failure.
pub const MAX_ROB: usize = 65536;

/// A typed failure of the checkpoint reader or writer. Every variant
/// names the checkpoint path, mirroring the segment-error discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem error reading or writing the checkpoint.
    Io {
        /// The checkpoint being accessed.
        path: PathBuf,
        /// The underlying I/O error kind.
        kind: io::ErrorKind,
    },
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic {
        /// The rejected file.
        path: PathBuf,
    },
    /// The format version is not [`CHECKPOINT_VERSION`].
    BadVersion {
        /// The rejected file.
        path: PathBuf,
        /// Version the header claims.
        found: u32,
    },
    /// The header bytes fail their own checksum (bit rot in the header).
    HeaderCorrupt {
        /// The corrupted file.
        path: PathBuf,
    },
    /// The file length is not a whole header plus whole records (a
    /// partial trailing record from an interrupted write, or a chopped
    /// file).
    Truncated {
        /// The truncated file.
        path: PathBuf,
        /// Bytes a whole-record file would hold.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// Record `index` fails its checksum or names a program/cell outside
    /// this sweep's enumeration.
    RecordCorrupt {
        /// The corrupted file.
        path: PathBuf,
        /// Zero-based index of the bad record.
        index: usize,
    },
    /// The checkpoint was written by a different sweep (seed, scale,
    /// program set, or grid differ): its content hash does not match.
    GridMismatch {
        /// The mismatched file.
        path: PathBuf,
        /// Hash of the sweep being run.
        expected: u64,
        /// Hash the checkpoint carries.
        found: u64,
    },
}

impl CheckpointError {
    /// The checkpoint path the error concerns.
    pub fn path(&self) -> &Path {
        match self {
            CheckpointError::Io { path, .. }
            | CheckpointError::BadMagic { path }
            | CheckpointError::BadVersion { path, .. }
            | CheckpointError::HeaderCorrupt { path }
            | CheckpointError::Truncated { path, .. }
            | CheckpointError::RecordCorrupt { path, .. }
            | CheckpointError::GridMismatch { path, .. } => path,
        }
    }

    fn io(path: &Path, err: &io::Error) -> CheckpointError {
        CheckpointError::Io { path: path.to_path_buf(), kind: err.kind() }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, kind } => {
                write!(f, "{}: checkpoint I/O error: {kind}", path.display())
            }
            CheckpointError::BadMagic { path } => {
                write!(f, "{}: not a bioperf sweep checkpoint (bad magic)", path.display())
            }
            CheckpointError::BadVersion { path, found } => write!(
                f,
                "{}: unsupported checkpoint version {found} (expected {CHECKPOINT_VERSION})",
                path.display()
            ),
            CheckpointError::HeaderCorrupt { path } => {
                write!(f, "{}: checkpoint header failed its checksum", path.display())
            }
            CheckpointError::Truncated { path, expected, actual } => write!(
                f,
                "{}: truncated checkpoint ({actual} bytes; whole records imply {expected})",
                path.display()
            ),
            CheckpointError::RecordCorrupt { path, index } => {
                write!(f, "{}: checkpoint record {index} is corrupt", path.display())
            }
            CheckpointError::GridMismatch { path, expected, found } => write!(
                f,
                "{}: checkpoint belongs to a different sweep \
                 (content hash {found:#018x}, this sweep is {expected:#018x})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A typed sweep failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// Recording a program trace failed (overflow, segment I/O).
    Suite(SuiteError),
    /// The checkpoint file is unusable.
    Checkpoint(CheckpointError),
    /// A selected program has no load-transformed variant, so the
    /// speedup objective is undefined for it.
    Untransformable(ProgramId),
    /// The grid enumerates no cells (some axis is empty).
    EmptyGrid,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Suite(e) => write!(f, "{e}"),
            SweepError::Checkpoint(e) => write!(f, "{e}"),
            SweepError::Untransformable(p) => {
                write!(f, "{p} has no load-transformed variant; sweep needs both variants")
            }
            SweepError::EmptyGrid => write!(f, "sweep grid has an empty axis (no cells)"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<SuiteError> for SweepError {
    fn from(e: SuiteError) -> Self {
        SweepError::Suite(e)
    }
}

impl From<CheckpointError> for SweepError {
    fn from(e: CheckpointError) -> Self {
        SweepError::Checkpoint(e)
    }
}

/// The configuration grid: one `Vec` per axis, a cell per element of the
/// cross product. Enumeration order is fixed — L1 geometry outermost,
/// then L2, line size, latencies, pipeline shape, predictor family, and
/// prefetcher innermost — and cell indices are stable for a given grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// L1 data cache (capacity KB, ways).
    pub l1: Vec<(u64, u32)>,
    /// Unified L2 (capacity KB, ways).
    pub l2: Vec<(u64, u32)>,
    /// Line size in bytes, shared by both levels.
    pub line: Vec<u64>,
    /// (L1 hit, L2 extra, memory extra) latencies in cycles.
    pub lat: Vec<(u64, u64, u64)>,
    /// Pipeline shape (fetch/issue width, ROB entries).
    pub pipe: Vec<(u32, usize)>,
    /// Branch predictor family.
    pub pred: Vec<PredictorKind>,
    /// Hardware prefetcher policy.
    pub prefetch: Vec<Prefetcher>,
}

/// One enumerated grid cell, before validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// L1 (KB, ways).
    pub l1: (u64, u32),
    /// L2 (KB, ways).
    pub l2: (u64, u32),
    /// Line bytes.
    pub line: u64,
    /// (L1, L2, memory) latencies.
    pub lat: (u64, u64, u64),
    /// (width, ROB).
    pub pipe: (u32, usize),
    /// Predictor family.
    pub pred: PredictorKind,
    /// Prefetcher policy.
    pub prefetch: Prefetcher,
}

/// Why a grid cell cannot be simulated; the report surfaces it as a
/// skipped cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellError {
    /// A degenerate cache geometry.
    Cache(CacheConfigError),
    /// A cache level larger than [`MAX_CACHE_KB`].
    Capacity {
        /// The rejected capacity in KB.
        kb: u64,
    },
    /// A latency triple the timing core cannot run: an L2 or memory
    /// latency above [`MAX_LATENCY`], or an L1 hit not below it (the FP
    /// load hit takes one cycle more).
    Latency {
        /// (L1, L2, memory) latencies.
        lat: (u64, u64, u64),
    },
    /// A pipe shape the timing core cannot run: a width outside
    /// `1..=MAX_WIDTH`, or a ROB outside `1..=`[`MAX_ROB`].
    Pipe {
        /// Fetch and issue width.
        width: u32,
        /// ROB entries.
        rob: usize,
    },
    /// A pipe shape and latency triple whose issue span
    /// ([`PlatformConfig::issue_span`]) exceeds [`MAX_ISSUE_SPAN`]: the
    /// timing core's issue ring could grow past its cap.
    IssueSpan {
        /// Fetch/issue width and ROB entries.
        pipe: (u32, usize),
        /// (L1, L2, memory) latencies.
        lat: (u64, u64, u64),
    },
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Cache(e) => e.fmt(f),
            CellError::Capacity { kb } => {
                write!(f, "cache {kb} KB: capacity exceeds the {MAX_CACHE_KB} KB limit")
            }
            CellError::Latency { lat: (l1, l2, memory) } => write!(
                f,
                "lat {l1}:{l2}:{memory}: level latencies must be at most {MAX_LATENCY} cycles, \
                 the L1 hit below it"
            ),
            CellError::Pipe { width, rob } => write!(
                f,
                "pipe {width}x{rob}: width must be 1..={MAX_WIDTH} and the ROB 1..={MAX_ROB}"
            ),
            CellError::IssueSpan { pipe: (width, rob), lat: (l1, l2, memory) } => write!(
                f,
                "pipe {width}x{rob} lat {l1}:{l2}:{memory}: the ROB times the slowest op \
                 must span at most {MAX_ISSUE_SPAN} cycles"
            ),
        }
    }
}

impl std::error::Error for CellError {}

impl From<CacheConfigError> for CellError {
    fn from(e: CacheConfigError) -> Self {
        CellError::Cache(e)
    }
}

/// A validated cell: the platform model to simulate plus the report
/// metadata derived from the spec.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedCell {
    /// Platform configuration fed to [`CycleSim`].
    pub platform: PlatformConfig,
    /// Predictor family for [`CycleSim::with_predictor`].
    pub pred: PredictorKind,
    /// Prefetcher for [`CycleSim::with_prefetcher`].
    pub prefetch: Prefetcher,
    /// Latencies, for the AMAT computation.
    pub lat: LatencyConfig,
    /// Hardware-cost proxy: total cache bytes + window depth.
    pub cost: u64,
}

fn prefetcher_name(p: Prefetcher) -> &'static str {
    match p {
        Prefetcher::None => "none",
        Prefetcher::NextLine => "nextline",
        Prefetcher::Stride => "stride",
    }
}

/// Why a grid axis (or another comma-separated list in the grid
/// grammar) does not parse. Each message reads after the flag or axis
/// it belongs to ("--l1 repeats the value '064x2'") and names the
/// offending item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxisError {
    /// An item without its axis's separators, and the expected shape
    /// (`KBxWAYS`, `L1:L2:MEM`, `WIDTHxROB`).
    Malformed { item: String, expected: &'static str },
    /// A field that is not a number of the axis's type.
    Number(String),
    /// A name that is not one of its kind (`predictor`, `prefetcher`,
    /// `program`, `grid` or `axis`).
    Unknown { what: &'static str, item: String },
    /// An item equal, after parsing, to an earlier one in the same list.
    Repeat(String),
}

impl fmt::Display for AxisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisError::Malformed { item, expected } => {
                write!(f, "has a malformed value '{item}' (expected {expected})")
            }
            AxisError::Number(s) => write!(f, "has a malformed number '{s}'"),
            AxisError::Unknown { what, item } => write!(f, "names an unknown {what} '{item}'"),
            AxisError::Repeat(item) => write!(f, "repeats the value '{item}'"),
        }
    }
}

impl std::error::Error for AxisError {}

/// Parses a comma-separated list in the grid grammar. Empty items are
/// skipped (so [`SweepGrid::canonical`]'s trailing commas read back),
/// and an item equal to an earlier one after parsing is an
/// [`AxisError::Repeat`]: it would only duplicate work.
pub fn parse_list<'v, T: PartialEq>(
    value: &'v str,
    parse: impl Fn(&'v str) -> Result<T, AxisError>,
) -> Result<Vec<T>, AxisError> {
    let mut out: Vec<T> = Vec::new();
    for item in value.split(',').filter(|s| !s.is_empty()) {
        let v = parse(item)?;
        if out.contains(&v) {
            return Err(AxisError::Repeat(item.into()));
        }
        out.push(v);
    }
    Ok(out)
}

impl CellSpec {
    /// Validates the geometry and pipe shape and builds the platform
    /// model. Degenerate cells come back as the typed error the report
    /// surfaces as a skipped cell.
    pub fn resolve(&self) -> Result<ResolvedCell, CellError> {
        let bytes = |kb: u64| {
            if kb > MAX_CACHE_KB {
                return Err(CellError::Capacity { kb });
            }
            Ok(kb * 1024)
        };
        let l1 = CacheConfig::try_new(bytes(self.l1.0)?, self.l1.1, self.line)?;
        let l2 = CacheConfig::try_new(bytes(self.l2.0)?, self.l2.1, self.line)?;
        // The sweep requires power-of-two L2 indexing (the shipped
        // presets and the address-normalization staggering assume it);
        // odd L1 set counts are allowed and take the general index path.
        l2.require_pow2_sets()?;
        let (width, rob) = self.pipe;
        if !(1..=MAX_WIDTH).contains(&width) || !(1..=MAX_ROB).contains(&rob) {
            return Err(CellError::Pipe { width, rob });
        }
        let (lat1, lat2, mem) = self.lat;
        if lat1 >= MAX_LATENCY || lat2 > MAX_LATENCY || mem > MAX_LATENCY {
            return Err(CellError::Latency { lat: self.lat });
        }
        let base = PlatformConfig::alpha21264();
        let platform = PlatformConfig {
            name: "sweep",
            in_order: false,
            fetch_width: width,
            issue_width: width,
            rob_size: rob,
            int_load_latency: lat1,
            fp_load_latency: lat1 + 1,
            l2_latency: lat2,
            memory_latency: mem,
            mispredict_penalty: base.mispredict_penalty,
            spill_forward_extra: 0,
            if_conversion: true,
            logical_regs: base.logical_regs,
            l1,
            l2,
            ops: OpLatencies::classic(),
        };
        if platform.issue_span() > MAX_ISSUE_SPAN {
            return Err(CellError::IssueSpan { pipe: self.pipe, lat: self.lat });
        }
        Ok(ResolvedCell {
            platform,
            pred: self.pred,
            prefetch: self.prefetch,
            lat: LatencyConfig { l1: lat1, l2: lat2, memory: mem },
            cost: l1.size_bytes + l2.size_bytes + rob as u64,
        })
    }

    /// Compact one-line description for tables and the JSON report.
    pub fn describe(&self) -> String {
        format!(
            "l1 {}Kx{} l2 {}Kx{} line {} lat {}/{}/{} pipe {}w{} pred {} pf {}",
            self.l1.0,
            self.l1.1,
            self.l2.0,
            self.l2.1,
            self.line,
            self.lat.0,
            self.lat.1,
            self.lat.2,
            self.pipe.0,
            self.pipe.1,
            self.pred.name(),
            prefetcher_name(self.prefetch),
        )
    }
}

impl SweepGrid {
    /// Axis names in [`canonical`](Self::canonical) order; the CLI flag
    /// of axis `a` is `--a`.
    pub const AXES: [&'static str; 7] = ["l1", "l2", "line", "lat", "pipe", "pred", "prefetch"];

    /// The ~64-cell CI smoke grid (2·2·2·1·2·2·2 = 64 cells).
    pub fn smoke() -> Self {
        Self {
            l1: vec![(32, 2), (64, 2)],
            l2: vec![(2048, 1), (4096, 1)],
            line: vec![32, 64],
            lat: vec![(3, 5, 72)],
            pipe: vec![(2, 32), (4, 80)],
            pred: vec![PredictorKind::Hybrid, PredictorKind::Bimodal],
            prefetch: vec![Prefetcher::None, Prefetcher::NextLine],
        }
    }

    /// The standard exploration grid (4·2·2·2·3·3·2 = 576 cells),
    /// spanning the paper's Table 7 range of cache sizes and core widths.
    pub fn standard() -> Self {
        Self {
            l1: vec![(32, 2), (64, 2), (64, 4), (128, 4)],
            l2: vec![(2048, 1), (4096, 1)],
            line: vec![32, 64],
            lat: vec![(3, 5, 72), (2, 4, 60)],
            pipe: vec![(2, 32), (4, 80), (8, 192)],
            pred: PredictorKind::ALL.to_vec(),
            prefetch: vec![Prefetcher::None, Prefetcher::NextLine],
        }
    }

    /// The timing grid (1·1·1·3·4·2·1 = 24 cells): one cache geometry
    /// under three latency triples, four pipe shapes and two predictor
    /// families, so each program's timing lanes dominate its one cache
    /// pass.
    pub fn timing() -> Self {
        Self {
            l1: vec![(64, 2)],
            l2: vec![(4096, 1)],
            line: vec![64],
            lat: vec![(1, 3, 40), (3, 5, 72), (4, 8, 100)],
            pipe: vec![(2, 32), (4, 80), (6, 128), (8, 192)],
            pred: vec![PredictorKind::Hybrid, PredictorKind::Bimodal],
            prefetch: vec![Prefetcher::None],
        }
    }

    /// Total enumerated cells (the cross product of every axis).
    pub fn cells(&self) -> usize {
        self.l1.len()
            * self.l2.len()
            * self.line.len()
            * self.lat.len()
            * self.pipe.len()
            * self.pred.len()
            * self.prefetch.len()
    }

    /// The spec of cell `index` under the fixed enumeration order.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.cells()`.
    pub fn spec(&self, index: usize) -> CellSpec {
        assert!(index < self.cells(), "cell index {index} out of range");
        let mut i = index;
        let mut take = |len: usize| {
            let at = i % len;
            i /= len;
            at
        };
        // Innermost axis first when decomposing (prefetch varies fastest).
        let prefetch = self.prefetch[take(self.prefetch.len())];
        let pred = self.pred[take(self.pred.len())];
        let pipe = self.pipe[take(self.pipe.len())];
        let lat = self.lat[take(self.lat.len())];
        let line = self.line[take(self.line.len())];
        let l2 = self.l2[take(self.l2.len())];
        let l1 = self.l1[take(self.l1.len())];
        CellSpec { l1, l2, line, lat, pipe, pred, prefetch }
    }

    /// Canonical description of the grid, hashed (with seed, scale, and
    /// program set) into the checkpoint's content address.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(s, "l1=");
        for (kb, w) in &self.l1 {
            let _ = write!(s, "{kb}x{w},");
        }
        let _ = write!(s, ";l2=");
        for (kb, w) in &self.l2 {
            let _ = write!(s, "{kb}x{w},");
        }
        let _ = write!(s, ";line=");
        for b in &self.line {
            let _ = write!(s, "{b},");
        }
        let _ = write!(s, ";lat=");
        for (a, b, c) in &self.lat {
            let _ = write!(s, "{a}:{b}:{c},");
        }
        let _ = write!(s, ";pipe=");
        for (w, r) in &self.pipe {
            let _ = write!(s, "{w}x{r},");
        }
        let _ = write!(s, ";pred=");
        for p in &self.pred {
            let _ = write!(s, "{},", p.name());
        }
        let _ = write!(s, ";prefetch=");
        for p in &self.prefetch {
            let _ = write!(s, "{},", prefetcher_name(*p));
        }
        s
    }

    /// The preset named `smoke`, `standard` or `timing`.
    pub fn preset(name: &str) -> Result<Self, AxisError> {
        match name {
            "smoke" => Ok(Self::smoke()),
            "standard" => Ok(Self::standard()),
            "timing" => Ok(Self::timing()),
            _ => Err(AxisError::Unknown { what: "grid", item: name.into() }),
        }
    }

    /// Replaces axis `axis` (one of [`AXES`](Self::AXES)) with the list
    /// `value`, in the grammar [`canonical`](Self::canonical) writes:
    /// `KBxWAYS` for `l1` and `l2`, bytes for `line`, `L1:L2:MEM` for
    /// `lat`, `WIDTHxROB` for `pipe`, and names for `pred` and
    /// `prefetch`, comma-separated per [`parse_list`]. A value that
    /// parses but describes a cell the simulators cannot run (zero ways,
    /// an oversized level or ROB, an unholdable latency) is accepted here;
    /// [`CellSpec::resolve`] turns it into a skipped-cell diagnostic.
    pub fn set_axis(&mut self, axis: &str, value: &str) -> Result<(), AxisError> {
        fn num<T: std::str::FromStr>(s: &str) -> Result<T, AxisError> {
            s.parse().map_err(|_| AxisError::Number(s.into()))
        }
        fn split<'v, const N: usize>(
            item: &'v str,
            sep: char,
            expected: &'static str,
        ) -> Result<[&'v str; N], AxisError> {
            let fields: Vec<&str> = item.split(sep).collect();
            fields.try_into().map_err(|_| AxisError::Malformed { item: item.into(), expected })
        }
        fn named<T>(what: &'static str, item: &str, found: Option<T>) -> Result<T, AxisError> {
            found.ok_or_else(|| AxisError::Unknown { what, item: item.into() })
        }
        let geometry = |item: &str| -> Result<(u64, u32), AxisError> {
            let [kb, ways] = split(item, 'x', "KBxWAYS")?;
            Ok((num(kb)?, num(ways)?))
        };
        match axis {
            "l1" => self.l1 = parse_list(value, geometry)?,
            "l2" => self.l2 = parse_list(value, geometry)?,
            "line" => self.line = parse_list(value, num)?,
            "lat" => {
                self.lat = parse_list(value, |item| {
                    let [l1, l2, mem] = split(item, ':', "L1:L2:MEM")?;
                    Ok((num(l1)?, num(l2)?, num(mem)?))
                })?;
            }
            "pipe" => {
                self.pipe = parse_list(value, |item| {
                    let [width, rob] = split(item, 'x', "WIDTHxROB")?;
                    Ok((num(width)?, num(rob)?))
                })?;
            }
            "pred" => {
                self.pred =
                    parse_list(value, |item| named("predictor", item, PredictorKind::from_name(item)))?;
            }
            "prefetch" => {
                let all = [Prefetcher::None, Prefetcher::NextLine, Prefetcher::Stride];
                self.prefetch = parse_list(value, |item| {
                    named("prefetcher", item, all.into_iter().find(|&p| prefetcher_name(p) == item))
                })?;
            }
            _ => return Err(AxisError::Unknown { what: "axis", item: axis.into() }),
        }
        Ok(())
    }
}

/// Configuration for [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Workload scale for every recorded trace.
    pub scale: Scale,
    /// Seed for every recorded trace.
    pub seed: u64,
    /// Worker threads; `0` means all cores.
    pub jobs: usize,
    /// Programs to sweep (must be transformable; empty means every
    /// transformable program).
    pub programs: Vec<ProgramId>,
    /// The configuration grid.
    pub grid: SweepGrid,
    /// Checkpoint file: completed measurements append here and later
    /// runs resume from it. `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Cell budget: at most this many *new* `(program, cell)`
    /// measurements this invocation (`0` = unlimited). A budget-stopped
    /// run checkpoints what it measured and reports `complete: false`.
    pub max_cells: usize,
    /// Evaluate via the factored engine (a live keyed pass, plus
    /// recorded later passes when keys × timing axes exceed one bank).
    /// `false` selects the unfactored oracle: the same per-(program,
    /// variant) jobs, each recorded, with every cell a live
    /// [`PlatformBank`] member with its own hierarchy. Both produce
    /// bit-identical measurements and checkpoint bytes; the command line
    /// always runs the factored path, and `bench_sweep` times and
    /// diffs the two.
    pub factor: bool,
}

/// One cell's measurements for one program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMeasure {
    /// Simulated cycles of the original variant.
    pub cycles_original: u64,
    /// Simulated cycles of the load-transformed variant.
    pub cycles_transformed: u64,
    /// AMAT of the original variant under the cell's latencies.
    pub amat: f64,
}

impl CellMeasure {
    /// A cell's measurement from both variants' cycles and the original
    /// variant's hierarchy stats, whose L1/L2 load-miss ratios give the
    /// AMAT under the cell's latencies.
    fn new(cell: &ResolvedCell, original: &HierarchyStats, cycles: (u64, u64)) -> Self {
        let (cycles_original, cycles_transformed) = cycles;
        Self {
            cycles_original,
            cycles_transformed,
            amat: cell.lat.amat(original.l1.load_miss_ratio(), original.l2.load_miss_ratio()),
        }
    }

    /// Speedup of the load transformation on this configuration.
    pub fn speedup(&self) -> f64 {
        if self.cycles_transformed == 0 {
            1.0
        } else {
            self.cycles_original as f64 / self.cycles_transformed as f64
        }
    }
}

/// Everything [`run_sweep`] produces.
#[derive(Debug)]
pub struct SweepResult {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Seed the sweep ran with.
    pub seed: u64,
    /// Worker threads actually used.
    pub workers: usize,
    /// Content hash (seed/scale/programs/grid) — the checkpoint address.
    pub run_hash: u64,
    /// The grid that was enumerated.
    pub grid: SweepGrid,
    /// Programs swept, in input order.
    pub programs: Vec<ProgramId>,
    /// Cells whose geometry was rejected: `(cell index, reason)` in cell
    /// order — the skipped-cell diagnostics.
    pub skipped: Vec<(u32, String)>,
    /// `measures[p][c]`: program `p` × cell `c`; `None` for skipped
    /// cells and for cells a budget-stopped run never reached.
    pub measures: Vec<Vec<Option<CellMeasure>>>,
    /// Measurements replayed by this invocation.
    pub computed: usize,
    /// Measurements restored from the checkpoint.
    pub cached: usize,
    /// Variant traces executed by this invocation (fed live or
    /// recorded) — zero when every scheduled cell came out of the
    /// checkpoint (a resumed sweep with no remaining work executes no
    /// kernel at all).
    pub recorded: usize,
    /// (Program, variant) jobs that captured a recording of their trace:
    /// the oracle's jobs, and factored jobs that need a pass after their
    /// live one. Not part of the report.
    pub recorded_jobs: usize,
    /// Timing work of the factored jobs' live keyed passes: lane-blocks,
    /// the core-blocks that actually ran (shadow lanes run none),
    /// merges and materializations. Not part of the report.
    pub work: BankWork,
    /// Most traces alive (being fed or recorded) at once: at most
    /// [`Self::workers`], exactly 1 on one worker, and 0 when no job ran.
    pub live_traces_peak: usize,
    /// Whether every valid `(program, cell)` pair is measured.
    pub complete: bool,
}

impl SweepResult {
    /// The Pareto frontier of program `p` (index into
    /// [`Self::programs`]) over its measured cells.
    pub fn frontier(&self, p: usize) -> Vec<ParetoPoint> {
        let points: Vec<ParetoPoint> = self.measures[p]
            .iter()
            .enumerate()
            .filter_map(|(cell, m)| {
                let m = m.as_ref()?;
                let cost = self.grid.spec(cell).resolve().ok()?.cost;
                Some(ParetoPoint {
                    id: cell as u32,
                    amat: m.amat,
                    speedup: m.speedup(),
                    cost,
                })
            })
            .collect();
        pareto_frontier(&points)
    }

    /// The deterministic sweep report: configuration, skipped-cell
    /// diagnostics, and each program's Pareto frontier. Byte-identical
    /// for every worker count, and identical between an uninterrupted
    /// run and budget-stopped runs resumed to completion.
    pub fn deterministic_json(&self) -> Json {
        let config = Json::object(vec![
            ("scale", Json::str(self.scale.name())),
            ("seed", Json::U64(self.seed)),
            ("grid_hash", Json::Str(format!("{:#018x}", self.run_hash))),
            ("cells", Json::U64(self.grid.cells() as u64)),
            (
                "programs",
                Json::Array(
                    self.programs.iter().map(|p| Json::str(p.name())).collect(),
                ),
            ),
            ("complete", if self.complete { Json::U64(1) } else { Json::U64(0) }),
        ]);
        let skipped: Vec<Json> = self
            .skipped
            .iter()
            .map(|(cell, reason)| {
                Json::object(vec![
                    ("cell", Json::U64(*cell as u64)),
                    ("config", Json::Str(self.grid.spec(*cell as usize).describe())),
                    ("reason", Json::Str(reason.clone())),
                ])
            })
            .collect();
        let frontiers: Vec<(String, Json)> = self
            .programs
            .iter()
            .enumerate()
            .map(|(p, program)| {
                let points: Vec<Json> = self
                    .frontier(p)
                    .into_iter()
                    .map(|pt| {
                        let m = self.measures[p][pt.id as usize]
                            .expect("frontier points are measured");
                        Json::object(vec![
                            ("cell", Json::U64(pt.id as u64)),
                            ("config", Json::Str(self.grid.spec(pt.id as usize).describe())),
                            ("amat", Json::F64(pt.amat)),
                            ("speedup", Json::F64(pt.speedup)),
                            ("cost", Json::U64(pt.cost)),
                            ("cycles_original", Json::U64(m.cycles_original)),
                            ("cycles_transformed", Json::U64(m.cycles_transformed)),
                        ])
                    })
                    .collect();
                (program.name().to_string(), Json::Array(points))
            })
            .collect();
        Json::object(vec![
            ("config", config),
            ("skipped", Json::Array(skipped)),
            ("frontier", Json::Object(frontiers)),
        ])
    }

    /// The full sweep document: `schema` plus the deterministic report.
    /// Like the conformance document there is no `run` section — worker
    /// count and cache-hit statistics go to stderr — so the whole file
    /// is byte-identical across worker counts *and* across
    /// interrupt/resume splits.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema", Json::str(SWEEP_SCHEMA)),
            ("deterministic", self.deterministic_json()),
        ])
    }

    /// Renders the per-program frontier tables (and skipped-cell
    /// diagnostics) as text. Deterministic.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (p, program) in self.programs.iter().enumerate() {
            let _ = writeln!(out, "{} Pareto frontier:", program.name());
            let mut table = TextTable::new(&["cell", "config", "AMAT", "speedup", "cost"]);
            for pt in self.frontier(p) {
                table.row_owned(vec![
                    pt.id.to_string(),
                    self.grid.spec(pt.id as usize).describe(),
                    format!("{:.3}", pt.amat),
                    format!("{:+.2}%", (pt.speedup - 1.0) * 100.0),
                    pt.cost.to_string(),
                ]);
            }
            let _ = write!(out, "{}", table.render());
        }
        if !self.skipped.is_empty() {
            let _ = writeln!(out, "skipped cells:");
            for (cell, reason) in &self.skipped {
                let _ = writeln!(
                    out,
                    "  cell {cell} ({}): {reason}",
                    self.grid.spec(*cell as usize).describe()
                );
            }
        }
        out
    }
}

/// Content hash of one sweep: seed, scale, program set, and grid. Two
/// sweeps share a checkpoint exactly when these all match.
fn run_hash(scale: Scale, seed: u64, programs: &[ProgramId], grid: &SweepGrid) -> u64 {
    let mut desc = format!("{SWEEP_SCHEMA};scale={};seed={seed};programs=", scale.name());
    for p in programs {
        desc.push_str(p.name());
        desc.push(',');
    }
    desc.push_str(";grid=");
    desc.push_str(&grid.canonical());
    fnv1a(desc.as_bytes())
}

fn encode_header(hash: u64) -> [u8; CHECKPOINT_HEADER_LEN] {
    let mut h = [0u8; CHECKPOINT_HEADER_LEN];
    h[..8].copy_from_slice(&CHECKPOINT_MAGIC);
    h[8..12].copy_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&(CHECKPOINT_RECORD_LEN as u32).to_le_bytes());
    h[16..24].copy_from_slice(&hash.to_le_bytes());
    let checksum = fnv1a(&h[..24]);
    h[24..32].copy_from_slice(&checksum.to_le_bytes());
    h
}

fn encode_record(prog: u32, cell: u32, m: &CellMeasure) -> [u8; CHECKPOINT_RECORD_LEN] {
    let mut r = [0u8; CHECKPOINT_RECORD_LEN];
    r[..4].copy_from_slice(&prog.to_le_bytes());
    r[4..8].copy_from_slice(&cell.to_le_bytes());
    r[8..16].copy_from_slice(&m.cycles_original.to_le_bytes());
    r[16..24].copy_from_slice(&m.cycles_transformed.to_le_bytes());
    r[24..32].copy_from_slice(&m.amat.to_bits().to_le_bytes());
    let checksum = fnv1a(&r[..32]);
    r[32..40].copy_from_slice(&checksum.to_le_bytes());
    r
}

/// Loads a checkpoint, validating the header, the content hash, and
/// every record. A missing (or zero-byte) file is an empty checkpoint.
/// Records are `(program index, cell, measure)` in file order.
fn load_checkpoint(
    path: &Path,
    hash: u64,
    programs: usize,
    cells: usize,
) -> Result<Vec<(u32, u32, CellMeasure)>, CheckpointError> {
    let mut bytes = Vec::new();
    match std::fs::File::open(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(CheckpointError::io(path, &e)),
        Ok(mut f) => {
            f.read_to_end(&mut bytes).map_err(|e| CheckpointError::io(path, &e))?;
        }
    }
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    if bytes.len() < CHECKPOINT_HEADER_LEN {
        return Err(CheckpointError::Truncated {
            path: path.to_path_buf(),
            expected: CHECKPOINT_HEADER_LEN as u64,
            actual: bytes.len() as u64,
        });
    }
    if bytes[..8] != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic { path: path.to_path_buf() });
    }
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let version = u32_at(8);
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::BadVersion { path: path.to_path_buf(), found: version });
    }
    if fnv1a(&bytes[..24]) != u64_at(24) || u32_at(12) as usize != CHECKPOINT_RECORD_LEN {
        return Err(CheckpointError::HeaderCorrupt { path: path.to_path_buf() });
    }
    let found = u64_at(16);
    if found != hash {
        return Err(CheckpointError::GridMismatch {
            path: path.to_path_buf(),
            expected: hash,
            found,
        });
    }
    let body = bytes.len() - CHECKPOINT_HEADER_LEN;
    if !body.is_multiple_of(CHECKPOINT_RECORD_LEN) {
        let whole = body / CHECKPOINT_RECORD_LEN;
        return Err(CheckpointError::Truncated {
            path: path.to_path_buf(),
            expected: (CHECKPOINT_HEADER_LEN + (whole + 1) * CHECKPOINT_RECORD_LEN) as u64,
            actual: bytes.len() as u64,
        });
    }
    let mut records = Vec::with_capacity(body / CHECKPOINT_RECORD_LEN);
    for (index, r) in bytes[CHECKPOINT_HEADER_LEN..].chunks_exact(CHECKPOINT_RECORD_LEN).enumerate()
    {
        let checksum = u64::from_le_bytes(r[32..40].try_into().expect("8 bytes"));
        if fnv1a(&r[..32]) != checksum {
            return Err(CheckpointError::RecordCorrupt { path: path.to_path_buf(), index });
        }
        let prog = u32::from_le_bytes(r[..4].try_into().expect("4 bytes"));
        let cell = u32::from_le_bytes(r[4..8].try_into().expect("4 bytes"));
        if prog as usize >= programs || cell as usize >= cells {
            return Err(CheckpointError::RecordCorrupt { path: path.to_path_buf(), index });
        }
        let measure = CellMeasure {
            cycles_original: u64::from_le_bytes(r[8..16].try_into().expect("8 bytes")),
            cycles_transformed: u64::from_le_bytes(r[16..24].try_into().expect("8 bytes")),
            amat: f64::from_bits(u64::from_le_bytes(r[24..32].try_into().expect("8 bytes"))),
        };
        records.push((prog, cell, measure));
    }
    Ok(records)
}

/// Appends `records` to the checkpoint, writing the header first if the
/// file is new or empty.
fn append_checkpoint(
    path: &Path,
    hash: u64,
    records: &[(u32, u32, CellMeasure)],
) -> Result<(), CheckpointError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| CheckpointError::io(path, &e))?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| CheckpointError::io(path, &e))?;
    let len = f.metadata().map_err(|e| CheckpointError::io(path, &e))?.len();
    let mut buf = Vec::with_capacity(
        if len == 0 { CHECKPOINT_HEADER_LEN } else { 0 } + records.len() * CHECKPOINT_RECORD_LEN,
    );
    if len == 0 {
        buf.extend_from_slice(&encode_header(hash));
    }
    for (prog, cell, m) in records {
        buf.extend_from_slice(&encode_record(*prog, *cell, m));
    }
    f.write_all(&buf).map_err(|e| CheckpointError::io(path, &e))?;
    Ok(())
}

/// Runs the design-space sweep: enumerate, validate, resume from the
/// checkpoint, fan the missing `(program, cell)` measurements out as
/// per-(program, variant) jobs, merge in enumeration order, and append
/// the new measurements to the checkpoint.
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepResult, SweepError> {
    let threads = if cfg.jobs == 0 { default_jobs() } else { cfg.jobs };
    let programs: Vec<ProgramId> = if cfg.programs.is_empty() {
        ProgramId::TRANSFORMED.to_vec()
    } else {
        cfg.programs.clone()
    };
    for &p in &programs {
        if !p.is_transformable() {
            return Err(SweepError::Untransformable(p));
        }
    }
    let cells = cfg.grid.cells();
    if cells == 0 {
        return Err(SweepError::EmptyGrid);
    }
    let hash = run_hash(cfg.scale, cfg.seed, &programs, &cfg.grid);

    // Validate every cell once; invalid geometries become skipped-cell
    // diagnostics and are excluded from scheduling and checkpointing.
    let mut resolved: Vec<Option<ResolvedCell>> = Vec::with_capacity(cells);
    let mut skipped: Vec<(u32, String)> = Vec::new();
    for c in 0..cells {
        match cfg.grid.spec(c).resolve() {
            Ok(rc) => resolved.push(Some(rc)),
            Err(e) => {
                skipped.push((c as u32, e.to_string()));
                resolved.push(None);
            }
        }
    }

    // Resume: measurements already in the checkpoint are never replayed.
    let mut measures: Vec<Vec<Option<CellMeasure>>> = vec![vec![None; cells]; programs.len()];
    let mut cached = 0usize;
    if let Some(path) = &cfg.checkpoint {
        for (prog, cell, m) in load_checkpoint(path, hash, programs.len(), cells)? {
            if measures[prog as usize][cell as usize].is_none() {
                cached += 1;
            }
            measures[prog as usize][cell as usize] = Some(m);
        }
    }

    // The missing work, program-major in enumeration order, truncated to
    // the cell budget, and each program's share of it as one job.
    let mut missing: Vec<(usize, usize)> = Vec::new();
    for (p, per_cell) in measures.iter().enumerate() {
        for c in 0..cells {
            if resolved[c].is_some() && per_cell[c].is_none() {
                missing.push((p, c));
            }
        }
    }
    let budget_hit = cfg.max_cells != 0 && missing.len() > cfg.max_cells;
    if budget_hit {
        missing.truncate(cfg.max_cells);
    }
    let computed = missing.len();
    let mut jobs: Vec<SweepJob> = (0..programs.len()).map(|_| SweepJob::default()).collect();
    for &(p, c) in &missing {
        jobs[p].add(c, &cfg.grid.spec(c), resolved[c].expect("scheduled cells are valid"));
    }

    // One pool job per (program, variant) with work: it records the
    // variant, runs the program's missing cells in grid order through
    // the engine `cfg.factor` selects, and drops the recording. A
    // fully-checkpointed program schedules no job, so a resumed sweep
    // with no remaining cells records nothing (`SweepResult::recorded`
    // pins this).
    let live = LiveTraces::default();
    let (outputs, recorded_jobs, work) = run_variant_jobs(cfg, &programs, &jobs, threads, &live)?;
    let recorded = 2 * jobs.iter().filter(|job| !job.cells.is_empty()).count();

    // Merge program by program, each program's cells in grid order — the
    // order of `missing`, identical for every worker count and either
    // engine — and collect the checkpoint append batch in the same order.
    // AMATs come from the original variant's hierarchy stats.
    let mut new_records: Vec<(u32, u32, CellMeasure)> = Vec::with_capacity(missing.len());
    for (p, (job, [original, transformed])) in jobs.iter().zip(outputs).enumerate() {
        let mut out: Vec<CellMeasure> = job
            .cells
            .iter()
            .zip(original.iter().zip(&transformed))
            .map(|(cell, (o, t))| CellMeasure::new(&cell.rc, &o.0, (o.1, t.1)))
            .collect();
        if bioperf_trace::inject::active(bioperf_trace::inject::SWEEP_MERGE) && out.len() > 1 {
            // Seeded fault: credit each cell with its neighbor's
            // measurements (see `FaultId::SweepMergeOrder`).
            out.rotate_left(1);
        }
        for (cell, m) in job.cells.iter().zip(out) {
            measures[p][cell.id] = Some(m);
            new_records.push((p as u32, cell.id as u32, m));
        }
    }
    if let Some(path) = &cfg.checkpoint {
        if !new_records.is_empty() {
            append_checkpoint(path, hash, &new_records)?;
        }
    }

    let complete = !budget_hit;
    Ok(SweepResult {
        scale: cfg.scale,
        seed: cfg.seed,
        workers: threads,
        run_hash: hash,
        grid: cfg.grid.clone(),
        programs,
        skipped,
        measures,
        computed,
        cached,
        recorded,
        recorded_jobs,
        work,
        live_traces_peak: live.peak(),
        complete,
    })
}

/// The cache-axis coordinates of a cell: everything that shapes the
/// hierarchy's behavior (geometry, line size, prefetcher) and nothing
/// that only shapes timing. Cells sharing a key share one cache pass.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CacheAxisKey {
    l1: (u64, u32),
    l2: (u64, u32),
    line: u64,
    prefetch: Prefetcher,
}

impl CacheAxisKey {
    fn of(spec: &CellSpec) -> Self {
        Self { l1: spec.l1, l2: spec.l2, line: spec.line, prefetch: spec.prefetch }
    }
}

/// The timing-axis coordinates of a cell: latency triple, pipe shape
/// and predictor family.
type TimingAxis = ((u64, u64, u64), (u32, usize), PredictorKind);

/// Per scheduled cell of a [`SweepJob`], in its order: the hierarchy
/// stats and cycles one variant's execution produced.
type CellResults = Vec<(HierarchyStats, u64)>;

/// One scheduled cell of a [`SweepJob`].
struct JobCell {
    /// Grid index.
    id: usize,
    /// Index into the job's cache-axis keys.
    key: usize,
    /// Index into the job's timing axes.
    axis: usize,
    rc: ResolvedCell,
}

/// One program's share of the sweep: its scheduled cells in grid order,
/// and one representative cell per distinct cache-axis key and per
/// distinct timing axis (first-seen order). Both variants of the program
/// run the same job, through either engine.
#[derive(Default)]
struct SweepJob {
    keys: Vec<CacheAxisKey>,
    reps: Vec<ResolvedCell>,
    axes: Vec<TimingAxis>,
    axis_reps: Vec<ResolvedCell>,
    cells: Vec<JobCell>,
}

/// The index of `item` in `items`, after pushing it (and `rep` onto
/// `reps`) if it is new.
fn intern<T: PartialEq>(
    items: &mut Vec<T>,
    reps: &mut Vec<ResolvedCell>,
    item: T,
    rep: ResolvedCell,
) -> usize {
    items.iter().position(|x| *x == item).unwrap_or_else(|| {
        items.push(item);
        reps.push(rep);
        items.len() - 1
    })
}

/// A cell's cache hierarchy: its geometry and prefetcher.
fn hierarchy(rc: &ResolvedCell) -> Hierarchy {
    Hierarchy::new(rc.platform.l1, rc.platform.l2, rc.lat).with_prefetcher(rc.prefetch)
}

impl SweepJob {
    /// Schedules grid cell `id`.
    fn add(&mut self, id: usize, spec: &CellSpec, rc: ResolvedCell) {
        let key = intern(&mut self.keys, &mut self.reps, CacheAxisKey::of(spec), rc);
        let axis = (spec.lat, spec.pipe, spec.pred);
        let axis = intern(&mut self.axes, &mut self.axis_reps, axis, rc);
        self.cells.push(JobCell { id, key, axis, rc });
    }

    /// The unfactored oracle on one variant's recording: every cell is a
    /// live [`PlatformBank`] member with its own hierarchy, predictor and
    /// prefetcher, in banks of at most [`TIMING_BANK_LANES`] members that
    /// share one decode, plan walk and predictor walk per family. Returns,
    /// per cell, its hierarchy stats and its cycles.
    fn run_live(&self, rec: &Recording) -> CellResults {
        let mut out = Vec::with_capacity(self.cells.len());
        for cells in self.cells.chunks(TIMING_BANK_LANES) {
            let mut bank = PlatformBank::with_predictors(
                cells.iter().map(|cell| (cell.rc.platform, cell.rc.pred, cell.rc.prefetch)),
            );
            rec.replay_bank(std::slice::from_mut(&mut bank));
            out.extend(bank.results().into_iter().map(|r| (r.cache, r.cycles)));
        }
        out
    }

    /// The factored engine on one variant: returns, per cell, its key's
    /// hierarchy stats and its cycles — the same values
    /// [`Self::run_live`] returns — whether the job recorded its trace,
    /// and its live keyed pass's timing work.
    ///
    /// A cell's cycles depend only on its timing axis and the miss-level
    /// code stream of its cache-axis key, never on which geometry
    /// produced the stream, and distinct geometries often produce equal
    /// streams (every L2 that stops missing after warmup, every line
    /// size the access pattern strides past). So lanes are keyed by
    /// (timing axis, key class), a class being the keys with equal
    /// streams. Every grid cell keeps the base platform's register file
    /// and if-conversion mode (see `CellSpec::resolve`), so the
    /// register/spill plan runs once per pass for every key and lane.
    ///
    /// The first pass is live: the kernel feeds a keyed
    /// [`PlatformBank`] block by block, one plan walk driving the first
    /// [`CACHE_PASS_KEYS`] keys' hierarchies and as many timing axes as
    /// fit [`TIMING_BANK_LANES`] potential lanes (at least one), its
    /// classes refined as the codes arrive. Only a job with more keys or
    /// axes than that also records the trace, keeping the class
    /// representatives' streams; its later passes replay the recording
    /// through cache passes for the remaining keys (a stream equal to a
    /// class representative's joins that class) and [`TimingBank`]s of
    /// one lane per remaining (axis, class).
    fn run_factored(
        &self,
        program: ProgramId,
        variant: Variant,
        scale: Scale,
        seed: u64,
    ) -> Result<(CellResults, bool, BankWork), SuiteError> {
        let base = self.reps[0].platform;
        let keys = self.reps.len().min(CACHE_PASS_KEYS);
        let fit = (TIMING_BANK_LANES / keys).clamp(1, self.axes.len());
        let later = keys < self.reps.len() || fit < self.axes.len();

        let hierarchies = self.reps[..keys].iter().map(hierarchy).collect();
        let mut bank =
            PlatformBank::keyed(base.logical_regs, base.if_conversion, hierarchies, later);
        for rc in &self.axis_reps[..fit] {
            bank.push_keyed_lane(&rc.platform, rc.pred);
        }
        let recorder = later.then(|| Recorder::with_capacity(DEFAULT_CAPACITY));
        let mut tape = Tape::new((recorder, BlockFeed::new(bank, DEFAULT_CAPACITY)));
        registry::run(&mut tape, program, variant, scale, seed);
        let (static_program, (recorder, feed)) = tape.finish();
        if feed.overflowed() {
            return Err(SuiteError::TraceOverflow { program, variant, captured: feed.len() });
        }
        let bank = feed.into_inner();
        let work = bank.work();

        // The memo: (axis, class) → cycles, for every lane timed so far.
        let mut timed: Vec<((usize, usize), u64)> = Vec::new();
        let mut stats: Vec<HierarchyStats> = (0..keys).map(|k| bank.key_stats(k)).collect();
        let mut class_of: Vec<usize> = vec![0; self.reps.len()];
        for (class, members) in bank.key_classes().iter().enumerate() {
            for &k in members {
                class_of[k] = class;
            }
            for axis in 0..fit {
                timed.push(((axis, class), bank.key_result(axis, members[0]).cycles));
            }
        }

        if let Some(recorder) = recorder {
            let rec = recorder.into_recording(static_program);
            let mut streams: Vec<Arc<AnnotationStream>> =
                bank.into_classes().into_iter().map(|(_, stream)| Arc::new(stream)).collect();
            for (chunk, reps) in self.reps[keys..].chunks(CACHE_PASS_KEYS).enumerate() {
                let hierarchies = reps.iter().map(hierarchy).collect();
                let mut pass = CachePassSim::new(base.logical_regs, hierarchies);
                rec.replay_bank(std::slice::from_mut(&mut pass));
                for (i, (key_stats, stream)) in pass.finish_bank().into_iter().enumerate() {
                    stats.push(key_stats);
                    class_of[keys + chunk * CACHE_PASS_KEYS + i] =
                        streams.iter().position(|s| **s == stream).unwrap_or_else(|| {
                            streams.push(Arc::new(stream));
                            streams.len() - 1
                        });
                }
            }
            let mut lanes: Vec<(usize, usize)> = Vec::new();
            for cell in &self.cells {
                let lane = (cell.axis, class_of[cell.key]);
                if !timed.iter().any(|&(l, _)| l == lane) && !lanes.contains(&lane) {
                    lanes.push(lane);
                }
            }
            for chunk in lanes.chunks(TIMING_BANK_LANES) {
                let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
                for &(axis, class) in chunk {
                    let rc = &self.axis_reps[axis];
                    bank.push_lane(&rc.platform, rc.pred, Arc::clone(&streams[class]));
                }
                rec.replay_bank(std::slice::from_mut(&mut bank));
                let cycles = bank.into_results().into_iter().map(|r| r.cycles);
                timed.extend(chunk.iter().copied().zip(cycles));
            }
        }

        let results = self
            .cells
            .iter()
            .map(|cell| {
                let lane = (cell.axis, class_of[cell.key]);
                let &(_, cycles) =
                    timed.iter().find(|&&(l, _)| l == lane).expect("every lane timed");
                (stats[cell.key], cycles)
            })
            .collect();
        Ok((results, later, work))
    }
}

/// Runs every job with cells on both variants of its program, one pool
/// job per (program, variant): the factored engine feeds its first
/// pass live from the kernel (recording only for later passes), the
/// live oracle records the variant and replays it; either way the trace
/// counts in a [`LiveTraces`] guard until the job is done. Returns each
/// program's `[original, transformed]` per-cell results (empty for a
/// program with no cells) and how many jobs recorded their trace, or
/// the first failure in (program, variant) order, which stops the pool.
fn run_variant_jobs(
    cfg: &SweepConfig,
    programs: &[ProgramId],
    jobs: &[SweepJob],
    threads: usize,
    live: &LiveTraces,
) -> Result<(Vec<[CellResults; 2]>, usize, BankWork), SuiteError> {
    // Jobs with more cells start first, then by the program's trace
    // length rank, so a long job does not start last and run alone.
    // Results go back by (program, variant) index, so the start order
    // never reaches the output.
    let descr: Vec<(usize, Variant)> = (0..jobs.len())
        .filter(|&p| !jobs[p].cells.is_empty())
        .flat_map(|p| [(p, Variant::Original), (p, Variant::LoadTransformed)])
        .collect();
    let pool: Vec<_> = descr
        .iter()
        .map(|&(p, variant)| {
            let (job, program) = (&jobs[p], programs[p]);
            let rank = (Reverse(job.cells.len()), job_rank(program, variant));
            let run = move || -> Result<_, SuiteError> {
                let _live = live.enter();
                if cfg.factor {
                    return job.run_factored(program, variant, cfg.scale, cfg.seed);
                }
                let rec = record_variant(program, variant, cfg.scale, cfg.seed, DEFAULT_CAPACITY)?;
                Ok((job.run_live(&rec), true, BankWork::default()))
            };
            (rank, run)
        })
        .collect();
    let mut results: Vec<[CellResults; 2]> =
        (0..jobs.len()).map(|_| [Vec::new(), Vec::new()]).collect();
    let mut recorded_jobs = 0;
    let mut work = BankWork::default();
    for (&(p, variant), (out, recorded, job_work)) in descr.iter().zip(run_jobs_ranked(pool, threads)?) {
        work += job_work;
        results[p][usize::from(variant == Variant::LoadTransformed)] = out;
        recorded_jobs += usize::from(recorded);
    }
    Ok((results, recorded_jobs, work))
}

/// Differential self-check of the factored sweep end to end, run by
/// the conformance harness. A tiny 36-cell sweep (two L1 sizes × two
/// prefetchers × three latency triples × three predictor families,
/// predator at Test scale) goes through the production path — a live
/// keyed first pass whose prefetching keys fork off their class, a
/// recorded later pass through annotated timing banks for the one
/// timing axis past the first pass's 32 potential lanes, and the
/// per-program merge — and every cell is then re-measured by direct
/// live [`CycleSim`] replays, one simulator at a time (no bank, no
/// annotations, no merge), and compared bitwise; each cell's AMAT must
/// also lie in its latencies' [`LatencyConfig::amat_range`]. A
/// stack-distance cross-check then validates the cache pass
/// analytically: for the prefetcher-free cells, L1 miss counts derived
/// from one LRU stack-distance profile of the shared access stream must
/// equal the banked hierarchies' counts. Returns the first divergence;
/// under the `sweep-merge-order`, `factored-annotation-skew`,
/// `timing-fill-overshare` and `refine-stale-fork` faults the
/// direct-replay diff fires.
pub fn sweep_self_check(seed: u64) -> Option<String> {
    let grid = SweepGrid {
        l1: vec![(32, 2), (64, 2)],
        l2: vec![(4096, 1)],
        line: vec![64],
        lat: vec![(3, 5, 72), (2, 4, 60), (4, 8, 100)],
        pipe: vec![(4, 80)],
        pred: PredictorKind::ALL.to_vec(),
        prefetch: vec![Prefetcher::None, Prefetcher::NextLine],
    };
    let program = ProgramId::Predator;
    let cfg = SweepConfig {
        scale: Scale::Test,
        seed,
        jobs: 1,
        programs: vec![program],
        grid: grid.clone(),
        checkpoint: None,
        max_cells: 0,
        factor: true,
    };
    let result = match run_sweep(&cfg) {
        Ok(r) => r,
        Err(e) => return Some(format!("sweep failed: {e}")),
    };

    let record = |variant| record_variant(program, variant, Scale::Test, seed, DEFAULT_CAPACITY);
    let (original, transformed) = match (record(Variant::Original), record(Variant::LoadTransformed))
    {
        (Ok(o), Ok(t)) => (o, t),
        (Err(e), _) | (_, Err(e)) => return Some(format!("sweep reference recording failed: {e}")),
    };
    for cell in 0..grid.cells() {
        let rc = grid.spec(cell).resolve().expect("self-check grid is valid");
        let replay = |rec: &Recording| {
            let mut sim = CycleSim::new(rc.platform)
                .with_predictor(rc.pred)
                .with_prefetcher(rc.prefetch);
            rec.replay(&mut sim);
            sim.into_result()
        };
        let o = replay(&original);
        let want = CellMeasure::new(&rc, &o.cache, (o.cycles, replay(&transformed).cycles));
        let got = match result.measures[0][cell] {
            Some(m) => m,
            None => return Some(format!("sweep cell {cell}: no measurement produced")),
        };
        let range = rc.lat.amat_range();
        if !range.contains(&got.amat) {
            return Some(format!(
                "sweep cell {cell} ({}): AMAT {} outside [{}, {}]",
                grid.spec(cell).describe(),
                got.amat,
                range.start(),
                range.end()
            ));
        }
        if got != want {
            return Some(format!(
                "sweep cell {cell} ({}): factored {got:?}, direct replay {want:?}",
                grid.spec(cell).describe()
            ));
        }
    }

    // Analytic cross-check: one all-associativity LRU profile of the
    // access stream predicts each prefetcher-free L1's miss count.
    let mut members: Vec<(CellSpec, ResolvedCell)> = Vec::new();
    for cell in 0..grid.cells() {
        let spec = grid.spec(cell);
        if spec.prefetch != Prefetcher::None {
            continue;
        }
        if members.iter().any(|(s, _)| s.l1 == spec.l1) {
            continue;
        }
        members.push((spec, spec.resolve().expect("self-check grid is valid")));
    }
    let hierarchies: Vec<Hierarchy> = members
        .iter()
        .map(|(_, rc)| Hierarchy::new(rc.platform.l1, rc.platform.l2, rc.lat))
        .collect();
    let mut pass =
        CachePassSim::new(members[0].1.platform.logical_regs, hierarchies).with_address_log();
    original.replay(&mut pass);
    let log: Vec<u64> = pass.address_log().expect("log enabled").to_vec();
    let banked = pass.finish_bank();
    let set_counts: Vec<u64> = members.iter().map(|(_, rc)| rc.platform.l1.num_sets()).collect();
    let mut prof = StackDistProfiler::new(grid.line[0], &set_counts);
    for addr in log {
        prof.access(addr);
    }
    for ((spec, rc), (stats, _)) in members.iter().zip(&banked) {
        let want = stats.l1.load_misses + stats.l1.store_misses;
        let got = prof.misses(rc.platform.l1.num_sets(), rc.platform.l1.ways);
        if got != want {
            return Some(format!(
                "stack-distance cross-check: l1 {}Kx{} simulates {want} L1 misses, \
                 profile derives {got}",
                spec.l1.0, spec.l1.1
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The factored engine as it was before its first pass went live:
    /// record, one cache pass per [`CACHE_PASS_KEYS`] keys, then
    /// [`TimingBank`] lanes memoized by (timing axis, stream content
    /// key) — the reference the live keyed pass must reproduce.
    fn recorded_reference(job: &SweepJob, rec: &Recording) -> CellResults {
        let base = job.reps[0].platform;
        let mut stats: Vec<HierarchyStats> = Vec::new();
        let mut lane_keys: Vec<(usize, (u64, u64))> = Vec::new();
        let mut cycles: Vec<u64> = Vec::new();
        let mut cell_lane: Vec<usize> = vec![0; job.cells.len()];
        for reps in job.reps.chunks(CACHE_PASS_KEYS) {
            let first = stats.len();
            let hierarchies = reps.iter().map(hierarchy).collect();
            let mut pass = CachePassSim::new(base.logical_regs, hierarchies);
            rec.replay_bank(std::slice::from_mut(&mut pass));
            let mut streams: Vec<Arc<AnnotationStream>> = Vec::new();
            for (s, stream) in pass.finish_bank() {
                stats.push(s);
                streams.push(Arc::new(stream));
            }
            let mut lanes: Vec<(ResolvedCell, Arc<AnnotationStream>)> = Vec::new();
            for (cell, lane) in job.cells.iter().zip(&mut cell_lane) {
                if !(first..stats.len()).contains(&cell.key) {
                    continue;
                }
                let stream = &streams[cell.key - first];
                let key = (cell.axis, stream.content_key());
                *lane = lane_keys.iter().position(|x| *x == key).unwrap_or_else(|| {
                    lane_keys.push(key);
                    lanes.push((cell.rc, Arc::clone(stream)));
                    lane_keys.len() - 1
                });
            }
            for chunk in lanes.chunks(TIMING_BANK_LANES) {
                let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
                for (rc, stream) in chunk {
                    bank.push_lane(&rc.platform, rc.pred, Arc::clone(stream));
                }
                rec.replay_bank(std::slice::from_mut(&mut bank));
                cycles.extend(bank.into_results().into_iter().map(|r| r.cycles));
            }
        }
        let lanes = job.cells.iter().zip(cell_lane);
        lanes.map(|(cell, lane)| (stats[cell.key], cycles[lane])).collect()
    }

    /// The job of `cells` of `grid`.
    fn job_of(grid: &SweepGrid, cells: impl IntoIterator<Item = usize>) -> SweepJob {
        let mut job = SweepJob::default();
        for c in cells {
            let spec = grid.spec(c);
            job.add(c, &spec, spec.resolve().expect("valid test cell"));
        }
        job
    }

    /// The live keyed first pass (and the recorded later passes) equal
    /// the recorded reference cell by cell on several traces: a grid
    /// whose keys fork mid-trace, one whose keys never diverge, and a
    /// resumed subset of the standard grid whose 32 keys need later
    /// passes. Returns nothing; asserts the expected pass structure too.
    #[test]
    fn live_keyed_pass_matches_the_recorded_reference() {
        let forking = SweepGrid {
            l1: vec![(1, 1), (32, 2)],
            l2: vec![(64, 1), (4096, 1)],
            line: vec![32, 64],
            lat: vec![(3, 5, 72)],
            pipe: vec![(4, 80)],
            pred: vec![PredictorKind::Hybrid],
            prefetch: vec![Prefetcher::None, Prefetcher::NextLine],
        };
        // Two L2s far larger than any Test-scale working set: every key
        // sees the same misses, so its one class never splits.
        let agreeing = SweepGrid {
            l2: vec![(8192, 2), (16384, 4)],
            lat: vec![(3, 5, 72)],
            ..SweepGrid::timing()
        };
        let standard = SweepGrid::standard();
        let resumed: Vec<usize> = (0..standard.cells()).filter(|c| c % 7 != 3).collect();
        let cases = [
            ("forking", &forking, (0..forking.cells()).collect::<Vec<_>>(), false),
            ("agreeing", &agreeing, (0..agreeing.cells()).collect(), false),
            ("resumed standard", &standard, resumed, true),
        ];
        for (name, grid, cells, later) in cases {
            let job = job_of(grid, cells);
            for program in [ProgramId::Predator, ProgramId::Hmmsearch, ProgramId::Clustalw] {
                for variant in Variant::ALL {
                    let (got, recorded, _) =
                        job.run_factored(program, variant, Scale::Test, 42).expect("runs");
                    assert_eq!(recorded, later, "{name}: only later passes record");
                    let rec = record_variant(program, variant, Scale::Test, 42, DEFAULT_CAPACITY)
                        .expect("records");
                    assert_eq!(got, recorded_reference(&job, &rec), "{name} {program} {variant:?}");
                    let streams: Vec<AnnotationStream> = {
                        let mut pass = CachePassSim::new(
                            job.reps[0].platform.logical_regs,
                            job.reps.iter().map(hierarchy).collect(),
                        );
                        rec.replay_bank(std::slice::from_mut(&mut pass));
                        pass.finish_bank().into_iter().map(|(_, s)| s).collect()
                    };
                    let distinct =
                        (0..streams.len()).filter(|&i| !streams[..i].contains(&streams[i])).count();
                    match name {
                        "agreeing" => assert_eq!(distinct, 1, "{name} {program}: one class"),
                        _ => assert!(distinct > 1, "{name} {program}: keys fork"),
                    }
                }
            }
        }
    }

    /// The sweep counts its keyed passes' timing work: on the benchmark's
    /// sweep-cache grid, whose keys fork and then agree again, shadow
    /// lanes run fewer core-blocks than there are lane-blocks; on the
    /// timing grid's one key every lane runs every block.
    #[test]
    fn shadow_lanes_skip_core_blocks_only_where_keys_fork() {
        let sweep_cache = SweepGrid {
            l1: vec![(32, 2), (64, 4)],
            l2: vec![(1024, 2), (8192, 2)],
            line: vec![32, 64],
            lat: vec![(3, 5, 72)],
            pipe: vec![(4, 80)],
            pred: vec![PredictorKind::Hybrid],
            prefetch: vec![Prefetcher::None, Prefetcher::NextLine],
        };
        let run = |grid: SweepGrid| {
            let cfg = SweepConfig {
                scale: Scale::Test,
                seed: 42,
                jobs: 1,
                programs: vec![ProgramId::Hmmsearch, ProgramId::Clustalw],
                grid,
                checkpoint: None,
                max_cells: 0,
                factor: true,
            };
            run_sweep(&cfg).expect("sweep").work
        };
        let work = run(sweep_cache);
        assert!(work.core_blocks < work.lane_blocks, "{work:?}");
        assert!(work.merges > 0 && work.materializations > 0, "{work:?}");
        let work = run(SweepGrid::timing());
        assert!(work.lane_blocks > 0, "{work:?}");
        assert_eq!(work.core_blocks, work.lane_blocks, "{work:?}");
        assert_eq!((work.merges, work.materializations), (0, 0), "{work:?}");
    }

    #[test]
    fn grid_enumeration_round_trips() {
        let grid = SweepGrid::smoke();
        assert_eq!(grid.cells(), 64);
        // Every index yields a distinct spec drawn from the axes.
        let mut seen = Vec::new();
        for i in 0..grid.cells() {
            let s = grid.spec(i);
            assert!(grid.l1.contains(&s.l1));
            assert!(grid.prefetch.contains(&s.prefetch));
            assert!(!seen.contains(&s), "cell {i} duplicates an earlier spec");
            seen.push(s);
        }
        assert_eq!(SweepGrid::standard().cells(), 576);
        assert_eq!(SweepGrid::timing().cells(), 24);
        for name in ["smoke", "standard", "timing"] {
            assert!(SweepGrid::preset(name).is_ok(), "{name}");
        }
    }

    #[test]
    fn prefetch_is_innermost_axis() {
        let grid = SweepGrid::smoke();
        let a = grid.spec(0);
        let b = grid.spec(1);
        assert_eq!(a.l1, b.l1);
        assert_ne!(a.prefetch, b.prefetch);
    }

    #[test]
    fn degenerate_cells_resolve_to_typed_errors() {
        let mut grid = SweepGrid::smoke();
        grid.l1 = vec![(64, 0)]; // zero ways
        let err = grid.spec(0).resolve().unwrap_err();
        assert!(matches!(err, CellError::Cache(CacheConfigError::ZeroGeometry { ways: 0, .. })));

        let mut grid = SweepGrid::smoke();
        grid.line = vec![8192]; // line > 4 KB
        assert!(matches!(
            grid.spec(0).resolve().unwrap_err(),
            CellError::Cache(CacheConfigError::BlockTooLarge { block_bytes: 8192 })
        ));

        let mut grid = SweepGrid::smoke();
        grid.l2 = vec![(3000, 1)]; // 48000 sets: not a power of two
        assert!(matches!(
            grid.spec(0).resolve().unwrap_err(),
            CellError::Cache(CacheConfigError::SetsNotPowerOfTwo { .. })
        ));

        for (width, rob) in [(0, 80), (4, 0), (256, 80), (4, MAX_ROB + 1), (4, usize::MAX)] {
            let mut grid = SweepGrid::smoke();
            grid.pipe = vec![(width, rob)];
            assert_eq!(grid.spec(0).resolve().unwrap_err(), CellError::Pipe { width, rob });
        }
        let mut grid = SweepGrid::smoke();
        grid.pipe = vec![(MAX_WIDTH, 1)];
        assert!(grid.spec(0).resolve().is_ok(), "the widest runnable pipe resolves");
        grid.pipe = vec![(4, MAX_ROB)];
        assert!(grid.spec(0).resolve().is_ok(), "the deepest allowed ROB resolves");

        // 18014398509481985 KB is 2^64 + 1024 bytes: it used to wrap to 1 KB.
        // 18014398509481983 KB fits in 64 bits and used to abort the
        // process allocating its lines.
        for kb in [MAX_CACHE_KB + 1, 18014398509481983, 18014398509481985, u64::MAX] {
            let mut grid = SweepGrid::smoke();
            grid.l1 = vec![(kb, 1)];
            assert_eq!(grid.spec(0).resolve().unwrap_err(), CellError::Capacity { kb });
            let mut grid = SweepGrid::smoke();
            grid.l2 = vec![(kb, 1)];
            assert_eq!(grid.spec(0).resolve().unwrap_err(), CellError::Capacity { kb });
        }

        let mut grid = SweepGrid::smoke();
        grid.l1 = vec![(MAX_CACHE_KB, 1)];
        grid.l2 = vec![(MAX_CACHE_KB, 1)];
        assert!(grid.spec(0).resolve().is_ok(), "the largest allowed levels resolve");

        // 4294967368 cycles used to truncate to 72 in the timing core, and
        // `u64::MAX` overflowed the FP hit's `lat1 + 1`.
        let max = MAX_LATENCY;
        for lat in [(3, 8, 4294967368), (3, max + 1, 72), (max, 8, 72), (u64::MAX, 8, 72)] {
            let mut grid = SweepGrid::smoke();
            grid.lat = vec![lat];
            assert_eq!(grid.spec(0).resolve().unwrap_err(), CellError::Latency { lat });
        }
        let mut grid = SweepGrid::smoke();
        grid.lat = vec![(max - 1, max, max)];
        grid.pipe = vec![(4, 1)];
        assert!(grid.spec(0).resolve().is_ok(), "the slowest runnable latencies resolve");

        // The issue ring covers a span of the ROB times the slowest op: a
        // 16-deep ROB over 2^20-cycle memory spans more than the cap.
        let mut grid = SweepGrid::smoke();
        grid.lat = vec![(3, 5, max)];
        grid.pipe = vec![(4, 16)];
        let err = CellError::IssueSpan { pipe: (4, 16), lat: (3, 5, max) };
        assert_eq!(grid.spec(0).resolve().unwrap_err(), err);
        grid.pipe = vec![(4, 15)];
        assert!(grid.spec(0).resolve().is_ok(), "a 15-deep ROB spans at most the cap");
    }

    #[test]
    fn run_hash_depends_on_every_input() {
        let grid = SweepGrid::smoke();
        let base = run_hash(Scale::Test, 42, &[ProgramId::Predator], &grid);
        assert_ne!(base, run_hash(Scale::Small, 42, &[ProgramId::Predator], &grid));
        assert_ne!(base, run_hash(Scale::Test, 43, &[ProgramId::Predator], &grid));
        assert_ne!(base, run_hash(Scale::Test, 42, &[ProgramId::Hmmsearch], &grid));
        let mut other = grid.clone();
        other.line = vec![64, 32];
        assert_ne!(base, run_hash(Scale::Test, 42, &[ProgramId::Predator], &other));
    }

    #[test]
    fn checkpoint_header_and_record_round_trip() {
        let h = encode_header(0xdead_beef_0123_4567);
        assert_eq!(&h[..8], &CHECKPOINT_MAGIC);
        let m = CellMeasure { cycles_original: 100, cycles_transformed: 90, amat: 3.25 };
        let r = encode_record(2, 55, &m);
        assert_eq!(r.len(), CHECKPOINT_RECORD_LEN);
        // Decode by hand and compare.
        assert_eq!(u32::from_le_bytes(r[..4].try_into().unwrap()), 2);
        assert_eq!(u32::from_le_bytes(r[4..8].try_into().unwrap()), 55);
        assert_eq!(f64::from_bits(u64::from_le_bytes(r[24..32].try_into().unwrap())), 3.25);
        assert_eq!(fnv1a(&r[..32]), u64::from_le_bytes(r[32..40].try_into().unwrap()));
    }
}

