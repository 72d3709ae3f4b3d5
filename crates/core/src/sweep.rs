//! Design-space exploration: grid sweeps with resumable checkpoints and
//! Pareto-front reports.
//!
//! The paper's Table 8 evaluates four hand-picked platforms; the question
//! it raises — which cache geometry / pipeline shape / predictor family
//! closes the load-latency gap per program — is a sweep over a
//! configuration grid. [`run_sweep`] enumerates the grid ([`SweepGrid`]),
//! validates every cell's cache geometry (degenerate points become
//! skipped-cell diagnostics, not panics), and fans the surviving cells
//! out over the [`run_jobs`] worker pool: each program's two variant
//! traces are recorded once, `Arc`-shared, and every job decodes its
//! recording once while driving a bank of per-cell simulators. The job
//! enumeration — program (input order) × cell chunk (grid order) — is
//! fixed and the merge walks the same enumeration, so output is
//! byte-identical at any `--jobs`.
//!
//! By default the evaluation is **factored** along the grid's two
//! independent axis groups. The hierarchy-access sequence a cell's
//! simulator generates depends only on the trace and the register-file
//! geometry — which every cell shares — never on latencies, pipeline
//! shape, or predictor. So a *cache pass* ([`bioperf_pipe::CachePassSim`])
//! replays each recording once per distinct cache-axis configuration
//! (L1 × L2 × line × prefetcher), banking several hierarchies per
//! decode, and emits a 2-bit-per-access miss-level annotation stream
//! plus final hierarchy stats. A *timing pass* then replays each cell as
//! a lane of a [`TimingBank`], converting levels back to latencies
//! through the cell's own latency axis instead of simulating a
//! hierarchy. On the standard grid this collapses 1152 hierarchy
//! simulations to 64 while producing bit-identical measurements; the
//! unfactored path survives behind `--no-factor`; the conformance
//! harness's sweep self-check diffs the factored path against direct
//! per-cell replays instead ([`sweep_self_check`]). Annotation
//! streams larger than the [`ANN_SPILL_ENV`] budget spill to disk in
//! the checksummed `bioperf-ann/v1` format rather than accumulating in
//! RAM.
//!
//! Completed `(program, cell)` measurements append to a
//! **`bioperf-sweep/v1` checkpoint** (binary, FNV-1a-checksummed records,
//! content-addressed by a hash of seed/scale/programs/grid — the same
//! header discipline as the `bioperf-seg/v1` trace segments). An
//! interrupted sweep resumes from the checkpoint; re-running a finished
//! sweep replays nothing. Corruption (truncation, bit flips, a grid-hash
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
use bioperf_kernels::{ProgramId, Scale, Variant};
use bioperf_metrics::Json;
use bioperf_pipe::{CachePassSim, CycleSim, OpLatencies, PlatformConfig, TimingBank, MAX_WIDTH};
use bioperf_trace::{fnv1a, replay::DEFAULT_CAPACITY, Recording};

use crate::orchestrate::{default_jobs, record_variant, run_jobs, SuiteError};
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

/// Cells per wave-2 chunk (the unit of the merge and the checkpoint
/// append), and per `--no-factor` bank job: each such job decodes its
/// recording once and drives this many live per-cell simulators off the
/// shared stream, amortizing the decode without making one job dominate
/// the pool.
const BANK_CELLS: usize = 8;

/// Timing lanes per factored timing-pass job. A lane is a timing core
/// (about 0.55 MiB of ready and issue rings), so the cap bounds a job's
/// memory, while every lane past the first shares the job's decode,
/// plan and predictor walks, and its group's latency fill.
const TIMING_BANK_LANES: usize = 32;

/// Cache-axis configurations simulated per cache-pass job in the
/// factored sweep — the same decode-amortization tradeoff as
/// [`BANK_CELLS`], applied to hierarchies instead of timing cells.
const ANN_BANK: usize = 8;

/// Environment variable overriding the in-memory byte budget for the
/// factored sweep's annotation store. When the (estimated) total size
/// of all annotation streams exceeds the budget, the cache pass spills
/// each stream to a `bioperf-ann/v1` file under a per-run temporary
/// directory and the timing pass reloads it on demand.
pub const ANN_SPILL_ENV: &str = "BIOPERF_SWEEP_ANN_BYTES";

/// Default annotation-store budget: 1 GiB.
const ANN_SPILL_DEFAULT: u64 = 1 << 30;

fn ann_spill_budget() -> u64 {
    std::env::var(ANN_SPILL_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(ANN_SPILL_DEFAULT)
}

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
    /// Spilling or reloading a factored-sweep annotation stream failed
    /// (the message names the stream file and the underlying error).
    AnnotationSpill(String),
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
            SweepError::AnnotationSpill(msg) => {
                write!(f, "factored sweep annotation spill failed: {msg}")
            }
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
    /// A pipe shape the timing core cannot run: a width outside
    /// `1..=MAX_WIDTH`, or an empty ROB.
    Pipe {
        /// Fetch and issue width.
        width: u32,
        /// ROB entries.
        rob: usize,
    },
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Cache(e) => e.fmt(f),
            CellError::Pipe { width, rob } => write!(
                f,
                "pipe {width}x{rob}: width must be 1..={MAX_WIDTH} and the ROB non-empty"
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

/// Inverse of [`prefetcher_name`], for the CLI axis flags.
pub fn parse_prefetcher(name: &str) -> Option<Prefetcher> {
    [Prefetcher::None, Prefetcher::NextLine, Prefetcher::Stride]
        .into_iter()
        .find(|&p| prefetcher_name(p) == name)
}

impl CellSpec {
    /// Validates the geometry and pipe shape and builds the platform
    /// model. Degenerate cells come back as the typed error the report
    /// surfaces as a skipped cell.
    pub fn resolve(&self) -> Result<ResolvedCell, CellError> {
        let l1 = CacheConfig::try_new(self.l1.0 * 1024, self.l1.1, self.line)?;
        let l2 = CacheConfig::try_new(self.l2.0 * 1024, self.l2.1, self.line)?;
        // The sweep requires power-of-two L2 indexing (the shipped
        // presets and the address-normalization staggering assume it);
        // odd L1 set counts are allowed and take the general index path.
        l2.require_pow2_sets()?;
        let (width, rob) = self.pipe;
        if !(1..=MAX_WIDTH).contains(&width) || rob == 0 {
            return Err(CellError::Pipe { width, rob });
        }
        let (lat1, lat2, mem) = self.lat;
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
    /// Evaluate via the factored two-pass pipeline (cache pass +
    /// annotated timing replay). `false` selects the unfactored oracle:
    /// one live hierarchy per cell. Both produce bit-identical
    /// measurements; the factored path is the production default.
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
    /// cells and for cells an interrupted run never reached.
    pub measures: Vec<Vec<Option<CellMeasure>>>,
    /// Measurements replayed by this invocation.
    pub computed: usize,
    /// Measurements restored from the checkpoint.
    pub cached: usize,
    /// Variant traces recorded by this invocation — zero when every
    /// scheduled cell came out of the checkpoint (a resumed sweep with
    /// no remaining work does no recording at all).
    pub recorded: usize,
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
    /// run and an interrupt+resume of the same sweep.
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
/// bank-replay jobs, merge in enumeration order, and append the new
/// measurements to the checkpoint.
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
    // the cell budget.
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

    // Wave 1: record both variants of every program that still has work,
    // one job per (program, variant); recordings are Arc-shared with
    // every bank job of that program. Fully-checkpointed programs never
    // reach `active`, so a resumed sweep with no remaining cells records
    // nothing (`SweepResult::recorded` pins this).
    let mut active: Vec<usize> = Vec::new();
    for p in 0..programs.len() {
        if missing.iter().any(|&(mp, _)| mp == p) {
            active.push(p);
        }
    }
    let recorded = active.len() * 2;
    let record_jobs: Vec<_> = active
        .iter()
        .flat_map(|&p| {
            let program = programs[p];
            [Variant::Original, Variant::LoadTransformed].into_iter().map(move |variant| {
                move || record_variant(program, variant, cfg.scale, cfg.seed, DEFAULT_CAPACITY)
            })
        })
        .collect();
    let mut recordings: Vec<Option<(Arc<Recording>, Arc<Recording>)>> =
        (0..programs.len()).map(|_| None).collect();
    let mut rec_out = run_jobs(record_jobs, threads).into_iter();
    for &p in &active {
        let original = Arc::new(rec_out.next().expect("two recordings per active program")?);
        let transformed = Arc::new(rec_out.next().expect("two recordings per active program")?);
        recordings[p] = Some((original, transformed));
    }

    // Wave 2: evaluate the missing cells, chunked program (input order) ×
    // ≤BANK_CELLS cells (grid order). The chunking — and therefore the
    // merge below — is shared by both evaluation strategies, so factored
    // and unfactored runs produce identical checkpoint bytes.
    let chunks: Vec<(usize, Vec<usize>)> = {
        let mut out: Vec<(usize, Vec<usize>)> = Vec::new();
        for &(p, c) in &missing {
            match out.last_mut() {
                Some((lp, cs)) if *lp == p && cs.len() < BANK_CELLS => cs.push(c),
                _ => out.push((p, vec![c])),
            }
        }
        out
    };
    let outputs: Vec<Vec<CellMeasure>> = if cfg.factor {
        factored_outputs(threads, &cfg.grid, &resolved, &chunks, &recordings, hash)?
    } else {
        // Unfactored oracle: each job decodes the recordings once and
        // drives one live simulator (with its own hierarchy) per cell.
        let bank_jobs: Vec<_> = chunks
            .iter()
            .map(|(p, cell_ids)| {
                let (original, transformed) =
                    recordings[*p].as_ref().expect("active programs have recordings");
                let original = Arc::clone(original);
                let transformed = Arc::clone(transformed);
                let cells: Vec<ResolvedCell> = cell_ids
                    .iter()
                    .map(|&c| resolved[c].expect("scheduled cells are valid"))
                    .collect();
                move || -> Vec<CellMeasure> {
                    let build = |rc: &ResolvedCell| {
                        CycleSim::new(rc.platform)
                            .with_predictor(rc.pred)
                            .with_prefetcher(rc.prefetch)
                    };
                    let mut orig_bank: Vec<CycleSim> = cells.iter().map(build).collect();
                    original.replay_bank(&mut orig_bank);
                    let mut trans_bank: Vec<CycleSim> = cells.iter().map(build).collect();
                    transformed.replay_bank(&mut trans_bank);
                    cells
                        .iter()
                        .zip(orig_bank.into_iter().zip(trans_bank))
                        .map(|(rc, (o, t))| {
                            let o = o.into_result();
                            let t = t.into_result();
                            CellMeasure {
                                cycles_original: o.cycles,
                                cycles_transformed: t.cycles,
                                amat: rc.lat.amat(
                                    o.cache.l1.load_miss_ratio(),
                                    o.cache.l2.load_miss_ratio(),
                                ),
                            }
                        })
                        .collect()
                }
            })
            .collect();
        run_jobs(bank_jobs, threads)
    };

    // Merge in the fixed (program, chunk, cell) enumeration — identical
    // for every worker count — and collect the checkpoint append batch
    // in the same order.
    let mut new_records: Vec<(u32, u32, CellMeasure)> = Vec::with_capacity(missing.len());
    for ((p, cell_ids), mut out) in chunks.into_iter().zip(outputs) {
        if bioperf_trace::inject::active(bioperf_trace::inject::SWEEP_MERGE) && out.len() > 1 {
            // Seeded fault: credit each cell with its neighbor's
            // measurements (see `FaultId::SweepMergeOrder`).
            out.rotate_left(1);
        }
        for (&c, m) in cell_ids.iter().zip(out) {
            measures[p][c] = Some(m);
            new_records.push((p as u32, c as u32, m));
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

/// Where one (program, variant, cache-config) annotation stream lives
/// between the cache pass and the timing pass.
#[derive(Debug, Clone)]
enum AnnHandle {
    /// Shared in memory.
    Mem(Arc<AnnotationStream>),
    /// Spilled to a `bioperf-ann/v1` file; reloaded per timing job.
    Disk(PathBuf),
}

/// The annotation spill directory. Dropping the last handle removes it
/// and everything in it, so it goes on every exit path after its
/// creation, success or failure.
struct SpillDir(PathBuf);

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One cache-pass output per geometry: hierarchy stats (AMAT inputs),
/// the stream's content key (timing-memo grouping), and where the
/// stream lives.
type CachePassOutput = (HierarchyStats, (u64, u64), AnnHandle);

impl AnnHandle {
    fn fetch(&self) -> Result<Arc<AnnotationStream>, String> {
        match self {
            AnnHandle::Mem(s) => Ok(Arc::clone(s)),
            AnnHandle::Disk(p) => {
                AnnotationStream::load(p).map(Arc::new).map_err(|e| e.to_string())
            }
        }
    }
}

/// The factored wave 2: a cache pass produces per-cache-config miss
/// annotations and hierarchy stats (one trace decode per ≤[`ANN_BANK`]
/// configs), then a timing pass replays every chunk's cells in
/// annotated mode — no live hierarchies. Chunk outputs are returned in
/// `chunks` order, exactly like the unfactored bank jobs.
fn factored_outputs(
    threads: usize,
    grid: &SweepGrid,
    resolved: &[Option<ResolvedCell>],
    chunks: &[(usize, Vec<usize>)],
    recordings: &[Option<(Arc<Recording>, Arc<Recording>)>],
    hash: u64,
) -> Result<Vec<Vec<CellMeasure>>, SweepError> {
    // Distinct cache-axis keys in first-seen (missing-order) sequence,
    // one representative resolved cell per key, and each scheduled
    // cell's key index.
    let mut keys: Vec<CacheAxisKey> = Vec::new();
    let mut reps: Vec<ResolvedCell> = Vec::new();
    let mut cell_key: Vec<Option<usize>> = vec![None; resolved.len()];
    // Per program, the key indices it needs, ascending.
    let mut prog_keys: Vec<Vec<usize>> = vec![Vec::new(); recordings.len()];
    for (p, cell_ids) in chunks {
        for &c in cell_ids {
            let k = match cell_key[c] {
                Some(k) => k,
                None => {
                    let key = CacheAxisKey::of(&grid.spec(c));
                    let k = keys.iter().position(|&x| x == key).unwrap_or_else(|| {
                        keys.push(key);
                        reps.push(resolved[c].expect("scheduled cells are valid"));
                        keys.len() - 1
                    });
                    cell_key[c] = Some(k);
                    k
                }
            };
            if !prog_keys[*p].contains(&k) {
                prog_keys[*p].push(k);
            }
        }
    }
    for ks in &mut prog_keys {
        ks.sort_unstable();
    }

    // Spill decision, up front and for the whole store: the estimate
    // assumes about one hierarchy access per recorded op (2 bits each),
    // which is the right order of magnitude for every shipped kernel.
    let mut est_bytes = 0u64;
    for (p, ks) in prog_keys.iter().enumerate() {
        if ks.is_empty() {
            continue;
        }
        let (orig, trans) = recordings[p].as_ref().expect("active programs have recordings");
        est_bytes += ((orig.len() + trans.len()) as u64).div_ceil(4) * ks.len() as u64;
    }
    let spill_dir: Option<Arc<SpillDir>> = if est_bytes > ann_spill_budget() {
        let dir = std::env::temp_dir()
            .join(format!("bioperf-sweep-ann-{hash:016x}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| SweepError::AnnotationSpill(format!("{}: {e}", dir.display())))?;
        Some(Arc::new(SpillDir(dir)))
    } else {
        None
    };

    // Cache pass: one job per (program, variant, ≤ANN_BANK keys).
    let mut descriptors: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    for (p, ks) in prog_keys.iter().enumerate() {
        for variant in 0..2usize {
            for chunk in ks.chunks(ANN_BANK) {
                descriptors.push((p, variant, chunk.to_vec()));
            }
        }
    }
    let cache_jobs: Vec<_> = descriptors
        .iter()
        .map(|(p, variant, key_ids)| {
            let (orig, trans) = recordings[*p].as_ref().expect("active programs have recordings");
            let rec = Arc::clone(if *variant == 0 { orig } else { trans });
            let members: Vec<ResolvedCell> = key_ids.iter().map(|&k| reps[k]).collect();
            let key_ids = key_ids.clone();
            let dir = spill_dir.clone();
            let (p, variant) = (*p, *variant);
            move || -> Result<Vec<CachePassOutput>, String> {
                let hierarchies: Vec<Hierarchy> = members
                    .iter()
                    .map(|rc| {
                        Hierarchy::new(rc.platform.l1, rc.platform.l2, rc.lat)
                            .with_prefetcher(rc.prefetch)
                    })
                    .collect();
                let mut pass = CachePassSim::new(members[0].platform.logical_regs, hierarchies);
                rec.replay_bank(std::slice::from_mut(&mut pass));
                pass.finish_bank()
                    .into_iter()
                    .zip(&key_ids)
                    .map(|((stats, stream), &k)| {
                        let content = stream.content_key();
                        let handle = match &dir {
                            Some(d) => {
                                let path = d.0.join(format!("p{p}-v{variant}-k{k}.ann"));
                                stream.save(&path).map_err(|e| e.to_string())?;
                                AnnHandle::Disk(path)
                            }
                            None => AnnHandle::Mem(Arc::new(stream)),
                        };
                        Ok((stats, content, handle))
                    })
                    .collect()
            }
        })
        .collect();
    let mut store: Vec<Vec<Option<CachePassOutput>>> =
        vec![vec![None; keys.len()]; 2 * recordings.len()];
    for ((p, variant, key_ids), out) in
        descriptors.iter().zip(run_jobs(cache_jobs, threads))
    {
        let out = out.map_err(SweepError::AnnotationSpill)?;
        for ((stats, content, handle), &k) in out.into_iter().zip(key_ids) {
            store[2 * p + variant][k] = Some((stats, content, handle));
        }
    }

    // Timing pass, memoized: a cell's cycle counts depend only on its
    // timing axis (latency triple, pipe shape, predictor) and the
    // *contents* of its two annotation streams — never on which cache
    // geometry produced them. Distinct geometries frequently produce
    // identical miss sequences (every L2 that stops missing after
    // warmup, every line size the access pattern strides past), so
    // cells are grouped by (timing axis, stream content keys) and each
    // group is simulated once. The groups run through shared-pass
    // [`TimingBank`]s — every grid cell keeps the base platform's
    // register file and if-conversion mode (see `CellSpec::resolve`),
    // so within a job the register/spill plan runs once, each
    // predictor family once, each (stream, latency table) fill once,
    // and only the serial timing core per lane.
    // AMATs stay per cell: they come from the cache pass's
    // original-variant stats, the same counts a live hierarchy ends
    // with, so the measurement is bit-identical.
    #[derive(PartialEq, Clone, Copy)]
    struct TimingKey {
        lat: (u64, u64, u64),
        pipe: (u32, usize),
        pred: PredictorKind,
        streams: ((u64, u64), (u64, u64)),
    }
    let mut group_keys: Vec<Vec<TimingKey>> = vec![Vec::new(); recordings.len()];
    // Per program, each group's representative cell and cache-axis key.
    let mut group_lane: Vec<Vec<(ResolvedCell, usize)>> = vec![Vec::new(); recordings.len()];
    // Per chunk, each cell's group index within its program.
    let mut cell_group: Vec<Vec<usize>> = Vec::with_capacity(chunks.len());
    for (p, cell_ids) in chunks {
        let mut per_chunk = Vec::with_capacity(cell_ids.len());
        for &c in cell_ids {
            let spec = grid.spec(c);
            let k = cell_key[c].expect("scheduled cells have keys");
            let (_, okey, _) = store[2 * p][k].as_ref().expect("cache pass covered every key");
            let (_, tkey, _) = store[2 * p + 1][k].as_ref().expect("cache pass covered every key");
            let key = TimingKey {
                lat: spec.lat,
                pipe: spec.pipe,
                pred: spec.pred,
                streams: (*okey, *tkey),
            };
            let g = group_keys[*p].iter().position(|&x| x == key).unwrap_or_else(|| {
                group_keys[*p].push(key);
                group_lane[*p].push((resolved[c].expect("scheduled cells are valid"), k));
                group_keys[*p].len() - 1
            });
            per_chunk.push(g);
        }
        cell_group.push(per_chunk);
    }

    // One job per (program, variant, ≤TIMING_BANK_LANES groups): each
    // bank decodes, plans and predictor-walks its trace once for all its
    // lanes. Jobs go to the pool largest first (recording length ×
    // lanes), since it claims them in order and a long job started last
    // would run alone. Results go back by (program, group) index, so
    // neither the partition nor the job order reaches the output.
    let variant_rec = |p: usize, variant: usize| {
        let (original, transformed) =
            recordings[p].as_ref().expect("active programs have recordings");
        Arc::clone(if variant == 0 { original } else { transformed })
    };
    let mut timing_descr: Vec<(usize, usize, std::ops::Range<usize>)> = Vec::new();
    for (p, lanes) in group_lane.iter().enumerate() {
        for variant in 0..2 {
            for start in (0..lanes.len()).step_by(TIMING_BANK_LANES) {
                let end = (start + TIMING_BANK_LANES).min(lanes.len());
                timing_descr.push((p, variant, start..end));
            }
        }
    }
    timing_descr.sort_by_key(|(p, variant, groups)| {
        Reverse(variant_rec(*p, *variant).len() * groups.len())
    });
    let timing_jobs: Vec<_> = timing_descr
        .iter()
        .map(|(p, variant, groups)| {
            let rec = variant_rec(*p, *variant);
            // Each distinct annotation handle is fetched once per job, so
            // a spilled stream is read once and its lanes share one `Arc`.
            let mut keys: Vec<usize> = Vec::new();
            let lanes: Vec<(ResolvedCell, usize)> = group_lane[*p][groups.clone()]
                .iter()
                .map(|&(rc, k)| {
                    let h = keys.iter().position(|&x| x == k).unwrap_or_else(|| {
                        keys.push(k);
                        keys.len() - 1
                    });
                    (rc, h)
                })
                .collect();
            let handles: Vec<AnnHandle> = keys
                .iter()
                .map(|&k| {
                    let (_, _, handle) =
                        store[2 * p + variant][k].as_ref().expect("cache pass covered every key");
                    handle.clone()
                })
                .collect();
            move || -> Result<Vec<u64>, String> {
                let streams =
                    handles.iter().map(AnnHandle::fetch).collect::<Result<Vec<_>, _>>()?;
                let base = lanes[0].0.platform;
                let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
                for (rc, h) in &lanes {
                    bank.push_lane(&rc.platform, rc.pred, Arc::clone(&streams[*h]));
                }
                rec.replay_bank(std::slice::from_mut(&mut bank));
                Ok(bank.into_results().into_iter().map(|r| r.cycles).collect())
            }
        })
        .collect();
    let timing_results = run_jobs(timing_jobs, threads);
    // Every spilled stream has been read: remove the directory now.
    drop(spill_dir);
    let mut group_cycles: Vec<Vec<(u64, u64)>> =
        group_lane.iter().map(|lanes| vec![(0, 0); lanes.len()]).collect();
    for ((p, variant, groups), out) in timing_descr.iter().zip(timing_results) {
        for (g, cycles) in groups.clone().zip(out.map_err(SweepError::AnnotationSpill)?) {
            let slot = &mut group_cycles[*p][g];
            if *variant == 0 {
                slot.0 = cycles;
            } else {
                slot.1 = cycles;
            }
        }
    }

    let mut outputs = Vec::with_capacity(chunks.len());
    for ((p, cell_ids), groups) in chunks.iter().zip(&cell_group) {
        outputs.push(
            cell_ids
                .iter()
                .zip(groups)
                .map(|(&c, &g)| {
                    let k = cell_key[c].expect("scheduled cells have keys");
                    let rc = resolved[c].expect("scheduled cells are valid");
                    let (ostats, _, _) =
                        store[2 * p][k].as_ref().expect("cache pass covered every key");
                    let (cycles_original, cycles_transformed) = group_cycles[*p][g];
                    CellMeasure {
                        cycles_original,
                        cycles_transformed,
                        amat: rc
                            .lat
                            .amat(ostats.l1.load_miss_ratio(), ostats.l2.load_miss_ratio()),
                    }
                })
                .collect(),
        );
    }
    Ok(outputs)
}

/// Differential self-check of the factored sweep end to end, run by
/// the conformance harness. A tiny 16-cell sweep (two L1 sizes × two
/// latency triples × two predictor families × two prefetchers, predator
/// at Test scale) goes through the production path — cache pass,
/// annotated timing banks, chunked merge — and every cell is then
/// re-measured by direct live [`CycleSim`] replays, one simulator at a
/// time (no bank, no annotations, no merge), and compared bitwise. A
/// stack-distance cross-check then validates the cache pass
/// analytically: for the prefetcher-free cells, L1 miss counts derived
/// from one LRU stack-distance profile of the shared access stream must
/// equal the banked hierarchies' counts. Returns the first divergence;
/// under the `sweep-merge-order`, `factored-annotation-skew` and
/// `timing-fill-overshare` faults the direct-replay diff fires.
pub fn sweep_self_check(seed: u64) -> Option<String> {
    let grid = SweepGrid {
        l1: vec![(32, 2), (64, 2)],
        l2: vec![(4096, 1)],
        line: vec![64],
        lat: vec![(3, 5, 72), (2, 4, 60)],
        pipe: vec![(4, 80)],
        pred: vec![PredictorKind::Hybrid, PredictorKind::Bimodal],
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
        let t = replay(&transformed);
        let want = CellMeasure {
            cycles_original: o.cycles,
            cycles_transformed: t.cycles,
            amat: rc.lat.amat(o.cache.l1.load_miss_ratio(), o.cache.l2.load_miss_ratio()),
        };
        let got = match result.measures[0][cell] {
            Some(m) => m,
            None => return Some(format!("sweep cell {cell}: no measurement produced")),
        };
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

        for (width, rob) in [(0, 80), (4, 0), (256, 80)] {
            let mut grid = SweepGrid::smoke();
            grid.pipe = vec![(width, rob)];
            assert_eq!(grid.spec(0).resolve().unwrap_err(), CellError::Pipe { width, rob });
        }
        let mut grid = SweepGrid::smoke();
        grid.pipe = vec![(MAX_WIDTH, 1)];
        assert!(grid.spec(0).resolve().is_ok(), "the widest runnable pipe resolves");
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

