//! The four workloads, the timed sample a child process runs for one of
//! them, and the checks on a sample's output.
//!
//! Every workload runs at Small scale over the six transformable
//! programs: Test scale hides the geometry axis, since every L2 stops
//! missing after warm-up there.

use std::hint::black_box;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

use bioperf_branch::PredictorKind;
use bioperf_cache::Prefetcher;
use bioperf_core::orchestrate::SpillConfig;
use bioperf_core::{
    evaluate_program, run_jobs, run_suite, run_sweep, EvalMatrix, SuiteConfig, SweepConfig,
    SweepGrid,
};
use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_metrics::Json;
use bioperf_pipe::{CycleSim, PlatformConfig};
use bioperf_trace::{replay::DEFAULT_CAPACITY, Recorder, Recording, SpillRecorder, Tape};

/// Scale of every workload.
pub(crate) const SCALE: Scale = Scale::Small;

/// Ops per segment file in the spill workload.
pub(crate) const SEGMENT_OPS: usize = 1 << 20;

/// The paper's Figure 9 harmonic-mean speedups in percent, in
/// [`PlatformConfig::all`] order.
pub(crate) const PAPER_FIG9_PCT: [f64; 4] = [25.4, 15.1, 4.3, 12.7];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    SuiteSmall,
    SuiteSmallSpill,
    SweepCache,
    SweepTiming,
}

impl Workload {
    pub(crate) const ALL: [Workload; 4] = [
        Workload::SuiteSmall,
        Workload::SuiteSmallSpill,
        Workload::SweepCache,
        Workload::SweepTiming,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::SuiteSmall => "suite-small",
            Workload::SuiteSmallSpill => "suite-small-spill",
            Workload::SweepCache => "sweep-cache",
            Workload::SweepTiming => "sweep-timing",
        }
    }

    pub(crate) fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub(crate) fn is_suite(self) -> bool {
        matches!(self, Workload::SuiteSmall | Workload::SuiteSmallSpill)
    }

    pub(crate) fn spills(self) -> bool {
        self == Workload::SuiteSmallSpill
    }

    /// The sweep grid, for the sweep workloads.
    ///
    /// `sweep-cache` has 16 distinct cache geometries and one timing
    /// configuration, so the cache pass is about half of wave 2.
    /// `sweep-timing` has one geometry and 24 timing configurations (three
    /// full `TimingBank`s of 8 lanes per trace), so the timing pass is
    /// over 90% of it.
    pub(crate) fn grid(self) -> Option<SweepGrid> {
        match self {
            Workload::SuiteSmall | Workload::SuiteSmallSpill => None,
            Workload::SweepCache => Some(SweepGrid {
                l1: vec![(32, 2), (64, 4)],
                l2: vec![(1024, 2), (8192, 2)],
                line: vec![32, 64],
                lat: vec![(3, 5, 72)],
                pipe: vec![(4, 80)],
                pred: vec![PredictorKind::Hybrid],
                prefetch: vec![Prefetcher::None, Prefetcher::NextLine],
            }),
            Workload::SweepTiming => Some(SweepGrid {
                l1: vec![(64, 2)],
                l2: vec![(4096, 1)],
                line: vec![64],
                lat: vec![(1, 3, 40), (3, 5, 72), (4, 8, 100)],
                pipe: vec![(2, 32), (4, 80), (6, 128), (8, 192)],
                pred: vec![PredictorKind::Hybrid, PredictorKind::Bimodal],
                prefetch: vec![Prefetcher::None],
            }),
        }
    }

    /// Every (program, variant) execution the workload traces: the suite
    /// runs all nine programs' original variant and the six transformed
    /// variants; a sweep records both variants of the six transformable
    /// programs.
    pub(crate) fn traces(self) -> Vec<(ProgramId, Variant)> {
        let programs: &[ProgramId] = if self.is_suite() {
            &ProgramId::ALL
        } else {
            &ProgramId::TRANSFORMED
        };
        let mut out = Vec::new();
        for &program in programs {
            out.push((program, Variant::Original));
            if program.is_transformable() {
                out.push((program, Variant::LoadTransformed));
            }
        }
        out
    }
}

/// One science value of a workload's output: a key naming the cell and
/// its numbers (suite: Table 8 cycles of both variants; sweep: a
/// `CellMeasure`'s cycles and AMAT bits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Row {
    pub(crate) key: String,
    pub(crate) values: Vec<u64>,
}

/// FNV-1a 64 over the rows, the checksum the sweep checkpoints use.
/// Report rendering is not hashed, so a schema change cannot trip it.
pub(crate) fn digest(rows: &[Row]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in rows {
        feed(row.key.as_bytes());
        feed(&[0]);
        for v in &row.values {
            feed(&v.to_le_bytes());
        }
    }
    hash
}

pub(crate) fn digest_hex(rows: &[Row]) -> String {
    format!("{:#018x}", digest(rows))
}

/// Table 8 rows of an evaluation matrix, in its cell order.
pub(crate) fn suite_rows(eval: &EvalMatrix) -> Vec<Row> {
    eval.cells
        .iter()
        .map(|c| Row {
            key: format!("{}/{}", c.program.name(), c.platform),
            values: vec![c.original.cycles, c.transformed.cycles],
        })
        .collect()
}

/// The sweep row of one measured cell.
pub(crate) fn sweep_row(program: ProgramId, cell: usize, cycles: (u64, u64), amat: f64) -> Row {
    Row {
        key: format!("{}/cell{cell}", program.name()),
        values: vec![cycles.0, cycles.1, amat.to_bits()],
    }
}

/// Mean absolute error, in percentage points, of the four harmonic-mean
/// speedups against the paper's Figure 9.
pub(crate) fn paper_err_pp(hmean: &[f64]) -> f64 {
    let sum: f64 = hmean
        .iter()
        .zip(PAPER_FIG9_PCT)
        .map(|(h, paper)| ((h - 1.0) * 100.0 - paper).abs())
        .sum();
    sum / PAPER_FIG9_PCT.len() as f64
}

/// Harmonic-mean speedups in [`PlatformConfig::all`] order.
pub(crate) fn harmonic_means(eval: &EvalMatrix) -> Vec<f64> {
    PlatformConfig::all()
        .iter()
        .map(|p| eval.harmonic_mean_speedup(p.name))
        .collect()
}

/// Records one trace in memory, failing on recorder overflow.
pub(crate) fn record(program: ProgramId, variant: Variant, seed: u64) -> Result<Recording, String> {
    let mut tape = Tape::new(Recorder::with_capacity(DEFAULT_CAPACITY));
    registry::run(&mut tape, program, variant, SCALE, seed);
    let (static_program, rec) = tape.finish();
    if rec.overflowed() {
        return Err(format!(
            "{program} ({}): trace overflowed the recorder",
            variant.label()
        ));
    }
    Ok(rec.into_recording(static_program))
}

/// The set-up step of a sample: records every trace the workload uses,
/// with the same public calls and thread count as the workload, dropping
/// each as soon as it is captured so set-up cannot raise peak RSS.
/// Returns the op count of each trace, in [`Workload::traces`] order.
fn setup(w: Workload, seed: u64, jobs: usize, tmp: &Path) -> Result<Vec<usize>, String> {
    let work: Vec<_> = w
        .traces()
        .into_iter()
        .map(|(program, variant)| {
            let dir = tmp.join(format!("setup-{}-{}", program.name(), variant.label()));
            move || -> Result<usize, String> {
                if !w.spills() {
                    return record(program, variant, seed).map(|r| r.len());
                }
                let recorder = SpillRecorder::to_dir(&dir, SEGMENT_OPS, DEFAULT_CAPACITY)
                    .map_err(|e| e.to_string())?;
                let mut tape = Tape::new(recorder);
                registry::run(&mut tape, program, variant, SCALE, seed);
                let (static_program, rec) = tape.finish();
                if rec.overflowed() {
                    return Err(format!("{program}: trace overflowed the recorder"));
                }
                let ops = rec
                    .into_segmented(static_program)
                    .map_err(|e| e.to_string())?
                    .len();
                std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                Ok(ops)
            }
        })
        .collect();
    run_jobs(work, jobs).into_iter().collect()
}

/// User+system CPU seconds of this process so far, from
/// `/proc/self/stat` at 100 ticks per second.
fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesized command name start at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "malformed /proc/self/stat".into())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Median seconds [`probe`] took with 2 threads over about 60 samples on
/// the 2-core host the baseline was measured on. Every time metric is
/// rescaled to this host speed (see [`SampleOut::speed`]), which leaves
/// times on that host near their raw values.
pub(crate) const PROBE_REF_S: f64 = 0.135;

/// A host-speed probe: a fixed loop of the kind of work the pipeline
/// does, run on `jobs` threads at once like the workload. Each thread
/// streams a 16 MiB buffer (as replay streams a packed trace) and, per
/// word, hashes it into a read-modify-write of a 128 KiB table (as a
/// cache model updates its tags) through a chain of dependent loads and
/// data-dependent branches (as the timing core's serial recurrence runs).
/// The buffers are touched before timing, so page faults are not
/// measured; the threads start each of 3 repetitions together, and the
/// fastest repetition's wall seconds are returned. It is the benchmark's
/// own code, so a change to the program cannot move it, and it must
/// never change: every rescaled time is relative to it.
pub(crate) fn probe(jobs: usize) -> f64 {
    const STREAM_WORDS: u64 = 2 << 20;
    const TABLE_BITS: u32 = 14;
    const PASSES: usize = 8;
    const REPS: usize = 3;
    let barrier = Barrier::new(jobs);
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..jobs as u64)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    let stream: Vec<u64> = (0..STREAM_WORDS)
                        .map(|i| (i ^ t).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                        .collect();
                    let mut table = vec![0u64; 1 << TABLE_BITS];
                    let mut acc = 0u64;
                    (0..REPS)
                        .map(|_| {
                            barrier.wait();
                            let start = Instant::now();
                            for _ in 0..PASSES {
                                for &w in &stream {
                                    let h = (w ^ acc).wrapping_mul(0xff51_afd7_ed55_8ccd);
                                    let i = (h >> (64 - TABLE_BITS)) as usize;
                                    let v = table[i];
                                    table[i] = v.wrapping_add(h);
                                    acc = if v & 1 == 0 {
                                        acc.wrapping_add(v ^ h)
                                    } else {
                                        acc.rotate_left(7)
                                    };
                                }
                            }
                            black_box(acc);
                            start.elapsed().as_secs_f64()
                        })
                        .collect()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|h| h.join().expect("probe threads do not panic"))
            .collect()
    });
    (0..REPS)
        .map(|r| per_thread.iter().map(|times| times[r]).fold(0.0, f64::max))
        .fold(f64::INFINITY, f64::min)
}

/// What one sample measured and produced.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SampleOut {
    /// Raw seconds of the set-up, the call's wall clock, and its CPU.
    pub(crate) setup_s: f64,
    pub(crate) wall_s: f64,
    pub(crate) cpu_s: f64,
    /// Mean [`probe`] seconds just before set-up and just after the call.
    pub(crate) probe_s: f64,
    pub(crate) rss_bytes: u64,
    /// (trace op × configuration) pairs simulated by the call.
    pub(crate) sim_ops: u64,
    /// Cells the call measured.
    pub(crate) cells: u64,
    /// Traces the call recorded.
    pub(crate) traces: u64,
    /// Harmonic-mean speedups (suite workloads only).
    pub(crate) hmean: Vec<f64>,
    pub(crate) rows: Vec<Row>,
}

impl SampleOut {
    /// The host's speed during this sample relative to the reference
    /// host: raw seconds times this factor are seconds at reference speed.
    pub(crate) fn speed(&self) -> f64 {
        PROBE_REF_S / self.probe_s
    }

    pub(crate) fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::Array(vec![
                    Json::str(r.key.clone()),
                    Json::Array(r.values.iter().map(|&v| Json::U64(v)).collect()),
                ])
            })
            .collect();
        Json::object(vec![
            ("setup_s", Json::F64(self.setup_s)),
            ("wall_s", Json::F64(self.wall_s)),
            ("cpu_s", Json::F64(self.cpu_s)),
            ("probe_s", Json::F64(self.probe_s)),
            ("rss_bytes", Json::U64(self.rss_bytes)),
            ("sim_ops", Json::U64(self.sim_ops)),
            ("cells", Json::U64(self.cells)),
            ("traces", Json::U64(self.traces)),
            (
                "hmean",
                Json::Array(self.hmean.iter().map(|&h| Json::F64(h)).collect()),
            ),
            ("rows", Json::Array(rows)),
        ])
    }

    pub(crate) fn from_json(doc: &Json) -> Result<SampleOut, String> {
        let f = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("sample: bad {key}"))
        };
        let u = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("sample: bad {key}"))
        };
        let array = |key: &str| match doc.get(key) {
            Some(Json::Array(items)) => Ok(items),
            _ => Err(format!("sample: bad {key}")),
        };
        let hmean = array("hmean")?
            .iter()
            .map(|h| h.as_f64().ok_or("sample: bad hmean".to_string()))
            .collect::<Result<_, _>>()?;
        let rows = array("rows")?
            .iter()
            .map(|row| match row {
                Json::Array(pair) if pair.len() == 2 => {
                    let key = pair[0].as_str().ok_or("sample: bad row key")?.to_string();
                    let Json::Array(values) = &pair[1] else {
                        return Err("sample: bad row".into());
                    };
                    let values = values
                        .iter()
                        .map(|v| v.as_u64().ok_or("sample: bad row value".to_string()))
                        .collect::<Result<_, _>>()?;
                    Ok(Row { key, values })
                }
                _ => Err("sample: bad row".to_string()),
            })
            .collect::<Result<_, _>>()?;
        Ok(SampleOut {
            setup_s: f("setup_s")?,
            wall_s: f("wall_s")?,
            cpu_s: f("cpu_s")?,
            probe_s: f("probe_s")?,
            rss_bytes: u("rss_bytes")?,
            sim_ops: u("sim_ops")?,
            cells: u("cells")?,
            traces: u("traces")?,
            hmean,
            rows,
        })
    }
}

/// One sample, run in a child process of its own so that peak RSS and
/// CPU time belong to this run alone: probe the host, set up, time the
/// workload's public entry point, probe again.
pub(crate) fn run_sample(
    w: Workload,
    seed: u64,
    jobs: usize,
    tmp: &Path,
) -> Result<SampleOut, String> {
    let probe_before = probe(jobs);
    let start = Instant::now();
    let trace_ops = setup(w, seed, jobs, tmp)?;
    let setup_s = start.elapsed().as_secs_f64();
    let mut out = timed_call(w, seed, jobs, tmp, &trace_ops)?;
    out.setup_s = setup_s;
    out.probe_s = (probe_before + probe(jobs)) / 2.0;
    Ok(out)
}

/// Times one call of the workload's entry point; `trace_ops` are the
/// set-up's op counts. Set-up and probe seconds are left 0.
fn timed_call(
    w: Workload,
    seed: u64,
    jobs: usize,
    tmp: &Path,
    trace_ops: &[usize],
) -> Result<SampleOut, String> {
    if let Some(grid) = w.grid() {
        let cfg = SweepConfig {
            scale: SCALE,
            seed,
            jobs,
            programs: Vec::new(),
            grid,
            checkpoint: None,
            max_cells: 0,
            factor: true,
        };
        let cpu0 = cpu_seconds()?;
        let start = Instant::now();
        let result = run_sweep(&cfg).map_err(|e| e.to_string())?;
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds()? - cpu0;
        if !result.skipped.is_empty() || !result.complete {
            return Err("sweep skipped or left cells unmeasured".into());
        }
        let mut rows = Vec::new();
        let mut sim_ops = 0u64;
        for (p, &program) in result.programs.iter().enumerate() {
            // A sweep traces each program's two variants back to back.
            let ops = (trace_ops[2 * p] + trace_ops[2 * p + 1]) as u64;
            for (c, m) in result.measures[p].iter().enumerate() {
                let m = m.ok_or(format!("{program} cell {c} unmeasured"))?;
                rows.push(sweep_row(
                    program,
                    c,
                    (m.cycles_original, m.cycles_transformed),
                    m.amat,
                ));
                sim_ops += ops;
            }
        }
        return Ok(SampleOut {
            setup_s: 0.0,
            wall_s,
            cpu_s,
            probe_s: 0.0,
            rss_bytes: bioperf_bench::peak_rss_bytes().ok_or("VmHWM unavailable")?,
            sim_ops,
            cells: result.computed as u64,
            traces: result.recorded as u64,
            hmean: Vec::new(),
            rows,
        });
    }

    let spill_dir = tmp.join("suite-spill");
    let cfg = SuiteConfig {
        scale: SCALE,
        seed,
        jobs,
        metrics: false,
        trace_cap: 0,
        spill: w.spills().then(|| SpillConfig {
            dir: spill_dir.clone(),
            segment_ops: SEGMENT_OPS,
        }),
    };
    let cpu0 = cpu_seconds()?;
    let start = Instant::now();
    let result = run_suite(cfg).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds()? - cpu0;
    if w.spills() {
        std::fs::remove_dir_all(&spill_dir).map_err(|e| format!("{}: {e}", spill_dir.display()))?;
    }
    Ok(SampleOut {
        setup_s: 0.0,
        wall_s,
        cpu_s,
        probe_s: 0.0,
        rss_bytes: bioperf_bench::peak_rss_bytes().ok_or("VmHWM unavailable")?,
        sim_ops: result.replay.replayed_ops,
        cells: result.eval.cells.len() as u64,
        // One replay bank job per recorded trace.
        traces: (result.jobs - result.reports.len()) as u64,
        hmean: harmonic_means(&result.eval),
        rows: suite_rows(&result.eval),
    })
}

/// Re-measures one seed-chosen cell by a path independent of the
/// workload's (the kernel runs live into a `CycleSim`: no recording, no
/// bank, no factoring) and compares it with the sample's row.
pub(crate) fn spot_check(w: Workload, seed: u64, rows: &[Row]) -> Result<String, String> {
    let programs = ProgramId::TRANSFORMED;
    let program = programs[(seed % programs.len() as u64) as usize];
    let pick = seed / programs.len() as u64;
    let want = match w.grid() {
        None => {
            let platforms: Vec<PlatformConfig> = PlatformConfig::all()
                .into_iter()
                .filter(|p| EvalMatrix::cell_applicable(program, p.name))
                .collect();
            let platform = platforms[(pick % platforms.len() as u64) as usize];
            let cell = evaluate_program(program, platform, SCALE, seed);
            Row {
                key: format!("{program}/{}", platform.name),
                values: vec![cell.original.cycles, cell.transformed.cycles],
            }
        }
        Some(grid) => {
            let c = (pick % grid.cells() as u64) as usize;
            let rc = grid
                .spec(c)
                .resolve()
                .map_err(|e| format!("cell {c}: {e}"))?;
            let live = |variant| {
                let sim = CycleSim::new(rc.platform)
                    .with_predictor(rc.pred)
                    .with_prefetcher(rc.prefetch);
                let mut tape = Tape::new(sim);
                registry::run(&mut tape, program, variant, SCALE, seed);
                tape.finish().1.into_result()
            };
            let o = live(Variant::Original);
            let t = live(Variant::LoadTransformed);
            let amat = rc
                .lat
                .amat(o.cache.l1.load_miss_ratio(), o.cache.l2.load_miss_ratio());
            sweep_row(program, c, (o.cycles, t.cycles), amat)
        }
    };
    match rows.iter().find(|r| r.key == want.key) {
        Some(got) if *got == want => Ok(want.key),
        Some(got) => Err(format!(
            "{}: workload {:?}, direct simulation {:?}",
            want.key, got.values, want.values
        )),
        None => Err(format!("{}: missing from the workload output", want.key)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_a_hand_built_measure_list_is_pinned() {
        let rows = vec![
            sweep_row(ProgramId::Hmmsearch, 0, (1_000, 900), 3.25),
            sweep_row(ProgramId::Predator, 7, (42, 41), 3.0),
        ];
        // Computed independently: FNV-1a 64 over each key, a 0 byte, and
        // the values as little-endian u64s.
        assert_eq!(digest_hex(&rows), "0x89cdb9c58db500b0");
        // Order, keys and values all feed the hash.
        let swapped = vec![rows[1].clone(), rows[0].clone()];
        assert_ne!(digest(&swapped), digest(&rows));
        let mut bumped = rows.clone();
        bumped[0].values[1] += 1;
        assert_ne!(digest(&bumped), digest(&rows));
    }

    #[test]
    fn empty_output_hashes_to_the_fnv_offset_basis() {
        assert_eq!(digest(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("suite"), None);
    }

    #[test]
    fn sweep_grids_are_fully_valid() {
        for (w, cells) in [(Workload::SweepCache, 16), (Workload::SweepTiming, 24)] {
            let grid = w.grid().expect("sweep workloads have grids");
            assert_eq!(grid.cells(), cells);
            for c in 0..grid.cells() {
                assert!(grid.spec(c).resolve().is_ok(), "{} cell {c}", w.name());
            }
        }
    }

    #[test]
    fn suite_traces_every_execution_and_sweeps_both_variants() {
        assert_eq!(Workload::SuiteSmall.traces().len(), 15);
        let sweep = Workload::SweepCache.traces();
        assert_eq!(sweep.len(), 12);
        for pair in sweep.chunks(2) {
            assert_eq!(
                (pair[0].0, pair[0].1, pair[1].1),
                (pair[1].0, Variant::Original, Variant::LoadTransformed)
            );
        }
    }

    #[test]
    fn sample_output_round_trips_through_json() {
        let out = SampleOut {
            setup_s: 1.25,
            wall_s: 4.5,
            cpu_s: 8.01,
            probe_s: 0.3,
            rss_bytes: 123 << 20,
            sim_ops: 99,
            cells: 23,
            traces: 12,
            hmean: vec![1.45, 1.14],
            rows: vec![sweep_row(ProgramId::Clustalw, 3, (5, 4), 3.0)],
        };
        let text = out.to_json().render();
        let parsed = bioperf_metrics::json::parse(&text).expect("parses");
        assert_eq!(SampleOut::from_json(&parsed), Ok(out));
    }

    #[test]
    fn paper_error_is_zero_at_the_paper_values() {
        let at_paper: Vec<f64> = PAPER_FIG9_PCT.iter().map(|p| 1.0 + p / 100.0).collect();
        assert!(paper_err_pp(&at_paper) < 1e-9);
        let off: Vec<f64> = at_paper.iter().map(|h| h + 0.02).collect();
        assert!((paper_err_pp(&off) - 2.0).abs() < 1e-9);
    }
}
