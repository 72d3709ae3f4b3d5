//! The traced run: single-threaded calls into each layer's public
//! functions on the workload's own traces, timed as spans, giving the
//! per-layer metrics and the exact work counters.
//!
//! The workload's wave 2 is replayed from public calls: the suite's
//! `CycleSim` platform banks, or the sweep's factored engine (each
//! distinct geometry through `CachePassSim` banks of 8, cells grouped by
//! timing axis and annotation-stream content, each group through
//! `TimingBank` banks of 8). Its output must equal the workload's own, so
//! the time is attributed to the same work. Micro-benchmarks then isolate
//! one layer each on the workload's hmmsearch original trace. A layer the
//! workload never calls reports 0.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bioperf_branch::{DynPredictor, PredictorKind};
use bioperf_cache::{AnnotationStream, Hierarchy, HierarchyStats};
use bioperf_core::{Characterizer, EvalCell, EvalMatrix, SweepGrid};
use bioperf_isa::{MicroOp, OpKind, Program, StaticId};
use bioperf_kernels::{ProgramId, Variant};
use bioperf_metrics::Json;
use bioperf_pipe::{CachePassSim, CycleSim, PlatformConfig, SimResult, TimingBank};
use bioperf_trace::{segment_recording, OpBlock, Recording, SegmentedRecording, TraceConsumer};

use crate::workload::{self, Row, Workload, SEGMENT_OPS};

/// Repetitions of each hmmsearch micro-benchmark; the median is
/// reported. The whole-workload decode floors run once.
const REPS: usize = 3;

/// Members or lanes per bank, as in the sweep engine.
const BANK: usize = 8;

/// In-memory spans: name, start, end and the span that caused it.
pub(crate) struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

impl Spans {
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed().as_secs_f64();
        span.end - span.start
    }

    /// Total duration of every span called `name`.
    fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// One line per span name: count, total seconds, and self seconds
    /// (duration minus the part its child spans cover).
    pub(crate) fn render(&self) -> String {
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let mut out = format!(
            "{:<22} {:>6} {:>9} {:>9}\n",
            "span", "count", "total_s", "self_s"
        );
        for name in names {
            let (mut count, mut total, mut own) = (0, 0.0, 0.0);
            for (i, s) in self
                .spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
            {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| c.end - c.start)
                    .sum();
                count += 1;
                total += s.end - s.start;
                own += s.end - s.start - children;
            }
            out.push_str(&format!("{name:<22} {count:>6} {total:>9.3} {own:>9.3}\n"));
        }
        out
    }
}

/// Exact work counts of the workload's wave 2 as replayed here; the cell
/// and trace counts come from the workload's own run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct Counters {
    pub(crate) trace_ops: u64,
    pub(crate) cache_accesses: u64,
    pub(crate) spill_accesses: u64,
    pub(crate) cells: u64,
    pub(crate) traces_recorded: u64,
    pub(crate) hierarchy_sims: u64,
    pub(crate) distinct_streams: u64,
    pub(crate) timing_lanes: u64,
}

impl Counters {
    /// Each counter's per-layer metric name and value, in the order
    /// `reference.json` pins them.
    pub(crate) fn entries(&self) -> [(&'static str, u64); 8] {
        [
            ("trace.ops", self.trace_ops),
            ("cache.accesses", self.cache_accesses),
            ("pipe.spill_accesses", self.spill_accesses),
            ("core.cells", self.cells),
            ("core.traces_recorded", self.traces_recorded),
            ("core.hierarchy_sims", self.hierarchy_sims),
            ("core.distinct_streams", self.distinct_streams),
            ("core.timing_lanes", self.timing_lanes),
        ]
    }

    /// The counter section compared byte for byte with the pinned one.
    pub(crate) fn to_json(&self) -> Json {
        Json::Object(
            self.entries()
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::U64(v)))
                .collect(),
        )
    }

    fn add_sim(&mut self, r: &SimResult) {
        self.cache_accesses += r.cache.l1.load_accesses + r.cache.l1.store_accesses;
        self.spill_accesses += r.spill_stores + r.spill_reloads;
    }
}

/// The traced pass's state: spans under one root, and the metrics and
/// counters measured so far.
struct Pass {
    spans: Spans,
    root: usize,
    metrics: Vec<(&'static str, f64)>,
    counters: Counters,
}

impl Pass {
    /// Runs `f` inside a span under the root; returns its output and the
    /// span's seconds.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.spans.open(name, Some(self.root));
        let out = f();
        (out, self.spans.close(id))
    }

    /// Records the busy seconds of every `span` as the metric `name`.
    fn busy(&mut self, span: &str, name: &'static str) -> f64 {
        let secs = self.spans.busy(span);
        self.metrics.push((name, secs));
        secs
    }
}

/// Everything the traced run measured.
pub(crate) struct Traced {
    /// Timed per-layer metrics; the counters and `layers.cpu_coverage`
    /// are added by the caller.
    pub(crate) metrics: Vec<(&'static str, f64)>,
    pub(crate) counters: Counters,
    /// Busy seconds of the layers on the workload's path.
    pub(crate) busy_s: f64,
    /// The replayed wave's science output, comparable with a sample's.
    pub(crate) rows: Vec<Row>,
    pub(crate) spans: Spans,
}

/// Consumes decoded blocks and does nothing else: replaying into it
/// times the decoder alone.
struct NullSink;

impl TraceConsumer for NullSink {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        black_box(op);
    }

    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        black_box(block.len());
    }
}

/// Collects a trace's demand-access and branch columns.
#[derive(Default)]
struct Columns {
    addrs: Vec<u64>,
    loads: Vec<bool>,
    sids: Vec<StaticId>,
    taken: Vec<bool>,
}

impl TraceConsumer for Columns {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        if let Some(addr) = op.addr {
            self.addrs.push(addr);
            self.loads.push(op.kind.is_load());
        }
        if op.kind == OpKind::CondBranch {
            self.sids.push(op.sid);
            self.taken.push(op.taken);
        }
    }

    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        self.addrs.extend_from_slice(block.mem_addrs());
        self.loads.extend_from_slice(block.mem_loads());
        self.sids.extend_from_slice(block.branch_sids());
        self.taken.extend_from_slice(block.branch_taken());
    }
}

fn ns_per(secs: f64, units: usize) -> f64 {
    secs * 1e9 / units.max(1) as f64
}

/// Median over [`REPS`] runs of `f`.
fn micro(mut f: impl FnMut() -> f64) -> f64 {
    let mut xs: Vec<f64> = (0..REPS).map(|_| f()).collect();
    xs.sort_by(f64::total_cmp);
    xs[REPS / 2]
}

/// A workload trace as the traced run holds it.
struct Trace {
    program: ProgramId,
    variant: Variant,
    rec: Recording,
    /// The same trace spilled to segments (spill workload only).
    segmented: Option<SegmentedRecording>,
}

/// Index of the hmmsearch original trace, which every workload records.
fn hmmsearch(traces: &[Trace]) -> usize {
    traces
        .iter()
        .position(|t| t.program == ProgramId::Hmmsearch && t.variant == Variant::Original)
        .expect("every workload traces hmmsearch")
}

/// What replaying the workload's wave 2 produced.
struct Wave {
    rows: Vec<Row>,
    /// Busy seconds of the wave's layers.
    busy_s: f64,
    /// Seconds and (op × configuration) pairs of the wave's simulation
    /// engine, the base of `pipe.decode_ceiling_frac`.
    engine_s: f64,
    engine_pairs: usize,
}

/// Runs the traced pass for `w` at `seed`; segment files go under `tmp`.
pub(crate) fn run_trace(w: Workload, seed: u64, tmp: &Path) -> Result<Traced, String> {
    let mut spans = Spans {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let root = spans.open("trace", None);
    let mut pass = Pass {
        spans,
        root,
        metrics: Vec::new(),
        counters: Counters::default(),
    };

    let mut traces = Vec::new();
    for (program, variant) in w.traces() {
        let (rec, _) = pass.time("kernels.record", || {
            workload::record(program, variant, seed)
        });
        traces.push(Trace {
            program,
            variant,
            rec: rec?,
            segmented: None,
        });
    }
    let ops: usize = traces.iter().map(|t| t.rec.len()).sum();
    pass.counters.trace_ops = ops as u64;
    let record_s = pass.busy("kernels.record", "kernels.record_s");
    pass.metrics
        .push(("kernels.record_ns_per_op", ns_per(record_s, ops)));
    let bytes: usize = traces.iter().map(|t| t.rec.payload_bytes()).sum();
    pass.metrics
        .push(("trace.bytes_per_op", bytes as f64 / ops.max(1) as f64));

    let wave = match w.grid() {
        None => suite_wave(w, &mut pass, &mut traces, tmp)?,
        Some(grid) => sweep_wave(&grid, &mut pass, &traces)?,
    };

    // The decode floor under every workload: all its traces, once, into a
    // consumer that does nothing.
    let (_, secs) = pass.time("micro.decode", || {
        for t in &traces {
            t.rec.replay(&mut NullSink);
        }
    });
    let decode_ns = ns_per(secs, ops);
    pass.metrics.push(("trace.decode_ns_per_op", decode_ns));
    let engine_ns = ns_per(wave.engine_s, wave.engine_pairs);
    pass.metrics
        .push(("pipe.decode_ceiling_frac", decode_ns / engine_ns));
    if w.spills() {
        let spilled: Vec<&SegmentedRecording> =
            traces.iter().filter_map(|t| t.segmented.as_ref()).collect();
        let (replayed, secs) = pass.time("micro.segment_replay", || {
            spilled.iter().try_for_each(|s| s.replay(&mut NullSink))
        });
        replayed.map_err(|e| e.to_string())?;
        let spilled_ops = spilled.iter().map(|s| s.len()).sum();
        pass.metrics
            .push(("trace.segment_replay_ns_per_op", ns_per(secs, spilled_ops)));
    }

    let hmm = &traces[hmmsearch(&traces)].rec;
    let mut cols = Columns::default();
    hmm.replay(&mut cols);
    let hierarchies: Vec<Hierarchy> = match w.grid() {
        None => PlatformConfig::all()
            .iter()
            .map(PlatformConfig::hierarchy)
            .collect(),
        Some(grid) => geometries(&grid)?.0,
    };
    let access_ns = micro(|| {
        let mut total = 0.0;
        for h in &hierarchies {
            let mut h = h.clone();
            let (_, secs) = pass.time("micro.cache_access", || {
                h.access_block(&cols.addrs, &cols.loads)
            });
            black_box(h.stats());
            total += ns_per(secs, cols.addrs.len());
        }
        total / hierarchies.len() as f64
    });
    pass.metrics.push(("cache.access_ns", access_ns));
    for (name, kind) in [
        ("branch.observe_ns.hybrid", PredictorKind::Hybrid),
        ("branch.observe_ns.aliased", PredictorKind::Aliased),
        ("branch.observe_ns.bimodal", PredictorKind::Bimodal),
    ] {
        let ns = micro(|| {
            let mut p = DynPredictor::new(kind);
            let (correct, secs) = pass.time("micro.branch", || {
                cols.sids
                    .iter()
                    .zip(&cols.taken)
                    .filter(|(&s, &t)| p.observe(s, t))
                    .count()
            });
            black_box(correct);
            ns_per(secs, cols.sids.len())
        });
        pass.metrics.push((name, ns));
    }

    pass.spans.close(root);
    Ok(Traced {
        metrics: pass.metrics,
        counters: pass.counters,
        busy_s: record_s + wave.busy_s,
        rows: wave.rows,
        spans: pass.spans,
    })
}

/// The suite's wave 2 after recording: characterize the nine original
/// traces, spill the twelve replayed traces (spill workload), and replay
/// each through a bank of its applicable platform models.
fn suite_wave(
    w: Workload,
    pass: &mut Pass,
    traces: &mut [Trace],
    tmp: &Path,
) -> Result<Wave, String> {
    for t in traces.iter().filter(|t| t.variant == Variant::Original) {
        pass.time("core.characterize", || {
            let mut characterizer = Characterizer::new();
            t.rec.replay(&mut characterizer);
            black_box(characterizer.into_report(t.rec.program().clone(), 10));
        });
    }
    let characterize_s = pass.busy("core.characterize", "core.characterize_s");

    let mut write_s = 0.0;
    if w.spills() {
        let mut spilled_ops = 0;
        for t in traces.iter_mut().filter(|t| t.program.is_transformable()) {
            let dir = tmp.join(format!("trace-{}-{}", t.program.name(), t.variant.label()));
            let (seg, _) = pass.time("trace.segment_write", || {
                segment_recording(&t.rec, &dir, SEGMENT_OPS)
            });
            let seg = seg.map_err(|e| e.to_string())?;
            spilled_ops += seg.len();
            t.segmented = Some(seg);
        }
        write_s = pass.spans.busy("trace.segment_write");
        pass.metrics.push((
            "trace.segment_write_ns_per_op",
            ns_per(write_s, spilled_ops),
        ));
    }

    let mut cells = Vec::new();
    let mut engine_pairs = 0;
    for program in ProgramId::TRANSFORMED {
        let platforms: Vec<PlatformConfig> = PlatformConfig::all()
            .into_iter()
            .filter(|p| EvalMatrix::cell_applicable(program, p.name))
            .collect();
        let mut results: Vec<Vec<SimResult>> = Vec::new();
        for variant in Variant::ALL {
            let t = traces
                .iter()
                .find(|t| t.program == program && t.variant == variant)
                .expect("the suite traces both variants of every transformable program");
            let mut bank: Vec<CycleSim> = platforms.iter().map(|&p| CycleSim::new(p)).collect();
            let (replayed, _) = pass.time("pipe.cyclesim", || match &t.segmented {
                Some(seg) => seg.replay_bank(&mut bank).map_err(|e| e.to_string()),
                None => {
                    t.rec.replay_bank(&mut bank);
                    Ok(())
                }
            });
            replayed?;
            engine_pairs += t.rec.len() * bank.len();
            results.push(bank.into_iter().map(CycleSim::into_result).collect());
        }
        for (k, p) in platforms.iter().enumerate() {
            cells.push(EvalCell {
                program,
                platform: p.name,
                original: results[0][k],
                transformed: results[1][k],
            });
        }
    }
    for cell in &cells {
        pass.counters.add_sim(&cell.original);
        pass.counters.add_sim(&cell.transformed);
        pass.counters.hierarchy_sims += 2;
        pass.counters.timing_lanes += 2;
    }
    let cyclesim_s = pass.busy("pipe.cyclesim", "pipe.cyclesim_s");
    let eval = EvalMatrix { cells };
    let paper_err = workload::paper_err_pp(&workload::harmonic_means(&eval));
    pass.metrics.push(("core.paper_err_pp", paper_err));

    let hmm = &traces[hmmsearch(traces)].rec;
    let names = [
        "pipe.cyclesim_ns_per_op.alpha21264",
        "pipe.cyclesim_ns_per_op.ppc-g5",
        "pipe.cyclesim_ns_per_op.pentium4",
        "pipe.cyclesim_ns_per_op.itanium2",
    ];
    for (name, platform) in names.into_iter().zip(PlatformConfig::all()) {
        let ns = micro(|| {
            let mut sim = CycleSim::new(platform);
            let (_, secs) = pass.time("micro.cyclesim", || hmm.replay(&mut sim));
            black_box(sim.into_result());
            ns_per(secs, hmm.len())
        });
        pass.metrics.push((name, ns));
    }
    let bank_ns = micro(|| {
        let mut bank: Vec<CycleSim> = PlatformConfig::all()
            .into_iter()
            .map(CycleSim::new)
            .collect();
        let (_, secs) = pass.time("micro.cyclesim", || hmm.replay_bank(&mut bank));
        black_box(bank);
        ns_per(secs, hmm.len())
    });
    pass.metrics.push(("pipe.cyclesim_bank_ns_per_op", bank_ns));

    Ok(Wave {
        rows: workload::suite_rows(&eval),
        busy_s: characterize_s + write_s + cyclesim_s,
        engine_s: cyclesim_s,
        engine_pairs,
    })
}

/// The grid's distinct cache-axis configurations (geometry, line size,
/// prefetcher) as cold hierarchies in first-seen cell order, and each
/// cell's index among them.
fn geometries(grid: &SweepGrid) -> Result<(Vec<Hierarchy>, Vec<usize>), String> {
    let mut keys = Vec::new();
    let mut hierarchies = Vec::new();
    let mut cell_key = Vec::new();
    for c in 0..grid.cells() {
        let spec = grid.spec(c);
        let rc = spec.resolve().map_err(|e| format!("cell {c}: {e}"))?;
        let key = (spec.l1, spec.l2, spec.line, spec.prefetch);
        let k = keys.iter().position(|&x| x == key).unwrap_or_else(|| {
            keys.push(key);
            let h = Hierarchy::new(rc.platform.l1, rc.platform.l2, rc.lat);
            hierarchies.push(h.with_prefetcher(rc.prefetch));
            keys.len() - 1
        });
        cell_key.push(k);
    }
    Ok((hierarchies, cell_key))
}

/// The sweep's factored wave 2 after recording. `traces` holds each
/// program's original then transformed trace, in
/// `ProgramId::TRANSFORMED` order, as `run_sweep` enumerates them.
fn sweep_wave(grid: &SweepGrid, pass: &mut Pass, traces: &[Trace]) -> Result<Wave, String> {
    let resolved = (0..grid.cells())
        .map(|c| grid.spec(c).resolve().map_err(|e| format!("cell {c}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let (hierarchies, cell_key) = geometries(grid)?;
    // Every grid cell keeps the base platform's register file.
    let regs = resolved[0].platform.logical_regs;
    let key_ids: Vec<usize> = (0..hierarchies.len()).collect();

    // Cache pass: per trace, the distinct geometries in banks of 8.
    let mut store: Vec<Vec<(HierarchyStats, Arc<AnnotationStream>)>> = Vec::new();
    let mut ann_bytes = 0;
    for t in traces {
        let mut per_key = Vec::new();
        for chunk in key_ids.chunks(BANK) {
            let members = chunk.iter().map(|&k| hierarchies[k].clone()).collect();
            let mut sim = CachePassSim::new(regs, members);
            pass.time("pipe.cache_pass", || {
                t.rec.replay_bank(std::slice::from_mut(&mut sim))
            });
            pass.counters.cache_accesses += (sim.accesses() * chunk.len()) as u64;
            pass.counters.hierarchy_sims += chunk.len() as u64;
            per_key.extend(
                sim.finish_bank()
                    .into_iter()
                    .map(|(stats, ann)| (stats, Arc::new(ann))),
            );
        }
        let mut distinct: Vec<(u64, u64)> =
            per_key.iter().map(|(_, ann)| ann.content_key()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        pass.counters.distinct_streams += distinct.len() as u64;
        ann_bytes += per_key.iter().map(|(_, ann)| ann.byte_len()).sum::<usize>();
        store.push(per_key);
    }
    let cache_pass_s = pass.busy("pipe.cache_pass", "pipe.cache_pass_s");
    pass.metrics
        .push(("cache.ann_mib", ann_bytes as f64 / f64::from(1 << 20)));

    // Timing pass, memoized: cells with the same timing axis and the same
    // pair of stream contents share one lane.
    type TimingKey = (
        (u64, u64, u64),
        (u32, usize),
        PredictorKind,
        ((u64, u64), (u64, u64)),
    );
    let mut rows = Vec::new();
    let mut engine_pairs = 0;
    for (p, pair) in traces.chunks(2).enumerate() {
        let (orig, trans) = (&store[2 * p], &store[2 * p + 1]);
        let mut keys: Vec<TimingKey> = Vec::new();
        let mut lanes: Vec<usize> = Vec::new();
        let mut cell_group = Vec::new();
        for (c, &k) in cell_key.iter().enumerate() {
            let spec = grid.spec(c);
            let streams = (orig[k].1.content_key(), trans[k].1.content_key());
            let key = (spec.lat, spec.pipe, spec.pred, streams);
            let g = keys.iter().position(|x| *x == key).unwrap_or_else(|| {
                keys.push(key);
                lanes.push(c);
                keys.len() - 1
            });
            cell_group.push(g);
        }
        let mut group_cycles = Vec::new();
        for chunk in lanes.chunks(BANK) {
            let base = resolved[chunk[0]].platform;
            let mut ob = TimingBank::new(base.logical_regs, base.if_conversion);
            let mut tb = TimingBank::new(base.logical_regs, base.if_conversion);
            for &c in chunk {
                let rc = &resolved[c];
                ob.push_lane(&rc.platform, rc.pred, Arc::clone(&orig[cell_key[c]].1));
                tb.push_lane(&rc.platform, rc.pred, Arc::clone(&trans[cell_key[c]].1));
            }
            pass.time("pipe.timing_pass", || {
                pair[0].rec.replay_bank(std::slice::from_mut(&mut ob));
                pair[1].rec.replay_bank(std::slice::from_mut(&mut tb));
            });
            engine_pairs += (pair[0].rec.len() + pair[1].rec.len()) * chunk.len();
            pass.counters.timing_lanes += 2 * chunk.len() as u64;
            for (o, t) in ob.into_results().iter().zip(tb.into_results()) {
                pass.counters.spill_accesses +=
                    o.spill_stores + o.spill_reloads + t.spill_stores + t.spill_reloads;
                group_cycles.push((o.cycles, t.cycles));
            }
        }
        for (c, &g) in cell_group.iter().enumerate() {
            let stats = &orig[cell_key[c]].0;
            let amat = resolved[c]
                .lat
                .amat(stats.l1.load_miss_ratio(), stats.l2.load_miss_ratio());
            rows.push(workload::sweep_row(
                pair[0].program,
                c,
                group_cycles[g],
                amat,
            ));
        }
    }
    let timing_pass_s = pass.busy("pipe.timing_pass", "pipe.timing_pass_s");

    // One layer at a time on hmmsearch: a bank of 1 against a bank of 8
    // separates the per-decode cost from the per-member cost.
    let h = hmmsearch(traces);
    let hmm = &traces[h].rec;
    let mut cache_pass_ns = |members: usize| {
        micro(|| {
            let bank = (0..members)
                .map(|i| hierarchies[i % hierarchies.len()].clone())
                .collect();
            let mut sim = CachePassSim::new(regs, bank);
            let (_, secs) = pass.time("micro.cache_pass", || {
                hmm.replay_bank(std::slice::from_mut(&mut sim))
            });
            black_box(sim.finish_bank());
            ns_per(secs, hmm.len())
        })
    };
    let (one, eight) = (cache_pass_ns(1), cache_pass_ns(BANK));
    pass.metrics.push(("pipe.cache_pass_ns_per_op", one));
    pass.metrics.push((
        "pipe.cache_member_ns_per_op",
        (eight - one) / (BANK - 1) as f64,
    ));
    let mut timing_bank_ns = |lanes: usize| {
        micro(|| {
            let base = resolved[0].platform;
            let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
            for i in 0..lanes {
                let rc = &resolved[i % resolved.len()];
                let stream = Arc::clone(&store[h][cell_key[i % resolved.len()]].1);
                bank.push_lane(&rc.platform, rc.pred, stream);
            }
            let (_, secs) = pass.time("micro.timing_bank", || {
                hmm.replay_bank(std::slice::from_mut(&mut bank))
            });
            black_box(bank.into_results());
            ns_per(secs, hmm.len())
        })
    };
    let (one, eight) = (timing_bank_ns(1), timing_bank_ns(BANK));
    pass.metrics.push(("pipe.timing_bank_ns_per_op", one));
    pass.metrics.push((
        "pipe.timing_lane_ns_per_op",
        (eight - one) / (BANK - 1) as f64,
    ));

    Ok(Wave {
        rows,
        busy_s: cache_pass_s + timing_pass_s,
        engine_s: timing_pass_s,
        engine_pairs,
    })
}
