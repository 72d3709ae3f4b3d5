//! Substrate throughput benchmarks: how fast the tracing layer, cache
//! hierarchy, branch profiler, and pipeline model consume micro-ops.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

use bioperf_branch::BranchProfiler;
use bioperf_cache::{alpha21264_hierarchy, AccessKind};
use bioperf_core::Characterizer;
use bioperf_isa::{MicroOp, Program, StaticId};
use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_pipe::{CycleSim, PlatformConfig, RegFile};
use bioperf_trace::{consumers::InstrMix, Recorder, Recording, Tape, TraceConsumer};

const N: u64 = 100_000;

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_hierarchy");
    group.throughput(Throughput::Elements(N));
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    group.bench_function("sequential_loads", |b| {
        b.iter(|| {
            let mut h = alpha21264_hierarchy();
            let mut sum = 0u64;
            for i in 0..N {
                sum += h.access(i * 8 % (1 << 20), AccessKind::Load);
            }
            sum
        })
    });
    group.finish();
}

fn bench_branch(c: &mut Criterion) {
    let mut group = c.benchmark_group("branch_profiler");
    group.throughput(Throughput::Elements(N));
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    group.bench_function("biased_branches", |b| {
        b.iter(|| {
            let mut p = BranchProfiler::new();
            let sid = StaticId::from_raw(0);
            let mut correct = 0u64;
            for i in 0..N {
                correct += p.observe(sid, i % 7 != 0) as u64;
            }
            correct
        })
    });
    group.finish();
}

fn bench_full_stacks(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_consumers");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    group.bench_function("hmmsearch_instr_mix", |b| {
        b.iter(|| {
            let mut tape = Tape::new(InstrMix::default());
            registry::run(&mut tape, ProgramId::Hmmsearch, Variant::Original, Scale::Test, 1);
            tape.finish().1
        })
    });
    group.bench_function("hmmsearch_characterizer", |b| {
        b.iter(|| {
            let mut tape = Tape::new(Characterizer::new());
            registry::run(&mut tape, ProgramId::Hmmsearch, Variant::Original, Scale::Test, 1);
            tape.finish().0.len()
        })
    });
    group.bench_function("hmmsearch_cycle_sim_alpha", |b| {
        b.iter(|| {
            let mut tape = Tape::new(CycleSim::new(PlatformConfig::alpha21264()));
            registry::run(&mut tape, ProgramId::Hmmsearch, Variant::Original, Scale::Test, 1);
            let (_, sim) = tape.finish();
            sim.into_result().cycles
        })
    });
    group.finish();
}

/// The pre-rewrite scanned register file, kept here so the bench can
/// report the LRU rewrite's win without resurrecting the old simulator.
struct VecRegFile {
    slots: Vec<u64>,
    capacity: usize,
}

impl VecRegFile {
    fn new(logical_regs: u32) -> Self {
        let capacity = (logical_regs.saturating_sub(2)).max(2) as usize;
        Self { slots: Vec::with_capacity(capacity), capacity }
    }

    fn touch(&mut self, v: u64) -> bool {
        if let Some(pos) = self.slots.iter().position(|&x| x == v) {
            let val = self.slots.remove(pos);
            self.slots.push(val);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, v: u64) -> Option<u64> {
        if self.touch(v) {
            return None;
        }
        let evicted =
            if self.slots.len() == self.capacity { Some(self.slots.remove(0)) } else { None };
        self.slots.push(v);
        evicted
    }
}

/// A consumer that stores the stream as unpacked `MicroOp`s — the
/// representation `Recorder` used before the packed encoding.
#[derive(Default)]
struct UnpackedRecorder {
    ops: Vec<MicroOp>,
}

impl TraceConsumer for UnpackedRecorder {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        self.ops.push(*op);
    }
}

fn hmmsearch_recording() -> Recording {
    let mut tape = Tape::new(Recorder::new());
    registry::run(&mut tape, ProgramId::Hmmsearch, Variant::Original, Scale::Test, 1);
    let (program, rec) = tape.finish();
    rec.into_recording(program)
}

fn bench_replay_encoding(c: &mut Criterion) {
    // Packed-decode replay vs walking a materialized Vec<MicroOp>: same
    // consumer, same ops, different memory traffic per op.
    let packed = hmmsearch_recording();
    let mut tape = Tape::new(UnpackedRecorder::default());
    registry::run(&mut tape, ProgramId::Hmmsearch, Variant::Original, Scale::Test, 1);
    let (program, unpacked) = tape.finish();

    let mut group = c.benchmark_group("replay_encoding");
    group.throughput(Throughput::Elements(packed.len() as u64));
    group.sample_size(20).measurement_time(Duration::from_secs(3));
    group.bench_function("packed_replay_alpha", |b| {
        b.iter(|| {
            let mut sim = CycleSim::new(PlatformConfig::alpha21264());
            packed.replay(&mut sim);
            sim.into_result().cycles
        })
    });
    group.bench_function("unpacked_replay_alpha", |b| {
        b.iter(|| {
            let mut sim = CycleSim::new(PlatformConfig::alpha21264());
            for op in &unpacked.ops {
                sim.consume(op, &program);
            }
            sim.finish(&program);
            sim.into_result().cycles
        })
    });
    group.finish();
}

fn bench_regfile(c: &mut Criterion) {
    // The simulator's per-operand access pattern on a real trace, on the
    // 126-entry Itanium 2 file where the old O(n) scan hurt most.
    let recording = hmmsearch_recording();
    let accesses: Vec<u64> = recording
        .iter()
        .flat_map(|op| {
            op.sources().into_iter().map(|v| v.0).chain(op.dst.map(|d| d.0)).collect::<Vec<_>>()
        })
        .collect();
    let logical_regs = PlatformConfig::itanium2().logical_regs;

    let mut group = c.benchmark_group("regfile_itanium2");
    group.throughput(Throughput::Elements(accesses.len() as u64));
    group.sample_size(20).measurement_time(Duration::from_secs(3));
    group.bench_function("linked_lru", |b| {
        b.iter(|| {
            let mut rf = RegFile::new(&[logical_regs]);
            let mut misses = 0u64;
            for &v in &accesses {
                misses += (rf.reference(v) == 0) as u64;
            }
            misses
        })
    });
    group.bench_function("scanned_vec", |b| {
        b.iter(|| {
            let mut rf = VecRegFile::new(logical_regs);
            let mut misses = 0u64;
            for &v in &accesses {
                if !rf.touch(v) {
                    misses += 1;
                    rf.insert(v);
                }
            }
            misses
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_branch,
    bench_full_stacks,
    bench_replay_encoding,
    bench_regfile
);
criterion_main!(benches);
