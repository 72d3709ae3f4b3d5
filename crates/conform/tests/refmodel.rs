//! Direct reference-vs-optimized checks that predate the fuzzer: long
//! and adversarial register-file sequences (one multi-size file against
//! one [`RefRegFile`] per size; `tests/regfile_equivalence.rs` runs the
//! same comparison on real program traces), hierarchy agreement on a
//! stride ladder, and corner pipe shapes against [`RefPipeline`].

use bioperf_cache::AccessKind;
use bioperf_conform::fuzz::{case_seed, generate_stream};
use bioperf_conform::{RefHierarchy, RefPipeline, RefRegFile, RefTape};
use bioperf_isa::{here, Program};
use bioperf_pipe::{CycleSim, PlatformConfig, RegFile};
use bioperf_trace::{OpBlock, PackedStream, Tape, TraceConsumer, Tracer};

/// Drives one multi-size `RegFile` over `logical_regs` and one
/// `RefRegFile` per size with `seq`, each reference being a `touch`
/// plus an `insert` on a miss: every residency bit and every size's
/// resident count must agree after every step.
fn check_sizes(logical_regs: &[u32], seq: impl IntoIterator<Item = u64>, what: &str) {
    let mut fast = RegFile::new(logical_regs);
    let mut slow: Vec<RefRegFile> = logical_regs.iter().map(|&r| RefRegFile::new(r)).collect();
    slow.sort_by_key(RefRegFile::capacity);
    slow.dedup_by_key(|r| r.capacity());
    let caps: Vec<usize> = slow.iter().map(RefRegFile::capacity).collect();
    assert_eq!(fast.sizes(), caps, "{what}: sizes");
    for (step, v) in seq.into_iter().enumerate() {
        let mut expect = 0u32;
        for (k, file) in slow.iter_mut().enumerate() {
            let hit = file.touch(v);
            if !hit {
                file.insert(v);
            }
            expect |= (hit as u32) << k;
        }
        assert_eq!(fast.reference(v), expect, "{what}: sizes {caps:?} step {step} reference({v})");
        for (k, file) in slow.iter().enumerate() {
            assert_eq!(fast.residents(k), file.len(), "{what}: size {} residents at step {step}", caps[k]);
        }
    }
}

/// 50k references over value distributions chosen to force rapid
/// eviction churn (small dense), far-flung values (sparse), and
/// recurring values (cyclic), at capacities from degenerate to large,
/// one size at a time and all together.
#[test]
fn optimized_regfile_matches_reference_on_adversarial_sequence() {
    let seq = || {
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        (0..50_000u64).map(move |step| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match state >> 62 {
                0 => state % 16,
                1 => (state % 64) * 512,
                _ => step % 2048,
            }
        })
    };
    for regs in [3u32, 6, 34, 128] {
        check_sizes(&[regs], seq(), "single size");
    }
    check_sizes(&[3, 6, 34, 128], seq(), "four sizes");
}

/// The multi-size file's boundary cases, on sizes {2, 3} (adjacent
/// capacities) and {6, 30, 126} (the suite's platforms):
/// a list that never fills, re-references of the MRU value, an eviction
/// from every size on every step, and references at each size's
/// boundary position.
#[test]
fn multi_size_regfile_matches_per_size_references_on_edge_sequences() {
    for logical in [&[4u32, 5][..], &[8, 32, 128, 32]] {
        let largest = logical.iter().map(|&r| RegFile::capacity_of(r)).max().expect("sizes") as u64;
        // Never full: fresh values and re-references below capacity.
        let filling: Vec<u64> = (0..largest - 1).flat_map(|v| [v, v / 2]).collect();
        check_sizes(logical, filling, "not yet full");
        // The MRU value referenced again and again, between fresh values.
        let mru: Vec<u64> = (0..4 * largest).flat_map(|v| [v, v, v]).collect();
        check_sizes(logical, mru, "MRU re-reference");
        // A cycle one longer than the largest file: every step misses
        // and evicts in every size.
        let cyclic: Vec<u64> = (0..8 * (largest + 1)).map(|i| i % (largest + 1)).collect();
        check_sizes(logical, cyclic, "eviction every step");
        // Fill, then touch the value at each recency depth in turn, so
        // every boundary marker is hit from both sides.
        let mut depths: Vec<u64> = (0..largest).collect();
        for d in 0..largest {
            depths.push(largest - 1 - d);
            depths.push(d);
        }
        check_sizes(logical, depths, "boundary positions");
    }
}

/// Corner pipe shapes — ROB 1, 2, 3 and 8; fetch and issue widths 1
/// and 2; in-order and out-of-order; the platform's memory latency and
/// a 5000-cycle one — plus cores wider than a 4-bit issue-ring count
/// field could hold and a slow-fetch, 2048-entry-ROB core whose live
/// issue claims span more than the 4096-slot issue ring (so slots alias
/// and evict), each on a register-rich and a register-starved platform.
/// Every shape must time exactly like the reference, per op and through
/// packed blocks of 1, 7 and 4096 ops, on a fan-out trace (50 loads each
/// feeding 64 independent dependents) and on fuzzer streams.
#[test]
fn wide_cores_match_the_reference_pipeline_on_a_fan_out_trace() {
    let mut shapes: Vec<(u32, u32, usize, bool, Option<u64>)> = Vec::new();
    for rob in [1, 2, 3, 8] {
        for (fetch, issue) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
            for in_order in [false, true] {
                for memory in [None, Some(5000)] {
                    shapes.push((fetch, issue, rob, in_order, memory));
                }
            }
        }
    }
    shapes.extend([(32, 16, 512, false, None), (32, 24, 512, false, None)]);
    shapes.extend([(1, 1, 2048, false, Some(5000)), (1, 1, 2048, true, Some(5000))]);

    let mut tape = Tape::new(RefTape::new());
    let cells: Vec<u64> = (0..50).collect();
    for cell in &cells {
        let v = tape.int_load(here!("fan"), cell);
        for _ in 0..64 {
            tape.int_op(here!("fan"), &[v]);
        }
    }
    let mut traces = vec![("fan-out".to_string(), tape.finish().1.ops)];
    traces.extend((0..8).map(|i| (format!("fuzz stream {i}"), generate_stream(case_seed(1, i)))));

    let program = Program::new();
    for (name, ops) in &traces {
        let mut stream = PackedStream::new();
        for op in ops {
            stream.push(op);
        }
        for base in [PlatformConfig::alpha21264(), PlatformConfig::pentium4()] {
            for &(fetch, issue, rob, in_order, memory) in &shapes {
                let mut cfg = base;
                (cfg.fetch_width, cfg.issue_width, cfg.rob_size, cfg.in_order) =
                    (fetch, issue, rob, in_order);
                cfg.memory_latency = memory.unwrap_or(cfg.memory_latency);
                let what = format!("{name} on {} fetch {fetch} issue {issue} ROB {rob} \
                                    in-order {in_order} memory {}", base.name, cfg.memory_latency);
                let mut reference = RefPipeline::new(cfg);
                let mut per_op = CycleSim::new(cfg);
                for op in ops {
                    reference.consume(op, &program);
                    per_op.consume(op, &program);
                }
                let expect = reference.result();
                assert_eq!(per_op.into_result(), expect, "{what}: per op");
                for block_ops in [1, 7, 4096] {
                    assert_eq!(blocked(&stream, cfg, block_ops), expect, "{what}: {block_ops}-op blocks");
                }
            }
        }
    }
}

/// `cfg`'s result over `stream` decoded in `block_ops`-op blocks.
fn blocked(stream: &PackedStream, cfg: PlatformConfig, block_ops: usize) -> bioperf_pipe::SimResult {
    let program = Program::new();
    let mut sim = CycleSim::new(cfg);
    let mut decoder = stream.block_decoder();
    let mut block = OpBlock::with_capacity(block_ops);
    while decoder.next_block(&mut block, block_ops) > 0 {
        sim.consume_block(&block, &program);
    }
    sim.into_result()
}

/// Every platform's optimized hierarchy agrees with the reference on a
/// deterministic conflict ladder that spans L1 sets, L2 sets, and memory.
#[test]
fn optimized_hierarchy_matches_reference_on_conflict_ladder() {
    for platform in PlatformConfig::all() {
        let mut fast = platform.hierarchy();
        let mut slow = RefHierarchy::for_platform(&platform);
        let mut addr: u64 = 0x40;
        for step in 0..20_000u32 {
            let kind = if step % 3 == 0 { AccessKind::Store } else { AccessKind::Load };
            let a = fast.access_detailed(addr, kind);
            let b = slow.access_detailed(addr, kind);
            assert_eq!(a, b, "{} step {step} addr {addr:#x}", platform.name);
            // Walk a mixed-stride ladder: blocks, L1-set conflicts, and
            // an occasional fold back to the start.
            addr = match step % 7 {
                0..=2 => addr.wrapping_add(64),
                3 | 4 => addr.wrapping_add(32 * 1024),
                5 => addr.wrapping_add(4 << 20),
                _ => addr & 0xFFFF,
            };
        }
        assert_eq!(fast.stats(), slow.stats(), "{} final stats", platform.name);
    }
}
