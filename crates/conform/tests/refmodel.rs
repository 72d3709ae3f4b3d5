//! Direct reference-vs-optimized checks that predate the fuzzer: long
//! and adversarial register-file sequences (one multi-size file against
//! one [`RefRegFile`] per size; `tests/regfile_equivalence.rs` runs the
//! same comparison on real program traces), hierarchy agreement on a
//! stride ladder, and wide pipe shapes against [`RefPipeline`].

use bioperf_cache::AccessKind;
use bioperf_conform::{RefHierarchy, RefPipeline, RefRegFile};
use bioperf_isa::here;
use bioperf_pipe::{CycleSim, PlatformConfig, RegFile};
use bioperf_trace::{Tape, Tracer};

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

/// Cores wider than a 4-bit issue-ring count field could hold: 50 loads
/// each feeding 64 independent dependents saturate issue, and a 16- and
/// a 24-wide core must time it exactly like the reference.
#[test]
fn wide_cores_match_the_reference_pipeline_on_a_fan_out_trace() {
    let cells: Vec<u64> = (0..50).collect();
    for issue_width in [16u32, 24] {
        let mut cfg = PlatformConfig::alpha21264();
        cfg.fetch_width = 32;
        cfg.issue_width = issue_width;
        cfg.rob_size = 512;
        let mut tape = Tape::new((CycleSim::new(cfg), RefPipeline::new(cfg)));
        for cell in &cells {
            let v = tape.int_load(here!("fan"), cell);
            for _ in 0..64 {
                tape.int_op(here!("fan"), &[v]);
            }
        }
        let (_, (fast, slow)) = tape.finish();
        assert_eq!(fast.into_result(), slow.result(), "issue width {issue_width}");
    }
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
