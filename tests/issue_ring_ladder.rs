//! The issue ring holds every live cycle: in a memory-bound regime a
//! program's cycles are exactly linear in the memory latency, and stay
//! on that line where the latency crosses multiples of 4096 — the size
//! of the ring both timing engines once claimed issue slots in, which
//! made a claim 4096 cycles before a live cycle reset that cycle's
//! count and pulled cycles below the line there.

use bioperf_branch::PredictorKind;
use bioperf_cache::Prefetcher;
use bioperf_core::{run_sweep, SweepConfig, SweepGrid};
use bioperf_kernels::{ProgramId, Scale};

/// Memory latencies of the ladder; the first and the fifth fix the line.
const LADDER: [u64; 7] = [4000, 4095, 4096, 4097, 5001, 8192, 65536];

#[test]
fn cycles_stay_linear_in_memory_latency_across_the_old_issue_ring() {
    // A 512-byte L1 and a 64 KB L2 send most loads to memory.
    let grid = SweepGrid {
        l1: vec![(8, 1)],
        l2: vec![(64, 1)],
        line: vec![64],
        lat: LADDER.iter().map(|&m| (3, 5, m)).collect(),
        pipe: vec![(4, 80)],
        pred: vec![PredictorKind::Hybrid],
        prefetch: vec![Prefetcher::None],
    };
    let programs = vec![ProgramId::Hmmsearch, ProgramId::Dnapenny];
    let cfg = SweepConfig {
        scale: Scale::Test,
        seed: 42,
        jobs: 1,
        programs: programs.clone(),
        grid,
        checkpoint: None,
        max_cells: 0,
        factor: true,
    };
    let result = run_sweep(&cfg).expect("sweep");
    assert!(result.skipped.is_empty(), "{:?}", result.skipped);
    for (p, program) in programs.iter().enumerate() {
        let measures: Vec<_> =
            result.measures[p].iter().map(|m| m.expect("every ladder cell is measured")).collect();
        let variants: [(&str, Vec<u64>); 2] = [
            ("original", measures.iter().map(|m| m.cycles_original).collect()),
            ("transformed", measures.iter().map(|m| m.cycles_transformed).collect()),
        ];
        for (variant, cycles) in variants {
            let (m0, c0) = (LADDER[0] as i128, cycles[0] as i128);
            let (m1, c1) = (LADDER[4] as i128, cycles[4] as i128);
            assert!(c1 - c0 > 1001, "{program} ({variant}) is memory-bound: {cycles:?}");
            for (&m, &c) in LADDER.iter().zip(&cycles) {
                // (c - c0) / (m - m0) == (c1 - c0) / (m1 - m0), exactly.
                assert_eq!(
                    (c as i128 - c0) * (m1 - m0),
                    (c1 - c0) * (m as i128 - m0),
                    "{program} ({variant}): {c} cycles at memory latency {m} leave the line {cycles:?}"
                );
            }
        }
    }
}
