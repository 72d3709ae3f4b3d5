//! The factored sweep's pass structure, end to end. A job runs one live
//! pass (the kernel feeding a keyed bank of up to 32 cache-axis keys and
//! as many timing axes as fit 32 potential lanes) and records its trace
//! only when keys × axes leave work for later passes. These tests hold
//! the factored engine to the unfactored oracle on a grid that needs
//! later passes, at one and four workers, and pin which grids record.

use bioperf_branch::PredictorKind;
use bioperf_cache::Prefetcher;
use bioperf_core::sweep::{run_sweep, SweepConfig, SweepGrid, SweepResult};
use bioperf_kernels::{ProgramId, Scale};

fn sweep(grid: &SweepGrid, programs: &[ProgramId], jobs: usize, factor: bool) -> SweepResult {
    run_sweep(&SweepConfig {
        scale: Scale::Test,
        seed: 42,
        jobs,
        programs: programs.to_vec(),
        grid: grid.clone(),
        checkpoint: None,
        max_cells: 0,
        factor,
    })
    .expect("sweep runs")
}

/// The benchmark's sweep-cache grid: 16 cache-axis keys, one timing
/// axis.
fn sweep_cache_grid() -> SweepGrid {
    SweepGrid {
        l1: vec![(32, 2), (64, 4)],
        l2: vec![(1024, 2), (8192, 2)],
        line: vec![32, 64],
        lat: vec![(3, 5, 72)],
        pipe: vec![(4, 80)],
        pred: vec![PredictorKind::Hybrid],
        prefetch: vec![Prefetcher::None, Prefetcher::NextLine],
    }
}

#[test]
fn later_passes_match_the_oracle_at_any_worker_count() {
    // 16 keys × 4 timing axes: the live pass times two axes, a recorded
    // later pass the other two.
    let grid = SweepGrid::smoke();
    let programs = [ProgramId::Predator, ProgramId::Hmmsearch];
    let oracle = sweep(&grid, &programs, 1, false);
    for jobs in [1, 4] {
        let factored = sweep(&grid, &programs, jobs, true);
        assert_eq!(factored.recorded_jobs, 4, "jobs {jobs}: every job needs a later pass");
        assert_eq!(factored.recorded, 4, "jobs {jobs}");
        for (p, program) in programs.iter().enumerate() {
            for (cell, (got, want)) in factored.measures[p].iter().zip(&oracle.measures[p]).enumerate() {
                assert!(got.is_some(), "{program} cell {cell} measured");
                assert_eq!(got, want, "{program} cell {cell} at {jobs} workers");
            }
        }
        assert_eq!(factored.to_json().render(), oracle.to_json().render());
    }
}

#[test]
fn only_jobs_with_later_passes_record() {
    let programs = [ProgramId::Predator];
    for (name, grid, recorded_jobs) in [
        ("timing", SweepGrid::timing(), 0),
        ("sweep-cache", sweep_cache_grid(), 0),
        ("standard", SweepGrid::standard(), 2),
    ] {
        let result = sweep(&grid, &programs, 1, true);
        assert_eq!(result.recorded_jobs, recorded_jobs, "{name}");
        assert_eq!(result.recorded, 2, "{name}: both variants execute once");
        assert_eq!(result.computed, grid.cells(), "{name}");
    }
    // The oracle records every job.
    let oracle = sweep(&SweepGrid::timing(), &programs, 1, false);
    assert_eq!(oracle.recorded_jobs, 2);
}
