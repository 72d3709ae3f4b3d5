//! The factored sweep's pass structure, end to end. Every pass of a job
//! is live: the kernel feeds a keyed bank of all the job's cache-axis
//! keys and as many timing axes as fit one pass's budget of 96
//! potential lanes (keys × axes), and a job with more axes re-executes
//! its kernel for each further pass. Nothing is recorded. These tests
//! hold the factored engine to the unfactored oracle on a grid that
//! needs several passes, at one and four workers, and pin how many
//! kernel executions each grid takes.

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

/// Kernel executions of one program's two jobs on the standard grid:
/// its 32 keys leave room for ⌊96 / 32⌋ = 3 of its 18 timing axes per
/// pass, so each variant runs 6 live passes.
const STANDARD_EXECUTIONS: usize = 2 * 6;

#[test]
fn live_passes_match_the_oracle_at_any_worker_count() {
    let grid = SweepGrid::standard();
    let programs = [ProgramId::Predator, ProgramId::Hmmsearch];
    let oracle = sweep(&grid, &programs, 1, false);
    for jobs in [1, 4] {
        let factored = sweep(&grid, &programs, jobs, true);
        assert_eq!(factored.recorded, programs.len() * STANDARD_EXECUTIONS, "jobs {jobs}");
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
fn each_live_pass_executes_the_kernel_once() {
    let programs = [ProgramId::Predator];
    for (name, grid, executions) in [
        ("timing", SweepGrid::timing(), 2),
        ("sweep-cache", sweep_cache_grid(), 2),
        ("smoke", SweepGrid::smoke(), 2),
        ("standard", SweepGrid::standard(), STANDARD_EXECUTIONS),
    ] {
        let result = sweep(&grid, &programs, 1, true);
        assert_eq!(result.recorded, executions, "{name}: one execution per pass per variant");
        assert_eq!(result.computed, grid.cells(), "{name}");
        assert_eq!(result.live_traces_peak, 1, "{name}: one job's passes run one at a time");
    }
    // The oracle records each variant once and replays the recording.
    let oracle = sweep(&SweepGrid::standard(), &programs, 1, false);
    assert_eq!(oracle.recorded, 2);
}
