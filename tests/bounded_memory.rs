//! The sweep holds at most one recording per worker: each pool job
//! records its (program, variant) trace, runs the program's cells over
//! it and drops it before its worker claims the next job. (The suite's
//! live-trace peak is pinned in `suite_determinism.rs`, on the runs that
//! test already makes.)

use bioperf_core::{run_sweep, SweepConfig, SweepGrid};
use bioperf_kernels::Scale;

#[test]
fn sweep_holds_at_most_one_recording_per_worker() {
    // Four timing cells over all six transformed programs: 12 jobs.
    let mut grid = SweepGrid::timing();
    grid.lat.truncate(1);
    grid.pipe.truncate(2);
    let cfg = |jobs| SweepConfig {
        scale: Scale::Test,
        seed: 42,
        jobs,
        programs: Vec::new(),
        grid: grid.clone(),
        checkpoint: None,
        max_cells: 0,
        factor: true,
    };
    let one = run_sweep(&cfg(1)).expect("sweep");
    assert_eq!(one.recorded, 12);
    assert_eq!(one.live_traces_peak, 1, "one worker holds one recording at a time");
    let three = run_sweep(&cfg(3)).expect("sweep");
    assert_eq!(three.recorded, 12);
    assert!((1..=3).contains(&three.live_traces_peak), "{} live recordings", three.live_traces_peak);
    assert_eq!(one.to_json().render(), three.to_json().render());
}
