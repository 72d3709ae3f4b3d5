//! Disk-spill test for the factored sweep's annotation store. Setting
//! `BIOPERF_SWEEP_ANN_BYTES` below the estimated annotation footprint
//! forces every cache-pass stream onto disk; the timing pass must load
//! the spilled streams back and produce output byte-identical to the
//! all-in-memory run, and the spill directory must be gone afterwards —
//! also when a stream cannot be written and the sweep fails.
//! Two pipe shapes put two lanes on every stream, so each timing job
//! loads a spilled stream once and its lanes share it.
//!
//! This lives in its own integration-test binary because the budget is
//! read from a process-global environment variable: any other test
//! sharing the process would race with `set_var`.

use bioperf_branch::PredictorKind;
use bioperf_cache::Prefetcher;
use bioperf_core::sweep::{run_sweep, SweepConfig, SweepError, SweepGrid, ANN_SPILL_ENV};
use bioperf_kernels::{ProgramId, Scale};

fn cfg() -> SweepConfig {
    SweepConfig {
        scale: Scale::Test,
        seed: 42,
        jobs: 2,
        programs: vec![ProgramId::Predator],
        grid: SweepGrid {
            l1: vec![(32, 2), (64, 2)],
            l2: vec![(4096, 1)],
            line: vec![64],
            lat: vec![(3, 5, 72)],
            pipe: vec![(4, 80), (2, 32)],
            pred: vec![PredictorKind::Hybrid],
            prefetch: vec![Prefetcher::None, Prefetcher::NextLine],
        },
        checkpoint: None,
        max_cells: 0,
        factor: true,
    }
}

#[test]
fn spilled_annotations_reproduce_the_in_memory_sweep() {
    let in_memory = run_sweep(&cfg()).expect("in-memory factored sweep");
    assert!(in_memory.complete);

    // A 1-byte budget is below any real annotation footprint, so every
    // stream spills. `set_var` is safe here: this binary's only test.
    std::env::set_var(ANN_SPILL_ENV, "1");
    let spilled = run_sweep(&cfg()).expect("spilled factored sweep");

    // A directory squatting on the first stream's file name makes its
    // save fail: the sweep reports the spill error and still removes its
    // spill directory, with the streams other jobs wrote into it.
    let pid = std::process::id();
    let dir = std::env::temp_dir()
        .join(format!("bioperf-sweep-ann-{:016x}-{pid}", in_memory.run_hash));
    std::fs::create_dir_all(dir.join("p0-v0-k0.ann")).expect("blocking dir");
    let failed = run_sweep(&cfg());
    let dir_survived = dir.exists();
    let _ = std::fs::remove_dir_all(&dir);
    std::env::remove_var(ANN_SPILL_ENV);
    assert!(matches!(failed, Err(SweepError::AnnotationSpill(_))), "{failed:?}");
    assert!(!dir_survived, "failed sweep left {} behind", dir.display());

    assert_eq!(spilled.measures, in_memory.measures);
    assert_eq!(
        spilled.to_json().render_pretty(),
        in_memory.to_json().render_pretty()
    );

    // The spill directory is temporary: nothing under the temp dir may
    // survive the sweep that created it.
    let leftovers: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("bioperf-sweep-ann-") && n.ends_with(&format!("-{pid}")))
        .collect();
    assert!(leftovers.is_empty(), "spill dirs left behind: {leftovers:?}");
}
