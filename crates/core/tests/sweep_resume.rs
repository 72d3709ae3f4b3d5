//! Checkpoint tests for the design-space sweep: an interrupted sweep
//! resumed to completion must produce output byte-identical to an
//! uninterrupted run (checkpoint file included), and every class of
//! damaged checkpoint must surface as the matching typed
//! [`CheckpointError`] naming the offending path — never a panic, never
//! a silently wrong frontier. Mirrors the segment reader's
//! `segment_corrupt.rs` discipline one layer up.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use bioperf_branch::PredictorKind;
use bioperf_cache::Prefetcher;
use bioperf_core::sweep::{
    run_sweep, CheckpointError, SweepConfig, SweepError, SweepGrid, CHECKPOINT_HEADER_LEN,
    CHECKPOINT_RECORD_LEN,
};
use bioperf_kernels::{ProgramId, Scale};
use proptest::prelude::*;

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bioperf-sweepck-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A 4-cell grid small enough for the test profile but with more than
/// one bank chunk's worth of structure once budgeted.
fn tiny_grid() -> SweepGrid {
    SweepGrid {
        l1: vec![(32, 2), (64, 2)],
        l2: vec![(4096, 1)],
        line: vec![64],
        lat: vec![(3, 5, 72)],
        pipe: vec![(4, 80)],
        pred: vec![PredictorKind::Hybrid, PredictorKind::Bimodal],
        prefetch: vec![Prefetcher::None],
    }
}

fn cfg(checkpoint: Option<PathBuf>, max_cells: usize) -> SweepConfig {
    SweepConfig {
        scale: Scale::Test,
        seed: 42,
        jobs: 2,
        programs: vec![ProgramId::Predator],
        grid: tiny_grid(),
        checkpoint,
        max_cells,
        factor: true,
    }
}

#[test]
fn interrupted_and_resumed_sweep_matches_uninterrupted_byte_for_byte() {
    let dir = scratch("resume");
    let baseline_ck = dir.join("baseline.ck");
    let resumed_ck = dir.join("resumed.ck");

    let baseline = run_sweep(&cfg(Some(baseline_ck.clone()), 0)).expect("baseline sweep");
    assert!(baseline.complete);
    assert_eq!(baseline.computed, 4);
    assert_eq!(baseline.cached, 0);
    let baseline_json = baseline.to_json().render_pretty();
    let baseline_table = baseline.render_table();

    // Interrupt after every single cell: four budgeted invocations, each
    // resuming from the previous one's checkpoint.
    let mut last = None;
    for step in 0..4 {
        let r = run_sweep(&cfg(Some(resumed_ck.clone()), 1)).expect("budgeted sweep");
        assert_eq!(r.computed, 1, "step {step} must measure exactly one new cell");
        assert_eq!(r.cached, step, "step {step} must resume {step} cells");
        assert_eq!(r.complete, step == 3, "complete only once every cell is measured");
        last = Some(r);
    }
    let resumed = last.expect("four steps ran");
    assert_eq!(resumed.to_json().render_pretty(), baseline_json);
    assert_eq!(resumed.render_table(), baseline_table);

    // The resumed checkpoint file itself is byte-identical to the one an
    // uninterrupted run writes (same records, same enumeration order).
    assert_eq!(
        fs::read(&resumed_ck).expect("resumed checkpoint"),
        fs::read(&baseline_ck).expect("baseline checkpoint"),
    );

    // A repeat invocation is a full cache hit: nothing is replayed and
    // the report is still byte-identical. Crucially it also records no
    // traces at all — a fully-checkpointed program schedules no job.
    assert_eq!(baseline.recorded, 2, "fresh sweep records both variants");
    let cached = run_sweep(&cfg(Some(baseline_ck), 0)).expect("cached sweep");
    assert_eq!(cached.computed, 0);
    assert_eq!(cached.cached, 4);
    assert_eq!(cached.recorded, 0, "a full cache hit must skip trace recording entirely");
    assert_eq!(cached.live_traces_peak, 0, "no recording was ever alive");
    assert_eq!(cached.to_json().render_pretty(), baseline_json);

    let _ = fs::remove_dir_all(&dir);
}

/// The factored pipeline and the unfactored oracle must leave
/// byte-identical checkpoints and reports behind — the same contract
/// `bench_sweep` checks cell by cell.
///
/// The second grid has 36 distinct cache-axis keys (six L1s × three L2s
/// × two lines), more than one cache pass holds, so each factored job
/// runs two passes. At Test scale the L2 axis stops mattering, so the
/// second pass's streams equal streams of the first, and their cells
/// reuse the first pass's timing lanes. The third grid has 36 cells with
/// every prefetcher, more than one bank holds, so each oracle job splits
/// its cells over two live banks whose members mix prefetchers.
#[test]
fn factored_and_unfactored_checkpoints_are_byte_identical() {
    let dir = scratch("factor");
    let two_pass = SweepGrid {
        l1: vec![(8, 1), (16, 2), (32, 2), (64, 2), (64, 4), (128, 4)],
        l2: vec![(1024, 4), (2048, 1), (4096, 1)],
        line: vec![32, 64],
        ..tiny_grid()
    };
    let two_banks = SweepGrid {
        l1: vec![(8, 1), (32, 2), (64, 2)],
        line: vec![32, 64],
        prefetch: vec![Prefetcher::None, Prefetcher::NextLine, Prefetcher::Stride],
        ..tiny_grid()
    };
    assert_eq!(two_banks.cells(), 36);
    for (tag, grid) in [("tiny", tiny_grid()), ("two-pass", two_pass), ("two-banks", two_banks)] {
        let factored_ck = dir.join(format!("{tag}-factored.ck"));
        let oracle_ck = dir.join(format!("{tag}-oracle.ck"));
        let mut factored_cfg = cfg(Some(factored_ck.clone()), 0);
        factored_cfg.grid = grid;
        let mut oracle_cfg = factored_cfg.clone();
        oracle_cfg.checkpoint = Some(oracle_ck.clone());
        oracle_cfg.factor = false;

        let factored = run_sweep(&factored_cfg).expect("factored sweep");
        let oracle = run_sweep(&oracle_cfg).expect("unfactored sweep");
        assert!(factored.complete && factored.skipped.is_empty(), "{tag}");
        assert_eq!(factored.to_json().render_pretty(), oracle.to_json().render_pretty(), "{tag}");
        assert_eq!(
            fs::read(&factored_ck).expect("factored checkpoint"),
            fs::read(&oracle_ck).expect("oracle checkpoint"),
            "{tag}"
        );
    }

    let _ = fs::remove_dir_all(&dir);
}

/// Runs a sweep against `path` and returns the checkpoint error it must
/// produce.
fn checkpoint_err(path: &Path) -> CheckpointError {
    match run_sweep(&cfg(Some(path.to_path_buf()), 0)) {
        Ok(_) => panic!("sweep over a damaged checkpoint must fail"),
        Err(SweepError::Checkpoint(e)) => e,
        Err(e) => panic!("expected a checkpoint error, got {e}"),
    }
}

/// Every error must name the file it concerns, both structurally and in
/// its rendered message (that is what the sweep CLI prints).
fn assert_names(err: &CheckpointError, victim: &Path) {
    assert_eq!(err.path(), victim, "error must carry the offending path");
    assert!(
        err.to_string().contains(&victim.display().to_string()),
        "display must name the path: {err}"
    );
}

#[test]
fn damaged_checkpoints_fail_with_typed_errors_naming_the_path() {
    let dir = scratch("corrupt");
    let good = dir.join("good.ck");
    run_sweep(&cfg(Some(good.clone()), 0)).expect("seed checkpoint");
    let bytes = fs::read(&good).expect("checkpoint bytes");
    assert!(bytes.len() > 40, "test needs a header plus records");

    // Truncation: a partial trailing record (interrupted write).
    let victim = dir.join("truncated.ck");
    fs::write(&victim, &bytes[..bytes.len() - 3]).expect("write");
    let err = checkpoint_err(&victim);
    assert!(matches!(err, CheckpointError::Truncated { .. }), "got {err:?}");
    assert_names(&err, &victim);

    // A file shorter than the header is also truncation.
    let victim = dir.join("stub.ck");
    fs::write(&victim, &bytes[..10]).expect("write");
    assert!(matches!(checkpoint_err(&victim), CheckpointError::Truncated { .. }));

    // Bit flip inside a record payload: record checksum mismatch, with
    // the record's index.
    let victim = dir.join("bitflip.ck");
    let mut flipped = bytes.clone();
    flipped[32 + 8] ^= 0x10; // first record, cycles field
    fs::write(&victim, &flipped).expect("write");
    let err = checkpoint_err(&victim);
    assert!(
        matches!(err, CheckpointError::RecordCorrupt { index: 0, .. }),
        "got {err:?}"
    );
    assert_names(&err, &victim);

    // Bit flip inside the header's hash field: header checksum mismatch.
    let victim = dir.join("header.ck");
    let mut flipped = bytes.clone();
    flipped[17] ^= 0x01;
    fs::write(&victim, &flipped).expect("write");
    let err = checkpoint_err(&victim);
    assert!(matches!(err, CheckpointError::HeaderCorrupt { .. }), "got {err:?}");
    assert_names(&err, &victim);

    // Wrong magic: not a sweep checkpoint at all.
    let victim = dir.join("magic.ck");
    let mut flipped = bytes.clone();
    flipped[0] ^= 0xff;
    fs::write(&victim, &flipped).expect("write");
    let err = checkpoint_err(&victim);
    assert!(matches!(err, CheckpointError::BadMagic { .. }), "got {err:?}");
    assert_names(&err, &victim);

    // Unsupported version (checked before the header checksum, so the
    // error is specific rather than a generic corruption).
    let victim = dir.join("version.ck");
    let mut flipped = bytes.clone();
    flipped[8..12].copy_from_slice(&2u32.to_le_bytes());
    fs::write(&victim, &flipped).expect("write");
    let err = checkpoint_err(&victim);
    assert!(matches!(err, CheckpointError::BadVersion { found: 2, .. }), "got {err:?}");
    assert_names(&err, &victim);

    // A checkpoint from a different sweep (other seed → other content
    // hash) must be refused, not silently reused.
    let victim = dir.join("othersweep.ck");
    fs::write(&victim, &bytes).expect("write");
    let mut other = cfg(Some(victim.clone()), 0);
    other.seed = 43;
    match run_sweep(&other) {
        Err(SweepError::Checkpoint(e @ CheckpointError::GridMismatch { .. })) => {
            assert_names(&e, &victim);
        }
        other => panic!("expected GridMismatch, got {other:?}"),
    }

    // Control: the undamaged copy still loads cleanly.
    let fine = run_sweep(&cfg(Some(good), 0)).expect("clean reload");
    assert_eq!(fine.cached, 4);

    let _ = fs::remove_dir_all(&dir);
}

/// A complete checkpoint of [`tiny_grid`] (header plus four records) and
/// the report its sweep renders, made once per test process.
fn valid_checkpoint() -> &'static (Vec<u8>, String) {
    static VALID: OnceLock<(Vec<u8>, String)> = OnceLock::new();
    VALID.get_or_init(|| {
        let dir = scratch("prop-seed");
        let path = dir.join("valid.ck");
        let report = run_sweep(&cfg(Some(path.clone()), 0)).expect("seed checkpoint");
        let bytes = fs::read(&path).expect("checkpoint bytes");
        let _ = fs::remove_dir_all(&dir);
        (bytes, report.to_json().render_pretty())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A valid checkpoint cut to any length and hit by up to three byte
    /// flips either still loads — then it is a whole-record prefix of the
    /// valid file, and the resumed sweep renders the same report — or
    /// fails with a typed checkpoint error naming the path. It never
    /// panics.
    #[test]
    fn damaged_checkpoints_load_or_fail_typed(
        cut in 0usize..4 * CHECKPOINT_RECORD_LEN + CHECKPOINT_HEADER_LEN + 1,
        flips in prop::collection::vec((0usize..1 << 16, any::<u8>()), 0..4),
    ) {
        let (valid, report) = valid_checkpoint();
        let mut bytes = valid[..cut.min(valid.len())].to_vec();
        for &(at, mask) in &flips {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
        }
        let dir = scratch("prop");
        let path = dir.join("damaged.ck");
        fs::write(&path, &bytes).expect("write");
        match run_sweep(&cfg(Some(path.clone()), 0)) {
            Ok(r) => {
                prop_assert!(bytes[..] == valid[..bytes.len()], "damaged bytes loaded");
                let records = bytes.len().saturating_sub(CHECKPOINT_HEADER_LEN);
                prop_assert!(records.is_multiple_of(CHECKPOINT_RECORD_LEN), "partial record loaded");
                prop_assert_eq!(r.cached, records / CHECKPOINT_RECORD_LEN);
                prop_assert_eq!(&r.to_json().render_pretty(), report);
            }
            Err(SweepError::Checkpoint(e)) => assert_names(&e, &path),
            Err(e) => panic!("expected a checkpoint error, got {e}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
