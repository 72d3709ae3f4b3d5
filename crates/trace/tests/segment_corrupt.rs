//! Corrupt-input tests for the segment reader: every class of damaged
//! or missing segment file must surface as the matching typed
//! [`SegmentError`] naming the offending path — never a panic, never a
//! silently wrong replay. Each test writes a valid multi-segment
//! recording to disk, damages exactly one thing, and replays.

use std::fs;
use std::path::{Path, PathBuf};

use bioperf_isa::{MicroOp, OpKind, Program, StaticId, VReg, MAX_SRCS};
use bioperf_trace::{SegmentError, SegmentedRecording, SpillRecorder, TraceConsumer};

struct Collect(Vec<MicroOp>);

impl TraceConsumer for Collect {
    fn consume(&mut self, op: &MicroOp, _p: &Program) {
        self.0.push(*op);
    }
}

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bioperf-segcorrupt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A deterministic little op stream with destinations, sources, and
/// addresses (all the payload columns populated).
fn sample_ops(n: usize) -> Vec<MicroOp> {
    (0..n)
        .map(|i| {
            let mut srcs = [None; MAX_SRCS];
            if i > 0 {
                srcs[0] = Some(VReg(i as u64 - 1));
            }
            MicroOp {
                sid: StaticId::from_raw(i as u32 % 13),
                kind: if i % 3 == 0 { OpKind::IntLoad } else { OpKind::IntAlu },
                dst: Some(VReg(i as u64)),
                srcs,
                addr: (i % 3 == 0).then_some(0x4000 + 8 * i as u64),
                taken: false,
            }
        })
        .collect()
}

/// Writes `n` ops as segments of `segment_ops` under `dir` and returns
/// the recording plus its on-disk paths.
fn spill(dir: &Path, n: usize, segment_ops: usize) -> (SegmentedRecording, Vec<PathBuf>) {
    let mut rec = SpillRecorder::to_dir(dir, segment_ops, usize::MAX).expect("scratch dir");
    let program = Program::new();
    for op in sample_ops(n) {
        rec.consume(&op, &program);
    }
    let segmented = rec.into_segmented(program).expect("spill to scratch");
    let paths: Vec<PathBuf> =
        segmented.segment_paths().into_iter().map(Path::to_path_buf).collect();
    assert!(paths.len() >= 3, "tests need a middle segment to damage");
    (segmented, paths)
}

/// Replays and returns the error the damaged recording must produce.
fn replay_err(segmented: &SegmentedRecording) -> SegmentError {
    let mut sink = Collect(Vec::new());
    match segmented.replay(&mut sink) {
        Ok(()) => panic!("replay of a damaged recording must fail"),
        Err(e) => e,
    }
}

/// Every error must name the file it concerns, both structurally and in
/// its rendered message (that is what the suite CLI prints).
fn assert_names(err: &SegmentError, victim: &Path) {
    assert_eq!(err.path(), victim, "error must carry the offending path");
    assert!(
        err.to_string().contains(&victim.display().to_string()),
        "display must name the path: {err}"
    );
}

#[test]
fn pristine_recording_replays_clean() {
    let dir = scratch("pristine");
    let (segmented, _) = spill(&dir, 40, 8);
    let mut sink = Collect(Vec::new());
    segmented.replay(&mut sink).expect("pristine replay");
    assert_eq!(sink.0, sample_ops(40));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_middle_segment_is_reported_with_its_path() {
    let dir = scratch("missing");
    let (segmented, paths) = spill(&dir, 40, 8);
    fs::remove_file(&paths[2]).expect("delete middle segment");
    let err = replay_err(&segmented);
    assert!(matches!(err, SegmentError::Missing { .. }), "got {err:?}");
    assert_names(&err, &paths[2]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_header_is_reported() {
    let dir = scratch("trunc-header");
    let (segmented, paths) = spill(&dir, 40, 8);
    let bytes = fs::read(&paths[1]).unwrap();
    fs::write(&paths[1], &bytes[..20]).unwrap();
    let err = replay_err(&segmented);
    match &err {
        SegmentError::Truncated { actual, .. } => assert_eq!(*actual, 20),
        other => panic!("expected Truncated, got {other:?}"),
    }
    assert_names(&err, &paths[1]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_payload_is_reported_with_expected_and_actual_sizes() {
    let dir = scratch("trunc-payload");
    let (segmented, paths) = spill(&dir, 40, 8);
    let bytes = fs::read(&paths[1]).unwrap();
    fs::write(&paths[1], &bytes[..bytes.len() - 5]).unwrap();
    let err = replay_err(&segmented);
    match &err {
        SegmentError::Truncated { expected, actual, .. } => {
            assert_eq!(*expected, bytes.len() as u64);
            assert_eq!(*actual, bytes.len() as u64 - 5);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    assert_names(&err, &paths[1]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn foreign_magic_is_rejected() {
    let dir = scratch("magic");
    let (segmented, paths) = spill(&dir, 40, 8);
    let mut bytes = fs::read(&paths[0]).unwrap();
    bytes[..8].copy_from_slice(b"ELFNOPE\0");
    fs::write(&paths[0], &bytes).unwrap();
    let err = replay_err(&segmented);
    assert!(matches!(err, SegmentError::BadMagic { .. }), "got {err:?}");
    assert_names(&err, &paths[0]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn future_format_version_is_rejected_with_the_found_version() {
    let dir = scratch("version");
    let (segmented, paths) = spill(&dir, 40, 8);
    let mut bytes = fs::read(&paths[0]).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    fs::write(&paths[0], &bytes).unwrap();
    let err = replay_err(&segmented);
    match &err {
        SegmentError::BadVersion { found, .. } => assert_eq!(*found, 99),
        other => panic!("expected BadVersion, got {other:?}"),
    }
    assert_names(&err, &paths[0]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn op_count_mismatch_is_reported_with_both_counts() {
    let dir = scratch("opcount");
    let (segmented, paths) = spill(&dir, 40, 8);
    let mut bytes = fs::read(&paths[1]).unwrap();
    bytes[16..24].copy_from_slice(&1_000u64.to_le_bytes());
    fs::write(&paths[1], &bytes).unwrap();
    let err = replay_err(&segmented);
    match &err {
        SegmentError::CountMismatch { header_ops, expected_ops, .. } => {
            assert_eq!(*header_ops, 1_000);
            assert_eq!(*expected_ops, 8);
        }
        other => panic!("expected CountMismatch, got {other:?}"),
    }
    assert_names(&err, &paths[1]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reordered_segment_files_are_detected_by_header_index() {
    let dir = scratch("reorder");
    let (segmented, paths) = spill(&dir, 40, 8);
    // Swap segments 1 and 2 on disk: both still valid files, but each
    // now sits at the wrong position of the recording.
    let a = fs::read(&paths[1]).unwrap();
    let b = fs::read(&paths[2]).unwrap();
    fs::write(&paths[1], &b).unwrap();
    fs::write(&paths[2], &a).unwrap();
    let err = replay_err(&segmented);
    match &err {
        SegmentError::IndexMismatch { expected, found, .. } => {
            assert_eq!(*expected, 1);
            assert_eq!(*found, 2);
        }
        other => panic!("expected IndexMismatch, got {other:?}"),
    }
    assert_names(&err, &paths[1]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn payload_bit_flip_fails_the_checksum() {
    let dir = scratch("bitflip");
    let (segmented, paths) = spill(&dir, 40, 8);
    let mut bytes = fs::read(&paths[2]).unwrap();
    let at = 64 + (bytes.len() - 64) / 2;
    bytes[at] ^= 0x40;
    fs::write(&paths[2], &bytes).unwrap();
    let err = replay_err(&segmented);
    assert!(matches!(err, SegmentError::Corrupt { .. }), "got {err:?}");
    assert_names(&err, &paths[2]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn overflowing_header_column_count_is_corrupt_not_a_panic() {
    // The header sits outside the payload checksum. Bit 61 of the
    // address count (header offset 24) makes `(addrs + 2^61) * 8` wrap to
    // `addrs * 8`, so the implied length and the checksum would both
    // still match if the wire size were computed unchecked.
    let dir = scratch("colcount");
    let (segmented, paths) = spill(&dir, 40, 8);
    let mut bytes = fs::read(&paths[1]).unwrap();
    bytes[24 + 7] ^= 0x20;
    fs::write(&paths[1], &bytes).unwrap();
    let err = replay_err(&segmented);
    assert!(matches!(err, SegmentError::Corrupt { .. }), "got {err:?}");
    assert_names(&err, &paths[1]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn trailing_garbage_is_rejected() {
    let dir = scratch("trailing");
    let (segmented, paths) = spill(&dir, 40, 8);
    let mut bytes = fs::read(&paths[0]).unwrap();
    bytes.extend_from_slice(b"junk");
    fs::write(&paths[0], &bytes).unwrap();
    let err = replay_err(&segmented);
    assert!(matches!(err, SegmentError::Corrupt { .. }), "got {err:?}");
    assert_names(&err, &paths[0]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn damage_in_a_later_segment_does_not_corrupt_earlier_ops() {
    // The streaming replay hands over complete segments only: ops from
    // segments before the damaged one arrive intact before the error.
    let dir = scratch("prefix");
    let (segmented, paths) = spill(&dir, 40, 8);
    fs::remove_file(&paths[3]).expect("delete a late segment");
    let mut sink = Collect(Vec::new());
    let err = segmented.replay(&mut sink).expect_err("damaged replay must fail");
    assert!(matches!(err, SegmentError::Missing { .. }), "got {err:?}");
    let reference = sample_ops(40);
    assert!(sink.0.len() >= 24, "three clean segments precede the damage");
    assert_eq!(sink.0[..24], reference[..24]);
    let _ = fs::remove_dir_all(&dir);
}
