//! `bioperf-seg` version 2, the word-wise payload checksum, end to end:
//! a version-1 file is refused by version, and every single-bit flip of
//! a small segment's payload — its sub-word tail included — is caught as
//! corruption. Known-answer vectors for the checksum itself are unit
//! tests in the crate.

use std::fs;
use std::path::{Path, PathBuf};

use bioperf_isa::{MicroOp, OpKind, Program, StaticId, VReg};
use bioperf_trace::segment::SEGMENT_HEADER_LEN;
use bioperf_trace::{SegmentError, SegmentedRecording, SpillRecorder, TraceConsumer};

struct Sink;

impl TraceConsumer for Sink {
    fn consume(&mut self, _op: &MicroOp, _p: &Program) {}
}

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bioperf-segv2-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Spills three ops (one load) as one segment: a 44-byte payload, five
/// whole words and a 4-byte tail.
fn one_segment(dir: &Path) -> (SegmentedRecording, PathBuf) {
    let ops = [
        MicroOp::load(StaticId::from_raw(0), OpKind::IntLoad, VReg(0), 0x4000, None),
        MicroOp::compute(StaticId::from_raw(1), OpKind::IntAlu, VReg(1), [Some(VReg(0)), None, None]),
        MicroOp::branch(StaticId::from_raw(2), [Some(VReg(1)), None, None], true),
    ];
    let mut rec = SpillRecorder::to_dir(dir, 16, usize::MAX).expect("scratch dir");
    let program = Program::new();
    for op in &ops {
        rec.consume(op, &program);
    }
    let segmented = rec.into_segmented(program).expect("spill to scratch");
    let path = segmented.segment_paths()[0].to_path_buf();
    (segmented, path)
}

fn replay(segmented: &SegmentedRecording) -> Result<(), SegmentError> {
    segmented.replay(&mut Sink)
}

#[test]
fn a_version_1_segment_is_refused_by_version() {
    let dir = scratch("v1");
    let (segmented, path) = one_segment(&dir);
    replay(&segmented).expect("an intact segment replays");
    let mut bytes = fs::read(&path).expect("segment");
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    fs::write(&path, &bytes).expect("rewrite");
    assert_eq!(replay(&segmented), Err(SegmentError::BadVersion { path: path.clone(), found: 1 }));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_single_bit_flip_of_the_payload_is_corrupt() {
    let dir = scratch("flip");
    let (segmented, path) = one_segment(&dir);
    let pristine = fs::read(&path).expect("segment");
    let payload_len = pristine.len() - SEGMENT_HEADER_LEN;
    assert_eq!(payload_len, 44, "five words and a 4-byte tail");
    for byte in SEGMENT_HEADER_LEN..pristine.len() {
        for bit in 0..8 {
            let mut flipped = pristine.clone();
            flipped[byte] ^= 1 << bit;
            fs::write(&path, &flipped).expect("rewrite");
            assert_eq!(
                replay(&segmented),
                Err(SegmentError::Corrupt { path: path.clone() }),
                "bit {bit} of byte {byte}"
            );
        }
    }
    fs::write(&path, &pristine).expect("restore");
    replay(&segmented).expect("the restored segment replays");
    let _ = fs::remove_dir_all(&dir);
}
