//! Spill-to-disk segmented traces and streaming double-buffered replay.
//!
//! The in-memory [`Recorder`](crate::Recorder) caps a recording at what
//! fits in RAM; full-scale BioPerf runs (the paper characterizes
//! billion-load executions) need traces larger than that. This module
//! splits the packed op stream into fixed-size *segments* that spill to
//! disk as they close, and replays them back with a prefetch pipeline so
//! peak memory stays O(segment size) regardless of trace length:
//!
//! * [`SpillRecorder`] — a [`TraceConsumer`] that encodes into a
//!   [`PackedStream`] chunk and, every `segment_ops` ops, writes the
//!   closed chunk as one segment file and starts the next chunk *from
//!   the encoder's running SSA counter*, so every segment decodes
//!   standalone.
//! * [`SegmentedRecording`] — the replay side.
//!   [`replay_bank`](SegmentedRecording::replay_bank) streams the
//!   segments through a bank of consumers with double buffering: a
//!   background loader thread reads and parses segment *k+1* while the
//!   caller's consumers drain segment *k*. Decode order and content are
//!   bit-identical to an unsegmented [`Recording`](crate::Recording)
//!   replay.
//!
//! # Segment file format (`bioperf-seg/v1`)
//!
//! A segment is a 64-byte little-endian header followed by the packed
//! payload ([`PackedStream::write_payload`]):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "BPFSEG1\0"
//!      8     4  format version (1)
//!     12     4  segment index within the recording (0-based)
//!     16     8  op count
//!     24     8  address-column count
//!     32     8  far-destination count
//!     40     8  far-source count
//!     48     8  SSA counter at segment start (standalone-decode state)
//!     56     8  FNV-1a 64 checksum of the payload bytes
//! ```
//!
//! The header's start counter is the *only* cross-segment decode state:
//! side tables are per-segment, and near-source deltas are pure counter
//! arithmetic, so `(header, payload)` is sufficient to reproduce the
//! segment's ops exactly. Every malformed input — truncation, foreign
//! magic, count/length disagreement, out-of-order or missing segments,
//! payload corruption — surfaces as a typed [`SegmentError`] naming the
//! offending path; no input can panic the reader.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc;

use bioperf_isa::{MicroOp, Program};

use crate::packed::{OpBlock, PackedStream, BLOCK_OPS};
use crate::fnv1a;
use crate::tracer::TraceConsumer;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"BPFSEG1\0";

/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;

/// Fixed header size in bytes.
pub const SEGMENT_HEADER_LEN: usize = 64;

/// Default ops per segment (4M ops ≈ 48 MB of fixed records plus the
/// address column — big enough to amortize I/O, small enough that two
/// in-flight segments stay far under any realistic memory cap).
pub const DEFAULT_SEGMENT_OPS: usize = 4 << 20;

/// A typed failure of the segment writer or reader. Every variant names
/// the segment it concerns, so diagnostics always carry the offending
/// path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// Filesystem error reading or writing a segment.
    Io {
        /// Segment (or directory) being accessed.
        path: PathBuf,
        /// The underlying I/O error kind.
        kind: io::ErrorKind,
    },
    /// A segment file of the recording no longer exists.
    Missing {
        /// The missing segment.
        path: PathBuf,
    },
    /// The file does not start with [`SEGMENT_MAGIC`].
    BadMagic {
        /// The rejected file.
        path: PathBuf,
    },
    /// The format version is not [`SEGMENT_VERSION`].
    BadVersion {
        /// The rejected file.
        path: PathBuf,
        /// Version the header claims.
        found: u32,
    },
    /// The file is shorter than its header-declared payload.
    Truncated {
        /// The truncated file.
        path: PathBuf,
        /// Bytes the header implies.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The header's op count disagrees with the payload present (or with
    /// the recording's per-segment manifest).
    CountMismatch {
        /// The inconsistent file.
        path: PathBuf,
        /// Ops the header claims.
        header_ops: u64,
        /// Ops expected at this position of the recording.
        expected_ops: u64,
    },
    /// The segment at position *k* carries a different index in its
    /// header (renamed or reordered files).
    IndexMismatch {
        /// The misplaced file.
        path: PathBuf,
        /// Index expected from the file's position.
        expected: u32,
        /// Index the header carries.
        found: u32,
    },
    /// The payload checksum does not match the header.
    Corrupt {
        /// The corrupted file.
        path: PathBuf,
    },
}

impl SegmentError {
    /// The segment (or directory) path the error concerns.
    pub fn path(&self) -> &Path {
        match self {
            SegmentError::Io { path, .. }
            | SegmentError::Missing { path }
            | SegmentError::BadMagic { path }
            | SegmentError::BadVersion { path, .. }
            | SegmentError::Truncated { path, .. }
            | SegmentError::CountMismatch { path, .. }
            | SegmentError::IndexMismatch { path, .. }
            | SegmentError::Corrupt { path } => path,
        }
    }

    fn io(path: &Path, err: &io::Error) -> SegmentError {
        if err.kind() == io::ErrorKind::NotFound {
            SegmentError::Missing { path: path.to_path_buf() }
        } else {
            SegmentError::Io { path: path.to_path_buf(), kind: err.kind() }
        }
    }
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Io { path, kind } => {
                write!(f, "{}: segment I/O error: {kind}", path.display())
            }
            SegmentError::Missing { path } => {
                write!(f, "{}: segment file is missing", path.display())
            }
            SegmentError::BadMagic { path } => {
                write!(f, "{}: not a bioperf segment file (bad magic)", path.display())
            }
            SegmentError::BadVersion { path, found } => write!(
                f,
                "{}: unsupported segment format version {found} (expected {SEGMENT_VERSION})",
                path.display()
            ),
            SegmentError::Truncated { path, expected, actual } => write!(
                f,
                "{}: truncated segment ({actual} bytes, header implies {expected})",
                path.display()
            ),
            SegmentError::CountMismatch { path, header_ops, expected_ops } => write!(
                f,
                "{}: op-count mismatch (header says {header_ops}, expected {expected_ops})",
                path.display()
            ),
            SegmentError::IndexMismatch { path, expected, found } => write!(
                f,
                "{}: segment out of order (position {expected}, header index {found})",
                path.display()
            ),
            SegmentError::Corrupt { path } => {
                write!(f, "{}: segment payload failed its checksum", path.display())
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// Encodes one closed chunk as a complete segment: header then payload.
/// `start_counter` is the SSA counter the chunk's encoding began at.
fn encode_segment(stream: &PackedStream, index: u32, start_counter: u64) -> Vec<u8> {
    let columns = stream.column_lens();
    let payload_len = PackedStream::payload_wire_len(columns).expect("in-memory columns fit");
    let mut bytes = Vec::with_capacity(SEGMENT_HEADER_LEN + payload_len);
    bytes.extend_from_slice(&SEGMENT_MAGIC);
    bytes.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&index.to_le_bytes());
    for count in columns {
        bytes.extend_from_slice(&(count as u64).to_le_bytes());
    }
    bytes.extend_from_slice(&start_counter.to_le_bytes());
    let checksum_at = bytes.len();
    bytes.extend_from_slice(&[0u8; 8]); // checksum placeholder
    stream.write_payload(&mut bytes);
    let checksum = fnv1a(&bytes[SEGMENT_HEADER_LEN..]);
    bytes[checksum_at..checksum_at + 8].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Parses and validates one segment at position `position` of a
/// recording that expects `expected_ops` ops there.
fn decode_segment(
    path: &Path,
    position: u32,
    expected_ops: u64,
    bytes: &[u8],
) -> Result<PackedStream, SegmentError> {
    let reject = |e: SegmentError| -> Result<PackedStream, SegmentError> { Err(e) };
    if bytes.len() < SEGMENT_HEADER_LEN {
        return reject(SegmentError::Truncated {
            path: path.to_path_buf(),
            expected: SEGMENT_HEADER_LEN as u64,
            actual: bytes.len() as u64,
        });
    }
    if bytes[..8] != SEGMENT_MAGIC {
        return reject(SegmentError::BadMagic { path: path.to_path_buf() });
    }
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let version = u32_at(8);
    if version != SEGMENT_VERSION {
        return reject(SegmentError::BadVersion { path: path.to_path_buf(), found: version });
    }
    let index = u32_at(12);
    if index != position {
        return reject(SegmentError::IndexMismatch {
            path: path.to_path_buf(),
            expected: position,
            found: index,
        });
    }
    let header_ops = u64_at(16);
    if header_ops != expected_ops {
        return reject(SegmentError::CountMismatch {
            path: path.to_path_buf(),
            header_ops,
            expected_ops,
        });
    }
    let columns_u64 = [header_ops, u64_at(24), u64_at(32), u64_at(40)];
    if columns_u64.iter().any(|&c| c > usize::MAX as u64) {
        return reject(SegmentError::Corrupt { path: path.to_path_buf() });
    }
    let columns = columns_u64.map(|c| c as usize);
    let start_counter = u64_at(48);
    let checksum = u64_at(56);
    // The header is outside the payload checksum, so a flipped high bit
    // in a column count must not wrap the implied length back into range.
    let Some(expected_len) = PackedStream::payload_wire_len(columns)
        .and_then(|n| n.checked_add(SEGMENT_HEADER_LEN))
        .map(|n| n as u64)
    else {
        return reject(SegmentError::Corrupt { path: path.to_path_buf() });
    };
    let actual_len = bytes.len() as u64;
    if actual_len < expected_len {
        return reject(SegmentError::Truncated {
            path: path.to_path_buf(),
            expected: expected_len,
            actual: actual_len,
        });
    }
    if actual_len > expected_len {
        // Trailing garbage: the header cannot account for these bytes.
        return reject(SegmentError::Corrupt { path: path.to_path_buf() });
    }
    let payload = &bytes[SEGMENT_HEADER_LEN..];
    if fnv1a(payload) != checksum {
        return reject(SegmentError::Corrupt { path: path.to_path_buf() });
    }
    PackedStream::from_payload(columns, start_counter, payload)
        .ok_or(SegmentError::Corrupt { path: path.to_path_buf() })
}

/// Where closed segments go.
#[derive(Debug)]
enum Sink {
    /// Spill to `seg-<index>.seg` files under a directory.
    Dir(PathBuf),
    /// Keep the encoded bytes in memory (conformance fuzzing and
    /// property tests, where disk I/O would dominate the case cost).
    Mem,
}

/// One closed segment of a recording.
#[derive(Debug)]
enum Slot {
    File { path: PathBuf, ops: usize },
    Mem { bytes: Vec<u8>, ops: usize },
}

impl Slot {
    fn ops(&self) -> usize {
        match self {
            Slot::File { ops, .. } | Slot::Mem { ops, .. } => *ops,
        }
    }

    /// Display path of the slot (memory slots use a synthetic label).
    fn label(&self, position: usize) -> PathBuf {
        match self {
            Slot::File { path, .. } => path.clone(),
            Slot::Mem { .. } => PathBuf::from(format!("<mem:seg-{position:05}>")),
        }
    }
}

/// A [`TraceConsumer`] that spills the packed op stream to fixed-size
/// segments as it records, bounding resident memory by O(segment size)
/// for traces of any length.
///
/// The total-op `capacity` spans *all* segments (it is the same
/// whole-recording cap as [`Recorder::with_capacity`]); `segment_ops`
/// only controls spill granularity.
///
/// [`Recorder::with_capacity`]: crate::Recorder::with_capacity
#[derive(Debug)]
pub struct SpillRecorder {
    sink: Sink,
    segment_ops: usize,
    capacity: usize,
    current: PackedStream,
    slots: Vec<Slot>,
    total_ops: usize,
    overflowed: bool,
    error: Option<SegmentError>,
}

impl SpillRecorder {
    /// A recorder spilling segments of `segment_ops` ops into `dir`
    /// (created if needed), keeping at most `capacity` ops in total.
    pub fn to_dir(
        dir: impl Into<PathBuf>,
        segment_ops: usize,
        capacity: usize,
    ) -> Result<SpillRecorder, SegmentError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| SegmentError::io(&dir, &e))?;
        Ok(Self::with_sink(Sink::Dir(dir), segment_ops, capacity))
    }

    /// A recorder keeping the encoded segments in memory — same format,
    /// same chunking, no filesystem. Used by the conformance fuzzer and
    /// the property tests.
    pub fn in_memory(segment_ops: usize, capacity: usize) -> SpillRecorder {
        Self::with_sink(Sink::Mem, segment_ops, capacity)
    }

    fn with_sink(sink: Sink, segment_ops: usize, capacity: usize) -> SpillRecorder {
        SpillRecorder {
            sink,
            segment_ops: segment_ops.max(1),
            capacity,
            current: PackedStream::new(),
            slots: Vec::new(),
            total_ops: 0,
            overflowed: false,
            error: None,
        }
    }

    /// Whether the trace exceeded the *total* capacity (the recording is
    /// then a prefix of the full run).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Ops recorded so far, across every spilled segment plus the open
    /// chunk.
    pub fn len(&self) -> usize {
        self.total_ops
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total_ops == 0
    }

    /// Segments closed so far (the open chunk is not counted).
    pub fn spilled_segments(&self) -> usize {
        self.slots.len()
    }

    /// The first write error, if spilling failed.
    pub fn error(&self) -> Option<&SegmentError> {
        self.error.as_ref()
    }

    /// Closes the open chunk as a segment.
    fn flush(&mut self) {
        let index = self.slots.len() as u32;
        let ops = self.current.len();
        let mut start_counter = self.current.base_counter();
        // Catalogued fault (`segment-start-counter`): record a stale SSA
        // start counter in the header, as a resync bookkeeping bug would.
        if crate::inject::active(crate::inject::SEG_COUNTER) && start_counter > 0 {
            start_counter -= 1;
        }
        let next = PackedStream::with_base_counter(self.current.encode_counter());
        let closed = std::mem::replace(&mut self.current, next);
        let bytes = encode_segment(&closed, index, start_counter);
        match &mut self.sink {
            Sink::Dir(dir) => {
                let path = dir.join(format!("seg-{index:05}.seg"));
                match std::fs::write(&path, &bytes) {
                    Ok(()) => self.slots.push(Slot::File { path, ops }),
                    Err(e) => self.error = Some(SegmentError::io(&path, &e)),
                }
            }
            Sink::Mem => self.slots.push(Slot::Mem { bytes, ops }),
        }
    }

    /// Closes the recording: spills the open tail chunk and pairs the
    /// segments with their static program. Returns the first spill error
    /// instead, if any write failed mid-trace.
    pub fn into_segmented(mut self, program: Program) -> Result<SegmentedRecording, SegmentError> {
        if self.error.is_none() && !self.current.is_empty() {
            self.flush();
        }
        if let Some(error) = self.error {
            return Err(error);
        }
        Ok(SegmentedRecording {
            program,
            slots: self.slots,
            total_ops: self.total_ops,
            complete: !self.overflowed,
        })
    }
}

impl TraceConsumer for SpillRecorder {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        if self.error.is_some() {
            return;
        }
        // The capacity is a *whole-recording* op budget: segments already
        // spilled count against it exactly like the open chunk.
        if self.total_ops >= self.capacity {
            self.overflowed = true;
            return;
        }
        self.current.push(op);
        self.total_ops += 1;
        if self.current.len() >= self.segment_ops {
            self.flush();
        }
    }
}

/// A captured trace spilled to segments, replayable with streaming
/// double-buffered decode.
#[derive(Debug)]
pub struct SegmentedRecording {
    program: Program,
    slots: Vec<Slot>,
    total_ops: usize,
    complete: bool,
}

impl SegmentedRecording {
    /// The static program the ops refer to.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Total recorded dynamic ops across all segments.
    pub fn len(&self) -> usize {
        self.total_ops
    }

    /// Whether the recording is empty.
    pub fn is_empty(&self) -> bool {
        self.total_ops == 0
    }

    /// Whether the whole run was captured (false if the recorder
    /// overflowed its total capacity).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.slots.len()
    }

    /// Paths of the on-disk segments, in replay order (empty for an
    /// in-memory recording).
    pub fn segment_paths(&self) -> Vec<&Path> {
        self.slots
            .iter()
            .filter_map(|s| match s {
                Slot::File { path, .. } => Some(path.as_path()),
                Slot::Mem { .. } => None,
            })
            .collect()
    }

    /// Loads and validates the segment at `position`.
    fn load(&self, position: usize) -> Result<PackedStream, SegmentError> {
        let slot = &self.slots[position];
        let expected_ops = slot.ops() as u64;
        match slot {
            Slot::File { path, .. } => {
                let bytes = std::fs::read(path).map_err(|e| SegmentError::io(path, &e))?;
                decode_segment(path, position as u32, expected_ops, &bytes)
            }
            Slot::Mem { bytes, .. } => {
                decode_segment(&slot.label(position), position as u32, expected_ops, bytes)
            }
        }
    }

    /// Streams the segments in order through `drain`, with the next
    /// segment loaded and parsed on a background thread while the
    /// current one is being drained (double buffering). The loader stops
    /// early if a segment fails validation or the drain side bails.
    fn stream_segments(
        &self,
        mut drain: impl FnMut(&PackedStream),
    ) -> Result<(), SegmentError> {
        if self.slots.is_empty() {
            return Ok(());
        }
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel::<Result<PackedStream, SegmentError>>(1);
            scope.spawn(move || {
                for position in 0..self.slots.len() {
                    let loaded = self.load(position);
                    let failed = loaded.is_err();
                    // A send error means the drain side already returned
                    // (its own error); either way stop prefetching.
                    if tx.send(loaded).is_err() || failed {
                        break;
                    }
                }
            });
            for _ in 0..self.slots.len() {
                let stream = rx.recv().expect("loader sends one result per segment")?;
                drain(&stream);
            }
            Ok(())
        })
    }

    /// Feeds the recorded stream (and a final `finish`) to one consumer,
    /// streaming segment by segment. Equivalent to
    /// [`Recording::replay`](crate::Recording::replay) on the same trace.
    ///
    /// A single-consumer bank: routes through
    /// [`replay_bank`](Self::replay_bank), exactly like the in-memory
    /// [`Recording::replay`](crate::Recording::replay).
    pub fn replay<C: TraceConsumer>(&self, consumer: &mut C) -> Result<(), SegmentError> {
        self.replay_bank(std::slice::from_mut(consumer))
    }

    /// Single-pass fan-out replay off the streamed segments: each
    /// segment is decoded exactly once — in [`OpBlock`] batches handed
    /// to every consumer's [`TraceConsumer::consume_block`] — then each
    /// consumer gets a final `finish`. The streaming twin of
    /// [`Recording::replay_bank`](crate::Recording::replay_bank), with
    /// the next segment prefetched while the bank drains the current
    /// one. A segment boundary simply ends a block early: each segment
    /// gets its own block decoder (the header's SSA start counter is the
    /// only carried state), so blocks never span segments.
    pub fn replay_bank<C: TraceConsumer>(&self, consumers: &mut [C]) -> Result<(), SegmentError> {
        self.replay_bank_blocks(consumers, BLOCK_OPS)
    }

    /// [`replay_bank`](Self::replay_bank) with an explicit block size —
    /// the benchmarking and property-test hook (block size must never
    /// change any result).
    pub fn replay_bank_blocks<C: TraceConsumer>(
        &self,
        consumers: &mut [C],
        block_ops: usize,
    ) -> Result<(), SegmentError> {
        let mut block = OpBlock::with_capacity(block_ops.min(self.total_ops));
        self.stream_segments(|stream| {
            let mut decoder = stream.block_decoder();
            while decoder.next_block(&mut block, block_ops) > 0 {
                for c in consumers.iter_mut() {
                    c.consume_block(&block, &self.program);
                }
            }
        })?;
        for c in consumers.iter_mut() {
            c.finish(&self.program);
        }
        Ok(())
    }
}

/// Spills an existing in-memory [`Recording`](crate::Recording) into a
/// segmented on-disk recording (decode + re-encode). Useful for
/// converting a captured trace without re-running the kernel.
pub fn segment_recording(
    recording: &crate::Recording,
    dir: impl Into<PathBuf>,
    segment_ops: usize,
) -> Result<SegmentedRecording, SegmentError> {
    let mut spill = SpillRecorder::to_dir(dir, segment_ops, usize::MAX)?;
    let program = recording.program().clone();
    for op in recording.iter() {
        spill.consume(&op, &program);
    }
    spill.into_segmented(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, Tape, Tracer};
    use bioperf_isa::here;

    /// Collects every replayed op (plus the finish call) for diffing.
    #[derive(Default)]
    struct Collect {
        ops: Vec<MicroOp>,
        finished: bool,
    }

    impl TraceConsumer for Collect {
        fn consume(&mut self, op: &MicroOp, _p: &Program) {
            self.ops.push(*op);
        }
        fn finish(&mut self, _p: &Program) {
            self.finished = true;
        }
    }

    /// Records a lit()-gap-heavy kernel through (raw, packed, spill)
    /// simultaneously.
    fn record(n: usize, segment_ops: usize) -> (Vec<MicroOp>, SegmentedRecording) {
        let xs: Vec<u64> = (0..n as u64).collect();
        let mut tape = Tape::new((
            Collect::default(),
            SpillRecorder::in_memory(segment_ops, usize::MAX),
        ));
        let mut acc = tape.lit();
        for (i, x) in xs.iter().enumerate() {
            let v = tape.int_load(here!("k"), x);
            let lit = tape.lit(); // SSA gap: forces far-dst resyncs
            acc = tape.int_op(here!("k"), &[acc, v, lit]);
            tape.int_store(here!("k"), x, acc);
            tape.branch(here!("k"), &[acc], i % 3 == 0);
        }
        let (program, (raw, spill)) = tape.finish();
        let segmented = spill.into_segmented(program).expect("spill");
        (raw.ops, segmented)
    }

    #[test]
    fn segmented_replay_reproduces_the_stream_at_adversarial_sizes() {
        for segment_ops in [1usize, 3, 7, 64, 1 << 20] {
            let (raw, segmented) = record(40, segment_ops);
            assert_eq!(segmented.len(), raw.len());
            assert!(segmented.is_complete());
            let mut replayed = Collect::default();
            segmented.replay(&mut replayed).expect("replay");
            assert!(replayed.finished);
            assert_eq!(replayed.ops, raw, "segment_ops={segment_ops}");
        }
    }

    #[test]
    fn bank_replay_matches_per_consumer_replay() {
        let (raw, segmented) = record(32, 5);
        let mut bank = vec![Collect::default(), Collect::default(), Collect::default()];
        segmented.replay_bank(&mut bank).expect("bank replay");
        for member in &bank {
            assert!(member.finished);
            assert_eq!(member.ops, raw);
        }
    }

    #[test]
    fn capacity_spans_segments_not_each_segment() {
        // segment_ops 8, capacity 20: a per-segment misreading of the cap
        // would never overflow (every segment stays ≤ 8 ops); the
        // whole-recording cap must stop at exactly 20.
        let x = 1u64;
        let mut tape = Tape::new(SpillRecorder::in_memory(8, 20));
        for _ in 0..30 {
            tape.int_load(here!("k"), &x);
        }
        let (program, spill) = tape.finish();
        assert!(spill.overflowed());
        assert_eq!(spill.len(), 20);
        assert_eq!(spill.spilled_segments(), 2, "two full 8-op segments spilled");
        let segmented = spill.into_segmented(program).expect("spill");
        assert_eq!(segmented.len(), 20);
        assert!(!segmented.is_complete());
        let mut replayed = Collect::default();
        segmented.replay(&mut replayed).expect("replay");
        assert_eq!(replayed.ops.len(), 20);
    }

    #[test]
    fn empty_recording_replays_cleanly() {
        let tape = Tape::new(SpillRecorder::in_memory(4, usize::MAX));
        let (program, spill) = tape.finish();
        assert!(spill.is_empty());
        let segmented = spill.into_segmented(program).expect("spill");
        assert!(segmented.is_empty());
        assert_eq!(segmented.segment_count(), 0);
        let mut replayed = Collect::default();
        segmented.replay(&mut replayed).expect("replay");
        assert!(replayed.finished);
        assert!(replayed.ops.is_empty());
    }

    #[test]
    fn spilled_files_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("bioperf-seg-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let xs: Vec<u64> = (0..24).collect();
        let mut tape = Tape::new((
            Collect::default(),
            SpillRecorder::to_dir(&dir, 7, usize::MAX).expect("spill dir"),
        ));
        for (i, x) in xs.iter().enumerate() {
            let v = tape.int_load(here!("k"), x);
            tape.branch(here!("k"), &[v], i % 2 == 0);
        }
        let (program, (raw, spill)) = tape.finish();
        let segmented = spill.into_segmented(program).expect("spill");
        assert!(segmented.segment_count() >= 2);
        assert_eq!(segmented.segment_paths().len(), segmented.segment_count());
        for path in segmented.segment_paths() {
            assert!(path.exists(), "{} missing", path.display());
        }
        let mut replayed = Collect::default();
        segmented.replay(&mut replayed).expect("replay");
        assert_eq!(replayed.ops, raw.ops);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmenting_an_in_memory_recording_matches_it() {
        let dir = std::env::temp_dir().join(format!("bioperf-seg-conv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let xs: Vec<u64> = (0..16).collect();
        let mut tape = Tape::new(Recorder::new());
        for x in &xs {
            let v = tape.int_load(here!("k"), x);
            tape.int_op(here!("k"), &[v]);
        }
        let (program, rec) = tape.finish();
        let recording = rec.into_recording(program);
        let segmented = segment_recording(&recording, &dir, 5).expect("segment");
        assert_eq!(segmented.len(), recording.len());
        let mut streamed = Collect::default();
        segmented.replay(&mut streamed).expect("replay");
        let direct: Vec<MicroOp> = recording.iter().collect();
        assert_eq!(streamed.ops, direct);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_spill_dir_is_a_typed_error() {
        let err = SpillRecorder::to_dir("/proc/bioperf-definitely-unwritable/seg", 4, 100)
            .expect_err("creating a spill dir under /proc must fail");
        assert!(matches!(err, SegmentError::Io { .. } | SegmentError::Missing { .. }));
        assert!(err.path().starts_with("/proc"));
        assert!(err.to_string().contains("/proc"), "{err}");
    }
}
