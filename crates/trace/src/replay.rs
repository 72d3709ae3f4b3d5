//! Trace recording and replay.
//!
//! Characterizing one program on four platform models naively re-executes
//! the kernel once per consumer. [`Recording`] captures the micro-op
//! stream (and the static program) once; [`Recording::replay`] feeds it
//! to any number of consumers afterwards — the ATOM analog of saving a
//! trace file.
//!
//! The stream is stored in the packed fixed-width encoding of
//! [`crate::packed`] (~12–20 bytes per op instead of the 88-byte
//! [`MicroOp`]), and replay decodes it streaming into one reused
//! `MicroOp` — the unpacked vector never exists.

use bioperf_isa::{MicroOp, Program};

use crate::packed::{OpBlock, PackedStream, BLOCK_OPS};
use crate::tracer::TraceConsumer;

/// Default cap on recorded ops (packed, ~16 bytes each; 256M ops ≈ 4 GB
/// is past any reasonable in-memory trace).
pub const DEFAULT_CAPACITY: usize = 256 << 20;

/// A trace consumer that records the stream for later replay.
///
/// # Example
///
/// ```
/// use bioperf_isa::here;
/// use bioperf_trace::{consumers::InstrMix, replay::Recorder, Tape, Tracer};
///
/// let mut tape = Tape::new(Recorder::new());
/// let x = 5u64;
/// let v = tape.int_load(here!("k"), &x);
/// tape.int_op(here!("k"), &[v]);
/// let (program, recorder) = tape.finish();
/// let recording = recorder.into_recording(program);
///
/// let mut mix = InstrMix::default();
/// recording.replay(&mut mix);
/// assert_eq!(mix.total(), 2);
/// let mut mix2 = InstrMix::default();
/// recording.replay(&mut mix2); // replay as many times as needed
/// assert_eq!(mix, mix2);
/// ```
#[derive(Debug, Clone)]
pub struct Recorder {
    stream: PackedStream,
    capacity: usize,
    overflowed: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates a recorder with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a recorder that keeps at most `capacity` ops; the rest of
    /// the stream is counted but dropped (check [`overflowed`]).
    ///
    /// [`overflowed`]: Recorder::overflowed
    pub fn with_capacity(capacity: usize) -> Self {
        Self { stream: PackedStream::new(), capacity, overflowed: false }
    }

    /// Whether the trace exceeded the capacity (the recording is then a
    /// prefix of the full run).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Ops recorded so far.
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.stream.is_empty()
    }

    /// Pairs the recorded ops with their static program.
    pub fn into_recording(self, program: Program) -> Recording {
        Recording { stream: self.stream, program, complete: !self.overflowed }
    }
}

impl TraceConsumer for Recorder {
    #[inline]
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        if self.stream.len() < self.capacity {
            self.stream.push(op);
        } else {
            self.overflowed = true;
        }
    }
}

/// A captured trace: the packed dynamic op stream plus the static
/// program.
#[derive(Debug, Clone)]
pub struct Recording {
    stream: PackedStream,
    program: Program,
    complete: bool,
}

impl Recording {
    /// The static program the ops refer to.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of recorded dynamic ops.
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// Whether the recording is empty.
    pub fn is_empty(&self) -> bool {
        self.stream.is_empty()
    }

    /// Whether the whole run was captured (false if the recorder
    /// overflowed its capacity).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Bytes held by the packed encoding (see
    /// [`PackedStream::payload_bytes`]).
    pub fn payload_bytes(&self) -> usize {
        self.stream.payload_bytes()
    }

    /// Average encoded bytes per op.
    pub fn bytes_per_op(&self) -> f64 {
        self.stream.bytes_per_op()
    }

    /// Feeds the recorded stream (and a final `finish`) to a consumer.
    ///
    /// A single-consumer bank: routes through
    /// [`replay_bank`](Self::replay_bank) so there is exactly one replay
    /// loop in the crate to optimize and test.
    pub fn replay<C: TraceConsumer>(&self, consumer: &mut C) {
        self.replay_bank(std::slice::from_mut(consumer));
    }

    /// Iterates over the recorded ops, decoded by value.
    pub fn iter(&self) -> impl Iterator<Item = MicroOp> + '_ {
        self.stream.iter()
    }

    /// Single-pass fan-out replay: decodes the stream exactly once and
    /// feeds every decoded op to each consumer in the bank (then a final
    /// `finish` each, like [`replay`](Self::replay)).
    ///
    /// This is the suite's platform-bank kernel: one packed decode drives
    /// all platform simulators, instead of each consumer paying the
    /// ~10 ns/op decode again. Ops are delivered in [`BLOCK_OPS`]-sized
    /// [`OpBlock`] batches — decoded once per block, then handed to each
    /// consumer's [`TraceConsumer::consume_block`] — so a consumer's
    /// state stays hot across the whole block instead of the bank's
    /// combined working set thrashing per op. The consumers are
    /// homogeneous (`&mut [C]`), so the inner dispatch is static; results
    /// are identical to replaying each consumer separately because decode
    /// shares no state with consumption.
    pub fn replay_bank<C: TraceConsumer>(&self, consumers: &mut [C]) {
        self.replay_bank_blocks(consumers, BLOCK_OPS);
    }

    /// [`replay_bank`](Self::replay_bank) with an explicit block size —
    /// the benchmarking and property-test hook (block size must never
    /// change any result).
    pub fn replay_bank_blocks<C: TraceConsumer>(&self, consumers: &mut [C], block_ops: usize) {
        let mut block = OpBlock::with_capacity(block_ops.min(self.stream.len()));
        let mut decoder = self.stream.block_decoder();
        while decoder.next_block(&mut block, block_ops) > 0 {
            for c in consumers.iter_mut() {
                c.consume_block(&block, &self.program);
            }
        }
        for c in consumers.iter_mut() {
            c.finish(&self.program);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumers::InstrMix;
    use crate::{Tape, Tracer};
    use bioperf_isa::here;

    fn small_recording(n: usize) -> Recording {
        let x = 3u64;
        let mut tape = Tape::new(Recorder::new());
        for i in 0..n {
            let v = tape.int_load(here!("k"), &x);
            tape.branch(here!("k"), &[v], i % 2 == 0);
        }
        let (program, rec) = tape.finish();
        rec.into_recording(program)
    }

    #[test]
    fn replay_reproduces_the_stream() {
        let rec = small_recording(50);
        assert_eq!(rec.len(), 100);
        assert!(rec.is_complete());
        let mut a = InstrMix::default();
        rec.replay(&mut a);
        let mut b = InstrMix::default();
        rec.replay(&mut b);
        assert_eq!(a, b);
        assert_eq!(a.loads(), 50);
        assert_eq!(a.cond_branches(), 50);
    }

    #[test]
    fn capacity_overflow_is_flagged() {
        let x = 1u64;
        let mut tape = Tape::new(Recorder::with_capacity(10));
        for _ in 0..20 {
            tape.int_load(here!("k"), &x);
        }
        let (program, rec) = tape.finish();
        assert!(rec.overflowed());
        let recording = rec.into_recording(program);
        assert_eq!(recording.len(), 10);
        assert!(!recording.is_complete());
    }

    #[test]
    fn recorded_ops_preserve_identity_and_outcome() {
        let rec = small_recording(4);
        let branches: Vec<bool> = rec
            .iter()
            .filter(|op| op.kind.is_cond_branch())
            .map(|op| op.taken)
            .collect();
        assert_eq!(branches, vec![true, false, true, false]);
    }

    #[test]
    fn packed_recording_matches_unpacked_stream() {
        // The equivalence layer: record through (Vec collect, Recorder)
        // simultaneously and require decode == the original stream.
        #[derive(Default)]
        struct Collect(Vec<MicroOp>);
        impl TraceConsumer for Collect {
            fn consume(&mut self, op: &MicroOp, _p: &Program) {
                self.0.push(*op);
            }
        }

        let xs: Vec<u64> = (0..64).collect();
        let mut tape = Tape::new((Collect::default(), Recorder::new()));
        let mut acc = tape.lit();
        for (i, x) in xs.iter().enumerate() {
            let v = tape.int_load(here!("k"), x);
            acc = tape.int_op(here!("k"), &[acc, v]);
            let sel = tape.select(here!("k"), &[acc, v], i % 2 == 0);
            tape.fp_store(here!("k"), x, sel);
            tape.branch(here!("k"), &[sel], i % 3 == 0);
        }
        let (program, (collect, rec)) = tape.finish();
        let recording = rec.into_recording(program);
        let decoded: Vec<MicroOp> = recording.iter().collect();
        assert_eq!(decoded, collect.0);
        assert!(recording.bytes_per_op() <= 24.0, "got {}", recording.bytes_per_op());
    }

    #[test]
    fn bank_replay_matches_sequential_replays() {
        let rec = small_recording(64);
        let mut bank = vec![InstrMix::default(); 3];
        rec.replay_bank(&mut bank);
        for b in &bank {
            let mut solo = InstrMix::default();
            rec.replay(&mut solo);
            assert_eq!(*b, solo, "bank consumer must equal a sequential replay");
        }
    }

    #[test]
    fn empty_recording_replays_cleanly() {
        let tape = Tape::new(Recorder::new());
        let (program, rec) = tape.finish();
        let recording = rec.into_recording(program);
        assert!(recording.is_empty());
        let mut mix = InstrMix::default();
        recording.replay(&mut mix);
        assert_eq!(mix.total(), 0);
    }
}
