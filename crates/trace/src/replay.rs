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

/// A trace consumer that hands the live op stream to an inner consumer
/// in [`BLOCK_OPS`]-op [`OpBlock`]s, with no recording and no decode:
/// the block a [`Recording`] replay would decode is built op by op as the
/// kernel runs ([`OpBlock::push`]), handed to the inner consumer's
/// [`TraceConsumer::consume_block`] when full, and the last partial
/// block is flushed in [`finish`](TraceConsumer::finish). For a trace
/// that is read once this does the work of [`Recorder`] plus
/// [`Recording::replay_bank`] without the packed encode and decode
/// between them, and holds one block instead of the whole trace.
///
/// Capacity and overflow mirror [`Recorder`]: at most `capacity` ops
/// reach the inner consumer, the rest are dropped and
/// [`overflowed`](Self::overflowed) is set, so a capped run fails the
/// same way whether its trace is recorded or fed.
///
/// A flushed block is passed with the static program *so far*, which
/// interns every op in the block; consumers that need the final table
/// must record instead.
///
/// # Example
///
/// ```
/// use bioperf_isa::here;
/// use bioperf_trace::{consumers::InstrMix, BlockFeed, Tape, Tracer};
///
/// let mut tape = Tape::new(BlockFeed::new(InstrMix::default(), 1 << 20));
/// let x = 5u64;
/// let v = tape.int_load(here!("k"), &x);
/// tape.int_op(here!("k"), &[v]);
/// let (_, feed) = tape.finish();
/// assert!(!feed.overflowed());
/// assert_eq!(feed.into_inner().total(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BlockFeed<C> {
    inner: C,
    block: OpBlock,
    fed: usize,
    capacity: usize,
    overflowed: bool,
}

impl<C: TraceConsumer> BlockFeed<C> {
    /// A feed into `inner` that passes on at most `capacity` ops.
    pub fn new(inner: C, capacity: usize) -> Self {
        let block = OpBlock::with_capacity(BLOCK_OPS.min(capacity));
        Self { inner, block, fed: 0, capacity, overflowed: false }
    }

    /// Whether the trace exceeded the capacity (the inner consumer then
    /// saw only a prefix of the run).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Ops passed on (or buffered to be) so far.
    pub fn len(&self) -> usize {
        self.fed
    }

    /// Whether no op was passed on.
    pub fn is_empty(&self) -> bool {
        self.fed == 0
    }

    /// The inner consumer.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: TraceConsumer> TraceConsumer for BlockFeed<C> {
    #[inline]
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        if self.fed == self.capacity {
            self.overflowed = true;
            return;
        }
        self.fed += 1;
        self.block.push(op);
        if self.block.len() == BLOCK_OPS {
            self.inner.consume_block(&self.block, program);
            self.block.reset();
        }
    }

    fn finish(&mut self, program: &Program) {
        if !self.block.is_empty() && !crate::inject::active(crate::inject::FEED_TAIL) {
            self.inner.consume_block(&self.block, program);
            self.block.reset();
        }
        self.inner.finish(program);
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
    /// This is the replay kernel of every trace that is read more than
    /// once or from disk (the sweep's cache pass and timing lanes, the
    /// spilled suite's platform bank): one packed decode drives every
    /// consumer in the bank, instead of each consumer paying the decode
    /// again. A trace read once by one bank needs no recording at all;
    /// [`BlockFeed`] builds the same blocks live. Ops are delivered in
    /// [`BLOCK_OPS`]-sized
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
    /// the property-test hook (block size must never change any result).
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

    /// Every block a consumer receives, by its `Debug` rendering (ops
    /// and every filter column).
    #[derive(Default)]
    struct Blocks(Vec<String>);
    impl TraceConsumer for Blocks {
        fn consume(&mut self, _op: &MicroOp, _p: &Program) {
            unreachable!("feeds and replays deliver blocks");
        }
        fn consume_block(&mut self, block: &OpBlock, _p: &Program) {
            self.0.push(format!("{block:?}"));
        }
    }

    /// A trace of two full blocks and a partial tail, recorded and fed
    /// from one execution.
    fn fed_and_recorded(capacity: usize) -> (BlockFeed<Blocks>, Recording) {
        let xs: Vec<u64> = (0..64).collect();
        let mut tape = Tape::new((BlockFeed::new(Blocks::default(), capacity), Recorder::new()));
        let mut acc = tape.lit();
        for i in 0..(2 * BLOCK_OPS + 17) / 3 + 1 {
            let v = tape.int_load(here!("k"), &xs[i % 64]);
            acc = tape.int_op(here!("k"), &[acc, v]);
            tape.branch(here!("k"), &[acc], i % 3 == 0);
        }
        let (program, (feed, rec)) = tape.finish();
        (feed, rec.into_recording(program))
    }

    #[test]
    fn block_feed_builds_the_blocks_a_replay_decodes() {
        let (feed, recording) = fed_and_recorded(DEFAULT_CAPACITY);
        assert!(!feed.overflowed());
        assert_eq!(feed.len(), recording.len());
        assert_ne!(recording.len() % BLOCK_OPS, 0, "the trace ends in a partial block");
        let mut replayed = Blocks::default();
        recording.replay(&mut replayed);
        let fed = feed.into_inner();
        assert_eq!(fed.0.len(), 3, "two full blocks and the flushed tail");
        assert_eq!(fed.0, replayed.0);
    }

    #[test]
    fn block_feed_capacity_overflow_is_flagged_like_the_recorder() {
        let (feed, _) = fed_and_recorded(BLOCK_OPS + 10);
        assert!(feed.overflowed());
        assert_eq!(feed.len(), BLOCK_OPS + 10);
        let blocks = feed.into_inner().0;
        assert_eq!(blocks.len(), 2, "one full block and the capped tail");
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
