//! Taped-execution instrumentation — the study's ATOM substitute.
//!
//! The original paper instruments Alpha binaries with the ATOM toolkit:
//! every executed instruction invokes analysis callbacks. We achieve the
//! same observability by writing the BioPerf kernels against the
//! [`Tracer`] trait: every load, store, ALU operation, and branch of the
//! hot code is both *executed natively* (the kernel computes its real
//! result in Rust) and *recorded* as a [`MicroOp`](bioperf_isa::MicroOp) carrying
//! static-instruction identity and SSA dataflow.
//!
//! Two tracer implementations exist:
//!
//! * [`Tape`] — records the stream and feeds it to a [`TraceConsumer`]
//!   (instruction-mix counters, cache simulator, branch predictors,
//!   dependence detectors, the timing model). This is the "instrumented
//!   binary".
//! * [`NullTracer`] — every method is an inlined no-op; kernels
//!   monomorphized against it run at native speed. This is the
//!   "uninstrumented binary" used for wall-clock benchmarking.
//!
//! [`Tape`] normalizes every recorded effective address (see
//! [`normalize`]) so traces — and everything derived from them, cache
//! miss counts included — are bit-identical across runs. [`Tape::raw`]
//! opts out. Need one kernel execution to feed several analyses? Wrap
//! them in a consumer tuple instead of re-tracing.
//!
//! # Example
//!
//! ```
//! use bioperf_isa::here;
//! use bioperf_trace::{consumers::InstrMix, Tape, Tracer};
//!
//! fn kernel<T: Tracer>(t: &mut T, xs: &[i64]) -> i64 {
//!     let mut sum = 0;
//!     let mut acc = t.lit();
//!     for x in xs {
//!         let v = t.int_load(here!("kernel"), x);
//!         acc = t.int_op(here!("kernel"), &[acc, v]);
//!         sum += *x;
//!     }
//!     sum
//! }
//!
//! let mut tape = Tape::new(InstrMix::default());
//! let sum = kernel(&mut tape, &[1, 2, 3]);
//! assert_eq!(sum, 6);
//! let (program, mix) = tape.finish();
//! assert_eq!(mix.loads(), 3);
//! assert_eq!(program.count_kind(bioperf_isa::OpKind::is_load), 1);
//! ```

pub mod consumers;
pub mod inject;
pub mod normalize;
pub mod packed;
pub mod replay;
pub mod segment;
pub mod tape;
pub mod tracer;

pub use consumers::InstrMix;
pub use normalize::{AddressNormalizer, NormalizerStats};
pub use packed::{
    BlockDecoder, OpBlock, PackedStream, BLOCK_OPS, REG_EVENT_DST, REG_EVENT_DST_LOAD,
    REG_EVENT_IDX_SHIFT, REG_EVENT_POS,
};
pub use replay::{BlockFeed, Recorder, Recording};
pub use segment::{
    segment_recording, SegmentError, SegmentedRecording, SpillRecorder, DEFAULT_SEGMENT_OPS,
};
pub use tape::Tape;
pub use tracer::{NullTracer, TraceConsumer, Tracer};

/// FNV-1a 64 over bytes: the checksum of the small on-disk records
/// (sweep checkpoints), the key of annotation streams, and the sweep's
/// run hash. It detects bit rot, not tampering; logic bugs are the
/// conformance harness's job. Trace segments, whose payloads run to
/// megabytes, use a word-wise variant instead (see [`segment`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64 over little-endian `u64` words, the trailing `len % 8`
/// bytes folded in byte-wise: the trace-segment payload checksum
/// (`bioperf-seg` version 2). One serial multiply per 8 bytes instead of
/// per byte. Each step `h = (h ^ w) * PRIME` is a bijection of `h` for a
/// fixed word, so like the byte-wise hash it detects every change
/// confined to one word (in particular every single-bit flip).
pub(crate) fn fnv1a_words(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut hash = FNV_OFFSET;
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        hash = (hash ^ w).wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_words_known_answers() {
        use super::fnv1a_words;
        // Below one word the hash is byte-wise FNV-1a (published vectors).
        assert_eq!(fnv1a_words(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_words(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_words(b"foobar"), 0x8594_4171_f739_67e8);
        // Whole words only.
        assert_eq!(fnv1a_words(b"01234567"), 0x923e_a2a7_104e_b9af);
        assert_eq!(fnv1a_words(b"0123456789abcdef"), 0x6773_56ce_06b7_8095);
        // Words plus a 6-byte and a 5-byte tail.
        assert_eq!(fnv1a_words(b"bioperf-seg v2 payload"), 0x2114_d213_efc0_9dfc);
        let ramp: Vec<u8> = (0..13).collect();
        assert_eq!(fnv1a_words(&ramp), 0x9b20_de7d_f858_17bd);
    }
}
