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
pub use replay::{Recorder, Recording};
pub use segment::{
    segment_recording, SegmentError, SegmentedRecording, SpillRecorder, DEFAULT_SEGMENT_OPS,
};
pub use tape::Tape;
pub use tracer::{NullTracer, TraceConsumer, Tracer};

/// FNV-1a 64: the one dependency-free checksum behind every on-disk
/// format in the workspace (trace segments, annotation streams, sweep
/// checkpoints) and the sweep's run hash. It detects bit rot, not
/// tampering; logic bugs are the conformance harness's job.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
