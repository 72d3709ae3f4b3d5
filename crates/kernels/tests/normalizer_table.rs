//! The address normalizer's recent-region table on a real kernel: it
//! must answer nearly every traced touch without walking the region map.
//! `NormalizerStats::table_misses` is an exact work counter, so this is
//! a deterministic check, free of timing noise.

use bioperf_isa::{MicroOp, Program};
use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_trace::{Tape, TraceConsumer};

/// Counts the address-carrying ops: one normalizer touch each.
#[derive(Default)]
struct Touches(u64);

impl TraceConsumer for Touches {
    fn consume(&mut self, op: &MicroOp, _p: &Program) {
        self.0 += u64::from(op.addr.is_some());
    }
}

/// The HMM kernels cycle through the most arrays per inner loop, so they
/// are the table's hardest case (16 entries miss on about 1.1% of
/// hmmsearch's touches; 8 would miss on about half).
#[test]
fn recent_region_table_answers_97_percent_of_hmmsearch_touches() {
    let mut tape = Tape::new(Touches::default());
    registry::run(&mut tape, ProgramId::Hmmsearch, Variant::Original, Scale::Small, 42);
    let misses = tape.normalizer_stats().expect("normalizing tape").table_misses;
    let (_, Touches(touches)) = tape.finish();
    assert!(touches > 1_000_000, "hmmsearch Small traced only {touches} touches");
    assert!(
        misses * 100 <= touches * 3,
        "{misses} of {touches} touches missed the recent-region table"
    );
}
