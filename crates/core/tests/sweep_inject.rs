//! Mutation tests for the sweep-level faults: `sweep-merge-order`
//! rotates each program's per-cell results before the merge,
//! `timing-fill-overshare` shares one latency fill across lanes with
//! different latency tables, and `refine-stale-fork` forks a diverging
//! key's lanes after the block ran. The merge sits above the op-level
//! differential checks; the other two are also caught by the fuzzer's
//! factored and keyed pipeline legs. The conformance harness detects all
//! three through its one sweep self-check — a tiny factored sweep of two
//! live passes per job, diffed against direct per-cell replays — so
//! these tests live here, next to the sweep.
//!
//! All arming tests share one `#[test]` body because the fault registry
//! is one process-global atomic (the same reasoning as the conform
//! crate's serial mutation test).

use bioperf_core::{run_conform, sweep_self_check, ConformConfig, FaultId};

#[test]
fn sweep_faults_are_detected_and_clean_build_passes() {
    // Armed: the sweep self-check alone must flag a rotated merge, one
    // latency fill shared across the self-check grid's latency triples,
    // or a stale fork (the direct replays fork nothing, share no fill
    // and merge nothing, so only the sweep's measurements move). It
    // reports after the fuzz cases, at index `cases`.
    for fault in [FaultId::SweepMergeOrder, FaultId::TimingFillOvershare, FaultId::RefineStaleFork] {
        let armed = run_conform(&ConformConfig {
            cases: 4,
            seed: 42,
            jobs: 1,
            inject: Some(fault),
            check_programs: false,
            out_dir: None,
        })
        .expect("conform run");
        let last = armed
            .divergent
            .last()
            .unwrap_or_else(|| panic!("{fault} fault escaped the sweep self-check"));
        assert_eq!(last.index, 4, "{fault}");
        let ce = last.divergence.as_ref().expect("counterexample");
        assert_eq!(ce.component, "sweep", "{fault}");
    }

    // Disarmed, the same self-check is clean.
    assert_eq!(sweep_self_check(42), None);
}
