//! Mutation tests for the sweep-level faults: `sweep-merge-order`
//! rotates each bank job's per-cell results before the merge,
//! `factored-annotation-skew` starts the factored sweep's miss-level
//! annotation cursor off by one, and `timing-fill-overshare` shares one
//! latency fill across lanes with different latency tables. The merge
//! sits above the op-level differential checks; the other two are also
//! caught by the fuzzer's factored pipeline leg. The conformance harness
//! detects all three through its sweep self-checks — tiny sweeps through
//! the production paths diffed against oracles — so these tests live
//! here, next to the sweep.
//!
//! All arming tests share one `#[test]` body because the fault registry
//! is one process-global atomic (the same reasoning as the conform
//! crate's serial mutation test).

use bioperf_core::{
    run_conform, sweep_factor_self_check, sweep_merge_self_check, ConformConfig, FaultId,
};

#[test]
fn sweep_faults_are_detected_and_clean_build_passes() {
    // Armed: the merge self-check alone (no fuzz cases needed) must
    // flag the rotated merge.
    let armed = run_conform(&ConformConfig {
        cases: 4,
        seed: 42,
        jobs: 1,
        inject: Some(FaultId::SweepMergeOrder),
        check_programs: false,
        out_dir: None,
    })
    .expect("conform run");
    assert!(
        armed.first_detection().is_some(),
        "sweep-merge-order fault escaped the sweep self-check"
    );
    let ce = armed.divergent.last().and_then(|o| o.divergence.as_ref()).expect("counterexample");
    assert_eq!(ce.component, "sweep-merge");

    // Armed: a skewed annotation cursor, or one latency fill shared
    // across the self-check grid's two latency triples, must be flagged
    // by the factored-vs-unfactored diff (the oracle path reads no
    // annotations, so only the factored measurements move).
    for fault in [FaultId::FactoredAnnotationSkew, FaultId::TimingFillOvershare] {
        let armed = run_conform(&ConformConfig {
            cases: 4,
            seed: 42,
            jobs: 1,
            inject: Some(fault),
            check_programs: false,
            out_dir: None,
        })
        .expect("conform run");
        assert!(
            armed.first_detection().is_some(),
            "{fault} fault escaped the sweep-factor self-check"
        );
        let ce =
            armed.divergent.last().and_then(|o| o.divergence.as_ref()).expect("counterexample");
        assert_eq!(ce.component, "sweep-factor", "{fault}");
    }

    // Disarmed, the same self-checks are clean.
    assert_eq!(sweep_merge_self_check(42), None);
    assert_eq!(sweep_factor_self_check(42), None);
}
