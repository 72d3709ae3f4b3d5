//! Mutation tests: the fuzzer must detect every catalogued fault within
//! its per-fault case budget.
//!
//! All arming happens inside ONE `#[test]` because the injection hooks
//! are process-global atomics: were each fault its own test, the harness
//! would run them on concurrent threads and the armed faults would
//! perturb each other's (and any other test's) optimized components.

use bioperf_conform::fuzz::{check_stream, platform_for_case, run_case};
use bioperf_conform::{fault, FaultId};

#[test]
fn every_catalogued_fault_is_detected_within_its_budget() {
    assert!(
        fault::injection_compiled(),
        "tests require the conform crate's default `inject` feature"
    );

    for f in FaultId::ALL {
        // The sweep's cell merge runs only in the design-space sweep in
        // bioperf-core, above the op-level fuzzer's horizon — no
        // micro-op stream can expose it. Its detector is the sweep
        // self-check run_conform performs (see
        // crates/core/tests/sweep_inject.rs and the CI mutation sweep).
        if f == FaultId::SweepMergeOrder {
            continue;
        }
        fault::arm(f);
        let mut detected = None;
        for index in 0..f.budget() {
            let outcome = run_case(1, index);
            if let Some(counterexample) = outcome.divergence {
                detected = Some((index, outcome.platform, counterexample));
                break;
            }
        }
        fault::disarm();

        let (index, platform, counterexample) = detected
            .unwrap_or_else(|| panic!("fault {f} escaped {} fuzz cases", f.budget()));

        // The shrunk witness must still fail (under the fault) and be
        // 1-minimal: removing any single op makes the divergence vanish.
        fault::arm(f);
        let cfg = platform_for_case(index);
        assert_eq!(cfg.name, platform);
        assert!(
            check_stream(&counterexample.ops, &cfg).is_some(),
            "fault {f}: shrunk witness of {} ops no longer diverges",
            counterexample.ops.len()
        );
        for skip in 0..counterexample.ops.len() {
            let mut shorter = counterexample.ops.clone();
            shorter.remove(skip);
            assert!(
                check_stream(&shorter, &cfg).is_none(),
                "fault {f}: witness is not 1-minimal (op {skip} of {} is removable)",
                counterexample.ops.len()
            );
        }
        fault::disarm();

        println!(
            "fault {f}: detected at case {index} on {platform} ({} in {}-op witness)",
            counterexample.component,
            counterexample.ops.len()
        );
    }

    // Disarmed again, the same seeds must be clean.
    for index in 0..8u64 {
        assert!(run_case(1, index).divergence.is_none(), "residual armed fault");
    }
}
