//! Mutation tests: the fuzzer must detect every catalogued fault within
//! its per-fault case budget.
//!
//! All arming happens inside ONE `#[test]` because the fault registry is
//! one process-global atomic: were each fault its own test, the harness
//! would run them on concurrent threads and the armed faults would
//! perturb each other's (and any other test's) optimized components.

use std::collections::HashSet;

use bioperf_conform::fuzz::{
    case_seed, check_stream, check_trace, generate_stream, platform_for_case, run_case,
};
use bioperf_conform::{fault, FaultId};
use bioperf_pipe::PlatformConfig;
use bioperf_trace::inject;

#[test]
fn every_catalogued_fault_is_detected_within_its_budget() {
    // All faults share one registry, so a duplicated code would arm two
    // faults at once: every code is distinct and nonzero, and arming a
    // fault activates its own hook only.
    let codes: HashSet<u8> = FaultId::ALL.iter().map(|f| f.code()).collect();
    assert_eq!(codes.len(), FaultId::ALL.len(), "two faults share a code");
    assert!(!codes.contains(&inject::NONE), "a fault uses the disarmed code");
    for f in FaultId::ALL {
        fault::arm(f);
        for g in FaultId::ALL {
            assert_eq!(inject::active(g.code()), f == g, "arming {f} activates {g}");
        }
    }
    fault::disarm();
    assert!(FaultId::ALL.iter().all(|f| !inject::active(f.code())), "disarm left a fault armed");

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

    // A trace of at least 8192 ops scales the block, segment and
    // pipeline sizes (unit = len / 4096 ≥ 2), the regime the real
    // program traces run in. It must be clean on all four platforms,
    // and every op-level fault must still be caught at those sizes.
    let mut long = Vec::new();
    for index in 0.. {
        if long.len() >= 8192 {
            break;
        }
        long.extend(generate_stream(case_seed(1, index)));
    }
    let platforms = PlatformConfig::all();
    assert_eq!(check_trace(&long, &platforms), None, "clean {}-op trace diverged", long.len());
    for f in FaultId::ALL {
        if f == FaultId::SweepMergeOrder {
            continue;
        }
        fault::arm(f);
        let divergence = check_trace(&long, &platforms);
        fault::disarm();
        assert!(divergence.is_some(), "fault {f} escaped the {}-op trace", long.len());
    }
}
