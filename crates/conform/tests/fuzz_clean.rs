//! A sizable seeded fuzz run against the clean (unmutated) build must
//! report zero divergences on every platform.
//!
//! This is the same differential run `conform --cases N --seed S`
//! performs; 300 cases round-robin all four platforms 75 times each.

use bioperf_conform::fuzz::run_case;

#[test]
fn clean_build_survives_three_hundred_seeded_cases() {
    bioperf_conform::fault::disarm();
    for index in 0..300u64 {
        let outcome = run_case(42, index);
        assert!(
            outcome.divergence.is_none(),
            "case {index} (seed {:#x}, platform {}, {} ops) diverged: {:?}",
            outcome.seed,
            outcome.platform,
            outcome.ops,
            outcome.divergence
        );
    }
}

#[test]
fn cases_are_reproducible_from_their_seed() {
    bioperf_conform::fault::disarm();
    for index in [0u64, 17, 63] {
        let first = run_case(9, index);
        let second = run_case(9, index);
        assert_eq!(first.seed, second.seed);
        assert_eq!(first.platform, second.platform);
        assert_eq!(first.ops, second.ops);
        // Regenerating from the recorded seed yields the same stream.
        let ops = bioperf_conform::fuzz::stream_for_case(index, first.seed);
        assert_eq!(ops.len(), first.ops);
    }
}
