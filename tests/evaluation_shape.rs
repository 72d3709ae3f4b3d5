//! End-to-end assertions on the Table 8 / Figure 9 evaluation: who wins,
//! and roughly where. Run at Test scale; the platform ordering is
//! scale-stable.

use bioperf_loadchar::core::evaluate::{evaluate_program, EvalMatrix};
use bioperf_loadchar::core::orchestrate::evaluate_all;
use bioperf_loadchar::kernels::{ProgramId, Scale};
use bioperf_loadchar::pipe::PlatformConfig;

/// Table 8 at Test scale: every transformed program on the four models.
fn table8() -> EvalMatrix {
    evaluate_all(&ProgramId::TRANSFORMED, &PlatformConfig::all(), Scale::Test, 42, 0).expect("evaluate")
}

/// Section 5 headline: hmmsearch gains substantially on the Alpha.
#[test]
fn hmmsearch_alpha_speedup_is_large() {
    let cell = evaluate_program(ProgramId::Hmmsearch, PlatformConfig::alpha21264(), Scale::Test, 42);
    assert!(cell.speedup() > 1.3, "Alpha hmmsearch speedup {:.2}", cell.speedup());
}

/// The in-order Itanium still speeds up (Section 5's in-order result).
#[test]
fn hmmsearch_itanium_speedup_is_positive() {
    let cell = evaluate_program(ProgramId::Hmmsearch, PlatformConfig::itanium2(), Scale::Test, 42);
    assert!(cell.speedup() > 1.05, "Itanium hmmsearch speedup {:.2}", cell.speedup());
}

/// The register-scarce, 2-cycle-L1 Pentium 4 benefits least of the
/// out-of-order machines (the paper's register-pressure argument).
#[test]
fn pentium4_benefits_least() {
    let m = table8();
    let p4 = m.harmonic_mean_speedup("Pentium 4");
    for other in ["Alpha 21264", "PowerPC G5"] {
        let hm = m.harmonic_mean_speedup(other);
        assert!(hm > p4, "{other} ({hm:.3}) should beat Pentium 4 ({p4:.3})");
    }
}

/// The Alpha has the largest harmonic-mean speedup (paper Figure 9).
#[test]
fn alpha_wins_overall() {
    let m = table8();
    let alpha = m.harmonic_mean_speedup("Alpha 21264");
    assert!(alpha > 1.1, "Alpha harmonic mean {alpha:.3}");
    for other in ["PowerPC G5", "Pentium 4", "Itanium 2"] {
        assert!(
            alpha > m.harmonic_mean_speedup(other),
            "Alpha should top {other}: {alpha:.3} vs {:.3}",
            m.harmonic_mean_speedup(other)
        );
    }
}

/// The hmm programs gain more than the small-transformation programs
/// (predator/clustalw/dnapenny) on the Alpha, as in Table 8.
#[test]
fn hmm_programs_gain_most_on_alpha() {
    let alpha = PlatformConfig::alpha21264();
    let hmm = evaluate_program(ProgramId::Hmmsearch, alpha, Scale::Test, 42).speedup();
    for modest in [ProgramId::Predator, ProgramId::Clustalw, ProgramId::Dnapenny] {
        let s = evaluate_program(modest, alpha, Scale::Test, 42).speedup();
        assert!(hmm > s, "hmmsearch ({hmm:.2}) should beat {modest} ({s:.2})");
    }
}

/// Simulated L1 behaviour in the evaluation runs matches Table 2: the
/// programs are latency-bound, not miss-bound, on every platform.
#[test]
fn evaluation_runs_stay_l1_resident() {
    for platform in PlatformConfig::all() {
        let cell = evaluate_program(ProgramId::Hmmsearch, platform, Scale::Test, 42);
        let miss = cell.original.cache.l1.load_miss_ratio();
        assert!(miss < 0.06, "{}: L1 miss rate {miss}", platform.name);
    }
}

/// Speedups come mainly from branch behaviour: the transformed variant
/// never mispredicts more than the original on if-converting platforms.
#[test]
fn transformed_mispredicts_less_where_if_converted() {
    for platform in [PlatformConfig::alpha21264(), PlatformConfig::itanium2()] {
        let cell = evaluate_program(ProgramId::Hmmsearch, platform, Scale::Test, 42);
        assert!(
            cell.transformed.mispredicts <= cell.original.mispredicts,
            "{}: {} vs {}",
            platform.name,
            cell.transformed.mispredicts,
            cell.original.mispredicts
        );
    }
}
