//! Pins the O(1) intrusive-LRU `RegFile` to the scanned move-to-front
//! reference it replaced — the conformance crate's [`RefRegFile`], the
//! single canonical oracle — on *real program traces*: one multi-size
//! file is driven with the exact reference sequence the plan pass issues
//! (every source, every destination) over the Pentium 4, Alpha and
//! Itanium 2 sizes together, and each size must agree with its own
//! reference file on every residency answer (a source is a `touch` plus
//! an `insert` on a miss, a destination an `insert`) and resident count.
//! Identical eviction sequences are what make every `SimResult`
//! bit-identical to the pre-rewrite outputs. Synthetic adversarial
//! sequences live in the conform crate's `tests/refmodel.rs`.

use bioperf_conform::RefRegFile;
use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_pipe::{PlatformConfig, RegFile};
use bioperf_trace::{Recorder, Tape};

#[test]
fn lru_matches_scanned_reference_on_real_traces() {
    // Heaviest register-churn programs of the suite, on the extreme file
    // sizes and the one between: the 8-register Pentium 4 (constant
    // eviction), the 32-register Alpha, and the 128-register Itanium 2
    // (where the old scan was most expensive).
    let programs = [ProgramId::Hmmsearch, ProgramId::Blast, ProgramId::Clustalw];
    let platforms = [PlatformConfig::pentium4(), PlatformConfig::alpha21264(), PlatformConfig::itanium2()];
    let regs: Vec<u32> = platforms.iter().map(|p| p.logical_regs).collect();
    for program in programs {
        for variant in Variant::ALL {
            if variant == Variant::LoadTransformed && !program.is_transformable() {
                continue;
            }
            let mut tape = Tape::new(Recorder::new());
            registry::run(&mut tape, program, variant, Scale::Test, 42);
            let (prog, rec) = tape.finish();
            assert!(!rec.overflowed());
            let recording = rec.into_recording(prog);
            let mut fast = RegFile::new(&regs);
            // Ascending capacity, like the optimized file's mask bits.
            let mut slow: Vec<RefRegFile> = regs.iter().map(|&r| RefRegFile::new(r)).collect();
            let sizes: Vec<usize> = slow.iter().map(RefRegFile::capacity).collect();
            assert_eq!(fast.sizes(), sizes, "three distinct sizes, ascending");
            let mut step = 0u64;
            for op in recording.iter() {
                let sources = op.sources().map(|v| (v.0, false));
                for (v, is_dst) in sources.chain(op.dst.map(|d| (d.0, true))) {
                    let mut expect = 0u32;
                    for (k, file) in slow.iter_mut().enumerate() {
                        let resident = if is_dst {
                            // An insert neither grows the file nor evicts
                            // exactly when the value was already resident.
                            let before = file.len();
                            file.insert(v).is_none() && file.len() == before
                        } else {
                            let hit = file.touch(v);
                            if !hit {
                                file.insert(v);
                            }
                            hit
                        };
                        expect |= (resident as u32) << k;
                    }
                    assert_eq!(
                        fast.reference(v),
                        expect,
                        "{program:?}/{variant:?} step {step} ({})",
                        if is_dst { "insert" } else { "touch" }
                    );
                    step += 1;
                }
            }
            for (k, file) in slow.iter().enumerate() {
                assert_eq!(fast.residents(k), file.len(), "{program:?}/{variant:?} size {}", sizes[k]);
            }
            assert!(step > 10_000, "{program:?}/{variant:?}: trace too small to pin anything");
        }
    }
}
