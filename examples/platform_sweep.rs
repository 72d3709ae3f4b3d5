//! Platform sweep: simulate one program's original and load-transformed
//! variants across the four Table 7 platform models, plus a hypothetical
//! single-cycle-L1 machine to isolate the paper's claim that the L1 *hit*
//! latency is the bottleneck.
//!
//! ```sh
//! cargo run --release --example platform_sweep [hmmsearch|predator|...]
//! ```

use bioperf_loadchar::core::orchestrate::evaluate_all;
use bioperf_loadchar::kernels::{ProgramId, Scale};
use bioperf_loadchar::pipe::PlatformConfig;

fn main() {
    let program = std::env::args()
        .nth(1)
        .and_then(|n| ProgramId::from_name(&n))
        .unwrap_or(ProgramId::Hmmsearch);
    assert!(
        program.is_transformable(),
        "{program} has no load-transformed variant; pick one of the six transformed programs"
    );
    println!("sweeping {program} across platform models (Small scale)...\n");
    println!(
        "{:<24} {:>14} {:>14} {:>9}",
        "platform", "original (cyc)", "transformed", "speedup"
    );

    let mut platforms = PlatformConfig::all().to_vec();
    // The counterfactual the paper argues from: an Alpha whose L1 hit
    // took a single cycle would have far less to gain.
    let mut single_cycle = PlatformConfig::alpha21264();
    single_cycle.name = "Alpha w/ 1-cycle L1";
    single_cycle.int_load_latency = 1;
    single_cycle.fp_load_latency = 2;
    platforms.push(single_cycle);

    // One execution per variant feeds every model at once; a cell the
    // paper could not run (dnapenny on the Itanium) is left out.
    let matrix = evaluate_all(&[program], &platforms, Scale::Small, 42, 0).expect("evaluation");
    for cell in &matrix.cells {
        println!(
            "{:<24} {:>14} {:>14} {:>+8.1}%",
            cell.platform,
            cell.original.cycles,
            cell.transformed.cycles,
            (cell.speedup() - 1.0) * 100.0
        );
    }
    println!("\nExpected shape: the 3-cycle-L1 out-of-order machines gain the most; the");
    println!("hypothetical 1-cycle-L1 Alpha gains much less — the benefit really does");
    println!("come from hiding the multi-cycle L1 hit latency.");
}
