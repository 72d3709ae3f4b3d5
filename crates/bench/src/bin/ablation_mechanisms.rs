//! Ablation study over the timing model's mechanisms (the design choices
//! DESIGN.md calls out): which modeled effect contributes how much of the
//! simulated speedup, per platform.
//!
//! Mechanisms toggled:
//! * **if-conversion** — whether the transformed code's selects execute
//!   as conditional moves or as compare-and-branch,
//! * **register pressure** — the LRU spill model (given effectively
//!   unlimited registers),
//! * **L1 latency** — counterfactual single-cycle L1 (the paper's core
//!   claim: the benefit comes from hiding the multi-cycle hit latency),
//! * **misprediction penalty** — a hypothetical free redirect.

use bioperf_bench::{banner, bench_args, evaluate_or_exit, JsonReport};
use bioperf_core::report::TextTable;
use bioperf_kernels::{ProgramId, Scale};
use bioperf_pipe::PlatformConfig;

type Tweak = fn(&mut PlatformConfig);

/// Each row's label and its tweak to a copy of every Table 7 platform.
const TWEAKS: [(&str, Tweak); 7] = [
    ("baseline model", |_| {}),
    ("force if-conversion ON", |c| c.if_conversion = true),
    ("force if-conversion OFF", |c| c.if_conversion = false),
    ("no register pressure (256 regs)", |c| c.logical_regs = 256),
    ("single-cycle L1", |c| {
        c.int_load_latency = 1;
        c.fp_load_latency = 2;
    }),
    ("free mispredicts (penalty 0)", |c| c.mispredict_penalty = 0),
    ("double mispredict penalty", |c| c.mispredict_penalty *= 2),
];

fn main() {
    let args = bench_args("ablation_mechanisms", Scale::Small);
    let scale = args.scale;
    banner("Ablation: which modeled mechanism carries the speedup", scale);
    let program = ProgramId::Hmmsearch;
    println!("program: {program}\n");

    // Every tweak of every platform in one bank per variant: two kernel
    // executions for the whole table. Cells come back in member order.
    let base = PlatformConfig::all();
    let platforms: Vec<PlatformConfig> = TWEAKS
        .iter()
        .flat_map(|(_, tweak)| base.map(|mut cfg| { tweak(&mut cfg); cfg }))
        .collect();
    let matrix = evaluate_or_exit("ablation_mechanisms", &[program], &platforms, scale);
    assert_eq!(matrix.cells.len(), platforms.len(), "{program} runs on every platform");

    let mut table = TextTable::new(&["variant", "Alpha 21264", "PowerPC G5", "Pentium 4", "Itanium 2"]);
    for ((label, _), cells) in TWEAKS.iter().zip(matrix.cells.chunks(base.len())) {
        let mut row = vec![label.to_string()];
        row.extend(cells.iter().map(|c| format!("{:+.1}%", (c.speedup() - 1.0) * 100.0)));
        table.row_owned(row);
    }
    println!("{}", table.render());

    let mut json = JsonReport::new("ablation_mechanisms", Some(scale));
    json.table("mechanisms", &table);
    json.note("speedup of the transformed hmmsearch under each model tweak");
    json.write_if_requested(&args);

    println!("Reading guide:");
    println!(" * forcing if-conversion ON lifts the PowerPC/Pentium 4 to Alpha-like gains,");
    println!("   and forcing it OFF collapses the Alpha's — most of the cross-platform");
    println!("   spread is whether the ISA/compiler realizes the selects branchlessly;");
    println!(" * a single-cycle L1 trims the gain: part of the benefit is pure latency");
    println!("   hiding, and the rest is the load latency's contribution to *branch*");
    println!("   resolution delay, which the penalty rows scale directly;");
    println!(" * removing register pressure mainly helps the 8-register Pentium 4.");
}
