//! Figure 9: speedup of the load-transformed code over the original, per
//! program and platform, with harmonic means.

use bioperf_bench::{banner, bench_args, evaluate_or_exit, JsonReport};
use bioperf_kernels::{ProgramId, Scale};
use bioperf_pipe::PlatformConfig;

fn main() {
    let args = bench_args("fig9_speedup", Scale::Large);
    let scale = args.scale;
    banner("Figure 9: speedup of load-transformed over original code", scale);

    let matrix = evaluate_or_exit("fig9_speedup", &ProgramId::TRANSFORMED, &PlatformConfig::all(), scale);
    let platforms: Vec<&str> = PlatformConfig::all().iter().map(|p| p.name).collect();

    let mut table = matrix.speedup_table(&ProgramId::TRANSFORMED, &platforms);
    let mut row = vec!["harmonic mean".to_string()];
    for platform in &platforms {
        let hm = matrix.harmonic_mean_speedup(platform);
        row.push(format!("{:+.1}%", (hm - 1.0) * 100.0));
    }
    table.row_owned(row);
    println!("{}", table.render());
    println!("Paper Figure 9 harmonic means: Alpha +25.4%, PowerPC +15.1%, Pentium 4 +4.3%,");
    println!("Itanium +12.7% — with hmmsearch peaking at +92% on the Alpha. Expected shape:");
    println!("the hmm programs dominate, the Alpha benefits most, the register-scarce");
    println!("2-cycle-L1 Pentium 4 benefits least, and the in-order Itanium still gains.");

    let mut json = JsonReport::new("fig9_speedup", Some(scale));
    json.table("figure9", &table);
    json.note("paper harmonic means: Alpha +25.4%, PowerPC +15.1%, P4 +4.3%, Itanium +12.7%");
    json.write_if_requested(&args);
}
