//! Table 8: simulated runtime (cycles) of the original and
//! load-transformed programs on the four platform models.

use bioperf_bench::{banner, bench_args, evaluate_or_exit, JsonReport};
use bioperf_core::report::TextTable;
use bioperf_kernels::{ProgramId, Scale};
use bioperf_pipe::PlatformConfig;

fn main() {
    let args = bench_args("table8_runtime", Scale::Large);
    let scale = args.scale;
    banner("Table 8: simulated cycles, original vs load-transformed", scale);

    let matrix = evaluate_or_exit("table8_runtime", &ProgramId::TRANSFORMED, &PlatformConfig::all(), scale);
    let platforms: Vec<&str> = PlatformConfig::all().iter().map(|p| p.name).collect();

    let mut header = vec!["program", "variant"];
    header.extend(platforms.iter());
    let mut table = TextTable::new(&header);

    for program in ProgramId::TRANSFORMED {
        for (variant_idx, variant_name) in ["original", "load-transformed"].iter().enumerate() {
            let mut row = vec![
                if variant_idx == 0 { program.name().to_string() } else { String::new() },
                variant_name.to_string(),
            ];
            for platform in &platforms {
                row.push(match matrix.cell(program, platform) {
                    None => "n.a.".to_string(),
                    Some(c) => {
                        let r = if variant_idx == 0 { &c.original } else { &c.transformed };
                        format!("{:.2}M", r.cycles as f64 / 1e6)
                    }
                });
            }
            table.row_owned(row);
        }
    }
    println!("{}", table.render());
    println!("(dnapenny / Itanium is n.a. — the paper could not compile it there either.)");
    println!("The paper reports wall-clock seconds on real machines; this reproduction");
    println!("reports simulated cycles on the Table 7 models. Compare shapes, not units.");
    println!("Run fig9_speedup for the speedups and harmonic means.");

    let mut json = JsonReport::new("table8_runtime", Some(scale));
    json.table("table8", &table);
    json.note("simulated cycles on the Table 7 models, not wall-clock seconds");
    json.write_if_requested(&args);
}
