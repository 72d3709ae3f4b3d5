//! The committed artifacts are exactly what the CLI writes.
//!
//! `BENCH_sweep.json` must equal, byte for byte, what `bioperf-loadchar
//! sweep --out` writes with default flags. `BENCH_suite.json` must match
//! what `bioperf-loadchar suite --metrics` writes with default flags in
//! its schema tag, its top-level and `run` key lists, and its whole
//! `deterministic` section; the `run` section's values (worker count,
//! wall-clock timings, throughput) depend on the machine and are not
//! compared. The CLI is the only producer of either file, so a model
//! change that moves a pinned number fails here until the file is
//! regenerated with the command the failure names.
//!
//! The schema pins in `bench_suite_schema.rs` and `cli_sweep.rs` check
//! the committed documents' shape on their own.

use std::path::Path;
use std::process::Command;

use bioperf_metrics::{json, Json};

/// Runs `bioperf-loadchar <args> <temp file>` and returns what it wrote.
fn fresh(args: &[&str], file: &str) -> String {
    let out = std::env::temp_dir()
        .join(format!("bioperf-artifact-sync-{}-{file}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_bioperf-loadchar"))
        .args(args)
        .arg(&out)
        .output()
        .expect("binary runs");
    assert!(run.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&run.stderr));
    let text = std::fs::read_to_string(&out).expect("the run wrote its document");
    std::fs::remove_file(&out).ok();
    text
}

fn read_committed(name: &str, regenerate: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(name))
        .unwrap_or_else(|e| panic!("{name} must be committed (regenerate: `{regenerate}`): {e}"))
}

/// The path to the first value where `fresh` and `old` differ, with
/// both values, or `None` if they are equal.
fn first_difference(fresh: &Json, old: &Json, path: &str) -> Option<String> {
    match (fresh, old) {
        (Json::Object(a), Json::Object(b)) => {
            let (ka, kb) = (fresh.keys(), old.keys());
            if ka != kb {
                return Some(format!("{path}: fresh keys {ka:?}, committed keys {kb:?}"));
            }
            a.iter()
                .zip(b)
                .find_map(|((key, x), (_, y))| first_difference(x, y, &format!("{path}.{key}")))
        }
        (Json::Array(a), Json::Array(b)) if a.len() == b.len() => a
            .iter()
            .zip(b)
            .enumerate()
            .find_map(|(i, (x, y))| first_difference(x, y, &format!("{path}[{i}]"))),
        _ if fresh == old => None,
        _ => Some(format!("{path}: fresh {}, committed {}", fresh.render(), old.render())),
    }
}

#[test]
fn committed_sweep_artifact_is_what_sweep_out_writes() {
    const REGENERATE: &str = "cargo run --release -- sweep --out BENCH_sweep.json";
    let old = read_committed("BENCH_sweep.json", REGENERATE);
    let new = fresh(&["sweep", "--out"], "sweep.json");
    if new != old {
        let at = match new.lines().zip(old.lines()).enumerate().find(|(_, (a, b))| a != b) {
            Some((i, (a, b))) => format!("line {}: fresh {a:?}, committed {b:?}", i + 1),
            None => {
                format!("fresh {} lines, committed {}", new.lines().count(), old.lines().count())
            }
        };
        panic!("BENCH_sweep.json is out of date ({at}); regenerate with `{REGENERATE}`");
    }
}

#[test]
fn committed_suite_artifact_is_what_suite_metrics_writes() {
    const REGENERATE: &str = "cargo run --release -- suite --metrics BENCH_suite.json";
    let old = json::parse(&read_committed("BENCH_suite.json", REGENERATE))
        .expect("BENCH_suite.json parses");
    let new = json::parse(&fresh(&["suite", "--metrics"], "suite.json"))
        .expect("the fresh suite document parses");
    let section = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
    let (new_run, old_run) = (section(&new, "run"), section(&old, "run"));
    let drift = if new.keys() != old.keys() {
        Some(format!("fresh top-level keys {:?}, committed {:?}", new.keys(), old.keys()))
    } else if new_run.keys() != old_run.keys() {
        Some(format!("fresh run keys {:?}, committed {:?}", new_run.keys(), old_run.keys()))
    } else {
        ["schema", "deterministic"]
            .into_iter()
            .find_map(|key| first_difference(&section(&new, key), &section(&old, key), key))
    };
    if let Some(drift) = drift {
        panic!("BENCH_suite.json is out of date ({drift}); regenerate with `{REGENERATE}`");
    }
}
