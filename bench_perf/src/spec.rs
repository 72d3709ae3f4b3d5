//! The benchmark's metric definitions, the `--check` validation of
//! `BENCHMARK.json`, and the values pinned in `reference.json`.

use bioperf_metrics::{json, Json};

use crate::layers::Counters;
use crate::workload::Workload;

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) higher_is_better: bool,
}

impl Metric {
    /// The `better` field of `BENCHMARK.json`.
    fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Metrics a user of the pipeline sees, one value per sample.
pub(crate) const END_TO_END: [Metric; 5] = [
    lower("wall_s", "s"),
    lower("setup_s", "s"),
    lower("cpu_s", "s"),
    lower("peak_rss_mib", "MiB"),
    higher("sim_mops", "Mops/s"),
];

/// Metrics of single layers, from the traced run.
pub(crate) const PER_LAYER: [Metric; 35] = [
    lower("kernels.record_s", "s"),
    lower("kernels.record_ns_per_op", "ns"),
    lower("core.characterize_s", "s"),
    lower("trace.decode_ns_per_op", "ns"),
    lower("trace.bytes_per_op", "bytes"),
    lower("trace.segment_write_ns_per_op", "ns"),
    lower("trace.segment_replay_ns_per_op", "ns"),
    lower("cache.access_ns", "ns"),
    lower("cache.ann_mib", "MiB"),
    lower("branch.observe_ns.hybrid", "ns"),
    lower("branch.observe_ns.aliased", "ns"),
    lower("branch.observe_ns.bimodal", "ns"),
    lower("pipe.cache_pass_s", "s"),
    lower("pipe.cache_pass_ns_per_op", "ns"),
    lower("pipe.cache_member_ns_per_op", "ns"),
    lower("pipe.timing_pass_s", "s"),
    lower("pipe.timing_bank_ns_per_op", "ns"),
    lower("pipe.timing_lane_ns_per_op", "ns"),
    lower("pipe.cyclesim_s", "s"),
    lower("pipe.cyclesim_ns_per_op.alpha21264", "ns"),
    lower("pipe.cyclesim_ns_per_op.ppc-g5", "ns"),
    lower("pipe.cyclesim_ns_per_op.pentium4", "ns"),
    lower("pipe.cyclesim_ns_per_op.itanium2", "ns"),
    lower("pipe.cyclesim_bank_ns_per_op", "ns"),
    higher("pipe.decode_ceiling_frac", "fraction"),
    lower("core.paper_err_pp", "pp"),
    lower("trace.ops", "count"),
    lower("cache.accesses", "count"),
    lower("pipe.spill_accesses", "count"),
    higher("core.cells", "count"),
    lower("core.traces_recorded", "count"),
    lower("core.hierarchy_sims", "count"),
    lower("core.distinct_streams", "count"),
    lower("core.timing_lanes", "count"),
    higher("layers.cpu_coverage", "ratio"),
];

/// Seed at which digests and counters are pinned.
pub(crate) const PINNED_SEED: u64 = bioperf_bench::REPRO_SEED;

const REFERENCE: &str = include_str!("../reference.json");

/// The parsed `reference.json`.
pub(crate) fn reference() -> Result<Json, String> {
    json::parse(REFERENCE).map_err(|e| format!("reference.json: {e}"))
}

/// The output digest pinned for `w` at [`PINNED_SEED`].
pub(crate) fn pinned_digest(reference: &Json, w: Workload) -> Result<String, String> {
    reference
        .get("digests")
        .and_then(|d| d.get(w.name()))
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("reference.json: no digest for {}", w.name()))
}

/// The counter section pinned for `w` at [`PINNED_SEED`].
pub(crate) fn pinned_counters(reference: &Json, w: Workload) -> Result<&Json, String> {
    reference
        .get("counters")
        .and_then(|c| c.get(w.name()))
        .ok_or_else(|| format!("reference.json: no counters for {}", w.name()))
}

/// A name: a letter or digit, then at most 63 letters, digits, `_`, `.`
/// and `-`.
fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn valid_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
        && !s.split('/').any(|part| part == "..")
}

fn array<'a>(doc: &'a Json, key: &str, errors: &mut Vec<String>) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Array(items)) => items,
        _ => {
            errors.push(format!("{key}: must be a list"));
            &[]
        }
    }
}

fn has_keys(item: &Json, keys: &[&str]) -> bool {
    let mut got = item.keys();
    got.sort_unstable();
    let mut want = keys.to_vec();
    want.sort_unstable();
    got == want
}

/// Checks one metric list against the binary's definitions.
fn check_metrics(
    doc: &Json,
    key: &str,
    defs: &[Metric],
    max: usize,
    names: &mut Vec<String>,
    errors: &mut Vec<String>,
) {
    let items = array(doc, key, errors);
    if items.is_empty() || items.len() > max {
        errors.push(format!(
            "{key}: needs 1 to {max} metrics, has {}",
            items.len()
        ));
    }
    let fields: &[&str] = if key == "end_to_end" {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    let mut listed = Vec::new();
    for item in items {
        if !has_keys(item, fields) {
            errors.push(format!(
                "{key}: each metric has exactly the keys {fields:?}"
            ));
            continue;
        }
        let name = item.get("name").and_then(Json::as_str).unwrap_or("");
        let unit = item.get("unit").and_then(Json::as_str).unwrap_or("");
        let better = item.get("better").and_then(Json::as_str).unwrap_or("");
        if !valid_name(name) {
            errors.push(format!("{key}: bad name {name:?}"));
        }
        if !valid_unit(unit) {
            errors.push(format!("{key}: {name}: bad unit {unit:?}"));
        }
        match defs.iter().find(|m| m.name == name) {
            None => errors.push(format!(
                "{key}: {name} is not a metric the benchmark reports"
            )),
            Some(m) => {
                let direction = m.better();
                if m.unit != unit || direction != better {
                    errors.push(format!("{key}: {name} must be {} and {direction}", m.unit));
                }
            }
        }
        if names.iter().any(|n| n == name) {
            errors.push(format!("{key}: name {name} is used twice"));
        }
        names.push(name.to_string());
        listed.push(name);
    }
    for m in defs {
        if !listed.contains(&m.name) {
            errors.push(format!(
                "{key}: the benchmark reports {} but the list omits it",
                m.name
            ));
        }
    }
}

/// Validates `BENCHMARK.json` (its text) against the benchmark contract
/// and the binary's metric and workload definitions, and the pinned
/// `reference` against both. Returns every problem found.
pub(crate) fn check(text: &str, reference: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    if text.len() > 64 * 1024 {
        errors.push("BENCHMARK.json is larger than 64 KiB".into());
    }
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    if !has_keys(
        &doc,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
    ) {
        errors.push(format!("top-level keys are {:?}", doc.keys()));
    }

    let command = array(&doc, "command", &mut errors);
    if command.is_empty() || command.len() > 32 {
        errors.push("command: needs 1 to 32 strings".into());
    }
    for arg in command {
        match arg.as_str() {
            Some(s)
                if s.len() <= 200 && !s.starts_with('/') && !s.split('/').any(|p| p == "..") => {}
            _ => errors.push(format!("command: bad argument {}", arg.render())),
        }
    }
    let paths = array(&doc, "paths", &mut errors);
    if paths.is_empty() || paths.len() > 16 {
        errors.push("paths: needs 1 to 16 directories".into());
    }
    for path in paths {
        if !path.as_str().is_some_and(valid_path) {
            errors.push(format!("paths: bad path {}", path.render()));
        }
    }
    match doc.get("run_seconds").and_then(Json::as_u64) {
        Some(1..=60) => {}
        _ => errors.push("run_seconds: must be a whole number from 1 to 60".into()),
    }

    let mut names: Vec<String> = Vec::new();
    let workloads = array(&doc, "workloads", &mut errors);
    if !(2..=8).contains(&workloads.len()) {
        errors.push(format!("workloads: needs 2 to 8, has {}", workloads.len()));
    }
    for item in workloads {
        let name = item.get("name").and_then(Json::as_str).unwrap_or("");
        if !has_keys(item, &["name", "why"]) {
            errors.push(format!(
                "workloads: {name:?} needs exactly a name and a why"
            ));
        }
        match item.get("why").and_then(Json::as_str) {
            Some(why) if !why.trim().is_empty() && why.len() <= 200 && !why.contains('\n') => {}
            _ => errors.push(format!(
                "workloads: {name:?} needs a one-line why of at most 200 characters"
            )),
        }
        if !valid_name(name) {
            errors.push(format!("workloads: bad name {name:?}"));
        } else if Workload::from_name(name).is_none() {
            errors.push(format!(
                "workloads: {name} is not a workload the benchmark runs"
            ));
        }
        if names.iter().any(|n| n == name) {
            errors.push(format!("workloads: name {name} is used twice"));
        }
        names.push(name.to_string());
    }
    for w in Workload::ALL {
        if !names.iter().any(|n| n == w.name()) {
            errors.push(format!(
                "workloads: the benchmark runs {} but the list omits it",
                w.name()
            ));
        }
    }

    check_metrics(&doc, "end_to_end", &END_TO_END, 16, &mut names, &mut errors);
    check_metrics(&doc, "per_layer", &PER_LAYER, 128, &mut names, &mut errors);
    let bounds: Vec<(&str, Option<f64>)> = array(&doc, "end_to_end", &mut Vec::new())
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap_or(""),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect();
    for (name, bound) in &bounds {
        if !bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            errors.push(format!(
                "end_to_end: {name}: bound must be a number in (0, 0.25]"
            ));
        }
    }
    let setup = bounds
        .iter()
        .find(|(n, _)| *n == "setup_s")
        .and_then(|(_, b)| *b)
        .unwrap_or(0.0);
    if bounds.iter().any(|(_, b)| b.unwrap_or(0.0) > setup) {
        errors.push("end_to_end: setup_s must have the largest bound".into());
    }

    errors.extend(check_reference(reference));
    errors
}

/// Checks that `reference.json` pins every workload and that its
/// metric-to-metric map names only real metrics and workloads.
fn check_reference(reference: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    let is_workload = |s: &str| Workload::from_name(s).is_some();
    for w in Workload::ALL {
        match pinned_digest(reference, w) {
            Ok(d)
                if d.len() == 18
                    && d.starts_with("0x")
                    && d[2..].chars().all(|c| c.is_ascii_hexdigit()) => {}
            Ok(d) => errors.push(format!("reference.json: {}: bad digest {d:?}", w.name())),
            Err(e) => errors.push(e),
        }
        let names = Counters::default().entries().map(|(name, _)| name);
        match pinned_counters(reference, w) {
            Ok(c)
                if c.keys() == names
                    && c.keys()
                        .iter()
                        .all(|k| c.get(k).and_then(Json::as_u64).is_some()) => {}
            Ok(_) => errors.push(format!(
                "reference.json: {}: counters must be {names:?}",
                w.name()
            )),
            Err(e) => errors.push(e),
        }
        let baseline = reference.get("baseline").and_then(|b| b.get(w.name()));
        if !baseline.is_some_and(|b| {
            END_TO_END
                .iter()
                .all(|m| b.get(m.name).and_then(Json::as_f64).is_some())
        }) {
            errors.push(format!(
                "reference.json: {}: baseline needs every end-to-end metric",
                w.name()
            ));
        }
    }
    if pinned_digest(reference, Workload::SuiteSmall).ok()
        != pinned_digest(reference, Workload::SuiteSmallSpill).ok()
    {
        errors.push(
            "reference.json: suite-small-spill must pin the same digest as suite-small".into(),
        );
    }

    let moves = reference.get("moves");
    for m in PER_LAYER {
        if moves.and_then(|mv| mv.get(m.name)).is_none() {
            errors.push(format!("reference.json: moves: no entry for {}", m.name));
        }
    }
    for name in moves.map(Json::keys).unwrap_or_default() {
        if !PER_LAYER.iter().any(|m| m.name == name) {
            errors.push(format!(
                "reference.json: moves: {name} is not a per-layer metric"
            ));
        }
        let entry = moves.and_then(|mv| mv.get(name)).expect("listed key");
        if !has_keys(entry, &["moves", "on", "not_on"]) {
            errors.push(format!(
                "reference.json: moves: {name} needs exactly moves, on and not_on"
            ));
        }
        let strings = |key: &str| -> Vec<String> {
            match entry.get(key) {
                Some(Json::Array(items)) => items
                    .iter()
                    .map(|i| i.as_str().unwrap_or("").to_string())
                    .collect(),
                _ => vec![String::new()],
            }
        };
        for target in strings("moves") {
            if !END_TO_END.iter().any(|m| m.name == target) {
                errors.push(format!(
                    "reference.json: moves: {name} moves unknown metric {target:?}"
                ));
            }
        }
        for w in strings("on").into_iter().chain(strings("not_on")) {
            if !is_workload(&w) {
                errors.push(format!(
                    "reference.json: moves: {name} names unknown workload {w:?}"
                ));
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
    }

    fn reference_doc() -> Json {
        reference().expect("reference.json parses")
    }

    fn edited(from: &str, to: &str) -> Vec<String> {
        let text = committed();
        assert!(
            text.contains(from),
            "fixture text {from:?} not in BENCHMARK.json"
        );
        check(&text.replacen(from, to, 1), &reference_doc())
    }

    #[test]
    fn committed_benchmark_and_reference_pass() {
        assert_eq!(check(&committed(), &reference_doc()), Vec::<String>::new());
    }

    #[test]
    fn names_are_restricted() {
        assert!(valid_name("pipe.cyclesim_ns_per_op.ppc-g5"));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("wall s"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!edited("\"name\": \"wall_s\"", "\"name\": \"wall s\"").is_empty());
    }

    #[test]
    fn drift_from_the_binary_is_rejected() {
        // A renamed workload, a renamed metric, a changed unit or direction.
        assert!(!edited("\"name\": \"sweep-timing\"", "\"name\": \"sweep-lanes\"").is_empty());
        assert!(!edited(
            "\"name\": \"cache.access_ns\"",
            "\"name\": \"cache.access\""
        )
        .is_empty());
        assert!(!edited("\"unit\": \"MiB\"", "\"unit\": \"GiB\"").is_empty());
        assert!(!edited("\"better\": \"higher\"", "\"better\": \"lower\"").is_empty());
    }

    #[test]
    fn contract_limits_are_enforced() {
        assert!(!edited("\"run_seconds\": ", "\"run_seconds\": 6").is_empty());
        assert!(!edited("\"bound\": 0.", "\"bound\": 0.9").is_empty());
        assert!(!edited("\"why\": \"", "\"why\": \"\\n").is_empty());
        assert!(!edited("\"why\": ", "\"reason\": ").is_empty());
        assert!(!edited("\"paths\": [", "\"paths\": [\"../x\", ").is_empty());
        assert!(!edited("\"command\": [", "\"command\": [\"/bin/sh\", ").is_empty());
    }

    #[test]
    fn workload_count_must_be_two_to_eight() {
        let mut doc = json::parse(&committed()).unwrap();
        let Json::Object(entries) = &mut doc else {
            panic!("object")
        };
        let workloads = entries.iter_mut().find(|(k, _)| k == "workloads").unwrap();
        let Json::Array(items) = &mut workloads.1 else {
            panic!("list")
        };
        items.truncate(1);
        let errors = check(&doc.render(), &reference_doc());
        assert!(
            errors.iter().any(|e| e.contains("needs 2 to 8")),
            "{errors:?}"
        );
    }

    #[test]
    fn moves_must_name_real_metrics_and_workloads() {
        let text = REFERENCE.replacen("\"wall_s\"", "\"wall_time\"", 1);
        assert!(!check_reference(&json::parse(&text).unwrap()).is_empty());
        let text = REFERENCE.replacen("\"sweep-cache\"", "\"sweep-cash\"", 1);
        assert!(!check_reference(&json::parse(&text).unwrap()).is_empty());
        assert_eq!(check_reference(&reference_doc()), Vec::<String>::new());
    }
}
