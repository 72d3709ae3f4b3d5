//! Properties of the outside-input readers behind the command lines: the
//! strict argument reader never panics and every rejection names a token
//! of its input, and the sweep's axis grammar reads back every grid
//! [`SweepGrid::canonical`] writes while hostile values come back as
//! typed errors or skipped cells, never a panic.

use bioperf_branch::PredictorKind;
use bioperf_cache::Prefetcher;
use bioperf_core::cli::{read, CliError, Spec};
use bioperf_core::sweep::{AxisError, SweepGrid};
use proptest::prelude::*;

const SPEC: Spec = Spec {
    values: &["--jobs", "--seed", "--out"],
    switches: &["--check", "--no-factor"],
    positionals: &["program", "scale"],
    required: 1,
};

/// Known flags, their near misses, values good and bad, and positionals.
const TOKENS: &[&str] = &[
    "--jobs", "--seed", "--out", "--check", "--no-factor", "--help", "-h", "--job", "-j", "-",
    "--", "", "0", "1", "256", "257", "100000", "18446744073709551616", "two", "-1", "blast",
    "small", "x.json", "--jobs=2",
];

fn dedup<T: PartialEq>(items: Vec<T>) -> Vec<T> {
    let mut out = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// Reads a grid back from its canonical form, one axis at a time.
fn from_canonical(canonical: &str) -> Result<SweepGrid, AxisError> {
    let mut grid = SweepGrid::smoke();
    for (field, axis) in canonical.split(';').zip(SweepGrid::AXES) {
        let value = field.strip_prefix(axis).and_then(|v| v.strip_prefix('=')).expect("axis name");
        grid.set_axis(axis, value)?;
    }
    Ok(grid)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reader_never_panics_and_names_an_input_token(
        picks in prop::collection::vec(0usize..TOKENS.len(), 0..10),
    ) {
        let argv: Vec<String> = picks.iter().map(|&i| TOKENS[i].to_string()).collect();
        match read(&argv, &SPEC) {
            Ok(args) => {
                // Typed accessors reject by flag name, never panic.
                if let Err(e) = args.jobs() {
                    prop_assert!(e.to_string().starts_with("--jobs "), "{e}");
                }
                if let Err(e) = args.number::<u64>("--seed") {
                    prop_assert!(e.to_string().starts_with("--seed "), "{e}");
                }
            }
            Err(e) => match &e {
                CliError::Help => prop_assert!(argv.iter().any(|t| t == "--help" || t == "-h")),
                CliError::Missing(name) => prop_assert!(SPEC.positionals.contains(name)),
                CliError::Unknown(token)
                | CliError::MissingValue(token)
                | CliError::Repeated(token)
                | CliError::Unexpected(token) => {
                    prop_assert!(argv.contains(token), "{e} names no input token of {argv:?}");
                    prop_assert!(e.to_string().contains(token.as_str()), "{e}");
                }
                _ => panic!("read never checks values: {e}"),
            },
        }
    }

    #[test]
    fn every_grid_round_trips_through_canonical(
        caches in (
            prop::collection::vec((0u64..u64::MAX, 0u32..u32::MAX), 0..4),
            prop::collection::vec((0u64..300_000, 0u32..64), 0..4),
            prop::collection::vec(0u64..u64::MAX, 0..4),
        ),
        cores in (
            prop::collection::vec((0u64..u64::MAX, 0u64..100, 0u64..5_000_000_000), 0..4),
            prop::collection::vec((0u32..u32::MAX, 0usize..usize::MAX), 0..4),
            prop::collection::vec(0usize..3, 0..4),
            prop::collection::vec(0usize..3, 0..4),
        ),
    ) {
        let (l1, l2, line) = caches;
        let (lat, pipe, pred, prefetch) = cores;
        let prefetchers = [Prefetcher::None, Prefetcher::NextLine, Prefetcher::Stride];
        let grid = SweepGrid {
            l1: dedup(l1),
            l2: dedup(l2),
            line: dedup(line),
            lat: dedup(lat),
            pipe: dedup(pipe),
            pred: dedup(pred.into_iter().map(|i| PredictorKind::ALL[i]).collect()),
            prefetch: dedup(prefetch.into_iter().map(|i| prefetchers[i]).collect()),
        };
        let read_back = from_canonical(&grid.canonical());
        prop_assert_eq!(read_back, Ok(grid));
    }
}

#[test]
fn hostile_axis_values_are_typed_errors_or_skipped_cells() {
    // Values that parse but describe cells no simulator can run resolve
    // to typed cell errors (the sweep's skipped-cell diagnostics).
    for (axis, value) in [
        ("l1", "18014398509481985x1"),
        ("l2", "18446744073709551615x4"),
        ("pipe", "4x100000000000"),
        ("pipe", "4294967295x80"),
        ("lat", "3:8:4294967368"),
        ("lat", "18446744073709551615:5:72"),
    ] {
        let mut grid = SweepGrid::smoke();
        grid.set_axis(axis, value).unwrap_or_else(|e| panic!("{axis} {value}: {e}"));
        let errors = (0..grid.cells()).filter(|&i| grid.spec(i).resolve().is_err()).count();
        assert_eq!(errors, grid.cells(), "{axis} {value}: every cell must be skipped");
    }
    // Values that do not fit their field are typed parse errors.
    for (axis, value, want) in [
        ("l1", "18446744073709551616x1", AxisError::Number("18446744073709551616".into())),
        ("pipe", "4294967296x80", AxisError::Number("4294967296".into())),
        ("line", "99999999999999999999999", AxisError::Number("99999999999999999999999".into())),
        ("lat", "3:5", AxisError::Malformed { item: "3:5".into(), expected: "L1:L2:MEM" }),
        ("l2", "64x2x2", AxisError::Malformed { item: "64x2x2".into(), expected: "KBxWAYS" }),
        ("pred", "oracle", AxisError::Unknown { what: "predictor", item: "oracle".into() }),
        ("l1", "64x2,064x2", AxisError::Repeat("064x2".into())),
    ] {
        let mut grid = SweepGrid::smoke();
        assert_eq!(grid.set_axis(axis, value), Err(want), "{axis} {value}");
        assert_eq!(grid, SweepGrid::smoke(), "a rejected value leaves the grid unchanged");
    }
}
