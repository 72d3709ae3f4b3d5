//! The one strict command-line reader behind every binary in the
//! workspace.
//!
//! A command declares its grammar as a [`Spec`]: the flags that take a
//! value, the switches that take none, and its positional arguments.
//! [`read`] applies one rule set to every command:
//!
//! * an unknown flag, a value flag with no (or an empty) value, a flag
//!   given twice, and a positional beyond the spec's are errors naming
//!   the offending token; a missing required positional names the
//!   positional;
//! * `--help` or `-h` in flag position asks for usage
//!   ([`CliError::Help`]);
//! * a value that does not parse is an error naming the flag and the
//!   value ([`Args::parse_with`], [`Args::number`], [`Args::jobs`]).
//!
//! [`or_exit`] turns the outcome into the exit contract: usage on stdout
//! and status 0 for `--help`; otherwise the error and usage on stderr and
//! status [`USAGE_EXIT`].
//!
//! ```
//! use bioperf_core::cli::{read, CliError, Spec};
//!
//! const SPEC: Spec =
//!     Spec { values: &["--jobs"], switches: &["--check"], positionals: &["scale"], required: 0 };
//! let argv: Vec<String> = ["small", "--jobs", "4"].map(String::from).to_vec();
//! let args = read(&argv, &SPEC).unwrap();
//! assert_eq!(args.value("scale"), Some("small"));
//! assert_eq!(args.jobs(), Ok(4));
//! assert!(!args.switch("--check"));
//!
//! let argv: Vec<String> = ["--jobs", "1", "--jobs", "2"].map(String::from).to_vec();
//! assert_eq!(read(&argv, &SPEC).unwrap_err(), CliError::Repeated("--jobs".into()));
//! ```

use std::fmt;
use std::str::FromStr;

use bioperf_kernels::Scale;

/// Exit status of every rejected command line (distinct from success,
/// from a failed run's 1, and from a partial sweep's 3).
pub const USAGE_EXIT: u8 = 2;

/// The largest accepted `--jobs` value. Worker pools clamp only to their
/// job count, and `conform` makes one job per case, so an unbounded value
/// would ask the operating system for that many threads.
pub const MAX_JOBS: usize = 256;

/// A command's grammar.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Flags that take exactly one value.
    pub values: &'static [&'static str],
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Positional arguments by name, in order; [`Args::value`] looks
    /// them up by that name.
    pub positionals: &'static [&'static str],
    /// How many leading positionals must be present.
    pub required: usize,
}

/// A rejected command line (or a request for usage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: print usage and exit 0.
    Help,
    /// A flag the command does not take.
    Unknown(String),
    /// A value flag at the end of the line or followed by an empty value.
    MissingValue(String),
    /// A flag given more than once.
    Repeated(String),
    /// A positional argument beyond the command's.
    Unexpected(String),
    /// A required positional argument that is absent.
    Missing(&'static str),
    /// A value the command rejects. `reason` reads after the flag name
    /// and names the value ("expects a number, not 'two'") or the flag
    /// it needs ("requires --spill-dir").
    BadValue {
        /// The flag (or positional name) whose value was rejected.
        flag: String,
        /// Why.
        reason: String,
    },
    /// An argument that is not valid UTF-8 (shown lossily).
    NotUtf8(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help => f.write_str("usage requested"),
            CliError::Unknown(flag) => write!(f, "unknown option '{flag}'"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::Repeated(flag) => write!(f, "duplicate flag {flag}"),
            CliError::Unexpected(arg) => write!(f, "unexpected argument '{arg}'"),
            CliError::Missing(name) => write!(f, "missing the {name} argument"),
            CliError::BadValue { flag, reason } => write!(f, "{flag} {reason}"),
            CliError::NotUtf8(arg) => write!(f, "argument '{arg}' is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CliError {}

/// A command line that matched its [`Spec`]. Values borrow from the
/// argument vector.
#[derive(Debug, Default)]
pub struct Args<'a> {
    /// Value flags and positionals, by spec name.
    given: Vec<(&'static str, &'a str)>,
    switches: Vec<&'static str>,
}

impl<'a> Args<'a> {
    /// The raw value of a value flag or positional, if given.
    pub fn value(&self, name: &str) -> Option<&'a str> {
        self.given.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Whether a switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// Parses the value of `name` with `parse`, if given; a parse error
    /// becomes [`CliError::BadValue`] with the error's text as reason.
    pub fn parse_with<T, E: fmt::Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&'a str) -> Result<T, E>,
    ) -> Result<Option<T>, CliError> {
        self.value(name)
            .map(|v| parse(v).map_err(|e| CliError::BadValue { flag: name.into(), reason: e.to_string() }))
            .transpose()
    }

    /// The numeric value of `name`, if given.
    pub fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.parse_with(name, number)
    }

    /// The `--jobs` worker count (0, all cores, when absent), at most
    /// [`MAX_JOBS`].
    pub fn jobs(&self) -> Result<usize, CliError> {
        let jobs = self.parse_with("--jobs", |v| match number(v)? {
            n if n <= MAX_JOBS => Ok(n),
            _ => Err(format!("allows at most {MAX_JOBS} workers, not '{v}'")),
        })?;
        Ok(jobs.unwrap_or(0))
    }
}

/// Parses a number of any [`FromStr`] type.
fn number<T: FromStr>(value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("expects a number, not '{value}'"))
}

/// Parses a workload scale name (`test`, `small`, `medium`, `large`).
pub fn scale(name: &str) -> Result<Scale, String> {
    Scale::from_name(name)
        .ok_or_else(|| format!("names an unknown scale '{name}' (use test|small|medium|large)"))
}

/// Parses a finite number greater than zero (`inf` and `NaN` are
/// rejected for float types; every integer literal is finite).
pub fn positive<T: FromStr + PartialOrd + Default>(value: &str) -> Result<T, String> {
    match value.parse::<T>() {
        Ok(x) if x > T::default() && value.parse::<f64>().is_ok_and(f64::is_finite) => Ok(x),
        _ => Err(format!("expects a positive number, not '{value}'")),
    }
}

/// The process arguments after the program name.
///
/// Every binary calls this first, so it also restores the default
/// `SIGPIPE` disposition on unix. The Rust runtime ignores `SIGPIPE`,
/// which turns a write to a closed pipe into a panic inside `println!`;
/// with the default back, `bioperf-loadchar list | head -1` ends the
/// writer silently, as it ends `yes`.
pub fn argv() -> Result<Vec<String>, CliError> {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: `signal` is the C library's, with `sighandler_t` passed
        // as the pointer-sized integer it is; SIGPIPE is 13 and SIG_DFL is
        // 0 on every unix. Restoring a default disposition touches no Rust
        // state, and nothing in the process installs a SIGPIPE handler.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
    std::env::args_os()
        .skip(1)
        .map(|arg| arg.into_string().map_err(|arg| CliError::NotUtf8(arg.to_string_lossy().into())))
        .collect()
}

/// Reads `argv` (without the program or subcommand name) against `spec`.
pub fn read<'a>(argv: &'a [String], spec: &Spec) -> Result<Args<'a>, CliError> {
    let mut args = Args::default();
    let mut positionals = spec.positionals.iter();
    let mut tokens = argv.iter().map(String::as_str);
    while let Some(token) = tokens.next() {
        if token == "--help" || token == "-h" {
            return Err(CliError::Help);
        }
        if let Some(&name) = spec.switches.iter().find(|&&s| s == token) {
            if args.switch(name) {
                return Err(CliError::Repeated(token.into()));
            }
            args.switches.push(name);
        } else if let Some(&name) = spec.values.iter().find(|&&f| f == token) {
            if args.value(name).is_some() {
                return Err(CliError::Repeated(token.into()));
            }
            match tokens.next() {
                Some(value) if !value.is_empty() => args.given.push((name, value)),
                _ => return Err(CliError::MissingValue(token.into())),
            }
        } else if token.starts_with('-') {
            return Err(CliError::Unknown(token.into()));
        } else if let Some(&name) = positionals.next() {
            args.given.push((name, token));
        } else {
            return Err(CliError::Unexpected(token.into()));
        }
    }
    let given = spec.positionals.len() - positionals.len();
    match spec.positionals[..spec.required].get(given) {
        Some(&name) => Err(CliError::Missing(name)),
        None => Ok(args),
    }
}

/// The exit contract: returns the parsed value; on [`CliError::Help`]
/// prints `usage` to stdout and exits 0; on any other error prints
/// `{prefix}: {error}` and `usage` to stderr and exits [`USAGE_EXIT`].
pub fn or_exit<T>(parsed: Result<T, CliError>, prefix: &str, usage: &str) -> T {
    match parsed {
        Ok(value) => value,
        Err(CliError::Help) => {
            println!("{usage}");
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("{prefix}: {e}");
            eprintln!("{usage}");
            std::process::exit(i32::from(USAGE_EXIT))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        values: &["--jobs", "--out"],
        switches: &["--check"],
        positionals: &["program", "scale"],
        required: 1,
    };

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn reads_flags_switches_and_positionals_in_any_order() {
        let line = argv(&["--check", "blast", "--out", "x.json", "small", "--jobs", "3"]);
        let args = read(&line, &SPEC).unwrap();
        assert_eq!(args.value("program"), Some("blast"));
        assert_eq!(args.value("scale"), Some("small"));
        assert_eq!(args.value("--out"), Some("x.json"));
        assert_eq!(args.jobs(), Ok(3));
        assert!(args.switch("--check"));
    }

    #[test]
    fn every_rule_names_its_offender() {
        for (line, want) in [
            (vec!["--frob"], CliError::Unknown("--frob".into())),
            (vec!["blast", "--jobs"], CliError::MissingValue("--jobs".into())),
            (vec!["blast", "--out", ""], CliError::MissingValue("--out".into())),
            (vec!["blast", "--check", "--check"], CliError::Repeated("--check".into())),
            (vec!["blast", "--jobs", "1", "--jobs", "1"], CliError::Repeated("--jobs".into())),
            (vec!["blast", "small", "extra"], CliError::Unexpected("extra".into())),
            (vec!["--jobs", "1"], CliError::Missing("program")),
            (vec!["--bogus", "--help"], CliError::Unknown("--bogus".into())),
            (vec!["blast", "-h"], CliError::Help),
        ] {
            assert_eq!(read(&argv(&line), &SPEC).unwrap_err(), want, "{line:?}");
        }
    }

    #[test]
    fn values_that_do_not_parse_name_flag_and_value() {
        let line = argv(&["blast", "--jobs", "two"]);
        let err = read(&line, &SPEC).unwrap().jobs().unwrap_err();
        assert_eq!(err.to_string(), "--jobs expects a number, not 'two'");
        let line = argv(&["blast", "--jobs", "100000"]);
        let err = read(&line, &SPEC).unwrap().jobs().unwrap_err();
        assert_eq!(err.to_string(), "--jobs allows at most 256 workers, not '100000'");
        let line = argv(&["blast", "--jobs", "256"]);
        assert_eq!(read(&line, &SPEC).unwrap().jobs(), Ok(MAX_JOBS));
    }

    #[test]
    fn positive_rejects_zero_negative_and_non_finite() {
        assert_eq!(positive::<f64>("2.5"), Ok(2.5));
        assert_eq!(positive::<usize>("7"), Ok(7));
        for bad in ["0", "-1", "inf", "NaN", "x"] {
            assert!(positive::<f64>(bad).is_err(), "{bad}");
        }
        assert!(positive::<usize>("0").is_err());
    }
}
