//! # synran-bench — experiment harnesses
//!
//! One binary per experiment in DESIGN.md's index (E1–E10), each printing
//! the table EXPERIMENTS.md records. This library holds the tiny bits they
//! share: a no-dependency `--key value` argument parser and output helpers.
//! The telemetry-artifact helpers live in [`synran_lab::artifact`] (the
//! campaign presets need them below this crate) and are re-exported here
//! so the binaries keep one import path.
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p synran-bench --bin e4_synran_upper -- --runs 50
//! ```
//!
//! E3, E4, and E7 are thin wrappers over the campaign presets in
//! `synran-lab` — the same tables are reproducible from the specs in
//! `campaigns/` via `synran campaign run`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::collections::HashMap;

pub use synran_lab::artifact::{results_telemetry_path, write_telemetry_jsonl};

/// A minimal `--key value` command-line parser (plus bare `--flag`s).
///
/// The experiment binaries take a handful of numeric knobs; this avoids a
/// CLI dependency. Values may be negative (`--bias -1`): anything that is
/// not itself a `--key` counts as the preceding key's value. A key given
/// twice keeps the last value.
///
/// # Examples
///
/// ```
/// use synran_bench::Args;
///
/// let args = Args::parse(["--runs", "50", "--fast"].map(String::from));
/// assert_eq!(args.get_usize("runs", 10), 50);
/// assert_eq!(args.get_usize("seeds", 7), 7);
/// assert!(args.flag("fast"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses an explicit argument list (without the program name).
    #[must_use]
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Args {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        values.insert(key.to_string(), iter.next().expect("peeked"));
                    }
                    _ => flags.push(key.to_string()),
                }
            }
        }
        Args { values, flags }
    }

    /// Parses the process's actual command line.
    #[must_use]
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1))
    }

    /// A `usize` knob with a default.
    ///
    /// # Panics
    ///
    /// Panics with a clear message if the value does not parse.
    #[must_use]
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// A `u64` knob with a default.
    ///
    /// # Panics
    ///
    /// Panics with a clear message if the value does not parse.
    #[must_use]
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// The raw string value of a knob, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Whether a bare `--flag` was passed.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// Prints an experiment banner with its DESIGN.md id and the claim under
/// test.
pub fn banner(id: &str, claim: &str) {
    println!("=== {id} ===");
    println!("claim: {claim}");
    println!();
}

/// Prints a named section divider.
pub fn section(title: &str) {
    println!();
    println!("--- {title} ---");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::parse(["--n", "64", "--verbose", "--seed", "9"].map(String::from));
        assert_eq!(a.get_usize("n", 0), 64);
        assert_eq!(a.get_u64("seed", 0), 9);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(std::iter::empty());
        assert_eq!(a.get_usize("n", 42), 42);
        assert_eq!(a.get("anything"), None);
    }

    #[test]
    fn trailing_flag() {
        let a = Args::parse(["--x", "1", "--fast"].map(String::from));
        assert!(a.flag("fast"));
        assert_eq!(a.get_usize("x", 0), 1);
    }

    #[test]
    fn negative_values_are_values_not_flags() {
        let a = Args::parse(["--bias", "-3", "--scale", "-0.5", "--fast"].map(String::from));
        assert_eq!(a.get("bias"), Some("-3"));
        assert_eq!(a.get("scale"), Some("-0.5"));
        assert!(a.flag("fast"));
        assert!(!a.flag("bias"), "-3 consumed as a value, not a flag");
    }

    #[test]
    fn repeated_keys_last_wins() {
        let a = Args::parse(["--runs", "5", "--runs", "9"].map(String::from));
        assert_eq!(a.get_usize("runs", 0), 9);
    }

    #[test]
    fn trailing_bare_flag_with_no_value_is_a_flag() {
        let a = Args::parse(["--fast"].map(String::from));
        assert!(a.flag("fast"));
        assert_eq!(a.get("fast"), None, "no value attached");
    }

    #[test]
    fn flag_followed_by_key_stays_a_flag() {
        let a = Args::parse(["--fast", "--runs", "3"].map(String::from));
        assert!(a.flag("fast"));
        assert_eq!(a.get_usize("runs", 0), 3);
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn bad_integer_panics() {
        let a = Args::parse(["--n", "abc"].map(String::from));
        let _ = a.get_usize("n", 0);
    }
}
