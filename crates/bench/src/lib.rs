//! # synran-bench — experiment harnesses
//!
//! One binary per experiment in DESIGN.md's index (E1–E10), each printing
//! the table EXPERIMENTS.md records. This library holds the tiny bits they
//! share: a no-dependency `--key value` argument parser that rejects
//! options a binary does not take, and the banner/section headers (the
//! campaign presets' format, printed to stdout).
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p synran-bench --bin e4_synran_upper -- --runs 50
//! ```
//!
//! E3, E4, E6, and E7 are thin wrappers over the campaign presets in
//! `synran-lab` — the same tables are reproducible from the specs in
//! `campaigns/` via `synran campaign run`. E5 and E8 run their batches as
//! registry cells and write their artifact through
//! [`synran_lab::write_run_artifact`], as the presets do.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::collections::HashMap;

/// A minimal `--key value` command-line parser (plus bare `--flag`s).
///
/// The experiment binaries take a handful of numeric knobs; this avoids a
/// CLI dependency. Values may be negative (`--bias -1`): anything that is
/// not itself a `--key` counts as the preceding key's value, so reading a
/// flag that was given one (`--fast 1`) panics. A key given twice keeps
/// the last value. Each binary names the options it takes; any
/// other option, or a stray argument, is an error, so a typo such as
/// `--run 5` never silently runs the defaults.
///
/// # Examples
///
/// ```
/// use synran_bench::Args;
///
/// let args = Args::parse(["--runs", "50", "--fast"].map(String::from), &["runs", "fast"]);
/// let args = args.unwrap();
/// assert_eq!(args.get_usize("runs", 10), 50);
/// assert!(args.flag("fast"));
/// assert!(Args::parse(["--run", "5"].map(String::from), &["runs"]).is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses an explicit argument list (without the program name),
    /// accepting only the options named in `accepted`.
    ///
    /// # Errors
    ///
    /// Returns an `unknown option --key` message for the first option not
    /// in `accepted`, and an `unexpected argument` message for a bare
    /// word that is no option's value.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        accepted: &[&str],
    ) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            if !accepted.contains(&key) {
                return Err(format!("unknown option --{key}"));
            }
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    values.insert(key.to_string(), iter.next().expect("peeked"));
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(Args { values, flags })
    }

    /// Parses the process's actual command line, accepting only the
    /// options named in `accepted`; on any other option it prints an
    /// `error:` line to stderr and exits with status 1.
    #[must_use]
    pub fn from_env(accepted: &[&str]) -> Args {
        Args::parse(std::env::args().skip(1), accepted).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
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
    ///
    /// # Panics
    ///
    /// Panics with a clear message if `key` was given a value
    /// (`--fast 1`), which would otherwise read as "flag absent".
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        if let Some(v) = self.values.get(key) {
            panic!("--{key} takes no value, got {v:?}");
        }
        self.flags.iter().any(|f| f == key)
    }
}

/// Prints an experiment banner with its DESIGN.md id and the claim under
/// test ([`synran_lab::presets::banner`] on stdout).
///
/// # Panics
///
/// Panics if stdout cannot be written.
pub fn banner(id: &str, claim: &str) {
    synran_lab::presets::banner(&mut std::io::stdout().lock(), id, claim).expect("write stdout");
}

/// Prints a named section divider ([`synran_lab::presets::section`] on
/// stdout).
///
/// # Panics
///
/// Panics if stdout cannot be written.
pub fn section(title: &str) {
    synran_lab::presets::section(&mut std::io::stdout().lock(), title).expect("write stdout");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every option the tests below pass.
    const KNOWN: &[&str] = &["n", "seed", "verbose", "x", "fast", "bias", "scale", "runs"];

    fn parse(args: &[&str]) -> Args {
        Args::parse(args.iter().map(|&a| a.to_string()), KNOWN).unwrap()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = parse(&["--n", "64", "--verbose", "--seed", "9"]);
        assert_eq!(a.get_usize("n", 0), 64);
        assert_eq!(a.get_u64("seed", 0), 9);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.get_usize("n", 42), 42);
        assert_eq!(a.get("anything"), None);
    }

    #[test]
    fn trailing_flag() {
        let a = parse(&["--x", "1", "--fast"]);
        assert!(a.flag("fast"));
        assert_eq!(a.get_usize("x", 0), 1);
    }

    #[test]
    fn negative_values_are_values_not_flags() {
        let a = parse(&["--bias", "-3", "--scale", "-0.5", "--fast"]);
        assert_eq!(a.get("bias"), Some("-3"));
        assert_eq!(a.get("scale"), Some("-0.5"));
        assert!(a.flag("fast"));
        assert!(
            std::panic::catch_unwind(|| a.flag("bias")).is_err(),
            "-3 consumed as a value, not a flag"
        );
    }

    #[test]
    fn repeated_keys_last_wins() {
        let a = parse(&["--runs", "5", "--runs", "9"]);
        assert_eq!(a.get_usize("runs", 0), 9);
    }

    #[test]
    fn trailing_bare_flag_with_no_value_is_a_flag() {
        let a = parse(&["--fast"]);
        assert!(a.flag("fast"));
        assert_eq!(a.get("fast"), None, "no value attached");
    }

    #[test]
    fn flag_followed_by_key_stays_a_flag() {
        let a = parse(&["--fast", "--runs", "3"]);
        assert!(a.flag("fast"));
        assert_eq!(a.get_usize("runs", 0), 3);
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn bad_integer_panics() {
        let a = parse(&["--n", "abc"]);
        let _ = a.get_usize("n", 0);
    }

    #[test]
    #[should_panic(expected = "--fast takes no value, got \"1\"")]
    fn flag_given_a_value_panics() {
        let a = parse(&["--fast", "1"]);
        let _ = a.flag("fast");
    }

    #[test]
    fn unknown_options_and_stray_arguments_are_errors() {
        let accepted = &["runs", "fast"];
        let args = |list: &[&str]| Args::parse(list.iter().map(|&a| a.to_string()), accepted);
        // A typo must not silently run the defaults.
        let err = args(&["--run", "5"]).unwrap_err();
        assert_eq!(err, "unknown option --run");
        assert_eq!(
            args(&["--runs", "5", "--bogus", "1"]).unwrap_err(),
            "unknown option --bogus"
        );
        assert_eq!(
            args(&["--fast", "--seed"]).unwrap_err(),
            "unknown option --seed"
        );
        assert_eq!(args(&["5"]).unwrap_err(), "unexpected argument \"5\"");
        let ok = args(&["--runs", "5", "--fast"]).unwrap();
        assert_eq!(ok.get_usize("runs", 0), 5);
        assert!(ok.flag("fast"));
    }
}
