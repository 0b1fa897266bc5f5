//! The one command-line option parser, shared by `synran` and the
//! experiment binaries (E1–E10). A command names its `--key value`
//! options, its bare `--flag`s and how many positional words it takes;
//! anything else is an error, never a silently ignored knob. A value
//! option always takes the next word (so `--bias -1` works); a bare flag
//! never does (so the word after `--fresh` stays a positional).
//! [`run_buffered`] is the one output policy every such command runs
//! under.

use std::collections::HashMap;
use std::error::Error;
use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

/// A parsed command line: option values, bare flags, positional words.
#[derive(Debug, Default)]
pub struct Options {
    values: HashMap<String, String>,
    flags: Vec<String>,
    words: Vec<String>,
}

impl Options {
    /// Parses `args` (without the program name) against the `--key value`
    /// options `values`, the bare `flags` and at most `words` positional
    /// words. A key given twice keeps the last value.
    ///
    /// # Errors
    ///
    /// `unknown option --key`, `--key expects a value` (nothing or another
    /// option follows it), or, once every option has parsed, `unexpected
    /// argument "word"` for the first word past `words`.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        values: &[&str],
        flags: &[&str],
        words: usize,
    ) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) if flags.contains(&key) => opts.flags.push(key.to_string()),
                Some(key) if values.contains(&key) => {
                    let value = args
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("--{key} expects a value"))?;
                    opts.values.insert(key.to_string(), value);
                }
                Some(key) => return Err(format!("unknown option --{key}")),
                None => opts.words.push(arg),
            }
        }
        match opts.words.get(words) {
            Some(word) => Err(format!("unexpected argument {word:?}")),
            None => Ok(opts),
        }
    }

    /// The value of `--key`, if given.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// The integer value of `--key`, if given.
    ///
    /// # Errors
    ///
    /// `--key: not an integer: "value"` when the value does not parse.
    pub fn number<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key}: not an integer: {v:?}"))
            })
            .transpose()
    }

    /// Whether the bare flag `--key` was given.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The positional words, in order.
    #[must_use]
    pub fn words(&self) -> &[String] {
        &self.words
    }
}

/// Runs a command whose `body` writes its output into a buffer, which goes
/// to stdout, flushed, only once `body` succeeds. A failed `body` prints
/// `error: …` to stderr and nothing to stdout; a failed write to stdout
/// (a closed pipe, a full disk) prints its `error: …` line too. Either way
/// the command exits 1 instead of panicking.
pub fn run_buffered(body: impl FnOnce(&mut dyn Write) -> Result<(), Box<dyn Error>>) -> ExitCode {
    let mut buf = Vec::new();
    let result = body(&mut buf).and_then(|()| {
        let mut stdout = std::io::stdout().lock();
        stdout.write_all(&buf)?;
        Ok(stdout.flush()?)
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let values = ["n", "seed", "bias", "runs", "progress"];
        Options::parse(
            args.iter().map(|&a| a.to_string()),
            &values,
            &["fast", "fresh"],
            2,
        )
    }

    #[test]
    fn values_flags_and_words_split() {
        let opts = parse(&["run", "--n", "64", "--fast", "--seed", "9", "spec"]).unwrap();
        assert_eq!(opts.number::<usize>("n"), Ok(Some(64)));
        assert_eq!(opts.number::<u64>("seed"), Ok(Some(9)));
        assert_eq!(opts.number::<usize>("runs"), Ok(None), "absent");
        assert!(opts.flag("fast"));
        assert!(!opts.flag("fresh"));
        assert_eq!(opts.words(), ["run", "spec"]);
    }

    #[test]
    fn negative_values_are_values() {
        let opts = parse(&["--bias", "-3", "--fast"]).unwrap();
        assert_eq!(opts.get("bias"), Some("-3"));
        assert_eq!(opts.number::<i64>("bias"), Ok(Some(-3)));
        assert!(opts.flag("fast"));
    }

    #[test]
    fn repeated_keys_last_wins() {
        let opts = parse(&["--runs", "5", "--runs", "9"]).unwrap();
        assert_eq!(opts.number::<usize>("runs"), Ok(Some(9)));
    }

    #[test]
    fn bare_flags_never_take_a_value() {
        let opts = parse(&["run", "--fresh", "e4.campaign", "--progress", "5"]).unwrap();
        assert_eq!(opts.words(), ["run", "e4.campaign"]);
        assert!(opts.flag("fresh"));
        assert_eq!(opts.number::<usize>("progress"), Ok(Some(5)));
        // A value option always takes its word, even a spec path, and
        // then reports it as a bad integer rather than hiding it.
        let opts = parse(&["run", "--progress", "e3.campaign"]).unwrap();
        assert_eq!(opts.words(), ["run"]);
        assert_eq!(
            opts.number::<usize>("progress").unwrap_err(),
            "--progress: not an integer: \"e3.campaign\""
        );
    }

    #[test]
    fn bad_options_are_errors() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        assert_eq!(err(&["--run", "5"]), "unknown option --run");
        assert_eq!(err(&["--fast", "--bogus"]), "unknown option --bogus");
        assert_eq!(err(&["a", "b", "c"]), "unexpected argument \"c\"");
        // An unknown option is reported before a stray word.
        assert_eq!(err(&["a", "b", "c", "--bogus"]), "unknown option --bogus");
        assert_eq!(err(&["--runs"]), "--runs expects a value");
        assert_eq!(err(&["--runs", "--fast"]), "--runs expects a value");
        let opts = parse(&["--runs", "5\nseed = 9"]).unwrap();
        assert_eq!(
            opts.number::<usize>("runs").unwrap_err(),
            "--runs: not an integer: \"5\\nseed = 9\""
        );
    }
}
