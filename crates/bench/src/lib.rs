//! # synran-bench — experiment harnesses
//!
//! One binary per experiment in DESIGN.md's index (E1–E10), each printing
//! the table EXPERIMENTS.md records, e.g.
//! `cargo run --release -p synran-bench --bin e4_synran_upper -- --runs 50`.
//! Every binary goes through [`main`], which parses its options with
//! [`synran_lab::cli`], the parser `synran` uses. E3, E4, E6 and E7 are
//! [`preset`]s over their committed `campaigns/eN.campaign`, so `synran
//! campaign run` prints the same tables; the other six keep their bodies
//! in their own files.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::io::Write;
use std::process::ExitCode;

use synran_lab::cli::{self, Options};
use synran_lab::{presets, CampaignSpec, Engine};
use synran_sim::{Telemetry, TelemetryMode};

/// Whatever an experiment run can fail with, shown as its message.
pub type Error = Box<dyn std::error::Error>;

/// Runs an experiment binary taking the `--key value` options `values`
/// and the bare `flags`, under [`cli::run_buffered`]: `run` writes into a
/// buffer, which goes to stdout only on success. A bad option, a failed
/// run or a failed write prints `error: …` to stderr, nothing to stdout,
/// and exits 1.
pub fn main(
    values: &[&str],
    flags: &[&str],
    run: impl FnOnce(&Options, &mut dyn Write) -> Result<(), Error>,
) -> ExitCode {
    cli::run_buffered(|out| {
        let opts = Options::parse(std::env::args().skip(1), values, flags, 0)?;
        run(&opts, out)
    })
}

/// The integer option `--key`, or `default`, for a count the experiment
/// cannot run with at zero (`--runs`, `--samples`).
///
/// # Errors
///
/// A non-integer value, or zero.
pub fn count(opts: &Options, key: &str, default: usize) -> Result<usize, Error> {
    match opts.number(key)?.unwrap_or(default) {
        0 => Err(format!("--{key} must be at least 1").into()),
        count => Ok(count),
    }
}

/// Runs a preset binary: the campaign `spec`, with `--seed`,
/// `--telemetry` and each of `keys` set through [`CampaignSpec::set`],
/// `--fast` (if `fast` is non-empty) sweeping `n` over `fast`, on
/// `--threads` workers. Every key in `keys` is a count (`--runs`,
/// `--samples`, `--trials`), so zero is refused as by [`count`].
pub fn preset(spec: &str, keys: &[&str], fast: &[usize]) -> ExitCode {
    let mut values = vec!["seed", "telemetry", "threads"];
    values.extend(keys);
    let flags: &[&str] = if fast.is_empty() { &[] } else { &["fast"] };
    main(&values, flags, |opts, out| {
        let mut spec = CampaignSpec::parse(spec, "preset")?;
        if let Some(seed) = opts.number::<u64>("seed")? {
            spec.set("seed", seed)?;
        }
        for &key in keys {
            if opts.get(key).is_some() {
                spec.set(key, count(opts, key, 0)?)?;
            }
        }
        if let Some(mode) = opts.get("telemetry") {
            let mode: TelemetryMode = mode.parse().map_err(|e| format!("--telemetry: {e}"))?;
            spec.set("telemetry", mode)?;
        }
        if opts.flag("fast") {
            spec.set_sweep("n", fast)?;
        }
        let telemetry = Telemetry::new(spec.telemetry_mode()?);
        let mut engine = Engine::new(opts.number("threads")?.unwrap_or(0), telemetry);
        Ok(presets::run_campaign(&spec, &mut engine, out)?)
    })
}
