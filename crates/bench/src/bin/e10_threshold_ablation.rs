//! E10 — ablation of Lemma 4.2's margins: the threshold constants are
//! tight.
//!
//! SynRan's constants 7/10, 6/10, 5/10, 4/10 with stability margin 1/10
//! satisfy `decide − propose = stability` **exactly**, on both sides.
//! Lemma 4.2's Agreement proof consumes the whole margin: a stopping
//! process's evidence (`> 7/10·N` votes) minus the deaths the stability
//! rule tolerates (`≤ 1/10·N`) must still clear everyone else's propose
//! line (`> 6/10·N`).
//!
//! The harness runs the boundary attack — which constructs exactly the
//! execution the proof rules out — against threshold variants on both
//! sides of the margin, and reports agreement-violation rates. Expected:
//! zero violations whenever `respects_lemma_4_2`, consistent violations
//! as soon as the decide gap dips below the stability margin, with wider
//! margins costing latency.

use std::io::Write;
use std::process::ExitCode;

use synran_adversary::{Balancer, BoundaryAttack};
use synran_analysis::{fmt_f64, Summary, Table};
use synran_bench::{count, Error};
use synran_core::{run_batch, InputAssignment, SynRan, Thresholds};
use synran_lab::cli::Options;
use synran_lab::presets::{banner, section};
use synran_sim::{Bit, SimConfig, SimError};

/// Agreement violations and mean rounds of `runs` boundary-attack runs
/// against the `name` variant, from its ideal split for `target`.
fn violation_rate(
    name: &str,
    thresholds: Thresholds,
    target: Bit,
    n: usize,
    runs: usize,
    base_seed: u64,
) -> Result<(usize, f64), SimError> {
    let outcome = run_batch(
        &SynRan::with_thresholds(thresholds),
        InputAssignment::Split {
            ones: BoundaryAttack::ideal_ones(n, thresholds, target),
        },
        &SimConfig::new(n).faults(n - 1).max_rounds(100_000),
        runs,
        base_seed,
        |_| BoundaryAttack::targeting(target),
    )?;
    // A timeout would drop a run from both counts below.
    assert_eq!(outcome.timeouts(), 0, "{name}: a run hit the round limit");
    Ok((
        outcome.incorrect().len(),
        Summary::of_u32(outcome.rounds()).mean(),
    ))
}

fn main() -> ExitCode {
    synran_bench::main(&["n", "runs", "seed"], &[], run)
}

fn run(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let runs = count(opts, "runs", 40)?;
    let n = count(opts, "n", 40)?;
    let seed = opts.number("seed")?.unwrap_or(10);

    banner(
        out,
        "E10 threshold-margin ablation (Lemma 4.2)",
        "decide − propose ≥ stability is exactly what Agreement needs — no slack",
    )?;
    writeln!(
        out,
        "boundary attack, n = {n}, t = n − 1, {runs} runs per variant"
    )?;

    section(out, "agreement under the boundary attack, by margin")?;
    let variants: Vec<(&str, Thresholds)> = vec![
        ("paper (gap = margin)", Thresholds::paper()),
        ("wide gap (15/12)", Thresholds::new(15, 12, 10, 7, 2)),
        ("narrow gap (13/12)", Thresholds::new(13, 12, 10, 8, 2)),
        ("zero gap (12/12)", Thresholds::new(12, 12, 10, 8, 2)),
        ("narrow 0-side (10/9)", Thresholds::new(14, 12, 10, 9, 2)),
        (
            "big margin, ok (15/12, s=3)",
            Thresholds::new(15, 12, 9, 6, 3),
        ),
    ];
    let mut table = Table::new([
        "variant",
        "lemma 4.2 margin ok",
        "violations (1-side attack)",
        "violations (0-side attack)",
        "mean rounds",
    ]);
    for (name, th) in &variants {
        let (v1, mean_rounds) = violation_rate(name, *th, Bit::One, n, runs, seed)?;
        let (v0, _) = violation_rate(name, *th, Bit::Zero, n, runs, seed ^ 0xF0)?;
        table.row([
            (*name).to_string(),
            if th.respects_lemma_4_2() { "yes" } else { "NO" }.to_string(),
            format!("{v1}/{runs}"),
            format!("{v0}/{runs}"),
            fmt_f64(mean_rounds, 1),
        ]);
        if th.respects_lemma_4_2() {
            assert_eq!(
                (v1, v0),
                (0, 0),
                "{name}: a margin-respecting variant must never violate agreement"
            );
        }
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\nexpected: every margin-respecting row shows 0 violations; every\
         \nmargin-violating row shows a substantial violation rate — the paper's\
         \nconstants sit exactly on the safe edge."
    )?;

    section(
        out,
        "the latency cost of wider margins (balancer, even split)",
    )?;
    let mut latency = Table::new(["variant", "mean rounds", "all correct"]);
    for (name, th) in variants.iter().filter(|(_, th)| th.respects_lemma_4_2()) {
        let outcome = run_batch(
            &SynRan::with_thresholds(*th),
            InputAssignment::even_split(n),
            &SimConfig::new(n).faults(n - 1).max_rounds(100_000),
            runs.min(25),
            seed ^ 0xE10,
            |_| Balancer::unbounded(),
        )?;
        latency.row([
            (*name).to_string(),
            fmt_f64(outcome.mean_rounds(), 1),
            if outcome.all_correct() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    write!(out, "{latency}")?;
    writeln!(
        out,
        "\nreading: safety is free to widen, latency is not — the paper's choice\
         \nis the fastest margin-respecting point."
    )?;
    Ok(())
}
