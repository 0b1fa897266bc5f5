//! E8 — Lemma 4.6 / Theorem 2 accounting: stalling SynRan costs the
//! adversary ~`√(p·log p)/16` kills per 3-round block.
//!
//! The harness runs SynRan against the coin-band balancer, reconstructs
//! the alive-population timeline from each run's kills per round, groups
//! rounds into blocks of three (the unit of Lemma 4.6's argument), and
//! compares the adversary's spend per block with the `√(p·ln p)` law as
//! the population halves — plus an ablation of the balancer's per-round
//! cap, which should reduce both spend *and* stalling power together.

use std::io::Write;
use std::process::ExitCode;

use synran_analysis::{fmt_f64, Accumulator, Table};
use synran_bench::{count, Error};
use synran_core::ln_clamped;
use synran_lab::cli::Options;
use synran_lab::presets::{banner, section};
use synran_lab::{run_cell_once, write_run_artifact, Cell, LabError};
use synran_sim::{Telemetry, TelemetryMode};

/// Per-block observations of run `index` of `cell`: population at block
/// start, kills in the block.
fn blocks_of_run(
    cell: &Cell,
    index: usize,
    telemetry: &Telemetry,
) -> Result<(Vec<(usize, usize)>, u32), LabError> {
    let (_, verdict) = run_cell_once(cell, index, telemetry)?;
    assert!(verdict.is_correct(), "{:?}", verdict.violations());
    let rounds = verdict.rounds();
    // kills per round, dense.
    let mut per_round = vec![0usize; rounds as usize + 1];
    for (round, k) in verdict.report().kills_per_round() {
        per_round[round.index() as usize - 1] += k;
    }
    let mut blocks = Vec::new();
    let mut population = cell.n;
    let mut i = 0usize;
    while i < per_round.len() {
        let kills: usize = per_round[i..(i + 3).min(per_round.len())].iter().sum();
        blocks.push((population, kills));
        population -= kills;
        i += 3;
    }
    Ok((blocks, rounds))
}

fn law(p: usize) -> f64 {
    ((p as f64) * ln_clamped(p)).sqrt()
}

fn main() -> ExitCode {
    synran_bench::main(&["n", "runs", "seed"], &[], run)
}

fn run(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let runs = count(opts, "runs", 25)?;
    let n = count(opts, "n", 128)?;
    let seed = opts.number("seed")?.unwrap_or(8);

    banner(
        out,
        "E8 stalling-cost accounting (Lemma 4.6 / Theorem 2)",
        "the adversary must spend ~√(p·log p)/16 kills per 3-round block to stall SynRan",
    )?;
    writeln!(
        out,
        "n = {n}, t = n − 1, {runs} runs, even-split inputs, balancer adversary"
    )?;
    // One counters-mode hub across the whole experiment; exported to
    // results/e8_budget_ablation.telemetry.jsonl at the end. Observe-only:
    // the tables are identical with or without it.
    let telemetry = Telemetry::new(TelemetryMode::Counters);
    // SynRan × balancer at t = n − 1 from an even split; `cap` 0 is the
    // unbounded balancer.
    let balancer = |base_seed: u64, cap: usize| {
        let mut cell = Cell::new("synran", "balancer", n);
        (cell.runs, cell.seed, cell.cap) = (runs, base_seed, cap);
        cell
    };
    let unbounded = balancer(seed, 0);

    section(
        out,
        "spend per 3-round block vs √(p·ln p), by population band",
    )?;
    // Aggregate block spends into population bands [n/2^k, n/2^{k+1}).
    let bands = 5usize;
    let mut band_spend: Vec<Accumulator> = vec![Accumulator::new(); bands];
    let mut total_rounds = Accumulator::new();
    let mut total_kills = Accumulator::new();
    for r in 0..runs {
        let (blocks, rounds) = blocks_of_run(&unbounded, r, &telemetry)?;
        total_rounds.push(f64::from(rounds));
        total_kills.push(blocks.iter().map(|&(_, k)| k as f64).sum());
        for (p, kills) in blocks {
            if p == 0 {
                continue;
            }
            // band 0: p in (n/2, n]; band 1: (n/4, n/2]; ...
            let mut band = 0usize;
            let mut bound = n / 2;
            while p <= bound && band + 1 < bands {
                band += 1;
                bound /= 2;
            }
            band_spend[band].push(kills as f64);
        }
    }
    let mut table = Table::new([
        "population band",
        "blocks observed",
        "mean kills/block",
        "√(p·ln p) at band top",
        "ratio",
    ]);
    let mut top = n;
    for acc in band_spend.iter().take(bands) {
        if acc.count() > 0 {
            let predicted = law(top);
            table.row([
                format!("({}, {}]", top / 2, top),
                acc.count().to_string(),
                fmt_f64(acc.mean(), 1),
                fmt_f64(predicted, 1),
                fmt_f64(acc.mean() / predicted, 2),
            ]);
        }
        top /= 2;
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\nmean run: {} rounds, {} kills — expected: the ratio column is a modest constant,",
        fmt_f64(total_rounds.mean(), 1),
        fmt_f64(total_kills.mean(), 0),
    )?;
    writeln!(
        out,
        "stable across bands, i.e. spend/block tracks √(p·ln p) as p halves (Lemma 4.6)."
    )?;

    section(out, "ablation: capping the balancer's per-round spend")?;
    let mut ablation = Table::new(["per-round cap", "mean rounds", "mean kills"]);
    for cap in [0, law(n).ceil() as usize, (law(n) / 4.0).ceil() as usize, 1] {
        let capped = balancer(seed ^ 0xAB, cap);
        let mut rounds_acc = Accumulator::new();
        let mut kills_acc = Accumulator::new();
        for r in 0..runs {
            let (blocks, rounds) = blocks_of_run(&capped, r, &telemetry)?;
            rounds_acc.push(f64::from(rounds));
            kills_acc.push(blocks.iter().map(|&(_, k)| k as f64).sum());
        }
        ablation.row([
            if cap == 0 {
                "unbounded".to_string()
            } else {
                cap.to_string()
            },
            fmt_f64(rounds_acc.mean(), 1),
            fmt_f64(kills_acc.mean(), 0),
        ]);
    }
    write!(out, "{ablation}")?;
    writeln!(
        out,
        "\nexpected: caps below ~√(n·ln n) starve the split move and stalling collapses —\
         \nthe same threshold the paper's lower-bound adversary needs per round."
    )?;

    // Telemetry artifact: the experiment-wide counters plus per-round
    // kill-budget accounting from one representative unbounded run (run 0
    // of the first section's cell).
    let path = write_run_artifact(
        "e8_budget_ablation",
        &unbounded,
        &[("seed", seed.to_string()), ("runs", runs.to_string())],
        &telemetry,
    )?;
    writeln!(out, "\ntelemetry: {}", path.display())?;
    Ok(())
}
