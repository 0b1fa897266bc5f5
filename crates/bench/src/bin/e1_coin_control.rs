//! E1 — Corollary 2.2: control over one-round coin-flipping games.
//!
//! Claim: once the adversary can hide more than `k·4·√(n·log n)` inputs,
//! **some** outcome is forcible with probability `> 1 − 1/n`; and
//! one-sidedness is real — 0-default majority is never forcible to 1, the
//! one-sided game never forcible to 0 (from all-ones).
//!
//! The harness sweeps the hide budget as a multiple `c` of
//! `h = 4·√(n·ln n)` and reports, per game and per outcome, the fraction
//! of sampled input vectors from which the searcher forces that outcome.

use std::io::Write;
use std::process::ExitCode;

use synran_analysis::{fmt_f64, Table};
use synran_bench::{count, Error};
use synran_coin::HideSearch;
use synran_coin::{
    bias_radius, estimate_control, exact_influences, exact_uncontrollable, CoinGame, GreedyHider,
    MajorityGame, OneSidedGame, Outcome, ParityGame, RecursiveMajorityGame, TribesGame,
};
use synran_lab::cli::Options;
use synran_lab::presets::{banner, section};
use synran_sim::SimRng;

fn run_game<G: CoinGame>(game: &G, n: usize, samples: usize, seed: u64, table: &mut Table) {
    let h = bias_radius(n);
    for c in [0.0f64, 0.25, 0.5, 1.0, 2.0] {
        let t = ((c * h).round() as usize).min(n);
        let mut rng = SimRng::new(seed).derive(t as u64);
        let est = estimate_control(game, &GreedyHider, t, samples, &mut rng);
        let verdict = est
            .controlled_outcome(1.0 - 1.0 / n as f64)
            .map_or_else(|| "-".to_string(), |v| format!("→{}", v.0));
        table.row([
            game.name().to_string(),
            n.to_string(),
            fmt_f64(c, 2),
            t.to_string(),
            fmt_f64(est.forcible_fraction(Outcome(0)), 3),
            fmt_f64(est.forcible_fraction(Outcome(1)), 3),
            verdict,
        ]);
    }
}

fn main() -> ExitCode {
    synran_bench::main(&["samples", "seed"], &["fast"], run)
}

fn run(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let samples = count(opts, "samples", 300)?;
    let seed = opts.number("seed")?.unwrap_or(1);
    let sizes: Vec<usize> = if opts.flag("fast") {
        vec![64, 256]
    } else {
        vec![64, 256, 1024, 4096]
    };

    banner(
        out,
        "E1 coin-game control (Corollary 2.2)",
        "t > k·4·√(n·log n) hides ⇒ some outcome forcible w.p. > 1 − 1/n; \
         majority-0 is never forcible to 1",
    )?;
    writeln!(
        out,
        "hide budget t = c · h where h = 4√(n·ln n); {samples} sampled input vectors per row"
    )?;

    section(out, "binary games")?;
    let mut table = Table::new(["game", "n", "c", "t", "force→0", "force→1", "controlled"]);
    for &n in &sizes {
        run_game(&MajorityGame::new(n), n, samples, seed, &mut table);
        run_game(&ParityGame::new(n), n, samples, seed ^ 1, &mut table);
        run_game(&OneSidedGame::new(n), n, samples, seed ^ 2, &mut table);
        let width = (n as f64).log2().round() as usize;
        let tribes = TribesGame::new(n / width.max(1), width.max(1));
        run_game(&tribes, tribes.players(), samples, seed ^ 3, &mut table);
        // Nearest power-of-three size for the recursive-majority tree.
        let depth = ((n as f64).ln() / 3f64.ln()).round().max(1.0) as u32;
        let recmaj = RecursiveMajorityGame::new(depth);
        run_game(&recmaj, recmaj.players(), samples, seed ^ 4, &mut table);
    }
    write!(out, "{table}")?;

    section(
        out,
        "exact Pr(U^v) at n = 16 (Lemma 2.1's quantity, no sampling)",
    )?;
    // U^v = inputs from which no t-hide-set forces v; the lemma wants
    // min_v Pr(U^v) < 1/n. Enumerated over all 2^16 inputs.
    let mut exact_table = Table::new(["t", "Pr(U^0) majority", "Pr(U^1) majority", "min_v < 1/n?"]);
    let n16 = 16usize;
    let g16 = MajorityGame::new(n16);
    for t in [0usize, 1, 2, 4, 8, 16] {
        let u0 = exact_uncontrollable(&g16, t, Outcome(0));
        let u1 = exact_uncontrollable(&g16, t, Outcome(1));
        exact_table.row([
            t.to_string(),
            fmt_f64(u0, 4),
            fmt_f64(u1, 4),
            if u0.min(u1) < 1.0 / n16 as f64 {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    write!(out, "{exact_table}")?;
    writeln!(
        out,
        "\nreading: Pr(U^0) collapses with t (hide the 1s) and crosses 1/n by t ≈ √n = 4,\
         \nwhile Pr(U^1) never moves (its 0.598 is Pr(no 1-majority drawn)) — Lemma 2.1's 'some v', exactly."
    )?;

    section(
        out,
        "influence vs forcing cost (why [BOL89]'s measure does not apply)",
    )?;
    // Low per-player influence is the classical defence against biasing —
    // but fail-stop hiding is not input corruption: recursive majority
    // has a fraction of flat majority's influence and the same ~√n
    // forcing cost toward 0.
    let mut inf_table = Table::new([
        "game (n ≈ 2k)",
        "max influence",
        "hides to force →0 (median)",
    ]);
    let mut rng = SimRng::new(seed ^ 9);
    for game in [
        Box::new(MajorityGame::new(2187)) as Box<dyn CoinGame>,
        Box::new(RecursiveMajorityGame::new(7)), // 3^7 = 2187 players
    ] {
        // Exact influences are exponential; use the closed forms verified
        // in the library tests for majority, and sampled estimates for a
        // small instance to display the scaling direction.
        let small: Box<dyn CoinGame> = if game.name() == "majority-0" {
            Box::new(MajorityGame::new(9))
        } else {
            Box::new(RecursiveMajorityGame::new(2))
        };
        let influence = exact_influences(small.as_ref()).max();
        // Median forcing cost toward 0 over sampled inputs.
        let mut costs: Vec<usize> = (0..50)
            .filter_map(|_| {
                let values = synran_coin::sample_inputs(game.as_ref(), &mut rng);
                match GreedyHider.force(game.as_ref(), &values, game.players(), Outcome(0)) {
                    synran_coin::SearchOutcome::Forced(set) => Some(set.len()),
                    _ => None,
                }
            })
            .collect();
        costs.sort_unstable();
        let median = costs.get(costs.len() / 2).copied().unwrap_or(0);
        inf_table.row([
            format!("{} (influence at n = 9)", game.name()),
            fmt_f64(influence, 3),
            median.to_string(),
        ]);
    }
    write!(out, "{inf_table}")?;
    writeln!(
        out,
        "\n(√n ≈ 47 at n = 2187. Whatever the per-player influence — [BOL89]'s\
         \ndefence against input *corruption* — the fail-stop hider pays a small\
         \nmultiple of √n either way: hiding is a different threat model.)"
    )?;

    section(out, "reading the table")?;
    writeln!(
        out,
        "• majority-0: force→0 hits 1.000 once c ≥ ~0.25 (hiding ~√n ones suffices),\
         \n  while force→1 stays at the no-hide base rate — the paper's one-sided example.\
         \n• parity: both columns ≈ 1 − 2^-n at any c with t ≥ 1 (hide one 1 to flip).\
         \n• one-sided: force→0 = Pr(some 0 drawn) already at c = 0; force→1 needs c ≳ 1\
         \n  (must hide every 0-holder: ~n/2 of them, ≫ h only for small n).\
         \n• Cor 2.2's guarantee: at c ≥ 1, the 'controlled' column is never '-'."
    )?;
    Ok(())
}
