//! E2 — Lemma 2.1's engine: Schechtman's blow-up inequality, verified
//! exactly on small hypercubes.
//!
//! Claim: for `A ⊆ {0,1}^n` with `Pr(A) = α` and `l ≥ l₀ = 2√(n·ln(1/α))`,
//! `Pr(B(A, l)) ≥ 1 − e^{−(l−l₀)²/4n}`. The harness computes `B(A, l)`
//! exactly (Hamming-ball DP over the whole cube) for random sets and
//! reports exact vs bound, plus the Lemma 2.1 instantiation
//! (`α = 1/n`, `l = h = 4√(n·ln n)` ⇒ bound `1 − 1/n`).

use std::io::Write;
use std::process::ExitCode;

use synran_analysis::{fmt_f64, Table};
use synran_bench::Error;
use synran_coin::{bias_radius, schechtman_bound, schechtman_l0, HypercubeSet};
use synran_lab::cli::Options;
use synran_lab::presets::{banner, section};
use synran_sim::SimRng;

fn main() -> ExitCode {
    synran_bench::main(&["max-dim", "seed"], &[], run)
}

fn run(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let seed = opts.number("seed")?.unwrap_or(2);
    // The exact blow-up walks the whole cube: 2^20 points is the largest
    // it is run on.
    let max_dim: u32 = opts.number("max-dim")?.unwrap_or(16);
    if max_dim > 20 {
        return Err(format!("--max-dim must be at most 20, got {max_dim}").into());
    }

    banner(
        out,
        "E2 isoperimetric blow-up (Schechtman / Lemma 2.1)",
        "Pr(B(A,l)) ≥ 1 − e^{−(l−l₀)²/4n} for l ≥ l₀ = 2√(n·ln(1/α))",
    )?;

    section(out, "exact blow-up vs closed-form bound (random sets)")?;
    let mut table = Table::new(["n", "α", "l₀", "l", "exact Pr(B(A,l))", "bound", "holds"]);
    let mut violations = 0usize;
    let mut rows = 0usize;
    for n in (8..=max_dim).step_by(4) {
        for density in [0.02f64, 0.1, 0.4] {
            let mut rng = SimRng::new(seed)
                .derive(u64::from(n))
                .derive((density * 100.0) as u64);
            let a = HypercubeSet::random(n, density, &mut rng);
            if a.is_empty() {
                continue;
            }
            let alpha = a.measure();
            let l0 = schechtman_l0(n as usize, alpha);
            for l in [0u32, n / 4, n / 2, 3 * n / 4, n] {
                let exact = a.blow_up(l).measure();
                let bound = schechtman_bound(n as usize, alpha, l);
                let holds = exact + 1e-12 >= bound;
                if !holds {
                    violations += 1;
                }
                rows += 1;
                table.row([
                    n.to_string(),
                    fmt_f64(alpha, 4),
                    fmt_f64(l0, 2),
                    l.to_string(),
                    fmt_f64(exact, 6),
                    fmt_f64(bound, 6),
                    if holds { "yes" } else { "NO" }.to_string(),
                ]);
            }
        }
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\n{rows} rows checked, {violations} violations (expected: 0)"
    )?;

    section(out, "worst-case sets: Hamming balls (extremal for blow-up)")?;
    let mut ball_table = Table::new(["n", "ball radius", "α", "l", "exact", "bound"]);
    for n in [10u32, 14] {
        for r in [0u32, 1] {
            let a = HypercubeSet::ball(n, 0, r);
            let alpha = a.measure();
            for l in [n / 2, n] {
                ball_table.row([
                    n.to_string(),
                    r.to_string(),
                    fmt_f64(alpha, 4),
                    l.to_string(),
                    fmt_f64(a.blow_up(l).measure(), 6),
                    fmt_f64(schechtman_bound(n as usize, alpha, l), 6),
                ]);
            }
        }
    }
    write!(out, "{ball_table}")?;

    section(
        out,
        "the Lemma 2.1 instantiation: α = 1/n, l = h = 4√(n·ln n)",
    )?;
    let mut lemma_table = Table::new(["n", "h = 4√(n·ln n)", "l₀ at α = 1/n", "bound (= 1 − 1/n)"]);
    for n in [64usize, 256, 1024, 4096, 65536] {
        let h = bias_radius(n);
        let l0 = schechtman_l0(n, 1.0 / n as f64);
        let bound = schechtman_bound(n, 1.0 / n as f64, h.ceil() as u32);
        lemma_table.row([
            n.to_string(),
            fmt_f64(h, 1),
            fmt_f64(l0, 1),
            fmt_f64(bound, 6),
        ]);
    }
    write!(out, "{lemma_table}")?;
    writeln!(
        out,
        "\nreading: h = 2·l₀ exactly, so the bound is 1 − e^{{−ln n}} = 1 − 1/n —\
         \nthe step that lets k blow-ups intersect and produce the contradiction in Lemma 2.1."
    )?;
    Ok(())
}
