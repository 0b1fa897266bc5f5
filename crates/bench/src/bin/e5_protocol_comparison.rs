//! E5 — protocol comparison: one-side-biased coin vs symmetric coin vs the
//! deterministic `t+1`-round baseline.
//!
//! Claims under test (paper §1.1 and §4):
//!
//! * flooding always takes exactly `t + 1` rounds — linear in `t`;
//! * SynRan grows like `t/√(n·log n)` — sublinear, crossing flooding near
//!   `t ≈ √n`;
//! * the one-side-biased coin is what lets SynRan keep its guarantee
//!   against *adaptive* attacks: under them the symmetric variant's
//!   unanimity is not absorbing (kills can knock a converged population
//!   back into coin-flipping), while SynRan's `Z = 0 → 1` rule makes
//!   trimming a unanimous-1 population worthless.

use std::io::Write;
use std::process::ExitCode;

use synran_analysis::{deterministic_rounds, fmt_f64, tight_bound_rounds, Table};
use synran_bench::{count, Error};
use synran_core::{ConsensusProtocol, FloodingConsensus, SynRan};
use synran_lab::cli::Options;
use synran_lab::presets::{banner, section};
use synran_lab::{run_cell_batch, write_run_artifact, Cell};
use synran_sim::{Telemetry, TelemetryMode};

fn main() -> ExitCode {
    synran_bench::main(&["n", "runs", "seed", "telemetry"], &[], run)
}

fn run(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let runs = count(opts, "runs", 30)?;
    let seed = opts.number("seed")?.unwrap_or(5);
    let n = count(opts, "n", 64)?;
    // `--telemetry counters` (or `spans`) attaches one hub to every batch
    // below — observe-only, so the tables are unchanged — and writes the
    // aggregate to results/e5_protocol_comparison.telemetry.jsonl.
    let mode: TelemetryMode = opts
        .get("telemetry")
        .unwrap_or("off")
        .parse()
        .map_err(|e| format!("--telemetry: {e}"))?;
    let hub = Telemetry::new(mode);

    banner(
        out,
        "E5 protocol comparison",
        "flooding = t+1 rounds; SynRan ∝ t/√(n·log n); one-sided coin beats symmetric under attack",
    )?;
    writeln!(out, "n = {n}, even-split inputs, {runs} runs/cell")?;

    let sqrt_n = (n as f64).sqrt().round() as usize;
    let t_values = [2, sqrt_n, n / 4, n / 2, n - 1];
    // Every batch is one registry cell: even-split inputs unless `ones`
    // says otherwise, `random` killing round(√n) a round.
    let cell = |protocol: &str, adversary: &str, t: usize, base_seed: u64| {
        let mut cell = Cell::new(protocol, adversary, n);
        (cell.t, cell.runs, cell.seed, cell.rate) = (t, runs, base_seed, sqrt_n);
        cell
    };
    let batch = |cell: &Cell| run_cell_batch(cell, 0, &hub).map(|(_, outcome)| outcome);

    section(out, "rounds to agreement under a passive adversary")?;
    let mut table = Table::new([
        "t",
        "flooding",
        "synran",
        "synran-sym",
        "bound t/√(n·ln(2+t/√n))",
    ]);
    for &t in &t_values {
        let [flooding, synran, sym] =
            ["flooding", "synran", "symmetric"].map(|p| batch(&cell(p, "passive", t, seed)));
        let (flooding, synran, sym) = (flooding?, synran?, sym?);
        for o in [&flooding, &synran, &sym] {
            assert!(o.all_correct(), "violations: {:?}", o.incorrect());
        }
        table.row([
            t.to_string(),
            fmt_f64(flooding.mean_rounds(), 1),
            fmt_f64(synran.mean_rounds(), 1),
            fmt_f64(sym.mean_rounds(), 1),
            fmt_f64(tight_bound_rounds(n, t).max(2.0), 1),
        ]);
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\nexpected: flooding column = t + 1 exactly (e.g. t = {} ⇒ {} rounds); \
         randomized columns stay small.",
        n / 2,
        deterministic_rounds(n / 2)
    )?;

    section(out, "rounds to agreement under adaptive attack (t = n − 1)")?;
    let t = n - 1;
    let mut attack_table = Table::new(["adversary", "flooding", "synran", "synran-sym"]);
    let [flooding_r, synran_r, sym_r] =
        ["flooding", "synran", "symmetric"].map(|p| batch(&cell(p, "random", t, seed ^ 2)));
    let (flooding_r, synran_r, sym_r) = (flooding_r?, synran_r?, sym_r?);
    attack_table.row([
        format!("random(√n = {sqrt_n})"),
        fmt_f64(flooding_r.mean_rounds(), 1),
        fmt_f64(synran_r.mean_rounds(), 1),
        fmt_f64(sym_r.mean_rounds(), 1),
    ]);
    // Balancer (SynRan-family only; flooding is oblivious to it, so rerun
    // random there for a fair row).
    let balancer = cell("synran", "balancer", t, seed ^ 3);
    let synran_b = batch(&balancer)?;
    let sym_b = batch(&cell("symmetric", "balancer", t, seed ^ 3))?;
    for o in [&flooding_r, &synran_r, &sym_r, &synran_b, &sym_b] {
        assert!(o.all_correct(), "violations: {:?}", o.incorrect());
    }
    attack_table.row([
        "balancer".to_string(),
        format!("{} (t+1, oblivious)", t + 1),
        fmt_f64(synran_b.mean_rounds(), 1),
        fmt_f64(sym_b.mean_rounds(), 1),
    ]);
    write!(out, "{attack_table}")?;

    section(
        out,
        "why the one-sided coin matters: validity under unanimous-1 inputs",
    )?;
    // With all inputs 1 and t ≥ ~n/3, the adversary can kill enough
    // 1-senders mid-round that survivors' counts fall into the coin band.
    // The symmetric variant then flips coins — and may decide 0, violating
    // Validity. SynRan's `Z = 0 → 1` rule is immune: no visible 0 means
    // propose 1, whatever the counts. (This is why plain Ben-Or needs
    // t < n/2 while SynRan tolerates any t < n.)
    let [syn_u, sym_u] = ["synran", "symmetric"].map(|p| {
        let mut unanimous = cell(p, "balancer", t, seed ^ 4);
        unanimous.ones = n;
        batch(&unanimous)
    });
    let (syn_u, sym_u) = (syn_u?, sym_u?);
    let mut validity_table = Table::new(["protocol", "runs", "validity violations"]);
    validity_table.row([
        "synran".to_string(),
        runs.to_string(),
        syn_u.incorrect().len().to_string(),
    ]);
    validity_table.row([
        "synran-sym".to_string(),
        runs.to_string(),
        sym_u.incorrect().len().to_string(),
    ]);
    write!(out, "{validity_table}")?;
    assert!(
        syn_u.all_correct(),
        "SynRan must never violate validity: {:?}",
        syn_u.incorrect()
    );
    writeln!(
        out,
        "\nexpected: synran 0 violations at any t; synran-sym violates in essentially every\n\
         run — the adversary *controls* its decision: trims block 1-convergence while\n\
         0-heavy coin rounds convert for free, so all-1 inputs end in a 0 decision."
    )?;

    section(out, "crossover")?;
    writeln!(
        out,
        "flooding wins while t + 1 < SynRan's ~c·t/√(n·ln n) — i.e. only for t ≲ √n ≈ {sqrt_n};"
    )?;
    writeln!(
        out,
        "protocol names: {} / {} / {}",
        FloodingConsensus::for_faults(1).name(),
        SynRan::new().name(),
        SynRan::symmetric().name()
    )?;

    if mode != TelemetryMode::Off {
        // One representative adaptive run (run 0 of the attack section's
        // SynRan × balancer cell) for the per-round kill accounting, then
        // the hub's aggregate of every batch above.
        let path = write_run_artifact(
            "e5_protocol_comparison",
            &balancer,
            &[("seed", seed.to_string())],
            &hub,
        )?;
        writeln!(out, "\nwrote {}", path.display())?;
    }
    Ok(())
}
