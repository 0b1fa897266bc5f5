//! E3 — Theorem 1: the adversary forces `Ω(t / √(n·log n))` rounds.
//!
//! The campaign form of `e3_lower_bound`: the binary is a thin wrapper
//! over this preset, so `synran campaign run campaigns/e3.campaign` and
//! the binary share one code path and print byte-identical tables. Cells
//! carry the exact seed derivation the binary's hand-rolled loop used
//! (`run_batch` semantics), which is what makes the equivalence hold.

use std::io::Write;

use synran_adversary::{find_adversarial_input, paper_cap, probe_horizon};
use synran_analysis::{fmt_f64, lower_bound_rounds, ShapeFit, Summary, Table};
use synran_core::{per_round_kill_budget, SynRan};
use synran_sim::SimConfig;

use crate::artifact::write_run_artifact;
use crate::cell::{Cell, CellResult};
use crate::engine::CellRunner;
use crate::presets::{banner, section};
use crate::spec::CampaignSpec;
use crate::LabError;

/// The E3 campaign's parameters.
#[derive(Debug, Clone)]
pub struct E3Params {
    /// System sizes for the main table (`t ∈ {n/2, n−1}` per size).
    pub sizes: Vec<usize>,
    /// Runs per table point.
    pub runs: usize,
    /// Valency-probe forks per adversary decision.
    pub samples: usize,
    /// Base seed (the binary's `--seed`).
    pub seed: u64,
}

/// The binary's full-size default sweep.
pub const DEFAULT_SIZES: [usize; 5] = [16, 24, 32, 48, 64];

/// The pinch section's starved cap: `max(⌈budget/16⌉, 1)`.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn starved_cap(n: usize) -> usize {
    ((per_round_kill_budget(n) / 16.0).ceil() as usize).max(1)
}

impl E3Params {
    /// Parameters from a campaign spec (`experiment = e3`): `runs`,
    /// `samples`, `seed` scalars and an optional `sweep n` axis, with the
    /// binary's defaults.
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Spec`] for unparseable values.
    pub fn from_spec(spec: &CampaignSpec) -> Result<E3Params, LabError> {
        Ok(E3Params {
            sizes: spec.sweep_usize("n", &DEFAULT_SIZES)?,
            runs: spec.param_num("runs", 8)?,
            samples: spec.param_num("samples", 3)?,
            seed: spec.param_num("seed", 3)?,
        })
    }

    fn base_cell(&self, adversary: &str, n: usize, t: usize, seed: u64) -> Cell {
        let mut cell = Cell::new("synran", adversary, n);
        cell.t = t;
        cell.runs = self.runs;
        cell.seed = seed;
        cell.max_rounds = 100_000;
        cell
    }

    fn forced_cell(&self, n: usize, t: usize, cap: usize, seed: u64) -> Cell {
        let mut cell = self.base_cell("lower-bound", n, t, seed);
        cell.cap = cap;
        cell.samples = self.samples;
        cell.horizon = probe_horizon(n);
        cell
    }

    /// The campaign's deterministic cell list: per size, `(passive,
    /// forced)` at `t = n/2` then `t = n−1`, followed by the pinch
    /// section's starved-cap cells on the first two sizes.
    #[must_use]
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &n in &self.sizes {
            let cap = paper_cap(n);
            for t in [n / 2, n - 1] {
                cells.push(self.base_cell("passive", n, t, self.seed ^ 0xAAAA));
                cells.push(self.forced_cell(n, t, cap, self.seed));
            }
        }
        for &n in &self.sizes[..self.sizes.len().min(2)] {
            cells.push(self.forced_cell(n, n - 1, starved_cap(n), self.seed ^ 0xBBBB));
        }
        cells
    }
}

/// `(mean rounds, ±95% CI, mean kills)` of a cell — the binary's
/// `mean_rounds` triple, recomputed from the raw per-run vectors with the
/// same `Summary` calls so the formatted digits match exactly.
fn stats(cell: &Cell, result: &CellResult) -> (f64, f64, f64) {
    assert!(
        result.all_correct(),
        "consensus violated at n={} t={}",
        cell.n,
        cell.t
    );
    let s = Summary::of_u32(&result.rounds);
    #[allow(clippy::cast_possible_truncation)]
    let kills: Vec<u32> = result.kills.iter().map(|&k| k as u32).collect();
    let k = Summary::of_u32(&kills);
    (s.mean(), s.ci95_halfwidth(), k.mean())
}

/// Runs E3 on `runner` and renders the binary's exact output into `out`.
///
/// # Errors
///
/// Propagates execution and I/O errors.
#[allow(
    clippy::too_many_lines,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn run(
    params: &E3Params,
    runner: &mut dyn CellRunner,
    out: &mut dyn Write,
) -> Result<(), LabError> {
    let E3Params {
        sizes,
        runs,
        samples,
        seed,
    } = params.clone();
    let cells = params.cells();
    let results = runner.run_cells(&cells)?;
    let mut slots = cells.iter().zip(&results);

    banner(
        out,
        "E3 the lower bound (Theorem 1)",
        "an adaptive full-information adversary forces Ω(t/√(n·log n)) rounds",
    )?;
    writeln!(
        out,
        "valency-guided adversary, paper cap = ⌈4√(n·ln n)⌉ + 1 per round, {runs} runs/point, {samples} forks/probe"
    )?;

    section(out, "forced rounds vs the t/√(n·ln n) curve")?;
    let mut table = Table::new([
        "n",
        "t",
        "cap/round",
        "passive",
        "forced",
        "±95%",
        "kills used",
        "t/√(n·ln n)",
        "forced ÷ curve",
    ]);
    let mut measured = Vec::new();
    let mut predicted = Vec::new();
    for &n in &sizes {
        let cap = paper_cap(n);
        for t in [n / 2, n - 1] {
            let (passive_cell, passive_result) = slots.next().expect("passive cell");
            let (passive_mean, _, _) = stats(passive_cell, passive_result);
            let (forced_cell, forced_result) = slots.next().expect("forced cell");
            let (forced_mean, ci, kills) = stats(forced_cell, forced_result);
            let curve = lower_bound_rounds(n, t);
            measured.push(forced_mean);
            predicted.push(curve);
            table.row([
                n.to_string(),
                t.to_string(),
                cap.to_string(),
                fmt_f64(passive_mean, 1),
                fmt_f64(forced_mean, 1),
                fmt_f64(ci, 1),
                fmt_f64(kills, 1),
                fmt_f64(curve, 2),
                fmt_f64(forced_mean / curve, 2),
            ]);
        }
    }
    write!(out, "{table}")?;

    let fit = ShapeFit::fit(&measured, &predicted);
    writeln!(
        out,
        "\nshape fit: forced ≈ {} · t/√(n·ln n), max relative residual {}",
        fmt_f64(fit.scale(), 2),
        fmt_f64(fit.max_rel_residual(), 2)
    )?;
    writeln!(
        out,
        "expected: 'forced ÷ curve' roughly flat in n, and forced ≫ passive."
    )?;

    section(out, "Lemma 4.6's pinch: a sub-threshold cap cannot stall")?;
    let mut pinch = Table::new(["n", "t", "cap/round", "forced rounds", "kills used"]);
    for &n in &sizes[..sizes.len().min(2)] {
        let t = n - 1;
        let (pinch_cell, pinch_result) = slots.next().expect("pinch cell");
        let (forced, _, kills) = stats(pinch_cell, pinch_result);
        pinch.row([
            n.to_string(),
            t.to_string(),
            starved_cap(n).to_string(),
            fmt_f64(forced, 1),
            fmt_f64(kills, 1),
        ]);
    }
    write!(out, "{pinch}")?;
    writeln!(
        out,
        "\nexpected: with cap ≪ √(n·ln n), forced rounds collapse to near-passive —"
    )?;
    writeln!(
        out,
        "the same per-round spend threshold the upper bound's accounting charges."
    )?;

    section(out, "Lemma 3.5: adversarially chosen initial state")?;
    let n = sizes[0];
    let cfg = SimConfig::new(n).max_rounds(50_000);
    let inputs = find_adversarial_input(&SynRan::new(), &cfg, 4, seed).expect("probe error");
    let ones = inputs.iter().filter(|b| b.is_one()).count();
    writeln!(
        out,
        "n = {n}: passive-play flip point at {ones} ones — the non-univalent initial state the chain argument finds"
    )?;

    // Telemetry artifact: the experiment-wide counters plus per-round
    // kill-budget accounting from one representative forced run — run 0
    // of the table's last forced cell (largest size, t = n − 1).
    let rep_n = *sizes.last().expect("sizes nonempty");
    let rep_cap = paper_cap(rep_n);
    let path = write_run_artifact(
        "e3_lower_bound",
        &params.forced_cell(rep_n, rep_n - 1, rep_cap, seed),
        &[
            ("cap_per_round", rep_cap.to_string()),
            ("seed", seed.to_string()),
            ("runs", runs.to_string()),
        ],
        runner.telemetry(),
    )?;
    writeln!(out, "\ntelemetry: {}", path.display())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_list_shape_matches_the_binary_loop() {
        let params = E3Params {
            sizes: vec![16, 24, 32],
            runs: 2,
            samples: 1,
            seed: 3,
        };
        let cells = params.cells();
        // Per size: (passive, forced) × {n/2, n−1} = 4 cells; +2 pinch.
        assert_eq!(cells.len(), 3 * 4 + 2);
        assert_eq!(cells[0].adversary, "passive");
        assert_eq!(cells[0].seed, 3 ^ 0xAAAA);
        assert_eq!(cells[1].adversary, "lower-bound");
        assert_eq!(cells[1].seed, 3);
        assert_eq!((cells[0].n, cells[0].t), (16, 8));
        assert_eq!((cells[2].n, cells[2].t), (16, 15));
        let pinch = &cells[12];
        assert_eq!(pinch.seed, 3 ^ 0xBBBB);
        assert_eq!(pinch.cap, starved_cap(16));
        assert!(cells.iter().all(|c| c.max_rounds == 100_000));
    }

    #[test]
    fn spec_defaults_match_the_binary_defaults() {
        let spec = CampaignSpec::parse("experiment = e3\n", "e3").unwrap();
        let params = E3Params::from_spec(&spec).unwrap();
        assert_eq!(params.sizes, DEFAULT_SIZES);
        assert_eq!((params.runs, params.samples, params.seed), (8, 3, 3));
    }
}
