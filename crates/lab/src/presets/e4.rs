//! E4 — Theorems 2 & 3: SynRan's expected round count is
//! `O(t/√(n·log(2+t/√n)))` under **any** fail-stop adversary.
//!
//! The campaign form of `e4_synran_upper`; the binary wraps this preset.
//! Cells map one-to-one onto the binary's `run_batch` calls (same base
//! seed `seed ^ n`, same adversary suite in the same order), so the
//! rendered table is byte-identical.

use std::io::Write;

use synran_analysis::{fmt_f64, tight_bound_rounds, ShapeFit, Table};

use crate::artifact::write_run_artifact;
use crate::cell::{Cell, CellResult};
use crate::engine::CellRunner;
use crate::presets::{banner, section};
use crate::spec::CampaignSpec;
use crate::LabError;

/// The E4 campaign's parameters.
#[derive(Debug, Clone)]
pub struct E4Params {
    /// System sizes (each runs the whole adversary suite at `t = n − 1`).
    pub sizes: Vec<usize>,
    /// Runs per cell.
    pub runs: usize,
    /// Base seed (per-size base is `seed ^ n`).
    pub seed: u64,
}

/// The binary's full-size default sweep.
pub const DEFAULT_SIZES: [usize; 5] = [32, 64, 128, 256, 512];

/// The adversary suite, as `(display label, registry name)` in the
/// binary's order. Registry defaults give `random` and `kill-ones` their
/// `⌈√n⌉` rate and `balancer` its unbounded cap — exactly the binary's
/// constructions.
const SUITE: [(&str, &str); 5] = [
    ("passive", "passive"),
    ("random(√n)", "random"),
    ("storm", "storm"),
    ("kill-ones(√n)", "kill-ones"),
    ("balancer", "balancer"),
];

impl E4Params {
    /// Parameters from a campaign spec (`experiment = e4`).
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Spec`] for unparseable values.
    pub fn from_spec(spec: &CampaignSpec) -> Result<E4Params, LabError> {
        Ok(E4Params {
            sizes: spec.sweep_usize("n", &DEFAULT_SIZES)?,
            runs: spec.param_num("runs", 30)?,
            seed: spec.param_num("seed", 4)?,
        })
    }

    /// The deterministic cell list: for each size, the five-adversary
    /// suite in order, `t = n − 1`, base seed `seed ^ n`.
    #[must_use]
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &n in &self.sizes {
            for (_, name) in SUITE {
                let mut cell = Cell::new("synran", name, n);
                cell.runs = self.runs;
                cell.seed = self.seed ^ n as u64;
                cells.push(cell);
            }
        }
        cells
    }
}

/// Runs E4 on `runner` and renders the binary's exact output into `out`.
///
/// # Errors
///
/// Propagates execution and I/O errors.
pub fn run(
    params: &E4Params,
    runner: &mut dyn CellRunner,
    out: &mut dyn Write,
) -> Result<(), LabError> {
    let runs = params.runs;
    let cells = params.cells();
    let results = runner.run_cells(&cells)?;
    let mut slots = cells.iter().zip(&results);

    banner(
        out,
        "E4 SynRan upper bound (Theorems 2 & 3)",
        "expected rounds = O(t/√(n·log(2+t/√n))) under ANY fail-stop adversary",
    )?;
    writeln!(
        out,
        "t = n − 1 (maximum resilience), even-split inputs, {runs} runs/cell"
    )?;

    section(out, "mean rounds by adversary")?;
    let mut table = Table::new([
        "n",
        "adversary",
        "mean rounds",
        "max",
        "kills used (mean)",
        "bound curve",
        "ratio",
    ]);
    let mut worst_measured = Vec::new();
    let mut worst_predicted = Vec::new();
    for &n in &params.sizes {
        let curve = tight_bound_rounds(n, n - 1);
        let mut worst = 0.0f64;
        for (label, _) in SUITE {
            let (_, result): (&Cell, &CellResult) = slots.next().expect("suite cell");
            assert!(result.all_correct(), "violations at n={n} under {label}");
            let mean = result.mean_rounds();
            let kills_mean = result.mean_kills();
            worst = worst.max(mean);
            table.row([
                n.to_string(),
                label.to_string(),
                fmt_f64(mean, 1),
                result.max_rounds().map_or("-".into(), |m| m.to_string()),
                fmt_f64(kills_mean, 1),
                fmt_f64(curve, 2),
                fmt_f64(mean / curve, 2),
            ]);
        }
        worst_measured.push(worst);
        worst_predicted.push(curve);
    }
    write!(out, "{table}")?;

    let fit = ShapeFit::fit(&worst_measured, &worst_predicted);
    writeln!(
        out,
        "\nworst-adversary shape fit: rounds ≈ {} · t/√(n·log(2+t/√n)), max rel residual {}",
        fmt_f64(fit.scale(), 2),
        fmt_f64(fit.max_rel_residual(), 2)
    )?;
    writeln!(
        out,
        "expected: ratio column roughly flat in n for the worst adversary — the upper bound's shape."
    )?;

    // Telemetry artifact: experiment-wide counters plus per-round
    // kill accounting from one representative run — run 0 of the last
    // cell, the balancer (the suite's historically worst adversary) at
    // the largest size, the same shape E3 writes.
    let path = write_run_artifact(
        "e4_synran_upper",
        cells.last().expect("sizes nonempty"),
        &[
            ("seed", params.seed.to_string()),
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
    fn cell_list_mirrors_the_suite() {
        let params = E4Params {
            sizes: vec![32, 64],
            runs: 3,
            seed: 4,
        };
        let cells = params.cells();
        assert_eq!(cells.len(), 10);
        assert_eq!(cells[0].adversary, "passive");
        assert_eq!(cells[4].adversary, "balancer");
        assert_eq!(cells[0].seed, 4 ^ 32);
        assert_eq!(cells[5].seed, 4 ^ 64);
        assert!(cells.iter().all(|c| c.t == c.n - 1));
        assert!(cells.iter().all(|c| c.max_rounds == 200_000));
        assert!(cells.iter().all(|c| c.ones == c.n / 2));
    }

    #[test]
    fn spec_defaults_match_the_binary_defaults() {
        let spec = CampaignSpec::parse("experiment = e4\n", "e4").unwrap();
        let params = E4Params::from_spec(&spec).unwrap();
        assert_eq!(params.sizes, DEFAULT_SIZES);
        assert_eq!((params.runs, params.seed), (30, 4));
    }
}
