//! E7 — Theorem 3 across the whole fault range: expected rounds
//! `Θ(t/√(n·log(2+t/√n)))`, with an `O(1)` plateau for `t = O(√n)`.
//!
//! The campaign form of `e7_t_sweep`; the binary wraps this preset. The
//! `t` ladder (1, 2, 4, then doubling, capped by `n − 1`) is recomputed
//! per size exactly as the binary's `sweep` did, and each rung is one
//! cell with base seed `seed ^ t`.

use std::io::Write;

use synran_analysis::{fmt_f64, tight_bound_rounds, AsciiPlot, ShapeFit, Summary, Table};

use crate::artifact::write_run_artifact;
use crate::cell::Cell;
use crate::engine::CellRunner;
use crate::presets::{banner, section};
use crate::spec::CampaignSpec;
use crate::LabError;

/// The E7 campaign's parameters.
#[derive(Debug, Clone)]
pub struct E7Params {
    /// System sizes (each sweeps the full `t` ladder).
    pub sizes: Vec<usize>,
    /// Runs per ladder rung.
    pub runs: usize,
    /// Base seed (per-rung base is `seed ^ t`).
    pub seed: u64,
}

/// The binary's full-size default sweep.
pub const DEFAULT_SIZES: [usize; 2] = [256, 1024];

/// The fault ladder for one size: `1, 2, 4, 8, 16, … < n`, then `n − 1`,
/// with consecutive duplicates removed — the binary's `sweep` ladder.
#[must_use]
pub fn t_ladder(n: usize) -> Vec<usize> {
    let mut t_values = vec![1usize, 2, 4];
    let mut t = 8;
    while t < n {
        t_values.push(t);
        t *= 2;
    }
    t_values.push(n - 1);
    t_values.dedup();
    t_values
}

impl E7Params {
    /// Parameters from a campaign spec (`experiment = e7`).
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Spec`] for unparseable values.
    pub fn from_spec(spec: &CampaignSpec) -> Result<E7Params, LabError> {
        Ok(E7Params {
            sizes: spec.sweep_usize("n", &DEFAULT_SIZES)?,
            runs: spec.param_num("runs", 40)?,
            seed: spec.param_num("seed", 7)?,
        })
    }

    /// The deterministic cell list: per size, one balancer cell per ladder
    /// rung.
    #[must_use]
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &n in &self.sizes {
            for t in t_ladder(n) {
                let mut cell = Cell::new("synran", "balancer", n);
                cell.t = t;
                cell.runs = self.runs;
                cell.seed = self.seed ^ t as u64;
                cells.push(cell);
            }
        }
        cells
    }
}

/// Runs E7 on `runner` and renders the binary's exact output into `out`.
///
/// # Errors
///
/// Propagates execution and I/O errors.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
pub fn run(
    params: &E7Params,
    runner: &mut dyn CellRunner,
    out: &mut dyn Write,
) -> Result<(), LabError> {
    let runs = params.runs;
    let cells = params.cells();
    let results = runner.run_cells(&cells)?;
    let mut slots = cells.iter().zip(&results);

    banner(
        out,
        "E7 full fault-range sweep (Theorem 3)",
        "expected rounds = Θ(t/√(n·log(2+t/√n))); O(1) plateau for t = O(√n)",
    )?;
    writeln!(
        out,
        "SynRan vs the coin-band balancer, even-split inputs, {runs} runs/point"
    )?;

    for &n in &params.sizes {
        let sqrt_n = (n as f64).sqrt().round() as usize;
        section(out, &format!("n = {n} (√n = {sqrt_n})"))?;
        let series: Vec<(usize, f64, f64)> = t_ladder(n)
            .into_iter()
            .map(|t| {
                let (cell, result) = slots.next().expect("ladder cell");
                assert!(result.all_correct(), "violations at n={n} t={}", cell.t);
                let s = Summary::of_u32(&result.rounds);
                (t, s.mean(), s.ci95_halfwidth())
            })
            .collect();
        let mut table = Table::new(["t", "mean rounds", "±95%", "curve", "ratio"]);
        let mut plateau: Vec<f64> = Vec::new();
        let mut measured = Vec::new();
        let mut predicted = Vec::new();
        for &(t, mean, ci) in &series {
            // The protocol has a 2-round floor (decide + stop), so compare
            // against curve + 2 to keep small-t ratios meaningful.
            let curve = tight_bound_rounds(n, t) + 2.0;
            table.row([
                t.to_string(),
                fmt_f64(mean, 1),
                fmt_f64(ci, 1),
                fmt_f64(curve, 1),
                fmt_f64(mean / curve, 2),
            ]);
            if t <= sqrt_n {
                plateau.push(mean);
            } else {
                measured.push(mean);
                predicted.push(curve);
            }
        }
        write!(out, "{table}")?;
        let mut plot = AsciiPlot::new(56, 12).log_x();
        plot.series(
            'm',
            &series
                .iter()
                .map(|&(t, mean, _)| (t as f64, mean))
                .collect::<Vec<_>>(),
        );
        plot.series(
            'c',
            &series
                .iter()
                .map(|&(t, _, _)| (t as f64, tight_bound_rounds(n, t) + 2.0))
                .collect::<Vec<_>>(),
        );
        writeln!(out, "\nmeasured (m) vs curve (c), rounds over t:")?;
        write!(out, "{}", plot.render())?;
        let plateau_span = plateau.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
            - plateau.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        writeln!(
            out,
            "\nplateau (t ≤ √n): means span {} rounds — the O(1) regime",
            fmt_f64(plateau_span, 1)
        )?;
        if measured.len() >= 2 {
            let fit = ShapeFit::fit(&measured, &predicted);
            writeln!(
                out,
                "growth regime (t > √n): rounds ≈ {} · curve, max rel residual {}",
                fmt_f64(fit.scale(), 2),
                fmt_f64(fit.max_rel_residual(), 2)
            )?;
        }
    }

    // Telemetry artifact: experiment-wide counters plus per-round kill
    // accounting from one representative run — run 0 of the last cell,
    // the ladder's top rung (t = n − 1) at the largest size, the same
    // shape E3 writes.
    let path = write_run_artifact(
        "e7_t_sweep",
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
    fn ladder_matches_the_binary_sweep() {
        assert_eq!(t_ladder(256), vec![1, 2, 4, 8, 16, 32, 64, 128, 255]);
        assert_eq!(t_ladder(9), vec![1, 2, 4, 8]);
        assert_eq!(t_ladder(5), vec![1, 2, 4]);
    }

    #[test]
    fn cell_list_covers_every_rung() {
        let params = E7Params {
            sizes: vec![16],
            runs: 5,
            seed: 7,
        };
        let cells = params.cells();
        assert_eq!(cells.len(), t_ladder(16).len());
        assert!(cells.iter().all(|c| c.adversary == "balancer"));
        assert!(cells.iter().all(|c| c.seed == 7 ^ c.t as u64));
        assert!(cells.iter().all(|c| c.max_rounds == 200_000));
    }

    #[test]
    fn spec_defaults_match_the_binary_defaults() {
        let spec = CampaignSpec::parse("experiment = e7\n", "e7").unwrap();
        let params = E7Params::from_spec(&spec).unwrap();
        assert_eq!(params.sizes, DEFAULT_SIZES);
        assert_eq!((params.runs, params.seed), (40, 7));
    }
}
