//! Campaign renderers: the generic grid table plus the experiment presets.
//!
//! A spec's `experiment` key picks the renderer: `grid` (the default)
//! prints one row per cell; `e3`, `e4`, `e6`, and `e7` reproduce the
//! corresponding experiment binaries' output **byte-for-byte** — those
//! binaries are thin wrappers over these presets, so the campaign path
//! and the binary path share one code path by construction.
//!
//! Renderers write to a caller-supplied [`std::io::Write`] (the binaries
//! pass stdout, tests pass buffers); engine bookkeeping (cache hits,
//! journal paths) goes to the CLI's stderr, never into the rendered
//! output.

use std::io::Write;

use synran_analysis::{fmt_f64, Table};

use crate::cell::Cell;
use crate::engine::CellRunner;
use crate::registry::validate_cell;
use crate::spec::CampaignSpec;
use crate::LabError;

pub mod e3;
pub mod e4;
pub mod e6;
pub mod e7;

/// Writes an experiment banner with its DESIGN.md id and the claim under
/// test (every experiment binary opens with one).
///
/// # Errors
///
/// Returns any I/O error from `out`.
pub fn banner(out: &mut dyn Write, id: &str, claim: &str) -> std::io::Result<()> {
    writeln!(out, "=== {id} ===")?;
    writeln!(out, "claim: {claim}")?;
    writeln!(out)
}

/// Writes a named section divider.
///
/// # Errors
///
/// Returns any I/O error from `out`.
pub fn section(out: &mut dyn Write, title: &str) -> std::io::Result<()> {
    writeln!(out)?;
    writeln!(out, "--- {title} ---")
}

/// The deterministic cell list a spec expands to, without executing
/// anything — `campaign status` and spec linting use this.
///
/// # Errors
///
/// Returns [`LabError::Spec`] for an unknown experiment or malformed
/// parameters.
pub fn campaign_cells(spec: &CampaignSpec) -> Result<Vec<Cell>, LabError> {
    match spec.experiment() {
        "grid" => spec.expand_grid(),
        "e3" => Ok(e3::E3Params::from_spec(spec)?.cells()),
        "e4" => Ok(e4::E4Params::from_spec(spec)?.cells()),
        "e6" => Ok(e6::E6Params::from_spec(spec)?.cells()),
        "e7" => Ok(e7::E7Params::from_spec(spec)?.cells()),
        other => Err(LabError::Spec(format!(
            "unknown experiment {other:?} (expected grid, e3, e4, e6, or e7)"
        ))),
    }
}

/// Runs a campaign end-to-end: expands the spec, executes its cells on
/// `runner` (the [`Engine`](crate::Engine), possibly wrapped), and renders
/// with the experiment's renderer into `out`.
///
/// # Errors
///
/// Propagates spec, execution, and rendering errors.
pub fn run_campaign(
    spec: &CampaignSpec,
    runner: &mut dyn CellRunner,
    out: &mut dyn Write,
) -> Result<(), LabError> {
    match spec.experiment() {
        "grid" => run_grid(spec, runner, out),
        "e3" => e3::run(&e3::E3Params::from_spec(spec)?, runner, out),
        "e4" => e4::run(&e4::E4Params::from_spec(spec)?, runner, out),
        "e6" => e6::run(&e6::E6Params::from_spec(spec)?, runner, out),
        "e7" => e7::run(&e7::E7Params::from_spec(spec)?, runner, out),
        other => Err(LabError::Spec(format!(
            "unknown experiment {other:?} (expected grid, e3, e4, e6, or e7)"
        ))),
    }
}

/// The generic renderer: one table row per cell, in cell order.
fn run_grid(
    spec: &CampaignSpec,
    runner: &mut dyn CellRunner,
    out: &mut dyn Write,
) -> Result<(), LabError> {
    let cells = spec.expand_grid()?;
    for cell in &cells {
        validate_cell(cell)?;
    }
    let results = runner.run_cells(&cells)?;
    writeln!(
        out,
        "=== campaign {} (grid, {} cells) ===",
        spec.name(),
        cells.len()
    )?;
    let mut table = Table::new([
        "protocol",
        "adversary",
        "n",
        "t",
        "runs",
        "mean rounds",
        "max",
        "mean kills",
        "ok",
    ]);
    for (cell, result) in cells.iter().zip(&results) {
        table.row([
            cell.protocol.clone(),
            cell.adversary.clone(),
            cell.n.to_string(),
            cell.t.to_string(),
            cell.runs.to_string(),
            fmt_f64(result.mean_rounds(), 1),
            result.max_rounds().map_or("-".into(), |m| m.to_string()),
            fmt_f64(result.mean_kills(), 1),
            if result.all_correct() {
                format!("{}/{}", cell.runs, cell.runs)
            } else {
                format!(
                    "{}/{}",
                    cell.runs - result.timeouts as usize - result.violations as usize,
                    cell.runs
                )
            },
        ]);
    }
    write!(out, "{table}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use synran_sim::Telemetry;

    #[test]
    fn grid_campaign_renders_a_row_per_cell() {
        let spec = CampaignSpec::parse(
            "campaign = demo\nadversary = balancer\nruns = 3\nseed = 5\nsweep n = 8,10\n",
            "demo",
        )
        .unwrap();
        let mut engine = Engine::new(1, Telemetry::off());
        let mut out = Vec::new();
        run_campaign(&spec, &mut engine, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("campaign demo (grid, 2 cells)"), "{text}");
        assert_eq!(text.matches("balancer").count(), 2, "{text}");
        assert!(text.contains("3/3"), "{text}");
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let spec = CampaignSpec::parse("experiment = e99\nn = 8\n", "x").unwrap();
        assert!(campaign_cells(&spec).is_err());
        let mut engine = Engine::new(1, Telemetry::off());
        assert!(run_campaign(&spec, &mut engine, &mut Vec::new()).is_err());
    }

    #[test]
    fn grid_rejects_bad_names_before_running() {
        let spec = CampaignSpec::parse("adversary = flubber\nn = 8\n", "x").unwrap();
        let mut engine = Engine::new(1, Telemetry::off());
        let err = run_campaign(&spec, &mut engine, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("flubber"), "{err}");
        assert_eq!(engine.executed(), 0);
    }
}
