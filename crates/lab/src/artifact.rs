//! Shared experiment-artifact emission: the `results/<bin>.telemetry.jsonl`
//! convention.
//!
//! It lives here so the campaign presets and the experiment binaries emit
//! identical artifacts through one code path: [`write_run_artifact`]
//! replays a cell's representative run through the registry and writes
//! the artifact around it.

use std::io::BufWriter;
use std::path::{Path, PathBuf};

use synran_sim::telemetry::per_round_kill_cap;
use synran_sim::{Round, RoundKillRow, Telemetry};

use crate::cell::Cell;
use crate::registry::run_cell_once;
use crate::LabError;

/// The conventional telemetry JSONL path for an experiment binary:
/// `results/<bin>.telemetry.jsonl` (next to the experiment's `.txt`
/// results, per EXPERIMENTS.md).
#[must_use]
pub fn results_telemetry_path(bin: &str) -> PathBuf {
    Path::new("results").join(format!("{bin}.telemetry.jsonl"))
}

/// Writes an experiment's telemetry as JSONL: the registry's
/// [snapshot](Telemetry::snapshot) with `meta` attribution lines and one
/// `round_kills` row per entry of `kills_per_round`, scored against the
/// paper's `4√(n·ln n)+1` per-round cap for system size `n`, in the
/// record's file order
/// ([`TelemetryStream::events`](synran_sim::TelemetryStream::events)).
///
/// `kills_per_round` is [`synran_sim::Metrics::kills_per_round`] output
/// from a representative run — sorted, one entry per round.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file (the parent
/// directory is created if missing).
pub fn write_telemetry_jsonl(
    path: &Path,
    meta: &[(&str, String)],
    telemetry: &Telemetry,
    kills_per_round: &[(Round, usize)],
    n: usize,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut record = telemetry.snapshot();
    record.meta = meta
        .iter()
        .map(|(key, value)| ((*key).to_string(), value.clone()))
        .collect();
    let cap = per_round_kill_cap(n);
    record.round_kills = kills_per_round
        .iter()
        .map(|&(round, kills)| {
            let kills = kills as u64;
            RoundKillRow {
                round: round.index(),
                kills,
                cap,
                over_cap: kills > cap,
            }
        })
        .collect();
    record.write_jsonl(BufWriter::new(std::fs::File::create(path)?))
}

/// Writes `results/<bin>.telemetry.jsonl` around `cell`'s representative
/// run: run 0 of the cell, replayed through [`run_cell_once`] into
/// `telemetry`. The `meta` lines
/// are `experiment` (= `bin`), `adversary`, `n` and `t` from the cell,
/// then `extra_meta` in order; the `round_kills` lines are the run's
/// [`kills_per_round`](synran_sim::Metrics::kills_per_round). Returns the
/// path written.
///
/// # Errors
///
/// Returns [`run_cell_once`]'s errors (a round-limit overrun included)
/// before any file is created, and [`LabError::Io`] for write failures.
pub fn write_run_artifact(
    bin: &str,
    cell: &Cell,
    extra_meta: &[(&str, String)],
    telemetry: &Telemetry,
) -> Result<PathBuf, LabError> {
    let (_, verdict) = run_cell_once(cell, 0, false, telemetry)?;
    let mut meta = vec![
        ("experiment", bin.to_string()),
        ("adversary", cell.adversary.clone()),
        ("n", cell.n.to_string()),
        ("t", cell.t.to_string()),
    ];
    meta.extend_from_slice(extra_meta);
    let path = results_telemetry_path(bin);
    write_telemetry_jsonl(
        &path,
        &meta,
        telemetry,
        verdict.report().metrics().kills_per_round(),
        cell.n,
    )?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synran_sim::json::FlatObject;
    use synran_sim::TelemetryMode;

    #[test]
    fn conventional_path_shape() {
        assert_eq!(
            results_telemetry_path("e3_lower_bound"),
            Path::new("results/e3_lower_bound.telemetry.jsonl")
        );
    }

    #[test]
    fn artifact_contains_meta_registry_and_round_kills() {
        let dir = std::env::temp_dir().join(format!("synran-lab-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.telemetry.jsonl");
        let telemetry = Telemetry::new(TelemetryMode::Counters);
        telemetry.incr("sim.rounds", 7);
        write_telemetry_jsonl(
            &path,
            &[("experiment", "demo".to_string())],
            &telemetry,
            &[(Round::new(1), 2), (Round::new(2), 0)],
            16,
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"type\":\"meta\",\"key\":\"experiment\""));
        assert!(text.contains("{\"type\":\"counter\",\"name\":\"sim.rounds\",\"value\":7}"));
        assert_eq!(text.matches("\"type\":\"round_kills\"").count(), 2);
    }

    #[test]
    fn run_artifact_replays_run_zero_of_the_cell() {
        let bin = format!("artifact-test-{}", std::process::id());
        let path = results_telemetry_path(&bin);
        let mut cell = Cell::new("synran", "balancer", 24);
        (cell.runs, cell.seed) = (3, 1);

        // A run 0 past its round limit is an error, and no file appears.
        let mut stalled = cell.clone();
        stalled.max_rounds = 1;
        let err = write_run_artifact(&bin, &stalled, &[], &Telemetry::off()).unwrap_err();
        assert!(matches!(err, LabError::Sim(_)), "{err}");
        assert!(!path.exists(), "{} written on error", path.display());

        let telemetry = Telemetry::new(TelemetryMode::Counters);
        let extras = [("seed", "1".to_string()), ("runs", "3".to_string())];
        let written = write_run_artifact(&bin, &cell, &extras, &telemetry).unwrap();
        assert_eq!(written, path);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir("results");
        let lines: Vec<FlatObject<'_>> = text
            .lines()
            .map(|l| FlatObject::parse(l).unwrap())
            .collect();

        let meta: Vec<(&str, &str)> = lines
            .iter()
            .filter(|o| o.str("type") == Some("meta"))
            .map(|o| (o.str("key").unwrap(), o.str("value").unwrap()))
            .collect();
        let expected = [
            ("experiment", bin.as_str()),
            ("adversary", "balancer"),
            ("n", "24"),
            ("t", "23"),
            ("seed", "1"),
            ("runs", "3"),
        ];
        assert_eq!(meta, expected);

        let kills_of_run = |index| {
            let (_, verdict) = run_cell_once(&cell, index, false, &Telemetry::off()).unwrap();
            let kills = verdict.report().metrics().kills_per_round().iter();
            kills
                .map(|&(round, kills)| (u64::from(round.index()), kills as u64))
                .collect::<Vec<(u64, u64)>>()
        };
        let want = kills_of_run(0);
        assert_ne!(want, kills_of_run(1), "run 0 must be told apart from run 1");
        let got: Vec<(u64, u64)> = lines
            .iter()
            .filter(|o| o.str("type") == Some("round_kills"))
            .map(|o| (o.u64("round").unwrap(), o.u64("kills").unwrap()))
            .collect();
        assert_eq!(got, want);
    }
}
