//! Shared experiment-artifact emission: the `results/<bin>.telemetry.jsonl`
//! convention.
//!
//! It lives here so the campaign presets and the experiment binaries emit
//! identical artifacts through one code path (`synran_bench` re-exports
//! these for the harnesses).

use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use synran_sim::telemetry::per_round_kill_cap;
use synran_sim::{JsonlSink, Round, Telemetry, TelemetryEvent, TelemetrySink};

/// The conventional telemetry JSONL path for an experiment binary:
/// `results/<bin>.telemetry.jsonl` (next to the experiment's `.txt`
/// results, per EXPERIMENTS.md).
#[must_use]
pub fn results_telemetry_path(bin: &str) -> PathBuf {
    Path::new("results").join(format!("{bin}.telemetry.jsonl"))
}

/// Writes an experiment's telemetry as JSONL: `meta` attribution lines,
/// the exported registry (counters → histograms → spans), then one
/// `round_kills` line per entry of `kills_per_round` scored against the
/// paper's `4√(n·ln n)+1` per-round cap for system size `n`.
///
/// The global worker pool's cumulative stats are folded in as
/// fill-if-absent gauges first
/// ([`parallel::export_pool_stats`](synran_sim::parallel::export_pool_stats)),
/// so the dump carries `pool.*` counters even for runs whose batches
/// never dispatched on this handle.
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
    synran_sim::parallel::export_pool_stats(telemetry);
    let mut sink = JsonlSink::new(BufWriter::new(std::fs::File::create(path)?));
    for (key, value) in meta {
        sink.emit(&TelemetryEvent::Meta {
            key: (*key).to_string(),
            value: value.clone(),
        });
    }
    telemetry.export(&mut sink);
    let cap = per_round_kill_cap(n);
    for &(round, kills) in kills_per_round {
        let kills = kills as u64;
        sink.emit(&TelemetryEvent::RoundKills {
            round: round.index(),
            kills,
            cap,
            over_cap: kills > cap,
        });
    }
    sink.finish()?.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Pool gauges are filled in even though no batch ran on this handle.
        for key in ["pool.spawned", "pool.reused", "pool.tasks", "pool.inline"] {
            assert!(
                text.contains(&format!("\"name\":\"{key}\"")),
                "missing {key} gauge"
            );
        }
    }
}
