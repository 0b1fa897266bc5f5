//! E3 — Theorem 1: the adversary forces `Ω(t / √(n·log n))` rounds.
//!
//! Runs `campaigns/e3.campaign` (`synran_lab::presets::e3`), so `synran
//! campaign run campaigns/e3.campaign` prints the same tables. Its
//! telemetry mode is `spans`, so the committed
//! `results/e3_lower_bound.telemetry.jsonl` carries the span tree `synran
//! report --format folded` aggregates; `--telemetry counters` (or `off`)
//! picks the lighter modes.

use std::process::ExitCode;

fn main() -> ExitCode {
    synran_bench::preset(
        include_str!("../../../../campaigns/e3.campaign"),
        &["runs", "samples"],
        &[16, 24],
    )
}
