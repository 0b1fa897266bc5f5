//! E7 — Theorem 3 across the whole fault range: expected rounds
//! `Θ(t/√(n·log(2+t/√n)))`, with an `O(1)` plateau for `t = O(√n)`.
//!
//! Runs `campaigns/e7.campaign` (`synran_lab::presets::e7`). Its
//! telemetry mode is `counters`, so the committed
//! `results/e7_t_sweep.telemetry.jsonl` carries the representative run's
//! counters; `--telemetry spans` (or `off`) picks the other modes.

use std::process::ExitCode;

fn main() -> ExitCode {
    synran_bench::preset(
        include_str!("../../../../campaigns/e7.campaign"),
        &["runs"],
        &[256],
    )
}
