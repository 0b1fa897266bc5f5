//! E4 — Theorems 2 & 3: SynRan's expected round count is
//! `O(t/√(n·log(2+t/√n)))` under **any** fail-stop adversary.
//!
//! Runs `campaigns/e4.campaign` (`synran_lab::presets::e4`). Its
//! telemetry mode is `counters`, so the committed
//! `results/e4_synran_upper.telemetry.jsonl` carries the representative
//! run's counters; `--telemetry spans` (or `off`) picks the other modes.

use std::process::ExitCode;

fn main() -> ExitCode {
    synran_bench::preset(
        include_str!("../../../../campaigns/e4.campaign"),
        &["runs"],
        &[32, 64],
    )
}
