//! E6 — Lemma 4.4 / Corollary 4.5: the explicit binomial large-deviation
//! lower bound.
//!
//! Claim: for `x ~ Binomial(n, ½)` and `t < √n/8`,
//! `Pr(x − E(x) ≥ t√n) ≥ e^{−4(t+1)²}/√(2π)`, and with `t = √(log n)/8`
//! the deviation `√(n·log n)/8` has probability ≥ `√(log n/n)`.
//!
//! Runs `campaigns/e6.campaign` (`synran_lab::presets::e6`), which
//! compares the bound against the **exact** tail (log-space summation)
//! and a Monte-Carlo coin experiment on the simulator's RNG. Its
//! telemetry mode is `counters`, so the committed
//! `results/e6_large_deviation.telemetry.jsonl` carries the analysis
//! counters; `--telemetry spans` (or `off`) picks the other modes.

use std::process::ExitCode;

fn main() -> ExitCode {
    synran_bench::preset(
        include_str!("../../../../campaigns/e6.campaign"),
        &["trials"],
        &[],
    )
}
