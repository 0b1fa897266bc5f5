//! E6 — Lemma 4.4 / Corollary 4.5: the explicit binomial large-deviation
//! lower bound.
//!
//! Claim: for `x ~ Binomial(n, ½)` and `t < √n/8`,
//! `Pr(x − E(x) ≥ t√n) ≥ e^{−4(t+1)²}/√(2π)`, and with `t = √(log n)/8`
//! the deviation `√(n·log n)/8` has probability ≥ `√(log n/n)`.
//!
//! Thin wrapper over the `synran-lab` E6 campaign preset (see
//! `campaigns/e6.campaign` for the declarative form), which compares the
//! bound against the **exact** tail (log-space summation) and a
//! Monte-Carlo coin experiment on the simulator's RNG.
//!
//! Telemetry defaults to `counters` so the committed
//! `results/e6_large_deviation.telemetry.jsonl` carries the analysis
//! counters; `--telemetry spans` (or `off`) picks the other modes.

use synran_bench::Args;
use synran_lab::presets::e6::{self, E6Params};
use synran_lab::Engine;
use synran_sim::{Telemetry, TelemetryMode};

fn main() {
    let args = Args::from_env(&["seed", "telemetry", "threads", "trials"]);
    let mode: TelemetryMode = args
        .get("telemetry")
        .unwrap_or("counters")
        .parse()
        .expect("--telemetry");
    let params = E6Params {
        trials: args.get_usize("trials", 20_000),
        seed: args.get_u64("seed", 6),
    };
    let mut engine = Engine::new(args.get_usize("threads", 0), Telemetry::new(mode));
    e6::run(&params, &mut engine, &mut std::io::stdout().lock()).expect("e6 failed");
}
