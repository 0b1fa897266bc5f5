//! E7 — Theorem 3 across the whole fault range: expected rounds
//! `Θ(t/√(n·log(2+t/√n)))`, with an `O(1)` plateau for `t = O(√n)`.
//!
//! Thin wrapper over the `synran-lab` E7 campaign preset (see
//! `campaigns/e7.campaign` for the declarative form).
//!
//! Telemetry defaults to `counters` so the committed
//! `results/e7_t_sweep.telemetry.jsonl` carries the representative run's
//! counters; `--telemetry spans` (or `off`) picks the other modes.

use synran_bench::Args;
use synran_lab::presets::e7::{self, E7Params};
use synran_lab::Engine;
use synran_sim::{Telemetry, TelemetryMode};

fn main() {
    let args = Args::from_env(&["fast", "runs", "seed", "telemetry", "threads"]);
    let mode: TelemetryMode = args
        .get("telemetry")
        .unwrap_or("counters")
        .parse()
        .expect("--telemetry");
    let params = E7Params {
        sizes: if args.flag("fast") {
            vec![256]
        } else {
            e7::DEFAULT_SIZES.to_vec()
        },
        runs: args.get_usize("runs", 40),
        seed: args.get_u64("seed", 7),
    };
    let mut engine = Engine::new(args.get_usize("threads", 0), Telemetry::new(mode));
    e7::run(&params, &mut engine, &mut std::io::stdout().lock()).expect("e7 failed");
}
