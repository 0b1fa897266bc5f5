//! E3 — Theorem 1: the adversary forces `Ω(t / √(n·log n))` rounds.
//!
//! Thin wrapper over the `synran-lab` E3 campaign preset: the bespoke
//! sweep loop this binary used to carry lives in
//! `synran_lab::presets::e3`, shared byte-for-byte with
//! `synran campaign run campaigns/e3.campaign`. The wrapper only maps
//! CLI knobs onto [`E3Params`] and picks the thread count.
//!
//! Telemetry defaults to `spans` so the committed
//! `results/e3_lower_bound.telemetry.jsonl` carries the span tree
//! `synran report --format folded` aggregates; `--telemetry counters`
//! (or `off`) restores the lighter modes.

use synran_bench::Args;
use synran_lab::presets::e3::{self, E3Params};
use synran_lab::Engine;
use synran_sim::{Telemetry, TelemetryMode};

fn main() {
    let args = Args::from_env(&["fast", "runs", "samples", "seed", "telemetry", "threads"]);
    let mode: TelemetryMode = args
        .get("telemetry")
        .unwrap_or("spans")
        .parse()
        .expect("--telemetry");
    let params = E3Params {
        sizes: if args.flag("fast") {
            vec![16, 24]
        } else {
            e3::DEFAULT_SIZES.to_vec()
        },
        runs: args.get_usize("runs", 8),
        samples: args.get_usize("samples", 3),
        seed: args.get_u64("seed", 3),
    };
    let mut engine = Engine::new(args.get_usize("threads", 0), Telemetry::new(mode));
    e3::run(&params, &mut engine, &mut std::io::stdout().lock()).expect("e3 failed");
}
