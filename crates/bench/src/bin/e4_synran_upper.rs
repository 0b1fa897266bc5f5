//! E4 — Theorems 2 & 3: SynRan's expected round count is
//! `O(t/√(n·log(2+t/√n)))` under **any** fail-stop adversary.
//!
//! Thin wrapper over the `synran-lab` E4 campaign preset (see
//! `campaigns/e4.campaign` for the declarative form).
//!
//! Telemetry defaults to `counters` so the committed
//! `results/e4_synran_upper.telemetry.jsonl` carries the representative
//! run's counters; `--telemetry spans` (or `off`) picks the other modes.

use synran_bench::Args;
use synran_lab::presets::e4::{self, E4Params};
use synran_lab::Engine;
use synran_sim::{Telemetry, TelemetryMode};

fn main() {
    let args = Args::from_env(&["fast", "runs", "seed", "telemetry", "threads"]);
    let mode: TelemetryMode = args
        .get("telemetry")
        .unwrap_or("counters")
        .parse()
        .expect("--telemetry");
    let params = E4Params {
        sizes: if args.flag("fast") {
            vec![32, 64]
        } else {
            e4::DEFAULT_SIZES.to_vec()
        },
        runs: args.get_usize("runs", 30),
        seed: args.get_u64("seed", 4),
    };
    let mut engine = Engine::new(args.get_usize("threads", 0), Telemetry::new(mode));
    e4::run(&params, &mut engine, &mut std::io::stdout().lock()).expect("e4 failed");
}
