#!/usr/bin/env bash
# Nightly perf gate: fresh benchmark runs compared against the committed
# BENCH_*.json baselines. This is the fresh-run mode that used to live in
# bench_gate.sh — it takes minutes, so tier-1 runs only the timing-free
# `bench_gate.sh --smoke` and CI schedules this script nightly instead.
#
#   ./scripts/nightly.sh
#
# Tolerance comes from BENCH_GATE_MAX_REGRESS (percent, default 25), the
# same knob bench_gate.sh uses.
set -euo pipefail
cd "$(dirname "$0")/.."

max_regress="${BENCH_GATE_MAX_REGRESS:-25}"

echo "== nightly: cargo build --release =="
cargo build --release --workspace

gate="./target/release/bench_gate"
scratch="$(mktemp -d /tmp/synran-nightly.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT

echo "== nightly: fresh bench_parallel vs BENCH_parallel.json =="
# Run fresh benches in a scratch dir so their artifacts never clobber the
# committed baselines; keep the baseline's row geometry (no --smoke —
# smoke shrinks n, which would register as missing metrics).
(cd "$scratch" && "$OLDPWD/target/release/bench_parallel" --out fresh_parallel.json >/dev/null)
"$gate" compare BENCH_parallel.json "$scratch/fresh_parallel.json" --max-regress "$max_regress" \
    || { echo "nightly gate FAILED against BENCH_parallel.json"; exit 1; }

echo "== nightly: fresh bench_lab vs BENCH_lab.json =="
(cd "$scratch" && "$OLDPWD/target/release/bench_lab" --out fresh_lab.json >/dev/null)
"$gate" compare BENCH_lab.json "$scratch/fresh_lab.json" --max-regress "$max_regress" \
    || { echo "nightly gate FAILED against BENCH_lab.json"; exit 1; }

echo "== nightly: OK (max regress ${max_regress}%) =="
