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
# bench_lab resolves the sibling synran binary for its fleet_procs_* rows,
# so the workspace build above is a prerequisite, not an optimisation.
(cd "$scratch" && "$OLDPWD/target/release/bench_lab" --out fresh_lab.json >/dev/null)
"$gate" compare BENCH_lab.json "$scratch/fresh_lab.json" --max-regress "$max_regress" \
    || { echo "nightly gate FAILED against BENCH_lab.json"; exit 1; }

echo "== nightly: fleet TCP parity =="
# Fresh loopback check that the network transport stays invisible: a
# campaign served entirely by a TCP agent must render byte-identically
# to the in-process engine (stdout and journal both).
cat > "$scratch/ntcp.campaign" <<'EOF'
campaign  = ntcp
adversary = balancer
runs      = 3
seed      = 9
sweep n   = 8,10,12
sweep t   = half,max
EOF
./target/release/synran campaign agent --listen 127.0.0.1:0 \
    --token nightly-secret --port-file "$scratch/agent.port" 2>/dev/null &
agent_pid=$!
trap 'kill "$agent_pid" 2>/dev/null || true; rm -rf "$scratch"' EXIT
for _ in $(seq 1 100); do [ -s "$scratch/agent.port" ] && break; sleep 0.1; done
[ -s "$scratch/agent.port" ] || { echo "campaign agent never bound"; exit 1; }
agent_addr="$(cat "$scratch/agent.port")"
(cd "$scratch" && "$OLDPWD/target/release/synran" campaign run ntcp.campaign \
    --results-dir serial > serial.txt 2>/dev/null)
(cd "$scratch" && "$OLDPWD/target/release/synran" campaign run ntcp.campaign \
    --workers "$agent_addr" --token nightly-secret \
    --results-dir tcp > tcp.txt 2>/dev/null)
diff "$scratch/serial.txt" "$scratch/tcp.txt" \
    || { echo "nightly TCP stdout diverged from the engine"; exit 1; }
cmp "$scratch/serial/ntcp.journal.jsonl" "$scratch/tcp/ntcp.journal.jsonl" \
    || { echo "nightly TCP journal diverged from the engine"; exit 1; }
echo "nightly TCP parity OK: loopback agent byte-identical to the engine"

echo "== nightly: OK (max regress ${max_regress}%) =="
