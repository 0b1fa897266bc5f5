#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
#
#   ./scripts/tier1.sh
#
# Runs the release build, the full test suite, clippy with warnings
# denied, and the formatting check, stopping at the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --release --workspace

echo "== tier1: cargo test =="
cargo test -q --workspace

echo "== tier1: cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: cargo fmt --check =="
cargo fmt --all -- --check

echo "== tier1: end-to-end benchmark smoke (golden digests) =="
# Every workload of the end-to-end benchmark, shrunk to under a second,
# checked against its committed golden render digest (E1's coin calls, the
# E3 and E7 presets, the campaign grid). Any scheduling or adversary change
# that moves a single result fails here with a nonzero exit.
cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml \
    --bin bench_e2e -- run --smoke --workload all

echo "== tier1: E1 committed table =="
# E1 at default settings must reproduce results/e1_coin_control.txt byte
# for byte, including the exact Pr(U^v) rows at n = 16 (t = 16 among them,
# which the benchmark leaves out). Both sides get the normalization
# benchmark/suite.sh applies: drop cargo's Compiling/Finished/Running
# lines, a closing `telemetry:` line, and trailing blank lines. Run from a
# scratch dir so the binary's artifacts never touch the committed ones.
normalize() {
    grep -Ev '^ *(Compiling|Finished|Running) ' "$1" \
        | awk '{ lines[NR] = $0 } END {
                 n = NR
                 if (n > 0 && lines[n] ~ /^telemetry: /) n--
                 while (n > 0 && lines[n] == "") n--
                 for (i = 1; i <= n; i++) print lines[i]
               }'
}
e1_dir="$(mktemp -d /tmp/synran-e1.XXXXXX)"
trap 'rm -rf "$e1_dir"' EXIT
(cd "$e1_dir" && "$OLDPWD/target/release/e1_coin_control" > e1.txt)
diff <(normalize results/e1_coin_control.txt) <(normalize "$e1_dir/e1.txt") \
    || { echo "E1 stdout diverged from results/e1_coin_control.txt"; exit 1; }
rm -rf "$e1_dir"
echo "E1 OK: stdout matches results/e1_coin_control.txt"

echo "== tier1: telemetry smoke test =="
# A spans-mode CLI run must produce a parseable JSONL file containing at
# least one span and one counter event (the layer's end-to-end contract).
telemetry_out="$(mktemp /tmp/synran-telemetry.XXXXXX.jsonl)"
trap 'rm -f "$telemetry_out"' EXIT
./target/release/synran run --protocol synran --n 16 --seed 7 \
    --telemetry spans --telemetry-out "$telemetry_out" >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$telemetry_out" <<'EOF'
import json, sys
events = [json.loads(line) for line in open(sys.argv[1])]
kinds = {e["type"] for e in events}
assert "span" in kinds, f"no span events in {kinds}"
assert "counter" in kinds, f"no counter events in {kinds}"
print(f"telemetry JSONL OK: {len(events)} events, kinds {sorted(kinds)}")
EOF
else
    grep -q '"type":"span"' "$telemetry_out" || { echo "no span events"; exit 1; }
    grep -q '"type":"counter"' "$telemetry_out" || { echo "no counter events"; exit 1; }
    echo "telemetry JSONL OK: $(wc -l < "$telemetry_out") events (grep check)"
fi

echo "== tier1: report smoke test =="
# `synran report --check` must accept the artifact the previous step just
# produced (exit 0), render a non-empty folded stack file from it, and
# reject a truncated copy (exit nonzero) — the observability layer's
# end-to-end contract.
./target/release/synran report --check "$telemetry_out" >/dev/null \
    || { echo "report --check rejected a healthy artifact"; exit 1; }
folded_lines="$(./target/release/synran report --format folded "$telemetry_out" | wc -l)"
[ "$folded_lines" -gt 0 ] || { echo "report produced an empty folded stack"; exit 1; }
head -c -20 "$telemetry_out" > "$telemetry_out.cut"
if ./target/release/synran report --check "$telemetry_out.cut" >/dev/null 2>&1; then
    echo "report --check accepted a truncated artifact"
    rm -f "$telemetry_out.cut"
    exit 1
fi
rm -f "$telemetry_out.cut"
echo "report smoke OK: healthy artifact passes --check ($folded_lines folded stacks), truncated copy rejected"

echo "== tier1: bench gate smoke test =="
# The perf-regression gate must pass every committed BENCH_*.json baseline
# against itself and detect a synthetic 1.5x slowdown (see
# scripts/bench_gate.sh for the full fresh-run mode).
./scripts/bench_gate.sh --smoke

echo "== tier1: bit-plane delivery smoke test =="
# The plane fast path must beat the scalar pair path and stay
# byte-identical to the scalarized oracle at threads 1, 2, and 8 (the
# binary asserts both and exits non-zero on divergence).
plane_out="$(mktemp /tmp/synran-bench-plane.XXXXXX.json)"
trap 'rm -f "$telemetry_out" "$plane_out"' EXIT
./target/release/bench_plane --smoke --out "$plane_out" >/dev/null
grep -q '"identical": true' "$plane_out" \
    || { echo "plane/scalar differential failed"; exit 1; }
echo "bit-plane smoke OK: plane path identical to scalar oracle"

echo "== tier1: worker-pool parallel smoke test =="
# The persistent-pool fan-out must stay byte-identical to serial at
# threads 1, 2, and 8 on every row (valency estimation, seed batches,
# tiny batches), and the pool must re-use helpers rather than spawn per
# call (the binary asserts both and exits non-zero on violation). Run in
# a scratch dir so the smoke artifacts never clobber the repo baselines.
pool_dir="$(mktemp -d /tmp/synran-bench-parallel.XXXXXX)"
trap 'rm -f "$telemetry_out" "$plane_out"; rm -rf "$pool_dir"' EXIT
(cd "$pool_dir" && "$OLDPWD/target/release/bench_parallel" --smoke --out pool.json >/dev/null)
rows="$(grep -c '"group"' "$pool_dir/pool.json")"
matches="$(grep -c '"identical": true' "$pool_dir/pool.json")"
[ "$rows" -gt 0 ] && [ "$rows" -eq "$matches" ] \
    || { echo "worker-pool differential failed: $matches/$rows rows identical"; exit 1; }
grep -q '"reused_gt_spawned": true' "$pool_dir/pool.json" \
    || { echo "pool did not re-use threads across batches"; exit 1; }
echo "worker-pool smoke OK: $rows/$rows rows identical at threads {1,2,8}, pool re-used"

echo "== tier1: campaign smoke test =="
# End-to-end contract of the campaign engine: run a small grid campaign,
# simulate a crash by truncating the journal mid-file, resume at a
# different thread count, and require byte-identical rendered output.
campaign_dir="$(mktemp -d /tmp/synran-campaign.XXXXXX)"
trap 'rm -f "$telemetry_out" "$plane_out"; rm -rf "$pool_dir" "$campaign_dir"' EXIT
cat > "$campaign_dir/smoke.campaign" <<'EOF'
campaign  = smoke
adversary = balancer
runs      = 3
seed      = 5
sweep n   = 8,10
sweep t   = half,max
EOF
(cd "$campaign_dir" && "$OLDPWD/target/release/synran" campaign run smoke.campaign \
    --threads 1 > serial.txt 2>/dev/null)
journal="$campaign_dir/results/smoke.journal.jsonl"
[ -s "$journal" ] || { echo "campaign journal missing"; exit 1; }
# Keep the header plus two cell lines, cutting the last kept line in half
# (a kill mid-append), then resume on all cores.
head -n 3 "$journal" | head -c -40 > "$journal.cut" && mv "$journal.cut" "$journal"
(cd "$campaign_dir" && "$OLDPWD/target/release/synran" campaign resume smoke.campaign \
    --threads 0 > resumed.txt 2>/dev/null)
diff "$campaign_dir/serial.txt" "$campaign_dir/resumed.txt" \
    || { echo "resumed campaign output diverged"; exit 1; }
# Capture status rather than piping it: grep -q closes the pipe early,
# which under pipefail turns the writer's SIGPIPE into a failure.
status_out="$("./target/release/synran" campaign status "$campaign_dir/smoke.campaign" \
    --results-dir "$campaign_dir/results")"
grep -q "0 pending" <<< "$status_out" \
    || { echo "campaign status shows pending cells after resume"; exit 1; }
echo "campaign resume OK: serial and resumed output byte-identical"

echo "== tier1: fleet smoke test =="
# End-to-end contract of the multi-process fleet: `--procs 2` must produce
# the same stdout and a byte-identical journal as the in-process engine —
# including under an injected worker panic — and a kill -9'd supervisor
# must resume to the same rendered output with every cell journalled.
fleet_dir="$(mktemp -d /tmp/synran-fleet.XXXXXX)"
trap 'rm -f "$telemetry_out" "$plane_out"; rm -rf "$pool_dir" "$campaign_dir" "$fleet_dir"' EXIT
cat > "$fleet_dir/fsmoke.campaign" <<'EOF'
campaign  = fsmoke
adversary = balancer
runs      = 3
seed      = 5
sweep n   = 8,10,12,14
sweep t   = half,max
EOF
synran_bin="$OLDPWD/target/release/synran"
(cd "$fleet_dir" && "$synran_bin" campaign run fsmoke.campaign \
    --results-dir serial > serial.txt 2>/dev/null)
# Parity under an injected worker panic: the worker running cell 1 dies,
# the supervisor re-leases, and nothing observable changes.
(cd "$fleet_dir" && SYNRAN_FLEET_FAULT=panic:cell=1 "$synran_bin" campaign run \
    fsmoke.campaign --procs 2 --results-dir fleet > fleet.txt 2>/dev/null)
diff "$fleet_dir/serial.txt" "$fleet_dir/fleet.txt" \
    || { echo "fleet stdout diverged from the engine"; exit 1; }
cmp "$fleet_dir/serial/fsmoke.journal.jsonl" "$fleet_dir/fleet/fsmoke.journal.jsonl" \
    || { echo "fleet journal diverged from the engine"; exit 1; }
[ ! -e "$fleet_dir/fleet/fsmoke.fleet.jsonl" ] \
    || { echo "fleet sidecar survived a clean run"; exit 1; }
# Crash-resume: kill -9 the supervisor mid-campaign, then resume with the
# fleet again. The resumed output must match serial byte-for-byte and the
# journal must end up with the same cell lines.
(cd "$fleet_dir" && exec "$synran_bin" campaign run fsmoke.campaign --procs 2 \
    --results-dir crash > crash.txt 2>/dev/null) &
supervisor_pid=$!
sleep 0.2
kill -9 "$supervisor_pid" 2>/dev/null || true
wait "$supervisor_pid" 2>/dev/null || true
pkill -9 -f "$synran_bin campaign worker" 2>/dev/null || true
(cd "$fleet_dir" && "$synran_bin" campaign resume fsmoke.campaign --procs 2 \
    --results-dir crash > resumed.txt 2>/dev/null)
diff "$fleet_dir/serial.txt" "$fleet_dir/resumed.txt" \
    || { echo "fleet crash-resume output diverged"; exit 1; }
# The crash journal may carry a second header and (at worst) duplicate
# cell lines from a kill between append and resume bookkeeping, but its
# *set* of cell lines must equal the serial journal's.
diff <(grep '"type":"cell"' "$fleet_dir/serial/fsmoke.journal.jsonl" | sort -u) \
     <(grep '"type":"cell"' "$fleet_dir/crash/fsmoke.journal.jsonl" | sort -u) \
    || { echo "fleet crash-resume journal cell lines diverged"; exit 1; }
status_out="$("$synran_bin" campaign status "$fleet_dir/fsmoke.campaign" \
    --results-dir "$fleet_dir/crash")"
grep -q "0 pending" <<< "$status_out" \
    || { echo "campaign status shows pending cells after fleet resume"; exit 1; }
echo "fleet smoke OK: --procs 2 byte-identical (incl. injected panic), kill -9 resume converges"

echo "== tier1: fleet TCP smoke test =="
# The network transport must be invisible: a campaign served by a
# loopback `campaign agent` (mixed with one local pipe slot) must be
# byte-identical to the in-process engine, and an agent that severs its
# connection mid-cell must be reconnected and converge to the same
# output. Reuses the fleet smoke's spec and serial baseline.
SYNRAN_FLEET_TOKEN=tier1-secret "$synran_bin" campaign agent \
    --listen 127.0.0.1:0 --port-file "$fleet_dir/agent.port" 2>/dev/null &
agent_pid=$!
SYNRAN_FLEET_TOKEN=tier1-secret SYNRAN_FLEET_FAULT=drop_conn "$synran_bin" campaign agent \
    --listen 127.0.0.1:0 --port-file "$fleet_dir/agent2.port" 2>/dev/null &
drop_agent_pid=$!
trap 'kill "$agent_pid" "$drop_agent_pid" 2>/dev/null || true; rm -f "$telemetry_out" "$plane_out"; rm -rf "$pool_dir" "$campaign_dir" "$fleet_dir"' EXIT
for _ in $(seq 1 100); do
    [ -s "$fleet_dir/agent.port" ] && [ -s "$fleet_dir/agent2.port" ] && break
    sleep 0.1
done
[ -s "$fleet_dir/agent.port" ] && [ -s "$fleet_dir/agent2.port" ] \
    || { echo "campaign agent never wrote its port file"; exit 1; }
agent_addr="$(cat "$fleet_dir/agent.port")"
drop_agent_addr="$(cat "$fleet_dir/agent2.port")"
(cd "$fleet_dir" && "$synran_bin" campaign run fsmoke.campaign \
    --workers "$agent_addr,local:1" --token tier1-secret \
    --results-dir tcp > tcp.txt 2>/dev/null)
diff "$fleet_dir/serial.txt" "$fleet_dir/tcp.txt" \
    || { echo "TCP fleet stdout diverged from the engine"; exit 1; }
cmp "$fleet_dir/serial/fsmoke.journal.jsonl" "$fleet_dir/tcp/fsmoke.journal.jsonl" \
    || { echo "TCP fleet journal diverged from the engine"; exit 1; }
[ ! -e "$fleet_dir/tcp/fsmoke.fleet.jsonl" ] \
    || { echo "TCP fleet sidecar survived a clean run"; exit 1; }
# Dropped connection mid-cell: the faulted agent severs its socket on the
# first lease of cell 0 (attempt 0 only); the supervisor's backoff
# reconnect must find the same agent and retry to identical output.
(cd "$fleet_dir" && SYNRAN_FLEET_BACKOFF_MS=50 "$synran_bin" campaign run fsmoke.campaign \
    --workers "$drop_agent_addr" --token tier1-secret \
    --results-dir tcpdrop > tcpdrop.txt 2>/dev/null)
diff "$fleet_dir/serial.txt" "$fleet_dir/tcpdrop.txt" \
    || { echo "TCP drop_conn re-run output diverged"; exit 1; }
cmp "$fleet_dir/serial/fsmoke.journal.jsonl" "$fleet_dir/tcpdrop/fsmoke.journal.jsonl" \
    || { echo "TCP drop_conn re-run journal diverged"; exit 1; }
echo "fleet TCP smoke OK: loopback agent byte-identical (mixed remote+local), drop_conn reconnect converges"

echo "== tier1: OK =="
