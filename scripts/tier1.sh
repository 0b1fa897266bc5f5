#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
#
#   ./scripts/tier1.sh
#
# Runs the release build, the full test suite, clippy and rustdoc with
# warnings denied, and the formatting check, stopping at the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# One scratch dir for every step's temp files, removed on any exit.
scratch="$(mktemp -d /tmp/synran-tier1.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT

echo "== tier1: cargo build --release =="
cargo build --release --workspace

echo "== tier1: cargo test =="
cargo test -q --workspace

echo "== tier1: cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: cargo doc (-D warnings) =="
# Every intra-doc link must resolve: a doc comment naming a deleted or
# private item fails here instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier1: cargo fmt --check =="
cargo fmt --all -- --check

echo "== tier1: no unsafe code in the library =="
# Every library crate forbids `unsafe` at its root, which no module can
# opt back out of with `#[allow(unsafe_code)]`.
for lib in src/lib.rs crates/*/src/lib.rs; do
    grep -qx '#!\[forbid(unsafe_code)\]' "$lib" \
        || { echo "$lib lacks #![forbid(unsafe_code)]"; exit 1; }
done
echo "unsafe OK: every library root forbids unsafe_code"

echo "== tier1: one option parser =="
# `synran` and all ten experiment binaries parse their options through
# `synran_lab::cli`. A second hand-written parser would strip the `--` off
# an option in a second file.
parsers="$(grep -rlF --include='*.rs' 'strip_prefix("--")' src crates || true)"
[ "$(grep -c . <<< "$parsers")" -eq 1 ] \
    || { echo "strip_prefix(\"--\") must appear in exactly one file; found: ${parsers:-none}"; exit 1; }
echo "parser OK: one option parser ($parsers)"

echo "== tier1: examples run =="
# Clippy only compiles the examples; each one asserts consensus on its own
# run, so run every release example from a scratch dir and require exit 0.
cargo build --release --examples
examples_run=0
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    (cd "$scratch" && "$OLDPWD/target/release/examples/$name" > /dev/null) \
        || { echo "example $name failed"; exit 1; }
    examples_run=$((examples_run + 1))
done
echo "examples OK: all $examples_run examples exit 0"

echo "== tier1: end-to-end benchmark smoke (golden digests) =="
# Every workload of the end-to-end benchmark, shrunk to under a second,
# checked against its committed golden render digest (E1's coin calls, the
# E3 and E7 presets, the campaign grid). Any scheduling or adversary change
# that moves a single result fails here with a nonzero exit.
cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml \
    --bin bench_e2e -- run --smoke --workload all

echo "== tier1: full-size upper_bound pass (golden digest) =="
# The smoke sizes (n = 64, 128) never reach the balancer's split rounds
# with thousands of victims sharing one receiver set. One full pass of the
# upper_bound workload (E7 at n = 1024 and 4096, well under a second) runs
# them and checks its committed `full` render digest.
cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml \
    --bin bench_e2e -- run --workload upper_bound --seconds 1
# Its other committed seed, 42, where SynRan's non-packing `Known(S)`
# flooding rounds meet thousands of victims, against the `full 42` digest.
cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml \
    --bin bench_e2e -- run --workload upper_bound --seconds 0 --seed 42

echo "== tier1: full-size campaign_grid passes (golden digests) =="
# The smoke grid is a fraction of the 8,000 cells. One full pass (fresh,
# warm and resumed) at each committed seed checks its `full 5` and
# `full 42` render digests.
for seed in 5 42; do
    cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml \
        --bin bench_e2e -- run --workload campaign_grid --seconds 0 --seed "$seed"
done

echo "== tier1: full-size lower_bound passes (golden digests) =="
# The smoke sizes (n = 16, 24) never run the valency-guided adversary at
# n = 256 with the paper cap. One full pass of the lower_bound workload
# (E3 up to n = 256, well under a second) at each committed seed checks
# its `full 3` and `full 42` render digests.
for seed in 3 42; do
    cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml \
        --bin bench_e2e -- run --workload lower_bound --seconds 0 --seed "$seed"
done

echo "== tier1: committed experiment tables =="
# E1-E10 at default settings must reproduce results/<bin>.txt byte for
# byte, E1's exact Pr(U^v) rows at n = 16 (t = 16 among them, which the
# benchmark leaves out) included. Flags and normalization are those of
# benchmark/suite.sh: `--telemetry off` for E3-E7, and on both sides drop
# cargo's Compiling/Finished/Running lines, a closing `telemetry:` line,
# and trailing blank lines. Every binary runs from a scratch dir: several
# write results/<bin>.telemetry.jsonl relative to the working directory
# even with telemetry off, which must never touch the committed artifacts.
normalize() {
    grep -Ev '^ *(Compiling|Finished|Running) ' "$1" \
        | awk '{ lines[NR] = $0 } END {
                 n = NR
                 if (n > 0 && lines[n] ~ /^telemetry: /) n--
                 while (n > 0 && lines[n] == "") n--
                 for (i = 1; i <= n; i++) print lines[i]
               }'
}
tables_dir="$scratch/tables"
mkdir "$tables_dir"
for bin in e1_coin_control e2_blowup e3_lower_bound e4_synran_upper e5_protocol_comparison \
    e6_large_deviation e7_t_sweep e8_budget_ablation e9_adaptivity e10_threshold_ablation; do
    flags=()
    case "$bin" in
        e3_*|e4_*|e5_*|e6_*|e7_*) flags=(--telemetry off) ;;
    esac
    (cd "$tables_dir" && "$OLDPWD/target/release/$bin" "${flags[@]}" > "$bin.txt")
    diff <(normalize "results/$bin.txt") <(normalize "$tables_dir/$bin.txt") \
        || { echo "$bin stdout diverged from results/$bin.txt"; exit 1; }
done
echo "tables OK: E1-E10 stdout matches results/e*.txt"
# An option a binary does not take, or a value after a bare flag, must
# fail it with nothing on stdout, not run the defaults.
for bin in e1_coin_control e2_blowup e3_lower_bound e4_synran_upper e5_protocol_comparison \
    e6_large_deviation e7_t_sweep e8_budget_ablation e9_adaptivity e10_threshold_ablation; do
    for bad in "--bogus 1" "--fast 1"; do
        # $bad is unquoted on purpose: the option and its value are two words.
        bad_out="$(cd "$tables_dir" && "$OLDPWD/target/release/$bin" $bad 2>/dev/null)" \
            && { echo "$bin accepted $bad"; exit 1; }
        [ -z "$bad_out" ] || { echo "$bin $bad wrote to stdout"; exit 1; }
    done
done
echo "options OK: all ten binaries reject --bogus 1 and --fast 1"
# A knob value the experiment cannot run must fail before any output.
samples_out="$(cd "$tables_dir" && "$OLDPWD/target/release/e1_coin_control" --samples 0 2>/dev/null)" \
    && { echo "e1_coin_control accepted --samples 0"; exit 1; }
[ -z "$samples_out" ] || { echo "e1_coin_control --samples 0 wrote to stdout"; exit 1; }
echo "options OK: e1_coin_control --samples 0 rejected before any output"

echo "== tier1: committed telemetry artifacts are fresh =="
# Each results/<bin>.telemetry.jsonl must be what its binary writes today,
# run at its default seed and in the artifact's own mode (spans for E3, the
# opt-in counters for E5, each binary's default elsewhere) from a scratch
# dir. Span lines, the lab.elapsed_ns timer and the pool.utilization
# histogram vary from run to run and machine to machine; every other line
# repeats exactly and is compared.
stable_lines() {
    grep -Ev '"type":"span"|"name":"lab\.elapsed_ns"|"name":"pool\.utilization"' "$1"
}
artifacts_dir="$scratch/artifacts"
mkdir "$artifacts_dir"
for bin in e3_lower_bound e4_synran_upper e5_protocol_comparison e6_large_deviation \
    e7_t_sweep e8_budget_ablation; do
    flags=()
    case "$bin" in
        e5_*) flags=(--telemetry counters) ;;
    esac
    (cd "$artifacts_dir" && "$OLDPWD/target/release/$bin" "${flags[@]}" > /dev/null)
    diff <(stable_lines "results/$bin.telemetry.jsonl") \
        <(stable_lines "$artifacts_dir/results/$bin.telemetry.jsonl") \
        || { echo "results/$bin.telemetry.jsonl is stale: rerun $bin ${flags[*]} to regenerate it"; exit 1; }
done
echo "artifacts OK: all six committed telemetry artifacts match a fresh run"

echo "== tier1: telemetry smoke test =="
# A spans-mode CLI run must produce a parseable JSONL file containing at
# least one span and one counter event (the layer's end-to-end contract).
telemetry_out="$scratch/telemetry.jsonl"
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
    exit 1
fi
echo "report smoke OK: healthy artifact passes --check ($folded_lines folded stacks), truncated copy rejected"
# `synran batch` records through the campaign engine's run path; its
# artifact must pass --check too. An option batch does not take must fail it.
batch_telemetry="$scratch/batch.telemetry.jsonl"
./target/release/synran batch --n 16 --runs 4 --telemetry-out "$batch_telemetry" >/dev/null
./target/release/synran report --check "$batch_telemetry" >/dev/null \
    || { echo "report --check rejected the batch artifact"; exit 1; }
if ./target/release/synran batch --bogus 1 >/dev/null 2>&1; then
    echo "synran batch accepted an unknown option"
    exit 1
fi
echo "batch smoke OK: batch artifact passes --check, unknown option rejected"
# A command whose stdout cannot be written (here a full disk) must fail
# with an `error:` line and exit 1, not panic with exit 101.
full_status=0
./target/release/synran list > /dev/full 2> "$scratch/full.err" || full_status=$?
[ "$full_status" -ne 101 ] || { echo "synran list > /dev/full exited 101"; exit 1; }
if grep -q panicked "$scratch/full.err"; then
    echo "synran list > /dev/full panicked: $(cat "$scratch/full.err")"
    exit 1
fi
echo "write-error smoke OK: synran list > /dev/full exits $full_status without a panic"
# Every committed artifact must still pass --check (a line counts only if
# it parses as one JSON object) and render as valid JSON, and so must a
# fixture whose directory, counter, phase and protocol names all need
# escaping.
./target/release/synran report --check results/*.jsonl >/dev/null \
    || { echo "report --check rejected a committed artifact"; exit 1; }
escaped_dir="$scratch/we\"ird\\dir"
mkdir "$escaped_dir"
printf '%s\n' '{"type":"counter","name":"a\"b\\c","value":3}' \
    '{"type":"span","name":"odd\"phase","worker":null,"start_ns":0,"elapsed_ns":5}' \
    > "$escaped_dir/names.telemetry.jsonl"
printf '%s\n' '{"type":"cell","hash":"0","protocol":"syn\"ran","adversary":"passive","n":4,"t":3,"ones":2,"runs":1,"seed":1,"max_rounds":10,"cap":0,"samples":0,"horizon":0,"rate":0,"rounds":[2],"kills":[0],"timeouts":0,"violations":0}' \
    > "$escaped_dir/names.journal.jsonl"
./target/release/synran report --check "$escaped_dir"/*.jsonl >/dev/null \
    || { echo "report --check rejected the escaped-name fixture"; exit 1; }
./target/release/synran report --format json results/*.jsonl > "$scratch/committed.json"
./target/release/synran report --format json "$escaped_dir"/*.jsonl > "$scratch/escaped.json"
grep -qF '"a\"b\\c":3' "$scratch/escaped.json" \
    || { echo "report --format json did not escape a counter name"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
    python3 - "$scratch/committed.json" "$scratch/escaped.json" <<'EOF'
import json, sys
committed = json.load(open(sys.argv[1]))
escaped = json.load(open(sys.argv[2]))
assert committed["journals"], "no committed journal rendered"
assert escaped["counters"] == {'a"b\\c': 3}, escaped["counters"]
assert escaped["phases"][0]["phase"] == 'odd"phase', escaped["phases"]
journal = escaped["journals"][0]
assert journal["path"].endswith('we"ird\\dir/names.journal.jsonl'), journal["path"]
assert journal["rows"][0]["protocol"] == 'syn"ran', journal["rows"]
print("report JSON OK: committed artifacts and escaped names parse with json.loads")
EOF
fi

echo "== tier1: campaign smoke test =="
# End-to-end contract of the campaign engine: run a small grid campaign,
# simulate a crash by truncating the journal mid-file, resume at a
# different thread count, and require byte-identical rendered output.
campaign_dir="$scratch/campaign"
mkdir "$campaign_dir"
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

echo "== tier1: campaign kill -9 resume test =="
# A live `campaign run` killed with SIGKILL mid-campaign must resume to
# the serial run's stdout byte for byte, journal the same set of cell
# lines, and leave nothing pending. The engine journals (and flushes)
# each cell as its last run lands, and at most one window of cells is in
# flight, so the kill loses at most that window.
synran_bin="$OLDPWD/target/release/synran"
cat > "$campaign_dir/kill.campaign" <<'EOF'
campaign   = kill
adversary  = lower-bound
runs       = 2
sweep n    = 16,24,32,48
sweep seed = 1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20
EOF
(cd "$campaign_dir" && "$synran_bin" campaign run kill.campaign --threads 1 \
    --results-dir serial > kill-serial.txt 2>/dev/null)
total="$(grep -c '"type":"cell"' "$campaign_dir/serial/kill.journal.jsonl")"
crash_journal="$campaign_dir/crash/kill.journal.jsonl"
(cd "$campaign_dir" && exec "$synran_bin" campaign run kill.campaign --threads 1 \
    --results-dir crash > /dev/null 2>&1) &
run_pid=$!
# Kill as soon as the first cell is journalled.
for _ in $(seq 1 500); do
    journalled="$(grep -c '"type":"cell"' "$crash_journal" 2>/dev/null || true)"
    [ "${journalled:-0}" -gt 0 ] && break
    sleep 0.01
done
kill -9 "$run_pid" 2>/dev/null || true
wait "$run_pid" 2>/dev/null || true
done_before="$(grep -c '"type":"cell"' "$crash_journal" || true)"
[ "$done_before" -gt 0 ] && [ "$done_before" -lt "$total" ] \
    || { echo "kill -9 did not land mid-campaign ($done_before/$total cells journalled)"; exit 1; }
(cd "$campaign_dir" && "$synran_bin" campaign resume kill.campaign --threads 2 \
    --results-dir crash > kill-resumed.txt 2>/dev/null)
diff "$campaign_dir/kill-serial.txt" "$campaign_dir/kill-resumed.txt" \
    || { echo "kill -9 resume output diverged"; exit 1; }
# The crash journal carries a second header (and may repeat a cell whose
# line the kill cut mid-append), but its *set* of cell lines must equal
# the serial journal's.
diff <(grep '"type":"cell"' "$campaign_dir/serial/kill.journal.jsonl" | sort -u) \
     <(grep '"type":"cell"' "$crash_journal" | sort -u) \
    || { echo "kill -9 resume journal cell lines diverged"; exit 1; }
status_out="$("$synran_bin" campaign status "$campaign_dir/kill.campaign" \
    --results-dir "$campaign_dir/crash")"
grep -q "0 pending" <<< "$status_out" \
    || { echo "campaign status shows pending cells after kill -9 resume"; exit 1; }
echo "kill -9 resume OK: killed after $done_before/$total cells, resumed output byte-identical"

echo "== tier1: OK =="
