#!/usr/bin/env bash
# Checks the benchmark package: release build, unit and integration tests,
# clippy with warnings denied, formatting, then the smoke run of all four
# workloads (every code path and every check, in a few seconds).
#
#   benchmark/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=(--manifest-path benchmark/Cargo.toml)

echo "== bench_e2e: build =="
cargo build --release --offline --locked "${manifest[@]}"
echo "== bench_e2e: test =="
cargo test --offline --locked -q "${manifest[@]}"
echo "== bench_e2e: clippy (-D warnings) =="
cargo clippy --offline --locked --all-targets "${manifest[@]}" -- -D warnings
echo "== bench_e2e: fmt --check =="
cargo fmt --check "${manifest[@]}"
echo "== bench_e2e: smoke =="
cargo run --release --offline --locked -q "${manifest[@]}" --bin bench_e2e -- run --smoke
cargo run --release --offline --locked -q "${manifest[@]}" --bin bench_e2e -- trace --smoke > /dev/null
echo "bench_e2e CI OK"
