#!/usr/bin/env bash
# Single entry point: build the benchmark, regenerate ../BENCHMARK.json from
# the tables in src/metrics.rs, run every workload (end-to-end and traced)
# and keep the results as the committed baseline.
#
#   benchmark/run.sh [seed]        (default seed 42)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-42}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
"$bin" manifest > BENCHMARK.json
"$bin" all --seed "$seed"
cp "benchmark/out/results-seed$seed.json" benchmark/baseline.json
echo "baseline written to benchmark/baseline.json"
