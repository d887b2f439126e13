#!/usr/bin/env bash
# Two full sets of the same build and seed must agree: every sim-clock
# number identical, every host-clock end-to-end metric within its bound.
#
#   benchmark/selfcheck.sh [seed]  (default seed 42)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-42}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
for set in a b; do
    "$bin" all --seed "$seed"
    mv "benchmark/out/results-seed$seed.json" "benchmark/out/selfcheck-$set.json"
done
"$bin" compare benchmark/out/selfcheck-a.json benchmark/out/selfcheck-b.json --same-build
