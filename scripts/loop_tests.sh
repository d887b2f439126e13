#!/usr/bin/env bash
# Run some tests again and again, and stop at the first failure.
#
#   scripts/loop_tests.sh <runs> <cargo test args> -- <names>
#
# e.g. scripts/loop_tests.sh 20 --release -q -p txn --lib -- locks::tests::some_test
#
# Each name is a test's full path as `cargo test <args> -- --list` prints
# it, and runs with `--exact`. A name that matches no test would run 0
# tests and pass every time, so before the loop every name must be listed
# by one of the test binaries <args> select; the script fails otherwise.
set -euo pipefail

usage() {
    echo "usage: $0 <runs> <cargo test args> -- <test names>" >&2
    exit 2
}

[ $# -ge 1 ] || usage
runs=$1
shift
args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
    args+=("$1")
    shift
done
[ $# -ge 2 ] || usage
shift
names=("$@")

listed=$(cargo test "${args[@]}" -- --list | sed -n 's/: test$//p')
missing=0
for name in "${names[@]}"; do
    if ! grep -Fxq -- "$name" <<<"$listed"; then
        echo "loop_tests: no test named $name" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ] || exit 1

for i in $(seq "$runs"); do
    cargo test "${args[@]}" -- --exact "${names[@]}" || {
        echo "loop_tests: failed on run $i of $runs" >&2
        exit 1
    }
done
echo "loop_tests: ${#names[@]} test(s) passed $runs run(s)"
