#!/usr/bin/env bash
# Builds the benchmark, runs all four workloads and writes
# benchmark/results/<commit>-<seed>.json.
#
#   benchmark/run.sh [--twice] [--trace] [--seed N] [--seconds N]
#
# --twice runs two full sets back to back (second file: ...-<seed>.2.json)
# and prints, per end-to-end metric and workload, whether the two medians
# agree within that metric's bound.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
seed=1
seconds=20
twice=0
trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --twice) twice=1 ;;
    --trace) trace=1 ;;
    --seed) seed="$2"; shift ;;
    --seconds) seconds="$2"; shift ;;
    *) echo "usage: $0 [--twice] [--trace] [--seed N] [--seconds N]" >&2; exit 2 ;;
  esac
  shift
done

bench() { cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- "$@"; }
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
first="$here/results/$commit-$seed.json"

bench --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$first"
if [ "$twice" = 1 ]; then
  second="$here/results/$commit-$seed.2.json"
  bench --seed "$seed" --seconds "$seconds" --trace 0 --out "$second"
  bench --compare "$first" "$second"
fi
