#!/usr/bin/env bash
# The one command of the ocean benchmark: build, then run.
#
#   benchmark/run.sh                      every workload, end to end  -> benchmark/out/results.json
#   benchmark/run.sh --trace              every workload, traced      -> benchmark/out/results_trace.json
#   benchmark/run.sh --smoke [--trace]    the same at 1/20 size, a few seconds
#   benchmark/run.sh --seed N             other inputs (default 20070415)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload; last stdout line is its result object
#   benchmark/run.sh --compare A.json B.json
#                                         judge B against baseline A; non-zero on any breach
#   benchmark/run.sh --manifest           print the contents of /BENCHMARK.json
#
# Run it from the repository root. The build goes to $CARGO_TARGET_DIR
# when that is set and to benchmark/target otherwise; nothing outside the
# checkout is read or written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's own chatter goes to stderr: stdout carries results only.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/ocean_bench" --out-dir "$here/out" "$@"
