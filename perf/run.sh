#!/usr/bin/env bash
# Build the psa_perf benchmark and run it (see perf/README.md).
#
#   perf/run.sh [--seed N] [--out DIR] [--quick]
#       every workload, timed and traced; prints every metric and exits
#       non-zero if any correctness check fails
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1 [--out DIR]
#       one workload; the last line of stdout is the JSON result
#
# Builds into $CARGO_TARGET_DIR (default .bench_build) from the checkout
# root, and keeps its temporary files under that directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --offline --manifest-path perf/Cargo.toml >&2
mode=all
for arg in "$@"; do
    if [[ "$arg" == --workload ]]; then
        mode=run
    fi
done
exec "$CARGO_TARGET_DIR/release/psa_perf" "$mode" --scratch "$CARGO_TARGET_DIR/psa-perf-scratch" "$@"
