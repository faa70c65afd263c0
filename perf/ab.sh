#!/usr/bin/env bash
# A/B-compare this checkout's simulator against <base-ref>, both measured
# by this checkout's benchmark (see perf/README.md, "A/B protocol").
#
#   perf/ab.sh <base-ref> [--pairs N] [--seconds S] [--seeds "1 7"]
#                         [--workloads "spp_ladder nopf_mix4 ..."]
#
# The base commit is extracted with `git archive` (the repository's .git
# is left alone), this checkout's perf/ is copied over it, and each side
# is built into its own target directory under .bench_build/ab. Pairs
# alternate which side runs first. For each seed, `psa_perf compare`
# prints per (metric, workload) medians, quartiles, the head's win
# fraction and a verdict; the script exits non-zero if anything regressed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
usage='usage: perf/ab.sh <base-ref> [--pairs N] [--seconds S] [--seeds "1 7"] [--workloads "..."]'
base_ref="${1:?$usage}"
shift
pairs=10
seconds=20
seeds="1 7"
workloads="spp_ladder nopf_mix4 trace_replay serve_sweep"
while [[ $# -gt 0 ]]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seeds) seeds="$2"; shift 2 ;;
        --workloads) workloads="$2"; shift 2 ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
done

work="$PWD/.bench_build/ab"
rm -rf "$work"
mkdir -p "$work/base"
git archive "$base_ref" | tar -x -C "$work/base"
rm -rf "$work/base/perf"
tar -c --exclude=perf/target perf | tar -x -C "$work/base"
for side in base head; do
    root=$([[ $side == base ]] && echo "$work/base" || echo "$PWD")
    (cd "$root" && CARGO_TARGET_DIR="$work/$side-target" \
        cargo build --quiet --release --offline --manifest-path perf/Cargo.toml)
done

run_side() { # side seed workload pair
    local root out
    root=$([[ $1 == base ]] && echo "$work/base" || echo "$PWD")
    out="$work/out/$2/$1/$(printf %03d "$4")-$3"
    (cd "$root" && "$work/$1-target/release/psa_perf" run --workload "$3" --seed "$2" \
        --seconds "$seconds" --trace 0 --scratch "$work/scratch" --out "$out" >"$out.log" 2>&1) ||
        { echo "perf/ab.sh: $1 run failed, see $out.log" >&2; exit 1; }
}

status=0
for seed in $seeds; do
    for pair in $(seq 1 "$pairs"); do
        for w in $workloads; do
            order="base head"
            if (( pair % 2 == 0 )); then order="head base"; fi
            for side in $order; do
                mkdir -p "$work/out/$seed/$side"
                run_side "$side" "$seed" "$w" "$pair"
            done
        done
    done
    echo "== seed $seed: $pairs pairs of $seconds s runs, base $base_ref vs this checkout"
    "$work/head-target/release/psa_perf" compare \
        --base "$work/out/$seed"/base/*/perf.json \
        --head "$work/out/$seed"/head/*/perf.json || status=1
done
exit "$status"
