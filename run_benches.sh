#!/bin/bash
# Regenerates every table/figure. Per-figure scaling keeps the full suite
# tractable; raise the knobs for higher fidelity.
#
# Each target prints its rows as text AND writes BENCH_<figure>.json into
# $PSA_BENCH_JSON_DIR (default: bench_results/). Schema: docs/METRICS.md.
# Cap worker threads with PSA_THREADS (default: all cores).
set -euo pipefail
cd "$(dirname "$0")"

export PSA_BENCH_JSON_DIR="${PSA_BENCH_JSON_DIR:-bench_results}"
mkdir -p "$PSA_BENCH_JSON_DIR"

run() {
  name=$1; shift
  echo "############ $name ############"
  # grep -v exits 1 when every line is filtered (e.g. a fully quiet run);
  # that is not a bench failure.
  env "$@" cargo bench -q -p psa-bench --bench "$name" 2>&1 \
    | { grep -v "^warning\|Compiling\|Finished\|Running" || true; }
  echo
}
run table1_config
run fig03_thp_usage
run fig04_05_psa_magic
run fig02_discard_probability
run fig08_spp_variants
run fig10_sources
run fig09_all_prefetchers
run fig13_l1d_comparison PSA_WORKLOAD_LIMIT=40
run fig11_selection_logic PSA_WORKLOAD_LIMIT=24
run fig12_constrained PSA_WORKLOAD_LIMIT=10
run fig14_multicore4 PSA_MIXES=6
run fig15_multicore8 PSA_MIXES=4
run nonintensive PSA_WORKLOAD_LIMIT=40
run ablations PSA_WORKLOAD_LIMIT=10
run fig16_new_families
run trace_replay

echo "############ collected JSON ############"
ls -l "$PSA_BENCH_JSON_DIR"/BENCH_*.json

# Schema + fault gate: every document must match the docs/METRICS.md
# schema and report an empty `failures` array. A non-empty array means
# some (workload, variant) job panicked or tripped the forward-progress
# watchdog — its rows are missing from the figure. The typed validator
# fails loudly on a document that *lacks* the key (the old grep gate
# silently passed those).
echo "############ schema + failure gate ############"
cargo run --release --quiet --bin validate_bench -- \
  "$PSA_BENCH_JSON_DIR"/BENCH_*.json
