#!/bin/bash
# Local CI gate: formatting, lints, the tier-1 build+test, and docs.
# Everything runs offline; a clean exit means the tree is shippable.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== examples build =="
cargo build --release --examples

# The benchmark package (perf/) is a workspace of its own that calls the
# crates' public API; type-check it against this tree so an API change it
# depends on fails here, not in the benchmark run.
echo "== benchmark package type-check (perf/) =="
CARGO_TARGET_DIR=.bench_build cargo check --offline --locked \
  --manifest-path perf/Cargo.toml --all-targets

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== tier-1 under the invariant checker (PSA_CHECK=1) =="
PSA_CHECK=1 cargo test -q

echo "== cargo doc --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# If bench results exist, refuse to ship a tree whose last bench sweep
# recorded failed jobs or drifted off the documented schema. The typed
# validator (src/bin/validate_bench.rs) checks structure before content —
# unlike the old grep gate, a document missing the "failures" key fails
# loudly instead of passing silently.
if compgen -G "${PSA_BENCH_JSON_DIR:-bench_results}/BENCH_*.json" > /dev/null; then
  echo "== bench schema + failure gate =="
  cargo run --release --quiet --bin validate_bench -- \
    "${PSA_BENCH_JSON_DIR:-bench_results}"/BENCH_*.json
fi

# Every gate below works under one temporary root, removed on exit
# together with any server the smoke gate left running.
TMP="$(mktemp -d)"
SERVE_PID=""
trap 'rm -rf "$TMP"; [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT

# The deterministic part of a BENCH document: everything up to the
# per-run "executor" timing block.
stable() { sed -n '1,/"executor"/p' "$1"; }

# Checkpoint determinism gate (see docs/CHECKPOINT.md): run the fig08
# bench cold, then again on the same on-disk store, where every run is
# answered by its memoised finished report. The stable document sections
# must match byte for byte, the memoised pass must simulate nothing and
# count its disk hits, and its batch must be >=1.5x faster (the
# simulations are skipped, not redone).
echo "== checkpoint determinism gate (fig08 cold vs memoised) =="
mkdir -p "$TMP/ckpt" "$TMP/cold" "$TMP/warm"
# Warm-up-dominated budget so the gate measures checkpointing, not
# parallelism (it must hold on a single-core runner too).
CKPT_ENV=(PSA_WARMUP=60000 PSA_INSTRUCTIONS=20000 PSA_WORKLOAD_LIMIT=4
          PSA_THREADS=1 PSA_CKPT_DIR="$TMP/ckpt")
for pass in cold warm; do
  env "${CKPT_ENV[@]}" PSA_BENCH_JSON_DIR="$TMP/$pass" \
    cargo bench -q -p psa-bench --bench fig08_spp_variants > /dev/null
  stable "$TMP/$pass/BENCH_fig08.json" > "$TMP/$pass/stable.json"
done
if ! cmp -s "$TMP/cold/stable.json" "$TMP/warm/stable.json"; then
  echo "checkpoint-warmed fig08 rows differ from the cold run:"
  diff "$TMP/cold/stable.json" "$TMP/warm/stable.json" | head -20
  exit 1
fi
grep -q '"ckpt_hits": 0' "$TMP/warm/BENCH_fig08.json" && {
  echo "warm run restored nothing from $TMP/ckpt"; exit 1; }
grep -q '"simulated_runs": 0,' "$TMP/warm/BENCH_fig08.json" || {
  echo "memoised run simulated jobs its stored reports should answer:"
  grep '"simulated_runs"' "$TMP/warm/BENCH_fig08.json"; exit 1; }
ratio_ok="$(awk '
  match($0, /"batch_wall_seconds": [0-9.eE+-]+/) {
    v[++n] = substr($0, RSTART + 22, RLENGTH - 22)
  }
  END { exit !(n == 2 && v[2] > 0 && v[1] / v[2] >= 1.5) }
' "$TMP/cold/BENCH_fig08.json" "$TMP/warm/BENCH_fig08.json" \
  && echo yes || echo no)"
if [ "$ratio_ok" != yes ]; then
  echo "warm batch is not >=1.5x faster than cold:"
  grep '"batch_wall_seconds"' "$TMP/cold/BENCH_fig08.json" \
                              "$TMP/warm/BENCH_fig08.json"
  exit 1
fi
echo "rows identical, memoised reports >=1.5x faster"

# Multi-core mixes memoise their reports too: fig14 at its golden
# gate's budget, twice on one store. The second pass must simulate
# nothing and still produce the golden stable sections (the cold pass
# when regenerating goldens).
echo "== checkpoint determinism gate (fig14 rerun on one store) =="
mkdir -p "$TMP/mix/ckpt"
for pass in cold warm; do
  mkdir -p "$TMP/mix/$pass"
  env PSA_WARMUP=2000 PSA_INSTRUCTIONS=8000 PSA_THREADS=1 PSA_MIXES=2 \
      PSA_CKPT_DIR="$TMP/mix/ckpt" PSA_BENCH_JSON_DIR="$TMP/mix/$pass" \
    cargo bench -q -p psa-bench --bench fig14_multicore4 > /dev/null
  stable "$TMP/mix/$pass/BENCH_fig14.json" > "$TMP/mix/$pass/stable.json"
done
grep -q '"simulated_runs": 0,' "$TMP/mix/warm/BENCH_fig14.json" || {
  echo "the fig14 rerun simulated jobs its stored reports should answer:"
  grep '"simulated_runs"' "$TMP/mix/warm/BENCH_fig14.json"; exit 1; }
MIX_GOLDEN=crates/experiments/tests/golden/fig14_stable.json
[ "${PSA_UPDATE_GOLDEN:-0}" = 1 ] && MIX_GOLDEN="$TMP/mix/cold/stable.json"
if ! cmp -s "$TMP/mix/warm/stable.json" "$MIX_GOLDEN"; then
  echo "memoised fig14 stable sections drifted from $MIX_GOLDEN:"
  diff "$MIX_GOLDEN" "$TMP/mix/warm/stable.json" | head -20
  exit 1
fi
echo "fig14 rerun simulated nothing, stable sections unchanged"

# Observability smoke: tiny observed fig08 and fig16 runs at the golden
# gates' budget. fig08 must export a valid Chrome trace_event document
# (chrome://tracing / Perfetto loadable); both bench documents must be
# schema-valid, and their stable sections must equal the committed
# goldens byte for byte — turning observability on must not move a
# figure (see docs/OBSERVABILITY.md).
echo "== observability smoke (PSA_OBS=1) =="
mkdir -p "$TMP/obs"
OBS_ENV=(PSA_WARMUP=2000 PSA_INSTRUCTIONS=8000 PSA_WORKLOAD_LIMIT=2
         PSA_THREADS=1 PSA_OBS=1 PSA_BENCH_JSON_DIR="$TMP/obs")
env "${OBS_ENV[@]}" PSA_OBS_TRACE="$TMP/obs/trace.json" \
  cargo bench -q -p psa-bench --bench fig08_spp_variants > /dev/null
env "${OBS_ENV[@]}" cargo bench -q -p psa-bench --bench fig16_new_families > /dev/null
cargo run --release --quiet --bin validate_bench -- --trace "$TMP/obs/trace.json"
for figure in fig08 fig16; do
  cargo run --release --quiet --bin validate_bench -- "$TMP/obs/BENCH_$figure.json"
  golden="crates/experiments/tests/golden/${figure}_stable.json"
  stable "$TMP/obs/BENCH_$figure.json" > "$TMP/obs/$figure.stable.json"
  if ! cmp -s "$TMP/obs/$figure.stable.json" "$golden"; then
    echo "observed $figure stable sections drifted from $golden:"
    diff "$golden" "$TMP/obs/$figure.stable.json" | head -20
    exit 1
  fi
done
echo "observed fig08 and fig16 stable sections bit-identical to the goldens"

# Golden bit-identity gate (see docs/HIERARCHY.md): a fixed-budget sweep
# must produce byte-for-byte the committed stable sections — any
# hierarchy refactor that changes timing shows up here as a diff, not as
# a silent drift. Each document is schema-validated first, then
# compared. The gate runs under BOTH optimized profiles: `bench` (what
# the sweeps use) and `release` (the tier-1 binary) — the data-oriented
# hot path leans on optimizer behaviour, so each shipped codegen
# configuration must reproduce the golden bytes independently.
# After an *intentional* behaviour change, regenerate deliberately with
# PSA_UPDATE_GOLDEN=1 ./ci.sh (and review the diff in the commit).
#
# Usage: golden_gate <bench> <figure> <golden> [NAME=VALUE ...]
golden_gate() {
  local bench=$1 figure=$2 golden=$3 profile
  shift 3
  echo "== golden bit-identity gate ($figure stable sections) =="
  for profile in bench release; do
    local dir="$TMP/golden-$figure/$profile"
    mkdir -p "$dir"
    env PSA_WARMUP=2000 PSA_INSTRUCTIONS=8000 PSA_THREADS=1 "$@" \
        PSA_BENCH_JSON_DIR="$dir" \
      cargo bench -q -p psa-bench --bench "$bench" --profile "$profile" > /dev/null
    cargo run --release --quiet --bin validate_bench -- "$dir/BENCH_$figure.json"
    stable "$dir/BENCH_$figure.json" > "$dir/stable.json"
  done
  local bench_out="$TMP/golden-$figure/bench/stable.json"
  local release_out="$TMP/golden-$figure/release/stable.json"
  if ! cmp -s "$bench_out" "$release_out"; then
    echo "bench-profile and release-profile $figure stable sections disagree:"
    diff "$bench_out" "$release_out" | head -20
    exit 1
  fi
  if [ "${PSA_UPDATE_GOLDEN:-0}" = 1 ]; then
    cp "$bench_out" "$golden"
    echo "golden file regenerated: $golden"
  elif ! cmp -s "$bench_out" "$golden"; then
    echo "$figure stable sections drifted from $golden:"
    diff "$golden" "$bench_out" | head -20
    echo "(intentional change? regenerate with PSA_UPDATE_GOLDEN=1 ./ci.sh)"
    exit 1
  else
    echo "stable sections bit-identical to $golden (bench + release profiles)"
  fi
}

GOLDEN=crates/experiments/tests/golden/fig08_stable.json
golden_gate fig08_spp_variants fig08 "$GOLDEN" PSA_WORKLOAD_LIMIT=2
# The new prefetcher families (see docs/EXPERIMENTS.md, Figure 16).
golden_gate fig16_new_families fig16 crates/experiments/tests/golden/fig16_stable.json \
  PSA_WORKLOAD_LIMIT=2
# The only golden over a multi-core machine: two 4-core mixes, shared LLC
# and DRAM (see EXPERIMENTS.md, "Figures 14 & 15").
golden_gate fig14_multicore4 fig14 crates/experiments/tests/golden/fig14_stable.json PSA_MIXES=2
# Selection logic: the only figure with per-logic configurations and a
# doubled-storage (ISO Storage) prefetcher.
golden_gate fig11_selection_logic fig11 crates/experiments/tests/golden/fig11_stable.json \
  PSA_WORKLOAD_LIMIT=2
# Figure 3's huge-page share over time: the only golden that reads the
# address spaces' demand paging directly (nine workloads, from all-huge
# lbm to mostly-4KB soplex).
golden_gate fig03_thp_usage fig03 crates/experiments/tests/golden/fig03_stable.json

# Trace-replay gate (see docs/TRACES.md): the committed sample trace
# must be (a) byte-identical to what `psa_trace_tool gen` deterministically
# regenerates, (b) verifiable by the full streaming walk, and (c) replay
# to byte-identical committed stable sections under both optimized
# profiles — pinning the .psatrace codec and the replay semantics at once.
# The fixture records mcf only; the tier-1 test tests/stream_digests.rs
# complements it by pinning the first 20,000 instructions of every catalog
# workload at seeds 1, 7 and 42 (crates/traces/tests/golden/stream_digests.txt)
# and 500,000 instructions of the eight spp_ladder workloads read through
# WorkloadSource, one at a time and in the simulator's filler batches
# (ladder_stream_digests.txt); tests/sample_trace.rs pins the writer's
# bytes for the fixture itself. The codec suite and both stream tests also
# run optimized: the writer's and verifier's lockstep checksum lanes, and
# the generator's inlined filler path beside its out-of-line access path,
# are where fat-LTO code generation departs from the debug tier-1 run.
echo "== trace-replay fixture gate (regen + verify) =="
cargo test --release -q -p psa-traces
cargo test --release -q --test stream_digests --test sample_trace
FIXTURE=crates/experiments/tests/golden/sample.psatrace
cargo run --release --quiet --bin psa_trace_tool -- \
  gen mcf "$TMP/sample.psatrace" --seed 7 --instructions 12000 > /dev/null
if ! cmp -s "$TMP/sample.psatrace" "$FIXTURE"; then
  echo "psa_trace_tool gen no longer reproduces the committed fixture $FIXTURE"
  echo "(format or generator drift; regenerate the fixture AND its goldens deliberately)"
  exit 1
fi
cargo run --release --quiet --bin psa_trace_tool -- verify "$FIXTURE" > /dev/null
golden_gate trace_replay trace_replay crates/experiments/tests/golden/trace_replay_stable.json

# IO fault-injection gate (see docs/ROBUSTNESS.md): the same fixed-budget
# fig08 sweep, but with the checkpoint store running over a seeded
# FaultPlan that mixes all four fault kinds (torn writes, bit flips,
# ENOSPC, transient EIO). Cold pass seeds the faulted store, warm pass
# reads back through it. Both documents must schema-validate with an
# empty failures array, both stable sections must match the golden bytes
# (graceful degradation: faults cost re-work, never wrong bits), and the
# store counters must prove faults actually fired.
echo "== IO fault-injection gate (fig08 under PSA_FAULT_PLAN) =="
mkdir -p "$TMP/fault/store" "$TMP/fault/cold" "$TMP/fault/warm"
FAULT_ENV=(PSA_WARMUP=2000 PSA_INSTRUCTIONS=8000 PSA_WORKLOAD_LIMIT=2
           PSA_THREADS=1 PSA_CKPT_DIR="$TMP/fault/store"
           PSA_FAULT_PLAN="seed=7,torn=0.05,flip=0.05,enospc=0.02,eio=0.10")
for pass in cold warm; do
  env "${FAULT_ENV[@]}" PSA_BENCH_JSON_DIR="$TMP/fault/$pass" \
    cargo bench -q -p psa-bench --bench fig08_spp_variants > /dev/null
  cargo run --release --quiet --bin validate_bench -- \
    "$TMP/fault/$pass/BENCH_fig08.json"
  stable "$TMP/fault/$pass/BENCH_fig08.json" > "$TMP/fault/$pass/stable.json"
  if ! cmp -s "$TMP/fault/$pass/stable.json" "$GOLDEN"; then
    echo "faulted $pass fig08 run drifted from $GOLDEN:"
    diff "$GOLDEN" "$TMP/fault/$pass/stable.json" | head -20
    exit 1
  fi
done
if grep -q '"injected_faults": 0' "$TMP/fault/cold/BENCH_fig08.json" \
   && grep -q '"injected_faults": 0' "$TMP/fault/warm/BENCH_fig08.json"; then
  echo "fault plan injected nothing across cold+warm passes"
  exit 1
fi
echo "rows identical under injected faults, plan verifiably active"

# Server smoke gate (see docs/SERVER.md): boot the psa_serve daemon on
# an ephemeral port over a persistent store, as it is deployed, run one
# sweep end to end over real sockets with the bundled client (no curl
# needed), schema-validate the served document, scrape /metrics, prove
# a repeat submission dedups, then SIGTERM with queued work in flight —
# the daemon must drain and exit 0. A served run memoises only its
# report, so the store stays small: no warm-up snapshots (~1 MB each).
echo "== server smoke gate (psa_serve e2e + SIGTERM drain) =="
SERVE_TMP="$TMP/serve"
mkdir -p "$SERVE_TMP"
PSA_CKPT_DIR="$SERVE_TMP/store" \
  target/release/psa_serve serve --addr 127.0.0.1:0 --job-delay-ms 200 \
  --port-file "$SERVE_TMP/port" > "$SERVE_TMP/log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SERVE_TMP/port" ] && break; sleep 0.1; done
[ -s "$SERVE_TMP/port" ] || {
  echo "psa_serve never wrote its port file"; cat "$SERVE_TMP/log"; exit 1; }
BASE="http://127.0.0.1:$(cat "$SERVE_TMP/port")"
CLIENT=(target/release/psa_serve client)
"${CLIENT[@]}" GET "$BASE/healthz" > "$SERVE_TMP/health"
grep -q '"ok"' "$SERVE_TMP/health"
SPEC='{"figure": "fig08", "workloads": ["lbm"],
       "variants": ["SPP", "no-prefetch"], "seed": 9,
       "warmup": 2000, "instructions": 8000}'
"${CLIENT[@]}" POST "$BASE/jobs" --body "$SPEC" > "$SERVE_TMP/submit"
JOB="$(grep -o '"id": "[^"]*"' "$SERVE_TMP/submit" | head -1 | cut -d'"' -f4)"
[ -n "$JOB" ] || { echo "job submission failed:"; cat "$SERVE_TMP/submit"; exit 1; }
for _ in $(seq 1 600); do
  "${CLIENT[@]}" GET "$BASE/jobs/$JOB" > "$SERVE_TMP/status"
  grep -q '"state": "done"' "$SERVE_TMP/status" && break
  grep -q '"state": "failed"' "$SERVE_TMP/status" && {
    echo "served job failed:"; cat "$SERVE_TMP/status"; exit 1; }
  sleep 0.1
done
grep -q '"state": "done"' "$SERVE_TMP/status" || {
  echo "served job never finished:"; cat "$SERVE_TMP/status"; exit 1; }
"${CLIENT[@]}" GET "$BASE/results/$JOB" > "$SERVE_TMP/BENCH_served.json"
cargo run --release --quiet --bin validate_bench -- "$SERVE_TMP/BENCH_served.json"
"${CLIENT[@]}" GET "$BASE/metrics" > "$SERVE_TMP/metrics"
grep -q '^psa_serve_jobs_completed_total 1$' "$SERVE_TMP/metrics"
grep -q '^# TYPE psa_executor_simulated_runs_total counter$' "$SERVE_TMP/metrics"
grep -q '^# TYPE psa_store_hits_total counter$' "$SERVE_TMP/metrics"
# An identical resubmission must join the finished job, not re-run it.
"${CLIENT[@]}" POST "$BASE/jobs" --body "$SPEC" > "$SERVE_TMP/resubmit"
grep -q '"deduped": true' "$SERVE_TMP/resubmit"
# Queue one more sweep and SIGTERM while it is in flight: the daemon
# must drain it ("draining N jobs" ... "shutdown complete") and exit 0.
SPEC2='{"figure": "fig08", "workloads": ["lbm"],
        "variants": ["SPP", "no-prefetch"], "seed": 10,
        "warmup": 2000, "instructions": 8000}'
"${CLIENT[@]}" POST "$BASE/jobs" --body "$SPEC2" > /dev/null
kill -TERM "$SERVE_PID"
SERVE_RC=0; wait "$SERVE_PID" || SERVE_RC=$?
SERVE_PID=""
[ "$SERVE_RC" = 0 ] || {
  echo "psa_serve exited $SERVE_RC:"; cat "$SERVE_TMP/log"; exit 1; }
grep -q 'draining' "$SERVE_TMP/log" || {
  echo "daemon never reported draining:"; cat "$SERVE_TMP/log"; exit 1; }
grep -q 'shutdown complete' "$SERVE_TMP/log" || {
  echo "daemon never reported shutdown:"; cat "$SERVE_TMP/log"; exit 1; }
STORE_BYTES="$(cat "$SERVE_TMP"/store/seg-*.psg 2>/dev/null | wc -c || true)"
[ "$STORE_BYTES" -gt 0 ] && [ "$STORE_BYTES" -lt 1048576 ] || {
  echo "served store segments hold $STORE_BYTES bytes (want 1..1MiB):"
  ls -l "$SERVE_TMP/store"; exit 1; }
echo "served document validated, dedup live, metrics scraped, drain clean," \
  "store $STORE_BYTES bytes"

echo "ci.sh: all green"
