#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics, as BENCHMARK.json runs them.

    python3 perf/spread.py [--seeds 11-20] [--seconds 20] [--workloads a,b]

Runs `perf/run.sh --workload W --seed S --seconds N --trace 0` once per
seed and workload (run from the repository root), then prints, per
(workload, metric), the median over the seeds and the spread: the
distance between the first and third quartile (`statistics.quantiles`,
n=4) as a share of the median. A spread above a third of the metric's
bound in BENCHMARK.json is flagged. Exits non-zero if a run fails or
reports `correct: false`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, default=seeds("11-20"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    print("| workload | metric | median | spread | bound |")
    print("|---|---|---:|---:|---:|")
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = ["bash", "perf/run.sh", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            run = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{workload} seed {seed} failed:\n{run.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            flag = " (above a third of the bound)" if spread > bounds[name] / 3 else ""
            print(f"| {workload} | {name} | {median:.4g} | {spread:.3f}{flag} | {bounds[name]} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
