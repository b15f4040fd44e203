#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every result line.

    python3 perfbench/sweep.py --out results/parent --seeds 1-10
    python3 perfbench/sweep.py --out results/probe --workloads update-heavy --seeds 1-5

Runs the command named in BENCHMARK.json from the repository root, once
per workload and seed, and appends each run's result line to
<out>/<workload>.jsonl as {"seed": n, "trace": t, "result": {...}}.
Prints, per end-to-end metric, the median and the spread between the
first and third quartile as a share of the median, beside the metric's
bound. Exits non-zero if a run fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_one(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, type=pathlib.Path)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    for workload in args.workloads.split(","):
        rows = []
        for seed in parse_seeds(args.seeds):
            result = run_one(bench, workload, seed, args.trace)
            rows.append(result)
            with open(args.out / f"{workload}.jsonl", "a") as f:
                f.write(json.dumps({"seed": seed, "trace": args.trace, "result": result}) + "\n")
        print(f"{workload}: {len(rows)} runs, {sum(r['failed'] for r in rows)} failed "
              f"of {sum(r['attempted'] for r in rows)} requests")
        if len(rows) < 2:
            continue
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            med, q1, q3, s = spread(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            print(f"  {m['name']:<32} median {med:14.4f} {m['unit']:<6} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {s:6.3f}" + (f" bound {bound:.2f} {flag}" if bound is not None else ""))


if __name__ == "__main__":
    main()
