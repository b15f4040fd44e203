#!/usr/bin/env python3
"""Compare two result sets of the benchmark: parent against change.

    python3 perfbench/compare.py results/parent results/change

Each result set is a directory of <workload>.jsonl files written by
sweep.py. Runs are paired by seed. For each workload and end-to-end
metric in BENCHMARK.json it prints both sides' median and quartiles and
a verdict:

  better      the change wins at least 9 of 10 pairs and the medians
              differ by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the parent's own spread is wider than the bound, so a
              difference that small cannot be told from noise (unless
              every change run reads better than every parent run)
  same        none of the above

A rise in the error rate (failed over attempted requests) is flagged
separately. Exits 1 when any metric is worse or the error rate rose.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_set(directory):
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.jsonl")):
        by_seed = {}
        for line in path.read_text().splitlines():
            if line.strip():
                row = json.loads(line)
                by_seed[row["seed"]] = row["result"]
        runs[path.stem] = by_seed
    return runs


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better, bound):
    """Verdict for one metric from paired values (same seeds, same order)."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    iqr = p_q3 - p_q1
    if wins >= WIN_SHARE * len(gains) and sign * (c_med - p_med) > iqr:
        return "better"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    noisy = iqr / p_med > bound if p_med else True
    if noisy and not all_better:
        return "unresolved"
    worse_by = -sign * (c_med - p_med) / p_med if p_med else 0.0
    return "worse" if worse_by > bound else "same"


def error_rate(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_set(argv[1]), load_set(argv[2])
    bad = False
    for w in [w["name"] for w in bench["workloads"]]:
        if w not in parent or w not in change:
            print(f"{w}: missing from one side, skipped")
            continue
        seeds = sorted(set(parent[w]) & set(change[w]))
        if len(seeds) < 2:
            print(f"{w}: fewer than two paired seeds, skipped")
            continue
        p_runs = [parent[w][s] for s in seeds]
        c_runs = [change[w][s] for s in seeds]
        print(f"{w} ({len(seeds)} paired seeds)")
        for m in bench["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in p_runs]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs]
            v = verdict(p, c, m["better"], m["bound"])
            bad |= v == "worse"
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {m['name']:<16} parent {pq[1]:12.4f} [{pq[0]:.4f}, {pq[2]:.4f}]  "
                  f"change {cq[1]:12.4f} [{cq[0]:.4f}, {cq[2]:.4f}] {m['unit']:<6} {v}")
        pe, ce = error_rate(p_runs), error_rate(c_runs)
        if ce > pe:
            bad = True
            print(f"  ERROR RATE ROSE: parent {pe:.6f} change {ce:.6f}")
        else:
            print(f"  error_rate       parent {pe:.6f} change {ce:.6f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
