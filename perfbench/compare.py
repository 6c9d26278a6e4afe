#!/usr/bin/env python3
"""Compare perfbench results of two commits for one workload.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one perfbench result line per run (same workload,
different seeds). For every end-to-end metric in BENCHMARK.json this
prints the median and quartiles of both sides, then a verdict: "worse"
when the new median is worse than the base median by more than the
metric's bound, "unresolved" when the base's own quartile spread is
wider than the bound, else "ok". Exits 1 if any metric is worse.
"""

import json
import os
import statistics
import sys


def load(path):
    runs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not all(r["correct"] for r in base + new):
        print("some runs are not correct; compare nothing", file=sys.stderr)
        return 2
    worse = False
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        qb = statistics.quantiles(b, n=4) if len(b) > 1 else [b[0]] * 3
        qn = statistics.quantiles(n, n=4) if len(n) > 1 else [n[0]] * 3
        mb, mn = statistics.median(b), statistics.median(n)
        change = (mn - mb) / mb if mb else 0.0
        spread = (qb[2] - qb[0]) / mb if mb else 0.0
        if (change > bound) if lower else (change < -bound):
            verdict = "worse"
            worse = True
        elif spread > bound:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print("%-20s base %.5g [%.5g, %.5g]  new %.5g [%.5g, %.5g]  %+.1f%%  %s"
              % (name, mb, qb[0], qb[2], mn, qn[0], qn[2], 100 * change, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
