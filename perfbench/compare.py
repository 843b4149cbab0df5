#!/usr/bin/env python3
"""Compares two checkouts (a parent and a change) on the benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
                                 [--workloads a,b] [--seed0 1000]

Each directory is a checkout holding BENCHMARK.json and perfbench/. For
every workload the script runs --pairs pairs of untraced runs, one per
seed, alternating which side runs first, with each side building into
its own CARGO_TARGET_DIR (<dir>/.bench_build). It uses the parent's
BENCHMARK.json for the metric list, bounds and run length. Per workload
and end-to-end metric it prints each side's median and quartiles, how
many pairs the change won, and a verdict:

  gain        the change won at least 9 of 10 pairs and the medians
              differ by more than the parent's quartile spread;
  regression  the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beats every parent run;
  same        otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=str(Path(checkout) / ".bench_build"))
    p = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    try:
        result = json.loads(p.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        sys.exit(f"{checkout}: {workload} seed {seed} printed no result:\n{p.stderr[-2000:]}")
    if p.returncode != 0 or not result["correct"]:
        sys.exit(f"{checkout}: {workload} seed {seed} failed its checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(v):
    return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0], v[0], v[0]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args()

    bench = json.loads((Path(args.parent) / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for w in names:
        parent, change = [], []
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = [(args.parent, parent), (args.change, change)]
            if i % 2:
                order.reverse()
            for checkout, out in order:
                out.append(run(checkout, w, seed, bench["run_seconds"]))
        print(f"== {w} ({args.pairs} pairs, seeds {args.seed0}..{args.seed0 + args.pairs - 1})")
        for m in bench["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            a = [r[name] for r in parent]
            b = [r[name] for r in change]
            qa, qb = quartiles(a), quartiles(b)
            ma, mb = statistics.median(a), statistics.median(b)
            wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            spread = (qa[2] - qa[0]) / ma if ma else 0.0
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if wins >= 0.9 * len(a) and abs(mb - ma) > qa[2] - qa[0]:
                verdict = "gain"
            elif worse > m["bound"]:
                verdict = "regression"
            elif spread > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"  {name:16} parent {ma:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"change {mb:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                  f"change won {wins}/{len(a)}  {verdict}")


if __name__ == "__main__":
    main()
