"""Compare two result files written by suite.py, one row per workload and metric.

    python3 bench/compare.py bench/BENCH_baseline.json bench/out/BENCH_mine.json

The first file is the parent (A), the second the change (B).  Both must
hold the same seeds and run length for every workload, else the files are
refused (exit 2).  Runs are paired by their recorded seed.  For each
end-to-end metric the row reads:

- regression: B's median is worse than A's by more than the metric's bound;
- unresolved: either side's run-to-run spread (quartile distance over the
  median) is wider than the bound, unless every run of B beats every run
  of A;
- gain: B has no failed ops, wins at least 9 of every 10 pairs (ties count
  for neither), and the medians differ by more than A's own quartile
  distance;
- same: none of the above.

Per-layer metrics, which have no bound, are listed with their medians only.
Exit code 1 when any row is a regression or B has failed ops, else 0.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def verdict(a: dict, b: dict, bound: float, better: str, b_failed: bool) -> str:
    sign = 1 if better == "higher" else -1
    va, vb = a["values"], b["values"]
    by_seed = dict(zip(a["seeds"], va))
    pairs = [(by_seed[seed], y) for seed, y in zip(b["seeds"], vb)]
    worse_by = sign * (a["median"] - b["median"]) / a["median"] if a["median"] else 0.0
    if worse_by > bound:
        return "regression"
    all_better = min(sign * v for v in vb) > max(sign * v for v in va)
    if (a["spread"] > bound or b["spread"] > bound) and not all_better:
        return "unresolved"
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (b["median"] - a["median"]) > a["q3"] - a["q1"]:
        return "same (B has failed ops)" if b_failed else f"gain ({wins}/{len(pairs)} pairs)"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    with open(argv[0]) as fh:
        parent = json.load(fh)
    with open(argv[1]) as fh:
        change = json.load(fh)
    mismatch = [] if parent["run_seconds"] == change["run_seconds"] else ["run_seconds"]
    mismatch += [f"{w} seeds" for w, wa in parent["workloads"].items()
                 if w in change["workloads"] and sorted(wa["seeds"]) != sorted(change["workloads"][w]["seeds"])]
    if mismatch:
        print(f"refused: the files differ in {', '.join(mismatch)}; run both with the same seeds and run length",
              file=sys.stderr)
        return 2
    regressions = failures = 0
    print(f"{'workload':15s} {'metric':40s} {'A median':>12s} {'B median':>12s} {'change':>8s} "
          f"{'A spread':>9s} {'B spread':>9s}  verdict")
    for workload, wa in parent["workloads"].items():
        wb = change["workloads"].get(workload)
        if wb is None:
            print(f"{workload:15s} missing from {argv[1]}")
            continue
        failures += wb["failed"] > 0
        for name, a in wa["metrics"].items():
            b = wb["metrics"].get(name)
            if b is None:
                continue
            change_pct = 100 * (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            if name in spec:
                v = verdict(a, b, spec[name]["bound"], spec[name]["better"], wb["failed"] > 0)
            else:
                v = "-"
            regressions += v == "regression"
            print(f"{workload:15s} {name:40s} {a['median']:12.5g} {b['median']:12.5g} {change_pct:+7.1f}% "
                  f"{a['spread']:9.4f} {b['spread']:9.4f}  {v}")
        if wb["failed"]:
            print(f"{workload:15s} {wb['failed']} failed ops in B ({wa['failed']} in A): no gain counts")
    return 1 if regressions or failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
