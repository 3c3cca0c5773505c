"""Run the benchmark on several seeds and write one result file.

    python3 bench/suite.py --runs 10 --out bench/out/BENCH_mine.json
    python3 bench/suite.py --runs 5 --trace-runs 1 --workloads r_spectrum --out ...

For every workload and each seed 1..--runs it runs bench/run.py once, one
run at a time, for BENCHMARK.json's run_seconds (then --trace-runs traced
runs, seeds from 1, for the per-layer metrics).  It records each metric's
values with the seed of each, median, quartiles and spread (the distance
between the quartiles of statistics.quantiles(values, n=4) as a share of
the median).  The file also records the machine (nproc, Python and
mpmath versions), the git commit if there is one, and the input-size
statistics that run.py prints on its "info:" line.  compare.py reads two
such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def summary(seeds: list[int], values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"seeds": seeds, "values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}


def machine() -> dict:
    try:
        import mpmath

        mpmath_version = mpmath.__version__
    except ImportError:
        mpmath_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "platform": platform.platform(),
        "git_sha": sha,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    info = next((json.loads(line[len("info: "):]) for line in lines if line.startswith("info: ")), None)
    return json.loads(lines[-1]), info


def main(argv: list[str]) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0, help="traced runs per workload, seeds from 1")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    result = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = list(range(1, args.runs + 1))
        values: dict[str, list[float]] = {}
        value_seeds: dict[str, list[int]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        info = None
        runs = [(seed, 0) for seed in seeds] + [(seeds[i % len(seeds)], 1) for i in range(args.trace_runs)]
        for seed, trace in runs:
            line, seed_info = run_once(workload, seed, seconds, trace)
            info = info or seed_info
            attempted += line["attempted"]
            failed += line["failed"]
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                value_seeds.setdefault(name, []).append(seed)
                units[name] = m["unit"]
        metrics = {name: {"unit": units[name], **summary(value_seeds[name], v)} for name, v in values.items()}
        result["workloads"][workload] = {
            "seeds": seeds, "attempted": attempted, "failed": failed, "info": info, "metrics": metrics,
        }
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and m["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"{workload:15s} {name:40s} median {m['median']:12.5g} {m['unit']:6s} "
                  f"spread {m['spread']:.4f}" + (f" / bound {bound}" if bound else "") + flag)
        print(f"{workload:15s} failed {failed} of {attempted}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
