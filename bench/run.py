"""Run one workload of the knotcert benchmark and print its metrics.

    python3 bench/run.py --workload certify_chains --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the library is imported from ./src.  Every
load is closed-loop with one client in one process (cli_mix: one child
process at a time).  Each op is checked against an answer key that the
benchmark computes itself (keys.py); a raise or a mismatch counts as failed.

--trace 0 measures the end-to-end metrics for --seconds seconds, with the
set-up probes spread over that time.  --trace 1
runs a fixed number of ops twice, untraced and then with the layer wrappers
installed (tracer.py), and reports the per-layer metrics and the tracing
overhead; the spans go to bench/out/.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 9
WARMUP_OPS = 2


def import_knotcert():
    import knotcert

    if os.path.dirname(os.path.dirname(os.path.abspath(knotcert.__file__))) != SRC:
        raise ImportError(f"knotcert was imported from {knotcert.__file__}, not from {SRC}")
    return knotcert


def set_up(name: str, seed: int):
    """Import knotcert, build the inputs and answer keys, warm up.

    Returns the workload, its op pool, and the warm-up outcomes.
    """
    import_knotcert()
    workload = workloads.build(name, ROOT)
    pool = workload.make(random.Random(seed))
    warm = [run_op(workload, op) for op in sorted(pool, key=lambda op: op.weight)[:WARMUP_OPS]]
    return workload, pool, warm


def run_op(workload, op, tracer=None) -> tuple[float, bool, float]:
    """One op: build its input, time the call, check the result.

    Returns the call's latency, whether the result passed its check, and
    the time spent building the input and checking the result.
    """
    t0 = time.perf_counter()
    inputs = workload.prepare(op)
    t1 = time.perf_counter()
    try:
        result = workload.execute(op, inputs, tracer)
    except Exception:  # a raise is a failed op, not a crashed benchmark
        t2 = time.perf_counter()
        return t2 - t1, False, t1 - t0
    t2 = time.perf_counter()
    try:
        ok = bool(workload.check(op, inputs, result))
    except Exception:  # a malformed result is a failed op
        ok = False
    return t2 - t1, ok, (t1 - t0) + (time.perf_counter() - t2)


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--seconds", "0",
         "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def measure(workload, pool, seconds: float, probe) -> dict:
    """Run ops from the pool for `seconds` seconds of measured time.

    The SETUP_REPEATS calls of probe() are spread evenly over the run, so
    the set-up samples see the host over the same stretch as the ops; the
    clock is stopped while a probe runs.
    """
    latencies, outcomes, kinds, setup_samples = [], [], {}, []
    harness = paused = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        clock = now - start - paused
        if len(setup_samples) < SETUP_REPEATS and clock >= seconds * len(setup_samples) / SETUP_REPEATS:
            setup_samples.append(probe())
            paused += time.perf_counter() - now
            continue
        if clock >= seconds:
            break
        op = pool[i % len(pool)]
        i += 1
        latency, ok, op_harness = run_op(workload, op)
        harness += op_harness
        latencies.append(latency)
        outcomes.append((op, latency, ok))
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    elapsed = time.perf_counter() - start - paused
    return {"latencies": latencies, "outcomes": outcomes, "kinds": kinds, "elapsed": elapsed,
            "harness": harness, "setup_samples": setup_samples}


def size_stats(workload, pool, outcomes) -> dict:
    """Input-size facts of the pool, plus median latency by stratum."""
    stats = {"pool": len(pool)}
    for field in ("length", "dim", "a3"):
        values = [op.size[field] for op in pool if field in op.size]
        if values:
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            stats[field] = {"min": min(values), "q1": q[0], "median": q[1], "q3": q[2], "max": max(values)}
    for field in ("length", "dim"):
        by = {}
        for op, latency, _ in outcomes:
            if field in op.size:
                by.setdefault(op.size[field], []).append(latency)
        if by:
            stats[f"p50_ms_by_{field}"] = {k: round(1000 * statistics.median(v), 3) for k, v in sorted(by.items())}
    if getattr(workload, "stdout_bytes", None):
        q = statistics.quantiles(workload.stdout_bytes, n=4)
        stats["stdout_bytes"] = {"min": min(workload.stdout_bytes), "median": q[1], "max": max(workload.stdout_bytes)}
    return stats


def end_to_end(workload, pool, warm, seconds: float, probe) -> tuple[dict, int, int, list]:
    run = measure(workload, pool, seconds, probe)
    lat = run["latencies"]
    setup_samples = run["setup_samples"]
    attempted = len(lat) + len(warm)
    failed = sum(not ok for _, _, ok in run["outcomes"]) + sum(not ok for _, ok, _ in warm)
    verified = len(lat) - sum(not ok for _, _, ok in run["outcomes"])
    # Building inputs and checking results is the benchmark's work, not the library's.
    library_s = run["elapsed"] - run["harness"]
    tail_value, tail_pct = tail(lat)
    if workload.name == "cli_mix":
        rss_kib = workload.peak_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (verified / library_s, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * tail_value, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    notes = [
        f"workload {workload.name}: closed loop, 1 client, {run['elapsed']:.2f} s measured, of which "
        f"{run['harness']:.2f} s ({100 * run['harness'] / run['elapsed']:.1f}%) building inputs and checking "
        f"results, left out of ops_per_s",
        "op mix: " + ", ".join(f"{k} {v}" for k, v in sorted(run["kinds"].items())),
        f"latency: n={len(lat)}, p50 {metrics['latency_p50_ms'][0]:.3f} ms, "
        f"tail p{tail_pct:.1f} {metrics['latency_tail_ms'][0]:.3f} ms",
        f"failed_ratio: {failed}/{attempted} = {failed / attempted:.6f}",
        "setup samples (s): " + ", ".join(f"{s:.4f}" for s in setup_samples),
        "info: " + json.dumps(size_stats(workload, pool, run["outcomes"]), sort_keys=True),
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, attempted, failed, notes


def traced(workload, pool, warm, name: str, seed: int) -> tuple[dict, int, int, list]:
    ops = [pool[i % len(pool)] for i in range(workload.trace_ops)]
    plain = [run_op(workload, op) for op in ops]
    tracer = Tracer()
    tracer.install()
    traced_runs = []
    for i, op in enumerate(ops):
        tracer.op = i
        traced_runs.append(run_op(workload, op, tracer))
    plain_s = sum(latency for latency, _, _ in plain)
    traced_s = sum(latency for latency, _, _ in traced_runs)
    metrics = tracer.metrics(traced_s / plain_s - 1)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans_{name}_{seed}.jsonl")
    tracer.write_spans(spans_path)
    everything = [*warm, *plain, *traced_runs]
    failed = sum(not ok for _, ok, _ in everything)
    notes = [
        f"workload {workload.name}: {len(ops)} ops untraced ({plain_s:.3f} s busy), "
        f"then traced ({traced_s:.3f} s busy)",
        f"spans written to {os.path.relpath(spans_path, ROOT)}",
    ]
    return metrics, len(everything), failed, notes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "knotcert", "__init__.py")):
        print(f"error: no knotcert sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        t0 = time.perf_counter()
        set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    workload, pool, warm = set_up(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed, notes = traced(workload, pool, warm, args.workload, args.seed)
    else:
        metrics, attempted, failed, notes = end_to_end(
            workload, pool, warm, args.seconds, lambda: probe_setup(args.workload, args.seed)
        )
    for line in notes:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
