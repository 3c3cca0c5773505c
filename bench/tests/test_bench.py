"""The benchmark's own tests: a tiny smoke run of every workload, and the
answer keys checked against the independent oracles in tests/oracles.py.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "tests"))

import keys  # noqa: E402
import workloads  # noqa: E402
from tracer import METRICS  # noqa: E402

# Shrinks a run to a few ops and one set-up probe; the rest is run.main as is.
TINY = """
import sys
sys.path.insert(0, "bench")
import run, workloads
run.SETUP_REPEATS = 1
for cls in (workloads.CertifyChains, workloads.RSpectrum, workloads.DenseForms, workloads.CliMix):
    cls.trace_ops = 3
sys.exit(run.main(sys.argv[1:]))
"""


def tiny_run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", TINY, "--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_end_to_end(workload):
    result = tiny_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_traced(workload):
    result = tiny_run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(METRICS)
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    if workload == "r_spectrum":
        assert calls["exactmath.definiteness.calls"] == calls["exactmath.smith_normal_form.calls"] == 0
        assert calls["fs_invariant.r_invariant.calls"] == 3
    if workload == "certify_chains":
        assert calls["fs_invariant.r_invariant.calls"] == 0
        assert calls["exactmath.definiteness.calls"] > 0
    if workload == "cli_mix":
        assert result["metrics"]["cli.stdout_bytes"]["value"] > 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "r_spectrum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_dedekind_key_matches_r_oracle():
    from oracles import r_oracle, random_coprime_triple

    rng = random.Random(11)

    for _ in range(25):
        a1, a2, a3 = random_coprime_triple(rng, 2, 40)
        _, rounded, residual = r_oracle(a1, a2, a3)
        assert residual < 1e-20
        assert keys.r_exact(a1, a2, a3) == rounded
    for p, q, k in ((2, 3, 1), (2, 5, 3), (3, 4, 2), (5, 7, 1)):
        assert keys.r_exact(p, q, k * p * q - 1) == 1


def test_sylvester_key_matches_box_oracle():
    from oracles import box_definiteness_oracle

    rng = random.Random(12)
    for _ in range(60):
        d = rng.randint(1, 6)
        cls = rng.choice(workloads.DenseForms.CLASSES if d >= 2 else ("PositiveDefinite", "NegativeDefinite"))
        signs = workloads.DenseForms._signs(rng, d, cls) if d >= 2 else [rng.choice((1, -1)) * rng.randint(1, 5)]
        rows = [[signs[i] if i == j else 0 for j in range(d)] for i in range(d)]
        if d >= 2:
            workloads._congruence_mix(rows, d // 2, rng)
        assert keys.sylvester_class(signs) == box_definiteness_oracle(rows), (signs, rows)


def test_snf_identity_check_rejects_a_wrong_transform():
    rng = random.Random(13)
    d = 5
    chain = [1, 1, 2, 6, 0]
    rows = [[chain[i] if i == j else 0 for j in range(d)] for i in range(d)]
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    assert keys.snf_identity_holds(identity, rows, identity, chain, rng)
    bad = [row[:] for row in identity]
    bad[2][3] = 1
    assert not keys.snf_identity_holds(bad, rows, identity, chain, rng)


def test_chain_key_respects_the_inequality():
    table = keys.PairTable(2000)
    for start, fix_n in (((2, 2, 3), 2), ((4, 3, 5), 4), ((2, 2, 3), None)):
        members = table.chain(start, 8, fix_n)
        assert all(ok for _, _, _, ok in keys.chain_checks(members))
        if fix_n is not None:
            assert all(m[0] == fix_n for m in members[1:])


def _result_file(path, seeds, values, failed=0, run_seconds=25):
    q1, median, q3 = statistics.quantiles(values, n=4)
    metric = {"unit": "1/s", "seeds": seeds, "values": values, "median": median, "q1": q1, "q3": q3,
              "spread": (q3 - q1) / median}
    body = {"machine": {}, "run_seconds": run_seconds, "workloads": {
        "r_spectrum": {"seeds": seeds, "attempted": 100, "failed": failed, "info": None,
                       "metrics": {"ops_per_s": metric}}}}
    path.write_text(json.dumps(body))
    return str(path)


def compare(a, b):
    return subprocess.run([sys.executable, os.path.join(BENCH, "compare.py"), a, b],
                          capture_output=True, text=True, timeout=60)


def test_compare_pairs_by_seed_and_applies_its_rules(tmp_path):
    seeds = list(range(1, 11))
    base = [10.0 + 0.1 * i for i in range(10)]
    a = _result_file(tmp_path / "a.json", seeds, base)
    # The same runs listed in another order pair up by seed: no pair wins.
    same = _result_file(tmp_path / "same.json", seeds[::-1], base[::-1])
    proc = compare(a, same)
    assert proc.returncode == 0 and "same" in proc.stdout and "gain" not in proc.stdout
    faster = _result_file(tmp_path / "fast.json", seeds, [v * 1.1 for v in base])
    proc = compare(a, faster)
    assert proc.returncode == 0 and "gain (10/10 pairs)" in proc.stdout
    slower = _result_file(tmp_path / "slow.json", seeds, [v * 0.5 for v in base])
    assert compare(a, slower).returncode == 1
    failing = _result_file(tmp_path / "fail.json", seeds, [v * 1.1 for v in base], failed=1)
    proc = compare(a, failing)
    assert proc.returncode == 1 and "same (B has failed ops)" in proc.stdout and "pairs)" not in proc.stdout
    assert compare(a, _result_file(tmp_path / "s.json", seeds[1:] + [11], base)).returncode == 2
    assert compare(a, _result_file(tmp_path / "t.json", seeds, base, run_seconds=10)).returncode == 2
