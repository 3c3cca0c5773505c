"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances and runtime budgets are pinned here; the wall-clock
assertions use the stated budgets directly.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd

from knotcert import (
    Family,
    SatelliteParams,
    Slope,
    SymIntMatrix,
    build_P,
    build_R,
    build_Z,
    certify_family,
    compactness_check,
    definiteness,
    generate_family,
    lens_cs_lower_bound,
    pontryagin_number,
    smith_normal_form,
    tau_brieskorn_family,
)
from knotcert.cli import dispatch
from knotcert.covers import (
    KILL_LONGITUDE,
    KILL_MERIDIAN,
    pattern_gluing_map,
    post_surgery_gluing,
    slope_from_filling,
)
from oracles import box_definiteness_oracle, det_exact

INTEGRALITY_TOLERANCE = 1e-6


def _coprime_pairs(limit):
    for p in range(2, limit + 1):
        for q in range(p + 1, limit + 1):
            if gcd(p, q) == 1:
                yield p, q


def _report(num, name, elapsed, budget):
    print(f"\n[criterion {num}] PASS {name} ({elapsed:.2f}s < {budget:g}s budget)")


def test_criterion_1_closed_form_r_reproduction():
    budget, started = 5.0, time.perf_counter()
    for p, q in _coprime_pairs(7):
        for k in (1, 2, 3):
            code, out = dispatch(
                ["r-invariant", str(p), str(q), str(k * p * q - 1), "--format", "json"]
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["rounded"] == "1", (p, q, k)
            assert float(payload["residual"]) < INTEGRALITY_TOLERANCE
            assert payload["precision_bits"] == "128"
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    _report(1, "R(p,q,kpq-1) = 1 across the grid at 128 bits", elapsed, budget)


def test_criterion_2_tau_and_pontryagin_exactness():
    budget, started = 1.0, time.perf_counter()
    assert dispatch(["tau", "2", "3", "1"]) == (0, "1/30")
    assert tau_brieskorn_family(2, 3, 1).value == Fraction(1, 30)
    assert pontryagin_number(2, 3, 1) == Fraction(1, 30)
    rng = random.Random(2024)
    count = 0
    while count < 200:
        p, q = rng.randint(2, 25), rng.randint(2, 25)
        if p == q or gcd(p, q) != 1:
            continue
        k = rng.randint(1, 25)
        assert pontryagin_number(p, q, k) < lens_cs_lower_bound(p, q, k)
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    _report(2, "tau = p1 = 1/30 exactly; lens bound strictly dominates p1", elapsed, budget)


def test_criterion_3_slope_calculus():
    budget, started = 1.0, time.perf_counter()
    for n in range(2, 21, 2):
        assert slope_from_filling(pattern_gluing_map(n), KILL_LONGITUDE) == Slope(1, n)
        assert slope_from_filling(post_surgery_gluing(n, +1), KILL_MERIDIAN) == Slope(1, 2 * n)
        assert slope_from_filling(post_surgery_gluing(n, -1), KILL_MERIDIAN) == Slope(1, 0)
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    _report(3, "filling slopes 1/n, 1/(2n), 1/0 for n = 2..20", elapsed, budget)


def test_criterion_4_cobordism_forms():
    budget, started = 1.0, time.perf_counter()
    for n in range(2, 11, 2):
        for p, q in _coprime_pairs(7):
            params = SatelliteParams(n, p, q)
            z = build_Z(params)
            c = (p - 1) * (q - 1) // 2
            assert (z.sign, z.handle_count) == (-1, c)
            r = build_R(params)
            assert (r.sign, r.handle_count) == (-1, n)
            pb = build_P(params)
            assert (pb.sign, pb.handle_count) == (1, n)
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    _report(4, "forms -I_c / -I_n / +I_n as sign and handle count", elapsed, budget)


def test_criterion_5_independence_certification():
    budget, started = 2.0, time.perf_counter()
    cert = certify_family(
        Family((SatelliteParams(2, 2, 3), SatelliteParams(2, 2, 5)))
    )
    assert cert.verdict.independent
    assert (cert.chain_checks[0].lhs, cert.chain_checks[0].rhs) == (138, 190)

    reversed_cert = certify_family(
        Family((SatelliteParams(2, 2, 5), SatelliteParams(2, 2, 3)))
    )
    assert not reversed_cert.verdict.independent

    family = generate_family(SatelliteParams(2, 2, 3), 10, fix_n=2)
    assert certify_family(family).verdict.independent
    family_arg = ";".join(f"{m.n},{m.p},{m.q}" for m in family.members)
    code, out = dispatch(["certify", "--family", family_arg])
    assert code == 0
    assert json.loads(out)["verdict"] == {"kind": "Independent"}
    code, _ = dispatch(["certify", "--family", "2,2,5;2,2,3"])
    assert code == 1
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    (_report(5, "138 < 190 certifies; reversal fails; 10-member chain end-to-end", elapsed, budget))


def test_criterion_6_bridging_compactness():
    budget, started = 5.0, time.perf_counter()
    starts = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (5, 6), (3, 7), (2, 9), (4, 7)]
    combos = itertools.product(starts, (2, 4, 6), (3, 4, 5, 6))
    families = []
    for (p, q), n0, length in combos:
        if len(families) == 50:
            break
        families.append(generate_family(SatelliteParams(n0, p, q), length, fix_n=n0))
    assert len(families) == 50
    for family in families:
        cert = certify_family(family)
        assert cert.verdict.independent
        members = family.members
        boundary = [(m.p, m.q, 2 * m.n) for m in members[:-1]]
        terminal = (members[-1].p, members[-1].q, members[-1].n)
        report = compactness_check(boundary, terminal)
        assert report.ok, (family, str(report))
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    _report(6, "chain inequality implies moduli compactness on 50 families", elapsed, budget)


def test_criterion_7_oracle_suites():
    budget, started = 30.0, time.perf_counter()
    rng = random.Random(20240817)
    for _ in range(1000):
        dim = rng.randint(1, 8)
        rows = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        assert (
            definiteness(SymIntMatrix.from_rows(rows)).value == box_definiteness_oracle(rows)
        ), rows

    for _ in range(1000):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        res = smith_normal_form(a)
        left = [list(row) for row in res.left]
        right = [list(row) for row in res.right]
        la = [
            [sum(left[i][k] * a[k][j] for k in range(nr)) for j in range(nc)]
            for i in range(nr)
        ]
        lar = [
            [sum(la[i][k] * right[k][j] for k in range(nc)) for j in range(nc)]
            for i in range(nr)
        ]
        for i in range(nr):
            for j in range(nc):
                assert lar[i][j] == (res.diagonal[i] if i == j else 0)
        for i in range(len(res.diagonal) - 1):
            lo, hi = res.diagonal[i], res.diagonal[i + 1]
            assert hi == 0 if lo == 0 else hi % lo == 0
        assert abs(det_exact(left)) == 1
        assert abs(det_exact(right)) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    _report(7, "definiteness box oracle x1000; SNF identity and chain x1000", elapsed, budget)
