"""Closed-form Chern-Simons and Pontryagin quantities, compactness, parity."""

import random
from fractions import Fraction

import pytest

from knotcert import (
    CompactnessCheck,
    CompactnessReport,
    H1Data,
    InvalidParams,
    compactness_check,
    count_reducibles,
    lens_cs_lower_bound,
    parity_obstruction,
    pontryagin_number,
    tau_brieskorn_family,
)
from oracles import random_coprime_pair


def test_tau_values():
    assert tau_brieskorn_family(2, 3, 1).value == Fraction(1, 30)
    assert tau_brieskorn_family(2, 3, 2).value == Fraction(1, 66)
    assert tau_brieskorn_family(2, 5, 1).value == Fraction(1, 90)


def test_pontryagin_values():
    assert pontryagin_number(2, 3, 1) == Fraction(1, 30)
    assert pontryagin_number(2, 5, 2) == Fraction(1, 190)


def test_lens_bound_values():
    assert lens_cs_lower_bound(2, 3, 1) == Fraction(1, 5)
    assert lens_cs_lower_bound(3, 5, 1) == Fraction(1, 14)
    assert lens_cs_lower_bound(2, 3, 2) == Fraction(1, 11)


def test_param_validation():
    for fn in (tau_brieskorn_family, pontryagin_number, lens_cs_lower_bound):
        with pytest.raises(InvalidParams):
            fn(2, 4, 1)
        with pytest.raises(InvalidParams):
            fn(1, 3, 1)
        with pytest.raises(InvalidParams):
            fn(2, 3, 0)


def test_tau_and_pontryagin_are_the_same_formula():
    rng = random.Random(111)
    for _ in range(100):
        p, q = random_coprime_pair(rng)
        k = rng.randint(1, 9)
        assert tau_brieskorn_family(p, q, k).value == pontryagin_number(p, q, k)


def test_tau_range_and_lens_bound_dominates_pontryagin():
    rng = random.Random(222)
    for _ in range(200):
        p, q = random_coprime_pair(rng, hi=20)
        k = rng.randint(1, 20)
        tau = tau_brieskorn_family(p, q, k).value
        assert 0 < tau < 4
        assert pontryagin_number(p, q, k) < lens_cs_lower_bound(p, q, k)


def test_compactness_examples():
    assert compactness_check([(2, 3, 1)], (2, 5, 2))
    assert not compactness_check([(2, 5, 2)], (2, 3, 1))
    assert compactness_check([], (2, 3, 1))


def test_compactness_report_lists_every_comparison():
    report = compactness_check([(2, 3, 1), (2, 3, 2)], (2, 5, 2))
    assert report.ok
    assert len(report.checks) == 4  # bubbling, lens bound, two boundary taus
    labels = [c.label for c in report.checks]
    assert labels[0].startswith("p1 < 4")
    assert all(c.ok for c in report.checks)
    failing = compactness_check([(2, 5, 2)], (2, 3, 1))
    assert [c.ok for c in failing.checks] == [True, True, False]


def test_compactness_check_with_equal_sides_is_not_ok():
    check = CompactnessCheck("p1 < 4 (no bubbling)", Fraction(4), Fraction(4))
    assert not check.ok
    assert str(check) == "p1 < 4 (no bubbling): 4 !< 4"
    report = CompactnessReport((CompactnessCheck("a", Fraction(1), Fraction(2)), check))
    assert not report.ok and not report
    assert CompactnessReport(()).ok


def test_compactness_monotone_under_boundary_removal():
    rng = random.Random(333)
    for _ in range(50):
        terminal = (*random_coprime_pair(rng), rng.randint(1, 6))
        boundary = [
            (*random_coprime_pair(rng), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))
        ]
        if compactness_check(boundary, terminal):
            for i in range(len(boundary)):
                smaller = boundary[:i] + boundary[i + 1 :]
                assert compactness_check(smaller, terminal)


def test_count_reducibles():
    assert type(count_reducibles(H1Data(12, 2))) is int
    assert count_reducibles(H1Data(3, 0)) == 3
    assert count_reducibles(H1Data(1, 0)) == 1
    assert count_reducibles(H1Data(8, 2)) == 2


def test_h1data_rejects_odd_torsion_with_positive_beta():
    with pytest.raises(InvalidParams):
        H1Data(3, 1)
    with pytest.raises(InvalidParams):
        H1Data(0, 0)
    with pytest.raises(InvalidParams):
        H1Data(4, -1)


def test_parity_obstruction():
    assert parity_obstruction(H1Data(3, 0)) is True
    assert parity_obstruction(H1Data(4, 1)) is False  # count 2
    assert parity_obstruction(H1Data(1, 0)) is True
    assert parity_obstruction(H1Data(2, 1)) is True  # count 1


def test_h1data_rejects_torsion_that_2_to_the_beta_does_not_divide():
    for t, beta in ((2, 2), (12, 3)):
        with pytest.raises(InvalidParams):
            H1Data(t, beta)


def test_parity_odd_torsion_always_fires():
    rng = random.Random(444)
    for _ in range(50):
        t = 2 * rng.randint(0, 500) + 1
        assert parity_obstruction(H1Data(t, 0)) is True
