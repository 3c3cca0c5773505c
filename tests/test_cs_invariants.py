"""Closed-form Chern-Simons and Pontryagin quantities, compactness, parity."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotcert import (
    CompactnessCheck,
    CompactnessReport,
    Family,
    H1Data,
    InvalidParams,
    SatelliteParams,
    TauValue,
    certify_family,
    compactness_check,
    count_reducibles,
    doubled_growth,
    generate_family,
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


def test_tau_value_lies_in_zero_to_four():
    assert TauValue(Fraction(4)).value == 4
    for value, shown in [(Fraction(0), "0"), (Fraction(-1, 3), "-1/3"), (Fraction(41, 10), "41/10")]:
        with pytest.raises(InvalidParams, match=f"^tau must lie in \\(0, 4\\], got {shown}$"):
            TauValue(value)


def test_compactness_examples():
    assert compactness_check([(2, 3, 1)], (2, 5, 2))
    assert not compactness_check([(2, 5, 2)], (2, 3, 1))
    assert compactness_check([], (2, 3, 1))


def test_compactness_report_lists_every_comparison():
    report = compactness_check([(2, 3, 1), (2, 3, 2)], (2, 5, 2))
    assert report.ok
    assert len(report.checks) == 4  # bubbling, lens bound, two boundary taus
    labels = [c.label for c in report.checks]
    assert labels == [
        "p1 < 4 (no bubbling)", "p1 < lens bound(2,5,2)", "p1 < tau(2,3,1)", "p1 < tau(2,3,2)",
    ]
    assert all(c.ok for c in report.checks)
    failing = compactness_check([(2, 5, 2)], (2, 3, 1))
    assert [c.ok for c in failing.checks] == [True, True, False]


def test_compactness_report_builds_labels_past_the_print_limit():
    # An entry past the interpreter's 4,300-digit print limit shows as
    # errors._shown does; printable entries keep their digits.
    huge = 10**5000 + 1
    report = compactness_check([], (huge, 2, 1))
    assert report.ok
    assert report.checks[1].label == f"p1 < lens bound(<int of {huge.bit_length()} bits>,2,1)"
    report = compactness_check([(2, 3, 10**5000)], (2, 5, 2))
    assert not report.ok
    assert [c.ok for c in report.checks] == [True, True, False]
    assert report.checks[2].label == f"p1 < tau(2,3,<int of {(10**5000).bit_length()} bits>)"
    assert compactness_check([(2, 3, 1)], (2, 3, 10**5000)).ok


def test_compactness_report_prints_past_the_print_limit():
    # A side past the print limit shows its integers as errors._shown does.
    huge = 10**5000 + 1
    p1 = f"1/<int of {(2 * huge * (2 * huge - 1)).bit_length()} bits>"
    lens = f"1/<int of {(2 * huge - 1).bit_length()} bits>"
    assert str(compactness_check([], (huge, 2, 1))).splitlines() == [
        f"p1 < 4 (no bubbling): {p1} < 4",
        f"p1 < lens bound(<int of {huge.bit_length()} bits>,2,1): {p1} < {lens}",
        "compact",
    ]
    tau = f"1/<int of {(6 * (6 * 10**5000 - 1)).bit_length()} bits>"
    assert str(compactness_check([(2, 3, 10**5000)], (2, 3, 1))).splitlines() == [
        "p1 < 4 (no bubbling): 1/30 < 4",
        "p1 < lens bound(2,3,1): 1/30 < 1/5",
        f"p1 < tau(2,3,<int of {(10**5000).bit_length()} bits>): 1/30 !< {tau}",
        "not certified compact",
    ]


@given(st.fractions(), st.fractions())
def test_a_printable_check_reads_as_str_of_its_fractions(lhs, rhs):
    check = CompactnessCheck("c", lhs, rhs)
    assert str(check) == f"c: {lhs} {'<' if lhs < rhs else '!<'} {rhs}"


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


def coprime_pairs(limit):
    return [(p, q) for p in range(2, limit) for q in range(p + 1, limit + 1) if gcd(p, q) == 1]


def assert_head_checks(p, q, k):
    """Lemma L1 on one terminal: both head checks of compactness_check pass,
    and p1 is at most 1/30."""
    report = compactness_check([], (p, q, k))
    bubbling, lens = report.checks
    assert bubbling.ok and lens.ok, (p, q, k)
    assert bubbling.lhs <= Fraction(1, 30)


def test_head_checks_of_compactness_hold_on_a_box():
    # Lemma L1: for valid (p, q, k), p1 = 1/(p*q*(k*p*q - 1)) <= 1/30 < 4,
    # and p1 < min(1/p, 1/q, 1/(k*p*q - 1)).
    #
    # Proof sketch.  p, q >= 2 are coprime, so p*q >= 6 and k*p*q - 1 >= 5:
    # the denominator is at least 30.  It is p*q times k*p*q - 1, and each
    # factor exceeds 1, so it exceeds p, q and k*p*q - 1, each of which is
    # the denominator of one lens bound.  So the bubbling check and the lens
    # check of compactness_check cannot fail on valid input.
    for p, q in coprime_pairs(40):
        for k in range(1, 13):
            assert_head_checks(p, q, k)
    assert compactness_check([], (2, 3, 1)).checks[0].lhs == Fraction(1, 30)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**30), st.integers(2, 10**30), st.integers(1, 10**30))
def test_head_checks_of_compactness_always_hold(p, q, k):
    assume(p != q and gcd(p, q) == 1)
    assert_head_checks(p, q, k)


def chain_compactness(members):
    """compactness_check over a chain's ends: each member but the last
    contributes its doubled sphere (k = 2n), the last one is the terminal."""
    boundary = [(m.p, m.q, 2 * m.n) for m in members[:-1]]
    return compactness_check(boundary, (members[-1].p, members[-1].q, members[-1].n))


def chain_checks_imply_compactness(members) -> bool:
    """Lemma L2 on one chain; returns whether the chain passed its chain checks."""
    passed = certify_family(Family(tuple(members))).verdict.independent
    if passed:
        report = chain_compactness(members)
        assert report.ok, (members, str(report))
    return passed


def test_chain_checks_imply_compactness_on_a_box():
    # Lemma L2: if a chain passes its chain checks, the chain's
    # compactness_check report is ok.
    #
    # Proof sketch.  single(m) = p*q*(n*p*q - 1) < p*q*(2n*p*q - 1) =
    # doubled(m).  Passing chain checks give doubled(m_i) < single(m_{i+1}),
    # so doubled(m_1) < single(m_2) < doubled(m_2) < ... < single(m_L).  The
    # breaking check for the end of m_i compares p1 = 1/single(m_L) with
    # tau = 1/doubled(m_i), and doubled(m_i) < single(m_L) for every i < L;
    # the two head checks hold by lemma L1.
    #
    # Every chain of one to three members from the box below, passing or not.
    box = [SatelliteParams(n, p, q) for n in (2, 4) for p, q in coprime_pairs(7)]
    passing = 0
    for length in (1, 2, 3):
        for members in itertools.product(box, repeat=length):
            passing += chain_checks_imply_compactness(members)
    assert passing > len(box) + 100  # the lemma is not vacuous on the box


@st.composite
def passing_chains(draw):
    """A random chain that passes its chain checks: each member is a random
    coprime pair with the least even n past the bound, plus a random even
    offset."""
    members = []
    for _ in range(draw(st.integers(1, 6))):
        p = draw(st.integers(2, 10**6))
        q = draw(st.integers(2, 10**6).filter(lambda q: q != p and gcd(p, q) == 1))
        # The least n >= 1 with p*q*(n*p*q - 1) > bound, rounded up to even.
        bound = doubled_growth(members[-1]) if members else 0
        n = (bound // (p * q) + 1) // (p * q) + 1
        members.append(SatelliteParams(n + n % 2 + 2 * draw(st.integers(0, 3)), p, q))
    return members


@settings(max_examples=100, deadline=None)
@given(passing_chains())
def test_chain_checks_imply_compactness_on_random_chains(members):
    assert chain_checks_imply_compactness(members)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(coprime_pairs(12)),
    st.integers(1, 3),
    st.integers(1, 12),
    st.one_of(st.none(), st.sampled_from([2, 4, 6])),
)
def test_chain_checks_imply_compactness_on_generated_chains(pq, half_n, length, fix_n):
    family = generate_family(SatelliteParams(2 * half_n, *pq), length, fix_n=fix_n)
    assert chain_checks_imply_compactness(family.members)
