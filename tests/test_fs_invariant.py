"""Certified integrality of the instanton index cotangent sum."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotcert import (
    BrieskornSphere,
    IntegralityFailure,
    InvalidParams,
    r_exact,
    r_invariant,
)
from knotcert import fs_invariant
from knotcert.fs_invariant import _cotangent_sum
from oracles import cotangent_sum_reference, r_oracle, random_coprime_triple


def test_sphere_stores_sorted_multiset():
    s = BrieskornSphere(11, 2, 3)
    assert s.multiplicities == (2, 3, 11)
    assert BrieskornSphere(2, 3, 11) == s


def test_sphere_rejects_bad_multiplicities():
    with pytest.raises(InvalidParams):
        BrieskornSphere(2, 4, 5)  # gcd(2, 4) = 2
    with pytest.raises(InvalidParams):
        BrieskornSphere(1, 2, 3)
    with pytest.raises(InvalidParams):
        BrieskornSphere(2, 3, 5, orientation=0)


def test_sphere_reversal_is_involutive():
    s = BrieskornSphere(2, 3, 5)
    assert s.reversed().orientation == -1
    assert s.reversed().reversed() == s


def test_r_on_surgery_family_members():
    # closed form: R(p, q, k*p*q - 1) = 1
    assert r_invariant(BrieskornSphere(2, 3, 5)).rounded == 1
    assert r_invariant(BrieskornSphere(2, 3, 11)).rounded == 1


def test_r_full_value_against_independent_oracle():
    # Frozen before the build from the 256-bit oracle: R(2,3,7) = -1.
    value, rounded, residual = r_oracle(2, 3, 7)
    assert rounded == -1 and residual < 1e-60
    rv = r_invariant(BrieskornSphere(2, 3, 7))
    assert rv.rounded == -1
    assert rv.residual < 1e-6


def test_rvalue_invariant_residual_matches():
    rv = r_invariant(BrieskornSphere(3, 5, 29))
    assert abs(rv.numeric - rv.rounded) == rv.residual
    assert rv.residual <= 1e-6


def test_r_requires_positive_orientation():
    for evaluate in (r_invariant, r_exact):
        with pytest.raises(InvalidParams):
            evaluate(BrieskornSphere(2, 3, 5, orientation=-1))


def test_r_matches_oracle_on_random_triples():
    rng = random.Random(606)
    for _ in range(10):
        a1, a2, a3 = random_coprime_triple(rng, hi=30)
        _, oracle_rounded, _ = r_oracle(a1, a2, a3)
        assert r_invariant(BrieskornSphere(a1, a2, a3)).rounded == oracle_rounded


def test_r_symmetric_under_permutation_of_multiplicities():
    rng = random.Random(707)
    for _ in range(20):
        a1, a2, a3 = random_coprime_triple(rng, hi=25)
        base = _cotangent_sum(a1, a2, a3, 128)
        for perm in [(a2, a1, a3), (a3, a2, a1), (a2, a3, a1)]:
            other = _cotangent_sum(*perm, 128)
            assert abs(base - other) < 1e-9
            assert int(mpmath.nint(base)) == int(mpmath.nint(other))


def test_r_rounded_value_stable_under_precision_doubling():
    rng = random.Random(808)
    for _ in range(50):
        a1, a2, a3 = random_coprime_triple(rng, hi=50)
        lo = _cotangent_sum(a1, a2, a3, 128)
        hi = _cotangent_sum(a1, a2, a3, 256)
        assert int(mpmath.nint(lo)) == int(mpmath.nint(hi)) == r_exact(BrieskornSphere(a1, a2, a3))


def test_precision_escalates_until_tolerance_met():
    # A tolerance far below 128-bit resolution forces doubling.
    rv = r_invariant(BrieskornSphere(2, 3, 7), tolerance=1e-45)
    assert rv.precision_bits > 128
    assert rv.residual <= 1e-45


def test_integrality_failure_when_precision_capped(monkeypatch):
    # The kernel lands on R itself, so a sum 2^-100 off R(2,3,7) = -1 stands
    # in for one whose error no precision below the cap can clear.
    def off_by_2_to_the_minus_100(a1, a2, a3, bits):
        with mpmath.workprec(bits):
            return mpmath.mpf(-1) + mpmath.ldexp(1, -100)

    monkeypatch.setattr(fs_invariant, "MAX_PRECISION_BITS", 128)
    monkeypatch.setattr(fs_invariant, "_cotangent_sum", off_by_2_to_the_minus_100)
    with pytest.raises(IntegralityFailure, match="exceeds tolerance 1e-45 at 128 bits"):
        r_invariant(BrieskornSphere(2, 3, 7), tolerance=1e-45)


def test_r_exact_is_one_on_the_surgery_family():
    rng = random.Random(909)
    for _ in range(200):
        p, q = sorted(random_coprime_triple(rng, hi=40)[:2])
        k = rng.choice((1, 2, 3, rng.randint(1, 10**6), rng.randint(1, 10**40)))
        assert r_exact(BrieskornSphere(p, q, k * p * q - 1)) == 1


def test_r_exact_matches_oracle_on_random_triples():
    rng = random.Random(1010)
    for _ in range(100):
        a1, a2, a3 = random_coprime_triple(rng, hi=60)
        _, oracle_rounded, _ = r_oracle(a1, a2, a3)
        assert r_exact(BrieskornSphere(a1, a2, a3)) == oracle_rounded


def test_r_invariant_rejects_a_sum_that_disagrees_with_r_exact(monkeypatch):
    monkeypatch.setattr(fs_invariant, "r_exact", lambda s: 0)
    with pytest.raises(IntegralityFailure, match=r"R\(2,3,7\) rounds to -1 at 128 bits"):
        r_invariant(BrieskornSphere(2, 3, 7))


def test_term_budget_is_checked_before_any_sum(monkeypatch):
    def no_sum(*args):
        raise AssertionError("the cotangent sum ran")

    s = BrieskornSphere(2, 3, 7)  # 1 + 2 + 6 = 9 terms
    monkeypatch.setattr(fs_invariant, "MAX_COTANGENT_TERMS", 8)
    monkeypatch.setattr(fs_invariant, "_cotangent_sum", no_sum)
    with pytest.raises(InvalidParams) as exc:
        r_invariant(s)
    assert str(exc.value) == (
        "R(2,3,7) needs 9 cotangent terms, more than the budget of 8; its exact value (r_exact) is -1"
    )
    monkeypatch.undo()
    monkeypatch.setattr(fs_invariant, "MAX_COTANGENT_TERMS", 9)
    assert r_invariant(s).rounded == -1


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tolerance": 0.7}, "tolerance must lie in (0, 1/2), got 0.7"),
        ({"tolerance": math.nan}, "tolerance must lie in (0, 1/2), got nan"),
        ({"tolerance": 0.0}, "tolerance must lie in (0, 1/2), got 0.0"),
        ({"tolerance": 0.5}, "tolerance must lie in (0, 1/2), got 0.5"),
        ({"tolerance": -1e-9}, "tolerance must lie in (0, 1/2), got -1e-09"),
        ({"tolerance": math.inf}, "tolerance must lie in (0, 1/2), got inf"),
    ],
    ids=[
        "tolerance-0.7", "tolerance-nan", "tolerance-0", "tolerance-0.5", "tolerance-negative",
        "tolerance-inf",
    ],
)
def test_r_invariant_validates_precision_and_tolerance(kwargs, message):
    with pytest.raises(InvalidParams) as exc:
        r_invariant(BrieskornSphere(2, 3, 7), **kwargs)
    assert str(exc.value) == message


def test_r_invariant_takes_no_precision():
    # The working precision follows from the tolerance.
    with pytest.raises(TypeError):
        r_invariant(BrieskornSphere(2, 3, 7), precision_bits=256)


# Composite multiplicities make gcd(k, a_i) > 1 for some k, where the reference
# evaluates the outer angle in lowest terms and the kernel reads its table; an
# even one also has the middle term k = a_i/2, which the half-range sum drops.
COMPOSITES = (4, 8, 9, 16, 25, 27, 32, 49, 6, 10, 15, 21, 35, 55)


@st.composite
def coprime_triples_with_a_composite(draw):
    first = draw(st.sampled_from(COMPOSITES))
    others = st.integers(2, 60).filter(lambda m: math.gcd(m, first) == 1)
    second = draw(others)
    third = draw(others.filter(lambda m: math.gcd(m, second) == 1))
    return draw(st.permutations((first, second, third)))


def assert_within_error_bound(triple, bits, reference=True):
    """The kernel is within sum(a_i) ulps of R, and twice that of the reference."""
    value = _cotangent_sum(*triple, bits)
    exact = r_exact(BrieskornSphere(*triple))
    with mpmath.workprec(bits + 64):  # both differences are exact
        ulp = mpmath.ldexp(1, -bits)
        assert abs(value - exact) <= sum(triple) * ulp
        if reference:
            assert abs(value - cotangent_sum_reference(*triple, bits)) <= 2 * sum(triple) * ulp


@settings(max_examples=60, deadline=None)
@given(coprime_triples_with_a_composite(), st.sampled_from((53, 128, 256, 700, 4096)))
def test_cotangent_sum_is_within_its_error_bound(triple, bits):
    assert_within_error_bound(triple, bits)


# Multiplicities far past the hypothesis draw, towards the sizes r_spectrum
# runs: 1024 is a power of two, 1000 = 2^3 * 5^3 and 96 = 2^5 * 3 mix factors.
# The last two are the largest sums the term budget admits, where the rotation
# takes the most steps; there only r_exact is compared, as the reference
# would take seconds.
@pytest.mark.parametrize(
    "triple, bits, reference",
    [
        ((3, 5, 1024), 128, True), ((3, 7, 1000), 128, True), ((3, 11, 1000), 128, True),
        ((5, 7, 96), 256, True), ((2, 3, 99997), 128, False), ((3, 5, 99992), 128, False),
    ],
    ids=["3-5-1024", "3-7-1000", "3-11-1000", "5-7-96", "2-3-99997", "3-5-99992"],
)
def test_cotangent_sum_is_within_its_error_bound_on_large_triples(triple, bits, reference):
    assert_within_error_bound(triple, bits, reference)


def test_cotangent_sum_makes_at_most_one_trig_call_per_multiplicity(monkeypatch):
    calls = []
    trig = mpmath.libmp.mpf_cos_sin

    def counted(*args):
        calls.append(args)
        return trig(*args)

    monkeypatch.setattr(mpmath.libmp, "mpf_cos_sin", counted)
    _cotangent_sum(2, 3, 1001, 128)
    assert len(calls) <= 3


@pytest.fixture
def attempts(monkeypatch):
    """The working precision of each kernel call, in order."""
    attempts = []
    kernel = fs_invariant._cotangent_sum

    def recorded(a1, a2, a3, bits):
        attempts.append(bits)
        return kernel(a1, a2, a3, bits)

    monkeypatch.setattr(fs_invariant, "_cotangent_sum", recorded)
    return attempts


def test_precision_starts_where_the_tolerance_can_be_met(attempts):
    s = BrieskornSphere(2, 3, 1001)
    # 2^-128 is about 2.9e-39: a 128-bit pass cannot certify 1e-40.
    assert r_invariant(s, tolerance=1e-40).precision_bits == 256
    assert attempts == [256]
    attempts.clear()
    assert r_invariant(s).precision_bits == 128
    assert attempts == [128]


def start_bits(triple, tolerance):
    """r_invariant's start rule: the first doubling of max(128, floor_bits)
    whose 2^-bits is at most the tolerance, capped at 4096."""
    bits = max(128, 50 + math.ceil(10 * math.log10(math.prod(triple))))
    while math.ldexp(1.0, -bits) > tolerance:
        bits *= 2
    return min(bits, 4096)


def test_precision_bits_follow_the_start_rule_alone(attempts):
    # The sum lands on R, so every call clears on its first pass and
    # precision_bits does not depend on where the sum's last bits fall.
    rng = random.Random(2020)
    triples = [random_coprime_triple(rng, hi=400) for _ in range(24)]
    for p, q in ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (5, 7), (7, 11)):
        k = rng.randint(1, 4000 // (p * q))
        triples += [(p, q, k * p * q - 1), (p, q, k * p * q + 1)]
    for triple in triples:
        s = BrieskornSphere(*triple)
        for tolerance in (1e-6, 1e-20, 1e-38, 1e-40, 1e-60, 1e-80):
            attempts.clear()
            rv = r_invariant(s, tolerance)
            bits = start_bits(triple, tolerance)
            assert (rv.precision_bits, attempts) == (bits, [bits]), (triple, tolerance)
            assert rv.residual <= mpmath.ldexp(1, -bits - 1)
            if rv.rounded:
                assert rv.residual == 0, (triple, tolerance)
