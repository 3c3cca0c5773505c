"""Certified integrality of the instanton index cotangent sum."""

import random

import mpmath
import pytest

from knotcert import (
    BrieskornSphere,
    IntegralityFailure,
    InvalidParams,
    r_invariant,
)
from knotcert import fs_invariant
from knotcert.fs_invariant import _cotangent_sum
from oracles import r_oracle, random_coprime_triple


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
    with pytest.raises(InvalidParams):
        r_invariant(BrieskornSphere(2, 3, 5, orientation=-1))


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
        s = BrieskornSphere(a1, a2, a3)
        lo = r_invariant(s, precision_bits=128)
        hi = r_invariant(s, precision_bits=256)
        assert lo.rounded == hi.rounded


def test_precision_escalates_until_tolerance_met():
    # A tolerance far below 128-bit resolution forces doubling.
    rv = r_invariant(BrieskornSphere(2, 3, 7), precision_bits=128, tolerance=1e-45)
    assert rv.precision_bits > 128
    assert rv.residual <= 1e-45


def test_integrality_failure_when_precision_capped(monkeypatch):
    monkeypatch.setattr(fs_invariant, "MAX_PRECISION_BITS", 128)
    with pytest.raises(IntegralityFailure):
        r_invariant(BrieskornSphere(2, 3, 7), precision_bits=128, tolerance=1e-45)
