"""Certified integrality of the instanton index cotangent sum."""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

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
from knotcert.fs_invariant import _cotangent_sum, _pi, _seed
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
            assert round(base) == round(other)


def test_r_rounded_value_stable_under_precision_doubling():
    rng = random.Random(808)
    for _ in range(50):
        a1, a2, a3 = random_coprime_triple(rng, hi=50)
        lo = _cotangent_sum(a1, a2, a3, 128)
        hi = _cotangent_sum(a1, a2, a3, 256)
        assert round(lo) == round(hi) == r_exact(BrieskornSphere(a1, a2, a3))


def test_precision_escalates_until_tolerance_met():
    # A tolerance far below 128-bit resolution forces doubling.
    rv = r_invariant(BrieskornSphere(2, 3, 7), tolerance=1e-45)
    assert rv.precision_bits > 128
    assert rv.residual <= 1e-45


def test_integrality_failure_when_the_sum_misses_its_bound(monkeypatch):
    # The kernel lies within 2^-(bits + 2) of R, so a sum 2^-100 off
    # R(2,3,7) = -1 stands for a broken kernel.  It rounds to R, and r_invariant
    # still refuses it, at the start rule's 256 bits.
    def off_by_2_to_the_minus_100(a1, a2, a3, bits):
        return Fraction(-1) + Fraction(1, 2**100)

    monkeypatch.setattr(fs_invariant, "_cotangent_sum", off_by_2_to_the_minus_100)
    with pytest.raises(IntegralityFailure) as exc:
        r_invariant(BrieskornSphere(2, 3, 7), tolerance=1e-45)
    assert str(exc.value) == (
        "R(2,3,7) rounds to -1 at 256 bits, but is 7.89e-31 from its exact value (r_exact) -1, "
        "past the bound 2^-258"
    )


def test_r_exact_is_one_on_the_surgery_family():
    # Lemma L3: R(p, q, k*p*q - 1) = 1 and R(p, q, k*p*q + 1) = -1.
    #
    # Proof sketch, from r_exact's identity R = 2/a + sum_i (a_i - 2*r_i)/a_i
    # with r_i = (a/a_i)^-1 mod a_i.  Let u = q^-1 mod p and v = p^-1 mod q,
    # in 1..p-1 and 1..q-1.  Then u*q + v*p is 1 mod p*q and lies in
    # [p + q, 2*p*q), so u*q + v*p = p*q + 1.
    # - Sigma(p, q, k*p*q - 1), a = p*q*(k*p*q - 1): a/p = -q mod p, a/q = -p
    #   mod q, and p*q * k = 1 mod k*p*q - 1, so r = (p - u, q - v, k) and
    #   R = 2/a + 3 - 2 + 2u/p - 2 + 2v/q - 2k/(k*p*q - 1)
    #     = 2/a + 1 + 2/(p*q) - 2k/(k*p*q - 1) = 2/a + 1 - 2/a = 1.
    # - Sigma(p, q, k*p*q + 1): a/p = q mod p, a/q = p mod q, and
    #   p*q * k = -1 mod k*p*q + 1, so r = (u, v, k*p*q + 1 - k) and
    #   R = 2/a + 3 - 2(p*q + 1)/(p*q) - 2 + 2k/(k*p*q + 1)
    #     = 2/a - 1 - 2/(p*q) + 2k/(k*p*q + 1) = 2/a - 1 - 2/a = -1.
    rng = random.Random(909)
    for _ in range(200):
        p, q = sorted(random_coprime_triple(rng, hi=40)[:2])
        k = rng.choice((1, 2, 3, rng.randint(1, 10**6), rng.randint(1, 10**40)))
        assert r_exact(BrieskornSphere(p, q, k * p * q - 1)) == 1
        assert r_exact(BrieskornSphere(p, q, k * p * q + 1)) == -1


def test_r_exact_on_both_ends_of_the_surgery_family_in_a_box():
    # Every coprime 2 <= p < q with p < 40, q < 60, and 1 <= k <= 11.
    for p in range(2, 40):
        for q in range(p + 1, 60):
            if math.gcd(p, q) != 1:
                continue
            for k in range(1, 12):
                assert r_exact(BrieskornSphere(p, q, k * p * q - 1)) == 1, (p, q, k)
                assert r_exact(BrieskornSphere(p, q, k * p * q + 1)) == -1, (p, q, k)


@st.composite
def coprime_triples(draw):
    first = draw(st.integers(2, 10**6))
    second = draw(st.integers(2, 10**9).filter(lambda m: math.gcd(m, first) == 1))
    third = draw(st.integers(2, 10**30).filter(lambda m: math.gcd(m, first * second) == 1))
    return first, second, third


@settings(max_examples=300, deadline=None)
@given(coprime_triples())
def test_r_exact_is_odd_and_below_three_in_absolute_value(triple):
    # Lemma L4: R is 1 or -1.  So R is an integer (lemma I, which makes
    # r_exact's division exact), and every certified numeric prints as ±1.0.
    #
    # Proof sketch.  Let a = a1*a2*a3, b_i = a/a_i and r_i = b_i^-1 mod a_i,
    # so 1 <= r_i < a_i.  Neumann-Zagier's R = 2/a + sum_i (a_i - 2*r_i)/a_i
    # reads R = 3 - 2*(S - 1)/a with S = sum_i r_i*b_i, since a_i*b_i = a.
    # - S = 1 mod a: modulo a_i, r_i*b_i = 1 and every other b_j = 0, so
    #   S = 1 mod each a_i, hence mod their product a (they are coprime).
    # - Bounds: sum_i b_i <= S <= 3a - sum_i b_i, from 1 <= r_i <= a_i - 1.
    #   So 1 < S < 3a, as sum_i b_i > 1.
    # - So S is a + 1 or 2a + 1, and R = 3 - 2 = 1 or R = 3 - 4 = -1.
    # Sigma(2,3,5) has S = 31 = a + 1, R = 1; Sigma(2,3,7) has S = 85 =
    # 2a + 1, R = -1.  test_r_exact_follows_the_s_form_on_a_box states the
    # S form on a box and as a property.
    assert r_exact(BrieskornSphere(*triple)) in (1, -1)


def neumann_zagier_s(a1, a2, a3):
    """S = sum_i r_i*b_i of lemma L4, with b_i = a/a_i and r_i = b_i^-1 mod a_i."""
    a = a1 * a2 * a3
    return a, sum(pow(a // ai, -1, ai) * (a // ai) for ai in (a1, a2, a3))


def test_r_exact_follows_the_s_form_on_a_box():
    # Lemma L4 on a box: every pairwise-coprime 2 <= a1 < a2 < a3 <= 60.
    count = 0
    for a1, a2, a3 in itertools.combinations(range(2, 61), 3):
        if math.gcd(a1, a2) != 1 or math.gcd(a1 * a2, a3) != 1:
            continue
        a, s = neumann_zagier_s(a1, a2, a3)
        assert s in (a + 1, 2 * a + 1), (a1, a2, a3)
        assert r_exact(BrieskornSphere(a1, a2, a3)) == (1 if s == a + 1 else -1), (a1, a2, a3)
        count += 1
    assert count == 9245
    assert neumann_zagier_s(2, 3, 5) == (30, 31)
    assert neumann_zagier_s(2, 3, 7) == (42, 85)


@settings(max_examples=300, deadline=None)
@given(coprime_triples())
def test_r_exact_follows_the_s_form(triple):
    a, s = neumann_zagier_s(*triple)
    assert s in (a + 1, 2 * a + 1)
    assert r_exact(BrieskornSphere(*triple)) == (1 if s == a + 1 else -1)


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
        ({"tolerance": "1e-6"}, "tolerance must lie in (0, 1/2), got '1e-6'"),
        ({"tolerance": None}, "tolerance must lie in (0, 1/2), got None"),
        ({"tolerance": Fraction(1, 2)}, "tolerance must lie in (0, 1/2), got Fraction(1, 2)"),
        ({"tolerance": Decimal("NaN")}, "tolerance must lie in (0, 1/2), got Decimal('NaN')"),
    ],
    ids=[
        "tolerance-0.7", "tolerance-nan", "tolerance-0", "tolerance-0.5", "tolerance-negative",
        "tolerance-inf", "tolerance-str", "tolerance-none", "tolerance-fraction-half",
        "tolerance-decimal-nan",
    ],
)
def test_r_invariant_validates_precision_and_tolerance(kwargs, message):
    with pytest.raises(InvalidParams) as exc:
        r_invariant(BrieskornSphere(2, 3, 7), **kwargs)
    assert str(exc.value) == message


def test_r_invariant_takes_fraction_and_decimal_tolerances():
    s = BrieskornSphere(2, 3, 5)
    for tolerance in (Fraction(1, 10**7), Decimal("1e-7")):
        assert r_invariant(s, tolerance=tolerance) == r_invariant(s, tolerance=1e-7)
    assert r_invariant(s, tolerance=Fraction(1, 10**45)).precision_bits == 256


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


def as_fraction(x: mpmath.mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def assert_within_error_bound(triple, bits, reference=True):
    """The kernel is within 66*M*(1 + ln M) units of 2^-f of R, M = max a_i,
    the bound its docstring proves, and so within 2^-(bits + 2) of R; and
    within 2*sum(a_i) ulps (2^-bits) of the reference.  f is the kernel's
    working precision, bits plus a guard of 2*M.bit_length() + 11."""
    value = _cotangent_sum(*triple, bits)
    assert isinstance(value, Fraction)
    error = abs(value - r_exact(BrieskornSphere(*triple)))
    assert error < Fraction(1, 2 ** (bits + 2))
    m = max(triple)
    f = bits + 2 * m.bit_length() + 11
    assert error * 2**f <= 66 * m * (1 + math.log(m)), (triple, bits, float(error * 2**f / m))
    if reference:
        oracle = as_fraction(cotangent_sum_reference(*triple, bits))
        assert abs(value - oracle) <= Fraction(2 * sum(triple), 2**bits)


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


def test_cotangent_sum_is_within_its_bound_on_random_triples():
    rng = random.Random(2222)
    for bits in (128, 512):
        for _ in range(300):
            assert_within_error_bound(random_coprime_triple(rng, hi=300), bits, reference=False)


def test_cotangent_sum_makes_at_most_one_trig_call_per_multiplicity(monkeypatch):
    # One pi per kernel call, and one seed (cos and sin of pi/m) per
    # multiplicity m >= 3.
    calls = []

    def counted(name):
        original = getattr(fs_invariant, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("_pi", "_seed"):
        monkeypatch.setattr(fs_invariant, name, counted(name))
    _cotangent_sum(2, 3, 1001, 128)
    assert calls == ["_pi", "_seed", "_seed"]
    calls.clear()
    _cotangent_sum(5, 7, 1001, 256)
    assert calls == ["_pi", "_seed", "_seed", "_seed"]


def test_machin_pi_is_rounded_to_nearest():
    # _pi(prec) is within 9/16 units of pi * 2^prec.
    for prec in [*range(1, 200), *range(200, 12000, 61)]:
        with mpmath.workprec(prec + 64):
            error = abs(_pi(prec) - mpmath.pi * mpmath.mpf(2) ** prec)
        assert error <= mpmath.mpf(9) / 16, prec


@pytest.mark.parametrize("f", [20, 64, 160, 700, 2200, 4200])
def test_seed_is_within_two_units(f):
    # cos(pi/m) and sin(pi/m) in units of 2^-f, each within 2 units; m = 3
    # runs the longest series.
    pi = _pi(f + 10)
    for m in [*range(3, 80), 1000, 1024, 99997, 10**9]:
        cos_t, sin_t = _seed(m, pi, f)
        with mpmath.workprec(f + 64):
            scale = mpmath.mpf(2) ** f
            assert abs(cos_t - mpmath.cos(mpmath.pi / m) * scale) < 2, m
            assert abs(sin_t - mpmath.sin(mpmath.pi / m) * scale) < 2, m


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
    whose 2^-bits is at most the tolerance."""
    bits = max(128, 50 + math.ceil(10 * math.log10(math.prod(triple))))
    while math.ldexp(1.0, -bits) > tolerance:
        bits *= 2
    return bits


def test_the_tightest_tolerance_needs_no_cap(attempts):
    # 2^-2048 underflows to 0.0, so the doubling stops there even for the
    # smallest positive float, and for a Fraction far below it.
    s = BrieskornSphere(2, 3, 7)
    for tolerance in (5e-324, Fraction(1, 10**1000), Fraction(1, 10**5000)):
        attempts.clear()
        assert r_invariant(s, tolerance=tolerance).precision_bits == 2048
        assert attempts == [2048]


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
            assert rv.numeric == rv.rounded and rv.residual == 0, (triple, tolerance)
