"""The integer-valued instanton index invariant R of Brieskorn homology spheres.

For pairwise-coprime multiplicities (a1, a2, a3) the invariant is the
Fintushel-Stern cotangent sum

    R(a1, a2, a3) = 2/(a1*a2*a3)
                    + sum_i (2/a_i) * sum_{k=1}^{a_i - 1}
                          cot(pi*a*k/a_i^2) * cot(pi*k/a_i) * sin^2(pi*k/a_i)

with a = a1*a2*a3.  Since cot(t)*sin^2(t) = sin(2t)/2, the terms at k and
a_i - k are equal, and the term at k = a_i/2 is 0, the same sum over half
the range is, with b_i = a/a_i,

    R = 2/a + sum_i (2/a_i) * sum_{k=1}^{floor((a_i - 1)/2)}
                  cot(pi*(b_i*k mod a_i)/a_i) * sin(2*pi*k/a_i).

It is evaluated in fixed-point integers at the working precision plus guard
bits: per multiplicity, integer series for cos and sin of pi/a_i seed a
rotation through the angles pi*j/a_i, which fills a table of cot(pi*j/a_i)
for the outer factor and one of sin(2*pi*j/a_i) for the inner one.  The
outer index is reduced modulo a_i exactly, so huge multiplicities do not
leak precision, and the terms are summed exactly.

The same value has a closed form in integers (Neumann-Zagier, "A note on an
invariant of Fintushel and Stern", 1985):

    R(a1, a2, a3) = 2/a + sum_i (a_i - 2*r_i)/a_i,   r_i = (a/a_i)^-1 mod a_i.

r_exact evaluates it in O(log a); r_invariant runs the sum once, certifies
it against r_exact, and refuses more than MAX_COTANGENT_TERMS terms over
the full range, sum(a_i - 1).  Spheres are cs_invariants.BrieskornSphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cs_invariants import BrieskornSphere
from .errors import IntegralityFailure, InvalidParams, _shown

DEFAULT_PRECISION_BITS = 128
DEFAULT_TOLERANCE = 1e-6
# r_invariant's sum has sum(a_i - 1) terms, evaluated in pairs at about 0.5 us
# per term at 128 bits on a 2-core Xeon (Python 3.11), so the largest admitted
# sums take about 50 ms (Sigma(2,3,99997) and Sigma(3,5,99992)); larger ones
# fail with InvalidParams (exit 1) instead of running for minutes.
MAX_COTANGENT_TERMS = 100_000


@dataclass(frozen=True)
class RValue:
    """A certified evaluation of R: numeric value, nearest integer, residual."""

    numeric: Fraction
    rounded: int
    residual: Fraction
    precision_bits: int


def _pi(prec: int) -> int:
    """pi * 2^prec rounded to nearest, by Machin's formula 16*atan(1/5) - 4*atan(1/239).

    Both series run at p = prec + 20 bits with every term truncated once, so
    pi is within 4*p + 40 units of 2^-p, under 2^-4 units of 2^-prec while
    prec < 16,000: the result is within 9/16 units of pi * 2^prec.
    """
    p = prec + 20
    total = 0
    for x, weight in ((5, 16), (239, -4)):
        power, n = (1 << p) // x, 1  # power = floor(2^p / x^n)
        while power:
            total += weight * (power // n) if n % 4 == 1 else -weight * (power // n)
            power //= x * x
            n += 2
    return (total + (1 << 19)) >> 20


def _seed(m: int, pi: int, f: int) -> tuple[int, int]:
    """cos(pi/m) and sin(pi/m) in units of 2^-f, each within 2 units, for m >= 3,
    given pi = _pi(f + 10).

    With d = max(0, isqrt(f) // 2 + 2 - m.bit_length()) and g = f + 10 + d,
    the integer pi // m stands for x = pi/(m * 2^d) in units of 2^-g.  One
    Taylor series gives cos x and sin x at g bits, d doublings
    (c, s) <- ((c + s)*(c - s), 2*c*s) turn them into cos and sin of pi/m,
    and the 10 + d guard bits are dropped.  Halving the angle shortens the
    series by more than the doublings cost once log2(m) falls below about
    isqrt(f)/2, and d is 0 past that: at f = 2,065 the seed of m = 7 takes
    21 doublings, and at 128 bits (f < 196) every m >= 128 takes none.

    Error, in units of 2^-g: pi // m is within 1.2 units of x (see _pi).
    Each Taylor term is truncated once, so with x < 1.05 its error stays
    below 1.6 units and the omitted tail below 2.6: a series of N terms
    gives cos x and sin x each within 0.8*N + 4.6 units, so the pair is
    within 1.2*N + 6.6 units in norm.  A doubling maps (c, s) by twice a
    rotation to first order, so it doubles the pair's error; the square of
    that error and the two truncations add under 2 units while f >= 16.  So
    d doublings end within 2^d * (1.2*N + 8.6) units of 2^-g, that is
    1.2*N + 8.6 units of 2^-(f + 10), from cos and sin of 2^d times
    (pi // m) * 2^-g, which is within 1.2 units of 2^-(f + 10) of pi/m.
    N < 200 for f <= 11,000 (r_invariant stays below 2,150 bits), so the
    pair is within 0.3 * 2^-f of (cos pi/m, sin pi/m), and dropping the
    guard bits adds under one unit of 2^-f.
    """
    d = max(0, math.isqrt(f) // 2 + 2 - m.bit_length())
    g = f + 10 + d
    t = pi // m
    sums = [0, 0, 0, 0]  # the terms t^n/n! with n = 0, 1, 2, 3 mod 4
    term, n = 1 << g, 0
    while term:
        sums[n % 4] += term
        n += 1
        term = (term * t >> g) // n
    c, s = sums[0] - sums[2], sums[1] - sums[3]
    for _ in range(d):
        c, s = (c + s) * (c - s) >> g, c * s >> g - 1
    return c >> 10 + d, s >> 10 + d


def _cotangent_sum(a1: int, a2: int, a3: int, bits: int) -> Fraction:
    """The index sum, exactly as summed in fixed point, within 2^-(bits + 2) of R.

    Exposed for tests; callers normally want r_invariant, which certifies it.
    The sum runs over half its range (see the module docstring) in fixed
    point: an integer x stands for x * 2^-f, with f = bits + guard.

    For each multiplicity m = a_i with h = (m - 1) // 2 > 0 and t = pi/m,
    _seed gives (cos_t, sin_t) from pi = _pi(f + 10), computed once per call;
    the rotation (c, s) <- ((c*cos_t - s*sin_t) >> f, (s*cos_t + c*sin_t) >> f)
    steps through (cos j*t, sin j*t) for j <= h (its two sums are formed
    exactly from three products, cos_t*(c + s) - s*(cos_t + sin_t) and
    cos_t*(c + s) + c*(sin_t - cos_t)), and two tables hold
    cot(j*t) = (c << f) // s and sin(2*j*t) = 2*c*s, as c*s >> f - 1.  The
    outer index j = b*k mod m, b = a/m, steps by b mod m and is reduced in
    integers (cot is pi-periodic).  b is a unit mod m, so for 0 < k < m/2, j
    is neither 0 nor m/2 (an even m makes b odd, and b*m/2 = m/2 mod m);
    past the half, cot(j*t) is -cot((m - j)*t).  The inner factor
    sin(2*k*t) is entry k of the second table, so a term costs one product.
    The two tables hold 2*h integers of about f bits, twice what the cot
    table alone held: at the term budget the sum peaks near 6 MB at 128 bits
    and near 31 MB at 2,048 bits (tracemalloc, Sigma(2,3,99997)).

    The guard is 2*L + 11 bits, L = max(a_i).bit_length().  In units of
    u = 2^-f: (cos_t, sin_t) is within 2u of (cos t, sin t) (see _seed).
    Each rotation step then adds at most 5u to the error of (c, s), and step
    j is within 5*j*u.  Since sin(j*t) >= 2*j/m for j <= h, entry j of the
    cot table is within 5*m^2/j * u of cot(j*t).  2*c*s moves by at most
    2*(|dc| + |ds| + |dc*ds|) when c and s move by dc and ds, and the shift
    truncates by under u, so entry k of the sine table is within
    (20*k + 1)*u + 50*k^2*u^2 < 10*m*u of sin(2*k*t), as 2*k < m.  With
    |cot(j*t)| <= m/(2*j) and |sin(2*k*t)| <= 1, the term at k is within
    (5 + 5 + 1)*m^2/j * u, the 1 bounding the product of the two errors, and
    since k -> j permutes 1..h, the sum over k is within 11*m^2*(1 + ln m) * u.
    Times 2/m, and over three multiplicities, the error is at most
    66*M*(1 + ln M) * u < 2^(2*L + 9) * u, M = max a_i, which the guard makes
    less than 2^-(bits + 2).  Measured errors are at most about 1.2*M * u,
    hundreds of times below this bound.
    """
    a = a1 * a2 * a3
    f = bits + 2 * max(a1, a2, a3).bit_length() + 11
    pi = _pi(f + 10)
    numerator = 2 << 2 * f  # a * R, in units of 2^-2f
    for ai in (a1, a2, a3):
        b = a // ai
        half = (ai - 1) // 2
        if not half:
            continue
        cos_t, sin_t = _seed(ai, pi, f)
        plus, minus = cos_t + sin_t, sin_t - cos_t
        c, s = cos_t, sin_t
        cots = [0] * (half + 1)  # index 0 is never read
        sines = [0] * (half + 1)
        for j in range(1, half + 1):
            cots[j] = (c << f) // s
            sines[j] = c * s >> f - 1
            shared = cos_t * (c + s)
            c, s = (shared - s * plus) >> f, (shared + c * minus) >> f
        inner = 0
        step, j = b % ai, 0
        for k in range(1, half + 1):
            j += step
            if j >= ai:
                j -= ai
            if j <= half:
                inner += cots[j] * sines[k]
            else:
                inner -= cots[ai - j] * sines[k]
        numerator += 2 * b * inner
    return Fraction(numerator, a << 2 * f)


def _validate_tolerance(tolerance) -> None:
    """The rule for an integrality tolerance: a real number in (0, 1/2).

    1/2 or more would certify any value, as no residual exceeds 1/2.  Reals
    that compare with floats pass (float, int, Fraction, Decimal).
    """
    try:
        valid = 0 < tolerance < 0.5
    except (TypeError, ValueError, ArithmeticError):  # Decimal NaN is an ArithmeticError
        valid = False
    if not valid:
        raise InvalidParams(f"tolerance must lie in (0, 1/2), got {_shown(tolerance, repr)}")


def r_exact(s: BrieskornSphere) -> int:
    """R of a positively oriented Brieskorn sphere by the Neumann-Zagier identity.

    Integer arithmetic only, O(log a) for a = a1*a2*a3.  The division is exact
    by lemma L4 (a*R is a or -a), and r_invariant checks the sum against it.
    """
    if s.orientation != 1:
        raise InvalidParams("R is defined here for the positive orientation only")
    a = s.a1 * s.a2 * s.a3
    # a*R = 2 + sum_i (a_i - 2*r_i) * (a/a_i)
    return (2 + sum((ai - 2 * pow(a // ai, -1, ai)) * (a // ai) for ai in s.multiplicities)) // a


def r_invariant(s: BrieskornSphere, tolerance: float = DEFAULT_TOLERANCE) -> RValue:
    """R of a positively oriented Brieskorn sphere, certified to be integral.

    The tolerance (a real number in (0, 1/2)) sets the working precision,
    RValue.precision_bits: DEFAULT_PRECISION_BITS, or more when a1*a2*a3
    needs it, doubled until 2^-bits is at most the tolerance or, as a float,
    underflows to 0.0: 2,048 bits from the default start (so for 1e-5000
    too), below 2,150 from any start the term budget admits, so no tolerance
    forces a huge sum.  The sum runs once and must lie within 2^-(bits + 2)
    of r_exact, or IntegralityFailure is raised (a broken kernel, never a
    non-integral R); numeric is then r_exact.  A bad tolerance, or more than
    MAX_COTANGENT_TERMS terms, is InvalidParams.
    """
    _validate_tolerance(tolerance)
    exact = r_exact(s)
    a1, a2, a3 = s.multiplicities
    terms = a1 + a2 + a3 - 3
    if terms > MAX_COTANGENT_TERMS:
        raise InvalidParams(
            f"R({','.join(map(_shown, s.multiplicities))}) needs {_shown(terms)} cotangent terms, more than the budget of "
            f"{MAX_COTANGENT_TERMS}; its exact value (r_exact) is {exact}"
        )
    product = a1 * a2 * a3
    floor_bits = 50 + math.ceil(10 * math.log10(product))
    bits = max(DEFAULT_PRECISION_BITS, floor_bits)
    while math.ldexp(1.0, -bits) > tolerance:
        bits *= 2
    value = _cotangent_sum(a1, a2, a3, bits)
    error = abs(value - exact)
    if error >= Fraction(1, 1 << bits + 2):
        raise IntegralityFailure(
            f"R({a1},{a2},{a3}) rounds to {round(value)} at {bits} bits, but is {float(error):.3g}"
            f" from its exact value (r_exact) {exact}, past the bound 2^-{bits + 2}"
        )
    return RValue(numeric=Fraction(exact), rounded=exact, residual=Fraction(0), precision_bits=bits)
