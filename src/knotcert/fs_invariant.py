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
bits: per multiplicity, one trigonometric evaluation seeds a rotation that
steps through the angles pi*j/a_i, and one table of cot(pi*j/a_i) serves
both factors.  The outer index is reduced modulo a_i exactly, so huge
multiplicities do not leak precision, and the terms are summed exactly and
rounded once, so the result is R itself.  r_invariant still certifies that
it rounds to an integer: if the residual exceeds the tolerance the working
precision doubles, up to a hard cap, before the computation is rejected.

The same value has a closed form in integers (Neumann-Zagier, "A note on an
invariant of Fintushel and Stern", 1985):

    R(a1, a2, a3) = 2/a + sum_i (a_i - 2*r_i)/a_i,   r_i = (a/a_i)^-1 mod a_i.

r_exact evaluates it in O(log a); r_invariant checks its rounded sum against
it, and refuses sums of more than MAX_COTANGENT_TERMS terms, counted as
sum(a_i - 1) over the full range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cs_invariants import _validate_ints, _validate_sign
from .errors import IntegralityFailure, InvalidParams

# mpmath is imported inside the functions that evaluate R: loading it takes
# about 20 ms, which every command that never evaluates R would pay.
if TYPE_CHECKING:
    import mpmath

DEFAULT_PRECISION_BITS = 128
DEFAULT_TOLERANCE = 1e-6
MAX_PRECISION_BITS = 4096
# r_invariant's sum has sum(a_i - 1) terms, evaluated in pairs at about 1 us
# per term at 128 bits on a 2-core Xeon, so the largest admitted sums take
# about 0.1 s (Sigma(2,3,99997) and Sigma(3,5,99992)); larger ones fail with
# InvalidParams (exit 1) instead of running for minutes.
MAX_COTANGENT_TERMS = 100_000


@dataclass(frozen=True)
class BrieskornSphere:
    """Oriented Brieskorn homology sphere Sigma(a1, a2, a3).

    Multiplicities are an unordered multiset: they are stored sorted
    ascending, must be >= 2 and pairwise coprime.  orientation is +1 for
    Sigma and -1 for the reversed -Sigma.
    """

    a1: int
    a2: int
    a3: int
    orientation: int = 1

    def __post_init__(self) -> None:
        a = sorted(_validate_ints((self.a1, self.a2, self.a3), "a multiplicity"))
        if a[0] < 2:
            raise InvalidParams(f"multiplicities must be >= 2, got {tuple(a)}")
        if math.lcm(*a) != a[0] * a[1] * a[2]:
            raise InvalidParams(f"multiplicities {tuple(a)} are not pairwise coprime")
        object.__setattr__(self, "orientation", _validate_sign(self.orientation))
        object.__setattr__(self, "a1", a[0])
        object.__setattr__(self, "a2", a[1])
        object.__setattr__(self, "a3", a[2])

    @property
    def multiplicities(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)

    def reversed(self) -> "BrieskornSphere":
        return BrieskornSphere(self.a1, self.a2, self.a3, -self.orientation)

    def __str__(self) -> str:
        sign = "" if self.orientation == 1 else "-"
        return f"{sign}Sigma({self.a1},{self.a2},{self.a3})"


@dataclass(frozen=True)
class RValue:
    """A certified evaluation of R: numeric value, nearest integer, residual."""

    numeric: mpmath.mpf
    rounded: int
    residual: mpmath.mpf
    precision_bits: int


def _cotangent_sum(a1: int, a2: int, a3: int, bits: int) -> mpmath.mpf:
    """Evaluate the index sum at the given binary precision.

    Exposed for tests; callers normally want r_invariant, which adds the
    integrality certificate.  The sum runs over half its range (see the
    module docstring) in fixed point: an integer x stands for x * 2^-f, with
    f = bits + guard.  The terms are summed exactly as integers and rounded
    once, to nearest at `bits` bits.  The result is R itself when R != 0 and
    lies within 2^-(bits + 1) of 0 otherwise.

    For each multiplicity m = a_i with h = (m - 1) // 2 > 0 and t = pi/m,
    one mpf_cos_sin call at f + 10 bits gives (cos_t, sin_t); the rotation
    (c, s) <- ((c*cos_t - s*sin_t) >> f, (s*cos_t + c*sin_t) >> f) steps
    through (cos j*t, sin j*t) for j <= h, and the table holds cot(j*t) =
    (c << f) // s.  The table serves both factors.  The outer index
    j = b*k mod m, b = a/m, is reduced in integers (cot is pi-periodic).  b is
    a unit mod m, so for 0 < k < m/2, j is neither 0 nor m/2 (an even m makes
    b odd, and b*m/2 = m/2 mod m); past the half, cot(j*t) is -cot((m - j)*t).
    The inner factor is sin(2*k*t) = 2*c/(1 + c^2) with c = cot(k*t).

    The guard is 2*L + 11 bits, L = max(a_i).bit_length().  In units of
    u = 2^-f: (cos_t, sin_t) is within 2u of (cos t, sin t), so each rotation
    step adds at most 5u to the error of (c, s), and step j is within 5*j*u.
    Since sin(j*t) >= 2*j/m for j <= h, entry j of the table is within
    5*m^2/j * u of cot(j*t).  The derivative of 2c/(1 + c^2) is at most
    8*sin^2(k*t) near c = cot(k*t), and sin^2(k*t) * m^2/k <= pi*m, so the
    inner factor is within 127*m*u.  |cot(j*t)| <= m/(2*j), so the term at k
    is within 70*m^2/j * u, and since k -> j permutes 1..h, the sum over k is
    within 70*m^2*(1 + ln m) * u.  Times 2/m, and over three multiplicities,
    the error is at most 420*M*(1 + ln M) * u < 2^(2*L + 9) * u, M = max a_i,
    which the guard makes less than 2^-(bits + 2).  Rounding to nearest at
    `bits` bits then lands on R whenever R is a nonzero integer.  Measured
    errors are at most about M * u, thousands of times below this bound.
    """
    import mpmath
    from mpmath.libmp import (
        from_int, from_rational, mpf_cos_sin, mpf_div, mpf_pi, round_nearest, to_fixed,
    )

    a = a1 * a2 * a3
    f = bits + 2 * max(a1, a2, a3).bit_length() + 11
    pi = mpf_pi(f + 20, round_nearest)
    one = 1 << 2 * f
    numerator = 2 * one  # a * R, in units of 2^-2f
    for ai in (a1, a2, a3):
        b = a // ai
        half = (ai - 1) // 2
        if not half:
            continue
        t = mpf_div(pi, from_int(ai), f + 20, round_nearest)
        cos_t, sin_t = (to_fixed(v, f) for v in mpf_cos_sin(t, f + 10, round_nearest))
        c, s = cos_t, sin_t
        cots = [0] * (half + 1)  # index 0 is never read
        for j in range(1, half + 1):
            cots[j] = (c << f) // s
            c, s = (c * cos_t - s * sin_t) >> f, (s * cos_t + c * sin_t) >> f
        inner = 0
        for k in range(1, half + 1):
            c = cots[k]
            sine = (c << 2 * f + 1) // (one + c * c)
            j = b * k % ai
            if j <= half:
                inner += cots[j] * sine
            else:
                inner -= cots[ai - j] * sine
        numerator += 2 * b * inner
    return mpmath.mp.make_mpf(from_rational(numerator, a << 2 * f, bits, round_nearest))


def _validate_tolerance(tolerance: float) -> None:
    """The rule for an integrality tolerance.

    A tolerance of 1/2 or more would certify any value: every residual from
    the nearest integer is at most 1/2.
    """
    if not 0 < tolerance < 0.5:
        raise InvalidParams(f"tolerance must lie in (0, 1/2), got {tolerance}")


def r_exact(s: BrieskornSphere) -> int:
    """R of a positively oriented Brieskorn sphere by the Neumann-Zagier identity.

    Integer arithmetic only, O(log a) for a = a1*a2*a3.
    """
    if s.orientation != 1:
        raise InvalidParams("R is defined here for the positive orientation only")
    a = s.a1 * s.a2 * s.a3
    # a*R = 2 + sum_i (a_i - 2*r_i) * (a/a_i)
    numerator = 2 + sum((ai - 2 * pow(a // ai, -1, ai)) * (a // ai) for ai in s.multiplicities)
    value, remainder = divmod(numerator, a)
    if remainder:
        raise IntegralityFailure(f"R{s.multiplicities} = {numerator}/{a} is not an integer")
    return value


def r_invariant(s: BrieskornSphere, tolerance: float = DEFAULT_TOLERANCE) -> RValue:
    """R of a positively oriented Brieskorn sphere, certified to be integral.

    The tolerance (0 < tolerance < 1/2) is the requirement; the working
    precision follows from it.  The sum starts at DEFAULT_PRECISION_BITS, or
    more when the product a1*a2*a3 needs it, doubled until 2^-bits is at most
    the tolerance (a coarser pass could clear it only by landing exactly on
    an integer), and capped at MAX_PRECISION_BITS.  It then doubles until the
    residual clears the tolerance; RValue.precision_bits reports the bits
    used.  A bad tolerance, and a sum of more than MAX_COTANGENT_TERMS terms,
    raise InvalidParams before any floating-point work.  Raises IntegralityFailure
    if the residual still exceeds the tolerance at MAX_PRECISION_BITS (which
    signals a precision problem or invalid input, never a legitimately
    non-integral value), or if the rounded sum disagrees with r_exact.
    """
    _validate_tolerance(tolerance)
    exact = r_exact(s)
    a1, a2, a3 = s.multiplicities
    terms = a1 + a2 + a3 - 3
    if terms > MAX_COTANGENT_TERMS:
        raise InvalidParams(
            f"R({a1},{a2},{a3}) needs {terms} cotangent terms, more than the budget of "
            f"{MAX_COTANGENT_TERMS}; its exact value (r_exact) is {exact}"
        )
    import mpmath

    product = a1 * a2 * a3
    floor_bits = 50 + math.ceil(10 * math.log10(product))
    bits = max(DEFAULT_PRECISION_BITS, floor_bits)
    while math.ldexp(1.0, -bits) > tolerance:
        bits *= 2
    bits = min(bits, MAX_PRECISION_BITS)
    while True:
        value = _cotangent_sum(a1, a2, a3, bits)
        with mpmath.workprec(bits):
            rounded = int(mpmath.nint(value))
            residual = abs(value - rounded)
        if residual <= tolerance:
            if rounded != exact:
                raise IntegralityFailure(
                    f"R({a1},{a2},{a3}) rounds to {rounded} at {bits} bits, "
                    f"but its exact value (r_exact) is {exact}"
                )
            return RValue(numeric=value, rounded=rounded, residual=residual, precision_bits=bits)
        if bits >= MAX_PRECISION_BITS:
            raise IntegralityFailure(
                f"R({a1},{a2},{a3}) residual {mpmath.nstr(residual, 5)} exceeds "
                f"tolerance {tolerance} at {bits} bits"
            )
        bits = min(2 * bits, MAX_PRECISION_BITS)
