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

It is evaluated in multiprecision floating point and certified to round to
an integer: if the residual exceeds the tolerance the working precision
doubles, up to a hard cap, before the computation is rejected.
Trigonometric arguments are reduced modulo the period exactly, in integer
arithmetic, so huge multiplicities do not leak precision, and one table of
cot(pi*j/a_i) per multiplicity serves both factors.

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
# r_invariant's sum has sum(a_i - 1) terms, evaluated in pairs at 10-15 us per
# term at 128 bits on a 2-core Xeon, so the largest admitted sums take about
# 1-1.5 s (Sigma(2,3,99997) and Sigma(3,5,99992)); larger ones fail with
# InvalidParams (exit 1) instead of running for hours.
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
    module docstring), each libmp operation at `bits` bits, rounding to
    nearest.  Its error stays below (a1 + a2 + a3) * 2^-bits, a bound the
    tests assert against r_exact and against the full-range reference.

    With b = a/a_i, the outer argument b*k/a_i is reduced mod 1 in integers
    first (cot is pi-periodic), which is what keeps the evaluation stable for
    large products a1*a2*a3.  One table of cot(pi*j/a_i), j <= (a_i - 1)/2,
    serves both factors.  b is a unit mod a_i, so for 0 < k < a_i/2 the
    residue j = b*k mod a_i is neither 0 nor a_i/2 (an even a_i makes b odd,
    and b*a_i/2 = a_i/2 mod a_i); past the half, cot(pi*j/a_i) is
    -cot(pi*(a_i - j)/a_i).  Each entry costs one trigonometric evaluation,
    as mpmath.cot makes it (one/tan with 10 guard bits), and
    sin(2*pi*k/a_i) = 2*c/(1 + c^2) with c = cot(pi*k/a_i).
    """
    import mpmath
    from mpmath.libmp import (
        fone, fzero, from_int, mpf_add, mpf_cos_sin, mpf_div, mpf_mul, mpf_mul_int,
        mpf_neg, mpf_pi, mpf_pos, round_nearest,
    )

    rnd = round_nearest
    guard = bits + 10  # mpmath.cot evaluates one/tan with 10 guard bits
    pi = mpf_pi(bits, rnd)
    a = a1 * a2 * a3
    total = mpf_div(from_int(2), from_int(a), bits, rnd)
    for ai in (a1, a2, a3):
        b = a // ai
        half = (ai - 1) // 2
        cots = [fzero]  # index 0 is never read
        for j in range(1, half + 1):
            x = mpf_div(mpf_mul_int(pi, j, bits, rnd), from_int(ai), bits, rnd)
            tan = mpf_cos_sin(x, guard, rnd, 3)  # (.., 3) is mpf_tan
            cots.append(mpf_pos(mpf_div(fone, tan, guard, rnd), bits, rnd))
        inner = fzero
        for k in range(1, half + 1):
            c = cots[k]
            denominator = mpf_add(fone, mpf_mul(c, c, bits, rnd), bits, rnd)
            sine = mpf_div(mpf_mul_int(c, 2, bits, rnd), denominator, bits, rnd)
            j = b * k % ai
            outer = cots[j] if j <= half else mpf_neg(cots[ai - j])
            inner = mpf_add(inner, mpf_mul(outer, sine, bits, rnd), bits, rnd)
        share = mpf_div(mpf_mul_int(inner, 2, bits, rnd), from_int(ai), bits, rnd)
        total = mpf_add(total, share, bits, rnd)
    return mpmath.mp.make_mpf(total)


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
