"""The integer-valued instanton index invariant R of Brieskorn homology spheres.

For pairwise-coprime multiplicities (a1, a2, a3) the invariant is the
Fintushel-Stern cotangent sum

    R(a1, a2, a3) = 2/(a1*a2*a3)
                    + sum_i (2/a_i) * sum_{k=1}^{a_i - 1}
                          cot(pi*a*k/a_i^2) * cot(pi*k/a_i) * sin^2(pi*k/a_i)

with a = a1*a2*a3.  The sum is evaluated in multiprecision floating point
and certified to round to an integer: if the residual exceeds the tolerance
the working precision doubles, up to a hard cap, before the computation is
rejected.  Trigonometric arguments are reduced modulo the period exactly, in
rational arithmetic, so huge multiplicities do not leak precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .cs_invariants import _validate_sign
from .errors import IntegralityFailure, InvalidParams

# mpmath is imported inside the functions that evaluate R: loading it takes
# about 20 ms, which every command that never evaluates R would pay.
if TYPE_CHECKING:
    import mpmath

DEFAULT_PRECISION_BITS = 128
DEFAULT_TOLERANCE = 1e-6
MAX_PRECISION_BITS = 4096


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
        a = sorted((int(self.a1), int(self.a2), int(self.a3)))
        if a[0] < 2:
            raise InvalidParams(f"multiplicities must be >= 2, got {tuple(a)}")
        for i in range(3):
            for j in range(i + 1, 3):
                if math.gcd(a[i], a[j]) != 1:
                    raise InvalidParams(f"multiplicities {tuple(a)} are not pairwise coprime")
        _validate_sign(self.orientation)
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
    integrality certificate.  The argument of the outer cotangent is reduced
    mod 1 as an exact Fraction first (cot is pi-periodic), which is what
    keeps the evaluation stable for large products a1*a2*a3.
    """
    import mpmath

    a = a1 * a2 * a3
    with mpmath.workprec(bits):
        total = mpmath.mpf(2) / a
        for ai in (a1, a2, a3):
            inner = mpmath.mpf(0)
            for k in range(1, ai):
                # a*k/ai^2 is never an integer: ai | a*k would force ai | k.
                r_outer = Fraction(a * k, ai * ai) % 1
                outer = mpmath.cot(mpmath.pi * mpmath.mpf(r_outer.numerator) / r_outer.denominator)
                theta = mpmath.pi * k / ai
                inner += outer * mpmath.cot(theta) * mpmath.sin(theta) ** 2
            total += 2 * inner / ai
        return +total


def r_invariant(
    s: BrieskornSphere,
    precision_bits: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RValue:
    """R of a positively oriented Brieskorn sphere, certified to be integral.

    Raises IntegralityFailure if the residual still exceeds the tolerance at
    MAX_PRECISION_BITS (which signals a precision problem or invalid input,
    never a legitimately non-integral value).
    """
    import mpmath

    if s.orientation != 1:
        raise InvalidParams("r_invariant is defined here for the positive orientation only")
    a1, a2, a3 = s.multiplicities
    product = a1 * a2 * a3
    floor_bits = 50 + math.ceil(10 * math.log10(product))
    bits = max(precision_bits or DEFAULT_PRECISION_BITS, floor_bits)
    bits = min(bits, MAX_PRECISION_BITS)
    while True:
        value = _cotangent_sum(a1, a2, a3, bits)
        with mpmath.workprec(bits):
            rounded = int(mpmath.nint(value))
            residual = abs(value - rounded)
        if residual <= tolerance:
            return RValue(numeric=value, rounded=rounded, residual=residual, precision_bits=bits)
        if bits >= MAX_PRECISION_BITS:
            raise IntegralityFailure(
                f"R({a1},{a2},{a3}) residual {mpmath.nstr(residual, 5)} exceeds "
                f"tolerance {tolerance} at {bits} bits"
            )
        bits = min(2 * bits, MAX_PRECISION_BITS)
