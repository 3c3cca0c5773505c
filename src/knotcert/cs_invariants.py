"""Brieskorn spheres, Chern-Simons minima, Pontryagin numbers, compactness.

BrieskornSphere is the oriented Sigma(a1, a2, a3).  The rest is closed form
for the surgery family Sigma(p, q, k*p*q - 1), exact Fractions end to end;
a triple (p, q, k) always refers to that sphere.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import InvalidParams, _sequence, _shown, _validate_ints, _Value


def _validate_triple(triple: Sequence[int]) -> list[int]:
    """The one rule for (p, q, k): three ints, p, q >= 2 coprime, k >= 1 (k = 1 for a pair)."""
    values = _validate_ints(triple, "each of p, q, k")
    if len(values) != 3:
        raise InvalidParams(f"(p, q, k) needs three entries, got {_shown(tuple(values))}")
    p, q, k = values
    if p < 2 or q < 2:
        raise InvalidParams(f"p, q must be >= 2, got {_shown((p, q))}")
    if math.gcd(p, q) != 1:
        raise InvalidParams(f"p, q must be coprime, got {_shown((p, q))}")
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {_shown(k)}")
    return [p, q, k]


def _validate_twist(n: int, name: str = "n") -> int:
    """The one rule for a twist parameter: an even integer n >= 2 (odd n
    gives the pattern nonzero winding number)."""
    [n] = _validate_ints([n], name)
    if n < 2 or n % 2 != 0:
        raise InvalidParams(f"{name} must be a positive even integer, got {_shown(n)}")
    return n


def _validate_sign(s: int, name: str = "orientation") -> int:
    """The one rule for an orientation or framing sign: the integer +1 or -1."""
    [s] = _validate_ints([s], name)
    if s not in (1, -1):
        raise InvalidParams(f"{name} must be +1 or -1")
    return s


def _growth(p: int, q: int, k: int) -> int:
    """p*q*(k*p*q - 1): 1/tau(Sigma(p, q, k*p*q - 1)) and the chain criterion's sides."""
    return p * q * (k * p * q - 1)


class BrieskornSphere(_Value):
    """Oriented Brieskorn homology sphere Sigma(a1, a2, a3).

    Multiplicities are an unordered multiset: they are stored sorted
    ascending, must be >= 2 and pairwise coprime.  orientation is +1 for
    Sigma and -1 for the reversed -Sigma.
    """

    __slots__ = ("a1", "a2", "a3", "orientation")

    def __init__(self, a1: int, a2: int, a3: int, orientation: int = 1):
        a = sorted(_validate_ints((a1, a2, a3), "a multiplicity"))
        if a[0] < 2:
            raise InvalidParams(f"multiplicities must be >= 2, got {_shown(tuple(a))}")
        if math.lcm(*a) != a[0] * a[1] * a[2]:
            raise InvalidParams(f"multiplicities {_shown(tuple(a))} are not pairwise coprime")
        self._set(*a, _validate_sign(orientation))

    @property
    def multiplicities(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)

    def reversed(self) -> "BrieskornSphere":
        return BrieskornSphere(self.a1, self.a2, self.a3, -self.orientation)

    def __str__(self) -> str:
        sign = "" if self.orientation == 1 else "-"
        return f"{sign}Sigma({self.a1},{self.a2},{self.a3})"


class TauValue(_Value):
    """Minimal Chern-Simons difference of a 3-manifold, a rational in (0, 4]."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        if not 0 < value <= 4:
            raise InvalidParams(f"tau must lie in (0, 4], got {_shown(value)}")
        self._set(value)


class H1Data(_Value):
    """First-homology data of a 4-manifold: torsion order T and the defect
    beta = rank H_1(.; Z/2) - rank H_1(.; Z).

    beta counts the even-order cyclic summands of the torsion, since
    H_1(.; Z/2) = H_1 (x) Z/2 when H_0 is free, so 2^beta divides T and the
    reducible-connection count T / 2^beta is an integer.  Data that breaks
    this rule belongs to no space and is rejected.
    """

    __slots__ = ("torsion_order", "beta")

    def __init__(self, torsion_order: int, beta: int):
        t, beta = _validate_ints((torsion_order, beta), "each of torsion order, beta")
        if t < 1:
            raise InvalidParams(f"torsion order must be >= 1, got {_shown(t)}")
        if beta < 0:
            raise InvalidParams(f"beta must be >= 0, got {_shown(beta)}")
        # 2^beta divides T iff T has at least beta factors of 2; counting them
        # never builds 2^beta, however large beta is.
        if (t & -t).bit_length() - 1 < beta:
            raise InvalidParams(f"2^beta = 2^{_shown(beta)} does not divide the torsion order {_shown(t)}")
        self._set(t, beta)


def tau_brieskorn_family(p: int, q: int, k: int) -> TauValue:
    """tau(Sigma(p, q, k*p*q - 1)) = 1 / (p*q*(k*p*q - 1)), exactly."""
    p, q, k = _validate_triple((p, q, k))
    return TauValue(Fraction(1, _growth(p, q, k)))


def pontryagin_number(p: int, q: int, k: int) -> Fraction:
    """Relative Pontryagin number of the adapted bundle over the mapping-
    cylinder piece for Sigma(p, q, k*p*q - 1): 1 / (p*q*(k*p*q - 1)) < 4."""
    p, q, k = _validate_triple((p, q, k))
    return Fraction(1, _growth(p, q, k))


def lens_cs_lower_bound(p: int, q: int, k: int) -> Fraction:
    """Lower bound for the minimal Chern-Simons invariant of the lens spaces
    surrounding the three singular fibers: min{1/p, 1/q, 1/(k*p*q - 1)}."""
    return _lens_bound(*_validate_triple((p, q, k)))


def _lens_bound(p: int, q: int, k: int) -> Fraction:
    """lens_cs_lower_bound's body, for a triple already validated."""
    return min(Fraction(1, p), Fraction(1, q), Fraction(1, k * p * q - 1))


class CompactnessCheck(_Value):
    """One strict comparison lhs < rhs in the compactness report."""

    __slots__ = ("label", "lhs", "rhs")

    def __init__(self, label: str, lhs: Fraction, rhs: Fraction):
        self._set(label, lhs, rhs)

    @property
    def ok(self) -> bool:
        return self.lhs < self.rhs

    def __str__(self) -> str:
        rel = "<" if self.ok else "!<"
        return f"{self.label}: {_fraction(self.lhs)} {rel} {_fraction(self.rhs)}"


def _fraction(x: Fraction) -> str:
    """str(x), with each of its integers shown by errors._shown, so a side past
    the print limit does not stop the report."""
    shown = _shown(x.numerator)
    return shown if x.denominator == 1 else f"{shown}/{_shown(x.denominator)}"


class CompactnessReport(_Value):
    """Outcome of the bubbling/breaking exclusion test; truthy iff compact."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple[CompactnessCheck, ...]):
        self._set(checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        verdict = "compact" if self.ok else "not certified compact"
        return "\n".join([*(str(c) for c in self.checks), verdict])


def compactness_check(
    boundary: Iterable[Sequence[int]], terminal: Sequence[int]
) -> CompactnessReport:
    """Decide compactness of the instanton moduli space over the assembled end.

    terminal is the (p, q, k) of the sphere carrying the mapping-cylinder
    bundle; boundary lists the (p, q, k) of every other end.  Compactness
    holds iff p1 := pontryagin_number(terminal) satisfies p1 < 4 (no
    bubbling), p1 < the lens-space Chern-Simons bound, and p1 < tau of every
    boundary sphere (no breaking).  All comparisons are exact and reported.
    Each triple is validated once; p1 and each tau are 1/_growth of it.
    Labels show each entry by errors._shown, so an entry past the print
    limit does not stop the report.
    """
    pN, qN, kN = _validate_triple(terminal)
    p1 = Fraction(1, _growth(pN, qN, kN))
    lens = f"p1 < lens bound({','.join(map(_shown, (pN, qN, kN)))})"
    checks = [
        CompactnessCheck("p1 < 4 (no bubbling)", p1, Fraction(4)),
        CompactnessCheck(lens, p1, _lens_bound(pN, qN, kN)),
    ]
    for p, q, k in map(_validate_triple, _sequence(boundary, "boundary triples")):
        label = f"p1 < tau({','.join(map(_shown, (p, q, k)))})"
        checks.append(CompactnessCheck(label, p1, Fraction(1, _growth(p, q, k))))
    return CompactnessReport(tuple(checks))


def count_reducibles(h: H1Data) -> int:
    """Number of reducible limits, T / 2^beta; H1Data makes it an integer."""
    return h.torsion_order >> h.beta


def parity_obstruction(h: H1Data) -> bool:
    """True iff the reducible count is odd, i.e. the boundary-parity
    contradiction fires (a compact 1-manifold has evenly many endpoints)."""
    return count_reducibles(h) % 2 == 1
