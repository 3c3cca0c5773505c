"""Chern-Simons minima, Pontryagin numbers, and the moduli compactness test.

Everything here is a closed-form rational for the surgery family
Sigma(p, q, k*p*q - 1), so the arithmetic is exact Fractions end to end.
A triple (p, q, k) always refers to that sphere.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidParams


def _validate_ints(values: Iterable, name: str) -> list[int]:
    """The one rule for integer input: each value passes operator.index, so
    int, bool and numpy integers become ints, and a float, str or Fraction
    raises InvalidParams instead of being truncated."""
    values = tuple(values)  # an iterator is read once; a tuple is not copied
    try:
        return list(map(operator.index, values))
    except TypeError:
        bad = next((v for v in values if not hasattr(type(v), "__index__")), None)
        raise InvalidParams(f"{name} must be an integer, got {bad!r}") from None


def _validate_triple(triple: Sequence[int]) -> list[int]:
    """The one rule for (p, q, k): three ints, p, q >= 2 coprime, k >= 1 (k = 1 for a pair)."""
    values = _validate_ints(triple, "each of p, q, k")
    if len(values) != 3:
        raise InvalidParams(f"(p, q, k) needs three entries, got {tuple(values)}")
    p, q, k = values
    if p < 2 or q < 2:
        raise InvalidParams(f"p, q must be >= 2, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise InvalidParams(f"p, q must be coprime, got ({p}, {q})")
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    return [p, q, k]


def _validate_twist(n: int, name: str = "n") -> int:
    """The one rule for a twist parameter: an even integer n >= 2 (odd n
    gives the pattern nonzero winding number)."""
    [n] = _validate_ints([n], name)
    if n < 2 or n % 2 != 0:
        raise InvalidParams(f"{name} must be a positive even integer, got {n}")
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


@dataclass(frozen=True)
class TauValue:
    """Minimal Chern-Simons difference of a 3-manifold, a rational in (0, 4]."""

    value: Fraction

    def __post_init__(self) -> None:
        if not 0 < self.value <= 4:
            raise InvalidParams(f"tau must lie in (0, 4], got {self.value}")


@dataclass(frozen=True)
class H1Data:
    """First-homology data of a 4-manifold: torsion order T and the defect
    beta = rank H_1(.; Z/2) - rank H_1(.; Z).

    beta counts the even-order cyclic summands of the torsion, since
    H_1(.; Z/2) = H_1 (x) Z/2 when H_0 is free, so 2^beta divides T and the
    reducible-connection count T / 2^beta is an integer.  Data that breaks
    this rule belongs to no space and is rejected.
    """

    torsion_order: int
    beta: int

    def __post_init__(self) -> None:
        t, beta = _validate_ints((self.torsion_order, self.beta), "each of torsion order, beta")
        if t < 1:
            raise InvalidParams(f"torsion order must be >= 1, got {t}")
        if beta < 0:
            raise InvalidParams(f"beta must be >= 0, got {beta}")
        # 2^beta divides T iff T has at least beta factors of 2; counting them
        # never builds 2^beta, however large beta is.
        if (t & -t).bit_length() - 1 < beta:
            raise InvalidParams(f"2^beta = 2^{beta} does not divide the torsion order {t}")
        object.__setattr__(self, "torsion_order", t)
        object.__setattr__(self, "beta", beta)


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


@dataclass(frozen=True)
class CompactnessCheck:
    """One strict comparison lhs < rhs in the compactness report."""

    label: str
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs < self.rhs

    def __str__(self) -> str:
        rel = "<" if self.ok else "!<"
        return f"{self.label}: {self.lhs} {rel} {self.rhs}"


@dataclass(frozen=True)
class CompactnessReport:
    """Outcome of the bubbling/breaking exclusion test; truthy iff compact."""

    checks: tuple[CompactnessCheck, ...]

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
    """
    pN, qN, kN = _validate_triple(terminal)
    p1 = Fraction(1, _growth(pN, qN, kN))
    checks = [
        CompactnessCheck("p1 < 4 (no bubbling)", p1, Fraction(4)),
        CompactnessCheck(f"p1 < lens bound({pN},{qN},{kN})", p1, _lens_bound(pN, qN, kN)),
    ]
    for p, q, k in map(_validate_triple, boundary):
        checks.append(CompactnessCheck(f"p1 < tau({p},{q},{k})", p1, Fraction(1, _growth(p, q, k))))
    return CompactnessReport(tuple(checks))


def count_reducibles(h: H1Data) -> int:
    """Number of reducible limits, T / 2^beta; H1Data makes it an integer."""
    return h.torsion_order >> h.beta


def parity_obstruction(h: H1Data) -> bool:
    """True iff the reducible count is odd, i.e. the boundary-parity
    contradiction fires (a compact 1-manifold has evenly many endpoints)."""
    return count_reducibles(h) % 2 == 1
