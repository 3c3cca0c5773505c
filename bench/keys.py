"""Answer keys for the benchmark, computed without any knotcert code path.

Every expected value here comes from plain integers and Fractions:

- R(a1, a2, a3) by the Dedekind-sum identity
  2/a + sum_i (a_i - 2 r_i) / a_i with r_i = (a/a_i)^{-1} mod a_i;
- generated chains by an independent re-statement of the successor rule
  (coprime pairs ordered by (p*q, q - p), minimal admissible member);
- the chain inequality p q (2 n p q - 1) < p' q' (n' p' q' - 1) in integers;
- the assembled boundary multiset, form dimension and compactness report;
- inertia of U^T D U from Sylvester's law (the signs of D);
- invariant factors of L D R (D itself when it is a divisibility chain) and
  the identity left A right = D, checked by Freivalds' random projection.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# R by the Dedekind-sum identity


def r_exact(a1: int, a2: int, a3: int) -> Fraction:
    a = a1 * a2 * a3
    total = Fraction(2, a)
    for ai in (a1, a2, a3):
        r = pow(a // ai, -1, ai)
        total += Fraction(ai - 2 * r, ai)
    return total


# ---------------------------------------------------------------------------
# chains: (n, p, q) triples as plain tuples


def crossings(p: int, q: int) -> int:
    return (p - 1) * (q - 1) // 2


def doubled(m: tuple[int, int, int]) -> int:
    n, p, q = m
    return p * q * (2 * n * p * q - 1)


def single(m: tuple[int, int, int]) -> int:
    n, p, q = m
    return p * q * (n * p * q - 1)


class PairTable:
    """Coprime pairs 2 <= p < q with p*q <= limit, ordered by (p*q, q - p)."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        pairs = [
            (p, q)
            for p in range(2, math.isqrt(limit) + 1)
            for q in range(p + 1, limit // p + 1)
            if math.gcd(p, q) == 1
        ]
        self.pairs = sorted(pairs, key=lambda t: (t[0] * t[1], t[1] - t[0]))

    def successor(self, last: tuple[int, int, int], fix_n: int | None) -> tuple[int, int, int]:
        bound = doubled(last)
        if fix_n is None:
            # (2, 3) leads the candidate order, so only n moves.
            n = 2
            while 6 * (6 * n - 1) <= bound:
                n += 2
            return (n, 2, 3)
        for p, q in self.pairs:
            if p * q * (fix_n * p * q - 1) > bound:
                return (fix_n, p, q)
        raise ValueError(f"pair table up to {self.limit} too small for bound {bound}")

    def chain(self, start: tuple[int, int, int], count: int, fix_n: int | None) -> list:
        members = [start]
        while len(members) < count:
            members.append(self.successor(members[-1], fix_n))
        return members


def chain_checks(members) -> list[tuple[int, int, int, bool]]:
    """(index, lhs, rhs, ok) for each consecutive pair, 1-based."""
    out = []
    for i in range(len(members) - 1):
        lhs, rhs = doubled(members[i]), single(members[i + 1])
        out.append((i + 1, lhs, rhs, lhs < rhs))
    return out


def normalized(coefficients, count: int) -> list[int]:
    """Drop trailing zeros; negate everything when the top entry is negative."""
    cs = [1] * count if coefficients is None else list(coefficients)
    top = max(i for i, c in enumerate(cs) if c)
    cs = cs[: top + 1]
    return [-c for c in cs] if cs[-1] < 0 else cs


def form_dimension(members, coefficients) -> int:
    cs = normalized(coefficients, len(members))
    n, p, q = members[len(cs) - 1]
    return crossings(p, q) + sum(abs(c) * m[0] for c, m in zip(cs, members))


def boundary_multiset(members, coefficients) -> list[tuple]:
    """Sorted (multiplicities, orientation, multiplicity) of the assembled ends.

    The Z block leaves -Sigma(p, q, n p q - 1) of the top member; each unit of
    negative coefficient leaves two copies of +Sigma(p, q, 2 n p q - 1).
    """
    cs = normalized(coefficients, len(members))
    n, p, q = members[len(cs) - 1]
    out = [(tuple(sorted((p, q, n * p * q - 1))), -1, 1)]
    for c, (n, p, q) in zip(cs, members):
        if c < 0:
            out.append((tuple(sorted((p, q, 2 * n * p * q - 1))), 1, -2 * c))
    return sorted(out)


def compactness(members) -> tuple[bool, list[tuple[Fraction, Fraction, bool]]]:
    """Criterion-6 compactness of a chain: terminal (p, q, n) of the last
    member, boundary (p, q, 2n) of the others; (lhs, rhs, ok) per check."""
    n, p, q = members[-1]
    p1 = Fraction(1, p * q * (n * p * q - 1))
    rhs = [Fraction(4), min(Fraction(1, p), Fraction(1, q), Fraction(1, n * p * q - 1))]
    rhs += [Fraction(1, bp * bq * (2 * bn * bp * bq - 1)) for bn, bp, bq in members[:-1]]
    checks = [(p1, r, p1 < r) for r in rhs]
    return all(ok for _, _, ok in checks), checks


# ---------------------------------------------------------------------------
# dense forms


def sylvester_class(signs) -> str:
    """Definiteness class of any form congruent to diag(signs)."""
    if any(s == 0 for s in signs):
        return "Degenerate"
    if all(s > 0 for s in signs):
        return "PositiveDefinite"
    if all(s < 0 for s in signs):
        return "NegativeDefinite"
    return "Indefinite"


def snf_identity_holds(left, a, right, diagonal, rng: random.Random, rounds: int = 2) -> bool:
    """left @ a @ right == diag(diagonal), by Freivalds' check with exact ints.

    A nonzero difference survives one round with probability at most 2^-32.
    """
    nr, nc = len(a), len(a[0])
    for _ in range(rounds):
        x = [rng.randrange(-(2**31), 2**31) for _ in range(nc)]
        y = [sum(r * v for r, v in zip(row, x)) for row in right]
        y = [sum(r * v for r, v in zip(row, y)) for row in a]
        y = [sum(r * v for r, v in zip(row, y)) for row in left]
        expect = [diagonal[i] * x[i] if i < len(diagonal) else 0 for i in range(nr)]
        if y != expect:
            return False
    return True
