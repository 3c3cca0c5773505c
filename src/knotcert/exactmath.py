"""Exact rational arithmetic and integer linear algebra.

Everything in this module is pure and exact: arbitrary-precision Python
integers, ``fractions.Fraction`` for rationals, no floating point anywhere.
Downstream modules rely on that exactness to make their outputs certifiable,
so do not "optimize" any of it into floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidParams

# Exact rationals.  Fraction already guarantees lowest terms and a positive
# denominator, which is the whole contract we need.
Rational = Fraction


def gcd(a: int, b: int) -> int:
    """Greatest common divisor, non-negative; gcd(0, 0) == 0."""
    return math.gcd(a, b)


@dataclass(frozen=True)
class Slope:
    """A surgery slope a/b on a knot: the class a*mu + b*lambda killed by the filling.

    Stored in canonical form: gcd(a, b) == 1 and b > 0, except for the formal
    slope 1/0 (the meridional filling, which restores S^3) stored as (1, 0).
    The constructor canonicalizes signs and rejects non-primitive classes.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        if (a, b) == (0, 0):
            raise InvalidParams("slope (0, 0) is not a homology class of a curve")
        if math.gcd(a, b) != 1:
            raise InvalidParams(f"slope {a}/{b} is not primitive")
        if b < 0 or (b == 0 and a < 0):
            a, b = -a, -b
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __str__(self) -> str:
        return f"{self.a}/{self.b}"


class Definiteness(Enum):
    """Sign type of a symmetric integer bilinear form."""

    POSITIVE_DEFINITE = "PositiveDefinite"
    NEGATIVE_DEFINITE = "NegativeDefinite"
    INDEFINITE = "Indefinite"
    DEGENERATE = "Degenerate"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SymIntMatrix:
    """Symmetric integer matrix, stored as an immutable tuple of row tuples.

    The 0-dimensional matrix is allowed purely as the identity element of
    direct_sum; it has no definiteness class.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        rows = tuple(tuple(int(v) for v in row) for row in self.entries)
        for row in rows:
            if len(row) != n:
                raise InvalidParams("matrix is not square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise InvalidParams(f"matrix is not symmetric at ({i}, {j})")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "SymIntMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @classmethod
    def identity(cls, n: int, scale: int = 1) -> "SymIntMatrix":
        """scale * I_n (use scale=-1 for the negative definite -I_n)."""
        return cls(tuple(tuple(scale if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, values: Sequence[int]) -> "SymIntMatrix":
        n = len(values)
        return cls(tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __neg__(self) -> "SymIntMatrix":
        return SymIntMatrix(tuple(tuple(-v for v in row) for row in self.entries))

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(v) for v in row) for row in self.entries) + "]"


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form D = left @ A @ right.

    diagonal holds the invariant factors (non-negative, each dividing the
    next, zeros trailing); left and right are unimodular (det = +-1).
    """

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]


def _argmin_abs_nonzero(a: list[list[int]], t: int) -> tuple[int, int] | None:
    best = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            v = abs(a[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(m: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form of a rectangular integer matrix, with transforms.

    Classic pivot-and-reduce algorithm: repeatedly move a least-magnitude
    entry to the pivot position, run Euclidean reduction on its row and
    column, then absorb any entry of the remaining block that the pivot
    fails to divide.  Every row operation is mirrored on the left transform
    and every column operation on the right one, so left @ A @ right equals
    the diagonal result exactly.
    """
    a = [[int(v) for v in row] for row in m]
    if not a or not a[0]:
        raise InvalidParams("matrix must have at least one row and one column")
    nr, nc = len(a), len(a[0])
    if any(len(row) != nc for row in a):
        raise InvalidParams("matrix is not rectangular")

    left = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    right = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, mult: int) -> None:
        a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + mult * y for x, y in zip(left[dst], left[src])]

    def add_col(dst: int, src: int, mult: int) -> None:
        for row in a:
            row[dst] += mult * row[src]
        for row in right:
            row[dst] += mult * row[src]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    t = 0
    rank_bound = min(nr, nc)
    while t < rank_bound:
        pos = _argmin_abs_nonzero(a, t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        if a[t][t] < 0:
            negate_row(t)
        piv = a[t][t]
        for i in range(t + 1, nr):
            q = a[i][t] // piv
            if q:
                add_row(i, t, -q)
        for j in range(t + 1, nc):
            q = a[t][j] // piv
            if q:
                add_col(j, t, -q)
        if any(a[i][t] for i in range(t + 1, nr)) or any(a[t][j] for j in range(t + 1, nc)):
            continue  # leftover remainders are smaller; re-pick the pivot
        bad = next(
            (
                i
                for i in range(t + 1, nr)
                if any(a[i][j] % piv for j in range(t + 1, nc))
            ),
            None,
        )
        if bad is not None:
            add_row(t, bad, 1)  # pull the offending row into the pivot row
            continue
        t += 1

    diagonal = tuple(a[i][i] for i in range(rank_bound))
    return SNFResult(
        diagonal=diagonal,
        left=tuple(tuple(row) for row in left),
        right=tuple(tuple(row) for row in right),
    )


def _det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def definiteness(m: SymIntMatrix) -> Definiteness:
    """Classify a symmetric integer matrix by the signs of its eigenvalues.

    Exact throughout: Degenerate iff det = 0 (fraction-free elimination);
    otherwise the inertia is read off the pivots of a symmetric rational
    elimination (the ratios of leading principal minors, with a symmetric
    permutation fallback and a rank-two congruence step when the active
    diagonal vanishes).  No floating point is involved.
    """
    d = m.dimension
    if d == 0:
        raise InvalidParams("the 0-dimensional form has no definiteness class")
    if _det_int(m.entries) == 0:
        return Definiteness.DEGENERATE

    a = [[Fraction(v) for v in row] for row in m.entries]
    pos = neg = 0
    for t in range(d):
        r = next((i for i in range(t, d) if a[i][i] != 0), None)
        if r is None:
            # Nonsingular, so the active block has an off-diagonal entry;
            # a congruence (row_i += row_j, col_i += col_j) makes a nonzero
            # diagonal pivot without changing the inertia.
            i, j = next(
                (i, j)
                for i in range(t, d)
                for j in range(i + 1, d)
                if a[i][j] != 0
            )
            for c in range(d):
                a[i][c] += a[j][c]
            for rr in range(d):
                a[rr][i] += a[rr][j]
            r = i
        if r != t:
            a[r], a[t] = a[t], a[r]
            for row in a:
                row[r], row[t] = row[t], row[r]
        piv = a[t][t]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        if pos and neg:
            return Definiteness.INDEFINITE
        # Schur update of the active block only; stale rows/columns are never
        # read again, so they are left untouched (the matrix stays symmetric).
        for i in range(t + 1, d):
            if a[i][t]:
                f = a[i][t] / piv
                for j in range(t + 1, d):
                    a[i][j] -= f * a[t][j]
    return Definiteness.POSITIVE_DEFINITE if neg == 0 else Definiteness.NEGATIVE_DEFINITE


def sign_blocks_definiteness(signs: Iterable[int]) -> Definiteness:
    """Class of a direct sum of nonempty blocks sign * I from the signs alone:
    all +1 PositiveDefinite, all -1 NegativeDefinite, a mix Indefinite."""
    present = set(signs)
    if not present or not present <= {1, -1}:
        raise InvalidParams(f"need one or more block signs +1/-1, got {sorted(present)}")
    if len(present) == 2:
        return Definiteness.INDEFINITE
    return Definiteness.POSITIVE_DEFINITE if 1 in present else Definiteness.NEGATIVE_DEFINITE


def direct_sum(ms: Iterable[SymIntMatrix]) -> SymIntMatrix:
    """Block-diagonal sum; the empty sum is the 0-dimensional matrix."""
    blocks = list(ms)
    total = sum(b.dimension for b in blocks)
    rows = [[0] * total for _ in range(total)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            rows[offset + i][offset : offset + b.dimension] = list(row)
        offset += b.dimension
    return SymIntMatrix.from_rows(rows)
