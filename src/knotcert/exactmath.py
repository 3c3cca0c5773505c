"""Surgery slopes and exact integer linear algebra.

Everything in this module is pure and exact: arbitrary-precision Python
integers, no floating point anywhere.  Downstream modules rely on that
exactness to make their outputs certifiable, so do not "optimize" any of it
into floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .cs_invariants import _validate_ints
from .errors import InvalidParams


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
        a, b = _validate_ints((self.a, self.b), "each of a, b")
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
    """Symmetric integer matrix of dimension >= 1, stored as an immutable
    tuple of row tuples of ints."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # Lists first: tuple(generator) resizes as it grows, fragmenting the heap.
        rows = tuple([tuple(_validate_ints(row, "a matrix entry")) for row in self.entries])
        n = len(rows)
        if n == 0:
            raise InvalidParams("a form has dimension >= 1, got 0")
        for row in rows:
            if len(row) != n:
                raise InvalidParams("matrix is not square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise InvalidParams(f"matrix is not symmetric at ({i}, {j})")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "SymIntMatrix":
        return cls(rows)

    @classmethod
    def identity(cls, n: int, scale: int = 1) -> "SymIntMatrix":
        """scale * I_n (use scale=-1 for the negative definite -I_n)."""
        return cls.diagonal([scale] * n)

    @classmethod
    def diagonal(cls, values: Sequence[int]) -> "SymIntMatrix":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def dimension(self) -> int:
        return len(self.entries)

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


def _argmin_abs_nonzero(a: list[list[int]], t: int, nr: int, nc: int) -> tuple[int, int] | None:
    best = None
    for i in range(t, nr):
        for j in range(t, nc):
            v = abs(a[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(m: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form of a rectangular integer matrix, with transforms.

    Classic pivot-and-reduce algorithm: repeatedly move a least-magnitude
    entry to the pivot position, run Euclidean reduction on its row and
    column, then absorb any entry of the remaining block that the pivot
    fails to divide.  The transforms ride in the matrix being reduced: row i
    of A is extended by row i of I_nr, which becomes row i of left, and the
    rows of I_nc stacked below become right.  Row operations act on the top
    rows and column operations on the first nc columns, so left @ A @ right
    equals the diagonal result by construction.
    """
    rows = [_validate_ints(row, "a matrix entry") for row in m]
    if not rows or not rows[0]:
        raise InvalidParams("matrix must have at least one row and one column")
    nr, nc = len(rows), len(rows[0])
    if any(len(row) != nc for row in rows):
        raise InvalidParams("matrix is not rectangular")
    a = [row + [int(i == j) for j in range(nr)] for i, row in enumerate(rows)]
    a += [[int(i == j) for j in range(nc)] for i in range(nc)]

    def add_row(dst: int, src: int, mult: int) -> None:
        a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]

    def add_col(dst: int, src: int, mult: int) -> None:
        for row in a:
            row[dst] += mult * row[src]

    t = 0
    rank_bound = min(nr, nc)
    while t < rank_bound:
        pos = _argmin_abs_nonzero(a, t, nr, nc)
        if pos is None:
            break
        i, j = pos
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
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

    return SNFResult(
        diagonal=tuple(a[i][i] for i in range(rank_bound)),
        left=tuple(tuple(row[nc:]) for row in a[:nr]),
        right=tuple(tuple(row) for row in a[nr:]),
    )


def definiteness(m: SymIntMatrix) -> Definiteness:
    """Classify a symmetric integer matrix by the signs of its eigenvalues.

    Exact throughout, in one fraction-free symmetric (Bareiss) elimination
    over the integers: the active entries are bordered leading minors, so
    every update divides exactly, and the sign of the t-th LDL^T pivot is
    sign(D_{t+1}) * sign(D_t), D_k the k-th leading minor (D_0 = 1).  When
    the active diagonal vanishes, a symmetric swap or a rank-two congruence
    (row_i += row_j, col_i += col_j) makes a nonzero pivot without changing
    the inertia; an all-zero active block means det = 0, so the form is
    Degenerate even when both signs have been seen.  No floating point is
    involved.
    """
    d = m.dimension
    a = [list(row) for row in m.entries]
    pos = neg = 0
    prev = 1
    for t in range(d):
        if a[t][t] == 0:
            r = next((i for i in range(t + 1, d) if a[i][i]), None)
            if r is None:
                pair = next(
                    ((i, j) for i in range(t, d) for j in range(i + 1, d) if a[i][j]),
                    None,
                )
                if pair is None:
                    return Definiteness.DEGENERATE
                # Bordered minors are linear in the bordering row and column,
                # so the congruence acts on the active entries directly.
                i, j = pair
                for c in range(t, d):
                    a[i][c] += a[j][c]
                for rr in range(t, d):
                    a[rr][i] += a[rr][j]
                r = i
            if r != t:
                a[r], a[t] = a[t], a[r]
                for row in a[t:]:
                    row[r], row[t] = row[t], row[r]
        piv = a[t][t]
        if (piv > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        # Update the upper half of the active block and mirror it; stale
        # rows and columns are never read again.
        top = a[t]
        for i in range(t + 1, d):
            row = a[i]
            f = row[t]
            for j in range(i, d):
                row[j] = a[j][i] = (piv * row[j] - f * top[j]) // prev
        prev = piv
    if pos and neg:
        return Definiteness.INDEFINITE
    return Definiteness.POSITIVE_DEFINITE if neg == 0 else Definiteness.NEGATIVE_DEFINITE
