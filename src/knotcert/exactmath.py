"""Exact integer linear algebra: symmetric forms, Smith form, definiteness.

Everything in this module is pure and exact: arbitrary-precision Python
integers, no floating point anywhere.  Downstream modules rely on that
exactness to make their outputs certifiable, so do not "optimize" any of it
into floats.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import Definiteness, InvalidParams, _shown, _validate_ints, _Value


class SymIntMatrix(_Value):
    """Symmetric integer matrix of dimension >= 1, stored as an immutable
    tuple of row tuples of ints."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable[int]]):
        # The checks and normalisation stay in __post_init__, which bench/tracer.py wraps.
        self._set(entries)
        self.__post_init__()

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
        self._set(rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "SymIntMatrix":
        return cls(rows)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(v) for v in row) for row in self.entries) + "]"


class SNFResult(_Value):
    """Smith normal form D = left @ A @ right.

    diagonal holds the invariant factors (non-negative, each dividing the
    next, zeros trailing); left and right are unimodular (det = +-1).
    """

    __slots__ = ("diagonal", "left", "right")

    def __init__(
        self, diagonal: tuple[int, ...], left: tuple[tuple[int, ...], ...], right: tuple[tuple[int, ...], ...]
    ):
        self._set(diagonal, left, right)


def smith_normal_form(m: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form of a rectangular integer matrix, with transforms.

    Phase 1 diagonalizes.  At each position t a least-magnitude entry of the
    active block moves to (t, t), and row t and column t are reduced by
    nearest-integer quotients, leaving remainders of at most half the pivot.
    While one is left, the least becomes the pivot by one swap and the
    reduction repeats; each new pivot is a remainder, smaller than the last
    pivot, so this ends.  Phase 2 makes the divisibility chain: where d_i
    does not divide d_j (i < j), with g = gcd(d_i, d_j) = s*d_i + u*d_j, one
    determinant-1 step on each transform replaces (d_i, d_j) by (g, lcm).
    Row i of A carries row i of left and right is kept transposed, so each
    row or column operation is one pass over a list, and left @ A @ right
    equals the diagonal by construction.
    """
    rows = [_validate_ints(row, "a matrix entry") for row in m]
    if not rows or not rows[0]:
        raise InvalidParams("matrix must have at least one row and one column")
    nr, nc = len(rows), len(rows[0])
    if any(len(row) != nc for row in rows):
        raise InvalidParams("matrix is not rectangular")
    a = [row + [int(i == j) for j in range(nr)] for i, row in enumerate(rows)]
    rt = [[int(i == j) for j in range(nc)] for i in range(nc)]  # right, transposed

    def swap_cols(t: int, k: int) -> None:  # rows above t are zero in both columns
        for row in a[t:]:
            row[t], row[k] = row[k], row[t]
        rt[t], rt[k] = rt[k], rt[t]

    for t in range(min(nr, nc)):
        # The least nonzero |entry| of the active block, first in row order.
        lows = [min(map(abs, filter(None, row[t:nc])), default=math.inf) for row in a[t:]]
        least = min(lows)
        if least == math.inf:
            break
        i = t + lows.index(least)
        j = next(j for j in range(t, nc) if abs(a[i][j]) == least)
        a[t], a[i] = a[i], a[t]
        swap_cols(t, j)
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            top, piv = a[t], a[t][t]
            # One pass over the rows applies all of this pivot's column steps.
            steps = [(j, q) for j in range(t + 1, nc) if (q := (2 * top[j] + piv) // (2 * piv))]
            for row in a[t:]:
                f = row[t]
                if f:
                    for j, q in steps:
                        row[j] -= q * f
            for j, q in steps:
                rt[j] = [x - q * y for x, y in zip(rt[j], rt[t])]
            for i in range(t + 1, nr):
                q = (2 * a[i][t] + piv) // (2 * piv)
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], top)]
            rest = min(
                [(abs(top[j]), 0, j) for j in range(t + 1, nc) if top[j]]
                + [(abs(a[i][t]), 1, i) for i in range(t + 1, nr) if a[i][t]],
                default=None,
            )
            if rest is None:
                break
            _, in_col, k = rest
            if in_col:
                a[t], a[k] = a[k], a[t]
            else:
                swap_cols(t, k)

    d = [a[i][i] for i in range(min(nr, nc))]  # zeros trail
    left = [row[nc:] for row in a]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[i] and d[j] % d[i]:
                g = math.gcd(d[i], d[j])
                di, dj = d[i] // g, d[j] // g
                s = pow(di, -1, dj)  # s*d_i + u*d_j = g
                u = (1 - s * di) // dj
                li, lj = left[i], left[j]
                left[i] = [s * x + u * y for x, y in zip(li, lj)]
                left[j] = [di * y - dj * x for x, y in zip(li, lj)]
                ri, rj = rt[i], rt[j]
                rt[i] = [x + y for x, y in zip(ri, rj)]
                rt[j] = [s * di * y - u * dj * x for x, y in zip(ri, rj)]
                d[i], d[j] = g, d[i] * dj
    return SNFResult(
        diagonal=tuple(d),
        left=tuple(map(tuple, left)),
        right=tuple(zip(*rt)),
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
