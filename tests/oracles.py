"""Independent oracles used to verify the library.

Everything here deliberately avoids the library's own code paths: the
cotangent sum is evaluated directly in mpmath without rational argument
reduction (and, as a frozen accuracy reference, over its full range by the
high-level mpmath expression the library used before it moved to
mpmath.libmp), determinants use Fraction Gaussian elimination rather than the
library's fraction-free scheme, definiteness is decided by brute-force
quadratic-form evaluation, the 2x2 Smith form is found by breadth-first
search over elementary unimodular operations, and chain successors come from
walking every coprime pair in order.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

import mpmath
import numpy as np


def r_oracle(a1: int, a2: int, a3: int, bits: int = 256):
    """Direct high-precision evaluation of the index cotangent sum.

    Returns (value, nearest integer, residual).  Computed before the main
    build; the frozen expected values in the tests come from this function.
    """
    with mpmath.workprec(bits):
        a = a1 * a2 * a3
        total = mpmath.mpf(2) / a
        for ai in (a1, a2, a3):
            inner = mpmath.mpf(0)
            for k in range(1, ai):
                inner += (
                    mpmath.cot(mpmath.pi * a * k / ai**2)
                    * mpmath.cot(mpmath.pi * k / ai)
                    * mpmath.sin(mpmath.pi * k / ai) ** 2
                )
            total += 2 * inner / ai
        rounded = int(mpmath.nint(total))
        return total, rounded, abs(total - rounded)


def cotangent_sum_reference(a1: int, a2: int, a3: int, bits: int) -> mpmath.mpf:
    """fs_invariant._cotangent_sum as it stood in knotcert 0.2.0, verbatim.

    The accuracy oracle: it sums all a_i - 1 terms per multiplicity with
    mpmath's high-level functions at `bits`, and the library's half-range
    fixed-point sum must lie within 2*(a1 + a2 + a3) ulps (2^-bits) of it.
    """
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


def det_exact(rows) -> Fraction:
    """Determinant by plain Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


_VECTOR_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _box_vectors(dim: int, bound: int) -> np.ndarray:
    """All nonzero integer vectors with coordinates in [-bound, bound]."""
    key = (dim, bound)
    if key not in _VECTOR_CACHE:
        r = np.arange(-bound, bound + 1, dtype=np.int8)
        grid = np.meshgrid(*([r] * dim), indexing="ij")
        v = np.stack(grid, axis=-1).reshape(-1, dim)
        _VECTOR_CACHE[key] = v[np.any(v, axis=1)]
    return _VECTOR_CACHE[key]


def box_definiteness_oracle(rows, bound: int = 3) -> str:
    """Brute-force classification of a symmetric integer form.

    Degenerate iff the determinant vanishes; otherwise the form is scanned
    over every nonzero integer vector with coordinates in [-bound, bound]
    (early exit once values of both signs have been seen).
    """
    if det_exact(rows) == 0:
        return "Degenerate"
    m = np.array(rows, dtype=np.int64)
    vectors = _box_vectors(m.shape[0], bound)
    seen_nonpos = seen_nonneg = False
    for start in range(0, len(vectors), 250_000):
        v = vectors[start : start + 250_000].astype(np.int64)
        vals = np.einsum("ij,jk,ik->i", v, m, v)
        seen_nonpos = seen_nonpos or bool((vals <= 0).any())
        seen_nonneg = seen_nonneg or bool((vals >= 0).any())
        if seen_nonpos and seen_nonneg:
            return "Indefinite"
    if not seen_nonpos:
        return "PositiveDefinite"
    return "NegativeDefinite"


def _snf_2x2_neighbors(m):
    (a, b), (c, d) = m
    yield ((c, d), (a, b))  # swap rows
    yield ((b, a), (d, c))  # swap cols
    yield ((-a, -b), (c, d))  # negate row
    yield ((-a, b), (-c, d))  # negate col
    for s in (1, -1):
        yield ((a + s * c, b + s * d), (c, d))  # row0 += s*row1
        yield ((a, b), (c + s * a, d + s * b))  # row1 += s*row0
        yield ((a + s * b, b), (c + s * d, d))  # col0 += s*col1
        yield ((a, b + s * a), (c, d + s * c))  # col1 += s*col0


def snf_bruteforce_2x2(rows, max_states: int = 500_000) -> tuple[int, int]:
    """Smith diagonal of a 2x2 integer matrix by BFS over unimodular ops."""
    start = tuple(tuple(int(v) for v in row) for row in rows)
    limit = 8 * (1 + max(abs(v) for row in start for v in row))
    seen = {start}
    queue = deque([start])
    while queue:
        if len(seen) > max_states:
            raise RuntimeError("search space exhausted")
        m = queue.popleft()
        (a, b), (c, d) = m
        if b == 0 and c == 0 and a >= 0 and d >= 0:
            if (a == 0 and d == 0) or (a != 0 and d % a == 0):
                return (a, d)
        for nb in _snf_2x2_neighbors(m):
            if nb in seen or any(abs(v) > limit for row in nb for v in row):
                continue
            seen.add(nb)
            queue.append(nb)
    raise RuntimeError("no Smith form reachable within the entry bound")


def random_coprime_pair(rng, lo: int = 2, hi: int = 12) -> tuple[int, int]:
    from math import gcd

    while True:
        p = rng.randint(lo, hi)
        q = rng.randint(lo, hi)
        if p != q and gcd(p, q) == 1:
            return p, q


def random_coprime_triple(rng, lo: int = 2, hi: int = 50) -> tuple[int, int, int]:
    from math import gcd

    while True:
        a = sorted(rng.randint(lo, hi) for _ in range(3))
        if a[0] < a[1] < a[2] and gcd(a[0], a[1]) == 1 and gcd(a[0], a[2]) == 1 and gcd(a[1], a[2]) == 1:
            return tuple(a)


def successor_oracle(n: int, p: int, q: int, fix_n: int | None = None) -> tuple[int, int, int]:
    """Chain successor of D_n(T_{p,q}) by enumeration.

    Walks the coprime pairs 2 <= p' < q' by product, then by q' - p', and
    returns the first (n', p', q') whose growth p'q'(n'p'q' - 1) exceeds the
    doubled growth pq(2npq - 1); n' is fix_n when given, else the least even
    n' >= 2 that works for the pair.
    """
    bound = p * q * (2 * n * p * q - 1)
    for product in itertools.count(6):
        pairs = [
            (a, product // a)
            for a in range(2, math.isqrt(product) + 1)
            if product % a == 0 and a < product // a and math.gcd(a, product // a) == 1
        ]
        for a, b in sorted(pairs, key=lambda ab: ab[1] - ab[0]):
            if fix_n is not None:
                if product * (fix_n * product - 1) > bound:
                    return (fix_n, a, b)
                continue
            m = 2
            while product * (m * product - 1) <= bound:
                m += 2
            return (m, a, b)
