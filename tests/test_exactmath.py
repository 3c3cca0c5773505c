"""Exact linear algebra: Smith form, definiteness, rationals."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from knotcert import (
    Definiteness,
    InvalidParams,
    SymIntMatrix,
    definiteness,
    smith_normal_form,
)
from oracles import box_definiteness_oracle, det_exact, snf_bruteforce_2x2


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def random_symmetric(rng, dim, bound=5):
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return rows


# --- Smith normal form ----------------------------------------------------


def test_snf_frozen_2x2_values_match_bruteforce_oracle():
    # Expected diagonals computed first by BFS over unimodular row/column ops.
    assert snf_bruteforce_2x2([[2, 0], [0, 3]]) == (1, 6)
    assert snf_bruteforce_2x2([[2, 4], [4, 8]]) == (2, 0)
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert smith_normal_form([[2, 4], [4, 8]]).diagonal == (2, 0)


def test_snf_identity_matrix():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert smith_normal_form(eye).diagonal == (1, 1, 1)


def test_snf_rejects_empty_and_ragged():
    with pytest.raises(InvalidParams):
        smith_normal_form([])
    with pytest.raises(InvalidParams):
        smith_normal_form([[1, 2], [3]])


def _check_snf(a):
    res = smith_normal_form(a)
    nr, nc = len(a), len(a[0])
    d = mat_mul(mat_mul([list(r) for r in res.left], a), [list(r) for r in res.right])
    for i in range(nr):
        for j in range(nc):
            expected = res.diagonal[i] if i == j else 0
            assert d[i][j] == expected
    assert all(v >= 0 for v in res.diagonal)
    for i in range(len(res.diagonal) - 1):
        lo, hi = res.diagonal[i], res.diagonal[i + 1]
        if lo == 0:
            assert hi == 0
        else:
            assert hi % lo == 0
    assert abs(det_exact(res.left)) == 1
    assert abs(det_exact(res.right)) == 1
    return res


def test_snf_transform_identity_and_chain_random():
    rng = random.Random(101)
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        _check_snf(a)


def test_snf_invariant_factors_match_sympy():
    rng = random.Random(202)
    for _ in range(50):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        res = smith_normal_form(a)
        factors = [abs(int(v)) for v in invariant_factors(sympy.Matrix(a))]
        mine = [v for v in res.diagonal if v != 0]
        assert mine == [f for f in factors if f != 0], (a, res.diagonal, factors)


def test_snf_huge_entries_stay_exact():
    a = [[10**30, 1], [0, 10**30]]
    res = _check_snf(a)
    assert res.diagonal == (1, 10**60)


@st.composite
def rectangular_matrices(draw):
    """1-6 x 1-6 integer matrices with small entries, sometimes one near 10^30."""
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = draw(st.lists(st.lists(st.integers(-9, 9), min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if draw(st.booleans()):
        big = draw(st.sampled_from([1, -1])) * 10**30 + draw(st.integers(-5, 5))
        a[draw(st.integers(0, nr - 1))][draw(st.integers(0, nc - 1))] = big
    return a


@settings(max_examples=200, deadline=None)
@given(rectangular_matrices())
def test_snf_transform_identity_and_chain_property(a):
    _check_snf(a)


# Phase 1 leaves a diagonal in pivot order, and phase 2 turns it into the
# divisibility chain; these cases exercise the chain step.
@pytest.mark.parametrize(
    "a, diagonal",
    [
        ([[6, 0, 0], [0, 4, 0], [0, 0, 10]], (2, 2, 60)),
        ([[0, 0, 0, 0, 0], [0, 4, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 6, 0]], (2, 12, 0, 0)),
        ([[-3, 0, 0], [0, 5, 0], [0, 0, -10]], (1, 5, 30)),
        ([[2, 0], [0, 3], [0, 0]], (1, 6)),
        ([[4, 0, 0], [0, 6, 0]], (2, 12)),
        ([[2], [4], [-6]], (2,)),
        ([[4, 6, -10]], (2,)),
        ([[3, -3], [-3, 3]], (3, 0)),
        ([[2, 2], [2, -2]], (2, 4)),
        ([[5, -5, 5], [-5, 5, 5], [5, 5, -5]], (5, 10, 10)),
    ],
)
def test_snf_chain_step_cases(a, diagonal):
    assert _check_snf(a).diagonal == diagonal


def test_snf_of_zero_matrix_has_identity_transforms():
    res = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert res.diagonal == (0, 0)
    assert res.left == ((1, 0), (0, 1))
    assert res.right == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def chain_matrix(d, rng):
    """(D, L D R): D a divisibility chain, sometimes with trailing zeros,
    mixed by 2d random elementary row and column operations, which keep the
    invariant factors."""
    chain = [1]
    for _ in range(d - 1):
        chain.append(chain[-1] * rng.choice((1, 1, 1, 2, 3)))
    for i in range(min(d, rng.choice((0, 0, 1, 2)))):
        chain[d - 1 - i] = 0
    rows = [[chain[i] if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(2 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        m = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + m * y for x, y in zip(rows[i], rows[j])]
        i, j = rng.sample(range(d), 2)
        m = rng.choice((-2, -1, 1, 2))
        for row in rows:
            row[i] += m * row[j]
    return tuple(chain), rows


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.randoms(use_true_random=False))
def test_snf_recovers_a_known_chain(d, rng):
    chain, a = chain_matrix(d, rng)
    assert _check_snf(a).diagonal == chain


def test_snf_transform_growth_stays_bounded():
    # Sum over six fixed 24x24 L D R matrices of the largest transform entry's
    # bit length: 1,903 for the single-loop algorithm of 0.12.0, 1,098 for the
    # two phases.
    total = 0
    for seed in range(6):
        chain, a = chain_matrix(24, random.Random(seed))
        res = smith_normal_form(a)
        assert res.diagonal == chain
        total += max(abs(v).bit_length() for row in res.left + res.right for v in row)
    assert total < 1300


# --- definiteness ----------------------------------------------------------


def test_definiteness_examples():
    minus_i3 = SymIntMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert definiteness(minus_i3) is Definiteness.NEGATIVE_DEFINITE
    assert definiteness(SymIntMatrix.from_rows([[2, 1], [1, 2]])) is Definiteness.POSITIVE_DEFINITE
    assert definiteness(SymIntMatrix.from_rows([[1, 2], [2, 1]])) is Definiteness.INDEFINITE


def test_definiteness_indefinite_example_matches_eigenvalue_oracle():
    # characteristic polynomial of [[1,2],[2,1]] has one root of each sign
    eigs = sympy.Matrix([[1, 2], [2, 1]]).eigenvals()
    signs = {int(sympy.sign(v)) for v in eigs}
    assert signs == {1, -1}


def test_definiteness_degenerate_iff_det_zero():
    assert definiteness(SymIntMatrix.from_rows([[2, 4], [4, 8]])) is Definiteness.DEGENERATE
    assert definiteness(SymIntMatrix.from_rows([[0]])) is Definiteness.DEGENERATE
    # mixed signs with a kernel still counts as Degenerate
    assert definiteness(SymIntMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 0]])) is Definiteness.DEGENERATE


def test_definiteness_zero_diagonal_hyperbolic_plane():
    assert definiteness(SymIntMatrix.from_rows([[0, 1], [1, 0]])) is Definiteness.INDEFINITE
    # nonsingular with an all-zero diagonal: eigenvalues 2, -1, -1
    assert (
        definiteness(SymIntMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        is Definiteness.INDEFINITE
    )


def test_zero_dimensional_matrix_rejected():
    with pytest.raises(InvalidParams, match="^a form has dimension >= 1, got 0$"):
        SymIntMatrix(())


def test_definiteness_agrees_with_box_oracle():
    rng = random.Random(303)
    for _ in range(150):
        dim = rng.randint(1, 6)
        rows = random_symmetric(rng, dim)
        assert definiteness(SymIntMatrix.from_rows(rows)).value == box_definiteness_oracle(rows)


def test_box_oracle_refuses_forms_its_float_scan_could_round():
    assert box_definiteness_oracle([[2**53 // 9 - 1]]) == "PositiveDefinite"
    with pytest.raises(ValueError, match="too large"):
        box_definiteness_oracle([[2**53 // 9 + 1]])


@st.composite
def congruent_forms(draw):
    """(rows, expected class): diag(D) + hyperbolic planes, optionally scaled
    by 10^30, then mixed by elementary congruences; by Sylvester's law of
    inertia the class is read off the signs before mixing."""
    planes = draw(st.integers(0, 3))
    diag = draw(st.lists(st.integers(-3, 3), min_size=0 if planes else 1, max_size=12 - 2 * planes))
    scale = draw(st.sampled_from([1, 10**30]))
    d = len(diag) + 2 * planes
    rows = [[0] * d for _ in range(d)]
    for i, v in enumerate(diag):
        rows[i][i] = scale * v
    for k in range(len(diag), d, 2):
        rows[k][k + 1] = rows[k + 1][k] = scale
    moves = st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(-2, 2))
    for i, j, mult in draw(st.lists(moves, max_size=30)):
        i, j = i % d, j % d
        if i != j:
            rows[i] = [x + mult * y for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[i] += mult * row[j]
    signs = {(v > 0) - (v < 0) for v in diag} | ({1, -1} if planes else set())
    if 0 in signs:
        expected = Definiteness.DEGENERATE
    elif signs == {1, -1}:
        expected = Definiteness.INDEFINITE
    else:
        expected = Definiteness.POSITIVE_DEFINITE if 1 in signs else Definiteness.NEGATIVE_DEFINITE
    return rows, expected


@settings(max_examples=300, deadline=None)
@given(congruent_forms())
def test_definiteness_obeys_sylvester_inertia(case):
    rows, expected = case
    assert definiteness(SymIntMatrix.from_rows(rows)) is expected


def test_definiteness_rank_two_congruence_step():
    # after the first pivot the active block is [[0, 1], [1, 0]]
    rows = [[1, 1, 1], [1, 1, 2], [1, 2, 1]]
    assert definiteness(SymIntMatrix.from_rows(rows)) is Definiteness.INDEFINITE


def test_definiteness_mixed_signs_with_kernel_stay_degenerate():
    # diag(1, -1, 0) after row/col 0 += row/col 2, row/col 2 += row/col 1 and
    # row/col 1 += 2 row/col 0: a positive and a negative pivot come before
    # the kernel shows up
    rows = [[1, 2, 0], [2, 3, -1], [0, -1, -1]]
    assert sympy.Matrix(rows).det() == 0
    assert definiteness(SymIntMatrix.from_rows(rows)) is Definiteness.DEGENERATE


def test_symintmatrix_validation():
    with pytest.raises(InvalidParams):
        SymIntMatrix.from_rows([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(InvalidParams):
        SymIntMatrix.from_rows([[1, 2]])  # not square


# --- block sums -------------------------------------------------------------


def block_diagonal_rows(blocks):
    total = sum(b.dimension for b in blocks)
    rows = [[0] * total for _ in range(total)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            rows[offset + i][offset : offset + b.dimension] = row
        offset += b.dimension
    return rows


def test_direct_sum_of_negative_definite_blocks_is_negative_definite():
    # The property that lets X's form be carried as a rank: each piece is
    # negative definite, so their block sum is too.
    rng = random.Random(404)
    for _ in range(50):
        blocks = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, 3)
            b = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            gram = [
                [-sum(b[r][i] * b[r][j] for r in range(k)) - (i == j) for j in range(k)]
                for i in range(k)
            ]
            block = SymIntMatrix.from_rows(gram)  # -(B^T B + I): negative definite
            assert definiteness(block) is Definiteness.NEGATIVE_DEFINITE
            blocks.append(block)
        rows = block_diagonal_rows(blocks)
        assert definiteness(SymIntMatrix.from_rows(rows)) is Definiteness.NEGATIVE_DEFINITE


# --- rationals ------------------------------------------------------------


def test_rational_arithmetic_is_exact():
    rng = random.Random(505)
    for _ in range(1000):
        a = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        b = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert (a + b) - b == a
        assert a.denominator > 0
