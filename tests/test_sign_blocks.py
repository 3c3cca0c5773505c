"""Intersection forms carried as sign and size, against the dense path.

A cobordism record holds its form as sign * I_handle_count, and the
assembled manifold X holds its form -I_rank as that rank, with the class a
constant of the certificate.  These tests materialise the dense matrices
and compare with exactmath.definiteness on them.  A record's orientation
also fixes its boundaries, checked against the as-built spheres.
"""

import itertools
import time
from dataclasses import replace
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from knotcert import (
    BoundaryComponent,
    BranchedCover,
    BrieskornSphere,
    Definiteness,
    Family,
    SatelliteParams,
    SymIntMatrix,
    assemble_X,
    build_P,
    build_R,
    build_Z,
    certify_family,
    default_crossing_count,
    definiteness,
    generate_family,
    reverse_orientation,
)

SETTINGS = settings(max_examples=40, deadline=None)
PAIRS = [(p, q) for p, q in itertools.permutations(range(2, 8), 2) if gcd(p, q) == 1]


def satellites(max_n):
    return st.builds(
        lambda half_n, pq: SatelliteParams(2 * half_n, *pq),
        st.integers(1, max_n // 2),
        st.sampled_from(PAIRS),
    )


@SETTINGS
@given(satellites(12), st.sampled_from("ZRP"), st.integers(1, 12), st.sampled_from((1, -1)))
def test_record_form_is_its_sign_times_identity(s, label, crossings, orientation):
    builders = {"Z": lambda: build_Z(s, crossings=crossings), "R": lambda: build_R(s), "P": lambda: build_P(s)}
    built = builders[label]()
    record = replace(built, orientation=orientation)
    assert record == (built if orientation == 1 else reverse_orientation(built))
    npq = s.n * s.p * s.q
    as_built = {
        "Z": (BoundaryComponent(BrieskornSphere(s.p, s.q, npq - 1, orientation=-1)),),
        "R": (),  # S^3, capped with a 4-ball
        "P": (BoundaryComponent(BrieskornSphere(s.p, s.q, 2 * npq - 1, orientation=-1), 2),),
    }[label]
    assert record.incoming == BoundaryComponent(BranchedCover(s, orientation))
    assert record.outgoing == (as_built if orientation == 1 else tuple(b.reversed() for b in as_built))
    sign = (1 if label == "P" else -1) * orientation
    assert record.sign == sign
    assert record.handle_count == (crossings if label == "Z" else s.n)
    assert record.form == SymIntMatrix.identity(record.handle_count, sign)
    expected = Definiteness.NEGATIVE_DEFINITE if sign < 0 else Definiteness.POSITIVE_DEFINITE
    assert definiteness(record.form) is expected
    assert reverse_orientation(reverse_orientation(record)) == record


@st.composite
def combinations(draw):
    # At most 3 members with n <= 4, |c| <= 2 and p, q <= 7: dimension <= 40.
    members = draw(st.lists(satellites(4), min_size=1, max_size=3))
    cs = draw(
        st.lists(st.integers(-2, 2), min_size=len(members), max_size=len(members)).filter(any)
    )
    return members, cs


@SETTINGS
@given(combinations())
def test_assembled_blocks_match_the_dense_form(combination):
    members, cs = combination
    top = max(i for i, c in enumerate(cs) if c)
    expected = default_crossing_count(members[top].p, members[top].q) + sum(
        abs(c) * m.n for m, c in zip(members, cs)
    )
    family = Family(tuple(members))
    assembled = assemble_X(family, cs)
    assert assembled.rank == expected
    form = assembled.form
    assert form == SymIntMatrix.identity(expected, scale=-1)
    assert certify_family(family, cs).total_form_definiteness is definiteness(form)


def test_thousand_member_free_n_chain_certifies_in_under_a_second():
    family = generate_family(SatelliteParams(2, 2, 3), 1000)
    start = time.perf_counter()
    cert = certify_family(family)
    elapsed = time.perf_counter() - start
    assert cert.verdict.independent
    assert cert.total_form_definiteness is Definiteness.NEGATIVE_DEFINITE
    assert elapsed < 1.0
    last = family.members[-1]
    dimension = assemble_X(family, [1] * len(family)).rank
    assert dimension == default_crossing_count(last.p, last.q) + sum(m.n for m in family.members)
    assert dimension.bit_length() > 1000  # far beyond any dense form
