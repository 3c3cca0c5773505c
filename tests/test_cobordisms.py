"""The Z/R/P cobordism records: boundaries, forms, reversal."""

import itertools
from dataclasses import replace
from math import gcd

import pytest

from knotcert import (
    KILL_LONGITUDE,
    BoundaryComponent,
    BranchedCover,
    BrieskornSphere,
    CobordismLabel,
    CobordismRecord,
    Definiteness,
    InvalidParams,
    SatelliteParams,
    SymIntMatrix,
    ThreeSphere,
    build_P,
    build_R,
    build_Z,
    default_crossing_count,
    definiteness,
    double_cover_decomposition,
    moser_identify,
    reverse_orientation,
    slope_from_filling,
)


def coprime_pairs(limit=7):
    for p, q in itertools.permutations(range(2, limit + 1), 2):
        if gcd(p, q) == 1:
            yield p, q


def test_build_Z_examples():
    z = build_Z(SatelliteParams(2, 2, 3))
    assert z.handle_count == 1  # trefoil unknots in one crossing change
    assert z.form == SymIntMatrix.identity(1, scale=-1)
    assert z.outgoing[0].space == BrieskornSphere(2, 3, 11, orientation=-1)
    assert z.outgoing[0].multiplicity == 1

    z2 = build_Z(SatelliteParams(2, 2, 5))
    assert z2.handle_count == 2
    assert z2.outgoing[0].space == BrieskornSphere(2, 5, 19, orientation=-1)


def test_build_Z_crossing_override():
    z = build_Z(SatelliteParams(2, 2, 3), crossings=5)
    assert z.handle_count == 5
    assert z.form == SymIntMatrix.identity(5, scale=-1)
    # boundary data does not depend on the unknotting sequence chosen
    assert z.outgoing == build_Z(SatelliteParams(2, 2, 3)).outgoing
    with pytest.raises(InvalidParams):
        build_Z(SatelliteParams(2, 2, 3), crossings=0)


def test_build_R_examples():
    r = build_R(SatelliteParams(2, 2, 3))
    assert r.form == SymIntMatrix.identity(2, scale=-1)
    assert r.outgoing == ()
    assert r.h1_z2_trivial is True
    assert build_R(SatelliteParams(4, 2, 3)).form == SymIntMatrix.identity(4, scale=-1)


def test_build_P_examples():
    p = build_P(SatelliteParams(2, 2, 3))
    assert p.form == SymIntMatrix.identity(2)
    assert len(p.outgoing) == 1
    assert p.outgoing[0].space == BrieskornSphere(2, 3, 23, orientation=-1)
    assert p.outgoing[0].multiplicity == 2
    p2 = build_P(SatelliteParams(2, 2, 5))
    assert p2.outgoing[0].space == BrieskornSphere(2, 5, 39, orientation=-1)


def test_incoming_is_the_branched_cover():
    for builder in (build_Z, build_R, build_P):
        rec = builder(SatelliteParams(2, 3, 5))
        assert rec.incoming.space == BranchedCover(SatelliteParams(2, 3, 5))
        assert rec.incoming.multiplicity == 1


def test_label_invariants_exhaustive():
    for n in range(2, 11, 2):
        for p, q in coprime_pairs():
            params = SatelliteParams(n, p, q)
            z, r, pb = build_Z(params), build_R(params), build_P(params)

            assert z.label is CobordismLabel.Z
            c = default_crossing_count(p, q)
            assert z.handle_count == c == (p - 1) * (q - 1) // 2
            assert z.form == SymIntMatrix.identity(c, scale=-1)
            assert definiteness(z.form) is Definiteness.NEGATIVE_DEFINITE
            assert [b.space for b in z.outgoing] == [
                BrieskornSphere(p, q, n * p * q - 1, orientation=-1)
            ]

            assert r.form == SymIntMatrix.identity(n, scale=-1)
            assert definiteness(r.form) is Definiteness.NEGATIVE_DEFINITE
            assert r.outgoing == ()

            assert pb.form == SymIntMatrix.identity(n)
            assert definiteness(pb.form) is Definiteness.POSITIVE_DEFINITE
            assert pb.outgoing[0].multiplicity == 2
            assert pb.outgoing[0].space == BrieskornSphere(p, q, 2 * n * p * q - 1, orientation=-1)

            assert z.h1_z2_trivial and r.h1_z2_trivial and pb.h1_z2_trivial


def test_outgoing_agrees_with_slope_calculus():
    for n in (2, 4, 6):
        for p, q in [(2, 3), (3, 5), (2, 7)]:
            params = SatelliteParams(n, p, q)
            gluing = double_cover_decomposition(params).gluings[0]
            expected = moser_identify(p, q, slope_from_filling(gluing, KILL_LONGITUDE))
            assert build_Z(params).outgoing[0].space == expected


def test_index_growth_P_exceeds_Z():
    for n in range(2, 11, 2):
        for p, q in coprime_pairs():
            assert 2 * n * p * q - 1 > n * p * q - 1


def test_reverse_orientation():
    p = build_P(SatelliteParams(2, 2, 3))
    rev = reverse_orientation(p)
    assert rev.form == SymIntMatrix.identity(2, scale=-1)
    assert definiteness(rev.form) is Definiteness.NEGATIVE_DEFINITE
    assert rev.outgoing[0].space == BrieskornSphere(2, 3, 23, orientation=1)
    assert rev.outgoing[0].multiplicity == 2
    assert rev.incoming.space == BranchedCover(SatelliteParams(2, 2, 3), orientation=-1)
    assert rev.orientation == -1

    r = build_R(SatelliteParams(2, 2, 3))
    assert reverse_orientation(r).form == SymIntMatrix.identity(2)


def test_setting_orientation_reverses_both_boundaries():
    s = SatelliteParams(2, 2, 3)
    for builder in (build_Z, build_R, build_P):
        built = builder(s)
        flipped = replace(built, orientation=-1)
        assert flipped == reverse_orientation(built)
        assert flipped.incoming == built.incoming.reversed()
        assert flipped.outgoing == tuple(b.reversed() for b in built.outgoing)
    flipped = replace(build_P(s), orientation=-1)
    assert flipped.sign == -1
    assert flipped.incoming == BoundaryComponent(BranchedCover(s, orientation=-1))
    assert flipped.outgoing == (BoundaryComponent(BrieskornSphere(2, 3, 23), multiplicity=2),)


def test_R_and_P_refuse_a_handle_count_other_than_n():
    s = SatelliteParams(2, 2, 3)
    for label in (CobordismLabel.R, CobordismLabel.P):
        for count in (s.n - 1, s.n + 2):
            with pytest.raises(InvalidParams):
                CobordismRecord(label, s, count)
        assert CobordismRecord(label, s, s.n) == {"R": build_R, "P": build_P}[label.value](s)
    with pytest.raises(InvalidParams):
        CobordismRecord(CobordismLabel.Z, s, 0)
    assert CobordismRecord(CobordismLabel.Z, s, 7) == build_Z(s, crossings=7)


def test_reverse_is_an_involution():
    for builder in (build_Z, build_R, build_P):
        rec = builder(SatelliteParams(4, 3, 5))
        assert reverse_orientation(reverse_orientation(rec)) == rec


def test_three_sphere_reversal_is_identity():
    s = ThreeSphere()
    assert s.reversed() == s
