"""Satellite parameters, branched-cover splittings, and slope calculus."""

from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotcert import (
    KILL_LONGITUDE,
    KILL_MERIDIAN,
    THREE_SPHERE,
    BrieskornSphere,
    InvalidParams,
    SatelliteParams,
    Slope,
    ThreeSphere,
    TorusGluingMap,
    UnsupportedSlope,
    double_cover_decomposition,
    moser_identify,
    pattern_gluing_map,
    post_surgery_gluing,
    slope_from_filling,
)


def test_satellite_params_validation():
    SatelliteParams(2, 2, 3)
    with pytest.raises(InvalidParams):
        SatelliteParams(3, 2, 3)  # odd twists: nonzero winding number
    with pytest.raises(InvalidParams):
        SatelliteParams(0, 2, 3)
    with pytest.raises(InvalidParams):
        SatelliteParams(2, 2, 4)
    with pytest.raises(InvalidParams):
        SatelliteParams(2, 1, 3)


def test_decomposition_gluing_matrices():
    dec = double_cover_decomposition(SatelliteParams(2, 2, 3))
    assert dec.gluings[0].matrix == ((-2, 1), (1, 0))
    assert dec.gluings[1].matrix == ((-2, 1), (1, 0))
    dec4 = double_cover_decomposition(SatelliteParams(4, 2, 3))
    assert dec4.gluings[0].matrix == ((-4, 1), (1, 0))


def test_decomposition_determinant_and_link():
    for n in (2, 4, 6):
        dec = double_cover_decomposition(SatelliteParams(n, 2, 3))
        assert all(g.determinant == -1 for g in dec.gluings)
        assert dec.exterior_link.link_parameters == (2, -2 * n)
        assert dec.exterior_link.components == ("A1", "A2")
        assert dec.companion_copies == 2


def test_decomposition_is_pattern_only_data():
    # the same n with different companions gives identical splittings
    for p, q in [(2, 3), (3, 5), (2, 7), (5, 6)]:
        assert double_cover_decomposition(SatelliteParams(6, p, q)) == double_cover_decomposition(
            SatelliteParams(6, 2, 3)
        )


def test_gluing_map_must_be_unimodular():
    with pytest.raises(InvalidParams):
        TorusGluingMap(((2, 0), (0, 1)))


@pytest.mark.parametrize("matrix", [((1, 0),), ((1, 0), (0, 1), (0, 0)), ((1, 0, 0), (0, 1, 0)), ((1,), (0, 1))])
def test_gluing_map_must_be_2x2(matrix):
    with pytest.raises(InvalidParams, match="^gluing matrix must be 2x2$"):
        TorusGluingMap(matrix)


def test_slope_canonicalization():
    assert Slope(-1, -2) == Slope(1, 2)
    assert Slope(2, -3) == Slope(-2, 3)
    assert Slope(-1, 0) == Slope(1, 0)
    assert str(Slope(1, 4)) == "1/4"
    assert str(Slope(1, 0)) == "1/0"


def test_slope_rejects_invalid():
    with pytest.raises(InvalidParams):
        Slope(0, 0)
    with pytest.raises(InvalidParams):
        Slope(2, 4)
    with pytest.raises(InvalidParams):
        Slope(3, 0)


@given(st.integers(), st.integers())
def test_slope_canonical_form_property(a, b):
    if gcd(a, b) != 1:
        with pytest.raises(InvalidParams):
            Slope(a, b)
        return
    s = Slope(a, b)
    assert s == Slope(-a, -b)
    assert (s.a, s.b) in ((a, b), (-a, -b))
    assert s.b > 0 or (s.a, s.b) == (1, 0)


@given(st.integers(), st.integers(), st.integers(2, 10**6))
def test_slope_rejects_every_non_primitive_pair(a, b, m):
    with pytest.raises(InvalidParams):
        Slope(m * a, m * b)


def test_slope_examples():
    # meridional-disk filling of the pattern gluing: surgery coefficient 1/n
    assert slope_from_filling(pattern_gluing_map(2), KILL_LONGITUDE) == Slope(1, 2)
    # +1-framed handles compose to slope 1/(2n); -1-framed to 1/0
    assert slope_from_filling(post_surgery_gluing(2, +1), KILL_MERIDIAN) == Slope(1, 4)
    assert slope_from_filling(post_surgery_gluing(2, -1), KILL_MERIDIAN) == Slope(1, 0)


def test_slope_family_exhaustive():
    for n in range(2, 21, 2):
        assert slope_from_filling(pattern_gluing_map(n), KILL_LONGITUDE) == Slope(1, n)
        assert slope_from_filling(post_surgery_gluing(n, +1), KILL_MERIDIAN) == Slope(1, 2 * n)
        assert slope_from_filling(post_surgery_gluing(n, -1), KILL_MERIDIAN) == Slope(1, 0)


def test_slope_from_filling_validates_killed_class():
    with pytest.raises(InvalidParams):
        slope_from_filling(pattern_gluing_map(2), (1, 1))


def test_slope_solution_maps_to_killed_class():
    for n in (2, 4, 8):
        for killed in (KILL_MERIDIAN, KILL_LONGITUDE):
            g = pattern_gluing_map(n)
            s = slope_from_filling(g, killed)
            image = g.apply((s.a, s.b))
            assert image in (killed, (-killed[0], -killed[1]))


def test_moser_identification():
    assert moser_identify(2, 3, Slope(1, 2)) == BrieskornSphere(2, 3, 11, orientation=-1)
    assert moser_identify(2, 3, Slope(1, 0)) == THREE_SPHERE
    assert isinstance(moser_identify(5, 2, Slope(1, 0)), ThreeSphere)


def test_moser_rejects_unsupported_slopes():
    with pytest.raises(UnsupportedSlope):
        moser_identify(2, 3, Slope(2, 3))
    with pytest.raises(UnsupportedSlope):
        moser_identify(2, 3, Slope(-1, 2))
    with pytest.raises(InvalidParams):
        moser_identify(2, 4, Slope(1, 2))


def test_moser_output_multiplicities_pairwise_coprime():
    # gcd(p, m*p*q - 1) = gcd(q, m*p*q - 1) = 1 is an integer identity;
    # the sphere constructor re-checks it, so construction must succeed.
    for p, q in [(2, 3), (3, 4), (5, 7), (4, 9)]:
        for m in range(1, 8):
            sphere = moser_identify(p, q, Slope(1, m))
            assert gcd(p, m * p * q - 1) == 1
            assert gcd(q, m * p * q - 1) == 1
            assert sphere.orientation == -1
            assert sphere.multiplicities == tuple(sorted((p, q, m * p * q - 1)))
