"""Rules that live in one place, and facts that hold without a runtime check.

The (p, q, k) validation, the twist rule and the orientation rule are each
one helper called from every site that takes such a value, and the package
source holds no assert
statement: asserts vanish under python -O, so runtime invariants are
explicit domain errors, and facts that hold by construction are checked
here instead.
"""

import ast
from dataclasses import replace
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotcert import (
    KILL_LONGITUDE,
    KILL_MERIDIAN,
    BranchedCover,
    BrieskornSphere,
    Family,
    InvalidParams,
    SatelliteParams,
    Slope,
    TorusGluingMap,
    TorusLinkExterior,
    UnsupportedSlope,
    build_R,
    furuta_chain_check,
    lens_cs_lower_bound,
    moser_identify,
    next_member,
    pontryagin_number,
    post_surgery_gluing,
    slope_from_filling,
    tau_brieskorn_family,
)
from knotcert import cobordisms

SETTINGS = settings(max_examples=60, deadline=None)
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "knotcert"


def test_package_source_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@SETTINGS
@given(st.integers(-1, 12), st.integers(-1, 12), st.integers(-1, 4))
def test_every_site_applies_the_same_triple_rule(p, q, k):
    pair_ok = p >= 2 and q >= 2 and gcd(p, q) == 1
    triple_sites = [
        tau_brieskorn_family,
        pontryagin_number,
        lens_cs_lower_bound,
        lambda p, q, k: furuta_chain_check([(p, q, k)]),
    ]
    pair_sites = [
        lambda p, q: moser_identify(p, q, Slope(1, 0)),
        lambda p, q: SatelliteParams(2, p, q),
    ]
    for fn in triple_sites:
        if pair_ok and k >= 1:
            fn(p, q, k)
        else:
            with pytest.raises(InvalidParams):
                fn(p, q, k)
    for fn in pair_sites:
        if pair_ok:
            fn(p, q)
        else:
            with pytest.raises(InvalidParams):
                fn(p, q)
    if pair_ok and k >= 1:
        assert 0 < pontryagin_number(p, q, k) <= Fraction(1, 30)


@SETTINGS
@given(st.integers(-3, 12))
def test_every_site_applies_the_same_twist_rule(n):
    ok = n >= 2 and n % 2 == 0
    start = Family((SatelliteParams(2, 2, 3),))
    sites = [
        ("n", lambda n: SatelliteParams(n, 2, 3)),
        ("n", TorusLinkExterior),
        ("fix_n", lambda n: next_member(start, fix_n=n)),
    ]
    for name, fn in sites:
        if ok:
            fn(n)
        else:
            with pytest.raises(InvalidParams, match=f"^{name} must be a positive even integer, got {n}$"):
                fn(n)


@SETTINGS
@given(st.integers(-3, 3))
def test_every_site_applies_the_same_orientation_rule(o):
    params = SatelliteParams(2, 2, 3)
    sites = [
        ("orientation", lambda o: BranchedCover(params, o)),
        ("orientation", lambda o: BrieskornSphere(2, 3, 5, o)),
        ("orientation", lambda o: replace(build_R(params), orientation=o)),
        ("handle_sign", lambda o: post_surgery_gluing(2, o)),
    ]
    for name, fn in sites:
        if o in (1, -1):
            fn(o)
        else:
            with pytest.raises(InvalidParams, match=f"^{name} must be \\+1 or -1$"):
                fn(o)


@SETTINGS
@given(
    st.lists(st.tuples(st.booleans(), st.integers(-6, 6)), max_size=6),
    st.booleans(),
    st.sampled_from([KILL_MERIDIAN, KILL_LONGITUDE]),
)
def test_filling_slope_maps_to_the_killed_class(steps, flip, killed):
    g = TorusGluingMap(((1, 0), (0, -1 if flip else 1)))
    for upper, k in steps:
        g = g.compose(TorusGluingMap(((1, k), (0, 1)) if upper else ((1, 0), (k, 1))))
    s = slope_from_filling(g, killed)
    assert g.apply((s.a, s.b)) in (killed, (-killed[0], -killed[1]))


def test_R_refuses_a_cap_that_is_not_the_three_sphere(monkeypatch):
    monkeypatch.setattr(cobordisms, "moser_identify", lambda p, q, s: BrieskornSphere(p, q, 11))
    with pytest.raises(UnsupportedSlope):
        build_R(SatelliteParams(2, 2, 3))
