"""Rules that live in one place, and facts that hold without a runtime check.

The integer rule, the (p, q, k) validation (its length included), the
twist rule and the orientation rule are each one helper called from every
site that takes such a value; a form's dimension >= 1 belongs to the SymIntMatrix constructor and
Z's crossing count >= 1 to CobordismRecord.  The package source holds no
assert statement: asserts vanish under python -O, so runtime invariants are
explicit domain errors, and facts that hold by construction are checked
here instead.
"""

import ast
import re
from dataclasses import replace
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotcert import (
    KILL_LONGITUDE,
    KILL_MERIDIAN,
    THREE_SPHERE,
    BoundaryComponent,
    BranchedCover,
    BrieskornSphere,
    CobordismLabel,
    CobordismRecord,
    Family,
    H1Data,
    InvalidParams,
    SatelliteParams,
    Slope,
    SymIntMatrix,
    TorusGluingMap,
    TorusLinkExterior,
    assemble_X,
    build_P,
    build_R,
    build_Z,
    certify_family,
    compactness_check,
    doubled_growth,
    furuta_chain_check,
    generate_family,
    lens_cs_lower_bound,
    moser_identify,
    next_member,
    pattern_gluing_map,
    pontryagin_number,
    post_surgery_gluing,
    reverse_orientation,
    slope_from_filling,
    smith_normal_form,
    tau_brieskorn_family,
)
from knotcert import cobordisms, covers
from knotcert.cs_invariants import _validate_ints

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


@pytest.mark.parametrize("triple", [(2, 3), (2, 3, 1, 1)])
@pytest.mark.parametrize(
    "site",
    [
        lambda t: compactness_check([], t),
        lambda t: compactness_check([t], (2, 5, 2)),
        lambda t: furuta_chain_check([t]),
        lambda t: furuta_chain_check([(2, 3, 1), t]),
    ],
    ids=["compactness terminal", "compactness boundary", "furuta_chain_check", "furuta_chain_check second"],
)
def test_the_triple_rule_checks_the_length(site, triple):
    with pytest.raises(InvalidParams, match=re.escape(f"(p, q, k) needs three entries, got {triple}")):
        site(triple)


@SETTINGS
@given(st.integers(-3, 12))
def test_every_site_applies_the_same_twist_rule(n):
    ok = n >= 2 and n % 2 == 0
    start = Family((SatelliteParams(2, 2, 3),))
    sites = [
        ("n", lambda n: SatelliteParams(n, 2, 3)),
        ("n", TorusLinkExterior),
        ("fix_n", lambda n: next_member(start, fix_n=n)),
        ("n", pattern_gluing_map),
        ("n", lambda n: post_surgery_gluing(n, 1)),
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


TREFOIL = SatelliteParams(2, 2, 3)
PAIR = Family((TREFOIL, SatelliteParams(2, 2, 5)))

# (entry point, an integer it accepts in the slot under test).
INTEGER_SITES = [
    ("SymIntMatrix", lambda x: SymIntMatrix(((x,),)), 2),
    ("smith_normal_form", lambda x: smith_normal_form([[x]]), 2),
    ("BrieskornSphere", lambda x: BrieskornSphere(x, 3, 5), 2),
    ("BrieskornSphere orientation", lambda x: BrieskornSphere(2, 3, 5, x), 1),
    ("TorusGluingMap", lambda x: TorusGluingMap(((1, x), (0, 1))), 2),
    ("assemble_X", lambda x: assemble_X(PAIR, [1, x]), 2),
    ("certify_family", lambda x: certify_family(PAIR, [1, x]), 2),
    ("SatelliteParams n", lambda x: SatelliteParams(x, 2, 3), 2),
    ("SatelliteParams p", lambda x: SatelliteParams(2, x, 3), 2),
    ("BranchedCover", lambda x: BranchedCover(TREFOIL, x), 1),
    ("TorusLinkExterior", TorusLinkExterior, 2),
    ("next_member fix_n", lambda x: next_member(PAIR, fix_n=x), 2),
    ("post_surgery_gluing sign", lambda x: post_surgery_gluing(2, x), 1),
    ("moser_identify", lambda x: moser_identify(x, 3, Slope(1, 0)), 2),
    ("tau", lambda x: tau_brieskorn_family(2, 3, x), 2),
    ("p1", lambda x: pontryagin_number(x, 3, 1), 2),
    ("lens bound", lambda x: lens_cs_lower_bound(2, x, 1), 3),
    ("compactness_check terminal", lambda x: compactness_check([], (2, 5, x)), 2),
    ("compactness_check boundary", lambda x: compactness_check([(2, 3, x)], (2, 5, 2)), 1),
    ("furuta_chain_check", lambda x: furuta_chain_check([(2, 3, x)]), 1),
    ("Slope", lambda x: Slope(1, x), 2),
    ("H1Data", lambda x: H1Data(x, 1), 2),
    ("BoundaryComponent", lambda x: BoundaryComponent(THREE_SPHERE, x), 2),
    ("CobordismRecord handle_count", lambda x: CobordismRecord(CobordismLabel.Z, TREFOIL, x), 2),
    ("CobordismRecord orientation", lambda x: CobordismRecord(CobordismLabel.R, TREFOIL, 2, x), 1),
    ("build_Z", lambda x: build_Z(TREFOIL, x), 2),
    ("generate_family count", lambda x: generate_family(TREFOIL, x), 2),
]


@pytest.mark.parametrize("site, fn, v", INTEGER_SITES, ids=[site[0] for site in INTEGER_SITES])
def test_every_site_applies_the_same_integer_rule(site, fn, v):
    fn(v)
    fn(numpy.int64(v))
    for bad in (float(v), v + 0.5, str(v), Fraction(v)):
        with pytest.raises(InvalidParams, match=f" must be an integer, got {re.escape(repr(bad))}$"):
            fn(bad)


def test_the_integer_rule_stores_ints_and_reads_an_iterator_once():
    assert _validate_ints(iter([True, numpy.int64(-3), 2**70]), "x") == [1, -3, 2**70]
    with pytest.raises(InvalidParams, match=r"^count must be an integer, got 2\.5$"):
        _validate_ints(iter([1, 2.5, "3"]), "count")
    values = [
        SatelliteParams(numpy.int64(2), numpy.int64(2), numpy.int64(3)).n,
        SymIntMatrix(((numpy.int64(2),),)).entries[0][0],
        BranchedCover(TREFOIL, True).orientation,
        H1Data(numpy.int64(4), numpy.int64(1)).beta,
        certify_family(PAIR, numpy.array([1, 1])).coefficients_tested[0],
    ]
    assert [type(v) for v in values] == [int] * len(values)
    # A NumPy integer kept as given would wrap at 64 bits in the growth products.
    big = SatelliteParams(numpy.int64(2**58), numpy.int64(2), numpy.int64(3))
    assert doubled_growth(big) == doubled_growth(SatelliteParams(2**58, 2, 3))


def test_Z_crossing_count_rule_lives_in_the_record():
    message = "^crossing count must be >= 1, got 0$"
    with pytest.raises(InvalidParams, match=message):
        build_Z(TREFOIL, 0)
    with pytest.raises(InvalidParams, match=message):
        CobordismRecord(CobordismLabel.Z, TREFOIL, 0)


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


@SETTINGS
@given(
    st.integers(1, 8).map(lambda h: 2 * h),
    st.integers(2, 15),
    st.integers(2, 15),
    st.sampled_from([1, -1]),
    st.integers(1, 6),
)
def test_every_record_states_the_ends_the_surgery_derivation_gives(n, p, q, orientation, crossings):
    assume(gcd(p, q) == 1)
    s = SatelliteParams(n, p, q)
    # (label, handle count, gluing as built, killed class, copies of the end).
    derivations = [
        (CobordismLabel.Z, crossings, pattern_gluing_map(n), KILL_LONGITUDE, 1),
        (CobordismLabel.R, n, post_surgery_gluing(n, -1), KILL_MERIDIAN, 0),
        (CobordismLabel.P, n, post_surgery_gluing(n, +1), KILL_MERIDIAN, 2),
    ]
    for label, count, gluing, killed, copies in derivations:
        space = moser_identify(p, q, slope_from_filling(gluing, killed))
        record = CobordismRecord(label, s, count, orientation)
        if label is CobordismLabel.R:
            assert space == THREE_SPHERE
            assert record.outgoing == ()
        else:
            built = BoundaryComponent(space, copies)
            assert record.outgoing == (built if orientation == 1 else built.reversed(),)


SURGERY_DERIVATION = ("pattern_gluing_map", "post_surgery_gluing", "slope_from_filling", "moser_identify")


def test_records_and_certificates_never_run_the_surgery_derivation(monkeypatch):
    params = [TREFOIL, SatelliteParams(4, 3, 5)]
    family = generate_family(TREFOIL, 4)
    coefficients = [1, -2, 0, 3]

    def results():
        records = [build(s) for s in params for build in (build_Z, build_R, build_P)]
        return [*records, *map(reverse_orientation, records), certify_family(family, coefficients)]

    expected = results()

    def refuse(*args):
        raise AssertionError("a record re-derived its boundary")

    for name in SURGERY_DERIVATION:
        monkeypatch.setattr(covers, name, refuse)
        monkeypatch.setattr(cobordisms, name, refuse, raising=False)
    assert results() == expected
    assert any(b.space.orientation == 1 for b in expected[-1].assembled_boundary)
