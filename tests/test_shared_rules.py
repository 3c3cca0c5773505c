"""Rules that live in one place, and facts that hold without a runtime check.

The integer rule, the sequence rule (an int where rows, members, triples
or integers belong), the (p, q, k) validation (its length included), the
twist rule and the orientation rule are each one helper called from every
site that takes such a value; a form's dimension >= 1 belongs to the SymIntMatrix constructor and
Z's crossing count >= 1 to CobordismRecord.  The package source holds no
assert statement: asserts vanish under python -O, so runtime invariants are
explicit domain errors, and facts that hold by construction are checked
here instead.
"""

import ast
import itertools
import re
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
    r_invariant,
    reverse_orientation,
    slope_from_filling,
    smith_normal_form,
    tau_brieskorn_family,
)
from knotcert import cobordisms, covers
from knotcert.errors import _shown, _validate_ints

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
        ("orientation", lambda o: CobordismRecord(CobordismLabel.R, params, params.n, o)),
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


# (entry point, a call that passes an int where integers, or rows, members or
# triples, come in a sequence, the message naming that sequence).
NOT_A_SEQUENCE = [
    ("SymIntMatrix", lambda: SymIntMatrix([1, 2]), "a matrix entry must come in a sequence, got 1"),
    ("smith_normal_form", lambda: smith_normal_form([1, 2]), "a matrix entry must come in a sequence, got 1"),
    ("TorusGluingMap", lambda: TorusGluingMap((1, 2)), "a gluing matrix entry must come in a sequence, got 1"),
    ("assemble_X", lambda: assemble_X(PAIR, 1), "a coefficient must come in a sequence, got 1"),
    ("certify_family", lambda: certify_family(PAIR, 3), "a coefficient must come in a sequence, got 3"),
    ("furuta_chain_check", lambda: furuta_chain_check([5]), "each of p, q, k must come in a sequence, got 5"),
    ("compactness_check", lambda: compactness_check([], 5), "each of p, q, k must come in a sequence, got 5"),
    ("SymIntMatrix(5)", lambda: SymIntMatrix(5), "matrix rows must come in a sequence, got 5"),
    ("smith_normal_form(5)", lambda: smith_normal_form(5), "matrix rows must come in a sequence, got 5"),
    ("TorusGluingMap(5)", lambda: TorusGluingMap(5), "gluing matrix rows must come in a sequence, got 5"),
    ("Family(5)", lambda: Family(5), "family members must come in a sequence, got 5"),
    ("compactness_check(5, ...)", lambda: compactness_check(5, (2, 3, 1)), "boundary triples must come in a sequence, got 5"),
    ("furuta_chain_check(5)", lambda: furuta_chain_check(5), "(p, q, k) triples must come in a sequence, got 5"),
]


@pytest.mark.parametrize("site, call, message", NOT_A_SEQUENCE, ids=[site[0] for site in NOT_A_SEQUENCE])
def test_an_int_where_a_sequence_belongs_is_invalid_params(site, call, message):
    with pytest.raises(InvalidParams) as exc:
        call()
    assert str(exc.value) == message


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


HUGE = 10**5000  # past the interpreter's 4,300-digit limit for printing an int
UNPRINTABLE = [
    ("BrieskornSphere", lambda: BrieskornSphere(1, 2, HUGE),
     "multiplicities must be >= 2, got (1, 2, <int of 16610 bits>)"),
    ("SatelliteParams", lambda: SatelliteParams(2, 2, 2 * HUGE),
     "p, q must be coprime, got (2, <int of 16611 bits>)"),
    ("Slope", lambda: Slope(2 * HUGE, 2), "slope <int of 16611 bits>/2 is not primitive"),
    ("H1Data", lambda: H1Data(-HUGE, 0), "torsion order must be >= 1, got <int of 16610 bits>"),
    ("build_Z", lambda: build_Z(TREFOIL, crossings=-HUGE),
     "crossing count must be >= 1, got <int of 16610 bits>"),
    ("generate_family", lambda: generate_family(TREFOIL, -HUGE),
     "count must be >= 1, got <int of 16610 bits>"),
    ("r_invariant budget", lambda: r_invariant(BrieskornSphere(2, 3, HUGE + 1)),
     "R(2,3,<int of 16610 bits>) needs <int of 16610 bits> cotangent terms, more than the "
     "budget of 100000; its exact value (r_exact) is 1"),
    ("r_invariant tolerance", lambda: r_invariant(BrieskornSphere(2, 3, 5), Fraction(HUGE)),
     "tolerance must lie in (0, 1/2), got <Fraction of 16610 bits>"),
    ("TorusGluingMap", lambda: TorusGluingMap(((HUGE, 0), (0, 1))),
     "gluing matrix ((<int of 16610 bits>, 0), (0, 1)) is not unimodular"),
    ("SatelliteParams Fraction", lambda: SatelliteParams(2, 2, Fraction(HUGE, 3)),
     "each of p, q, k must be an integer, got <Fraction of 16610 bits>"),
]


@pytest.mark.parametrize("site, call, message", UNPRINTABLE, ids=[site[0] for site in UNPRINTABLE])
def test_a_value_too_long_to_print_keeps_its_domain_error(site, call, message):
    # str() of such an int raises ValueError, which InvalidParams subclasses,
    # so the test asks for InvalidParams and its exact message.
    with pytest.raises(InvalidParams) as exc:
        call()
    assert str(exc.value) == message


def test_a_printable_value_reads_as_str_or_repr_gives_it():
    for value in [(), (1,), (1, "a"), ((1, 2), (3, 4)), 2.5, Fraction(1, 3), "x", None]:
        assert (_shown(value), _shown(value, repr)) == (str(value), repr(value))


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
    # Lemma L5 as a property; the proof sketch is the helper's docstring.
    assume(gcd(p, q) == 1)
    assert_record_ends_match_the_derivation(n, p, q, orientation, crossings)


def test_record_ends_match_the_derivation_on_a_box():
    # Lemma L5 on every coprime 2 <= p < q <= 12, n in 2..8 and both orientations.
    for p in range(2, 12):
        for q in range(p + 1, 13):
            if gcd(p, q) == 1:
                for n, orientation in itertools.product((2, 4, 6, 8), (1, -1)):
                    assert_record_ends_match_the_derivation(n, p, q, orientation, n - 1)


def assert_record_ends_match_the_derivation(n, p, q, orientation, crossings):
    """Lemma L5: every record's outgoing ends equal the surgery derivation's.

    Proof sketch.  A filling that kills a target basis class c has the slope
    g^-1(c), up to sign.  Z's gluing mu_K -> -n*mu_A + lambda_A,
    lambda_K -> mu_A, with the longitude killed, gives slope 1/n; R's and
    P's post-surgery gluings mu_K -> m + (-n - sign*n)*l, lambda_K -> l,
    with the meridian killed, give 1/0 for the -1-framed R and 1/(2n) for
    the +1-framed P.  Moser: 1/k surgery on T_{p,q} is -Sigma(p, q,
    k*p*q - 1), and 1/0 restores S^3.  So Z ends in one
    -Sigma(p, q, n*p*q - 1), P in two copies of -Sigma(p, q, 2n*p*q - 1)
    (it fills both companion copies), and R's S^3 is capped with a 4-ball:
    R has no outgoing boundary, which assemble_X relies on when it builds
    no R record.  Reversal reverses every end.
    """
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
