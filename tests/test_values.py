"""The contract of the value types, which share one base, errors._Value.

For every public value type: equal fields give equal values and equal
hashes; values of different classes are never equal, even when their fields
are; no field can be assigned or deleted (frozenness is __setattr__, so it
holds under python -O); copy, deepcopy and pickle give back an equal value
without validating it again; repr is the Qualname(field=value, ...) form of
0.17.0, when the types were frozen dataclasses; and each constructor keeps
its 0.17.0 signature.
"""

import copy
import inspect
import pickle

import pytest

import knotcert
from knotcert import (
    THREE_SPHERE,
    AssembledManifold,
    BoundaryComponent,
    BranchedCover,
    BrieskornSphere,
    ChainCheck,
    CompactnessReport,
    Family,
    IndependenceCertificate,
    SatelliteParams,
    SNFResult,
    TorusLinkExterior,
    Verdict,
    build_P,
    build_Z,
    compactness_check,
    double_cover_decomposition,
    generate_family,
    pattern_gluing_map,
    r_invariant,
    smith_normal_form,
)
from knotcert.errors import _Value

TREFOIL = SatelliteParams(2, 2, 3)

# One builder per public value type; each call builds a new value.
SAMPLES = {
    "AssembledManifold": lambda: knotcert.assemble_X(generate_family(TREFOIL, 3), [1, -1, 1]),
    "BoundaryComponent": lambda: BoundaryComponent(BrieskornSphere(2, 3, 5), 2),
    "BranchedCover": lambda: BranchedCover(SatelliteParams(2, 2, 3), -1),
    "BrieskornSphere": lambda: BrieskornSphere(7, 3, 2, -1),
    "ChainCheck": lambda: ChainCheck(1, 30, 66),
    "CobordismRecord": lambda: build_P(SatelliteParams(2, 2, 3)),
    "CompactnessCheck": lambda: compactness_check([(2, 3, 1)], (2, 5, 2)).checks[2],
    "CompactnessReport": lambda: compactness_check([(2, 3, 1)], (2, 5, 2)),
    "CoverDecomposition": lambda: double_cover_decomposition(SatelliteParams(4, 2, 5)),
    "Family": lambda: generate_family(TREFOIL, 3),
    "H1Data": lambda: knotcert.H1Data(12, 2),
    "IndependenceCertificate": lambda: knotcert.certify_family(generate_family(TREFOIL, 3), [1, -2, 3]),
    "RValue": lambda: r_invariant(BrieskornSphere(2, 3, 7)),
    "SNFResult": lambda: smith_normal_form([[2, 0], [0, 3]]),
    "SatelliteParams": lambda: SatelliteParams(4, 3, 5),
    "Slope": lambda: knotcert.Slope(-1, -4),
    "SymIntMatrix": lambda: knotcert.SymIntMatrix([[2, 1], [1, 2]]),
    "TauValue": lambda: knotcert.tau_brieskorn_family(2, 3, 1),
    "ThreeSphere": lambda: knotcert.ThreeSphere(),
    "TorusGluingMap": lambda: pattern_gluing_map(4),
    "TorusLinkExterior": lambda: TorusLinkExterior(4),
    "Verdict": lambda: Verdict(failing_index=2),
}

# inspect.signature of each class at 0.17.0.
SIGNATURES = {
    "AssembledManifold": "boundary, rank, normalization_note=None",
    "BoundaryComponent": "space, multiplicity=1",
    "BranchedCover": "params, orientation=1",
    "BrieskornSphere": "a1, a2, a3, orientation=1",
    "ChainCheck": "index, lhs, rhs",
    "CobordismRecord": "label, params, handle_count, orientation=1",
    "CompactnessCheck": "label, lhs, rhs",
    "CompactnessReport": "checks",
    "CoverDecomposition": "exterior_link",
    "Family": "members",
    "H1Data": "torsion_order, beta",
    "IndependenceCertificate": "family, coefficients_tested=None",
    "RValue": "numeric, rounded, residual, precision_bits",
    "SNFResult": "diagonal, left, right",
    "SatelliteParams": "n, p, q",
    "Slope": "a, b",
    "SymIntMatrix": "entries",
    "TauValue": "value",
    "ThreeSphere": "",
    "TorusGluingMap": "matrix",
    "TorusLinkExterior": "n",
    "Verdict": "*, failing_index=None",
}

NAMES = sorted(SAMPLES)


def test_every_public_value_type_has_a_sample():
    public = {
        name for name in knotcert.__all__
        if isinstance(getattr(knotcert, name), type) and issubclass(getattr(knotcert, name), _Value)
    }
    assert public == set(SAMPLES) == set(SIGNATURES)
    assert len(public) == 22
    for name, build in SAMPLES.items():
        assert type(build()) is getattr(knotcert, name)


@pytest.mark.parametrize("name", NAMES)
def test_each_constructor_keeps_its_signature(name):
    parts = []
    for p in inspect.signature(getattr(knotcert, name)).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in parts:
            parts.append("*")
        parts.append(p.name if p.default is p.empty else f"{p.name}={p.default!r}")
    assert ", ".join(parts) == SIGNATURES[name]


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_values_and_equal_hashes(name):
    a, b = SAMPLES[name](), SAMPLES[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(a._values())
    assert a._values() == tuple(getattr(a, field) for field in type(a).__slots__)


def test_one_field_apart_is_unequal():
    assert BrieskornSphere(2, 3, 5) != BrieskornSphere(2, 3, 5, -1)
    assert BrieskornSphere(5, 3, 2) == BrieskornSphere(2, 3, 5)  # stored sorted
    assert build_P(TREFOIL) != knotcert.reverse_orientation(build_P(TREFOIL))
    assert Verdict(failing_index=1) != Verdict()


def test_values_of_different_classes_are_never_equal():
    # Same fields, different classes.
    same_fields = [
        (Verdict(failing_index=2), TorusLinkExterior(2)),
        (Family((TREFOIL,)), CompactnessReport((TREFOIL,))),
        (ChainCheck(1, 2, 3), SNFResult(1, 2, 3)),
        (AssembledManifold((), 2), ChainCheck((), 2, None)),
    ]
    for a, b in same_fields:
        assert a._values() == b._values()
        assert a != b and b != a and not a == b
    # Nor is a value equal to the tuple of its fields.
    for build in SAMPLES.values():
        value = build()
        assert value != value._values() and value._values() != value
    values = [build() for build in SAMPLES.values()]
    for a in values:
        for b in values:
            assert (a == b) is (type(a) is type(b))


@pytest.mark.parametrize("name", NAMES)
def test_no_field_can_be_assigned_or_deleted(name):
    value = SAMPLES[name]()
    before = value._values()
    for field in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(value, field, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
    assert value._values() == before
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", NAMES)
def test_copy_deepcopy_and_pickle_give_an_equal_value(name):
    value = SAMPLES[name]()
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)
        assert repr(other) == repr(value)


def test_copies_do_not_validate_again(monkeypatch):
    values = [build() for build in SAMPLES.values()]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a copy ran the constructor")

    for value in values:
        monkeypatch.setattr(type(value), "__init__", refuse)
    for value in values:
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_repr_is_the_0_17_0_dataclass_form():
    assert repr(BrieskornSphere(3, 2, 7, -1)) == "BrieskornSphere(a1=2, a2=3, a3=7, orientation=-1)"
    assert repr(build_Z(SatelliteParams(2, 2, 3))) == (
        "CobordismRecord(label=<CobordismLabel.Z: 'Z'>, params=SatelliteParams(n=2, p=2, q=3), "
        "handle_count=1, orientation=1, outgoing=(BoundaryComponent(space=BrieskornSphere(a1=2, "
        "a2=3, a3=11, orientation=-1), multiplicity=1),))"
    )
    assert repr(smith_normal_form([[2, 0], [0, 3]])) == (
        "SNFResult(diagonal=(1, 6), left=((2, -1), (-3, 2)), right=((1, 3), (1, 4)))"
    )
    assert repr(THREE_SPHERE) == "ThreeSphere()"
    assert repr(Verdict()) == "Verdict(failing_index=None)"


def test_class_constants_are_not_fields():
    cert = SAMPLES["IndependenceCertificate"]()
    assert type(cert).__slots__ == ("family", "coefficients_tested", "chain_checks", "assembled_boundary")
    assert cert.h1_z2_trivial is True and build_P(TREFOIL).h1_z2_trivial is True
    assert double_cover_decomposition(TREFOIL).companion_copies == 2
    assert "h1_z2_trivial" not in repr(cert)


def test_derived_fields_are_not_arguments():
    family = generate_family(TREFOIL, 2)
    with pytest.raises(TypeError):
        IndependenceCertificate(family, None, ())
    with pytest.raises(TypeError):
        knotcert.CobordismRecord(knotcert.CobordismLabel.R, TREFOIL, 2, 1, ())
    with pytest.raises(TypeError):
        Verdict(2)  # keyword-only
