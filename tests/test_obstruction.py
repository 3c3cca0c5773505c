"""Chain criterion, assembly of X, certification, and family generation."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotcert import (
    AllZeroCoefficients,
    BrieskornSphere,
    ChainCheck,
    Definiteness,
    Family,
    IndependenceCertificate,
    InvalidParams,
    SatelliteParams,
    SymIntMatrix,
    Verdict,
    assemble_X,
    certify_family,
    compactness_check,
    definiteness,
    doubled_growth,
    furuta_chain_check,
    generate_family,
    next_member,
    single_growth,
)
from knotcert import obstruction
from oracles import successor_oracle


def fam(*triples):
    return Family(tuple(SatelliteParams(*t) for t in triples))


def test_furuta_chain_examples():
    assert furuta_chain_check([(2, 3, 1), (2, 5, 2)]) == [True]  # 30 < 190
    assert furuta_chain_check([(2, 5, 2), (2, 3, 1)]) == [False]
    assert furuta_chain_check([(2, 3, 1)]) == []
    assert furuta_chain_check([(2, 3, 1), (2, 3, 1)]) == [False]  # the inequality is strict


def test_furuta_chain_validates_triples():
    with pytest.raises(InvalidParams):
        furuta_chain_check([(2, 4, 1)])
    with pytest.raises(InvalidParams):
        furuta_chain_check([(2, 3, 0)])


def test_certify_two_member_family():
    cert = certify_family(fam((2, 2, 3), (2, 2, 5)))
    assert cert.verdict.independent
    assert len(cert.chain_checks) == 1
    check = cert.chain_checks[0]
    assert (check.lhs, check.rhs, check.ok) == (138, 190, True)
    assert cert.total_form_definiteness is Definiteness.NEGATIVE_DEFINITE
    assert cert.h1_z2_trivial is True
    assert cert.coefficients_tested is None


def test_certify_reversed_order_fails_first_pair():
    cert = certify_family(fam((2, 2, 5), (2, 2, 3)))
    assert not cert.verdict.independent
    assert cert.verdict.failing_index == 1
    assert str(cert.verdict) == "CriterionFails(1)"


def test_certify_singleton_family_vacuous():
    cert = certify_family(fam((2, 2, 3)))
    assert cert.verdict.independent
    assert cert.chain_checks == ()


def test_certify_verdict_iff_all_checks_ok():
    rng = random.Random(919)
    for _ in range(30):
        members = [(2 * rng.randint(1, 4), *_coprime(rng)) for _ in range(rng.randint(1, 5))]
        cert = certify_family(fam(*members))
        assert cert.verdict.independent == all(c.ok for c in cert.chain_checks)


def test_chain_check_ok_is_read_from_its_sides():
    assert ChainCheck(1, 5, 3).ok is False
    assert ChainCheck(1, 3, 5).ok is True
    assert ChainCheck(1, 5, 5).ok is False  # the inequality is strict


def test_verdict_is_keyword_only():
    assert Verdict().independent and str(Verdict()) == "Independent"
    assert str(Verdict(failing_index=2)) == "CriterionFails(2)"
    # The former spelling Verdict(True) would otherwise mean failing_index=True.
    with pytest.raises(TypeError):
        Verdict(True)


def test_verdict_names_the_first_of_several_failing_pairs():
    cert = certify_family(fam((2, 2, 5), (2, 2, 3), (2, 2, 3)))
    assert [c.ok for c in cert.chain_checks] == [False, False]
    assert cert.verdict == Verdict(failing_index=1)
    assert str(cert.verdict) == "CriterionFails(1)"
    assert cert.total_form_definiteness is Definiteness.NEGATIVE_DEFINITE


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 3), (2, 5), (3, 4), (3, 5)]),
    st.integers(1, 3),
    st.integers(1, 6),
    st.sampled_from([None, 2, 4]),
    st.data(),
)
def test_certificate_is_a_function_of_its_family_and_combination(pq, half_n, count, fix_n, data):
    f = generate_family(SatelliteParams(2 * half_n, *pq), count, fix_n=fix_n)
    assert IndependenceCertificate(f) == certify_family(f)
    cs = data.draw(st.lists(st.integers(-2, 2), min_size=count, max_size=count).filter(any))
    cert = IndependenceCertificate(f, cs)
    assert cert == certify_family(f, cs)
    assert cert.coefficients_tested == tuple(cs)
    pairs = zip(f.members, f.members[1:])
    assert [(c.lhs, c.rhs) for c in cert.chain_checks] == [(doubled_growth(a), single_growth(b)) for a, b in pairs]
    assert cert.assembled_boundary == assemble_X(f, cs).boundary


def test_certificate_takes_no_derived_field():
    f = fam((2, 2, 3), (2, 2, 5))
    with pytest.raises(TypeError):
        IndependenceCertificate(f, chain_checks=(ChainCheck(1, 138, 190),))
    with pytest.raises(TypeError):
        IndependenceCertificate(f, assembled_boundary=())


def _coprime(rng):
    while True:
        p, q = rng.randint(2, 9), rng.randint(2, 9)
        if p != q and gcd(p, q) == 1:
            return p, q


def test_assemble_mixed_signs_example():
    assembled = assemble_X(fam((2, 2, 3), (2, 2, 5)), [-1, 1])
    spaces = [(b.space, b.multiplicity) for b in assembled.boundary]
    assert spaces == [
        (BrieskornSphere(2, 5, 19, orientation=-1), 1),
        (BrieskornSphere(2, 3, 23, orientation=1), 2),
    ]
    # blocks: Z gives -I_2, reversed P gives -I_2, R gives -I_2
    assert assembled.form.dimension == 6
    assert definiteness(assembled.form) is Definiteness.NEGATIVE_DEFINITE
    assert assembled.h1_z2_trivial is True
    assert assembled.normalization_note is None


def test_assemble_single_member_form_blocks():
    assembled = assemble_X(fam((2, 2, 3)), [1])
    # Z block -I_1 plus one R block -I_2
    assert assembled.form == SymIntMatrix.identity(3, scale=-1)
    assert [bc.space for bc in assembled.boundary] == [BrieskornSphere(2, 3, 11, orientation=-1)]


def test_assemble_rejects_all_zero():
    with pytest.raises(AllZeroCoefficients):
        assemble_X(fam((2, 2, 3)), [0])
    with pytest.raises(InvalidParams):
        assemble_X(fam((2, 2, 3)), [1, 1])


def test_assemble_normalizes_negative_top_coefficient():
    flipped = assemble_X(fam((2, 2, 3)), [-1])
    straight = assemble_X(fam((2, 2, 3)), [1])
    assert flipped.form == straight.form
    assert flipped.boundary == straight.boundary
    assert flipped.normalization_note is not None
    assert "orientation reversal" in flipped.normalization_note


def test_assemble_drops_trailing_zero_coefficients():
    two = assemble_X(fam((2, 2, 3), (2, 2, 5)), [1, 0])
    one = assemble_X(fam((2, 2, 3)), [1])
    assert two.form == one.form
    assert two.boundary == one.boundary
    assert "trailing zero" in two.normalization_note


def test_assemble_multiplicities_scale_with_coefficients():
    assembled = assemble_X(fam((2, 2, 3), (2, 2, 5)), [-3, 2])
    cover_pieces = [b for b in assembled.boundary if b.multiplicity > 1]
    assert cover_pieces[0].space == BrieskornSphere(2, 3, 23, orientation=1)
    assert cover_pieces[0].multiplicity == 6  # two copies per unit of c_i = -3
    # Z(-I_2) + 3 reversed-P blocks (-I_2) + 2 R blocks (-I_2)
    assert assembled.form.dimension == 2 + 6 + 4


def test_assemble_always_negative_definite():
    rng = random.Random(202)
    for _ in range(25):
        members = tuple(
            SatelliteParams(2 * rng.randint(1, 3), *_coprime(rng))
            for _ in range(rng.randint(1, 4))
        )
        coeffs = [rng.randint(-3, 3) for _ in members]
        if all(c == 0 for c in coeffs):
            coeffs[-1] = 1
        assembled = assemble_X(Family(members), coeffs)
        assert definiteness(assembled.form) is Definiteness.NEGATIVE_DEFINITE
        assert assembled.h1_z2_trivial is True


def test_certify_with_explicit_coefficients_records_them():
    cert = certify_family(fam((2, 2, 3), (2, 2, 5)), coefficients=[-1, 1])
    assert cert.coefficients_tested == (-1, 1)
    assert any(
        b.space == BrieskornSphere(2, 3, 23, orientation=1) for b in cert.assembled_boundary
    )
    assert cert.total_form_definiteness is Definiteness.NEGATIVE_DEFINITE


def test_next_member_examples():
    assert next_member(fam((2, 2, 3)), fix_n=2) == SatelliteParams(2, 2, 5)
    assert next_member(fam((2, 2, 3)), fix_n=4) == SatelliteParams(4, 2, 5)
    # unpinned: minimal product is (2, 3), with the smallest admissible twist
    free = next_member(fam((2, 2, 3)))
    assert (free.p, free.q) == (2, 3)
    assert free.n % 2 == 0
    assert single_growth(free) > doubled_growth(SatelliteParams(2, 2, 3))
    assert single_growth(SatelliteParams(free.n - 2, 2, 3)) <= doubled_growth(
        SatelliteParams(2, 2, 3)
    )


def _bruteforce_successor(last, fix_n):
    """Independent search in (p*q, q - p) order.

    The pair (2, q) with the smallest odd workable q caps the optimal
    product, so enumerating all pairs with product up to that cap is
    exhaustive.
    """
    bound = doubled_growth(last)
    q = 3
    while 2 * q * (fix_n * 2 * q - 1) <= bound:
        q += 2
    cap = 2 * q
    candidates = []
    for p in range(2, cap + 1):
        for qq in range(p + 1, cap + 1):
            if p * qq > cap or gcd(p, qq) != 1:
                continue
            if p * qq * (fix_n * p * qq - 1) > bound:
                candidates.append((p * qq, qq - p, p, qq))
    _, _, p, q = min(candidates)
    return SatelliteParams(fix_n, p, q)


def test_next_member_matches_bruteforce_oracle():
    rng = random.Random(777)
    for _ in range(20):
        last = SatelliteParams(2 * rng.randint(1, 3), *_coprime(rng))
        for fix_n in (2, 4):
            assert next_member(Family((last,)), fix_n=fix_n) == _bruteforce_successor(last, fix_n)


def test_generated_chains_match_enumeration_oracle():
    rng = random.Random(2140)
    for _ in range(200):
        start = SatelliteParams(2 * rng.randint(1, 4), *_coprime(rng))
        fix_n = rng.choice((None, 2, 4, 6))
        family = generate_family(start, rng.randint(2, 9), fix_n=fix_n)
        for last, nxt in zip(family.members, family.members[1:]):
            assert (nxt.n, nxt.p, nxt.q) == successor_oracle(last.n, last.p, last.q, fix_n)


def _least_even_twist_above(bound):
    """Least even n >= 2 with 6*(6n - 1) > bound, by bisection on n/2."""
    lo, hi = 1, 1
    while 6 * (12 * hi - 1) <= bound:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if 6 * (12 * mid - 1) > bound:
            hi = mid
        else:
            lo = mid + 1
    return 2 * lo


def test_free_next_member_is_the_least_even_twist_past_any_bound(monkeypatch):
    # next_member reads the bound through doubled_growth, so patching it
    # reaches every bound, not only those of real members.
    bound = 0
    monkeypatch.setattr(obstruction, "doubled_growth", lambda m: bound)
    prefix = fam((2, 2, 3))
    n = 2
    for bound in range(200_000):
        while 6 * (6 * n - 1) <= bound:  # the least even n only grows with the bound
            n += 2
        assert next_member(prefix) == SatelliteParams(n, 2, 3)
    rng = random.Random(1040)
    for _ in range(2000):
        bound = rng.randrange(10**40)
        assert next_member(prefix) == SatelliteParams(_least_even_twist_above(bound), 2, 3)


def test_next_member_validates_fix_n():
    with pytest.raises(InvalidParams):
        next_member(fam((2, 2, 3)), fix_n=3)


def test_generated_families_certify_independent():
    family = generate_family(SatelliteParams(2, 2, 3), 10, fix_n=2)
    assert len(family) == 10
    cert = certify_family(family)
    assert cert.verdict.independent

    free = generate_family(SatelliteParams(2, 2, 3), 6)
    assert certify_family(free).verdict.independent


ROOT_PAIRS = [(p, q) for p in range(2, 31) for q in range(p + 1, 31) if gcd(p, q) == 1]


# fix_n chains from large roots are slow to generate (next_member restarts its
# walk over coprime pairs on every call), hence the modest example count.
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ROOT_PAIRS),
    st.integers(1, 4),
    st.integers(1, 12),
    st.one_of(st.none(), st.integers(1, 4)),
)
def test_every_generated_family_certifies_independent(pq, half_n, length, half_fix_n):
    fix_n = None if half_fix_n is None else 2 * half_fix_n
    family = generate_family(SatelliteParams(2 * half_n, *pq), length, fix_n=fix_n)
    assert len(family) == length
    cert = certify_family(family)
    assert cert.verdict.independent
    assert cert.total_form_definiteness is Definiteness.NEGATIVE_DEFINITE


def test_certify_monotone_under_chain_extension():
    family = generate_family(SatelliteParams(2, 2, 5), 4, fix_n=2)
    assert certify_family(family).verdict.independent
    extended = Family(family.members + (next_member(family, fix_n=2),))
    assert certify_family(extended).verdict.independent


def test_hedden_kirk_twist_two_chain_shape():
    family = generate_family(SatelliteParams(2, 2, 3), 10, fix_n=2)
    for m in family.members:
        assert m.n == 2
        assert doubled_growth(m) == m.p * m.q * (4 * m.p * m.q - 1)


def test_independent_family_boundary_passes_compactness():
    # doubled boundary components use k = 2n_i; the terminal sphere k = n_N
    family = generate_family(SatelliteParams(2, 2, 3), 5, fix_n=2)
    assert certify_family(family).verdict.independent
    members = family.members
    boundary = [(m.p, m.q, 2 * m.n) for m in members[:-1]]
    terminal = (members[-1].p, members[-1].q, members[-1].n)
    assert compactness_check(boundary, terminal)


def test_family_must_be_nonempty():
    with pytest.raises(InvalidParams):
        Family(())
