"""Chain criterion, assembly of X, certification, and family generation."""

import random
from math import gcd

import pytest

from knotcert import (
    AllZeroCoefficients,
    BrieskornSphere,
    Definiteness,
    Family,
    InvalidParams,
    SatelliteParams,
    SymIntMatrix,
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
from oracles import successor_oracle


def fam(*triples):
    return Family(tuple(SatelliteParams(*t) for t in triples))


def test_furuta_chain_examples():
    assert furuta_chain_check([(2, 3, 1), (2, 5, 2)]) == [True]  # 30 < 190
    assert furuta_chain_check([(2, 5, 2), (2, 3, 1)]) == [False]
    assert furuta_chain_check([(2, 3, 1)]) == []


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
