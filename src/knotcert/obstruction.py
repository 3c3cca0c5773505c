"""Assembly of the closed-up 4-manifold and independence certification.

Given a family D_{n_i}(T_{p_i,q_i}) and integer coefficients c_i, the
obstruction manifold X is built (as exact record data) from a hypothetical
Z/2-homology ball Q bounding the combination, one Z-cobordism at the top
index, one R-cobordism per unit of positive coefficient, and one reversed
P-cobordism per unit of negative coefficient.  X is negative definite with
trivial Z/2 first homology, so the Furuta-type growth criterion

    p_i q_i (2 n_i p_i q_i - 1) < p_{i+1} q_{i+1} (n_{i+1} p_{i+1} q_{i+1} - 1)

on consecutive members rules X out and certifies the family independent in
the smooth concordance group.  The criterion is the only hypothesis checked
at runtime; the rest of the contradiction template is parameter-uniform.
Every piece of X is negative definite by construction, so its form is -I
of the summed handle count, carried as that rank and materialised only on
request, and its class is a constant.  Each pass/fail summary in a
certificate is a property of the exact integers it summarises.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Sequence

from .cobordisms import (
    BoundaryComponent,
    CobordismLabel,
    CobordismRecord,
    build_R,
    build_Z,
)
from .covers import SatelliteParams
from .cs_invariants import _growth, _validate_ints, _validate_triple, _validate_twist
from .errors import AllZeroCoefficients, InvalidParams
from .exactmath import Definiteness, SymIntMatrix


@dataclass(frozen=True)
class Family:
    """Ordered, nonempty family of satellite parameters."""

    members: tuple[SatelliteParams, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise InvalidParams("a family needs at least one member")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self.members) + "}"


@dataclass(frozen=True)
class ChainCheck:
    """One consecutive-pair inequality lhs < rhs, with exact integer sides."""

    index: int  # 1-based pair index: members[index-1] vs members[index]
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs < self.rhs


@dataclass(frozen=True, kw_only=True)
class Verdict:
    """Independent, or the first consecutive pair whose inequality fails."""

    failing_index: int | None = None

    @property
    def independent(self) -> bool:
        return self.failing_index is None

    def __str__(self) -> str:
        return "Independent" if self.independent else f"CriterionFails({self.failing_index})"


@dataclass(frozen=True)
class AssembledManifold:
    """Boundary and intersection-form data of the closed-up manifold X.  Every
    Z/R/P piece is -I (Z and R as built, P reversed), so the form is -I_rank.
    The pieces have trivial H_1, so h1_z2_trivial is constant."""

    boundary: tuple[BoundaryComponent, ...]
    rank: int
    normalization_note: str | None = None
    h1_z2_trivial: ClassVar[bool] = True

    @property
    def form(self) -> SymIntMatrix:
        """-I_rank as a dense matrix, built on each access."""
        return SymIntMatrix.identity(self.rank, scale=-1)


@dataclass(frozen=True)
class IndependenceCertificate:
    """Chain checks over consecutive members and the boundary of X for a combination
    (all ones if none), both derived from the family and combination at construction."""

    family: Family
    coefficients_tested: tuple[int, ...] | None = None
    chain_checks: tuple[ChainCheck, ...] = field(init=False)
    assembled_boundary: tuple[BoundaryComponent, ...] = field(init=False)
    total_form_definiteness: ClassVar[Definiteness] = Definiteness.NEGATIVE_DEFINITE
    h1_z2_trivial: ClassVar[bool] = True

    def __post_init__(self) -> None:
        tested, members = self.coefficients_tested, self.family.members
        if tested is not None:
            tested = tuple(_validate_ints(tested, "a coefficient"))
            object.__setattr__(self, "coefficients_tested", tested)
        checks = _chain_checks(map(doubled_growth, members[:-1]), map(single_growth, members[1:]))
        object.__setattr__(self, "chain_checks", checks)
        assembled = assemble_X(self.family, [1] * len(members) if tested is None else tested)
        object.__setattr__(self, "assembled_boundary", assembled.boundary)

    @property
    def verdict(self) -> Verdict:
        return Verdict(failing_index=next((c.index for c in self.chain_checks if not c.ok), None))


def doubled_growth(m: SatelliteParams) -> int:
    """Left side of the chain inequality: p*q*(2n*p*q - 1)."""
    return _growth(m.p, m.q, 2 * m.n)


def single_growth(m: SatelliteParams) -> int:
    """Right side of the chain inequality: p*q*(n*p*q - 1)."""
    return _growth(m.p, m.q, m.n)


def furuta_chain_check(triples: Sequence[Sequence[int]]) -> list[bool]:
    """Strict growth p_i q_i (k_i p_i q_i - 1) < p_{i+1} q_{i+1} (...) for
    each consecutive pair of (p, q, k) triples; exact integer comparisons."""
    sizes = [_growth(*_validate_triple(t)) for t in triples]
    return [c.ok for c in _chain_checks(sizes[:-1], sizes[1:])]


def _chain_checks(lhs: Iterable[int], rhs: Iterable[int]) -> tuple[ChainCheck, ...]:
    """The chain rule's one loop: lhs lists the left sides of all members but
    the last, rhs the right sides of all but the first; pair i is 1-based."""
    return tuple(ChainCheck(i, a, b) for i, (a, b) in enumerate(zip(lhs, rhs), 1))


def assemble_X(f: Family, coefficients: Sequence[int]) -> AssembledManifold:
    """Build the boundary list and intersection form of X for the given
    combination sum(c_i * [cover_i]).

    Trailing zero coefficients are dropped (those members never enter), and
    if the top remaining coefficient is negative all of them are negated --
    mirroring every knot in the combination -- so that the Z-cobordism can
    be attached at the top index; both steps are reported in the
    normalization note.  The form is the direct sum of the Z block, one R
    block per unit of positive coefficient, and one reversed-P block per
    unit of negative coefficient, each -I, so X is negative definite by
    construction and its rank is the sum of the handle counts.  Each unit
    of negative coefficient contributes two copies of
    +Sigma(p, q, 2n*p*q - 1) to the boundary.
    """
    cs = _validate_ints(coefficients, "a coefficient")
    if len(cs) != len(f.members):
        raise InvalidParams(f"{len(cs)} coefficients for {len(f.members)} members")
    if all(c == 0 for c in cs):
        raise AllZeroCoefficients("at least one coefficient must be nonzero")

    notes = []
    top = max(i for i, c in enumerate(cs) if c != 0)
    if top != len(cs) - 1:
        notes.append(f"dropped {len(cs) - 1 - top} trailing zero coefficient(s)")
    members, cs = f.members[: top + 1], cs[: top + 1]
    if cs[-1] < 0:
        cs = [-c for c in cs]
        notes.append(
            "global orientation reversal applied (combination mirrored) "
            "so the top coefficient is positive"
        )

    z = build_Z(members[-1])
    rank = z.handle_count
    boundary = list(z.outgoing)
    for member, c in zip(members, cs):
        if c == 0:
            continue
        # R has no outgoing boundary, so only reversed P adds pieces here.  P is
        # built reversed, so its boundary is derived once.
        record = (
            build_R(member)
            if c > 0
            else CobordismRecord(CobordismLabel.P, member, member.n, orientation=-1)
        )
        rank += record.handle_count * abs(c)
        boundary.extend(BoundaryComponent(b.space, b.multiplicity * abs(c)) for b in record.outgoing)

    return AssembledManifold(
        boundary=tuple(boundary),
        rank=rank,
        normalization_note="; ".join(notes) if notes else None,
    )


def certify_family(
    f: Family, coefficients: Sequence[int] | None = None
) -> IndependenceCertificate:
    """Check the chain criterion over consecutive members and assemble X.

    The verdict is Independent iff every consecutive pair satisfies
    doubled_growth(member_i) < single_growth(member_{i+1}); a single-member
    family passes vacuously.  The assembly uses the canonical all-ones
    coefficients unless an explicit combination is supplied, in which case
    that combination is assembled (and recorded) instead.
    """
    return IndependenceCertificate(f, coefficients)


def _coprime_pairs() -> Iterable[tuple[int, int]]:
    """Coprime pairs 2 <= p < q, ordered by product, then by q - p."""
    for product in itertools.count(6):
        pairs = [
            (p, product // p)
            for p in range(2, math.isqrt(product) + 1)
            if product % p == 0
            and p < product // p
            and math.gcd(p, product // p) == 1
        ]
        for p, q in sorted(pairs, key=lambda pq: pq[1] - pq[0]):
            yield (p, q)


def next_member(prefix: Family, fix_n: int | None = None) -> SatelliteParams:
    """Smallest valid successor extending the chain past the last member.

    Candidates are coprime pairs 2 <= p < q ordered by (p*q, q - p), and the
    successor must satisfy doubled_growth(last) < p*q*(n*p*q - 1).  With
    fix_n the twist parameter is pinned and the first pair past the bound
    wins; otherwise the first pair, (2, 3), always wins with the minimal
    even n >= 2 past the bound.
    """
    bound = doubled_growth(prefix.members[-1])
    if fix_n is None:
        # n is the least n >= 1 with 6*(6n - 1) > bound, and rounding up to
        # even only raises the growth.
        n = (bound // 6 + 1) // 6 + 1
        return SatelliteParams(n + n % 2, 2, 3)
    fix_n = _validate_twist(fix_n, "fix_n")
    return next(
        SatelliteParams(fix_n, p, q) for p, q in _coprime_pairs() if _growth(p, q, fix_n) > bound
    )


def generate_family(
    start: SatelliteParams, count: int, fix_n: int | None = None
) -> Family:
    """Iterate next_member from a starting point to a family of the given size."""
    [count] = _validate_ints([count], "count")
    if count < 1:
        raise InvalidParams(f"count must be >= 1, got {count}")
    members = [start]
    while len(members) < count:
        members.append(next_member(Family(tuple(members)), fix_n=fix_n))
    return Family(tuple(members))
