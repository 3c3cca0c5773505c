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
at runtime; the rest of the contradiction template is parameter-uniform and
encoded in the assembled record itself, whose form is carried as
(sign, size) blocks and materialised only on request.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cobordisms import (
    BoundaryComponent,
    build_P,
    build_R,
    build_Z,
    reverse_orientation,
)
from .covers import SatelliteParams
from .cs_invariants import _growth, _validate_triple
from .errors import AllZeroCoefficients, InvalidParams
from .exactmath import Definiteness, SymIntMatrix, sign_blocks_definiteness


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
    """One consecutive-pair inequality, with exact integer sides."""

    index: int  # 1-based pair index: members[index-1] vs members[index]
    lhs: int
    rhs: int
    ok: bool


@dataclass(frozen=True)
class Verdict:
    independent: bool
    failing_index: int | None = None

    @classmethod
    def ok(cls) -> "Verdict":
        return cls(True)

    @classmethod
    def fails(cls, index: int) -> "Verdict":
        return cls(False, index)

    def __str__(self) -> str:
        return "Independent" if self.independent else f"CriterionFails({self.failing_index})"


@dataclass(frozen=True)
class AssembledManifold:
    """Boundary and intersection-form data of the closed-up manifold X; the
    form is the direct sum of sign * I_size over blocks, in order."""

    boundary: tuple[BoundaryComponent, ...]
    blocks: tuple[tuple[int, int], ...]
    h1_z2_trivial: bool
    normalization_note: str | None = None

    @property
    def form(self) -> SymIntMatrix:
        """The block-diagonal form as a dense matrix, built on each access."""
        return SymIntMatrix.diagonal([sign for sign, size in self.blocks for _ in range(size)])


@dataclass(frozen=True)
class IndependenceCertificate:
    family: Family
    chain_checks: tuple[ChainCheck, ...]
    coefficients_tested: tuple[int, ...] | None
    assembled_boundary: tuple[BoundaryComponent, ...]
    total_form_definiteness: Definiteness
    h1_z2_trivial: bool
    verdict: Verdict


def doubled_growth(m: SatelliteParams) -> int:
    """Left side of the chain inequality: p*q*(2n*p*q - 1)."""
    return _growth(m.p, m.q, 2 * m.n)


def single_growth(m: SatelliteParams) -> int:
    """Right side of the chain inequality: p*q*(n*p*q - 1)."""
    return _growth(m.p, m.q, m.n)


def furuta_chain_check(triples: Sequence[Sequence[int]]) -> list[bool]:
    """Strict growth p_i q_i (k_i p_i q_i - 1) < p_{i+1} q_{i+1} (...) for
    each consecutive pair of (p, q, k) triples; exact integer comparisons."""
    sizes = []
    for p, q, k in triples:
        _validate_triple(p, q, k)
        sizes.append(_growth(p, q, k))
    return [sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)]


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
    construction; one member's copies are carried as one (sign, size) block.
    Each unit of negative coefficient contributes two copies of
    +Sigma(p, q, 2n*p*q - 1) to the boundary.
    """
    cs = [int(c) for c in coefficients]
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
    blocks = [(z.sign, z.handle_count)]
    boundary = list(z.outgoing)
    h1 = z.h1_z2_trivial
    for member, c in zip(members, cs):
        if c == 0:
            continue
        # R has no outgoing boundary, so only reversed P adds pieces here.
        record = build_R(member) if c > 0 else reverse_orientation(build_P(member))
        blocks.append((record.sign, record.handle_count * abs(c)))
        h1 = h1 and record.h1_z2_trivial
        boundary.extend(BoundaryComponent(b.space, b.multiplicity * abs(c)) for b in record.outgoing)

    return AssembledManifold(
        boundary=tuple(boundary),
        blocks=tuple(blocks),
        h1_z2_trivial=h1,
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
    members = f.members
    checks = []
    for i in range(len(members) - 1):
        lhs, rhs = doubled_growth(members[i]), single_growth(members[i + 1])
        checks.append(ChainCheck(index=i + 1, lhs=lhs, rhs=rhs, ok=lhs < rhs))
    failing = next((c.index for c in checks if not c.ok), None)
    verdict = Verdict.ok() if failing is None else Verdict.fails(failing)

    tested = None if coefficients is None else tuple(int(c) for c in coefficients)
    assembled = assemble_X(f, [1] * len(members) if tested is None else tested)

    return IndependenceCertificate(
        family=f,
        chain_checks=tuple(checks),
        coefficients_tested=tested,
        assembled_boundary=assembled.boundary,
        total_form_definiteness=sign_blocks_definiteness(s for s, _ in assembled.blocks),
        h1_z2_trivial=assembled.h1_z2_trivial,
        verdict=verdict,
    )


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
    if fix_n is not None and (fix_n < 2 or fix_n % 2 != 0):
        raise InvalidParams(f"fix_n must be a positive even integer, got {fix_n}")
    bound = doubled_growth(prefix.members[-1])
    if fix_n is None:
        # minimal even n >= 2 with 6*(6n - 1) > bound
        n = max(2, (bound // 6 + 1) // 6 + 1)
        if n % 2 != 0:
            n += 1
        while _growth(2, 3, n) <= bound:
            n += 2
        return SatelliteParams(n, 2, 3)
    return next(
        SatelliteParams(fix_n, p, q) for p, q in _coprime_pairs() if _growth(p, q, fix_n) > bound
    )


def generate_family(
    start: SatelliteParams, count: int, fix_n: int | None = None
) -> Family:
    """Iterate next_member from a starting point to a family of the given size."""
    if count < 1:
        raise InvalidParams(f"count must be >= 1, got {count}")
    members = [start]
    while len(members) < count:
        members.append(next_member(Family(tuple(members)), fix_n=fix_n))
    return Family(tuple(members))
