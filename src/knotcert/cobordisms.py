"""The three definite cobordisms out of the branched double cover.

Each construction attaches 2-handles to I x Sigma_2(D_n(T_{p,q})) along a
framed link and is recorded here as exact data: boundary components,
intersection form, and homology flags.  With Sigma = Sigma_2(D_n(T_{p,q})):

  Z : negative definite, to -Sigma(p, q, n*p*q - 1).  Handles undo the c
      positive crossings of the companion with -1 framing; form -I_c.
  R : negative definite, to S^3 (capped with a 4-ball, so no outgoing
      boundary).  n handles with -1 framing along the clasp; form -I_n.
  P : positive definite, to two copies of -Sigma(p, q, 2n*p*q - 1).
      n handles with +1 framing; form +I_n.

All three have trivial integral first homology.  The records are certified
summaries, not handle-by-handle 4-manifold structures: downstream consumers
need only boundaries, forms (carried as sign and size, materialised only
on request), and flags.  A record is its label, parameters, handle count
and orientation; both boundaries and the form's sign follow from those, so
a reversed record cannot keep the boundary of the one it reverses.  The
outgoing ends are stated in closed form, the Moser identification of each
label's filling; knotcert.covers holds the gluing-map and slope derivation
that the tests check every record against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import ClassVar, Union

from .covers import BranchedCover, SatelliteParams, ThreeSphere
from .cs_invariants import _validate_ints, _validate_sign
from .errors import InvalidParams
from .exactmath import SymIntMatrix
from .fs_invariant import BrieskornSphere

BoundarySpace = Union[BranchedCover, BrieskornSphere, ThreeSphere]


class CobordismLabel(Enum):
    Z = "Z"
    R = "R"
    P = "P"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class BoundaryComponent:
    """A boundary piece: an oriented space with a multiplicity >= 1."""

    space: BoundarySpace
    multiplicity: int = 1

    def __post_init__(self) -> None:
        [m] = _validate_ints([self.multiplicity], "multiplicity")
        if m < 1:
            raise InvalidParams(f"multiplicity must be >= 1, got {m}")
        object.__setattr__(self, "multiplicity", m)

    def reversed(self) -> "BoundaryComponent":
        return BoundaryComponent(self.space.reversed(), self.multiplicity)

    def __str__(self) -> str:
        mult = f"{self.multiplicity} x " if self.multiplicity > 1 else ""
        return f"{mult}{self.space}"


@dataclass(frozen=True)
class CobordismRecord:
    """Certified summary of one Z/R/P construction.

    orientation is +1 for the cobordism as built and -1 for its reversal, and
    it fixes both boundaries: incoming is the cover with that orientation, and
    outgoing, the closed form of the label's filling (one -Sigma(p, q, n*p*q - 1)
    for Z, none for R, two copies of -Sigma(p, q, 2n*p*q - 1) for P), has every
    component reversed when orientation is -1.  So replace(record,
    orientation=-1) is the reversal.  R and P attach n handles; Z attaches
    one per crossing change, at least one.  The intersection form is
    sign * I_handle_count, carried as that sign and size; form materialises
    the dense matrix on each access.  Z, R and P all have trivial first
    homology, so h1_z2_trivial is a class constant.
    """

    label: CobordismLabel
    params: SatelliteParams
    handle_count: int
    orientation: int = 1
    outgoing: tuple[BoundaryComponent, ...] = field(init=False)
    h1_z2_trivial: ClassVar[bool] = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "orientation", _validate_sign(self.orientation))
        [c] = _validate_ints([self.handle_count], "handle count")
        object.__setattr__(self, "handle_count", c)
        s = self.params
        if self.label is CobordismLabel.Z:
            if c < 1:
                raise InvalidParams(f"crossing count must be >= 1, got {c}")
        elif c != s.n:
            raise InvalidParams(f"{self.label} attaches n = {s.n} handles, got {c}")
        # Moser: 1/k surgery on T_{p,q} is -Sigma(p, q, k*p*q - 1).  Z fills
        # with 1/n, P fills both companion copies with 1/(2n), and R's 1/0
        # filling is S^3, capped with a 4-ball: no outgoing boundary.
        if self.label is CobordismLabel.R:
            outgoing = ()
        else:
            k, copies = (s.n, 1) if self.label is CobordismLabel.Z else (2 * s.n, 2)
            sphere = BrieskornSphere(s.p, s.q, k * s.p * s.q - 1, orientation=-self.orientation)
            outgoing = (BoundaryComponent(sphere, copies),)
        object.__setattr__(self, "outgoing", outgoing)

    @property
    def incoming(self) -> BoundaryComponent:
        return BoundaryComponent(BranchedCover(self.params, self.orientation))

    @property
    def sign(self) -> int:
        """Handle framing sign: -1 for Z and R, +1 for P, times orientation."""
        return (1 if self.label is CobordismLabel.P else -1) * self.orientation

    @property
    def form(self) -> SymIntMatrix:
        """The intersection form sign * I_handle_count as a dense matrix."""
        return SymIntMatrix.identity(self.handle_count, scale=self.sign)

    def __str__(self) -> str:
        sign = "" if self.orientation == 1 else "-"
        return f"{sign}{self.label}({self.params.n},{self.params.p},{self.params.q})"


def default_crossing_count(p: int, q: int) -> int:
    """Length of the standard positive-to-negative unknotting sequence of
    T_{p,q}: its unknotting number (p-1)(q-1)/2."""
    return (p - 1) * (q - 1) // 2


def build_Z(s: SatelliteParams, crossings: int | None = None) -> CobordismRecord:
    """Negative definite cobordism from the cover to -Sigma(p, q, n*p*q - 1).

    crossings overrides the number of crossing changes used to unknot the
    companion (any positive-to-negative sequence works); the default is the
    torus-knot unknotting number.  The outgoing sphere is the Moser
    identification of the 1/n filling that the pattern gluing map induces.
    """
    c = default_crossing_count(s.p, s.q) if crossings is None else crossings
    return CobordismRecord(CobordismLabel.Z, s, c)


def build_R(s: SatelliteParams) -> CobordismRecord:
    """Negative definite cobordism from the cover to the empty manifold.

    The n -1-framed handles along the clasp turn the cover into 1/0 surgery
    on both companion copies, i.e. S^3, which is then capped with a 4-ball.
    """
    return CobordismRecord(CobordismLabel.R, s, s.n)


def build_P(s: SatelliteParams) -> CobordismRecord:
    """Positive definite cobordism from the cover to two copies of
    -Sigma(p, q, 2n*p*q - 1), via the slope-1/(2n) filling of each companion
    copy induced by the +1-framed handles."""
    return CobordismRecord(CobordismLabel.P, s, s.n)


def reverse_orientation(r: CobordismRecord) -> CobordismRecord:
    """Orientation reversal: flips the orientation, hence the form's sign and
    definiteness class, and every boundary component.  An involution."""
    return replace(r, orientation=-r.orientation)
