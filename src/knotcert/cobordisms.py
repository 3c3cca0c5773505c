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
need only boundaries, forms (sign * I of the handle count, carried as that
sign and size), and flags.  A record is its label, parameters, handle count
and orientation; both boundaries and the form's sign follow from those, so
a reversed record cannot keep the boundary of the one it reverses.  The
outgoing ends are stated in closed form, the Moser identification of each
label's filling.  SatelliteParams and the cover and S^3 ends are defined
here; the Brieskorn ends are knotcert.cs_invariants.BrieskornSphere.
"""

from __future__ import annotations

from enum import Enum

from .cs_invariants import BrieskornSphere, _validate_sign, _validate_triple, _validate_twist
from .errors import InvalidParams, _shown, _validate_ints, _Value


class SatelliteParams(_Value):
    """The triple (n, p, q) defining D_n(T_{p,q}).

    n >= 2 must be even (odd n gives the pattern nonzero winding number);
    p, q >= 2 must be coprime.  All three are stored as ints.
    """

    __slots__ = ("n", "p", "q")

    def __init__(self, n: int, p: int, q: int):
        n = _validate_twist(n)
        p, q, _ = _validate_triple((p, q, 1))
        self._set(n, p, q)

    def __str__(self) -> str:
        return f"D_{self.n}(T({self.p},{self.q}))"


class ThreeSphere(_Value):
    """Orientation-preserving diffeomorphism type of S^3 (amphichiral)."""

    __slots__ = ()

    def reversed(self) -> "ThreeSphere":
        return self

    def __str__(self) -> str:
        return "S^3"


class BranchedCover(_Value):
    """The double cover of S^3 branched over D_n(T_{p,q}), with orientation."""

    __slots__ = ("params", "orientation")

    def __init__(self, params: SatelliteParams, orientation: int = 1):
        self._set(params, _validate_sign(orientation))

    def reversed(self) -> "BranchedCover":
        return BranchedCover(self.params, -self.orientation)

    def __str__(self) -> str:
        sign = "" if self.orientation == 1 else "-"
        return f"{sign}Sigma_2({self.params})"


THREE_SPHERE = ThreeSphere()
BoundarySpace = BranchedCover | BrieskornSphere | ThreeSphere


class CobordismLabel(Enum):
    Z = "Z"
    R = "R"
    P = "P"

    def __str__(self) -> str:
        return self.value


class BoundaryComponent(_Value):
    """A boundary piece: an oriented space with a multiplicity >= 1."""

    __slots__ = ("space", "multiplicity")

    def __init__(self, space: BoundarySpace, multiplicity: int = 1):
        [m] = _validate_ints([multiplicity], "multiplicity")
        if m < 1:
            raise InvalidParams(f"multiplicity must be >= 1, got {_shown(m)}")
        self._set(space, m)

    def reversed(self) -> "BoundaryComponent":
        return BoundaryComponent(self.space.reversed(), self.multiplicity)

    def __str__(self) -> str:
        mult = f"{self.multiplicity} x " if self.multiplicity > 1 else ""
        return f"{mult}{self.space}"


class CobordismRecord(_Value):
    """Certified summary of one Z/R/P construction.

    orientation is +1 for the cobordism as built and -1 for its reversal, and
    it fixes both boundaries: incoming is the cover with that orientation, and
    outgoing, the closed form of the label's filling (one -Sigma(p, q, n*p*q - 1)
    for Z, none for R, two copies of -Sigma(p, q, 2n*p*q - 1) for P), has every
    component reversed when orientation is -1.  So reverse_orientation(record)
    is the reversal.  R and P attach n handles; Z attaches
    one per crossing change, at least one.  The intersection form is
    sign * I_handle_count, carried as that sign and size; a caller that wants
    the dense matrix builds it with SymIntMatrix.from_rows.  Z, R and P all
    have trivial first homology, so h1_z2_trivial is a class constant.
    """

    __slots__ = ("label", "params", "handle_count", "orientation", "outgoing")
    h1_z2_trivial = True

    def __init__(self, label: CobordismLabel, params: SatelliteParams, handle_count: int, orientation: int = 1):
        orientation = _validate_sign(orientation)
        [c] = _validate_ints([handle_count], "handle count")
        s = params
        if label is CobordismLabel.Z:
            if c < 1:
                raise InvalidParams(f"crossing count must be >= 1, got {_shown(c)}")
        elif c != s.n:
            raise InvalidParams(f"{label} attaches n = {_shown(s.n)} handles, got {_shown(c)}")
        # Moser: 1/k surgery on T_{p,q} is -Sigma(p, q, k*p*q - 1).  Z fills
        # with 1/n, P fills both companion copies with 1/(2n), and R's 1/0
        # filling is S^3, capped with a 4-ball: no outgoing boundary.
        if label is CobordismLabel.R:
            outgoing = ()
        else:
            k, copies = (s.n, 1) if label is CobordismLabel.Z else (2 * s.n, 2)
            sphere = BrieskornSphere(s.p, s.q, k * s.p * s.q - 1, orientation=-orientation)
            outgoing = (BoundaryComponent(sphere, copies),)
        self._set(label, params, c, orientation, outgoing)

    @property
    def incoming(self) -> BoundaryComponent:
        return BoundaryComponent(BranchedCover(self.params, self.orientation))

    @property
    def sign(self) -> int:
        """Handle framing sign: -1 for Z and R, +1 for P, times orientation."""
        return (1 if self.label is CobordismLabel.P else -1) * self.orientation

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
    return CobordismRecord(r.label, r.params, r.handle_count, -r.orientation)
