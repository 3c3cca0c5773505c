"""Twisted satellites of torus knots and their double branched covers.

D_n denotes the unknotted winding-number-zero pattern whose clasp carries n
positive half twists (n even, so the pattern is nullhomologous in the solid
torus); D_n(T_{p,q}) is the satellite with companion the (p, q) torus knot.
The double cover of S^3 branched over D_n(T_{p,q}) splits along two tori
into the exterior of the (2, -2n) torus link and two copies of the
companion exterior; this module records that splitting as exact matrix data
and computes the surgery slopes of the fillings used downstream.

Basis convention: homology classes on a torus are column vectors over the
ordered basis (meridian, longitude); gluing maps act by left multiplication,
and the columns of a gluing matrix are the images of (mu, lambda).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .cs_invariants import _validate_ints, _validate_sign, _validate_triple, _validate_twist
from .errors import InvalidParams, UnsupportedSlope
from .exactmath import Slope
from .fs_invariant import BrieskornSphere

# Target-basis classes killed by a filling: the meridian disk class m and
# the longitude class l of the filled solid torus.
KILL_MERIDIAN = (1, 0)
KILL_LONGITUDE = (0, 1)


@dataclass(frozen=True)
class SatelliteParams:
    """The triple (n, p, q) defining D_n(T_{p,q}).

    n >= 2 must be even (odd n gives the pattern nonzero winding number);
    p, q >= 2 must be coprime.  All three are stored as ints.
    """

    n: int
    p: int
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _validate_twist(self.n))
        p, q, _ = _validate_triple((self.p, self.q, 1))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __str__(self) -> str:
        return f"D_{self.n}(T({self.p},{self.q}))"


@dataclass(frozen=True)
class ThreeSphere:
    """Orientation-preserving diffeomorphism type of S^3 (amphichiral)."""

    def reversed(self) -> "ThreeSphere":
        return self

    def __str__(self) -> str:
        return "S^3"


THREE_SPHERE = ThreeSphere()


@dataclass(frozen=True)
class BranchedCover:
    """The double cover of S^3 branched over D_n(T_{p,q}), with orientation."""

    params: SatelliteParams
    orientation: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "orientation", _validate_sign(self.orientation))

    def reversed(self) -> "BranchedCover":
        return BranchedCover(self.params, -self.orientation)

    def __str__(self) -> str:
        sign = "" if self.orientation == 1 else "-"
        return f"{sign}Sigma_2({self.params})"


@dataclass(frozen=True)
class TorusGluingMap:
    """Unimodular identification of torus homology; columns are the images
    of (meridian, longitude) in the target (meridian, longitude) basis."""

    matrix: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self) -> None:
        m = tuple(tuple(_validate_ints(row, "a gluing matrix entry")) for row in self.matrix)
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise InvalidParams("gluing matrix must be 2x2")
        object.__setattr__(self, "matrix", m)
        if abs(self.determinant) != 1:
            raise InvalidParams(f"gluing matrix {m} is not unimodular")

    @property
    def determinant(self) -> int:
        m = self.matrix
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        m = self.matrix
        return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])

    def compose(self, inner: "TorusGluingMap") -> "TorusGluingMap":
        """self after inner (matrix product self @ inner)."""
        a, b = self.matrix, inner.matrix
        return TorusGluingMap(
            (
                (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
                (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
            )
        )


@dataclass(frozen=True)
class TorusLinkExterior:
    """Exterior of the (2, -2n) torus link; its two unknotted components
    A1, A2 are the lifts of the satellite axis."""

    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _validate_twist(self.n))

    @property
    def link_parameters(self) -> tuple[int, int]:
        return (2, -2 * self.n)

    @property
    def components(self) -> tuple[str, str]:
        return ("A1", "A2")


@dataclass(frozen=True)
class CoverDecomposition:
    """Splitting of the branched double cover along two tori.

    The cover is the union of the (2, -2n) link exterior and two copies of
    the companion exterior; gluings gives the two identification matrices
    (phi_1, phi_2), each sending mu_K to -n*mu_{A_i} + lambda_{A_i} and
    lambda_K to mu_{A_i}, so both follow from n alone.
    """

    exterior_link: TorusLinkExterior
    companion_copies: ClassVar[int] = 2

    @property
    def gluings(self) -> tuple[TorusGluingMap, TorusGluingMap]:
        g = pattern_gluing_map(self.exterior_link.n)
        return (g, g)


def pattern_gluing_map(n: int) -> TorusGluingMap:
    """The identification mu_K -> -n*mu_A + lambda_A, lambda_K -> mu_A."""
    n = _validate_twist(n)
    return TorusGluingMap(((-n, 1), (1, 0)))


def post_surgery_gluing(n: int, handle_sign: int) -> TorusGluingMap:
    """Composite identification after the +-1-framed handles unlink the axis lifts.

    The n crossing changes turn the (2, -2n) link into a 2-component unlink
    and re-frame its components: in the unknot exterior the lift meridian
    maps to the core longitude and the lift longitude picks up -(sign)*n
    meridians.  Composing with the pattern map and the unlink-complement
    identification (mu_U -> l, lambda_U -> m) gives the filling map in the
    (m, l) basis of the solid torus:

        mu_K -> m + (-n - sign*n) * l,   lambda_K -> l.
    """
    n, handle_sign = _validate_twist(n), _validate_sign(handle_sign, "handle_sign")
    unlink_frame = TorusGluingMap(((1, -handle_sign * n), (0, 1)))
    meridian_longitude_swap = TorusGluingMap(((0, 1), (1, 0)))
    return meridian_longitude_swap.compose(unlink_frame.compose(pattern_gluing_map(n)))


def double_cover_decomposition(s: SatelliteParams) -> CoverDecomposition:
    """Exact splitting of the double branched cover of D_n(T_{p,q}).

    The result depends only on the pattern parameter n; the companion enters
    downstream through the surgery slopes of its two exterior copies.
    """
    return CoverDecomposition(TorusLinkExterior(s.n))


def slope_from_filling(g: TorusGluingMap, killed: tuple[int, int]) -> Slope:
    """Surgery slope induced by a filling that kills a target basis curve.

    killed is (1, 0) for the meridian-disk class m or (0, 1) for the
    longitude class l.  Returns the primitive a*mu + b*lambda with
    g(a, b) = +-killed, canonicalized as a Slope.  For unimodular g the
    solution always exists and is unique up to sign.
    """
    if killed not in (KILL_MERIDIAN, KILL_LONGITUDE):
        raise InvalidParams(f"killed must be (1, 0) or (0, 1), got {killed}")
    m = g.matrix
    det = g.determinant
    # TorusGluingMap guarantees det = +-1, so det * adj is the exact integer
    # inverse and g(a, b) = killed holds by construction.
    a = det * (m[1][1] * killed[0] - m[0][1] * killed[1])
    b = det * (-m[1][0] * killed[0] + m[0][0] * killed[1])
    return Slope(a, b)


def moser_identify(p: int, q: int, s: Slope) -> BrieskornSphere | ThreeSphere:
    """Identify 1/m surgery on the (p, q) torus knot, after Moser.

    1/m surgery (m >= 1) yields the reversed Brieskorn sphere
    -Sigma(p, q, m*p*q - 1); the formal slope 1/0 restores S^3.  Any other
    slope is outside the family this library handles and raises
    UnsupportedSlope.
    """
    p, q, _ = _validate_triple((p, q, 1))
    if s == Slope(1, 0):
        return THREE_SPHERE
    if s.a == 1 and s.b >= 1:
        return BrieskornSphere(p, q, s.b * p * q - 1, orientation=-1)
    raise UnsupportedSlope(f"slope {s} is not 1/m with m >= 0")
