"""Twisted satellites of torus knots and their double branched covers.

D_n denotes the unknotted winding-number-zero pattern whose clasp carries n
positive half twists (n even, so the pattern is nullhomologous in the solid
torus); D_n(T_{p,q}) is the satellite with companion the (p, q) torus knot.
Its double branched cover splits along two tori into the exterior of the
(2, -2n) torus link and two copies of the companion exterior; this module
records that splitting as exact matrix data and derives its filling slopes,
as Slope values.
knotcert.cobordisms defines these spaces; certification never loads this.

Basis convention: homology classes on a torus are column vectors over the
ordered basis (meridian, longitude); gluing maps act by left multiplication,
and the columns of a gluing matrix are the images of (mu, lambda).
"""

from __future__ import annotations

import math

from .cobordisms import THREE_SPHERE, SatelliteParams, ThreeSphere
from .cs_invariants import BrieskornSphere, _validate_sign, _validate_triple, _validate_twist
from .errors import InvalidParams, UnsupportedSlope, _sequence, _shown, _validate_ints, _Value

# Target-basis classes killed by a filling: the meridian disk class m and
# the longitude class l of the filled solid torus.
KILL_MERIDIAN = (1, 0)
KILL_LONGITUDE = (0, 1)


class Slope(_Value):
    """A surgery slope a/b on a knot: the class a*mu + b*lambda killed by the filling.

    Stored in canonical form: gcd(a, b) == 1 and b > 0, except for the formal
    slope 1/0 (the meridional filling, which restores S^3) stored as (1, 0).
    The constructor canonicalizes signs and rejects non-primitive classes.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        a, b = _validate_ints((a, b), "each of a, b")
        if (a, b) == (0, 0):
            raise InvalidParams("slope (0, 0) is not a homology class of a curve")
        if math.gcd(a, b) != 1:
            raise InvalidParams(f"slope {_shown(a)}/{_shown(b)} is not primitive")
        if b < 0 or (b == 0 and a < 0):
            a, b = -a, -b
        self._set(a, b)

    def __str__(self) -> str:
        return f"{self.a}/{self.b}"


class TorusGluingMap(_Value):
    """Unimodular identification of torus homology; columns are the images
    of (meridian, longitude) in the target (meridian, longitude) basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: tuple[tuple[int, int], tuple[int, int]]):
        rows = _sequence(matrix, "gluing matrix rows")
        m = tuple(tuple(_validate_ints(row, "a gluing matrix entry")) for row in rows)
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise InvalidParams("gluing matrix must be 2x2")
        self._set(m)
        if abs(self.determinant) != 1:
            raise InvalidParams(f"gluing matrix {_shown(m)} is not unimodular")

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


class TorusLinkExterior(_Value):
    """Exterior of the (2, -2n) torus link; its two unknotted components
    A1, A2 are the lifts of the satellite axis."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self._set(_validate_twist(n))

    @property
    def link_parameters(self) -> tuple[int, int]:
        return (2, -2 * self.n)

    @property
    def components(self) -> tuple[str, str]:
        return ("A1", "A2")


class CoverDecomposition(_Value):
    """Splitting of the branched double cover along two tori.

    The cover is the union of the (2, -2n) link exterior and two copies of
    the companion exterior; gluings gives the two identification matrices
    (phi_1, phi_2), each sending mu_K to -n*mu_{A_i} + lambda_{A_i} and
    lambda_K to mu_{A_i}, so both follow from n alone.
    """

    __slots__ = ("exterior_link",)
    companion_copies = 2

    def __init__(self, exterior_link: TorusLinkExterior):
        self._set(exterior_link)

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
        raise InvalidParams(f"killed must be (1, 0) or (0, 1), got {_shown(killed)}")
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
    raise UnsupportedSlope(f"slope {_shown(s)} is not 1/m with m >= 0")
