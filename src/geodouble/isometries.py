"""Numeric classification of hyperbolic isometries via 2x2 complex matrices.

An isometry of hyperbolic 3-space is encoded by a determinant-1 complex
matrix acting on the boundary sphere, as z -> (az+b)/(cz+d) when
orientation preserving, or z -> M(conj(z)) when the ``reversing`` flag is
set.  Matrices are taken up to a global sign, and every equality test is
an absolute comparison against a configurable tolerance (default 1e-9)
after determinant normalisation.

Orientation-preserving elements fall into four classes by the squared
trace: identity, elliptic (real in [0,4)), parabolic (exactly 4 and not
the identity), loxodromic (everything else).  Two nontrivial preserving
isometries commute exactly in one of three geometric configurations:
both parabolic with a common fixed point, both non-parabolic with a
common axis, or two half-turn rotations about perpendicular axes.
``commuting_criterion`` detects which configuration holds and ``commute``
checks the commutator directly, so the equivalence of the two is a
testable property rather than an assumption.

One routine, ``_normalised``, checks and normalises every matrix: the
constructor, ``compose``, ``inverse`` and ``commute`` build through it, and
``commute`` runs the five normalisations of a b a^-1 b^-1 on bare entries,
with no ``Isometry`` in between.  The predicates share one identity, class
and fixed-point pass per argument: ``is_identity``, ``classify`` and
``fixed_points`` check the tolerance once and call the private helpers,
and ``commuting_criterion`` classifies each argument once and finds each
argument's fixed points at most once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

DEFAULT_TOL = 1e-9

INF = complex(math.inf, 0.0)


def _tol_value(tol: float | None) -> float:
    """The tolerance as a float; the one check that it is positive and finite."""
    if tol is None:
        return DEFAULT_TOL
    t = float(tol)
    if not 0 < t < math.inf:
        raise ValueError(f"tolerance must be a positive finite number, got {t!r}")
    return t


def _normalised(a: complex, b: complex, c: complex, d: complex
                ) -> tuple[complex, complex, complex, complex]:
    """The entries scaled to determinant 1 by 1/sqrt(det); the one place a
    matrix is checked and normalised, for every construction and product."""
    det = a * d - b * c
    inf = math.inf
    try:
        size = abs(det)
    except OverflowError:  # finite parts, modulus past the float range
        size = inf
    if not size < inf:
        raise ValueError("matrix determinant is not finite: entries too large")
    if size < 1e-14:
        raise ValueError("matrix is not invertible")
    s = 1 / cmath.sqrt(det)
    a, b, c, d = a * s, b * s, c * s, d * s
    try:
        finite = abs(a) < inf and abs(b) < inf and abs(c) < inf and abs(d) < inf
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("matrix entry modulus is not finite: entries too large")
    return a, b, c, d


def _is_identity(a: complex, b: complex, c: complex, d: complex, t: float) -> bool:
    """Preserving entries equal to +identity or -identity within ``t``."""
    if abs(b) > t or abs(c) > t:
        return False
    return (abs(a - 1) <= t and abs(d - 1) <= t) or (abs(a + 1) <= t and abs(d + 1) <= t)


def _conjugates(a: complex, b: complex, c: complex, d: complex
                ) -> tuple[complex, complex, complex, complex]:
    return a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()


class Isometry:
    """A determinant-normalised 2x2 complex matrix with a reversing flag."""

    __slots__ = ("a", "b", "c", "d", "reversing")

    def __init__(self, a: complex, b: complex, c: complex, d: complex,
                 reversing: bool = False):
        self.a, self.b, self.c, self.d = _normalised(a, b, c, d)
        self.reversing = reversing

    def trace(self) -> complex:
        return self.a + self.d

    def compose(self, other: "Isometry") -> "Isometry":
        """Composition self after other; conjugation flags compose by
        (M, r1) o (N, r2) = (M * conj^r1(N), r1 xor r2)."""
        na, nb, nc, nd = other.a, other.b, other.c, other.d
        if self.reversing:
            na, nb, nc, nd = _conjugates(na, nb, nc, nd)
        return Isometry(
            self.a * na + self.b * nc, self.a * nb + self.b * nd,
            self.c * na + self.d * nc, self.c * nb + self.d * nd,
            self.reversing != other.reversing)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return self.compose(other)

    def inverse(self) -> "Isometry":
        inv = (self.d, -self.b, -self.c, self.a)
        if self.reversing:
            inv = _conjugates(*inv)
        return Isometry(*inv, reversing=self.reversing)

    def apply(self, z: complex) -> complex:
        """Act on a boundary point (INF is the point at infinity)."""
        if self.reversing and not cmath.isinf(z):
            z = z.conjugate()
        if cmath.isinf(z):
            return INF if abs(self.c) == 0 else self.a / self.c
        denom = self.c * z + self.d
        if abs(denom) == 0:
            return INF
        return (self.a * z + self.b) / denom

    def is_identity(self, tol: float | None = None) -> bool:
        """Equal to +identity or -identity within tolerance (and preserving)."""
        t = _tol_value(tol)
        return not self.reversing and _is_identity(self.a, self.b, self.c, self.d, t)

    def __repr__(self) -> str:
        rev = ", reversing" if self.reversing else ""
        return f"Isometry([[{self.a}, {self.b}], [{self.c}, {self.d}]]{rev})"


class ElementClass(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    LOXODROMIC = "loxodromic"


def classify(g: Isometry, tol: float | None = None) -> ElementClass:
    """Conjugacy class of an orientation-preserving isometry by its trace."""
    if g.reversing:
        raise ValueError("classification applies to orientation-preserving isometries")
    return _class(g, _tol_value(tol))


def _class(g: Isometry, t: float) -> ElementClass:
    """``classify`` of a preserving isometry at a checked tolerance."""
    if _is_identity(g.a, g.b, g.c, g.d, t):
        return ElementClass.IDENTITY
    # A product, not ** 2, which raises OverflowError past the float range.
    tr = g.a + g.d
    t2 = tr * tr
    try:
        near_four = abs(t2 - 4) <= t
    except OverflowError:  # finite parts, modulus past the float range
        return ElementClass.LOXODROMIC
    if near_four:
        return ElementClass.PARABOLIC
    if abs(t2.imag) <= t and -t <= t2.real < 4:
        return ElementClass.ELLIPTIC
    return ElementClass.LOXODROMIC


@dataclass(frozen=True)
class FixedPointSet:
    """Boundary fixed-point set: none, one point, two points, a circle or
    line (plane reflections), or the whole sphere."""

    kind: str  # "empty" | "point" | "pair" | "circle" | "line" | "all"
    points: tuple[complex, ...] = ()
    center: complex | None = None
    radius: float | None = None
    line_point: complex | None = None
    line_direction: complex | None = None


def fixed_points(g: Isometry, tol: float | None = None) -> FixedPointSet:
    """Fixed points of the boundary action.

    Preserving isometries have 1 or 2 boundary fixed points (or all of the
    sphere for the identity).  For reversing involutions the set is either
    empty (reflection in an interior point) or a circle/line (reflection in
    a geodesic plane).  Other reversing isometries are not supported.
    """
    t = _tol_value(tol)
    if not g.reversing:
        if _is_identity(g.a, g.b, g.c, g.d, t):
            return FixedPointSet(kind="all")
        points = _fixed_points_preserving(g, t)
        return FixedPointSet(kind="point" if len(points) == 1 else "pair", points=points)
    square = g @ g
    if not square.is_identity(max(t, 1e-9) * 10):
        raise ValueError(
            "fixed-point sets of reversing isometries are computed only for involutions")
    a, b, c, d = g.a, g.b, g.c, g.d
    if abs(c) <= t and d != 0:
        # z = mu*conj(z) + nu with |mu| = 1: reflection in a line.  A d that
        # is 0 makes bc = -1, so c != 0 however small: a circle or nothing.
        mu = a / d
        nu = b / d
        direction = cmath.sqrt(mu)
        return FixedPointSet(kind="line", line_point=nu / 2, line_direction=direction)
    z0 = a / c
    r2 = (b / c + z0 * z0.conjugate()).real
    if r2 > t:
        return FixedPointSet(kind="circle", center=z0, radius=math.sqrt(r2))
    if r2 < -t:
        # Inversion with negative squared radius: the antipodal type, no
        # boundary fixed points (its fixed point is interior).
        return FixedPointSet(kind="empty")
    raise ValueError("degenerate reversing involution")


def _fixed_points_preserving(g: Isometry, t: float) -> tuple[complex, ...]:
    """The one or two boundary fixed points of a preserving non-identity."""
    a, b, c, d = g.a, g.b, g.c, g.d
    if abs(c) <= t:
        # Infinity is fixed; the finite fixed point solves (a-d) z + b = 0.
        if abs(a - d) <= t:
            return (INF,)
        return (b / (d - a), INF)
    # (d - a) ** 2 as products, which cannot raise OverflowError; the power
    # also multiplies by 1 + 0j, which sets the signs of zero parts, and so
    # the branch of the root and the order of the two points.
    disc = (1 + 0j) * ((d - a) * (d - a)) + 4 * b * c
    try:
        size = abs(disc)
    except OverflowError:  # finite parts, modulus past the float range
        size = math.inf
    if not size < math.inf:
        return _far_fixed_points(a, b, c, d)
    if size <= t * t * 4:
        return ((a - d) / (2 * c),)
    root = cmath.sqrt(disc)
    z1 = ((a - d) + root) / (2 * c)
    z2 = ((a - d) - root) / (2 * c)
    return z1, z2


def _far_fixed_points(a: complex, b: complex, c: complex, d: complex) -> tuple[complex, complex]:
    # The two fixed points when (d - a)^2 + 4bc overflows.  Dividing it by
    # m^2, m = |d - a|, scales its principal root by 1/m and keeps the signs
    # of zero parts, so z1 and z2 keep their order.  Of ((a - d) +- root)/2c,
    # the one whose sum does not cancel is computed; the other follows from
    # z1 * z2 = -b/c, as subtracting nearly equal huge numbers would lose it.
    m = abs(d - a)
    if 0 < m < math.inf:
        w = (d - a) / m
        root = cmath.sqrt((1 + 0j) * (w * w) + 4 * (b / m) * (c / m))
        two_c = 2 * c
        if cmath.isinf(two_c):  # |c| past half the float range: halve m instead
            two_c, m = c, m / 2
        if abs(root - w) >= abs(root + w):
            z1 = (root - w) / two_c * m
            z2 = -b / (c * z1)
        else:
            z2 = -(w + root) / two_c * m
            z1 = -b / (c * z2)
        if cmath.isfinite(z1) and cmath.isfinite(z2):
            return z1, z2
    raise ValueError("fixed points out of floating-point range: (d - a)^2 + 4bc overflows")


def chordal(p: complex, q: complex) -> float:
    """Chordal distance on the boundary sphere, handling infinity."""
    if cmath.isinf(p) and cmath.isinf(q):
        return 0.0
    if cmath.isinf(p):
        return 2 / math.hypot(1, abs(q))
    if cmath.isinf(q):
        return 2 / math.hypot(1, abs(p))
    try:
        dist = 2 * abs(p - q) / (math.hypot(1, abs(p)) * math.hypot(1, abs(q)))
    except OverflowError:  # a complex p - q whose modulus is past the range
        dist = math.nan
    if math.isnan(dist):
        # |p - q| and the product below it overflow: halve p and q, and
        # divide before multiplying back.
        dist = 4 * (abs(p / 2 - q / 2) / math.hypot(1, abs(p))) / math.hypot(1, abs(q))
    return dist


def _homogeneous(p: complex) -> tuple[complex, complex]:
    return (1, 0) if cmath.isinf(p) else (p, 1)


def cross_ratio(a: complex, b: complex, c: complex, d: complex) -> complex:
    """Cross ratio (a,b; c,d); equals -1 when the geodesic with endpoints
    a,b meets the geodesic with endpoints c,d perpendicularly."""
    pa, pb, pc, pd = (_homogeneous(x) for x in (a, b, c, d))

    def det(p, q):
        return p[0] * q[1] - p[1] * q[0]

    denom = det(pa, pd) * det(pb, pc)
    if abs(denom) == 0:
        return INF
    return det(pa, pc) * det(pb, pd) / denom


def commute(a: Isometry, b: Isometry, tol: float | None = None) -> bool:
    """Is the commutator a b a^-1 b^-1 equal to +-identity within tolerance?"""
    ca, cb, cc, cd = _commutator(a, b)
    return _is_identity(ca, cb, cc, cd, _tol_value(tol))


def _commutator(g: Isometry, h: Isometry) -> tuple[complex, complex, complex, complex]:
    """The entries of ``g @ h @ g.inverse() @ h.inverse()``, with its five
    normalisations in its order and the same arithmetic, so they and any
    error are bit-for-bit those of the composed path.  The flags cancel in
    pairs, so the commutator preserves orientation."""
    ga, gb, gc, gd, gr = g.a, g.b, g.c, g.d, g.reversing
    ha, hb, hc, hd, hr = h.a, h.b, h.c, h.d, h.reversing
    na, nb, nc, nd = ha, hb, hc, hd
    if gr:
        na, nb, nc, nd = _conjugates(na, nb, nc, nd)
    pa, pb, pc, pd = _normalised(ga * na + gb * nc, ga * nb + gb * nd,  # g @ h
                                 gc * na + gd * nc, gc * nb + gd * nd)
    na, nb, nc, nd = gd, -gb, -gc, ga
    if gr:
        na, nb, nc, nd = _conjugates(na, nb, nc, nd)
    na, nb, nc, nd = _normalised(na, nb, nc, nd)  # g.inverse()
    if gr != hr:  # the flag of g @ h
        na, nb, nc, nd = _conjugates(na, nb, nc, nd)
    pa, pb, pc, pd = _normalised(pa * na + pb * nc, pa * nb + pb * nd,
                                 pc * na + pd * nc, pc * nb + pd * nd)
    na, nb, nc, nd = hd, -hb, -hc, ha
    if hr:
        na, nb, nc, nd = _conjugates(na, nb, nc, nd)
    na, nb, nc, nd = _normalised(na, nb, nc, nd)  # h.inverse()
    if hr:  # the flag of g @ h @ g.inverse()
        na, nb, nc, nd = _conjugates(na, nb, nc, nd)
    return _normalised(pa * na + pb * nc, pa * nb + pb * nd,
                       pc * na + pd * nc, pc * nb + pd * nd)


class CommutingCase(Enum):
    SHARED_PARABOLIC_POINT = "shared_parabolic_point"
    SHARED_AXIS = "shared_axis"
    PERPENDICULAR_PI_ROTATIONS = "perpendicular_pi_rotations"
    NONE = "none"


def commuting_criterion(a: Isometry, b: Isometry,
                        tol: float | None = None) -> CommutingCase:
    """Which commuting configuration two nontrivial preserving isometries
    are in, if any.

    The tags cover: parabolics with the same boundary fixed point, a shared
    axis between non-parabolics, and half-turns about perpendicular axes
    (detected by squared trace 0 on both and cross-ratio -1 of the axis
    endpoint pairs).  Commuting is equivalent to the tag being != NONE.
    """
    t = _tol_value(tol)
    if a.reversing or b.reversing:
        raise ValueError("criterion applies to orientation-preserving isometries")
    ca, cb = _class(a, t), _class(b, t)
    if ca is ElementClass.IDENTITY or cb is ElementClass.IDENTITY:
        raise ValueError("criterion needs nontrivial isometries")
    # Chordal point matching tolerance: fixed points come out of a square
    # root, so allow the square-root loss relative to the matrix tolerance.
    pt_tol = math.sqrt(t)
    if ca is ElementClass.PARABOLIC and cb is ElementClass.PARABOLIC:
        pa = _fixed_points_preserving(a, t)[0]
        pb = _fixed_points_preserving(b, t)[0]
        if chordal(pa, pb) <= pt_tol:
            return CommutingCase.SHARED_PARABOLIC_POINT
        return CommutingCase.NONE
    if ca is ElementClass.PARABOLIC or cb is ElementClass.PARABOLIC:
        return CommutingCase.NONE
    pa = _fixed_points_preserving(a, t)
    pb = _fixed_points_preserving(b, t)
    if len(pa) == 2 and len(pb) == 2:
        direct = max(chordal(pa[0], pb[0]), chordal(pa[1], pb[1]))
        crossed = max(chordal(pa[0], pb[1]), chordal(pa[1], pb[0]))
        if min(direct, crossed) <= pt_tol:
            return CommutingCase.SHARED_AXIS
        if (ca is ElementClass.ELLIPTIC and cb is ElementClass.ELLIPTIC
                and abs(a.trace()) <= pt_tol and abs(b.trace()) <= pt_tol):
            cr = cross_ratio(pa[0], pa[1], pb[0], pb[1])
            if not cmath.isinf(cr) and abs(cr + 1) <= pt_tol:
                return CommutingCase.PERPENDICULAR_PI_ROTATIONS
    return CommutingCase.NONE


class FixType(Enum):
    TRIVIAL = "e"
    CYCLIC = "Z"
    RANK_TWO_ABELIAN = "Z+Z"
    WHOLE_GROUP = "G"
    SURFACE = "pi1(S)"


def fix_type_table(orientation_preserving: bool, phi_squared_identity: bool,
                   manifold_closed: bool) -> frozenset[FixType]:
    """The possible isomorphism types of the fixed subgroup of an
    automorphism of a hyperbolic 3-manifold group, by case."""
    if orientation_preserving:
        if manifold_closed:
            return frozenset({FixType.CYCLIC, FixType.WHOLE_GROUP})
        return frozenset({FixType.TRIVIAL, FixType.CYCLIC,
                          FixType.RANK_TWO_ABELIAN, FixType.WHOLE_GROUP})
    if not phi_squared_identity:
        return frozenset({FixType.TRIVIAL, FixType.CYCLIC})
    return frozenset({FixType.TRIVIAL, FixType.SURFACE})
