"""Face-pairing schemes on tetrahedra and their identification combinatorics.

The model tetrahedron has four vertices 0..3 and six directed edges,
numbered 1..6, drawn as arrows between vertices:

    1: 0->1    2: 2->0    3: 1->2    4: 2->3    5: 3->1    6: 3->0

Each of the four triangular faces is named by the ordered triple of edges
around it: 132, 453, 264, 516.  A pairing glues two faces by matching
their listed edge triples in cyclic order (an optional rotation offsets
the match); the induced walk around one triangle maps head-to-tail onto
the walk around the other, which pins down how directed edges, edge ends
and corners are identified.

Gluing a closed scheme partitions the 6n edges into edge classes (whose
valence fixes a dihedral angle 2*pi/valence), partitions the 4n vertices
into vertex classes, and decides orientability: tetrahedra get signs +-1
and every pairing must join faces whose effective normal directions
(intrinsic face sign times tetrahedron sign) are opposite.  The link of
each vertex class is a closed surface assembled from one corner triangle
per tetrahedron vertex; its Euler characteristic and orientability give
the genus of the corresponding boundary component after truncation.

A ``GluingScheme`` stores one entry per pairing in five integer columns,
sorted by the lesser face a: the tetrahedron and face index of a and of b,
and the rotation.  Face indices 0..3 follow name order (``FACE_NAMES``), so
the slot 4t + index orders faces as (t, name) does.  ``FacePairing``
records are made only when ``pairings`` is read; the package never reads
it, the benchmark does.  ``FacePairing`` and ``parse_scheme`` check each
pairing with one helper, ``_pairing``.  ``parse_scheme`` reads
``render_scheme``'s text of a scheme with no rotations by columns, if sorted,
in range and on distinct faces; other text, and so every error, goes by lines.

What a pairing identifies depends only on its two faces and its rotation,
so a table built at import holds all 4 * 4 * 3 = 48 cases: three edge
links with their relative arrow signs, three corner links with the sign
that coherent link-triangle orientations need across the glued side, and
the orientation relation of the two tetrahedra.  ``glue`` alone feeds
these links to one signed union-find over a single flat index space of 11n
items for n tetrahedra: edge e of tetrahedron t is 6(t-1)+(e-1), in
0..6n-1; its vertex v is the corner 6n+4(t-1)+v, in 6n..10n-1; and the
tetrahedron itself is 10n+(t-1), in 10n..11n-1.  A ``GluedComplex`` holds
the result in columns over that space, ``classes[x]`` (the class of item x
among those of its kind, numbered by least item) and ``signs[x]`` (its sign
against that item), and in per-class columns.  The package reads only
these.  ``edge_classes``, a tuple of ``EdgeClass`` records built on first
read, stays as a view because the benchmark reads its valences.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import lt
from typing import Iterable, Iterator

EDGE_ENDS: dict[int, tuple[int, int]] = {
    1: (0, 1), 2: (2, 0), 3: (1, 2), 4: (2, 3), 5: (3, 1), 6: (3, 0),
}

FACES: dict[str, tuple[int, int, int]] = {
    "132": (1, 3, 2), "453": (4, 5, 3), "264": (2, 6, 4), "516": (5, 1, 6),
}


class SchemeError(ValueError):
    """Invalid scheme file or pairing data; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GluingError(ValueError):
    """Operation applied to a scheme or complex that cannot support it."""


def _face_walk(edges: tuple[int, int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Walking the listed triple head-to-tail: corner j is where edge j meets
    # edge j+1, in one vertex; the walk traverses edge j with (+1) or against
    # (-1) its arrow.
    corners, signs = [], []
    for e, f in zip(edges, edges[1:] + edges[:1]):
        [c] = set(EDGE_ENDS[e]) & set(EDGE_ENDS[f])
        corners.append(c)
        signs.append(1 if EDGE_ENDS[e][1] == c else -1)
    return tuple(corners), tuple(signs)


def _face_orientation_sign(corners: tuple[int, ...]) -> int:
    # +1 when the corners run in the cyclic order that the orientation (0,1,2,3)
    # of the solid induces on a face: ascending, the last two swapped when the
    # missing vertex is odd.
    missing = ({0, 1, 2, 3} - set(corners)).pop()
    a, b, c = (v for v in range(4) if v != missing)
    induced = (a, c, b) if missing % 2 else (a, b, c)
    return 1 if induced in (corners, corners[1:] + corners[:1], corners[2:] + corners[:2]) else -1


FACE_CORNERS: dict[str, tuple[int, ...]] = {}
FACE_WALK_SIGNS: dict[str, tuple[int, ...]] = {}
FACE_SIGN: dict[str, int] = {}
for _name, _edges in FACES.items():
    FACE_CORNERS[_name], FACE_WALK_SIGNS[_name] = _face_walk(_edges)
    FACE_SIGN[_name] = _face_orientation_sign(FACE_CORNERS[_name])


@dataclass(frozen=True, order=True, slots=True)
class FaceSlot:
    tet: int   # 1-based tetrahedron index
    face: str

    def __str__(self) -> str:
        return f"{self.tet}.{self.face}"


@dataclass(frozen=True, slots=True, init=False)
class FacePairing:
    """Glue face `a` to face `b`, matching edge j of a to edge j+rotation of b."""

    a: FaceSlot
    b: FaceSlot
    rotation: int = 0

    def __init__(self, a: FaceSlot, b: FaceSlot, rotation: int = 0) -> None:
        _, _, rotation = _pairing(a.tet, a.face, b.tet, b.face, rotation)
        if b < a:  # slots order faces as (tet, face) does
            a, b = b, a
        for name, value in zip(self.__slots__, (a, b, rotation)):
            object.__setattr__(self, name, value)


FACE_NAMES = tuple(sorted(FACES))
_FACE_INDEX = {name: i for i, name in enumerate(FACE_NAMES)}


def _slot(tet: int, name: str) -> int:
    """The slot 4 * tet + face index of a valid face."""
    face = _FACE_INDEX.get(name)
    if face is None:
        raise SchemeError(f"unknown face name {name!r}")
    if type(tet) is not int:
        raise SchemeError(f"tetrahedron index {tet!r} is not an int")
    if tet < 1:
        raise SchemeError(f"tetrahedron index {tet} out of range")
    return 4 * tet + face


def _pairing(at: int, a_name: str, bt: int, b_name: str, rotation: int) -> tuple[int, int, int]:
    """Check a pairing of face at.a_name to face bt.b_name; return its two
    slots, lesser first, and its rotation against that order: swapping the
    faces turns the offset of b against a into its negative."""
    sa, sb = _slot(at, a_name), _slot(bt, b_name)
    if sa == sb:
        raise SchemeError(f"face {at}.{a_name} paired with itself")
    if type(rotation) is not int or rotation not in (0, 1, 2):
        raise SchemeError(f"rotation {rotation!r} not in 0..2")
    return (sa, sb, rotation) if sa < sb else (sb, sa, -rotation % 3)


def _claim(claimed: set[int], tet_count: int, sa: int, sb: int) -> None:
    """Claim the two faces of a pairing, lesser slot first."""
    for slot in (sa, sb):
        if slot >> 2 > tet_count or slot in claimed:
            fault = f"beyond tet count {tet_count}" if slot >> 2 > tet_count else \
                "appears in more than one pairing"
            raise SchemeError(f"face {slot >> 2}.{FACE_NAMES[slot & 3]} {fault}")
        claimed.add(slot)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class GluingScheme:
    """Face pairings of ``tet_count`` tetrahedra, in the module docstring's columns."""

    tet_count: int
    a_tets: tuple[int, ...]
    a_faces: tuple[int, ...]
    b_tets: tuple[int, ...]
    b_faces: tuple[int, ...]
    rotations: tuple[int, ...]

    def __init__(self, tet_count: int, pairings: Iterable[FacePairing]) -> None:
        if type(tet_count) is not int:
            raise SchemeError(f"tet count {tet_count!r} is not an int")
        if tet_count < 1:
            raise SchemeError(f"tet count must be positive, got {tet_count}")
        rows = sorted((p.a.tet, _FACE_INDEX[p.a.face], p.b.tet, _FACE_INDEX[p.b.face],
                       p.rotation) for p in pairings)
        claimed: set[int] = set()
        for at, af, bt, bf, _ in rows:
            _claim(claimed, tet_count, 4 * at + af, 4 * bt + bf)
        self._fill(tet_count, zip(*rows))

    @classmethod
    def _from_columns(cls, tet_count: int, columns: Iterable[tuple[int, ...]]) -> "GluingScheme":
        """Build, without checks, from columns of sorted, normalised, claimed pairings."""
        return object.__new__(cls)._fill(tet_count, columns)

    def _fill(self, tet_count: int, columns: Iterable[tuple[int, ...]]) -> "GluingScheme":
        for name, value in zip(self.__slots__, (tet_count, *(tuple(columns) or ((),) * 5))):
            object.__setattr__(self, name, value)
        return self

    def _rows(self) -> Iterator[tuple[int, int, int, int, int]]:
        return zip(self.a_tets, self.a_faces, self.b_tets, self.b_faces, self.rotations)

    @property
    def pairings(self) -> tuple[FacePairing, ...]:
        """The pairings as records, in column order; built on each access."""
        return tuple(FacePairing(FaceSlot(at, FACE_NAMES[af]), FaceSlot(bt, FACE_NAMES[bf]), r)
                     for at, af, bt, bf, r in self._rows())

    @property
    def is_closed(self) -> bool:
        return len(self.a_tets) * 2 == 4 * self.tet_count

    def __repr__(self) -> str:
        return f"GluingScheme(tet_count={self.tet_count!r}, pairings={self.pairings!r})"


# Each face's edge listings that keep its cyclic order, mapped to their rotation
# (edge j of the first face meets listed edge j), and their edgeorder text.
_EDGE_ORDERS: dict[str, dict[tuple[int, ...], int]] = {
    name: {edges[r:] + edges[:r]: r for r in range(3)} for name, edges in FACES.items()}
_EDGE_ORDER_TEXT = tuple(("", *(" edgeorder %d %d %d" % order for order in list(orders)[1:]))
                         for orders in map(_EDGE_ORDERS.get, FACE_NAMES))


def _face_token(token: str) -> tuple[int, str]:
    tet, dot, face = token.partition(".")
    if not dot or "." in face:
        raise SchemeError(f"bad face token {token!r}")
    try:
        return int(tet), face
    except ValueError:
        raise SchemeError(f"bad tetrahedron index in {token!r}") from None


_CANONICAL = re.compile(r"tets [1-9][0-9]*\n(?:pair [1-9][0-9]*\.(?:{0}) [1-9][0-9]*\.(?:{0})\n)*"
                        .format("|".join(FACE_NAMES)))


def parse_scheme(text: str) -> GluingScheme:
    """Parse the line-oriented scheme format.

    Header ``tets N``, then ``pair <i>.<face> <j>.<face> [edgeorder p q r]``
    per pairing; ``#`` starts a comment.  The optional edgeorder lists the
    second face's edges in the order they meet the first face's listed
    triple, and must preserve its cyclic order.  Canonical text (``_CANONICAL``,
    with no comment, edgeorder or leading zero) is read by columns; all other
    text, and every error, comes from the line reader ``_parse_lines``.
    """
    if _CANONICAL.fullmatch(text):
        tokens = text.replace(".", " ").split()
        n, a_tets, b_tets = int(tokens[1]), *(tuple(map(int, tokens[k::5])) for k in (3, 5))
        a_faces, b_faces = (tuple(map(_FACE_INDEX.__getitem__, tokens[k::5])) for k in (4, 6))
        sa = [4 * t + f for t, f in zip(a_tets, a_faces)]
        sb = [4 * t + f for t, f in zip(b_tets, b_faces)]
        # Sorted, lesser face first (so b has the greatest tet index), each face once.
        if (all(map(lt, sa, sa[1:])) and all(map(lt, sa, sb))
                and max(b_tets, default=0) <= n and len(set(sa).union(sb)) == 2 * len(sa)):
            return GluingScheme._from_columns(n, (a_tets, a_faces, b_tets, b_faces, (0,) * len(sa)))
    return _parse_lines(text)


def _parse_lines(text: str) -> GluingScheme:
    """``parse_scheme`` line by line, with every check and its message."""
    tet_count: int | None = None
    rows = []
    claimed: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            if tet_count is None:
                if parts[0] != "tets" or len(parts) != 2:
                    raise SchemeError("expected header 'tets N'")
                try:
                    tet_count = int(parts[1])
                except ValueError:
                    raise SchemeError(f"bad tet count {parts[1]!r}") from None
                if tet_count < 1:
                    raise SchemeError(f"tet count must be positive, got {tet_count}")
                continue
            if parts[0] != "pair" or len(parts) not in (3, 7):
                line = raw.split("#", 1)[0].strip()
                raise SchemeError(f"expected 'pair A B [edgeorder p q r]', got {line!r}")
            if len(parts) == 7 and parts[3] != "edgeorder":
                raise SchemeError(f"expected 'edgeorder', got {parts[3]!r}")
            (at, a_name), (bt, b_name) = _face_token(parts[1]), _face_token(parts[2])
            rotation = 0
            if len(parts) == 7:
                try:
                    order = tuple(map(int, parts[4:7]))
                except ValueError:
                    raise SchemeError(f"bad edge order {parts[4:7]!r}") from None
                # An unknown face name is left for _slot to report.
                orders = _EDGE_ORDERS.get(b_name)
                rotation = orders.get(order) if orders else 0
                if rotation is None:
                    raise SchemeError(f"edge order {order} must preserve the cyclic "
                                      f"order of face {b_name}")
            sa, sb, rotation = _pairing(at, a_name, bt, b_name, rotation)
            _claim(claimed, tet_count, sa, sb)
        except SchemeError as exc:
            raise SchemeError(str(exc), lineno) from None
        rows.append((sa >> 2, sa & 3, sb >> 2, sb & 3, rotation))
    if tet_count is None:
        raise SchemeError("missing 'tets N' header")
    return GluingScheme._from_columns(tet_count, zip(*sorted(rows)))


def render_scheme(scheme: GluingScheme) -> str:
    """Canonical text form: sorted pairings, edgeorder only when non-trivial."""
    names = FACE_NAMES
    lines = [f"tets {scheme.tet_count}"]
    lines += [f"pair {at}.{names[af]} {bt}.{names[bf]}{_EDGE_ORDER_TEXT[bf][r]}"
              for at, af, bt, bf, r in scheme._rows()]
    return "\n".join(lines) + "\n"


# -- the face-gluing table ----------------------------------------------------


# The three edge-ends (edge, 0 for the tail or 1 for the head) meeting each
# vertex, sorted; these are the corners of the link triangle there.
_CORNER_ENDS = tuple(
    tuple(sorted((e, i) for e, ends in EDGE_ENDS.items() for i in (0, 1) if ends[i] == v))
    for v in range(4))


def _ref_direction(tri: tuple[tuple[int, int], ...],
                   p: tuple[int, int], q: tuple[int, int]) -> int:
    # Reference boundary cycle of a link triangle is tri[0]->tri[1]->tri[2];
    # +1 if it traverses p->q, -1 for q->p (index checks both are corners).
    return 1 if tri.index(q) == (tri.index(p) + 1) % 3 else -1


def _face_gluing(face_a: str, face_b: str, rotation: int):
    """The seven links (m, ka, kb, rel) of gluing face_a of tetrahedron ta
    to face_b of tetrahedron tb (both counted from 0): each joins the flat
    items m * ta + ka and m * tb + kb of one kind, counted from the kind's
    first item, with value(a) = rel * value(b).

    Three edge links (m = 6) carry the relative arrow sign; three corner
    links (m = 4) carry the link-side sign, the sign that coherent
    orientations of the two link triangles must have relative to each
    other; one link (m = 1) relates the orientations of the tetrahedra.
    """
    ea, wa, ca = FACES[face_a], FACE_WALK_SIGNS[face_a], FACE_CORNERS[face_a]
    # Face b's tables turned so that position j meets position j of face a.
    eb, wb, cb = (t[face_b][rotation:] + t[face_b][:rotation]
                  for t in (FACES, FACE_WALK_SIGNS, FACE_CORNERS))
    links, end_map = [], {}
    for e, f, s, t in zip(ea, eb, wa, wb):
        links.append((6, e - 1, f - 1, s * t))
        # Walk-start maps to walk-start: same intrinsic ends when the walk
        # signs agree, crossed ends otherwise.
        for i in (0, 1):
            end_map[(e, i)] = (f, i if s == t else 1 - i)
    for j, (va, vb) in enumerate(zip(ca, cb)):
        # The link-triangle side at corner j joins the walk-end of edge j
        # to the walk-start of edge j+1; transport both ends to face b.
        p1 = (ea[j], 1 if wa[j] == 1 else 0)
        q1 = (ea[(j + 1) % 3], 0 if wa[(j + 1) % 3] == 1 else 1)
        d1 = _ref_direction(_CORNER_ENDS[va], p1, q1)
        d2 = _ref_direction(_CORNER_ENDS[vb], end_map[p1], end_map[q1])
        # Coherent triangle orientations must induce opposite directions
        # on the glued side: o1*d1 = -o2*d2.
        links.append((4, va, vb, -d1 * d2))
    # Coherent orientation needs the glued faces' normals to point in
    # opposite effective directions: eps_a * eps_b = -s(Fa) * s(Fb).
    links.append((1, 0, 0, -FACE_SIGN[face_a] * FACE_SIGN[face_b]))
    return tuple(links)


# One entry per face index a, face index b and rotation: 4 * 4 * 3 = 48.
_GLUINGS = tuple(tuple(tuple(_face_gluing(fa, fb, r) for r in range(3)) for fb in FACE_NAMES)
                 for fa in FACE_NAMES)


# -- glued complexes ----------------------------------------------------------


@dataclass(frozen=True)
class EdgeClass:
    """One 1-cell of the glued complex: an orbit of tetrahedron edges.

    Members are (tet, edge, sign) with sign +-1 relative to the first
    member's arrow.  The valence (member count) fixes the dihedral angle
    2*pi/valence needed for the angles around the 1-cell to close up.
    """

    members: tuple[tuple[int, int, int], ...]
    orientation_consistent: bool = True

    @property
    def valence(self) -> int:
        return len(self.members)


@dataclass(eq=False)
class GluedComplex:
    """What ``glue`` found, in the module docstring's columns."""

    scheme: GluingScheme
    orientable: bool
    closed: bool
    classes: list[int] = field(repr=False)
    signs: list[int] = field(repr=False)
    edge_roots: list[int] = field(repr=False)
    valences: list[int] = field(repr=False)
    edge_consistent: list[bool] = field(repr=False)
    vertex_sizes: list[int] = field(repr=False)
    link_orientable: tuple[bool, ...] = field(repr=False)
    component_count: int = field(repr=False)

    @property
    def vertex_class_count(self) -> int:
        return len(self.vertex_sizes)

    @property
    def connected(self) -> bool:
        return self.component_count == 1

    def edge_end_classes(self) -> Iterator[tuple[int, int]]:
        """The vertex classes at the tail and head of each edge class's least item."""
        classes, c0 = self.classes, 6 * self.scheme.tet_count
        for root in self.edge_roots:
            tail, head = EDGE_ENDS[root % 6 + 1]
            yield classes[c0 + root // 6 * 4 + tail], classes[c0 + root // 6 * 4 + head]

    @functools.cached_property
    def edge_classes(self) -> tuple[EdgeClass, ...]:
        """The edge classes as records, members in increasing item order."""
        members: list[list[tuple[int, int, int]]] = [[] for _ in self.valences]
        for x, (k, s) in enumerate(zip(self.classes[:6 * self.scheme.tet_count], self.signs)):
            members[k].append((x // 6 + 1, x % 6 + 1, s))
        return tuple(EdgeClass(tuple(m), ok) for m, ok in zip(members, self.edge_consistent))


def glue(scheme: GluingScheme, require_closed: bool = True) -> GluedComplex:
    """Compute edge classes, vertex classes and the orientability of a
    scheme and of each vertex link.

    With ``require_closed`` (the default) every face slot must be paired.
    Passing False computes the identification data of a partial gluing,
    which leaves some faces free.
    """
    if require_closed and not scheme.is_closed:
        raise GluingError(f"scheme is not closed: {len(scheme.a_tets)} pairings for "
                          f"{scheme.tet_count} tetrahedra")

    # One signed union-find over the flat items of the module docstring,
    # with value(x) = sign[x] * value(parent[x]).  A union hangs the greater
    # root under the lesser, so parent[x] <= x and each root is the least
    # item of its class; its signs are then products along the forest of
    # the links that merged two classes, as path halving keeps them.  A link
    # that contradicts the signs already imposed records its root in clashes.
    # Items of kind m start at first[m] + m, as tetrahedra count from 1.
    n = scheme.tet_count
    c0, t0 = 6 * n, 10 * n
    first = {6: -6, 4: c0 - 4, 1: t0 - 1}
    parent, sign, clashes = list(range(11 * n)), [1] * (11 * n), []
    for ta, fa, tb, fb, r in scheme._rows():
        for m, ka, kb, rel in _GLUINGS[fa][fb][r]:
            base = first[m]
            x, y, sx = m * ta + ka + base, m * tb + kb + base, rel
            while (q := parent[x]) != x:
                sign[x] *= sign[q]
                sx *= sign[x]
                parent[x] = x = parent[q]
            while (q := parent[y]) != y:
                sign[y] *= sign[q]
                sx *= sign[y]
                parent[y] = y = parent[q]
            # The link now asks value(x) = sx * value(y) of the two roots.
            if x == y:
                if sx != 1:
                    clashes.append(x)
            elif x < y:
                parent[y], sign[y] = x, sx
            else:
                parent[x], sign[x] = y, sx

    # One increasing pass turns parent and sign into the class and sign columns:
    # a lesser parent already holds its class (numbered by least item) and sign.
    roots, sizes = ([], [], []), ([], [], [])
    for kind, (start, stop) in enumerate(((0, c0), (c0, t0), (t0, 11 * n))):
        root, size = roots[kind], sizes[kind]
        for x in range(start, stop):
            p = parent[x]
            if p == x:
                parent[x] = len(size)
                root.append(x)
                size.append(1)
            else:
                parent[x] = k = parent[p]
                sign[x] *= sign[p]
                size[k] += 1
    consistent = tuple([True] * len(size) for size in sizes)
    for x in clashes:
        consistent[(x >= c0) + (x >= t0)][parent[x]] = False
    return GluedComplex(
        scheme, all(consistent[2]), scheme.is_closed, parent, sign, roots[0], sizes[0],
        consistent[0], sizes[1], tuple(consistent[1]), len(sizes[2]))


# -- boundary (vertex link) surfaces -----------------------------------------


@dataclass(frozen=True)
class BoundaryComponent:
    vertex_class: int
    triangle_count: int
    edge_count: int
    vertex_count: int
    euler_characteristic: int
    orientable: bool
    genus: int


@dataclass(frozen=True)
class BoundarySurfaceStats:
    components: tuple[BoundaryComponent, ...]


def boundary_surfaces(complex: GluedComplex) -> BoundarySurfaceStats:
    """Count V, E, F, Euler characteristic, orientability and genus of the
    link surface of every vertex class of a closed complex."""
    if not complex.closed:
        raise GluingError("boundary surfaces need a closed scheme")

    # Link vertices are edge ends, identified as glue identified their
    # edges: an edge class has a tail and a head end (one end when it is
    # glued to itself reversed), each in the link of the vertex class at
    # its first member's tail or head.
    vertex_counts = [0] * complex.vertex_class_count
    for (tail, head), consistent in zip(complex.edge_end_classes(), complex.edge_consistent):
        vertex_counts[tail] += 1
        if consistent:
            vertex_counts[head] += 1

    components = []
    for idx, (tri_count, orientable) in enumerate(zip(complex.vertex_sizes,
                                                       complex.link_orientable)):
        # In a closed complex every link-triangle side is glued to exactly
        # one other side, so the sides pair up.
        side_count = 3 * tri_count // 2
        chi = vertex_counts[idx] - side_count + tri_count
        genus = (2 - chi) // 2 if orientable else 2 - chi
        components.append(BoundaryComponent(idx, tri_count, side_count, vertex_counts[idx],
                                            chi, orientable, genus))
    return BoundarySurfaceStats(tuple(components))


# -- dihedral angles and handle structure -------------------------------------


@dataclass(frozen=True)
class DihedralEntry:
    edge_class: int
    valence: int
    angle_degrees: Fraction
    admissible: bool


def dihedral_admissible(valence: int) -> bool:
    """Is the dihedral angle 2*pi/valence strictly inside (0, 60) degrees?"""
    return valence > 6


def dihedral_report(complex: GluedComplex) -> tuple[DihedralEntry, ...]:
    return tuple(DihedralEntry(i, v, Fraction(360, v), dihedral_admissible(v))
                 for i, v in enumerate(complex.valences))


def handle_structure(complex: GluedComplex) -> tuple[int, int]:
    """(handlebody genus, number of 2-handles) of the glued complex.

    Removing a neighbourhood of the inner edges turns each tetrahedron into
    a ball with four disks; gluing n balls along p disk pairs yields a
    handlebody of genus p - n + 1, and each edge class contributes one
    2-handle when the edge neighbourhoods are put back.
    """
    if not complex.connected:
        raise GluingError("complex is disconnected")
    genus = len(complex.scheme.a_tets) - complex.scheme.tet_count + 1
    return genus, len(complex.valences)
