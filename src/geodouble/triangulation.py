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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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


def _shared_vertex(e: int, f: int) -> int:
    common = set(EDGE_ENDS[e]) & set(EDGE_ENDS[f])
    if len(common) != 1:
        raise ValueError(f"edges {e} and {f} do not meet in one vertex")
    return common.pop()


def _face_walk(edges: tuple[int, int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Walking the listed triple head-to-tail: corner j is where edge j meets
    # edge j+1; the walk traverses edge j with (+1) or against (-1) its arrow.
    corners = []
    signs = []
    for j in range(3):
        c = _shared_vertex(edges[j], edges[(j + 1) % 3])
        corners.append(c)
        signs.append(1 if EDGE_ENDS[edges[j]][1] == c else -1)
    return tuple(corners), tuple(signs)


def _induced_cycle(missing: int) -> tuple[int, int, int]:
    # Cyclic vertex order induced on the face opposite `missing` by the
    # reference orientation (0,1,2,3) of the solid tetrahedron.
    verts = [v for v in range(4) if v != missing]
    if missing % 2 == 1:
        verts[1], verts[2] = verts[2], verts[1]
    return tuple(verts)  # type: ignore[return-value]


def _same_cycle(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    return b in (a, (a[1], a[2], a[0]), (a[2], a[0], a[1]))


def _face_orientation_sign(name: str) -> int:
    corners, _ = _face_walk(FACES[name])
    missing = ({0, 1, 2, 3} - set(corners)).pop()
    return 1 if _same_cycle(corners, _induced_cycle(missing)) else -1


FACE_CORNERS: dict[str, tuple[int, ...]] = {}
FACE_WALK_SIGNS: dict[str, tuple[int, ...]] = {}
FACE_SIGN: dict[str, int] = {}
for _name, _edges in FACES.items():
    FACE_CORNERS[_name], FACE_WALK_SIGNS[_name] = _face_walk(_edges)
    FACE_SIGN[_name] = _face_orientation_sign(_name)


@dataclass(frozen=True, order=True)
class FaceSlot:
    tet: int   # 1-based tetrahedron index
    face: str

    def __str__(self) -> str:
        return f"{self.tet}.{self.face}"


@dataclass(frozen=True)
class FacePairing:
    """Glue face `a` to face `b`, matching edge j of a to edge j+rotation of b."""

    a: FaceSlot
    b: FaceSlot
    rotation: int = 0

    def __post_init__(self) -> None:
        for slot in (self.a, self.b):
            if slot.face not in FACES:
                raise SchemeError(f"unknown face name {slot.face!r}")
            if slot.tet < 1:
                raise SchemeError(f"tetrahedron index {slot.tet} out of range")
        if self.a == self.b:
            raise SchemeError(f"face {self.a} paired with itself")
        if self.rotation not in (0, 1, 2):
            raise SchemeError(f"rotation {self.rotation} not in 0..2")
        if self.b < self.a:
            first, second = self.b, self.a
            object.__setattr__(self, "a", first)
            object.__setattr__(self, "b", second)
            object.__setattr__(self, "rotation", (-self.rotation) % 3)

    def edge_matches(self) -> Iterator[tuple[tuple[int, int, int], tuple[int, int, int]]]:
        """Yield ((tet, edge, walk sign), (tet, edge, walk sign)) per matched edge."""
        ea, eb = FACES[self.a.face], FACES[self.b.face]
        sa, sb = FACE_WALK_SIGNS[self.a.face], FACE_WALK_SIGNS[self.b.face]
        for j in range(3):
            jb = (j + self.rotation) % 3
            yield (self.a.tet, ea[j], sa[j]), (self.b.tet, eb[jb], sb[jb])

    def corner_matches(self) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
        """Yield ((tet, vertex), (tet, vertex)) corner identifications."""
        ca, cb = FACE_CORNERS[self.a.face], FACE_CORNERS[self.b.face]
        for j in range(3):
            jb = (j + self.rotation) % 3
            yield (self.a.tet, ca[j]), (self.b.tet, cb[jb])


@dataclass(frozen=True)
class GluingScheme:
    tet_count: int
    pairings: tuple[FacePairing, ...]

    def __post_init__(self) -> None:
        if self.tet_count < 1:
            raise SchemeError(f"tet count must be positive, got {self.tet_count}")
        object.__setattr__(self, "pairings",
                           tuple(sorted(self.pairings, key=lambda p: (p.a, p.b))))
        seen: set[FaceSlot] = set()
        for p in self.pairings:
            for slot in (p.a, p.b):
                if slot.tet > self.tet_count:
                    raise SchemeError(f"face {slot} beyond tet count {self.tet_count}")
                if slot in seen:
                    raise SchemeError(f"face {slot} appears in more than one pairing")
                seen.add(slot)

    @property
    def is_closed(self) -> bool:
        return len(self.pairings) * 2 == 4 * self.tet_count


def parse_scheme(text: str) -> GluingScheme:
    """Parse the line-oriented scheme format.

    Header ``tets N``, then ``pair <i>.<face> <j>.<face> [edgeorder p q r]``
    per pairing; ``#`` starts a comment.  The optional edgeorder lists the
    second face's edges in the order they meet the first face's listed
    triple, and must preserve its cyclic order.
    """
    tet_count: int | None = None
    pairings: list[FacePairing] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if tet_count is None:
            if parts[0] != "tets" or len(parts) != 2:
                raise SchemeError("expected header 'tets N'", lineno)
            try:
                tet_count = int(parts[1])
            except ValueError:
                raise SchemeError(f"bad tet count {parts[1]!r}", lineno) from None
            if tet_count < 1:
                raise SchemeError(f"tet count must be positive, got {tet_count}", lineno)
            continue
        if parts[0] != "pair" or len(parts) not in (3, 7):
            raise SchemeError(f"expected 'pair A B [edgeorder p q r]', got {line!r}", lineno)
        if len(parts) == 7 and parts[3] != "edgeorder":
            raise SchemeError(f"expected 'edgeorder', got {parts[3]!r}", lineno)
        slots = []
        for token in parts[1:3]:
            bits = token.split(".")
            if len(bits) != 2:
                raise SchemeError(f"bad face token {token!r}", lineno)
            try:
                tet = int(bits[0])
            except ValueError:
                raise SchemeError(f"bad tetrahedron index in {token!r}", lineno) from None
            if bits[1] not in FACES:
                raise SchemeError(f"unknown face name {bits[1]!r}", lineno)
            slots.append(FaceSlot(tet, bits[1]))
        rotation = 0
        if len(parts) == 7:
            try:
                order = tuple(int(x) for x in parts[4:7])
            except ValueError:
                raise SchemeError(f"bad edge order {parts[4:7]!r}", lineno) from None
            b_edges = FACES[slots[1].face]
            for r in range(3):
                if order == tuple(b_edges[(j + r) % 3] for j in range(3)):
                    rotation = r
                    break
            else:
                raise SchemeError(
                    f"edge order {order} must preserve the cyclic order of face "
                    f"{slots[1].face}", lineno)
        try:
            pairings.append(FacePairing(slots[0], slots[1], rotation))
        except SchemeError as exc:
            raise SchemeError(str(exc), lineno) from None
    if tet_count is None:
        raise SchemeError("missing 'tets N' header")
    return GluingScheme(tet_count, tuple(pairings))


def render_scheme(scheme: GluingScheme) -> str:
    """Canonical text form: sorted pairings, edgeorder only when non-trivial."""
    lines = [f"tets {scheme.tet_count}"]
    for p in scheme.pairings:
        line = f"pair {p.a} {p.b}"
        if p.rotation:
            b_edges = FACES[p.b.face]
            order = " ".join(str(b_edges[(j + p.rotation) % 3]) for j in range(3))
            line += f" edgeorder {order}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# -- union-find ---------------------------------------------------------------


class _DSU:
    """Union-find where each item carries a +-1 sign relative to its root.

    A union whose relation contradicts the signs already imposed marks the
    component bad instead of raising.  Plain partitions use the default
    relation +1, so their signs all stay +1 and no component turns bad.
    """

    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}
        self.sign = {x: 1 for x in self.parent}
        self.bad: set = set()

    def find(self, x) -> tuple[object, int]:
        """(root, s) with value(x) = s * value(root)."""
        # Path halving: each visited item skips to its grandparent, and its
        # sign composes over the skipped link (roots always carry +1).
        parent, sign = self.parent, self.sign
        s = 1
        while True:
            p = parent[x]
            if p == x:
                return x, s
            g = parent[p]
            sign[x] *= sign[p]
            parent[x] = g
            s *= sign[x]
            x = g

    def union(self, x, y, rel: int = 1) -> None:
        """Impose value(x) = rel * value(y)."""
        rx, sx = self.find(x)
        ry, sy = self.find(y)
        if rx == ry:
            if sx != rel * sy:
                self.bad.add(rx)
            return
        # value(ry) = sy^-1 * rel^-1 * sx * value(rx)
        self.parent[ry] = rx
        self.sign[ry] = sx * rel * sy
        if ry in self.bad:
            self.bad.discard(ry)
            self.bad.add(rx)

    def components(self) -> list[list[tuple[object, int]]]:
        """Each class as sorted (item, sign to root) pairs, by least item."""
        groups: dict = {}
        for x in self.parent:
            root, s = self.find(x)
            groups.setdefault(root, []).append((x, s))
        return sorted(sorted(g) for g in groups.values())

    def is_bad(self, x) -> bool:
        return self.find(x)[0] in self.bad


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

    @property
    def angle_over_pi(self) -> Fraction:
        """The dihedral angle as an exact multiple of pi."""
        return Fraction(2, self.valence)

    @property
    def angle_degrees(self) -> Fraction:
        return Fraction(360, self.valence)

    @property
    def admissible(self) -> bool:
        """Angle strictly inside (0, 60) degrees; see ``dihedral_admissible``."""
        return dihedral_admissible(self.valence)


@dataclass(eq=False)
class GluedComplex:
    scheme: GluingScheme
    edge_classes: tuple[EdgeClass, ...]
    vertex_classes: tuple[tuple[tuple[int, int], ...], ...]
    orientable: bool
    closed: bool
    edge_lookup: dict[tuple[int, int], tuple[int, int]] = field(repr=False)
    vertex_lookup: dict[tuple[int, int], int] = field(repr=False)
    tet_components: tuple[frozenset[int], ...] = field(repr=False)

    @property
    def vertex_class_count(self) -> int:
        return len(self.vertex_classes)

    @property
    def connected(self) -> bool:
        return len(self.tet_components) == 1


def glue(scheme: GluingScheme, require_closed: bool = True) -> GluedComplex:
    """Compute edge classes, vertex classes and orientability of a scheme.

    With ``require_closed`` (the default) every face slot must be paired.
    Passing False computes the identification data of a partial gluing,
    which leaves some faces free.
    """
    if require_closed and not scheme.is_closed:
        raise GluingError(
            f"scheme is not closed: {len(scheme.pairings)} pairings for "
            f"{scheme.tet_count} tetrahedra")

    tets = range(1, scheme.tet_count + 1)
    edges = _DSU((t, e) for t in tets for e in EDGE_ENDS)
    verts = _DSU((t, v) for t in tets for v in range(4))
    orient = _DSU(tets)
    comps = _DSU(tets)

    for p in scheme.pairings:
        for (ta, ea, wa), (tb, eb, wb) in p.edge_matches():
            edges.union((ta, ea), (tb, eb), wa * wb)
        for ca, cb in p.corner_matches():
            verts.union(ca, cb)
        # Coherent orientation needs the glued faces' normals to point in
        # opposite effective directions: eps_a * eps_b = -s(Fa) * s(Fb).
        orient.union(p.a.tet, p.b.tet, -FACE_SIGN[p.a.face] * FACE_SIGN[p.b.face])
        comps.union(p.a.tet, p.b.tet)

    edge_classes = []
    edge_lookup: dict[tuple[int, int], tuple[int, int]] = {}
    for members in edges.components():
        base_sign = members[0][1]
        rebased = tuple((t, e, s * base_sign) for (t, e), s in members)
        edge_classes.append(EdgeClass(rebased, not edges.is_bad(members[0][0])))
        for (t, e), s in members:
            edge_lookup[(t, e)] = (len(edge_classes) - 1, s * base_sign)

    vertex_classes = []
    vertex_lookup: dict[tuple[int, int], int] = {}
    for members in verts.components():
        vertex_classes.append(tuple(m for m, _ in members))
        for m, _ in members:
            vertex_lookup[m] = len(vertex_classes) - 1

    components = tuple(frozenset(t for t, _ in ts) for ts in comps.components())

    return GluedComplex(
        scheme=scheme,
        edge_classes=tuple(edge_classes),
        vertex_classes=tuple(vertex_classes),
        orientable=not orient.bad,
        closed=scheme.is_closed,
        edge_lookup=edge_lookup,
        vertex_lookup=vertex_lookup,
        tet_components=components,
    )


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

    @property
    def total_triangles(self) -> int:
        return sum(c.triangle_count for c in self.components)


def _corner_ends(tet: int, vertex: int) -> tuple[tuple[int, int, int], ...]:
    # The three edge-ends meeting the given tetrahedron vertex, sorted;
    # these are the corners of the link triangle there.
    ends = []
    for e, (i, t) in EDGE_ENDS.items():
        if i == vertex:
            ends.append((tet, e, 0))
        if t == vertex:
            ends.append((tet, e, 1))
    return tuple(sorted(ends))


def _ref_direction(tri: tuple[tuple[int, int, int], ...],
                   p: tuple[int, int, int], q: tuple[int, int, int]) -> int:
    # Reference boundary cycle of a link triangle is tri[0]->tri[1]->tri[2];
    # +1 if it traverses p->q, -1 for q->p.
    for j in range(3):
        if tri[j] == p and tri[(j + 1) % 3] == q:
            return 1
        if tri[j] == q and tri[(j + 1) % 3] == p:
            return -1
    raise ValueError("ends do not span a side of the triangle")


def boundary_surfaces(complex: GluedComplex) -> BoundarySurfaceStats:
    """Count V, E, F, Euler characteristic, orientability and genus of the
    link surface of every vertex class of a closed complex."""
    if not complex.closed:
        raise GluingError("boundary surfaces need a closed scheme")
    scheme = complex.scheme
    tets = range(1, scheme.tet_count + 1)

    ends = _DSU((t, e, i) for t in tets for e in EDGE_ENDS for i in (0, 1))
    corners = _DSU((t, v) for t in tets for v in range(4))
    triangles = {(t, v): _corner_ends(t, v) for t in tets for v in range(4)}

    for p in scheme.pairings:
        matches = list(p.edge_matches())
        end_map: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        for (ta, ea, wa), (tb, eb, wb) in matches:
            # Walk-start maps to walk-start: same intrinsic ends when the
            # walk signs agree, crossed ends otherwise.
            if wa * wb == 1:
                pairs = [((ta, ea, 0), (tb, eb, 0)), ((ta, ea, 1), (tb, eb, 1))]
            else:
                pairs = [((ta, ea, 0), (tb, eb, 1)), ((ta, ea, 1), (tb, eb, 0))]
            for x, y in pairs:
                ends.union(x, y)
                end_map[x] = y
        corner_pairs = list(p.corner_matches())
        ea_list, eb_list = FACES[p.a.face], FACES[p.b.face]
        wa_list = FACE_WALK_SIGNS[p.a.face]
        for j, (ca, cb) in enumerate(corner_pairs):
            # The link-triangle side at corner j joins the walk-end of edge j
            # to the walk-start of edge j+1; transport both ends to face b.
            e_in, e_out = ea_list[j], ea_list[(j + 1) % 3]
            p1 = (p.a.tet, e_in, 1 if wa_list[j] == 1 else 0)
            q1 = (p.a.tet, e_out, 0 if wa_list[(j + 1) % 3] == 1 else 1)
            p2, q2 = end_map[p1], end_map[q1]
            d1 = _ref_direction(triangles[ca], p1, q1)
            d2 = _ref_direction(triangles[cb], p2, q2)
            # Coherent triangle orientations must induce opposite directions
            # on the glued side: o1*d1 = -o2*d2.
            corners.union(ca, cb, -d1 * d2)

    end_class: dict[tuple[int, int, int], object] = {}
    for t in tets:
        for e in EDGE_ENDS:
            for i in (0, 1):
                end_class[(t, e, i)] = ends.find((t, e, i))[0]

    components = []
    for idx, vclass in enumerate(complex.vertex_classes):
        tri_count = len(vclass)
        side_count, rem = divmod(3 * tri_count, 2)
        if rem:
            raise GluingError("odd number of link triangle sides; scheme not closed")
        roots = set()
        for (t, v) in vclass:
            for (te, ee, ie) in triangles[(t, v)]:
                roots.add(end_class[(te, ee, ie)])
        vertex_count = len(roots)
        orientable = not any(corners.is_bad(c) for c in vclass)
        chi = vertex_count - side_count + tri_count
        genus = (2 - chi) // 2 if orientable else 2 - chi
        components.append(BoundaryComponent(
            vertex_class=idx,
            triangle_count=tri_count,
            edge_count=side_count,
            vertex_count=vertex_count,
            euler_characteristic=chi,
            orientable=orientable,
            genus=genus,
        ))
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
    return tuple(
        DihedralEntry(i, ec.valence, ec.angle_degrees, ec.admissible)
        for i, ec in enumerate(complex.edge_classes)
    )


def handle_structure(complex: GluedComplex) -> tuple[int, int]:
    """(handlebody genus, number of 2-handles) of the glued complex.

    Removing a neighbourhood of the inner edges turns each tetrahedron into
    a ball with four disks; gluing n balls along p disk pairs yields a
    handlebody of genus p - n + 1, and each edge class contributes one
    2-handle when the edge neighbourhoods are put back.
    """
    if not complex.connected:
        raise GluingError("complex is disconnected")
    genus = len(complex.scheme.pairings) - complex.scheme.tet_count + 1
    return genus, len(complex.edge_classes)
