"""Independent brute-force oracles the test suite checks the library against.

Everything here recomputes its answer from first principles (exhaustive
enumeration, naive rewriting, minors) without sharing the library's
algorithmic path, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from geodouble.freegroups import SubgroupGraph, Word, concat, free_reduce, inverse_word
from geodouble.doubling import Double, DoubleWord
from geodouble.triangulation import (
    EDGE_ENDS,
    FACES,
    FACE_CORNERS,
    FACE_WALK_SIGNS,
    GluedComplex,
    GluingScheme,
)


# -- words ---------------------------------------------------------------------


def naive_reduce(word) -> Word:
    """Repeated full scans until no adjacent cancelling pair remains."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                del w[i:i + 2]
                changed = True
                break
    return tuple(w)


def bounded_products(generators: list[Word], length: int) -> set[Word]:
    """All reduced products of at most `length` generators or inverses."""
    basis = [free_reduce(g) for g in generators] + \
            [inverse_word(g) for g in generators]
    out: set[Word] = {()}
    frontier: set[Word] = {()}
    for _ in range(length):
        nxt = set()
        for w in frontier:
            for g in basis:
                p = concat(w, g)
                if p not in out:
                    out.add(p)
                    nxt.add(p)
        frontier = nxt
    return out


# -- permutation-action membership (exact for complete graphs) ------------------


def permutation_graph(perms: list[list[int]], rank: int) -> SubgroupGraph:
    """Complete folded graph where generator i acts by the i-th permutation."""
    size = len(perms[0])
    adjacency = [dict() for _ in range(size)]
    for i, perm in enumerate(perms, start=1):
        for v, w in enumerate(perm):
            adjacency[v][i] = w
            adjacency[w][-i] = v
    return SubgroupGraph.from_adjacency(rank, adjacency)


def permutation_member(perms: list[list[int]], word) -> bool:
    """Exact membership in the base-point stabiliser of the action."""
    v = 0
    for s in free_reduce(word):
        perm = perms[abs(s) - 1]
        v = perm[v] if s > 0 else perm.index(v)
    return v == 0


# -- orientability ---------------------------------------------------------------


def _induced_cycle(missing: int) -> tuple[int, int, int]:
    verts = [v for v in range(4) if v != missing]
    if missing % 2 == 1:
        verts[1], verts[2] = verts[2], verts[1]
    return tuple(verts)  # type: ignore[return-value]


def _same_cycle(a, b) -> bool:
    return b in (a, (a[1], a[2], a[0]), (a[2], a[0], a[1]))


def brute_orientable(scheme: GluingScheme) -> bool:
    """Try every tetrahedron sign assignment; a pairing is compatible when it
    identifies the two induced face orientations oppositely."""
    n = scheme.tet_count
    for signs in itertools.product((1, -1), repeat=n - 1):
        eps = {1: 1, **{i: s for i, s in enumerate(signs, start=2)}}
        if all(_pairing_compatible(p, eps) for p in scheme.pairings):
            return True
    return False


def _pairing_compatible(p, eps) -> bool:
    ca, cb = FACE_CORNERS[p.a.face], FACE_CORNERS[p.b.face]
    ma = ({0, 1, 2, 3} - set(ca)).pop()
    mb = ({0, 1, 2, 3} - set(cb)).pop()
    ia, ib = _induced_cycle(ma), _induced_cycle(mb)
    if eps[p.a.tet] == -1:
        ia = (ia[0], ia[2], ia[1])
    if eps[p.b.tet] == -1:
        ib = (ib[0], ib[2], ib[1])
    corner_map = {ca[j]: cb[(j + p.rotation) % 3] for j in range(3)}
    transported = tuple(corner_map[v] for v in ia)
    return not _same_cycle(transported, ib)


def brute_link_orientable(complex: GluedComplex, vertex_class: int) -> bool:
    """Exhaustive sign search over the link triangles of one vertex class."""
    scheme = complex.scheme
    corners = list(complex.vertex_classes[vertex_class])
    pos = {c: i for i, c in enumerate(corners)}

    def corner_ends(tet, vertex):
        ends = []
        for e, (i, t) in EDGE_ENDS.items():
            if i == vertex:
                ends.append((tet, e, 0))
            if t == vertex:
                ends.append((tet, e, 1))
        return tuple(sorted(ends))

    constraints = []  # (corner index, corner index, required sign product)
    for p in scheme.pairings:
        ea, eb = FACES[p.a.face], FACES[p.b.face]
        wa, wb = FACE_WALK_SIGNS[p.a.face], FACE_WALK_SIGNS[p.b.face]
        end_map = {}
        for j in range(3):
            jb = (j + p.rotation) % 3
            if wa[j] * wb[jb] == 1:
                end_map[(p.a.tet, ea[j], 0)] = (p.b.tet, eb[jb], 0)
                end_map[(p.a.tet, ea[j], 1)] = (p.b.tet, eb[jb], 1)
            else:
                end_map[(p.a.tet, ea[j], 0)] = (p.b.tet, eb[jb], 1)
                end_map[(p.a.tet, ea[j], 1)] = (p.b.tet, eb[jb], 0)
        ca_list, cb_list = FACE_CORNERS[p.a.face], FACE_CORNERS[p.b.face]
        for j in range(3):
            ca = (p.a.tet, ca_list[j])
            cb = (p.b.tet, cb_list[(j + p.rotation) % 3])
            if ca not in pos:
                continue
            p1 = (p.a.tet, ea[j], 1 if wa[j] == 1 else 0)
            q1 = (p.a.tet, ea[(j + 1) % 3], 0 if wa[(j + 1) % 3] == 1 else 1)
            p2, q2 = end_map[p1], end_map[q1]

            def direction(corner, x, y):
                tri = corner_ends(*corner)
                for i in range(3):
                    if tri[i] == x and tri[(i + 1) % 3] == y:
                        return 1
                    if tri[i] == y and tri[(i + 1) % 3] == x:
                        return -1
                raise AssertionError("side not on triangle")

            d1 = direction(ca, p1, q1)
            d2 = direction(cb, p2, q2)
            constraints.append((pos[ca], pos[cb], -d1 * d2))

    m = len(corners)
    for signs in itertools.product((1, -1), repeat=m - 1):
        o = (1,) + signs
        if all(o[i] * o[j] == rel for i, j, rel in constraints):
            return True
    return False


# -- identification classes by flood fill ---------------------------------------


def _flood(items, links) -> list[tuple[tuple, bool]]:
    """Classes of ``items`` under ``links`` (x, y, rel), each meaning
    value(x) = rel * value(y), by breadth-first search from the least
    unvisited item.  Each class is (sorted (item, sign) pairs with signs
    relative to its least item, consistent); consistent is False when a
    link contradicts a sign already assigned."""
    nbrs: dict = {x: [] for x in items}
    for x, y, rel in links:
        nbrs[x].append((y, rel))
        nbrs[y].append((x, rel))
    sign: dict = {}
    classes = []
    for start in sorted(nbrs):
        if start in sign:
            continue
        sign[start] = 1
        queue = [start]
        consistent = True
        for x in queue:
            for y, rel in nbrs[x]:
                if y not in sign:
                    sign[y] = rel * sign[x]
                    queue.append(y)
                elif sign[y] != rel * sign[x]:
                    consistent = False
        classes.append((tuple(sorted((x, sign[x]) for x in queue)), consistent))
    return classes


def flood_identifications(scheme: GluingScheme):
    """(edge classes, vertex classes, tetrahedron components) of a possibly
    open scheme, read from each pairing's matches by flood fill.

    Edge classes are (members, consistent) with members (tet, edge, sign),
    the sign relative to the class's least edge; vertex classes are sorted
    tuples of (tet, vertex); components are frozensets of tetrahedra.
    """
    tets = range(1, scheme.tet_count + 1)
    edge_links, corner_links, tet_links = [], [], []
    for p in scheme.pairings:
        for (ta, ea, wa), (tb, eb, wb) in p.edge_matches():
            edge_links.append(((ta, ea), (tb, eb), wa * wb))
        corner_links.extend((ca, cb, 1) for ca, cb in p.corner_matches())
        tet_links.append((p.a.tet, p.b.tet, 1))
    edges = [(tuple((t, e, s) for (t, e), s in members), consistent)
             for members, consistent in
             _flood([(t, e) for t in tets for e in EDGE_ENDS], edge_links)]
    verts = [tuple(v for v, _ in members) for members, _ in
             _flood([(t, v) for t in tets for v in range(4)], corner_links)]
    comps = [frozenset(t for t, _ in members) for members, _ in _flood(tets, tet_links)]
    return edges, verts, comps


# -- doubling: leftward-pushing normal form --------------------------------------


def leftward_normal_form(double: Double, dword: DoubleWord):
    """Independent normal form with the subgroup part accumulated on the LEFT,
    built from the graph's right-coset representatives directly.

    Returns (head in H, tuple of alternating representative syllables).  The
    syllable count and the zero-syllable characterisation must agree with the
    library's rightward form.
    """
    H = double.subgroup
    stack = []
    for side, word in dword.syllables:
        w = free_reduce(word)
        if not w:
            continue
        if stack and stack[-1][0] == side:
            merged = concat(stack.pop()[1], w)
            if merged:
                stack.append((side, merged))
        else:
            stack.append((side, w))

    out: list = []
    carry: Word = ()
    for side, w in reversed(stack):
        w = concat(w, carry)
        carry = ()
        while True:
            if not w or H.contains(w):
                carry = w
                break
            if out and out[0][0] == side:
                w = concat(w, out.pop(0)[1])
                continue
            rep = H.coset_representative(w)
            carry = concat(w, inverse_word(rep))
            out.insert(0, (side, rep))
            break
    return carry, tuple(out)


def project_leftward(double: Double, head: Word, syllables) -> Word:
    return concat(head, *(w for _, w in syllables))


# -- Smith normal form: gcd-of-minors ---------------------------------------------


def _det(matrix) -> int:
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * _det(minor)
    return total


def minors_invariant_factors(matrix) -> tuple[int, ...]:
    """d_k = gcd of all k x k minors; invariant factors are d_k / d_{k-1}."""
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    dets_gcd = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        dets_gcd.append(g)
    return tuple(dets_gcd[k] // dets_gcd[k - 1] for k in range(1, len(dets_gcd)))


def _det_over_q(matrix) -> int:
    """Determinant by Gaussian elimination over the rationals, for sizes the
    cofactor expansion in ``_det`` cannot reach."""
    mat = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(mat)):
        pivot = next((i for i in range(c, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, len(mat)):
            f = mat[i][c] / mat[c][c]
            if f:
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return int(det)


# -- chain-complex H1 rank ---------------------------------------------------------


def _rank_over_q(rows: list[list[int]]) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
        rank += 1
    return rank


def chain_h1_rank(complex: GluedComplex) -> int:
    """H1 rank of the glued 2-complex from its boundary matrices, no spanning
    tree: dim ker d1 - rank d2 over the rationals."""
    n_v = complex.vertex_class_count
    n_e = len(complex.edge_classes)
    d1 = [[0] * n_e for _ in range(n_v)]
    for idx, ec in enumerate(complex.edge_classes):
        tet, edge, _ = ec.members[0]
        i_end, t_end = EDGE_ENDS[edge]
        d1[complex.vertex_lookup[(tet, t_end)]][idx] += 1
        d1[complex.vertex_lookup[(tet, i_end)]][idx] -= 1
    d2 = [[0] * len(complex.scheme.pairings) for _ in range(n_e)]
    for col, p in enumerate(complex.scheme.pairings):
        edges = FACES[p.a.face]
        walks = FACE_WALK_SIGNS[p.a.face]
        for j in range(3):
            idx, sign = complex.edge_lookup[(p.a.tet, edges[j])]
            d2[idx][col] += walks[j] * sign
    rank_d1 = _rank_over_q(d1) if n_v and n_e else 0
    rank_d2 = _rank_over_q(d2) if n_e and complex.scheme.pairings else 0
    return (n_e - rank_d1) - rank_d2


# -- ratio scan ---------------------------------------------------------------------


def scan_min_n(epsilon: Fraction) -> int:
    n = 4
    while True:
        if n % 3 != 0 and Fraction(2 * n - 2, n + 3) > 2 - epsilon:
            return n
        n += 1
