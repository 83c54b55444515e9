"""Independent brute-force oracles the test suite checks the library against.

Everything here recomputes its answer from first principles (exhaustive
enumeration, naive rewriting, minors) without sharing the library's
algorithmic path, so agreement is meaningful.  The isometry constructors
at the end build the inputs of the isometry property suites.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from geodouble.freegroups import SubgroupGraph, Word, concat, free_reduce, inverse_word
from geodouble.doubling import Double, DoubleWord, NormalForm, Syllable
from geodouble.isometries import (
    CommutingCase,
    ElementClass,
    Isometry,
    _tol_value,
    chordal,
    classify,
    cross_ratio,
    fixed_points,
)
from geodouble.presentations import (
    MAX_RELATOR_LENGTH,
    AuditCase,
    AuditError,
    AuditReport,
    AuditStep,
    Presentation,
    _cyclic_canonical,
    cyclic_reduce,
    surface_rank,
)
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


def naive_cyclic_reduce(word) -> Word:
    """Freely reduce, then strip one cancelling first/last pair at a time."""
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
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


# -- Stallings folding and coset trees by brute force --------------------------


def _signed_order(rank: int) -> list[int]:
    return list(range(1, rank + 1)) + [-s for s in range(1, rank + 1)]


def _breadth_first(adjacency: dict, rank: int) -> dict:
    """Tree word of every vertex reachable from 0, scanning labels a, b, ...,
    A, B, ...; the dict's insertion order is the breadth-first order."""
    words = {0: ()}
    queue = [0]
    for v in queue:
        for s in _signed_order(rank):
            w = adjacency.get(v, {}).get(s)
            if w is not None and w not in words:
                words[w] = words[v] + (s,)
                queue.append(w)
    return words


def _unfolded_pair(edges) -> tuple[int, int] | None:
    """The other ends of two same-label edges at one vertex, if any."""
    seen: dict = {}
    for u, s, x in sorted(edges):
        for key, end in (((u, s), x), ((x, -s), u)):
            other = seen.setdefault(key, end)
            if other != end:
                return other, end
    return None


def naive_fold_key(generators, rank: int) -> tuple:
    """``SubgroupGraph.canonical_key()`` of the subgroup the words generate.

    Folds the wedge of loops of the reduced words by repeated search: find
    two edges with the same label leaving one vertex (or entering it) whose
    other ends differ, identify those ends, and start over, until no such
    pair is left.  Then number the vertices breadth-first from the base.
    """
    edges: set[tuple[int, int, int]] = set()  # (source, positive label, target)
    size = 1
    for g in generators:
        w = free_reduce(g)
        if not w:
            continue
        path = [0, *range(size, size + len(w) - 1), 0]
        size += len(w) - 1
        for v, s, x in zip(path, w, path[1:]):
            edges.add((v, s, x) if s > 0 else (x, -s, v))
    while (pair := _unfolded_pair(edges)) is not None:
        keep, drop = min(pair), max(pair)
        edges = {(keep if u == drop else u, s, keep if x == drop else x)
                 for u, s, x in edges}
    adjacency: dict = {}
    for u, s, x in edges:
        adjacency.setdefault(u, {})[s] = x
        adjacency.setdefault(x, {})[-s] = u
    pos = {v: i for i, v in enumerate(_breadth_first(adjacency, rank))}
    return (rank, len(pos), tuple(sorted((pos[u], s, pos[x]) for u, s, x in edges)))


def tree_coset_representatives(graph: SubgroupGraph, probes) -> list[Word]:
    """Coset representative of each probe: the breadth-first tree word of
    the vertex reached by reading the reduced probe from the base as far as
    the graph allows, followed by the unread rest, freely reduced.  The tree
    words are whole tuples computed from ``graph.edges()`` alone."""
    adjacency: dict = {}
    for v, s, w in graph.edges():
        adjacency.setdefault(v, {})[s] = w
        adjacency.setdefault(w, {})[-s] = v
    words = _breadth_first(adjacency, graph.ambient_rank)
    reps = []
    for probe in probes:
        w = free_reduce(probe)
        v, read = 0, 0
        while read < len(w) and w[read] in adjacency.get(v, {}):
            v = adjacency[v][w[read]]
            read += 1
        reps.append(free_reduce(words[v] + w[read:]))
    return reps


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


# -- face matches and orientability -----------------------------------------------


def face_matches(p) -> list[tuple[tuple[int, int, int, int], tuple[int, int, int, int]]]:
    """What pairing p matches, read from the face tables: position j of face
    a's listed triple against position j + rotation of face b's, each side
    (tet, edge, walk sign, corner), the corner being where edge j meets
    edge j + 1 of that face's walk."""
    def side(slot, shift):
        rows = list(zip(FACES[slot.face], FACE_WALK_SIGNS[slot.face], FACE_CORNERS[slot.face]))
        return [(slot.tet, *rows[(j + shift) % 3]) for j in range(3)]

    return list(zip(side(p.a, 0), side(p.b, p.rotation)))


def vertex_class_corners(complex: GluedComplex, k: int) -> tuple[tuple[int, int], ...]:
    """The (tet, vertex) corners in vertex class k, sorted, from ``classes``."""
    n = complex.scheme.tet_count
    return tuple((x // 4 + 1, x % 4) for x, j in enumerate(complex.classes[6 * n:10 * n])
                 if j == k)


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
    corner_map = {va: vb for (*_, va), (*_, vb) in face_matches(p)}
    transported = tuple(corner_map[v] for v in ia)
    return not _same_cycle(transported, ib)


def brute_link_orientable(complex: GluedComplex, vertex_class: int) -> bool:
    """Whether the link triangles of one vertex class can be signed so that
    every glued side joins two of them coherently.  Each side asks a sign
    product of its two triangles (``corner_links``); the constraints are
    flooded from each least unsigned triangle, and no signs exist iff one
    is contradicted."""
    corners = vertex_class_corners(complex, vertex_class)
    constraints = [link for p in complex.scheme.pairings for link in corner_links(p)
                   if link[0] in corners]
    return all(consistent for _, consistent in _flood(corners, constraints))


def _link_direction(tet, vertex, x, y) -> int:
    # +1 when the side x->y of the link triangle at the corner runs along
    # the cycle of its sorted edge ends (tet, edge, 0 tail or 1 head).
    tri = sorted((tet, e, i) for e, ends in EDGE_ENDS.items() for i in (0, 1)
                 if ends[i] == vertex)
    return 1 if tri.index(y) == (tri.index(x) + 1) % 3 else -1


def corner_links(p) -> list:
    """The three (corner, corner, required sign product) constraints of
    pairing p on link triangles, in match order: the link-triangle side at
    match j joins the walk-end of edge j to the walk-start of edge j + 1,
    and coherent triangles must run along it in opposite directions."""
    matches = face_matches(p)
    end_map = {}
    for (ta, ea, wa, _), (tb, eb, wb, _) in matches:
        for i in (0, 1):
            end_map[(ta, ea, i)] = (tb, eb, i if wa == wb else 1 - i)
    links = []
    for j, ((ta, ea, wa, va), (tb, _, _, vb)) in enumerate(matches):
        _, en, wn, _ = matches[(j + 1) % 3][0]
        p1 = (ta, ea, 1 if wa == 1 else 0)
        q1 = (ta, en, 0 if wn == 1 else 1)
        d1 = _link_direction(ta, va, p1, q1)
        d2 = _link_direction(tb, vb, end_map[p1], end_map[q1])
        links.append(((ta, va), (tb, vb), -d1 * d2))
    return links


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
    open scheme, read from each pairing's ``signed_links`` by flood fill.

    Edge classes are (members, consistent) with members (tet, edge, sign),
    the sign relative to the class's least edge; vertex classes are sorted
    tuples of (tet, vertex); components are frozensets of tetrahedra.
    """
    edge_classes, corner_classes, tet_classes = signed_floods(scheme)
    edges = [(tuple((t, e, s) for (t, e), s in members), consistent)
             for members, consistent in edge_classes]
    verts = [tuple(v for v, _ in members) for members, _ in corner_classes]
    comps = [frozenset(t for t, _ in members) for members, _ in tet_classes]
    return edges, verts, comps


def signed_links(scheme: GluingScheme):
    """Each pairing's links, in pairing and match order, as three lists of
    (x, y, rel) meaning value(x) = rel * value(y): edges (tet, edge) with
    the relative arrow sign of ``face_matches``, corners (tet, vertex) with
    the link-side sign of ``corner_links``, and tetrahedra with the sign
    product of tetrahedron orientations that ``_pairing_compatible`` allows
    (it depends on that product alone)."""
    edges, corners, tets = [], [], []
    for p in scheme.pairings:
        for (ta, ea, wa, _), (tb, eb, wb, _) in face_matches(p):
            edges.append(((ta, ea), (tb, eb), wa * wb))
        corners += corner_links(p)
        compatible = _pairing_compatible(p, {p.a.tet: 1, p.b.tet: 1})
        tets.append((p.a.tet, p.b.tet, 1 if compatible else -1))
    return edges, corners, tets


def _kind_items(scheme: GluingScheme):
    """Every edge (tet, edge), corner (tet, vertex) and tetrahedron, sorted."""
    tets = range(1, scheme.tet_count + 1)
    return ([(t, e) for t in tets for e in EDGE_ENDS], [(t, v) for t in tets for v in range(4)],
            list(tets))


def signed_floods(scheme: GluingScheme):
    """``_flood`` of each kind's items under its ``signed_links``: per kind,
    the classes as (sorted (item, sign) pairs, consistent).  A vertex class
    is consistent iff its link is orientable, and every component iff the
    complex is."""
    return tuple(_flood(items, links)
                 for items, links in zip(_kind_items(scheme), signed_links(scheme)))


def forest_signs(scheme: GluingScheme) -> tuple[dict, dict, dict]:
    """Sign of every edge (tet, edge), corner (tet, vertex) and tetrahedron
    relative to the least item of its class, read along the spanning forest
    that keeps each of its kind's ``signed_links``, in pairing and match
    order, that joins two different classes.

    In an inconsistent class no signs satisfy every link; these are the
    ones a union-find reports that imposes the links in that order,
    whichever root it keeps: each item's sign to its root is the product
    along its forest path.  Classes are tracked by naive relabelling.
    """
    signs = []
    for items, links in zip(_kind_items(scheme), signed_links(scheme)):
        label = {x: x for x in items}
        members = {x: [x] for x in items}
        forest = []
        for x, y, rel in links:
            lx, ly = label[x], label[y]
            if lx != ly:
                forest.append((x, y, rel))
                for z in members[ly]:
                    label[z] = lx
                members[lx] += members.pop(ly)
        signs.append({x: s for members, _ in _flood(items, forest) for x, s in members})
    return tuple(signs)


def flood_link_counts(scheme: GluingScheme) -> dict:
    """(link triangles, link vertices, Euler characteristic) of the link of
    each vertex class of a closed scheme, keyed by the class's sorted
    (tet, vertex) tuple.

    Link vertices are classes of edge ends (tet, edge, 0 for the tail or 1
    for the head), flooded over the end identifications of each pairing's
    ``face_matches``: walk-start to walk-start, so the same ends when
    the walk signs agree and crossed ends otherwise.  Each link triangle has
    three sides and the sides glue in pairs.
    """
    tets = range(1, scheme.tet_count + 1)
    end_links = []
    for p in scheme.pairings:
        for (ta, ea, wa, _), (tb, eb, wb, _) in face_matches(p):
            for i in (0, 1):
                end_links.append(((ta, ea, i), (tb, eb, i if wa == wb else 1 - i), 1))
    end_class = {}
    for k, (members, _) in enumerate(
            _flood([(t, e, i) for t in tets for e in EDGE_ENDS for i in (0, 1)], end_links)):
        for end, _ in members:
            end_class[end] = k
    _, verts, _ = flood_identifications(scheme)
    counts = {}
    for vclass in verts:
        link_vertices = {end_class[(t, e, i)]
                         for t, v in vclass
                         for e, ends in EDGE_ENDS.items()
                         for i in (0, 1) if ends[i] == v}
        triangles = len(vclass)
        sides = 3 * triangles // 2
        counts[vclass] = (triangles, len(link_vertices), len(link_vertices) - sides + triangles)
    return counts


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


def _merge_syllables(syllables: Iterable[Syllable]) -> list[Syllable]:
    # Reduce words, drop empties, merge same-side neighbours.
    stack: list[Syllable] = []
    for side, word in syllables:
        w = free_reduce(word)
        if not w:
            continue
        if stack and stack[-1][0] == side:
            merged = concat(stack.pop()[1], w)
            if merged:
                stack.append((side, merged))
        else:
            stack.append((side, w))
    return stack


def reference_normal_form(self: Double, dword: DoubleWord) -> NormalForm:
    """The rightward normal form by the direct quadratic rewrite: the carried
    tail is concatenated onto each syllable, re-reduced and re-traced from
    the base, and a syllable absorbed into H merges the previous
    representative back.  Kept as the reference ``Double.normal_form`` must
    match exactly."""
    contains = self.subgroup.contains
    out: list[Syllable] = []
    carry: Word = ()
    for side, word in _merge_syllables(dword.syllables):
        w = concat(carry, word)
        carry = ()
        while True:
            if not w or contains(w):
                carry = w
                break
            if out and out[-1][0] == side:
                # The previous representative is same-side adjacent after
                # an absorbed subgroup syllable: merge back and redo.
                w = concat(out.pop()[1], w)
                continue
            # The canonical representative of the left coset w * H, from
            # the graph's right-coset one: rep(w^-1)^-1.
            rep = inverse_word(self.subgroup.coset_representative(inverse_word(w)))
            carry = concat(inverse_word(rep), w)
            out.append((side, rep))
            break
    return NormalForm(tuple(out), carry)


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


def local_smith_exponents(matrix, p: int, e: int) -> list[int]:
    """Smith form over Z/p^e: the exponents k_1 <= k_2 <= ... of its
    diagonal p^k_i, one per place of the min(rows, cols) diagonal, with e
    for a diagonal 0.  They are min(v_p(d_i), e) for the invariant factors
    d_i, and e past the rank.

    Over the local ring every nonzero entry is p^k times a unit, so the
    pivot is an entry of least valuation k: it divides every other entry of
    its row and column, which clear without gcd steps.  When no entry has
    valuation ``low``, all are divisible by p^(low+1), and the search goes
    one power up."""
    q = p ** e
    rows = [[x % q for x in row] for row in matrix]
    places = min(len(rows), len(rows[0]) if rows else 0)
    exponents: list[int] = []
    low = 0
    while len(exponents) < places and low < e:
        step = p ** (low + 1)
        found = next(((i, j) for i, row in enumerate(rows) for j, x in enumerate(row)
                      if x % step), None)
        if found is None:
            low += 1
            continue
        i, j = found
        top = rows.pop(i)
        unit = pow(top[j] // p ** low, -1, q)
        for r, row in enumerate(rows):
            if row[j]:
                f = row[j] // p ** low * unit
                rows[r] = [(x - f * y) % q for x, y in zip(row, top)]
        # Column j is 0 below the pivot, so column steps clear the pivot's
        # row without touching the others: drop both.
        for row in rows:
            del row[j]
        exponents.append(low)
    return exponents + [e] * (places - len(exponents))


def truncated_exponents(factors, places: int, p: int, e: int) -> list[int]:
    """min(v_p(d), e) for each invariant factor, then e up to ``places``."""
    out = []
    for d in factors:
        k = 0
        while d % p == 0 and k < e:
            d //= p
            k += 1
        out.append(k)
    return sorted(out) + [e] * (places - len(out))


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


# -- Tietze simplification and homomorphism counts -----------------------------------


def _substitute(word: Word, gen: int, image: Word) -> Word:
    out: list[int] = []
    for s in word:
        if s == gen:
            out.extend(image)
        elif s == -gen:
            out.extend(inverse_word(image))
        else:
            out.append(s)
    return free_reduce(out)


def _drop_generator(word: Word, gen: int) -> Word:
    return tuple(s - (1 if s > gen else 0) if s > 0 else s + (1 if -s > gen else 0)
                 for s in word)


def reference_tietze(p: Presentation) -> Presentation:
    """``tietze_simplify`` as one whole pass a round: every relator is
    cyclically reduced and keyed by Booth's least rotation, and every
    elimination substitutes letter by letter, freely reduces the whole
    word and renumbers it letter by letter."""
    gens = p.generator_count
    relators = list(p.relators)
    while True:
        # Normalise and deduplicate.
        seen: set[Word] = set()
        cleaned: list[Word] = []
        for r in relators:
            w = cyclic_reduce(r)
            if not w:
                continue
            key = _cyclic_canonical(w)
            if key in seen:
                continue
            seen.add(key)
            cleaned.append(w)
        relators = cleaned

        # Eliminate through the shortest relator that uses some generator
        # exactly once.
        for ri in sorted(range(len(relators)), key=lambda i: len(relators[i])):
            r = relators[ri]
            if len(r) > MAX_RELATOR_LENGTH:
                continue
            counts: dict[int, int] = {}
            for s in r:
                counts[abs(s)] = counts.get(abs(s), 0) + 1
            g = next((g for g, cnt in counts.items() if cnt == 1), 0)
            if g:
                break
        else:
            return Presentation(gens, tuple(relators))
        pos = next(i for i, s in enumerate(r) if abs(s) == g)
        rotated = r[pos:] + r[:pos]  # starts with +-g
        image = inverse_word(rotated[1:]) if rotated[0] > 0 else rotated[1:]
        relators = [_drop_generator(_substitute(w, g, image), g)
                    for i, w in enumerate(relators) if i != ri]
        gens -= 1


S3 = list(itertools.permutations(range(3)))
S4 = list(itertools.permutations(range(4)))


def hom_count(generator_count: int, relators, perms) -> int:
    """The number of homomorphisms from <1..generator_count | relators> to
    the group whose elements are ``perms`` (permutations of range(n) as
    tuples, closed under composition): every assignment of elements to the
    generators, kept when each relator composes to the identity.  A
    relator is checked as soon as its largest generator is assigned."""
    index = {perm: i for i, perm in enumerate(perms)}
    times = [[index[tuple(q[x] for x in p)] for q in perms] for p in perms]  # p then q
    identity = index[tuple(range(len(perms[0])))]
    inverse = [row.index(identity) for row in times]
    due: list[list[Word]] = [[] for _ in range(generator_count + 1)]
    for r in relators:
        due[max(map(abs, r), default=0)].append(tuple(r))

    def count(assigned: list[int]) -> int:
        for r in due[len(assigned)]:
            x = identity
            for s in r:
                x = times[x][assigned[s - 1] if s > 0 else inverse[assigned[-s - 1]]]
            if x != identity:
                return 0
        if len(assigned) == generator_count:
            return 1
        return sum(count(assigned + [e]) for e in range(len(perms)))

    return count([])


# -- chain-complex H1 rank ---------------------------------------------------------


def exponent_matrix(relators, generators: int) -> list[list[int]]:
    """One row per relator: the exponent sum of each generator."""
    rows = []
    for r in relators:
        row = [0] * generators
        for s in r:
            row[abs(s) - 1] += 1 if s > 0 else -1
        rows.append(row)
    return rows


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
    n, classes, signs = complex.scheme.tet_count, complex.classes, complex.signs
    pairings = complex.scheme.pairings
    n_v, n_e = complex.vertex_class_count, len(complex.valences)
    d1 = [[0] * n_e for _ in range(n_v)]
    for k, x in enumerate(complex.edge_roots):  # the least item orients its class
        i_end, t_end = EDGE_ENDS[x % 6 + 1]
        d1[classes[6 * n + 4 * (x // 6) + t_end]][k] += 1
        d1[classes[6 * n + 4 * (x // 6) + i_end]][k] -= 1
    d2 = [[0] * len(pairings) for _ in range(n_e)]
    for col, p in enumerate(pairings):
        for edge, walk in zip(FACES[p.a.face], FACE_WALK_SIGNS[p.a.face]):
            x = 6 * (p.a.tet - 1) + edge - 1
            d2[classes[x]][col] += walk * signs[x]
    rank_d1 = _rank_over_q(d1) if n_v and n_e else 0
    rank_d2 = _rank_over_q(d2) if n_e and pairings else 0
    return (n_e - rank_d1) - rank_d2


def reference_face_words(complex: GluedComplex) -> tuple[int, list[Word]]:
    """The generator count and the unreduced face words of the presentation
    ``presentation_from_complex`` reads off a connected complex, from the
    public columns alone: the tree is a breadth-first search from vertex
    class 0 over the edge classes in order, each edge class joining the
    vertex classes at the tail and head of its least item; the other edge
    classes are the generators 1, 2, ... in order; each pairing's a-face is
    walked edge by edge, letter (generator of the edge's class) * (the
    edge's sign in its class) * (walk sign), tree edges left out."""
    n = complex.scheme.tet_count
    edge_class, corner_class = complex.classes[:6 * n], complex.classes[6 * n:10 * n]
    ends = {}
    for x, k in enumerate(edge_class):
        if k not in ends:
            tail, head = EDGE_ENDS[x % 6 + 1]
            ends[k] = (corner_class[4 * (x // 6) + tail], corner_class[4 * (x // 6) + head])
    tree, seen, queue = set(), {0}, [0]
    for v in queue:
        for k in sorted(ends):
            for here, there in (ends[k], ends[k][::-1]):
                if here == v and there not in seen:
                    seen.add(there)
                    tree.add(k)
                    queue.append(there)
    gen = {k: i + 1 for i, k in enumerate(k for k in sorted(ends) if k not in tree)}
    words = []
    for tet, face in zip(complex.scheme.a_tets, complex.scheme.a_faces):
        name = sorted(FACES)[face]
        word = []
        for edge, walk in zip(FACES[name], FACE_WALK_SIGNS[name]):
            x = 6 * (tet - 1) + edge - 1
            if edge_class[x] not in tree:
                word.append(gen[edge_class[x]] * complex.signs[x] * walk)
        words.append(tuple(word))
    return len(gen), words


# -- isometry constructors ------------------------------------------------------------


def _frame(p: complex, q: complex) -> Isometry:
    """An isometry sending 0 to p and infinity to q (p != q)."""
    if cmath.isinf(p) and cmath.isinf(q):
        raise ValueError("frame endpoints must differ")
    if cmath.isinf(p):
        return Isometry(q, 1, 1, 0)
    if cmath.isinf(q):
        return Isometry(1, p, 0, 1)
    if abs(p - q) == 0:
        raise ValueError("frame endpoints must differ")
    return Isometry(q, p, 1, 1)


def make_loxodromic(p: complex, q: complex, eigenvalue: complex) -> Isometry:
    """Loxodromic (or elliptic, for |eigenvalue| = 1) with axis p..q."""
    if abs(eigenvalue) == 0:
        raise ValueError("eigenvalue must be nonzero")
    f = _frame(p, q)
    return f @ Isometry(eigenvalue, 0, 0, 1 / eigenvalue) @ f.inverse()


def make_elliptic(p: complex, q: complex, angle: float) -> Isometry:
    """Rotation by ``angle`` about the axis p..q."""
    return make_loxodromic(p, q, cmath.exp(1j * angle / 2))


def make_pi_rotation(p: complex, q: complex) -> Isometry:
    return make_elliptic(p, q, math.pi)


def make_parabolic(p: complex, translation: complex = 1) -> Isometry:
    """Parabolic fixing the single boundary point p."""
    if abs(translation) == 0:
        raise ValueError("translation must be nonzero")
    shear = Isometry(1, translation, 0, 1)
    if cmath.isinf(p):
        return shear
    f = Isometry(p, 1, 1, 0)  # sends infinity to p
    return f @ shear @ f.inverse()


def random_isometry(rng, reversing: bool = False, scale: float = 1.0) -> Isometry:
    """A random isometry with entries in a box, rejecting near-singular draws."""
    while True:
        entries = [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
                   for _ in range(4)]
        a, b, c, d = entries
        if abs(a * d - b * c) >= 0.1:
            return Isometry(a, b, c, d, reversing)


# -- isometry predicates, one public call at a time ----------------------------------


def composed_commute(a: Isometry, b: Isometry) -> Isometry:
    """The commutator a b a^-1 b^-1, built one ``Isometry`` product at a time."""
    return a @ b @ a.inverse() @ b.inverse()


def reference_criterion(a: Isometry, b: Isometry, tol: float | None = None) -> CommutingCase:
    """``commuting_criterion`` through the public ``is_identity``, ``classify``
    and ``fixed_points``, each of which checks the tolerance and tests for
    the identity again."""
    t = _tol_value(tol)
    if a.reversing or b.reversing:
        raise ValueError("criterion applies to orientation-preserving isometries")
    if a.is_identity(t) or b.is_identity(t):
        raise ValueError("criterion needs nontrivial isometries")
    pt_tol = math.sqrt(t)
    ca, cb = classify(a, t), classify(b, t)
    if ca is ElementClass.PARABOLIC and cb is ElementClass.PARABOLIC:
        pa = fixed_points(a, t).points[0]
        pb = fixed_points(b, t).points[0]
        if chordal(pa, pb) <= pt_tol:
            return CommutingCase.SHARED_PARABOLIC_POINT
        return CommutingCase.NONE
    if ca is ElementClass.PARABOLIC or cb is ElementClass.PARABOLIC:
        return CommutingCase.NONE
    pa = fixed_points(a, t).points
    pb = fixed_points(b, t).points
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


# -- complex literals ---------------------------------------------------------------


def reference_parse_complex_number(text: str) -> complex:
    """``cli.parse_complex_number`` as a character loop: text holding a
    non-ASCII character, ``_``, ``(`` or ``)`` is refused, an i that no digit
    (by ``str.isdigit``) or point precedes gets a 1 before it, and each i
    becomes j."""
    if any(ord(ch) > 127 or ch in "_()" for ch in text):
        raise ValueError(f"bad complex literal {text!r}")
    cleaned = text.strip().replace(" ", "")
    out = []
    for idx, ch in enumerate(cleaned):
        if ch == "i":
            prev = cleaned[idx - 1] if idx else ""
            if not (prev.isdigit() or prev == "."):
                out.append("1")
            out.append("j")
        else:
            out.append(ch)
    try:
        value = complex("".join(out))
    except ValueError:
        raise ValueError(f"bad complex literal {text!r}") from None
    if not cmath.isfinite(value):
        raise ValueError(f"complex literal {text!r} is not finite")
    return value


# -- ratio scan ---------------------------------------------------------------------


def scan_min_n(epsilon: Fraction) -> int:
    n = 4
    while True:
        if n % 3 != 0 and Fraction(2 * n - 2, n + 3) > 2 - epsilon:
            return n
        n += 1


# -- rank audit: the case-by-case chain ---------------------------------------------


def reference_validate(case: AuditCase) -> None:
    """``AuditCase.validate``'s if-chain as written when the region table
    was checked against the chain below, so that a changed rule or fault
    text in the library shows as a difference."""
    g, m, l = case.genus, case.torus_pairs, case.single_circles
    if m < 0 or l < 0:
        raise AuditError("circle counts must be >= 0")
    if case.orientable:
        if g < 0:
            raise AuditError("orientable genus must be >= 0")
    else:
        if g < 1:
            raise AuditError("non-orientable genus must be >= 1")
        if case.separating:
            raise AuditError("a pointwise-fixed non-orientable surface never separates")
        if case.same_component:
            raise AuditError("same_component applies to the orientable non-separating case")
    if case.separating:
        if l != 0:
            raise AuditError("separating surface forces single_circles = 0")
        if case.same_component:
            raise AuditError("separating surface has no same_component case")
    if case.orientable and not case.separating:
        if case.same_component and 2 * m + l == 0:
            raise AuditError("one boundary component needs connecting annuli (k > 0)")
        if not case.same_component and l != 0:
            raise AuditError(
                "a singly-placed circle's annulus joins the two copies, "
                "forcing same_component")


def reference_rank_audit(case: AuditCase) -> AuditReport:
    """The rank-comparison chain written out case by case, replaying each
    step: kept as the reference the region table of ``rank_audit`` must
    match exactly."""
    reference_validate(case)
    g, m, l, k = case.genus, case.torus_pairs, case.single_circles, case.boundary_circles
    target = surface_rank(g, k, case.orientable)
    steps: list[AuditStep] = []

    def step(label: str, value, assumed: bool = False, strict: bool = False) -> Fraction:
        value = Fraction(value)
        steps.append(AuditStep(label, value, assumed, strict))
        return value

    if case.orientable and case.separating:
        if k > 0:
            capped = step("cut piece boundary genus (annuli cap the circle pairs)",
                          g + Fraction(k, 2))
            h1 = step("first homology rank of the cut piece (half of boundary "
                      "homology survives)", capped, assumed=True)
            bound = step("twice ambient rank, via rank(double) >= rank(piece)",
                         2 * h1, assumed=True)
        else:
            step("incompressible boundary rank gap witness g + 1/2",
                 g + Fraction(1, 2), assumed=True, strict=True)
            piece = step("cut piece rank, rounded up to the next integer", g + 1)
            bound = step("twice ambient rank, via rank(double) >= rank(piece)",
                         2 * piece, assumed=True)
    elif case.orientable and case.same_component:
        sprime = step("glued boundary component genus 2g + 2m + l - 1",
                      2 * g + 2 * m + l - 1)
        h1 = step("first homology rank of the cut manifold (half survives)",
                  sprime, assumed=True)
        pi1 = step("cut manifold rank >= its first homology rank", h1)
        doubled = step("doubled manifold rank (doubling keeps rank)", pi1, assumed=True)
        bound = step("twice ambient rank >= doubled rank + 1 (index-2 cover)",
                     doubled + 1)
    elif case.orientable:
        total = step("sum of the two boundary component genera 2(g + m)",
                     2 * g + 2 * m)
        h1 = step("first homology rank of the cut manifold (half survives)",
                  total, assumed=True)
        pi1 = step("cut manifold rank >= its first homology rank", h1)
        doubled = step("doubled manifold rank (doubling keeps rank)", pi1, assumed=True)
        bound = step("twice ambient rank >= doubled rank + 1 (index-2 cover)",
                     doubled + 1)
    else:
        sprime = step("glued boundary genus (orienting double cover plus annuli) "
                      "g - 1 + 2m + l", g - 1 + 2 * m + l)
        if k > 0:
            h1 = step("first homology rank of the cut manifold (half survives)",
                      sprime, assumed=True)
            pi1 = step("cut manifold rank >= its first homology rank", h1)
        else:
            step("incompressible boundary rank gap witness (g-1) + 1/2",
                 sprime + Fraction(1, 2), assumed=True, strict=True)
            pi1 = step("cut manifold rank, rounded up to the next integer",
                       sprime + 1)
        doubled = step("doubled manifold rank (doubling keeps rank)", pi1, assumed=True)
        bound = step("twice ambient rank >= doubled rank + 1 (index-2 cover)",
                     doubled + 1)

    margin = bound - target
    return AuditReport(case, tuple(steps), bound, target, margin)


def reference_audit_cases(genus_max: int, torus_pairs_max: int,
                          single_circles_max: int) -> Iterator[AuditCase]:
    """Every flag combination at every (g, m, l), kept when
    ``reference_validate`` accepts it: the reference
    ``enumerate_audit_cases`` must match."""
    for g, m, l in itertools.product(range(genus_max + 1),
                                     range(torus_pairs_max + 1),
                                     range(single_circles_max + 1)):
        for orientable, separating, same in itertools.product(
                (True, False), (True, False), (True, False)):
            case = AuditCase(g, m, l, orientable, separating, same)
            try:
                reference_validate(case)
            except AuditError:
                continue
            yield case
