"""Finite presentations, Smith normal form, and rank-inequality audits.

``presentation_from_complex`` reads a group presentation off a glued
complex: collapse a spanning tree of the vertex classes, take the
remaining edge classes as generators, and one relator per face pairing
(the boundary walk of the glued triangle written in edge-class letters),
built as three letter columns, one per step of the walk.

``smith_normal_form`` computes invariant factors in polynomial time.  A
matrix whose nonzero entries are mostly +-1, as relation matrices of
presentations are, first goes through a sparse front end: +-1 pivots are
eliminated on rows kept as dicts, least fill (Markowitz cost) first, each
adding an invariant factor 1 by unimodular steps.  This is the reduction
of "badly presented" Z-modules by Havas, Holt and Rees (Linear Algebra
Appl., 1993).  What is left, or the whole of a dense matrix of general
entries, goes to determinant-modular elimination (Hafner and McCurley
1991): fraction-free Bareiss elimination yields the rank r and a nonzero
r x r minor D, and the extended-gcd row and column steps that follow
reduce mod D, so no entry reaches D (Bareiss entries are themselves
minors, bounded by Hadamard's inequality).  The count of invariant factors
is the rational rank, which drives the abelianization rank used everywhere
else.  ``tietze_simplify`` deduplicates relators by their least rotation
(Booth's algorithm), in memory linear in the relator length.

``rank_audit`` evaluates a region table of affine steps: an arithmetic
chain bounding twice the rank of the fundamental group of an ambient
manifold from below, compared against the rank of a surface subgroup
pointwise fixed by a reversing involution.  The consistent cases fall
into seven regions, and each region's chain is written once as steps
linear in the surface's genus and circle counts.  Topological inputs
(rank does not drop under doubling, half of the boundary homology
survives inside, the incompressible-boundary rank gap) enter as named
assumed steps; all arithmetic between them is exact and the final
inequality must be strict.  ``audit_sweep`` walks the same cases as
``enumerate_audit_cases`` and tests each final margin as an integer from
the same table, building no per-case objects.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg
from typing import Iterable, Iterator, Sequence

from .freegroups import Word, free_reduce, inverse_word, word_to_str
from .triangulation import (
    FACE_NAMES,
    FACES,
    FACE_WALK_SIGNS,
    GluedComplex,
    GluingError,
)


def cyclic_reduce(word: Iterable[int]) -> Word:
    """Freely reduce, then strip cancelling first/last letters."""
    w = free_reduce(word)
    i, j = 0, len(w) - 1
    while i < j and w[i] == -w[j]:
        i += 1
        j -= 1
    return w[i:j + 1]


@dataclass(frozen=True)
class Presentation:
    """Generators 1..generator_count with freely and cyclically reduced relators."""

    generator_count: int
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        if self.generator_count < 0:
            raise ValueError("generator count must be >= 0")
        cleaned = []
        for r in self.relators:
            w = cyclic_reduce(r)
            for s in w:
                if not 1 <= abs(s) <= self.generator_count:
                    raise ValueError(f"relator letter {s} outside generators")
            if w:
                cleaned.append(w)
        object.__setattr__(self, "relators", tuple(cleaned))

    def __str__(self) -> str:
        gens = ", ".join(chr(ord("a") + i) for i in range(self.generator_count))
        rels = ", ".join(word_to_str(r) for r in self.relators)
        return f"< {gens} | {rels} >"


# Step j of each face's walk, by face index: the edge, counted from 0, and its walk sign.
_EDGE_WALKS = tuple(tuple((FACES[name][j] - 1, FACE_WALK_SIGNS[name][j]) for name in FACE_NAMES)
                    for j in range(3))


def presentation_from_complex(complex: GluedComplex) -> Presentation:
    """Present the fundamental group of the glued 2-complex.

    Requires a connected complex whose edge classes are orientation
    consistent (no edge identified with its own reverse, which would leave
    the boundary words ill-defined).
    """
    if not complex.connected:
        raise GluingError("complex is disconnected")
    for i, consistent in enumerate(complex.edge_consistent):
        if not consistent:
            raise GluingError(
                f"edge class {i} is glued to itself reversed; no boundary words")

    # 1-skeleton on the vertex classes; spanning tree by breadth-first search.
    n_vertices, n_edges = complex.vertex_class_count, len(complex.valences)
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    for idx, (vi, vt) in enumerate(complex.edge_end_classes()):
        incident[vi].append((idx, vt))
        incident[vt].append((idx, vi))

    in_tree, seen, queue = [False] * n_edges, [True] + [False] * (n_vertices - 1), [0]
    for v in queue:
        for idx, w in incident[v]:
            if not seen[w]:
                seen[w] = True
                in_tree[idx] = True
                queue.append(w)

    # The generator of each edge class and the signed letter of each edge item, 0 on the tree.
    gens = itertools.count(1)
    gen_index = [0 if tree else next(gens) for tree in in_tree]
    scheme = complex.scheme
    n = scheme.tet_count
    letters = [gen_index[k] * s for k, s in zip(complex.classes[:6 * n], complex.signs)]

    # Step j of all a-face walks is one column, read at the slots 4 * tet +
    # face index of a table filled with every sixth letter.  A word is reduced
    # unless a letter is 0 (the tree) or two cyclic neighbours sum to 0.
    slots = [4 * t + f for t, f in zip(scheme.a_tets, scheme.a_faces)]
    signed = {1: letters, -1: list(map(neg, letters))}
    columns = []
    for walks in _EDGE_WALKS:
        table = [0] * (4 * n + 4)
        for face, (e, w) in enumerate(walks):
            table[4 + face::4] = signed[w][e::6]
        columns.append([table[x] for x in slots])
    a, b, c = columns
    words, row = zip(a, b, c), a + b + c
    if 0 in row or 0 in map(add, row, b + c + a):
        words = filter(None, [cyclic_reduce(filter(None, word)) for word in words])
    p = object.__new__(Presentation)
    object.__setattr__(p, "generator_count", in_tree.count(False))
    object.__setattr__(p, "relators", tuple(words))
    return p


# -- Tietze simplification -----------------------------------------------------


def _least_rotation(word: Word) -> Word:
    """Lexicographically least rotation, by Booth's algorithm in O(len) time
    and memory."""
    doubled = word + word
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        c = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and c != doubled[k + i + 1]:
            if c < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and c != doubled[k]:
            if c < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return doubled[k:k + len(word)]


def _cyclic_canonical(word: Word) -> Word:
    """Least rotation among the word and its inverse, for deduplication."""
    return min(_least_rotation(word), _least_rotation(inverse_word(word)))


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


def tietze_simplify(p: Presentation, max_relator_length: int = 16) -> Presentation:
    """Simplify by free/cyclic reduction, deduplication, and elimination of
    generators that some short relator uses exactly once.

    Substitution is only attempted on relators of length at most
    ``max_relator_length`` (length-1 relators always qualify), which keeps
    the rewriting from blowing up.  The generator count never increases and
    the presented group is unchanged.
    """
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
            if len(r) > max_relator_length and len(r) > 1:
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


# -- Smith normal form ---------------------------------------------------------


def _distinct_rows(matrix: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Nonzero rows of an integer matrix, one per class of rows equal up to
    sign.  Dropping the others leaves the row lattice, and so the invariant
    factors and the rank, unchanged."""
    rows = [tuple(map(int, row)) for row in matrix]
    if len(set(map(len, rows))) > 1:
        raise ValueError("ragged matrix")
    distinct: dict[tuple[int, ...], None] = {}
    for row in dict.fromkeys(rows):
        lead = next(filter(None, row), 0)
        if lead:
            distinct[row if lead > 0 else tuple(map(neg, row))] = None
    return list(distinct)


def _unit_pivots(rows: list[tuple[int, ...]]) -> tuple[int, list[tuple[int, ...]]]:
    """Eliminate +-1 pivots on sparse rows, least Markowitz cost first.

    A pivot p = +-1 at (i, j) clears column j by adding multiples of row i
    to the other rows, after which column steps clear row i: both are
    unimodular, and what is left is p plus the other rows without column j.
    The cost (entries in row i - 1) * (entries in column j - 1) bounds the
    fill each pivot makes.  Costs go stale as rows change: a popped pivot
    whose cost has grown is put back with its new cost, and a changed row
    puts its +-1 entries in again.  Returns the number of pivots and the
    distinct nonzero rows left, over the columns still in use."""
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    cols: list[set[int]] = [set() for _ in rows[0]]
    for i, row in enumerate(sparse):
        for j in row:
            cols[j].add(i)
    heap = [((len(row) - 1) * (len(cols[j]) - 1), i, j)
            for i, row in enumerate(sparse) for j, x in row.items() if x == 1 or x == -1]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        cost, i, j = heapq.heappop(heap)
        row = sparse[i]
        p = row.get(j)
        if p != 1 and p != -1:
            continue
        targets = cols[j]
        now = (len(row) - 1) * (len(targets) - 1)
        if now > cost:
            heapq.heappush(heap, (now, i, j))
            continue
        pivots += 1
        sparse[i] = {}
        for c in row:
            cols[c].discard(i)
        del row[j]
        for r in targets:
            other = sparse[r]
            f = other.pop(j) * p
            for c, x in row.items():
                v = other.get(c, 0) - f * x
                if v:
                    if c not in other:
                        cols[c].add(r)
                    other[c] = v
                else:
                    del other[c]
                    cols[c].discard(r)
            n = len(other) - 1
            for c, v in other.items():
                if v == 1 or v == -1:
                    heapq.heappush(heap, (n * (len(cols[c]) - 1), r, c))
        targets.clear()
    used = [c for c, rs in enumerate(cols) if rs]
    return pivots, list(dict.fromkeys(tuple(map(row.get, used, itertools.repeat(0)))
                                      for row in sparse if row))


def _mostly_units(rows: list[tuple[int, ...]]) -> bool:
    """Whether +-1 entries outnumber the other nonzero entries.

    Only then do the front end's pivots pay for its set-up, one pass over
    the nonzero entries: a dense matrix of general entries has few units,
    and each elimination mixes its rows into fewer still."""
    units = zeros = 0
    for row in rows:
        units += row.count(1) + row.count(-1)
        zeros += row.count(0)
    return 2 * units > len(rows) * len(rows[0]) - zeros


def _front_end(matrix: Sequence[Sequence[int]]) -> tuple[int, list[tuple[int, ...]]]:
    """The count of +-1 pivots (factors 1) and the distinct nonzero rows left."""
    rows = _distinct_rows(matrix)
    if rows and _mostly_units(rows):
        return _unit_pivots(rows)
    return 0, rows


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Rank r and D = |last nonzero pivot| of fraction-free elimination with
    row and column pivoting.  D is a nonzero r x r minor of the matrix, and
    every entry met along the way is a minor too (Bareiss 1968)."""
    prev, rank = 1, 0
    while rows:
        top = rows[0]
        c = next(j for j, x in enumerate(top) if x)
        p, rest = top[c], top[:c] + top[c + 1:]
        nxt = []
        for row in rows[1:]:
            f = row[c]
            new = [(p * x - f * y) // prev for x, y in zip(row[:c] + row[c + 1:], rest)]
            if any(new):
                nxt.append(new)
        rows, prev, rank = nxt, p, rank + 1
    return rank, abs(prev)


def _xgcd(p: int, x: int) -> tuple[int, int, int]:
    """(g, s, u) with g = gcd(p, x) = s*p + u*x for p, x > 0, and (p, 1, 0)
    when p divides x, so that a pivot dividing its row and column clears
    them without moving."""
    if x % p == 0:
        return p, 1, 0
    s0, s1, u0, u1 = 1, 0, 0, 1
    while x:
        q = p // x
        p, x = x, p - q * x
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    return p, s0, u0


def _clear_first_column(rows: list[Sequence[int]], d: int) -> None:
    """Unimodular row steps mod d that leave rows[0][0] = gcd of column 0
    and zeros below it; rows[0][0] must be nonzero."""
    for i in range(1, len(rows)):
        x = rows[i][0]
        if not x:
            continue
        top, row = rows[0], rows[i]
        g, s, u = _xgcd(top[0], x)
        p, x = top[0] // g, x // g
        if g != top[0]:
            rows[0] = [(s * a + u * b) % d for a, b in zip(top, row)]
        rows[i] = [(p * b - x * a) % d for a, b in zip(top, row)]


def _diagonal_mod(rows: Sequence[Sequence[int]], d: int) -> list[int]:
    """Diagonalise the lattice spanned by ``rows`` and d*Z^n by unimodular
    row and column steps, every entry reduced mod d."""
    diagonal: list[int] = []
    rows = [[x % d for x in row] for row in rows]
    while True:
        rows = [row for row in rows if any(row)]
        if not rows:
            return diagonal
        # Pivot: the least nonzero entry of the first column, moved to the top.
        _, i = min((row[0] or d, i) for i, row in enumerate(rows))
        if not rows[i][0]:  # a zero column only adds a factor d
            rows = [row[1:] for row in rows]
            continue
        rows[0], rows[i] = rows[i], rows[0]
        while True:
            _clear_first_column(rows, d)
            # A pivot dividing its row is cleared by column steps that
            # change nothing else: column 0 is zero below it.
            if not any(x % rows[0][0] for x in rows[0]):
                break
            cols = list(zip(*rows))
            _clear_first_column(cols, d)
            rows = list(zip(*cols))
            if not any(row[0] for row in rows[1:]):
                break
        diagonal.append(rows[0][0])
        rows = [row[1:] for row in rows[1:]]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix; r is its
    rank over the rationals.

    Zero rows and rows repeated up to sign are dropped.  When +-1 entries
    outnumber the other nonzero ones, the sparse front end eliminates +-1
    pivots first, each an invariant factor 1, and passes on the rows left.
    Then determinant-modular elimination after Hafner and McCurley (1991):
    fraction-free Bareiss elimination gives the rank r and a nonzero r x r
    minor D, which every determinantal divisor Delta_k (k <= r) divides;
    extended-gcd row and column steps then diagonalise the matrix modulo D,
    so every entry stays below D.  With the diagonal's gcds with D put into
    a divisibility chain c1 | c2 | ..., Delta_k = gcd(D, c1*...*ck) and
    d_k = Delta_k / Delta_(k-1).  Exact over arbitrary-precision integers.
    """
    units, rows = _front_end(matrix)
    rank, d = _bareiss(rows)
    if d == 1:
        return (1,) * (units + rank)
    chain = [math.gcd(x, d) for x in _diagonal_mod(rows, d)]
    chain += [d] * (rank - len(chain))
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = math.gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    factors, minor, prev = [], 1, 1
    for c in chain[:rank]:
        minor *= c
        delta = math.gcd(d, minor)
        factors.append(delta // prev)
        prev = delta
    return (1,) * units + tuple(factors)


def rational_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the front end's pivots plus the rank that
    fraction-free elimination finds in the rows left."""
    units, rows = _front_end(matrix)
    return units + _bareiss(rows)[0]


# -- abelianization -------------------------------------------------------------


@dataclass(frozen=True)
class AbelianInvariants:
    rank: int
    torsion: tuple[int, ...]


def abelianization(p: Presentation) -> AbelianInvariants:
    """Rank and torsion of the abelianized group, via Smith normal form."""
    if not p.relators or p.generator_count == 0:
        return AbelianInvariants(p.generator_count, ())
    # One row of exponent sums per distinct relator: a repeated relator only
    # repeats its row, which leaves the row lattice as it is.
    rows = []
    for r in dict.fromkeys(p.relators):
        row = [0] * p.generator_count
        for s in r:
            row[abs(s) - 1] += 1 if s > 0 else -1
        rows.append(row)
    factors = smith_normal_form(rows)
    nonzero = [f for f in factors if f]
    return AbelianInvariants(p.generator_count - len(nonzero),
                             tuple(f for f in nonzero if f > 1))


# -- surface rank arithmetic -----------------------------------------------------


def surface_rank(genus: int, boundary_circles: int, orientable: bool) -> int:
    """Rank of a surface group: orientable 2g+k-1 (2g closed), else g+k-1
    (g closed), with genus meaning crosscap count in the non-orientable case."""
    if boundary_circles < 0:
        raise ValueError("boundary circle count must be >= 0")
    if orientable:
        if genus < 0:
            raise ValueError("orientable genus must be >= 0")
        return 2 * genus + boundary_circles - 1 if boundary_circles else 2 * genus
    if genus < 1:
        raise ValueError("non-orientable genus must be >= 1")
    return genus + boundary_circles - 1 if boundary_circles else genus


# -- the rank audit --------------------------------------------------------------


class AuditError(ValueError):
    """Inconsistent audit-case parameters."""


@dataclass(frozen=True, slots=True)
class AuditCase:
    """Parameters of one surface-versus-manifold rank comparison.

    The fixed surface S has ``genus`` and k = 2*torus_pairs + single_circles
    boundary circles: torus_pairs counts boundary tori of the manifold
    containing two of them, single_circles those containing one.  A
    separating surface forces single_circles = 0; a non-orientable surface
    is never separating; ``same_component`` records whether the two copies
    of S land in one boundary component after cutting (orientable
    non-separating case only, and impossible without boundary circles).
    """

    genus: int
    torus_pairs: int
    single_circles: int
    orientable: bool
    separating: bool
    same_component: bool = False

    @property
    def boundary_circles(self) -> int:
        return 2 * self.torus_pairs + self.single_circles

    def validate(self) -> None:
        g, m, l = self.genus, self.torus_pairs, self.single_circles
        if m < 0 or l < 0:
            raise AuditError("circle counts must be >= 0")
        if self.orientable:
            if g < 0:
                raise AuditError("orientable genus must be >= 0")
        else:
            if g < 1:
                raise AuditError("non-orientable genus must be >= 1")
            if self.separating:
                raise AuditError("a pointwise-fixed non-orientable surface never separates")
            if self.same_component:
                raise AuditError("same_component applies to the orientable non-separating case")
        if self.separating:
            if l != 0:
                raise AuditError("separating surface forces single_circles = 0")
            if self.same_component:
                raise AuditError("separating surface has no same_component case")
        if self.orientable and not self.separating:
            if self.same_component and self.boundary_circles == 0:
                raise AuditError("one boundary component needs connecting annuli (k > 0)")
            if not self.same_component and l != 0:
                raise AuditError(
                    "a singly-placed circle's annulus joins the two copies, "
                    "forcing same_component")


@dataclass(frozen=True, slots=True)
class AuditStep:
    label: str
    value: Fraction
    assumed: bool = False
    strict: bool = False

    def __str__(self) -> str:
        tags = []
        if self.assumed:
            tags.append("assumed")
        if self.strict:
            tags.append("strict")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        return f"{self.label} = {self.value}{suffix}"


@dataclass(frozen=True, slots=True)
class AuditReport:
    case: AuditCase
    steps: tuple[AuditStep, ...]
    double_rank_lower_bound: Fraction
    surface_group_rank: int
    margin: Fraction

    @property
    def strict(self) -> bool:
        return self.margin > 0

    def lines(self) -> list[str]:
        out = [str(s) for s in self.steps]
        rel = ">" if self.strict else "<="
        out.append(
            f"final: 2*rank lower bound {self.double_rank_lower_bound} "
            f"{rel} surface rank {self.surface_group_rank} "
            f"(margin {self.margin})")
        return out


# Each region of the case space is keyed by (orientable, separating,
# same_component, k > 0) and lists its steps in order as (label, form,
# assumed, strict), where form = (c0, cg, cm, cl) gives the value
# (c0 + cg*g + cm*m + cl*l) / 2.  The last step is the bound.  A "rounded
# up" step takes an integer-valued x + 1/2 to x + 1, so it is affine too.
_CUT_H1 = "first homology rank of the cut manifold (half survives)"
_CUT_PI1 = "cut manifold rank >= its first homology rank"
_DOUBLED = "doubled manifold rank (doubling keeps rank)"
_INDEX_2 = "twice ambient rank >= doubled rank + 1 (index-2 cover)"
_PIECE_BOUND = "twice ambient rank, via rank(double) >= rank(piece)"
_TWO_COMPONENTS = (
    ("sum of the two boundary component genera 2(g + m)", (0, 4, 4, 0), False, False),
    (_CUT_H1, (0, 4, 4, 0), True, False),
    (_CUT_PI1, (0, 4, 4, 0), False, False),
    (_DOUBLED, (0, 4, 4, 0), True, False),
    (_INDEX_2, (2, 4, 4, 0), False, False),
)
_REGIONS = {
    (True, True, False, True): (
        ("cut piece boundary genus (annuli cap the circle pairs)", (0, 2, 2, 1), False, False),
        ("first homology rank of the cut piece (half of boundary homology survives)",
         (0, 2, 2, 1), True, False),
        (_PIECE_BOUND, (0, 4, 4, 2), True, False),
    ),
    (True, True, False, False): (
        ("incompressible boundary rank gap witness g + 1/2", (1, 2, 0, 0), True, True),
        ("cut piece rank, rounded up to the next integer", (2, 2, 0, 0), False, False),
        (_PIECE_BOUND, (4, 4, 0, 0), True, False),
    ),
    (True, False, True, True): (
        ("glued boundary component genus 2g + 2m + l - 1", (-2, 4, 4, 2), False, False),
        (_CUT_H1, (-2, 4, 4, 2), True, False),
        (_CUT_PI1, (-2, 4, 4, 2), False, False),
        (_DOUBLED, (-2, 4, 4, 2), True, False),
        (_INDEX_2, (0, 4, 4, 2), False, False),
    ),
    (True, False, False, True): _TWO_COMPONENTS,
    (True, False, False, False): _TWO_COMPONENTS,
    (False, False, False, True): (
        ("glued boundary genus (orienting double cover plus annuli) g - 1 + 2m + l",
         (-2, 2, 4, 2), False, False),
        (_CUT_H1, (-2, 2, 4, 2), True, False),
        (_CUT_PI1, (-2, 2, 4, 2), False, False),
        (_DOUBLED, (-2, 2, 4, 2), True, False),
        (_INDEX_2, (0, 2, 4, 2), False, False),
    ),
    (False, False, False, False): (
        ("glued boundary genus (orienting double cover plus annuli) g - 1 + 2m + l",
         (-2, 2, 4, 2), False, False),
        ("incompressible boundary rank gap witness (g-1) + 1/2", (-1, 2, 4, 2), True, True),
        ("cut manifold rank, rounded up to the next integer", (0, 2, 4, 2), False, False),
        (_DOUBLED, (0, 2, 4, 2), True, False),
        (_INDEX_2, (2, 2, 4, 2), False, False),
    ),
}


# The cases of a box meet few distinct values and steps (302 and 1963 at
# 80/20/20), and a cache hit costs a tenth of building a Fraction or a frozen
# AuditStep.
@functools.lru_cache(maxsize=1024)
def _half(numerator: int) -> Fraction:
    return Fraction(numerator, 2)


@functools.lru_cache(maxsize=4096)
def _step(label: str, numerator: int, assumed: bool, strict: bool) -> AuditStep:
    return AuditStep(label, _half(numerator), assumed, strict)


def rank_audit(case: AuditCase) -> AuditReport:
    """Evaluate the region table's affine steps for the case's region and
    check that the final inequality 2*rank(ambient) > rank(surface) is
    strict."""
    case.validate()
    g, m, l, k = case.genus, case.torus_pairs, case.single_circles, case.boundary_circles
    target = surface_rank(g, k, case.orientable)
    steps = []
    for label, (c0, cg, cm, cl), assumed, strict in _REGIONS[
            case.orientable, case.separating, case.same_component, k > 0]:
        num = c0 + cg * g + cm * m + cl * l
        steps.append(_step(label, num, assumed, strict))
    return AuditReport(case, tuple(steps), steps[-1].value, target, _half(num - 2 * target))


def enumerate_audit_cases(genus_max: int, torus_pairs_max: int,
                          single_circles_max: int) -> Iterator[AuditCase]:
    """All consistent parameter tuples with g <= G = genus_max, m <= M =
    torus_pairs_max and l <= L = single_circles_max.  They come in (g, m, l)
    order and, within each, as orientable separating, orientable
    same-component, orientable different-component, non-orientable.

    That is 2(G+1)(M+1) + (G+1)((M+1)(L+1) - 1) + G(M+1)(L+1) cases: 877
    at the CLI default 10/5/5 and 74 322 at 80/20/20.  A negative maximum
    raises ``AuditError``.
    """
    return itertools.starmap(AuditCase, _consistent_cases(genus_max, torus_pairs_max,
                                                          single_circles_max))


def audit_sweep(genus_max: int, torus_pairs_max: int,
                single_circles_max: int) -> tuple[int, bool]:
    """The number of cases ``enumerate_audit_cases`` gives, and whether
    ``rank_audit`` finds every final inequality strict.

    Each case's margin c0 + cg*g + cm*m + cl*l - 2*surface_rank is twice
    ``rank_audit``'s, with (c0, cg, cm, cl) the last step of the case's
    region in the same table, so it is tested as an integer and no case,
    step or report object is built.
    """
    cases = _consistent_cases(genus_max, torus_pairs_max, single_circles_max)
    bound = {region: steps[-1][1] for region, steps in _REGIONS.items()}
    count, all_strict = 0, True
    for g, m, l, orientable, separating, same_component in cases:
        k = 2 * m + l
        c0, cg, cm, cl = bound[orientable, separating, same_component, k > 0]
        count += 1
        if c0 + cg * g + cm * m + cl * l <= 2 * surface_rank(g, k, orientable):
            all_strict = False
    return count, all_strict


def _consistent_cases(genus_max: int, torus_pairs_max: int, single_circles_max: int
                      ) -> Iterator[tuple[int, int, int, bool, bool, bool]]:
    """The fields of every consistent case, in the one case order; checks
    the maxima before the first case is asked for."""
    for name, value in (("genus_max", genus_max), ("torus_pairs_max", torus_pairs_max),
                        ("single_circles_max", single_circles_max)):
        if value < 0:
            raise AuditError(f"{name} must be >= 0, got {value}")
    return _case_fields(genus_max, torus_pairs_max, single_circles_max)


def _case_fields(genus_max: int, torus_pairs_max: int, single_circles_max: int
                 ) -> Iterator[tuple[int, int, int, bool, bool, bool]]:
    for g, m, l in itertools.product(range(genus_max + 1),
                                     range(torus_pairs_max + 1),
                                     range(single_circles_max + 1)):
        if l == 0:
            yield g, m, l, True, True, False
        if m or l:
            yield g, m, l, True, False, True
        if l == 0:
            yield g, m, l, True, False, False
        if g:
            yield g, m, l, False, False, False
