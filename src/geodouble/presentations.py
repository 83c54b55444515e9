"""Finite presentations, Smith normal form, and rank-inequality audits.

``presentation_from_complex`` reads a group presentation off a glued
complex: collapse a spanning tree of the vertex classes, take the
remaining edge classes as generators, and one relator per face pairing
(the boundary walk of the glued triangle written in edge-class letters),
built as three letter columns, one per step of the walk.

``smith_normal_form`` computes invariant factors in polynomial time, down
one route.  A sparse front end first eliminates +-1 pivots on rows kept as
dicts, least fill (Markowitz cost) first, each adding an invariant factor
1 by unimodular steps; a matrix with no +-1 entry passes it untouched.
This is the reduction of "badly presented" Z-modules by Havas, Holt and
Rees (Linear Algebra Appl., 1993).  What is left goes to
determinant-modular elimination (Hafner and McCurley 1991): fraction-free
Bareiss elimination yields the rank r and a nonzero r x r minor D, and the
extended-gcd row and column steps that follow reduce mod D, so no entry
reaches D (Bareiss entries are themselves minors, bounded by Hadamard's
inequality).  The count of invariant factors is the rational rank, which
drives the abelianization rank used everywhere else.

``tietze_simplify`` pays each elimination round for what it changes.
Relators are deduplicated up to rotation and inversion by the exact key,
the least rotation of the word or its inverse (Booth's algorithm, linear
in the relator length), but a relator is first grouped by a C-level
invariant, its sorted letters or their negations, whichever is less; the
key is computed only for a relator whose invariant an earlier one already
has.  Eliminating a generator g renumbers a relator without +-g through a
letter table, one ``map`` per relator, and splices any other relator from
its runs between the letters +-g and the image of g or its inverse, all
reduced, cancelling only where two pieces meet.

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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg
from typing import Iterable, Iterator, Sequence

from .freegroups import (Word, _check_count, _check_letters, _in_rank, free_reduce,
                         inverse_word, letter_str, word_to_str)
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
        _check_count(self.generator_count, "generator count")
        relators = [*map(tuple, self.relators)]
        _check_letters([*itertools.chain.from_iterable(relators)], self.generator_count)
        object.__setattr__(self, "relators", tuple(filter(None, map(cyclic_reduce, relators))))

    def __str__(self) -> str:
        gens = ", ".join(map(letter_str, range(1, self.generator_count + 1)))
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


MAX_RELATOR_LENGTH = 16


def _deduplicated(relators: Iterable[Word]) -> list[Word]:
    """The relators, each kept unless an earlier one has the same
    ``_cyclic_canonical`` key.  Words with equal keys have equal letter
    multisets up to inversion, so a key is computed only for a word whose
    sorted letters (or their negations) an earlier word already has."""
    firsts: dict[Word, Word] = {}
    keys: dict[Word, set[Word]] = {}
    kept = []
    for w in relators:
        letters = tuple(sorted(w))
        invariant = min(letters, tuple(map(neg, reversed(letters))))
        first = firsts.get(invariant)
        if first is None:
            firsts[invariant] = w
        else:
            seen = keys.get(invariant)
            if seen is None:
                seen = keys[invariant] = {_cyclic_canonical(first)}
            key = _cyclic_canonical(w)
            if key in seen:
                continue
            seen.add(key)
        kept.append(w)
    return kept


def _eliminate(relators: list[Word], g: int, image: Word, gens: int) -> list[Word]:
    """Each relator with generator g replaced by ``image`` and
    generators past g renumbered down by one, freely and cyclically
    reduced; empty words are dropped.

    A word without +-g is only renumbered.  Any other word is spliced from
    reduced pieces, the runs between its letters +-g and the image or its
    inverse, cancelling only where two pieces meet."""
    table = [0] * (2 * gens + 1)  # table[s] for -gens <= s <= gens, by negative indexing
    for s in range(1, gens + 1):
        table[s], table[-s] = (0, 0) if s == g else (s - (s > g), -s + (s > g))
    renumber = table.__getitem__
    inverse = tuple(map(neg, reversed(image)))
    out = []
    for w in relators:
        letters = list(map(abs, w))
        count = letters.count(g)
        if not count:
            out.append(tuple(map(renumber, w)))
            continue
        pieces, start = [], 0
        for _ in range(count):
            at = letters.index(g, start)
            pieces += w[start:at], image if w[at] > 0 else inverse
            start = at + 1
        pieces.append(w[start:])
        spliced: list[int] = []
        for piece in pieces:
            i, n = 0, len(piece)
            while i < n and spliced and spliced[-1] == -piece[i]:
                spliced.pop()
                i += 1
            spliced += piece[i:]
        i, j = 0, len(spliced) - 1
        while i < j and spliced[i] == -spliced[j]:
            i += 1
            j -= 1
        if i <= j:
            out.append(tuple(map(renumber, spliced[i:j + 1])))
    return out


def tietze_simplify(p: Presentation) -> Presentation:
    """Simplify by deduplication and elimination of generators that some
    short relator uses exactly once.  The relators of every
    ``Presentation`` are already cyclically reduced and non-empty.

    Substitution is only attempted on relators of length at most
    ``MAX_RELATOR_LENGTH``, which keeps the rewriting from blowing up.  The
    generator count never increases and the presented group is unchanged.

    Each round costs C-level passes over all L letters (sorting each
    relator, finding +-g, renumbering), Python steps per letter +-g and per
    cancelled letter, and Booth's algorithm on relators whose sorted
    letters collide; e eliminations cost O(e * L log L) in all, where L is
    the largest total length met.  The rewritten relators are not bounded
    by the input's length: the chain a = b^2, b = c^2, ..., a^2 = 1 on g
    generators ends with 2^g letters.
    """
    gens = p.generator_count
    relators = _deduplicated(p.relators)
    while True:
        # Eliminate through the shortest relator that uses some generator
        # exactly once.
        for ri in sorted(range(len(relators)), key=lambda i: len(relators[i])):
            r = relators[ri]
            if len(r) > MAX_RELATOR_LENGTH:
                continue
            g = next((g for g, cnt in Counter(map(abs, r)).items() if cnt == 1), 0)
            if g:
                break
        else:
            return Presentation(gens, tuple(relators))
        pos = next(i for i, s in enumerate(r) if abs(s) == g)
        rotated = r[pos:] + r[:pos]  # starts with +-g
        image = inverse_word(rotated[1:]) if rotated[0] > 0 else rotated[1:]
        relators = _deduplicated(_eliminate(relators[:ri] + relators[ri + 1:], g, image, gens))
        gens -= 1


# -- Smith normal form ---------------------------------------------------------


def _nonzero_rows(matrix: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The nonzero rows of an integer matrix, whose entries are ints (bools
    count).  One C-level pass decides, as for letters: the sum of the row
    sums is an int only if every entry is; only on failure is the first bad
    entry looked for and named."""
    rows = [*map(tuple, matrix)]
    if len(set(map(len, rows))) > 1:
        raise ValueError("ragged matrix")
    if not _in_rank(map(sum, rows), None):
        bad = next(x for row in rows for x in row if not isinstance(x, int))
        raise ValueError(f"matrix entry {bad!r} is not an int")
    return [*filter(any, rows)]


def _unit_pivots(rows: list[tuple[int, ...]]) -> tuple[int, list[tuple[int, ...]]]:
    """Eliminate +-1 pivots on sparse rows, least Markowitz cost first.

    A pivot p = +-1 at (i, j) clears column j by adding multiples of row i
    to the other rows, after which column steps clear row i: both are
    unimodular, and what is left is p plus the other rows without column j.
    The cost (entries in row i - 1) * (entries in column j - 1) bounds the
    fill each pivot makes.  Costs go stale as rows change: a popped pivot
    whose cost has grown is put back with its new cost, and a changed row
    puts its +-1 entries in again.  Returns the number of pivots and the
    distinct nonzero rows left, over the columns still in use; rows with no
    +-1 entry, or no rows, come back as they are."""
    if not any(1 in row or -1 in row for row in rows):
        return 0, rows
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

    Entries must be ints (bools count); any other entry raises ValueError
    naming it.  Zero rows are dropped.  The sparse front end eliminates +-1
    pivots first, each an invariant factor 1, and passes on the rows left;
    then determinant-modular elimination after Hafner and
    McCurley (1991): fraction-free Bareiss elimination gives the rank r and
    a nonzero r x r minor D, which every determinantal divisor Delta_k
    (k <= r) divides; extended-gcd row and column steps then diagonalise
    the matrix modulo D, so every entry stays below D.  With the diagonal's
    gcds with D put into a divisibility chain c1 | c2 | ...,
    Delta_k = gcd(D, c1*...*ck) for k <= r.  That gcd is c1*...*ck, the
    k-th determinantal divisor of the lattice L + D*Z^n, which divides
    Delta_k of L, Delta_r and so the r x r minor D; so d_k = c_k.  Exact
    over arbitrary-precision integers.
    """
    units, rows = _unit_pivots(_nonzero_rows(matrix))
    rank, d = _bareiss(rows)
    chain = [math.gcd(x, d) for x in _diagonal_mod(rows, d)]
    chain += [d] * (rank - len(chain))
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = math.gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return (1,) * units + tuple(chain[:rank])


# -- abelianization -------------------------------------------------------------


@dataclass(frozen=True)
class AbelianInvariants:
    rank: int
    torsion: tuple[int, ...]


def abelianization(p: Presentation) -> AbelianInvariants:
    """Rank and torsion of the abelianized group, via Smith normal form."""
    # One row of exponent sums per distinct relator: a repeated relator only
    # repeats its row, which leaves the row lattice as it is.
    rows = []
    for r in dict.fromkeys(p.relators):
        row = [0] * p.generator_count
        for s in r:
            row[abs(s) - 1] += 1 if s > 0 else -1
        rows.append(row)
    factors = smith_normal_form(rows)
    return AbelianInvariants(p.generator_count - len(factors),
                             tuple(f for f in factors if f > 1))


# -- surface rank arithmetic -----------------------------------------------------


def surface_rank(genus: int, boundary_circles: int, orientable: bool) -> int:
    """Rank of a surface group: orientable 2g+k-1 (2g closed), else g+k-1
    (g closed), with genus meaning crosscap count in the non-orientable case."""
    if type(genus) is not int:
        raise ValueError(f"genus {genus!r} is not an int")
    if type(boundary_circles) is not int:
        raise ValueError(f"boundary circle count {boundary_circles!r} is not an int")
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
        if not type(g) is type(m) is type(l) is int:
            for name, value in (("genus", g), ("torus_pairs", m), ("single_circles", l)):
                if type(value) is not int:
                    raise AuditError(f"{name} {value!r} is not an int")
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
# Four regions share one chain from a boundary genus (label, form): half the
# boundary homology survives in the cut manifold (Hatcher, Notes on Basic
# 3-Manifold Topology, Lemma 3.5), pi1 rank >= H1 rank, doubling keeps
# rank, and the index-2 cover adds one.
def _cut_and_double(label: str, form: tuple[int, int, int, int]) -> tuple:
    return ((label, form, False, False),
            ("first homology rank of the cut manifold (half survives)", form, True, False),
            ("cut manifold rank >= its first homology rank", form, False, False),
            ("doubled manifold rank (doubling keeps rank)", form, True, False),
            ("twice ambient rank >= doubled rank + 1 (index-2 cover)",
             (form[0] + 2, *form[1:]), False, False))


_PIECE_BOUND = "twice ambient rank, via rank(double) >= rank(piece)"
_TWO_COMPONENTS = _cut_and_double("sum of the two boundary component genera 2(g + m)",
                                  (0, 4, 4, 0))
_NON_ORIENTABLE_GENUS = ("glued boundary genus (orienting double cover plus annuli) "
                         "g - 1 + 2m + l")
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
    (True, False, True, True): _cut_and_double(
        "glued boundary component genus 2g + 2m + l - 1", (-2, 4, 4, 2)),
    (True, False, False, True): _TWO_COMPONENTS,
    (True, False, False, False): _TWO_COMPONENTS,
    (False, False, False, True): _cut_and_double(_NON_ORIENTABLE_GENUS, (-2, 2, 4, 2)),
    (False, False, False, False): (
        (_NON_ORIENTABLE_GENUS, (-2, 2, 4, 2), False, False),
        ("incompressible boundary rank gap witness (g-1) + 1/2", (-1, 2, 4, 2), True, True),
        ("cut manifold rank, rounded up to the next integer", (0, 2, 4, 2), False, False),
        *_cut_and_double("", (0, 2, 4, 2))[-2:],
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
