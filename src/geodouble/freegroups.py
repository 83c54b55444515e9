"""Free-group words and folded subgroup graphs.

Words over a rank-k free group are tuples of nonzero integers: +i is the
i-th generator and -i its inverse.  The string form uses lowercase letters
for generators and uppercase for inverses, so ``"abA"`` is a*b*a^-1 and
``"1"`` (or the empty string) is the identity.

A finitely generated subgroup is represented by its folded core graph: a
base-pointed graph with edges labelled by generators, folded so that no
vertex carries two equally-labelled edges in the same direction.  Folding
adds one generator at a time to a graph that is already folded: the word
is read along the graph forwards from the base and then backwards from the
base, and only its unread middle adds vertices (Kapovich and Myasnikov,
"Stallings foldings and subgroups of free groups", J. Algebra 2002).  While
folding, a vertex stores one target per label; a second target for a label
is put on a merge queue, and queued pairs are identified through a
union-find (the near-linear scheme of Touikan, "A fast algorithm for
Stallings' folding process", IJAC 2006).

The fold, and the graph it gives, keep one target column per signed
label.  A dense column is a list indexed by vertex; a sparse column is a
dict whose missing vertices read as None, so both read as ``col[v]``.
The fold gives a label a dense column when the label carries at least 1/8
of the letters, or when the rank is at most 8; the stored graph does when
the label has at least one edge per 8 vertices.  At most 16 columns are
dense, so memory stays linear in the letters however wide the alphabet.
Each fold vertex lists its sparse labels, so a merge, and the
breadth-first pass that renumbers the folded graph canonically, visit
only the dense columns and that vertex's own sparse labels.  That pass
stores the graph with the spanning tree it found as a parent and a label
per vertex; a stored column's layout follows from the graph alone, so
equal graphs have equal columns.  The graph answers membership,
computes the subgroup rank as its first Betti number, detects finite index
(the graph is complete), and produces canonical coset representatives from
that tree.

Words are taken in and read at a cost per batch, not per word, and every
check keeps its error text.  ``from_generators`` checks the letters and
the reducedness of all generators in a few C-level passes over them joined
into one list; if any check fails it reruns the per-word loop, which
raises the first fault.  ``from_adjacency`` checks the edges column by
column the same way, with the per-edge loop as its fallback.  Membership,
``trace`` and coset representatives read the word as given, unreduced:
each label of a folded graph is a partial injection whose inverse label is
its inverse map, so a read that completes ends where the read of the free
reduction ends.  Only a read that stops is done again on the free
reduction, which also checks the letters.

For the double's normal forms the graph also reads whole words forward
with free cancellation.  The double's second normal-form pass
reads the stored columns (``_col``) and the tree lists (``_parent``,
``_label``) directly, so that each syllable costs one loop and no method
call; a graph is never changed once built.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, repeat
from operator import add, is_not
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]


class WordError(ValueError):
    """Malformed word string or letter outside the ambient alphabet."""


def word_from_str(text: str, rank: int | None = None) -> Word:
    """Parse ``"abA"`` into ``(1, 2, -1)``; ``""`` and ``"1"`` are empty."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    letters = []
    for ch in text:
        if "a" <= ch <= "z":
            letters.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            letters.append(-(ord(ch) - ord("A") + 1))
        else:
            raise WordError(f"bad letter {ch!r} in word {text!r}")
    if rank is not None:
        for s in letters:
            if abs(s) > rank:
                raise WordError(
                    f"letter {letter_str(s)!r} outside the rank-{rank} alphabet"
                )
    return tuple(letters)


def letter_str(s: int) -> str:
    return chr(ord("a") + s - 1) if s > 0 else chr(ord("A") - s - 1)


def word_to_str(word: Iterable[int]) -> str:
    word = tuple(word)
    return "".join(letter_str(s) for s in word) if word else "1"


def free_reduce(word: Iterable[int]) -> Word:
    """The unique reduced word equal to ``word`` (single stack pass)."""
    out: list[int] = []
    for s in word:
        if s == 0:
            raise WordError("0 is not a letter")
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def inverse_word(word: Iterable[int]) -> Word:
    return tuple(-s for s in reversed(tuple(word)))


def concat(*words: Iterable[int]) -> Word:
    """Reduced product of the given words."""
    joined: list[int] = []
    for w in words:
        joined.extend(w)
    return free_reduce(joined)


def _reduced(word: Iterable[int]) -> Word:
    # free_reduce(word), with its errors.  Letters are nonzero, so a zero
    # sum marks a cancelling pair, and two C-level passes find most words
    # already reduced without the Python loop.
    w = tuple(word)
    if 0 in w or 0 in map(add, w, w[1:]):
        return free_reduce(w)
    return w


def _check_letters(word: Sequence[int], rank: int) -> None:
    # Three C-level passes; the letter is looked for only on failure.
    if word and (min(word) < -rank or max(word) > rank or 0 in word):
        bad = next(s for s in word if not 1 <= abs(s) <= rank)
        raise WordError(f"letter {bad} outside the rank-{rank} alphabet")


def _intake(generators: Iterable[Word | str], rank: int) -> tuple[Word, ...]:
    # The non-empty free reductions of the generators, with the errors of
    # checking one generator at a time.  The non-empty words are joined with
    # a 0 after each, and C-level passes over the joined list check them
    # all: its distinct letters are ints within the rank, its only zeros are
    # the separators, and no two adjacent entries sum to zero.  A letter
    # next to a separator sums to itself, so no pair across two words
    # cancels.  A failed check or an exception reruns the per-word loop,
    # which raises the first fault; so does a fault met while converting a
    # generator, after the loop has checked the words before it.
    words: list[Word] = []
    try:
        for g in generators:
            words.append(word_from_str(g, rank) if isinstance(g, str) else tuple(g))
    except (TypeError, ValueError):
        _intake_loop(words, rank)
        raise
    words = [*filter(None, words)]
    joined = [*chain.from_iterable(chain.from_iterable(zip(words, repeat((0,)))))]
    try:
        if (_in_rank(set(joined), rank) and joined.count(0) == len(words)
                and 0 not in map(add, joined, joined[1:])):
            return tuple(words)
    except TypeError:
        pass
    return _intake_loop(words, rank)


def _in_rank(letters: set, rank: int) -> bool:
    # Whether every letter is an int with |s| <= rank.  An int sum rules out
    # floats, NaN and other types that the comparisons would let past.
    try:
        return type(sum(letters)) is int and not (
            letters and (min(letters) < -rank or max(letters) > rank))
    except TypeError:
        return False


def _intake_loop(words: list[Word], rank: int) -> tuple[Word, ...]:
    gens = []
    for w in words:
        _check_letters(w, rank)
        w = _reduced(w)
        if w:
            gens.append(w)
    return tuple(gens)


class SubgroupGraph:
    """Folded core graph of a finitely generated subgroup of a free group.

    Vertices are numbered 0..V-1 in breadth-first order from the base
    vertex 0, scanning labels a, b, ..., A, B, ...; this relabelling is the
    canonical form used for equality tests.  The graph is stored as one
    target column per signed label that occurs: column s holds, at v, the
    target of v's s-edge, or None.  A column is a list when its label has
    at least V/8 edges and otherwise a dict whose missing vertices read as
    None, so columns, like the graph, compare equal exactly when the
    graphs do.  Coset representatives read off the
    breadth-first spanning tree that the relabelling finds, so they are
    canonical too (and depend on that choice).  The tree is two flat lists,
    each vertex's parent and the label of the edge that found it; a
    vertex's tree word is built on demand by walking the parents back to
    the base.
    """

    def __init__(self, ambient_rank: int, columns: dict[int, list[int | None] | dict[int, int]],
                 parent: list[int], label: list[int], generators: tuple[Word, ...] = ()):
        self.ambient_rank = ambient_rank
        self._col = columns
        self._parent = parent
        self._label = label
        self.generators = generators
        n = len(parent)
        self._edges = sum(n - col.count(None) if type(col) is list else len(col)
                          for s, col in columns.items() if s > 0)
        # Each label is injective on a folded graph, so k * V edges make
        # every label a permutation: the graph is complete.
        self._index = n if self._edges == ambient_rank * n else None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_generators(cls, generators: Iterable[Word | str], ambient_rank: int) -> "SubgroupGraph":
        """Fold the wedge of loops labelled by the generators."""
        if ambient_rank < 0:
            raise ValueError("ambient rank must be >= 0")
        gens = _intake(generators, ambient_rank)
        # The fold's own columns are dropped once the graph's are built.
        return cls(ambient_rank, *_canonical_relabel(*_fold(gens, ambient_rank), 0), gens)

    @classmethod
    def from_adjacency(cls, ambient_rank: int, adjacency: Iterable[dict[int, int]],
                       base: int = 0) -> "SubgroupGraph":
        """Adopt an explicit folded graph (labels +i/-i, both directions listed).

        The graph must be nonempty, folded, connected from the base, and
        core (no dangling vertices besides possibly the base).
        """
        adj = [dict(d) for d in adjacency]
        n = len(adj)
        if not n:
            raise ValueError("graph has no vertices")
        if not 0 <= base < n:
            raise ValueError(f"base {base} is not a vertex of a {n}-vertex graph")
        # The labels, then the edges, are checked with C-level passes over
        # the label set and the columns; on any failure the per-edge loop
        # names the first fault.
        labels = set().union(*adj)
        if 0 in labels or not _in_rank(labels, ambient_rank):
            _check_edges(adj, ambient_rank, base)
        cols, dense, sparse = _fold_columns(ambient_rank, n, chain.from_iterable(adj))
        for s in dense:
            cols[s][:] = map(dict.get, adj, repeat(s))
        sparse_at = {}
        if sparse:
            for v, nbrs in enumerate(adj):
                if here := [s for s in nbrs if s in sparse]:
                    sparse_at[v] = here
                    for s in here:
                        cols[s][v] = nbrs[s]
        sizes = [*map(len, adj)]
        entries = sum(sizes)
        sizes[base] = 2
        try:
            edges_ok = min(sizes) > 1 and _inverse_columns(cols, n, entries)
        except (IndexError, TypeError):
            edges_ok = False
        if not edges_ok:
            _check_edges(adj, ambient_rank, base)
        columns, parent, label = _canonical_relabel(cols, sparse_at, range(n), base)
        if len(parent) != n:
            raise ValueError("graph is not connected from the base vertex")
        return cls(ambient_rank, columns, parent, label)

    # -- queries ----------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._parent)

    @property
    def edge_count(self) -> int:
        """Number of geometric (positively labelled) edges."""
        return self._edges

    def step(self, vertex: int, label: int) -> int | None:
        col = self._col.get(label)
        return None if col is None else col[vertex]

    def _read(self, word: Word) -> tuple[int, Word]:
        # (vertex reached, unread rest) following the reduced word from the
        # base as far as the graph allows.  Only labels of the rank have
        # columns, so only the unread rest needs its letters checked.
        cols = self._col
        v = 0
        for i, s in enumerate(word):
            col = cols.get(s)
            if col is not None:
                nxt = col[v]
                if nxt is not None:
                    v = nxt
                    continue
            rest = word[i:]
            _check_letters(rest, self.ambient_rank)
            return v, rest
        return v, ()

    def _locate(self, word: Iterable[int]) -> tuple[int, Word]:
        # _read of the free reduction of ``word``.  The word is read first
        # as given: a read that completes ends where its reduction's does.
        # A read that stops at a missing edge is already _read's answer
        # when the word has no 0 and no cancelling neighbours, the test
        # _reduced makes.  Any other stop, at a letter with no column
        # (outside the rank, 0 or not an integer), at an unhashable letter
        # or in an unreduced word, is read again on the reduction, which
        # checks the letters.
        word = tuple(word)
        cols = self._col
        v = 0
        letters = iter(word)
        try:
            for s in letters:
                nxt = cols[s][v]
                if nxt is None:
                    if 0 not in word and 0 not in map(add, word, word[1:]):
                        rest = (s, *letters)
                        _check_letters(rest, self.ambient_rank)
                        return v, rest
                    break
                v = nxt
            else:
                return v, ()
        except (KeyError, TypeError):
            pass
        return self._read(_reduced(word))

    def trace(self, word: Iterable[int]) -> int | None:
        """Endpoint of the path reading ``word`` from the base, or None.

        Each label of a folded graph is a partial injection and its inverse
        label is the inverse map, so a read of ``word`` that completes,
        cancelling pairs included, ends where the read of its free
        reduction ends; only a read that stops is done again on the free
        reduction.  A letter outside the rank that free reduction leaves in
        ``word`` raises WordError, here and in ``contains`` and
        ``coset_representative``.
        """
        v, rest = self._locate(word)
        return None if rest else v

    def contains(self, word: Iterable[int]) -> bool:
        """Membership: does the reduced word trace a base-to-base loop?"""
        return self.trace(word) == 0

    def subgroup_rank(self) -> int:
        """Rank of the subgroup: first Betti number E - V + 1 of the core."""
        return self.edge_count - self.vertex_count + 1

    def index(self) -> int | None:
        """Index in the ambient free group, or None when infinite.

        Finite index means the graph is complete: every vertex carries all
        2k labelled directions, and the index is the vertex count.
        """
        return self._index

    def coset_representative(self, word: Iterable[int]) -> Word:
        """Canonical representative of the coset H*word.

        Trace the reduced word from the base as far as the core graph
        allows; the representative is the spanning-tree word of the vertex
        reached, followed by the untraceable remainder.  Elements of the
        subgroup map to the empty word, the output is constant on each
        coset, and word * rep(word)^-1 always lies in the subgroup.
        """
        v, rest = self._locate(word)
        # Already reduced: the unread rest cannot start with the inverse of
        # the tree edge into v, since that letter can be read at v.
        return self.tree_word(v) + rest

    def tree_word(self, vertex: int) -> Word:
        """The spanning-tree word from the base to ``vertex``."""
        parent, label = self._parent, self._label
        word: list[int] = []
        while vertex:
            word.append(label[vertex])
            vertex = parent[vertex]
        word.reverse()
        return tuple(word)

    # -- whole-word reading -------------------------------------------------

    def extend_read(self, word: list[int], path: list[int],
                    letters: Iterable[int]) -> bool:
        """Multiply the reduced ``word`` by ``letters`` in place and say
        whether the product lies in the subgroup.

        ``path`` is kept as the vertices met reading ``word`` from the base:
        path[i] is reached after i letters, up to the first letter the graph
        cannot read.  Start both from ``[]`` and ``[0]``.  A cancelled letter
        pops its vertex, so each letter costs O(1).
        """
        cols = self._col
        for s in letters:
            if word and word[-1] == -s:
                word.pop()
                if len(path) > len(word) + 1:
                    path.pop()
            else:
                word.append(s)
                if len(path) == len(word):
                    col = cols.get(s)
                    if col is not None:
                        nxt = col[path[-1]]
                        if nxt is not None:
                            path.append(nxt)
        return len(path) > len(word) and path[-1] == 0

    def schreier_rank_check(self) -> bool:
        """For finite index n in rank k: rank == n(k-1)+1, the Schreier index
        formula; so the covering bound (rank + n - 1)/n equals k exactly."""
        n = self.index()
        if n is None:
            raise ValueError("subgroup has infinite index")
        k = self.ambient_rank
        rk = self.subgroup_rank()
        return rk == n * (k - 1) + 1

    # -- canonical form ----------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (source, positive label, target), sorted."""
        # Bucketed by source, labels in increasing order: linear in the edges.
        rows: list[list[tuple[int, int]]] = [[] for _ in self._parent]
        for s in sorted(s for s in self._col if s > 0):
            col = self._col[s]
            for v, w in enumerate(col) if type(col) is list else col.items():
                if w is not None:
                    rows[v].append((s, w))
        for v, row in enumerate(rows):
            for s, w in row:
                yield (v, s, w)

    def canonical_key(self) -> tuple:
        return (self.ambient_rank, len(self._parent), tuple(self.edges()))

    def export_edge_list(self) -> str:
        return "\n".join(f"{v} --{letter_str(s)}--> {w}" for v, s, w in self.edges())

    def __eq__(self, other: object) -> bool:
        # The columns are in canonical numbering, so they are the graph.
        if not isinstance(other, SubgroupGraph):
            return NotImplemented
        return self.ambient_rank == other.ambient_rank and self._col == other._col

    def __hash__(self) -> int:
        # Equal columns give equal breadth-first trees.
        return hash((self.ambient_rank, tuple(self._parent), tuple(self._label)))

    def __repr__(self) -> str:
        return (f"SubgroupGraph(rank={self.ambient_rank}, vertices={self.vertex_count}, "
                f"edges={self.edge_count})")


def stallings_graph(generators: Iterable[Word | str], ambient_rank: int) -> SubgroupGraph:
    """Folded core graph for the subgroup generated by the given words."""
    return SubgroupGraph.from_generators(generators, ambient_rank)


def _check_edges(adj: list[dict[int, int]], rank: int, base: int) -> None:
    # Raises on the first fault of an adjacency, edge by edge.
    n = len(adj)
    for v, nbrs in enumerate(adj):
        for s, w in nbrs.items():
            if not 1 <= abs(s) <= rank:
                raise ValueError(f"label {s} outside rank {rank}")
            if not 0 <= w < n:
                raise ValueError(f"edge {v} --{s}--> {w} leaves the {n}-vertex graph")
            if adj[w].get(-s) != v:
                raise ValueError(f"edge {v} --{s}--> {w} lacks its reverse entry")
    for v, nbrs in enumerate(adj):
        if v != base and len(nbrs) <= 1:
            raise ValueError(f"vertex {v} is dangling; graph is not core")


def _inverse_columns(cols: list, n: int, entries: int) -> bool:
    # Whether the filled fold columns hold all ``entries`` adjacency entries
    # (a None target is not held) and the column of each label's inverse
    # takes every target back to its source.  A target that is not a vertex
    # fails the min, raises IndexError or TypeError as a list index, or, in
    # a dict column, reads None or fails the sum's type.
    vertices = [*range(n)]
    top = len(cols) // 2
    for s in [*range(1, top + 1), *range(-1, -top - 1, -1)]:
        col = cols[s]
        if col is None:
            continue
        if type(col) is not list:
            src, dst = [*col], [*col.values()]
            if type(sum(dst)) is not int:
                return False
        elif None in col:
            have = [*map(is_not, col, repeat(None))]
            src, dst = [*compress(vertices, have)], [*compress(col, have)]
        else:
            src, dst = vertices, col
        entries -= len(dst)
        if dst and min(dst) < 0 or [*map(cols[-s].__getitem__, dst)] != src:
            return False
    return not entries


# -- folding machinery ------------------------------------------------------

# A label pair gets list columns, one entry per vertex, when it carries at
# least 1/_DENSE of the fold's letters or, in a stored graph, has at least
# one edge per _DENSE vertices; any other label gets dict columns.  At most
# 2 * _DENSE labels then have lists, so columns take memory linear in the
# letters.  In rank up to _DENSE every label may have a list within that
# bound, and the fold skips the count.
_DENSE = 8


class _Sparse(dict):
    """A dict column: a vertex without an edge of its label reads None, as
    in a list column."""

    __slots__ = ()

    def __missing__(self, vertex: int) -> None:
        return None


def _fold_columns(rank: int, size: int, labels: Iterable[int]
                  ) -> tuple[list, list[int], set[int]]:
    # Empty fold columns over ``size`` vertices, indexed by signed label
    # through negative list indexing: label s is cols[s].  ``labels`` holds
    # every letter of the generators, or every label of an adjacency, and is
    # counted only past rank _DENSE.  Returns the columns, the dense labels
    # in the order a, b, ..., A, B, ... and the set of sparse labels.
    if rank <= _DENSE:
        dense, sparse = list(range(1, rank + 1)), []
    else:
        counts = Counter(map(abs, labels))
        total = sum(counts.values())
        dense = sorted(s for s, c in counts.items() if c * _DENSE >= total)
        sparse = [s for s, c in counts.items() if c * _DENSE < total]
    cols: list = [None] * (2 * max(dense + sparse, default=0) + 1)
    for s in dense:
        cols[s], cols[-s] = [None] * size, [None] * size
    for s in sparse:
        cols[s], cols[-s] = _Sparse(), _Sparse()
    return cols, dense + [-s for s in dense], {*sparse, *(-s for s in sparse)}


def _fold(gens: list[Word], rank: int) -> tuple[list, dict[int, list[int]], list[int]]:
    # Adds one generator at a time to a graph that is already folded.  Its
    # reduced word is read forwards from the base as far as the graph
    # allows, to letter i at vertex u, then backwards from the base, not
    # past i, to letter j at vertex v; only word[i:j] adds vertices (Kapovich
    # and Myasnikov, J. Algebra 2002).  A vertex keeps one target per label; a
    # second target goes onto the merge queue instead, drained before the
    # next generator (Touikan 2006).  Stored targets may be merged-away
    # vertices, so they are read through find.  Each vertex lists its sparse
    # labels, so a merge visits the dense columns and those alone.  Returns
    # the columns, the sparse labels of each vertex that has any, and each
    # vertex's root; merged-away vertices keep stale entries.
    size = 1 + sum(map(len, gens))  # at least the vertex count
    cols, dense, sparse = _fold_columns(rank, size, chain.from_iterable(gens))
    dense_cols = [(s, cols[s]) for s in dense]
    sparse_at: dict[int, list[int]] = {}
    parent = [0]
    merges: list[tuple[int, int]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def link(v: int, s: int, w: int) -> None:
        col = cols[s]
        t = col[v]
        if t is None:
            col[v] = w
            if s in sparse:
                sparse_at.setdefault(v, []).append(s)
        elif t != w:
            merges.append((t, w))

    for word in gens:
        u, i = 0, 0
        for s in word:
            t = cols[s][u]
            if t is None:
                break
            u = t if parent[t] == t else find(t)
            i += 1
        v, j = 0, len(word)
        while j > i:
            t = cols[-word[j - 1]][v]
            if t is None:
                break
            v = t if parent[t] == t else find(t)
            j -= 1
        if i == j:
            merges.append((u, v))
        elif j - i == 1:
            # One new edge between vertices already there.
            link(u, word[i], v)
            link(v, -word[i], u)
        else:
            # u, one new vertex per inner letter of mid, then v.  The word is
            # reduced, so an inner vertex's two labels differ; only the end
            # edges can collide, when u == v and the first and last letters
            # are inverse.
            mid = word[i:j]
            new = range(len(parent), len(parent) + j - i - 1)
            path = [u, *new, v]
            parent.extend(new)
            for x, s, t, p, q in zip(new, mid, mid[1:], path, path[2:]):
                cols[-s][x] = p
                cols[t][x] = q
            if sparse and not sparse.isdisjoint(mid):
                for x, s, t in zip(new, mid, mid[1:]):
                    here = [r for r in (-s, t) if r in sparse]
                    if here:
                        sparse_at[x] = here
            link(u, mid[0], path[1])
            link(v, -mid[-1], path[-2])
        while merges:
            x, y = merges.pop()
            if parent[x] != x:
                x = find(x)
            if parent[y] != y:
                y = find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            # Keeping the smaller root keeps the base at vertex 0.  Edges
            # into y stay stored as y and resolve to x through find.
            parent[y] = x
            for s, col in dense_cols:
                w = col[y]
                if w is not None:
                    link(x, s, w)
            for s in sparse_at.pop(y, ()):
                link(x, s, cols[s][y])
    # Each entry becomes its root.  Finding from parent[x], not from x,
    # returns an int object the list already holds, so the roots add no
    # new ints: a fresh list of find(x) raised the subgroup_fold bench's
    # peak RSS by about 0.8 MB (CPython 3.11 on a 2-vCPU x86 host).
    parent[:] = map(find, parent)
    return cols, sparse_at, parent


def _canonical_relabel(cols: list, sparse_at: dict[int, list[int]], root: Sequence[int],
                       base: int) -> tuple[dict[int, list | _Sparse], list[int], list[int]]:
    # One breadth-first pass from the base over fold columns, reading each
    # stored target t as root[t] and, at each vertex, the dense labels and
    # that vertex's sparse labels in the order a, b, ..., A, B, ...  It
    # numbers the vertices, writes each edge it reads into its label's
    # column (the target's number is known by then) and records the edge
    # that found each vertex as its tree edge.  Vertices it cannot reach are
    # dropped, so a shorter result means the graph was not connected.  Each
    # column is then a list or a dict by its own edge count against the
    # vertex count, so the layout depends on the graph alone.
    n = len(root)
    top = len(cols) // 2
    entries = [(s, col, [None] * n if type(col) is list else _Sparse())
               for s in [*range(1, top + 1), *range(-1, -top - 1, -1)]
               if (col := cols[s]) is not None]
    scan = [e for e in entries if type(e[1]) is list]
    by_label = {e[0]: e for e in entries}

    def canonical(entry: tuple) -> int:
        s = entry[0]
        return s if s > 0 else top - s

    pos = [-1] * n
    pos[base] = 0
    order = [base]
    parent = [0]
    label = [0]
    for i, v in enumerate(order):
        row = scan
        if sparse_at and v in sparse_at:
            row = sorted(scan + [by_label[s] for s in sparse_at[v]], key=canonical)
        for s, col, out in row:
            t = col[v]
            if t is not None:
                t = root[t]
                w = pos[t]
                if w < 0:
                    w = pos[t] = len(order)
                    order.append(t)
                    parent.append(i)
                    label.append(s)
                out[i] = w
    size = len(order)
    columns: dict[int, list | _Sparse] = {}
    for s, _, out in entries:
        if type(out) is list:
            del out[size:]
            edges = size - out.count(None)
        else:
            edges = len(out)
        if not edges:
            continue
        if edges * _DENSE < size:
            if type(out) is list:
                out = _Sparse((v, w) for v, w in enumerate(out) if w is not None)
        elif type(out) is not list:
            dense = [None] * size
            for v, w in out.items():
                dense[v] = w
            out = dense
        columns[s] = out
    return columns, parent, label
