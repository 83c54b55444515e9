"""Free-group words and folded subgroup graphs.

Words over a rank-k free group are tuples of nonzero integers: +i is the
i-th generator and -i its inverse.  The string form uses lowercase letters
for generators and uppercase for inverses, so ``"abA"`` is a*b*a^-1 and
``"1"`` (or the empty string) is the identity.  A letter past z is written
``[27]``, its inverse ``[-27]``, and is read back the same way.

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
label, laid out by the rank alone.  In rank up to 8 every label has a list
column indexed by vertex; in a wider alphabet every label that occurs has
a dict column whose missing vertices read as None, so both read as
``col[v]``, and memory stays linear in the letters however wide the
alphabet, with nothing sized by the largest letter.  There each fold
vertex lists its labels, so a merge, and the breadth-first pass that
renumbers the folded graph canonically, visit only that vertex's own
labels.  That pass stores the graph, in the fold's layout, with the
spanning tree it found as a parent and a label per vertex, so equal
graphs have equal columns.  The graph answers membership,
computes the subgroup rank as its first Betti number, detects finite index
(the graph is complete), and produces canonical coset representatives from
that tree; its edge list, for export and the canonical key, is one sort of
the (source, label, target) rows of its positive columns.

Words are taken in and read at a cost per batch, not per word, under one
letter rule, decided and named by ``_check_letters`` alone: a letter is a
nonzero int (bools count) within the rank.  ``from_generators`` checks all
generators in a few C-level passes over them joined into one list, and
``_check_letters`` over all their letters names the first fault if these
fail; ``from_adjacency`` adopts a graph based at vertex 0, checks its
labels and edges in one guarded pass, column by column, and sends any
failure to one per-edge loop, ``_check_edges``, that raises the first
fault.  Membership, ``trace`` and coset representatives share one reader,
which reads the word as given: each label of a folded graph is a partial
injection whose inverse label is its inverse map, so a read that completes
ends where the read of the free reduction ends.  A read that stops checks
the whole word, answers for a reduced one and reads any other again as its
free reduction.  The rule's one exception: a read that completes does not
check letter types, so it reads a float equal to an int as that int.

For the double's normal forms the graph also reads whole words forward
with free cancellation.  The double's second normal-form pass
reads the stored columns (``_col``) and the tree lists (``_parent``,
``_label``) directly, so that each syllable costs one loop and no method
call; a graph is never changed once built.
"""

from __future__ import annotations

import re
from itertools import chain, compress, repeat
from operator import add, is_not
from typing import Collection, Iterable, Iterator, Sequence

Word = tuple[int, ...]


class WordError(ValueError):
    """Malformed word string or letter outside the ambient alphabet."""


# A letter written by number, as ``letter_str`` writes those past z; any
# other bracket group is bad, named whole or, unclosed, up to a letter.
_NAMED = re.compile(r"\[(-?[1-9][0-9]*)\]")
_GROUP = re.compile(r"\[[^][]*\]|\[[^][a-zA-Z]*")


def word_from_str(text: str, rank: int | None = None) -> Word:
    """Parse ``"abA"`` into ``(1, 2, -1)``; ``""`` and ``"1"`` are empty.
    ``[s]`` is the letter s for any nonzero int s, so ``"[27][-27]"`` is
    ``(27, -27)``."""
    if rank is not None:
        _check_count(rank, "ambient rank")
    text = text.strip()
    if text in ("", "1"):
        return ()
    letters = []
    # Split on the bracketed names: the odd parts are their numbers.
    for i, part in enumerate(_NAMED.split(text)):
        if i % 2:
            letters.append(int(part))
            continue
        for ch in part:
            if "a" <= ch <= "z":
                letters.append(ord(ch) - ord("a") + 1)
            elif "A" <= ch <= "Z":
                letters.append(-(ord(ch) - ord("A") + 1))
            else:
                if ch == "[":
                    ch = _GROUP.match(part, part.index(ch))[0]
                raise WordError(f"bad letter {ch!r} in word {text!r}")
    if rank is not None and (bad := [s for s in letters if abs(s) > rank]):
        raise WordError(f"letter {letter_str(bad[0])!r} outside the rank-{rank} alphabet")
    return tuple(letters)


def letter_str(s: int) -> str:
    if -26 <= s <= 26:
        return chr(ord("a") + s - 1) if s > 0 else chr(ord("A") - s - 1)
    return f"[{s}]"


def word_to_str(word: Iterable[int]) -> str:
    word = tuple(word)
    return "".join(letter_str(s) for s in word) if word else "1"


def free_reduce(word: Iterable[int]) -> Word:
    """The unique reduced word equal to ``word`` (single stack pass)."""
    out: list[int] = []
    for s in word:
        if s == 0:
            _check_letters((s,))  # raises, naming it
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
    # free_reduce(word) of a word whose letters were checked.  Letters are
    # nonzero, so a zero sum marks a cancelling pair, and one C-level pass
    # finds most words already reduced without the Python loop.
    w = tuple(word)
    if 0 in map(add, w, w[1:]):
        return free_reduce(w)
    return w


def _check_count(value: int, name: str) -> None:
    # A rank or generator count is a plain int >= 0; bools are refused.
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an int")
    if value < 0:
        raise ValueError(f"{name} must be >= 0")


def _check_letters(word: Sequence, rank: int | None = None) -> None:
    # The one letter rule: a letter is a nonzero int (bools count) and, when
    # the rank is known, within it.  C-level passes decide; only on failure
    # is the first bad letter looked for, named as the caller wrote it.
    if 0 in word or not _in_rank(word, rank):
        bad = next(s for s in word if s == 0 or not _in_rank((s,), rank))
        if rank is not None:
            raise WordError(f"letter {bad!r} outside the rank-{rank} alphabet")
        raise WordError("0 is not a letter" if _in_rank((bad,), None)
                        else f"letter {bad!r} is not an integer")


def _intake(generators: Iterable[Word | str], rank: int) -> tuple[Word, ...]:
    # The non-empty free reductions of the generators, with the errors of
    # checking one generator at a time.  The non-empty words are joined with
    # a 0 after each, and C-level passes over the joined list check them
    # all: its distinct letters are ints within the rank, its only zeros are
    # the separators, and no two adjacent entries sum to zero.  A letter
    # next to a separator sums to itself, so no pair across two words
    # cancels.  When a check fails, or a generator fails to convert,
    # ``_check_letters`` names the first bad letter of the words so far.
    words: list[Word] = []
    try:
        for g in generators:
            words.append(word_from_str(g, rank) if isinstance(g, str) else tuple(g))
    except (TypeError, ValueError):
        _check_letters([*chain.from_iterable(words)], rank)
        raise
    words = [*filter(None, words)]
    joined = [*chain.from_iterable(chain.from_iterable(zip(words, repeat((0,)))))]
    try:
        if (_in_rank(set(joined), rank) and joined.count(0) == len(words)
                and 0 not in map(add, joined, joined[1:])):
            return tuple(words)
    except TypeError:
        pass
    _check_letters([*chain.from_iterable(words)], rank)
    return tuple(filter(None, map(_reduced, words)))


def _in_rank(letters: Collection, rank: int | None) -> bool:
    # Whether every letter is an int with |s| <= rank, or any int when rank
    # is None.  An int sum rules out floats, NaN and other types that the
    # comparisons would let past; bools sum to ints and count as ints.
    try:
        return type(sum(letters)) is int and not (
            rank is not None and letters and (min(letters) < -rank or max(letters) > rank))
    except TypeError:
        return False


class SubgroupGraph:
    """Folded core graph of a finitely generated subgroup of a free group.

    Vertices are numbered 0..V-1 in breadth-first order from the base
    vertex 0, scanning labels a, b, ..., A, B, ...; this relabelling is the
    canonical form used for equality tests.  The graph is stored as one
    target column per signed label that occurs: column s holds, at v, the
    target of v's s-edge, or None.  A column is a list in rank up to 8 and
    otherwise a dict whose missing vertices read as None; the rank alone
    picks the layout, so columns, like the graph, compare equal exactly
    when the graphs do.  Coset representatives read off the
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
        _check_count(ambient_rank, "ambient rank")
        gens = _intake(generators, ambient_rank)
        try:
            folded = _fold(gens, ambient_rank)
        except TypeError:  # a float that the intake's letter set merged with an int
            _check_letters([*chain.from_iterable(gens)], ambient_rank)
            raise
        # The fold's own columns are dropped once the graph's are built.
        return cls(ambient_rank, *_canonical_relabel(*folded), gens)

    @classmethod
    def from_adjacency(cls, ambient_rank: int,
                       adjacency: Iterable[dict[int, int]]) -> "SubgroupGraph":
        """Adopt an explicit folded graph (labels +i/-i, both directions listed).

        The graph must be nonempty, folded, connected from its base vertex 0,
        and core (no dangling vertices besides possibly the base).
        """
        _check_count(ambient_rank, "ambient rank")
        adj = [dict(d) for d in adjacency]
        n = len(adj)
        if not n:
            raise ValueError("graph has no vertices")
        # The labels, then the edges, are checked with C-level passes over
        # the label set and the columns.  On any failure, or an IndexError or
        # TypeError from a target that is no vertex or a float label that the
        # label set merged with an int, the per-edge loop names the first fault.
        labels = set().union(*adj)
        sizes = [*map(len, adj)]
        entries = sum(sizes)
        sizes[0] = 2
        sparse_at = {}
        try:
            ok = 0 not in labels and _in_rank(labels, ambient_rank)
            if ok:
                cols, order = _fold_columns(ambient_rank, n, chain.from_iterable(adj))
                if type(cols) is list:
                    for s in order:
                        cols[s][:] = map(dict.get, adj, repeat(s))
                else:
                    sparse_at = dict(enumerate(map(list, adj)))
                    for v, nbrs in enumerate(adj):
                        for s, w in nbrs.items():
                            cols[s][v] = w
                ok = min(sizes) > 1 and _inverse_columns(cols, order, n, entries)
        except (IndexError, TypeError):
            ok = False
        if not ok:
            _check_edges(adj, ambient_rank)
        columns, parent, label = _canonical_relabel(cols, order, sparse_at, range(n))
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

    def _locate(self, word: Iterable[int]) -> tuple[int, Word]:
        # (vertex reached, unread rest) of the free reduction of ``word``
        # read from the base.  A read of ``word`` as given that completes
        # ends where its reduction's does.  A read that stops, at a missing
        # edge or at a letter with no column, checks the whole word against
        # the letter rule; then it is the answer when _reduced leaves the
        # word as it is, and any other word is read again as its reduction.
        word = tuple(word)
        cols = self._col
        v = 0
        letters = iter(word)
        try:
            for s in letters:
                nxt = cols[s][v]
                if nxt is None:
                    break
                v = nxt
            else:
                return v, ()
        except (KeyError, TypeError):
            pass
        _check_letters(word, self.ambient_rank)
        reduced = _reduced(word)
        if reduced != word:
            return self._locate(reduced)
        return v, (s, *letters)

    def trace(self, word: Iterable[int]) -> int | None:
        """Endpoint of the path reading ``word`` from the base, or None.

        Each label of a folded graph is a partial injection and its inverse
        label is the inverse map, so a read of ``word`` that completes,
        cancelling pairs included, ends where the read of its free
        reduction ends; only a read of an unreduced word that stops is done
        again on the free reduction.  A letter that free reduction leaves in
        ``word`` and that is not a nonzero int within the rank raises
        WordError when the read stops at or before it, here and in
        ``contains`` and ``coset_representative``.
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
        """Yield (source, positive label, target), sorted: one sort of the
        edges read off the positive columns."""
        rows: list[tuple[int, int, int]] = []
        for s, col in self._col.items():
            if s > 0:
                rows += [(v, s, w) for v, w in (enumerate(col) if type(col) is list
                                                 else col.items()) if w is not None]
        yield from sorted(rows)

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


def _check_edges(adj: list[dict[int, int]], rank: int) -> None:
    # Raises on the first fault of an adjacency, edge by edge.
    n = len(adj)
    for v, nbrs in enumerate(adj):
        for s, w in nbrs.items():
            _check_letters((s,), rank)
            if not (isinstance(w, int) and 0 <= w < n):
                raise ValueError(f"edge {v} --{s}--> {w!r} leaves the {n}-vertex graph")
            if adj[w].get(-s) != v:
                raise ValueError(f"edge {v} --{s}--> {w} lacks its reverse entry")
    for v, nbrs in enumerate(adj):
        if v != 0 and len(nbrs) <= 1:
            raise ValueError(f"vertex {v} is dangling; graph is not core")


def _inverse_columns(cols: list | dict, labels: list[int], n: int, entries: int) -> bool:
    # Whether the filled fold columns of ``labels`` hold all ``entries``
    # adjacency entries (a None target is not held) and the column of each
    # label's inverse takes every target back to its source.  A target that
    # is not a vertex fails the min, raises IndexError or TypeError as a
    # list index, or, in a dict column, reads None or fails the sum's type.
    vertices = [*range(n)]
    for s in labels:
        col = cols[s]
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

# The rank alone picks the column layout, from the fold to the stored graph.
# In rank up to _DENSE every label has a list column, one entry per vertex,
# and the columns are a list indexed by signed label; in a wider alphabet
# every label that occurs has a dict column, and the columns are a dict
# keyed by label, so memory stays linear in the letters.
_DENSE = 8


class _Sparse(dict):
    """A dict column: a vertex without an edge of its label reads None, as
    in a list column."""

    __slots__ = ()

    def __missing__(self, vertex: int) -> None:
        return None


def _fold_columns(rank: int, size: int, labels: Iterable[int]) -> tuple[list | dict, list[int]]:
    # Empty fold columns over ``size`` vertices and their labels in the
    # order a, b, ..., A, B, ...  In rank up to _DENSE, label s is cols[s]
    # through negative list indexing.  Past it, ``labels`` (every letter of
    # the generators, or every label of an adjacency) names the labels that
    # get a column; int.__abs__ raises TypeError on a float, which a dict
    # keyed by label would read as the int it equals.
    if rank <= _DENSE:
        cols: list | dict = [None] * (2 * rank + 1)
        order = [*range(1, rank + 1), *range(-1, -rank - 1, -1)]
        for s in order:
            cols[s] = [None] * size
    else:
        letters = sorted({*map(int.__abs__, labels)})
        order = letters + [-s for s in letters]
        cols = {s: _Sparse() for s in order}
    return cols, order


def _fold(gens: list[Word], rank: int
          ) -> tuple[list | dict, list[int], dict[int, list[int]], list[int]]:
    # Adds one generator at a time to a graph that is already folded.  Its
    # reduced word is read forwards from the base as far as the graph
    # allows, to letter i at vertex u, then backwards from the base, not
    # past i, to letter j at vertex v; only word[i:j] adds vertices (Kapovich
    # and Myasnikov, J. Algebra 2002).  A vertex keeps one target per label; a
    # second target goes onto the merge queue instead, drained before the
    # next generator (Touikan 2006).  Stored targets may be merged-away
    # vertices, so they are read through find.  In dict columns each vertex
    # lists its labels, so a merge visits that vertex's labels alone, and in
    # list columns every column.  Returns the columns, their labels, each
    # vertex's labels when the columns are dicts, and each vertex's root;
    # merged-away vertices keep stale entries.
    size = 1 + sum(map(len, gens))  # at least the vertex count
    cols, order = _fold_columns(rank, size, chain.from_iterable(gens))
    wide = type(cols) is dict
    dense_cols = [] if wide else [(s, cols[s]) for s in order]
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
            if wide:
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
            if wide:
                for x, s, t in zip(new, mid, mid[1:]):
                    sparse_at[x] = [-s, t]
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
    return cols, order, sparse_at, parent


def _canonical_relabel(cols: list | dict, labels: list[int], sparse_at: dict[int, list[int]],
                       root: Sequence[int]
                       ) -> tuple[dict[int, list | _Sparse], list[int], list[int]]:
    # One breadth-first pass from vertex 0 over fold columns, reading each
    # stored target t as root[t] and, at each vertex, its labels in the order
    # a, b, ..., A, B, ...: every list column, or the vertex's own labels of
    # dict columns.  It numbers the vertices, writes each edge it reads into
    # its label's column, of the fold column's layout (the target's number is
    # known by then), and records the edge that found each vertex as its
    # tree edge.  Vertices it cannot reach are dropped, so a shorter result
    # means the graph was not connected.
    n = len(root)
    wide = type(cols) is dict
    entries = [(s, cols[s], _Sparse() if wide else [None] * n) for s in labels]
    scan = [] if wide else entries
    place = {s: i for i, s in enumerate(labels)}
    pos = [-1] * n
    pos[0] = 0
    order = [0]
    parent = [0]
    label = [0]
    for i, v in enumerate(order):
        row = scan
        if sparse_at and v in sparse_at:
            row = [entries[j] for j in sorted(map(place.__getitem__, sparse_at[v]))]
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
            if out.count(None) == size:
                continue
        columns[s] = out
    return columns, parent, label
