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
Stallings' folding process", IJAC 2006).  One breadth-first pass then
renumbers the folded graph canonically and stores it as one target column
per signed label that occurs, with the breadth-first spanning tree it
found as a parent and a label per vertex.  The graph answers membership,
computes the subgroup rank as its first Betti number, detects finite index
(the graph is complete), and produces canonical coset representatives from
that tree.  For the double's normal forms it also reads whole words:
forward with free cancellation, backwards from the base, and, on complete
graphs, from every vertex at once, one column per letter.
"""

from __future__ import annotations

from fractions import Fraction
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


def _check_letters(word: Sequence[int], rank: int) -> None:
    # Three C-level passes; the letter is looked for only on failure.
    if word and (min(word) < -rank or max(word) > rank or 0 in word):
        bad = next(s for s in word if not 1 <= abs(s) <= rank)
        raise WordError(f"letter {bad} outside the rank-{rank} alphabet")


class SubgroupGraph:
    """Folded core graph of a finitely generated subgroup of a free group.

    Vertices are numbered 0..V-1 in breadth-first order from the base
    vertex 0, scanning labels a, b, ..., A, B, ...; this relabelling is the
    canonical form used for equality tests.  The graph is stored as one
    target column per signed label that occurs: column s holds, at v, the
    target of v's s-edge, or None.  Coset representatives read off the
    breadth-first spanning tree that the relabelling finds, so they are
    canonical too (and depend on that choice).  The tree is two flat lists,
    each vertex's parent and the label of the edge that found it; a
    vertex's tree word is built on demand by walking the parents back to
    the base.
    """

    def __init__(self, ambient_rank: int, columns: dict[int, list[int | None]],
                 parent: list[int], label: list[int], generators: tuple[Word, ...] = ()):
        self.ambient_rank = ambient_rank
        self._col = columns
        self._parent = parent
        self._label = label
        self.generators = generators
        complete = len(columns) == 2 * ambient_rank and \
            all(None not in col for col in columns.values())
        self._index = len(parent) if complete else None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_generators(cls, generators: Iterable[Word | str], ambient_rank: int) -> "SubgroupGraph":
        """Fold the wedge of loops labelled by the generators."""
        if ambient_rank < 0:
            raise ValueError("ambient rank must be >= 0")
        gens = []
        for g in generators:
            w = word_from_str(g, ambient_rank) if isinstance(g, str) else tuple(g)
            _check_letters(w, ambient_rank)
            w = free_reduce(w)
            if w:
                gens.append(w)
        # The fold's own lists are dropped once the columns are built.
        return cls(ambient_rank, *_canonical_relabel(*_fold(gens), 0), tuple(gens))

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
        for v, nbrs in enumerate(adj):
            for s, w in nbrs.items():
                if not 1 <= abs(s) <= ambient_rank:
                    raise ValueError(f"label {s} outside rank {ambient_rank}")
                if not 0 <= w < n:
                    raise ValueError(f"edge {v} --{s}--> {w} leaves the {n}-vertex graph")
                if adj[w].get(-s) != v:
                    raise ValueError(f"edge {v} --{s}--> {w} lacks its reverse entry")
        for v, nbrs in enumerate(adj):
            if v != base and len(nbrs) <= 1:
                raise ValueError(f"vertex {v} is dangling; graph is not core")
        columns, parent, label = _canonical_relabel(adj, range(n), base)
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
        n = len(self._parent)
        return sum(n - col.count(None) for s, col in self._col.items() if s > 0)

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

    def trace(self, word: Iterable[int]) -> int | None:
        """Endpoint of the path reading ``word`` from the base, or None.

        A letter outside the rank that free reduction leaves in ``word``
        raises WordError, here and in ``contains`` and
        ``coset_representative``.
        """
        v, rest = self._read(free_reduce(word))
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
        v, rest = self._read(free_reduce(word))
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

    def read_back(self, word: Sequence[int]) -> tuple[int, int]:
        """Read the reduced ``word`` backwards, that is read its inverse,
        from the base as far as the graph allows.

        Returns (vertex reached, j) where ``word[j:]`` is the part read.
        """
        cols = self._col
        vertex, j = 0, len(word)
        for s in reversed(word):
            col = cols.get(-s)
            nxt = None if col is None else col[vertex]
            if nxt is None:
                break
            vertex = nxt
            j -= 1
        return vertex, j

    def walk(self, word: Iterable[int], starts: Iterable[int]) -> list[int]:
        """The vertex reached reading ``word`` from each of ``starts``.

        Only for complete graphs (finite index), where every word reads from
        every vertex and each label permutes the vertices; each letter then
        costs one C-level pass over the starts.
        """
        if self._index is None:
            raise ValueError("walk needs a complete graph (finite index)")
        cols = self._col
        ends = list(starts)
        for s in word:
            ends = list(map(cols[s].__getitem__, ends))
        return ends

    def schreier_rank_check(self) -> bool:
        """For finite index n in rank k: rank == n(k-1)+1, with the covering
        bound (rank + n - 1)/n met exactly."""
        n = self.index()
        if n is None:
            raise ValueError("subgroup has infinite index")
        k = self.ambient_rank
        rk = self.subgroup_rank()
        return rk == n * (k - 1) + 1 and Fraction(rk + n - 1, n) == k

    # -- canonical form ----------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (source, positive label, target), sorted."""
        positive = sorted((s, col) for s, col in self._col.items() if s > 0)
        for v in range(len(self._parent)):
            for s, col in positive:
                w = col[v]
                if w is not None:
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


# -- folding machinery ------------------------------------------------------


def _fold(gens: list[Word]) -> tuple[list[dict[int, int]], list[int]]:
    # Adds one generator at a time to a graph that is already folded.  Its
    # reduced word is read forwards from the base as far as the graph
    # allows, to letter i at vertex u, then backwards from the base, not
    # past i, to letter j at vertex v; only word[i:j] adds vertices (Kapovich
    # and Myasnikov, J. Algebra 2002).  A vertex keeps one target per label; a
    # second target goes onto the merge queue instead, drained before the
    # next generator (Touikan 2006).  Stored targets may be merged-away
    # vertices, so they are read through find.  Returns the adjacency and
    # each vertex's root; merged-away vertices are left empty.
    adj: list[dict[int, int]] = [{}]
    # Its own list-based find, not triangulation's signed union-find: with
    # that shared class, Schreier-graph folds of degree 256-1024 ran
    # 1.2-1.6x slower (CPython 3.11 on a 2-vCPU x86 host).
    parent = [0]
    merges: list[tuple[int, int]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def link(v: int, s: int, w: int) -> None:
        t = adj[v].setdefault(s, w)
        if t != w:
            merges.append((t, w))

    for word in gens:
        u, i = 0, 0
        for s in word:
            t = adj[u].get(s)
            if t is None:
                break
            u = find(t)
            i += 1
        v, j = 0, len(word)
        while j > i:
            t = adj[v].get(-word[j - 1])
            if t is None:
                break
            v = find(t)
            j -= 1
        if i == j:
            merges.append((u, v))
        else:
            # u, one new vertex per inner letter of word[i:j], then v.  The
            # word is reduced, so an inner vertex's two labels differ; only
            # the end edges can collide, when u == v and the first and last
            # letters are inverse.
            path = [u, *range(len(adj), len(adj) + j - i - 1), v]
            adj.extend({-s: p, t: q} for s, t, p, q
                       in zip(word[i:j - 1], word[i + 1:j], path, path[2:]))
            parent.extend(path[1:-1])
            link(u, word[i], path[1])
            link(v, -word[j - 1], path[-2])
        while merges:
            x, y = merges.pop()
            a, b = sorted((find(x), find(y)))
            if a != b:
                # Keeping the smaller root keeps the base at vertex 0.  Edges
                # into b stay stored as b and resolve to a through find.
                parent[b] = a
                for s, w in adj[b].items():
                    link(a, s, w)
                adj[b].clear()
    # Each entry becomes its root.  Finding from parent[x], not from x,
    # returns an int object the list already holds, so the roots add no
    # new ints: a fresh list of find(x) raised the subgroup_fold bench's
    # peak RSS by about 0.8 MB (CPython 3.11 on a 2-vCPU x86 host).
    parent[:] = map(find, parent)
    return adj, parent


def _canonical_relabel(adj: list[dict[int, int]], root: Sequence[int], base: int
                       ) -> tuple[dict[int, list[int | None]], list[int], list[int]]:
    # One breadth-first pass from the base, reading each stored target t as
    # root[t] and scanning the labels that occur in the order a, b, ...,
    # A, B, ...  It numbers the vertices, writes each edge it reads into its
    # label's column (the target's number is known by then) and records the
    # edge that found each vertex as its tree edge.  Vertices it cannot
    # reach are dropped, so a shorter result means the graph was not
    # connected.
    present = set().union(*adj)
    scan = sorted(s for s in present if s > 0) + \
        sorted((s for s in present if s < 0), reverse=True)
    n = len(adj)
    columns = {s: [None] * n for s in scan}
    pairs = list(columns.items())
    pos = [-1] * n
    pos[base] = 0
    order = [base]
    parent = [0]
    label = [0]
    for i, v in enumerate(order):
        nbrs = adj[v]
        for s, col in pairs:
            t = nbrs.get(s)
            if t is not None:
                t = root[t]
                w = pos[t]
                if w < 0:
                    w = pos[t] = len(order)
                    order.append(t)
                    parent.append(i)
                    label.append(s)
                col[i] = w
    for col in columns.values():
        del col[len(order):]
    return columns, parent, label
