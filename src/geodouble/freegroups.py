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
"Stallings foldings and subgroups of free groups", J. Algebra 2002).  A
vertex stores one target per label; a second target for a label is put on
a merge queue, and queued pairs are identified through a union-find (the
near-linear scheme of Touikan, "A fast algorithm for Stallings' folding
process", IJAC 2006).  The graph answers membership, computes the
subgroup rank as its first Betti number, detects finite index (the graph
is complete), and produces canonical coset representatives from a fixed
breadth-first spanning tree.  For the double's normal forms it also reads
whole words: forward with free cancellation, backwards from the base, and,
on complete graphs, from every vertex at once.
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


def _signed_labels(rank: int) -> list[int]:
    # Fixed scan order: a, b, ..., then A, B, ...  Canonical labelling and
    # the spanning tree both depend on this order staying put.
    return list(range(1, rank + 1)) + list(range(-1, -rank - 1, -1))


class SubgroupGraph:
    """Folded core graph of a finitely generated subgroup of a free group.

    Vertices are numbered 0..V-1 in breadth-first order from the base
    vertex 0, scanning labels a, b, ..., A, B, ...; this relabelling is the
    canonical form used for equality tests.  Coset representatives read off
    the breadth-first spanning tree in the same label order, so they are
    canonical too (and depend on that choice).  The tree is stored as parent
    pointers, one (parent, label) pair per vertex; a vertex's tree word is
    built on demand by walking the parents back to the base.
    """

    def __init__(self, ambient_rank: int, adjacency: tuple[dict[int, int], ...],
                 generators: tuple[Word, ...] = ()):
        self.ambient_rank = ambient_rank
        self._adj = adjacency
        self.generators = generators
        self._tree = self._spanning_tree()
        self._columns: dict[int, list[int]] | None = None  # built by walk

    # -- construction ---------------------------------------------------

    @classmethod
    def from_generators(cls, generators: Iterable[Word | str], ambient_rank: int) -> "SubgroupGraph":
        """Fold the wedge of loops labelled by the generators."""
        if ambient_rank < 0:
            raise ValueError("ambient rank must be >= 0")
        gens = []
        for g in generators:
            w = word_from_str(g, ambient_rank) if isinstance(g, str) else tuple(g)
            for s in w:
                if not 1 <= abs(s) <= ambient_rank:
                    raise WordError(f"letter {s} outside the rank-{ambient_rank} alphabet")
            w = free_reduce(w)
            if w:
                gens.append(w)
        # The fold's own lists are dropped before the graph builds its tree.
        return cls(ambient_rank, _canonical_relabel(*_fold(gens), 0, ambient_rank),
                   tuple(gens))

    @classmethod
    def from_adjacency(cls, ambient_rank: int, adjacency: Iterable[dict[int, int]],
                       base: int = 0) -> "SubgroupGraph":
        """Adopt an explicit folded graph (labels +i/-i, both directions listed).

        The graph must be folded, connected from the base, and core (no
        dangling vertices besides possibly the base).
        """
        adj = [dict(d) for d in adjacency]
        for v, nbrs in enumerate(adj):
            for s, w in nbrs.items():
                if not 1 <= abs(s) <= ambient_rank:
                    raise ValueError(f"label {s} outside rank {ambient_rank}")
                if adj[w].get(-s) != v:
                    raise ValueError(f"edge {v} --{s}--> {w} lacks its reverse entry")
        for v, nbrs in enumerate(adj):
            if v != base and sum(1 for _ in nbrs) <= 1:
                raise ValueError(f"vertex {v} is dangling; graph is not core")
        canonical = _canonical_relabel(adj, range(len(adj)), base, ambient_rank)
        if len(canonical) != len(adj):
            raise ValueError("graph is not connected from the base vertex")
        return cls(ambient_rank, canonical)

    def _spanning_tree(self) -> list[tuple[int, int]]:
        # (parent, label) of each vertex's tree edge, (0, 0) at the base.
        # Numbering is breadth-first, so the first edge into w met in index
        # and _signed_labels order is the one that discovered w.
        tree: list[tuple[int, int] | None] = [None] * len(self._adj)
        tree[0] = (0, 0)
        labels = _signed_labels(self.ambient_rank)
        for v, nbrs in enumerate(self._adj):
            for s in labels:
                w = nbrs.get(s)
                if w is not None and tree[w] is None:
                    tree[w] = (v, s)
        return tree  # type: ignore[return-value]

    # -- queries ----------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        """Number of geometric (positively labelled) edges."""
        return sum(1 for nbrs in self._adj for s in nbrs if s > 0)

    def step(self, vertex: int, label: int) -> int | None:
        return self._adj[vertex].get(label)

    def _read(self, word: Word) -> tuple[int, Word]:
        # (vertex reached, unread rest) following the reduced word from the
        # base as far as the graph allows.
        v = 0
        for i, s in enumerate(word):
            nxt = self._adj[v].get(s)
            if nxt is None:
                return v, word[i:]
            v = nxt
        return v, ()

    def trace(self, word: Iterable[int]) -> int | None:
        """Endpoint of the path reading ``word`` from the base, or None."""
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
        full = 2 * self.ambient_rank
        for nbrs in self._adj:
            if len(nbrs) != full:
                return None
        return len(self._adj)

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
        word: list[int] = []
        while vertex:
            vertex, s = self._tree[vertex]
            word.append(s)
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
        adj = self._adj
        for s in letters:
            if word and word[-1] == -s:
                word.pop()
                if len(path) > len(word) + 1:
                    path.pop()
            else:
                word.append(s)
                if len(path) == len(word):
                    nxt = adj[path[-1]].get(s)
                    if nxt is not None:
                        path.append(nxt)
        return len(path) > len(word) and path[-1] == 0

    def read_back(self, word: Sequence[int]) -> tuple[int, int]:
        """Read the reduced ``word`` backwards, that is read its inverse,
        from the base as far as the graph allows.

        Returns (vertex reached, j) where ``word[j:]`` is the part read.
        """
        adj = self._adj
        vertex, j = 0, len(word)
        for s in reversed(word):
            nxt = adj[vertex].get(-s)
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
        if self._columns is None:
            if self.index() is None:
                raise ValueError("walk needs a complete graph (finite index)")
            self._columns = {s: [nbrs[s] for nbrs in self._adj]
                             for s in _signed_labels(self.ambient_rank)}
        ends = list(starts)
        for s in word:
            ends = list(map(self._columns[s].__getitem__, ends))
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
        for v in range(len(self._adj)):
            for s in sorted(k for k in self._adj[v] if k > 0):
                yield (v, s, self._adj[v][s])

    def canonical_key(self) -> tuple:
        return (self.ambient_rank, len(self._adj), tuple(self.edges()))

    def export_edge_list(self) -> str:
        return "\n".join(f"{v} --{letter_str(s)}--> {w}" for v, s, w in self.edges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubgroupGraph):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

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


def _canonical_relabel(adj: list[dict[int, int]], root: Sequence[int], base: int,
                       rank: int) -> tuple[dict[int, int], ...]:
    # Breadth-first relabelling from the base, reading each stored target t
    # as root[t]; vertices it cannot reach are dropped, so a shorter result
    # means the graph was not connected.
    labels = _signed_labels(rank)
    order = [base]
    pos = [-1] * len(adj)
    pos[base] = 0
    for v in order:
        nbrs = adj[v]
        for s in labels:
            w = nbrs.get(s)
            if w is not None:
                w = root[w]
                if pos[w] < 0:
                    pos[w] = len(order)
                    order.append(w)
    pos = [pos[r] for r in root]
    return tuple({s: pos[t] for s, t in sorted(adj[v].items())} for v in order)
