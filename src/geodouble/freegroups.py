"""Free-group words and folded subgroup graphs.

Words over a rank-k free group are tuples of nonzero integers: +i is the
i-th generator and -i its inverse.  The string form uses lowercase letters
for generators and uppercase for inverses, so ``"abA"`` is a*b*a^-1 and
``"1"`` (or the empty string) is the identity.

A finitely generated subgroup is represented by its folded core graph: a
base-pointed graph with edges labelled by generators, folded so that no
vertex carries two equally-labelled edges in the same direction.  The graph
answers membership, computes the subgroup rank as its first Betti number,
detects finite index (the graph is complete), and produces canonical coset
representatives from a fixed breadth-first spanning tree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

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
    canonical too (and depend on that choice).
    """

    def __init__(self, ambient_rank: int, adjacency: tuple[dict[int, int], ...],
                 generators: tuple[Word, ...] = ()):
        self.ambient_rank = ambient_rank
        self._adj = adjacency
        self.generators = generators
        self._tree = self._spanning_tree()

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
        return cls(ambient_rank, _canonical_relabel(_fold(gens), 0, ambient_rank),
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
        canonical = _canonical_relabel(adj, base, ambient_rank)
        if len(canonical) != len(adj):
            raise ValueError("graph is not connected from the base vertex")
        return cls(ambient_rank, canonical)

    def _spanning_tree(self) -> tuple[Word, ...]:
        tree: list[Word | None] = [None] * len(self._adj)
        tree[0] = ()
        order = [0]
        labels = _signed_labels(self.ambient_rank)
        for v in order:
            for s in labels:
                w = self._adj[v].get(s)
                if w is not None and tree[w] is None:
                    tree[w] = tree[v] + (s,)  # type: ignore[operator]
                    order.append(w)
        return tuple(t for t in tree if t is not None)

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

    def trace(self, word: Iterable[int]) -> int | None:
        """Endpoint of the path reading ``word`` from the base, or None."""
        v = 0
        for s in free_reduce(word):
            nxt = self._adj[v].get(s)
            if nxt is None:
                return None
            v = nxt
        return v

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
        w = free_reduce(word)
        v = 0
        for i, s in enumerate(w):
            nxt = self._adj[v].get(s)
            if nxt is None:
                return free_reduce(self._tree[v] + w[i:])
            v = nxt
        return self._tree[v]

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


def _fold(gens: list[Word]) -> list[dict[int, int]]:
    # Multigraph phase: label -> set of targets, both directions stored.
    adj: list[dict[int, set[int]]] = [dict()]

    def add_edge(v: int, s: int, w: int) -> None:
        adj[v].setdefault(s, set()).add(w)
        adj[w].setdefault(-s, set()).add(v)

    for word in gens:
        v = 0
        for s in word[:-1]:
            adj.append({})
            u = len(adj) - 1
            add_edge(v, s, u)
            v = u
        add_edge(v, word[-1], 0)

    # Its own list-based find, not triangulation's signed union-find: with
    # that shared class, Schreier-graph folds of degree 256-1024 ran
    # 1.25-1.34x slower and the subgroup_fold benchmark's op_tail_ms rose
    # about 20%.
    parent = list(range(len(adj)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = list(range(len(adj)))
    while pending:
        v = find(pending.pop())
        for s, targets in list(adj[v].items()):
            roots = {find(t) for t in targets}
            if len(roots) > 1:
                # Keeping the smallest root keeps the base at vertex 0.
                keep, *rest = sorted(roots)
                for r in rest:
                    parent[r] = keep
                    for lab, tgts in adj[r].items():
                        adj[keep].setdefault(lab, set()).update(tgts)
                    adj[r] = {}
                pending.append(keep)
                pending.append(v)
                break
            adj[v][s] = roots

    # Collapse to representatives with single targets.
    reps = sorted({find(v) for v in range(len(adj))})
    new_index = {r: i for i, r in enumerate(reps)}
    folded: list[dict[int, int]] = [dict() for _ in reps]
    for r in reps:
        for s, targets in adj[r].items():
            tgts = {find(t) for t in targets}
            assert len(tgts) <= 1
            if tgts:
                folded[new_index[r]][s] = new_index[tgts.pop()]
    return folded


def _canonical_relabel(adj: list[dict[int, int]], base: int,
                       rank: int) -> tuple[dict[int, int], ...]:
    # Breadth-first relabelling from the base; vertices it cannot reach are
    # dropped, so a shorter result means the graph was not connected.
    labels = _signed_labels(rank)
    order = [base]
    pos = {base: 0}
    for v in order:
        for s in labels:
            w = adj[v].get(s)
            if w is not None and w not in pos:
                pos[w] = len(order)
                order.append(w)
    return tuple({s: pos[t] for s, t in sorted(adj[v].items())} for v in order)
