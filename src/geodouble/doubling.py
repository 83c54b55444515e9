"""Amalgamated doubles of a free group over a subgroup, with normal forms.

Two copies of a rank-k free group G (an unprimed and a primed side) are
glued along a finitely generated subgroup H, giving the amalgamated
product G *_H G'.  Elements arrive as alternating lists of syllables
(side, word).  Every element has a unique normal form

    c_1 c_2 ... c_m h     (sides of the c_i strictly alternating)

where h lies in H and each c_i is the canonical representative of its
left coset c_i H, never itself in H.  The form is computed by pushing
subgroup parts rightward: each syllable splits as representative times
H-part, the H-part is absorbed into the next syllable (H lives on both
sides), and whatever survives at the end is the tail h.

``Double.normal_form`` does this in two passes over the input.  The first
reduces the syllables with a stack that carries, for each syllable, the
vertices its word reaches in the folded graph, so membership in H costs
O(1) per letter; syllables in H are absorbed into a neighbour and
same-side neighbours merge.  The second splits each remaining syllable
with one backward read of tail * syllable from the base, since coset
representatives and the action on cosets come straight from the folded
graph (Kapovich-Myasnikov, "Stallings foldings and subgroups of free
groups", J. Algebra 2002).  On a finite-index subgroup that read runs
through the whole tail, so for a long word the pass carries the tail's
permutation of the cosets instead, at O(index) per letter; which of the
two it does is decided once per word, before the first syllable.  On an
infinite-index subgroup the read stops at the first letter the graph
lacks; only a tail that reads far from a non-base vertex is read again
at the next syllable.  ``DoubleWord`` checks its syllables in turn, each
side and then each word's letters by the one letter rule.  The rank check
of pass 1 stays one C-level pass over all the word's letters, with a
per-letter scan only to name a fault, and pass 2 is one loop per syllable
over the graph's own columns and spanning tree, with no helper call per
syllable.

This is a computable stand-in for doubling a manifold along boundary:
the fundamental group of the double is the amalgamated product of two
copies of the piece over the boundary subgroup, where side-swapping is
the automorphism induced by the reflection.  The swap fixes an element
exactly when its normal form has no syllables at all, i.e. exactly the
elements of H.  ``is_fixed`` therefore decides fixedness from the first
pass alone, which already knows whether the element lies in H; the
definitional check, that the normal forms of w and swap(w) agree, lives in
the tests, against an independent reference normal form.  The first pass
is shared: ``normal_form`` keeps a weak reference to the word it last
reduced and that word's membership in H, and ``is_fixed`` on that same
object reads the answer instead of reducing again.  Only the weak
reference and a bool are kept, never the stack or the word, so the memo
pins no memory and an equal but distinct word simply reduces again.  A
double's subgroup is read-only, so the answer cannot outlive its graph.
"""

from __future__ import annotations

import random
import weakref
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable

from .freegroups import (
    SubgroupGraph,
    Word,
    _check_count,
    _check_letters,
    concat,
    free_reduce,
    inverse_word,
    stallings_graph,
    word_from_str,
    word_to_str,
)

UNPRIMED = 0
PRIMED = 1
_SIDE_NAMES = {UNPRIMED: "u", PRIMED: "p"}

Syllable = tuple[int, Word]


def _checked(syllables: Iterable) -> tuple[Syllable, ...]:
    # The syllables as tuples, checked one by one: the side, then the
    # letters by the letter rule with no rank.
    out = []
    for side, word in syllables:
        if side not in (UNPRIMED, PRIMED):
            raise ValueError(f"side must be 0 or 1, got {side}")
        word = tuple(word)
        _check_letters(word)
        out.append((side, word))
    return tuple(out)


@dataclass(frozen=True)
class DoubleWord:
    """A raw (not yet normalised) element of the double."""

    syllables: tuple[Syllable, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "syllables", _checked(self.syllables))

    @classmethod
    def from_str(cls, text: str, rank: int | None = None) -> "DoubleWord":
        """Parse ``"u:abA p:bb u:a"`` (u = unprimed, p = primed)."""
        syllables = []
        for token in text.split():
            if ":" not in token:
                raise ValueError(f"syllable {token!r} needs a side prefix u: or p:")
            side_txt, word_txt = token.split(":", 1)
            if side_txt not in ("u", "p"):
                raise ValueError(f"unknown side {side_txt!r} (use u or p)")
            side = UNPRIMED if side_txt == "u" else PRIMED
            syllables.append((side, word_from_str(word_txt, rank)))
        return cls(tuple(syllables))

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(f"{_SIDE_NAMES[s]}:{word_to_str(w)}" for s, w in self.syllables)


@dataclass(frozen=True)
class NormalForm:
    """Alternating coset representatives followed by a tail in the subgroup."""

    syllables: tuple[Syllable, ...]
    tail: Word

    @property
    def syllable_count(self) -> int:
        return len(self.syllables)

    def __str__(self) -> str:
        parts = [f"{_SIDE_NAMES[s]}:{word_to_str(w)}" for s, w in self.syllables]
        parts.append(f"| {word_to_str(self.tail)}")
        return " ".join(parts)


# Pass 2 of ``Double.normal_form`` picks its mode once per word: on a complete
# (finite-index) graph it carries the tail's action on the vertices from the
# first syllable when the pass-1 stack holds more than TABLE_FACTOR * V
# letters, V the vertex count, and otherwise reads the whole tail at every
# syllable.  A read costs about 80-100 ns per tail letter; updating the action
# costs about 30-40 ns per vertex at V = 16 and 27-30 ns at V = 1024, for each
# of the |x| + |t(u)| passes (CPython 3.11, 2-vCPU x86 host).  With syllables
# of 1-3 random letters and mean tree depths 2.0-2.2 (V = 16) and 5.6
# (V = 1024), the two meet at a tail of 1.7 V and 2.5 V letters, and the
# tails of random words grow with the letters read.
TABLE_FACTOR = 2


class Double:
    """The double of a rank-k free group over a folded subgroup graph."""

    def __init__(self, subgroup: SubgroupGraph):
        self._subgroup = subgroup
        self.rank = subgroup.ambient_rank
        self._complete = subgroup.index() is not None
        # back[s] is the column of s^-1: reading a word backwards steps
        # through it.  The carried action iterates whole columns, so on a
        # complete graph a dict column is copied into a list.
        vertices = range(subgroup.vertex_count)
        self._back = {-s: col if type(col) is list or not self._complete
                      else [*map(col.__getitem__, vertices)]
                      for s, col in subgroup._col.items()}
        # (weak reference to the word normal_form last reduced, whether it
        # lies in H).  One tuple, so a reader sees the two together; the
        # first reference resolves to no word.
        self._last_in_h: tuple = (lambda: None, False)

    @property
    def subgroup(self) -> SubgroupGraph:
        """The folded graph of H; read-only, since ``rank`` and the pass-1
        memo are derived from it."""
        return self._subgroup

    @classmethod
    def from_generators(cls, generators: Iterable[Word | str], rank: int) -> "Double":
        return cls(stallings_graph(generators, rank))

    def normal_form(self, dword: DoubleWord) -> NormalForm:
        """Rewrite to the unique alternating normal form with right tail.

        Two passes.  Pass 1 reduces the syllables: a stack holds
        (side, reduced word, vertices read from the base) entries, merges
        same-side neighbours and absorbs any syllable that lies in H into
        its left neighbour, whose coset it does not change.  The syllables
        left alternate and lie outside H, so pass 2 splits each one with no
        merging back: for w = tail * x it reads w backwards from the base
        once, up to the first unreadable letter, at vertex u after w[j:];
        the representative is w[:j] * t(u)^-1 and the new tail t(u) * w[j:],
        where t(u) is u's spanning-tree word.

        The tail is read from 0 * x^-1, not from the base, so a carried
        vertex cannot answer that read.  On a complete graph the read never
        stops, so when the reduced stack holds more than TABLE_FACTOR * V
        letters the pass carries the tail's action on the vertices from the
        first syllable instead, act[v] = v * tail^-1, and u = act[0 * x^-1].
        The mode is fixed for the whole word.

        Cost: pass 1 is linear in the letters.  Pass 2 costs O(|x| + |t(u)|)
        per syllable plus its read of the tail, which on a complete graph
        runs only for words of at most TABLE_FACTOR * V letters after pass 1,
        or O(V) per letter of x and t(u) when the action is carried.  On an
        infinite-index subgroup the read has no such cap: a tail that reads
        far from 0 * x^-1 is read again at every syllable, so the worst case
        is quadratic in the length of the word
        (H = <a, bAB> with u:a^k then alternating p:B, u:b reads all of a^k
        at each syllable).
        """
        stack = self._reduce(dword)
        in_h = not stack or stack[0][0] is None
        self._last_in_h = (weakref.ref(dword), in_h)
        if stack and in_h:
            return NormalForm((), tuple(stack[0][1]))
        return self._split(stack)

    def _reduce(self, dword: DoubleWord) -> list[list]:
        """Pass 1: the reduced stack of [side, word, vertices read] entries.

        An entry with side None is an H-element with nothing to its left;
        the next syllable, of either side, extends it.  Such an entry is
        always alone on the stack, and the element lies in H exactly when
        the stack is empty or is that one entry.
        """
        graph, rank = self.subgroup, self.rank
        syllables = dword.syllables
        if max(map(abs, chain.from_iterable(map(itemgetter(1), syllables))), default=0) > rank:
            _check_letters([*chain.from_iterable(map(itemgetter(1), syllables))], rank)
        stack: list[list] = []
        for side, word in syllables:
            if stack and stack[-1][0] in (side, None):
                top = stack[-1]
                top[0] = side
            else:
                top = [side, [], [0]]
                stack.append(top)
            if graph.extend_read(top[1], top[2], word):
                if len(stack) > 1:
                    stack.pop()
                    graph.extend_read(stack[-1][1], stack[-1][2], top[1])
                else:
                    top[0] = None
        return stack

    def _split(self, stack: list[list]) -> NormalForm:
        """Pass 2: split each syllable of a reduced stack with no None entry."""
        graph = self.subgroup
        back, parent, label = self._back, graph._parent, graph._label
        out: list[Syllable] = []
        tail: deque[int] = deque()
        # act[v] = v * tail^-1 for the tail held, from the first syllable or never.
        carry = self._complete and (sum(map(len, map(itemgetter(1), stack)))
                                    > TABLE_FACTOR * graph.vertex_count)
        act = list(range(graph.vertex_count)) if carry else None
        for side, word, _ in stack:
            # The tail becomes w = tail * x.
            for s in word:
                if tail and tail[-1] == -s:
                    tail.pop()
                else:
                    tail.append(s)
            if act is not None:
                # v * (tail * s)^-1 = (v * s^-1) * tail^-1.
                for s in word:
                    act = [act[v] for v in back[s]]
                u, rep = act[0], []
            else:
                # Read w backwards from the base up to the first letter the
                # graph lacks; the first j letters are not read.
                u, j = 0, len(tail)
                for s in reversed(tail):
                    col = back.get(s)
                    if col is None or (v := col[u]) is None:
                        break
                    u = v
                    j -= 1
                rep = [tail.popleft() for _ in range(j)]
            # rep := rep * t(u)^-1 and tail := t(u) * tail, one tree edge at a
            # time from u up to the base.
            while u:
                s = label[u]
                rep.append(-s)
                if tail and tail[0] == -s:
                    tail.popleft()
                else:
                    tail.appendleft(s)
                if act is not None:
                    col = back[s]
                    act = [col[v] for v in act]
                u = parent[u]
            out.append((side, tuple(rep)))
        return NormalForm(tuple(out), tuple(tail))

    def swap(self, dword: DoubleWord) -> DoubleWord:
        """The side-exchanging automorphism; an involution fixing H pointwise."""
        return DoubleWord(tuple((1 - s, w) for s, w in dword.syllables))

    def is_fixed(self, dword: DoubleWord) -> bool:
        """Does the swap fix this element?

        The swap fixes exactly H, and pass 1 of ``normal_form`` already
        decides membership in H, so this runs pass 1 alone, and not even
        that when ``normal_form`` has just reduced this very object: its
        answer is kept beside a weak reference to the word.  The comparison
        of the normal forms of w and swap(w) that defines fixedness is
        checked against it in the tests, through the reference oracle.
        """
        ref, in_h = self._last_in_h
        if ref() is dword:
            return in_h
        stack = self._reduce(dword)
        return not stack or stack[0][0] is None

    def project(self, dword: DoubleWord) -> Word:
        """Image under the fold G *_H G' -> G that forgets the side."""
        return concat(*(w for _, w in dword.syllables))

    def nf_as_element(self, nf: NormalForm) -> DoubleWord:
        syl = nf.syllables + (((UNPRIMED, nf.tail),) if nf.tail else ())
        return DoubleWord(syl)


def random_double_word(rng: random.Random, rank: int,
                       subgroup: SubgroupGraph | None = None,
                       max_syllables: int = 6,
                       in_subgroup: bool = False) -> DoubleWord:
    """Sample a random double word; with ``in_subgroup`` the element is built
    from subgroup generators only, so it is guaranteed to lie in H."""
    _check_count(rank, "rank")
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    count = rng.randint(0 if in_subgroup else 1, max_syllables)
    syllables = []
    for _ in range(count):
        side = rng.randint(0, 1)
        if in_subgroup:
            if subgroup is None or not subgroup.generators:
                word: Word = ()
            else:
                parts = []
                for _ in range(rng.randint(1, 3)):
                    g = rng.choice(subgroup.generators)
                    parts.append(g if rng.random() < 0.5 else inverse_word(g))
                word = concat(*parts)
        else:
            # Draw i below 2 * rank and take the i-th letter of -rank..-1,
            # 1..rank, with no list of the letters built.
            draws = (rng.randrange(2 * rank) for _ in range(rng.randint(1, 6)))
            word = free_reduce(i - rank + (i >= rank) for i in draws)
        syllables.append((side, word))
    return DoubleWord(tuple(syllables))
