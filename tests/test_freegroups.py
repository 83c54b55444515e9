import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from geodouble.doubling import Double, DoubleWord
from geodouble.freegroups import (
    SubgroupGraph,
    WordError,
    _Sparse,
    _inverse_columns,
    _reduced,
    concat,
    free_reduce,
    inverse_word,
    letter_str,
    stallings_graph,
    word_from_str,
    word_to_str,
)
from geodouble.presentations import Presentation

from oracles import (
    bounded_products,
    naive_fold_key,
    naive_reduce,
    permutation_graph,
    permutation_member,
    tree_coset_representatives,
)

letters = st.integers(min_value=-3, max_value=3).filter(lambda s: s != 0)
words = st.lists(letters, max_size=30).map(tuple)


class TestWords:
    def test_parse_roundtrip(self):
        assert word_from_str("abA") == (1, 2, -1)
        assert word_from_str("") == ()
        assert word_from_str("1") == ()
        assert word_to_str((1, 2, -1)) == "abA"
        assert word_to_str(()) == "1"

    def test_letters_past_z_have_printable_names(self):
        assert word_to_str((26, 27, -27, 40)) == "z[27][-27][40]"
        assert [letter_str(s) for s in (1, 26, -1, -26)] == ["a", "z", "A", "Z"]
        names = [letter_str(s) for s in range(-300, 301) if s]
        assert len(set(names)) == len(names)
        for name in names:
            assert name.isprintable() and not set(name) & set(" ,|:<>="), name
        w = tuple(range(1, 301)) + tuple(range(-300, 0))
        assert word_from_str(word_to_str(w)) == w
        assert word_from_str("[27]a[-300]", 300) == (27, 1, -300)
        # A bad bracket group is named whole, an unclosed one up to a letter.
        for bad, named in [("[0]", "[0]"), ("[01]", "[01]"), ("[x]", "[x]"), ("[]", "[]"),
                           ("[2", "[2"), ("[27", "[27"), ("[2ab", "[2"), ("a[[1]", "["),
                           ("[+27]", "[+27]"), ("[ 27]", "[ 27]"), ("[027]", "[027]"),
                           ("27]", "2"), ("[1]]", "]")]:
            with pytest.raises(WordError) as raised:
                word_from_str(bad)
            assert str(raised.value) == f"bad letter {named!r} in word {bad!r}"

    def test_parse_rank_check(self):
        with pytest.raises(WordError):
            word_from_str("abc", rank=2)
        with pytest.raises(WordError):
            word_from_str("a b")

    def test_reduce_examples(self):
        assert free_reduce(word_from_str("aA")) == ()
        assert free_reduce(word_from_str("abBa")) == (1, 1)

    def test_reduction_refuses_a_zero_letter(self):
        for reduce_zero in (lambda: free_reduce((1, 0, -1)), lambda: concat((1,), (0,))):
            with pytest.raises(WordError) as raised:
                reduce_zero()
            assert str(raised.value) == "0 is not a letter"

    @given(words)
    def test_reduce_matches_naive_oracle(self, w):
        assert free_reduce(w) == naive_reduce(w)

    @given(words)
    def test_reduce_idempotent(self, w):
        r = free_reduce(w)
        assert free_reduce(r) == r

    @given(words)
    def test_inverse(self, w):
        assert concat(w, inverse_word(w)) == ()


class TestStallingsGraph:
    def test_single_generator(self):
        g = stallings_graph(["a"], 2)
        assert g.vertex_count == 1
        assert g.edge_count == 1
        assert g.subgroup_rank() == 1
        assert g.index() is None

    def test_empty_generators(self):
        g = stallings_graph([], 2)
        assert g.vertex_count == 1
        assert g.subgroup_rank() == 0
        assert g.contains(())
        assert not g.contains((1,))

    def test_index_two_subgroup(self):
        g = stallings_graph(["aa", "b", "abA"], 2)
        assert g.vertex_count == 2
        assert g.edge_count == 4
        assert g.subgroup_rank() == 3
        assert g.index() == 2
        assert g.schreier_rank_check()

    def test_equality_with_other_types_and_repr(self):
        g = stallings_graph(["aa", "b", "abA"], 2)
        assert g.__eq__("graph") is NotImplemented
        assert g != "graph" and g == stallings_graph(["b", "aa", "aBA"], 2)
        assert repr(g) == "SubgroupGraph(rank=2, vertices=2, edges=4)"

    def test_whole_group(self):
        g = stallings_graph(["a", "b"], 2)
        assert g.index() == 1
        assert g.subgroup_rank() == 2

    def test_membership_examples(self):
        g = stallings_graph(["a"], 2)
        assert g.contains(word_from_str("aaa"))
        assert not g.contains(word_from_str("b"))

    def test_membership_closure(self):
        g = stallings_graph(["ab", "ba"], 2)
        u, v = word_from_str("ab"), word_from_str("ba")
        assert g.contains(concat(u, v))
        assert g.contains(inverse_word(u))
        assert g.contains(concat(v, inverse_word(u), v))

    def test_membership_against_bounded_enumeration(self):
        rng = random.Random(11)
        for _ in range(20):
            rank = rng.randint(1, 3)
            gens = []
            for _ in range(rng.randint(1, 3)):
                w = free_reduce(
                    rng.choice([s for s in range(-rank, rank + 1) if s])
                    for _ in range(rng.randint(1, 4)))
                if w:
                    gens.append(w)
            g = stallings_graph(gens, rank)
            enumerated = bounded_products(gens, 4)
            for w in enumerated:
                assert g.contains(w)
            for _ in range(30):
                w = free_reduce(
                    rng.choice([s for s in range(-rank, rank + 1) if s])
                    for _ in range(rng.randint(0, 6)))
                if not g.contains(w):
                    assert w not in enumerated

    def test_membership_against_permutation_action(self):
        rng = random.Random(5)
        for _ in range(25):
            rank = rng.randint(1, 3)
            size = rng.randint(1, 5)
            while True:
                perms = [rng.sample(range(size), size) for _ in range(rank)]
                try:
                    g = permutation_graph(perms, rank)
                    break
                except ValueError:
                    continue  # disconnected draw
            for _ in range(40):
                w = tuple(rng.choice([s for s in range(-rank, rank + 1) if s])
                          for _ in range(rng.randint(0, 8)))
                assert g.contains(w) == permutation_member(perms, w)

    def test_fold_order_confluence(self):
        rng = random.Random(23)
        for _ in range(30):
            rank = rng.randint(1, 3)
            gens = []
            for _ in range(rng.randint(1, 4)):
                w = free_reduce(
                    rng.choice([s for s in range(-rank, rank + 1) if s])
                    for _ in range(rng.randint(1, 6)))
                if w:
                    gens.append(w)
            g1 = stallings_graph(gens, rank)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            g2 = stallings_graph(shuffled, rank)
            assert g1 == g2
            assert g1.canonical_key() == g2.canonical_key()

    def test_unreduced_generators_prune_to_core(self):
        g = stallings_graph([word_from_str("aA")], 2)
        assert g.vertex_count == 1
        assert g.subgroup_rank() == 0

    def test_folding_gives_core_graphs(self):
        # Empty, unreduced and non-cyclically-reduced (conjugated) words:
        # folding must still leave no non-base vertex of degree <= 1, so
        # from_adjacency, which rejects dangling vertices, accepts the result.
        rng = random.Random(31)
        for _ in range(2000):
            rank = rng.randint(1, 3)
            alphabet = [s for s in range(-rank, rank + 1) if s]
            gens = []
            for _ in range(rng.randint(0, 4)):
                w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
                if rng.random() < 0.4:
                    u = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
                    w = u + w + inverse_word(u)
                gens.append(w)
            g = stallings_graph(gens, rank)
            degree = [0] * g.vertex_count
            adjacency = [{} for _ in range(g.vertex_count)]
            for v, s, w in g.edges():
                degree[v] += 1
                degree[w] += 1
                adjacency[v][s] = w
                adjacency[w][-s] = v
            assert all(d >= 2 for d in degree[1:]), gens
            assert SubgroupGraph.from_adjacency(rank, adjacency) == g

    def test_export_edge_list(self):
        g = stallings_graph(["a"], 2)
        assert g.export_edge_list() == "0 --a--> 0"


class TestCosetRepresentative:
    def test_subgroup_elements_map_to_unit(self):
        g = stallings_graph(["aa", "b", "abA"], 2)
        assert g.coset_representative(word_from_str("aa")) == ()
        assert g.coset_representative(word_from_str("b")) == ()
        assert g.coset_representative(()) == ()

    def test_two_coset_example(self):
        g = stallings_graph(["aa", "b", "abA"], 2)
        assert word_to_str(g.coset_representative(word_from_str("aaa"))) == "a"

    def test_constant_on_cosets_and_difference_in_subgroup(self):
        rng = random.Random(7)
        gens = ["aba", "bb", "aBa"]
        g = stallings_graph(gens, 2)
        gen_words = [word_from_str(x) for x in gens]
        for _ in range(200):
            w = free_reduce(rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(0, 8)))
            h = concat(*(rng.choice(gen_words + [inverse_word(x) for x in gen_words])
                         for _ in range(rng.randint(0, 3))))
            assert g.coset_representative(concat(h, w)) == g.coset_representative(w)
            rep = g.coset_representative(w)
            assert g.contains(concat(w, inverse_word(rep)))

    def test_idempotent(self):
        rng = random.Random(9)
        g = stallings_graph(["ab", "ba"], 2)
        for _ in range(100):
            w = free_reduce(rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(0, 8)))
            rep = g.coset_representative(w)
            assert g.coset_representative(rep) == rep


class TestWholeWordReading:
    GENS = (["aba", "bb", "aBa"], ["aa", "b", "abA"], ["ab", "bbA"], [])

    @given(words, st.sampled_from(GENS))
    def test_extend_read_tracks_membership_and_reduction(self, letters, gens):
        g = stallings_graph(gens, 3)
        word, path = [], [0]
        for cut in range(0, len(letters), 4):
            in_h = g.extend_read(word, path, letters[cut:cut + 4])
            assert tuple(word) == free_reduce(letters[:cut + 4])
            assert in_h == g.contains(word)
        v = 0
        for i, s in enumerate(word):
            assert path[i] == v
            v = g.step(v, s)
            if v is None:
                assert len(path) == i + 1
                break
        else:
            assert path[-1] == v and len(path) == len(word) + 1


def _reads(prev, word, rank):
    """How folding meets ``word`` on the graph of ``prev``: the forward read
    stops after i letters at u; reading backwards without the stop at i
    leaves ``word[j:]`` read and ends at v."""
    g = stallings_graph(prev, rank)
    w = free_reduce(word_from_str(word, rank))
    i = max(k for k in range(len(w) + 1) if g.trace(w[:k]) is not None)
    j = min(k for k in range(len(w) + 1) if g.trace(inverse_word(w[k:])) is not None)
    return w, i, g.trace(w[:i]), j, g.trace(inverse_word(w[j:]))


def _assert_fold_matches_oracle(prev, word):
    gens = [word_from_str(g) for g in prev + [word]]
    assert stallings_graph(gens, 2).canonical_key() == naive_fold_key(gens, 2)


class TestFoldOracles:
    def test_fold_and_representatives_match_oracles(self):
        # Unreduced, empty and conjugated generators and probe words.
        rng = random.Random(43)
        for _ in range(300):
            rank = rng.randint(1, 3)
            alphabet = [s for s in range(-rank, rank + 1) if s]
            gens = []
            for _ in range(rng.randint(0, 4)):
                w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
                if rng.random() < 0.4:
                    u = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
                    w = u + w + inverse_word(u)
                gens.append(w)
            g = stallings_graph(gens, rank)
            assert g.canonical_key() == naive_fold_key(gens, rank), gens
            probes = gens + [tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
                             for _ in range(20)]
            assert [g.coset_representative(p) for p in probes] == \
                   tree_coset_representatives(g, probes), gens

    def test_deep_graph_representatives(self):
        # One cyclically reduced generator of 3000 letters folds to a
        # 3000-vertex cycle, so tree words run up to 1500 letters.
        rng = random.Random(47)
        word = [rng.choice((1, 2, -1, -2))]
        while len(word) < 3000:
            s = rng.choice((1, 2, -1, -2))
            if s != -word[-1] and (len(word) < 2999 or s != -word[0]):
                word.append(s)
        word = tuple(word)
        g = stallings_graph([word], 2)
        assert g.vertex_count == 3000
        assert g.canonical_key() == naive_fold_key([word], 2)
        probes = [word[:k] + tuple(rng.choice((1, 2, -1, -2)) for _ in range(rng.randint(0, 3)))
                  for k in rng.sample(range(3001), 150)]
        reps = [g.coset_representative(p) for p in probes]
        assert reps == tree_coset_representatives(g, probes)
        assert max(len(r) for r in reps) >= 1400

    # Folding reads each generator forwards and backwards along the graph
    # already folded; the cases below are built to reach each way the two
    # reads can meet.

    @pytest.mark.parametrize("prev, word", [(["aa"], "a"), (["ab", "aB"], "a")])
    def test_read_to_end_at_other_vertex(self, prev, word):
        w, i, u, _, _ = _reads(prev, word, 2)
        assert i == len(w) and u != 0
        _assert_fold_matches_oracle(prev, word)

    def test_reads_meet_between_two_vertices(self):
        w, i, u, j, v = _reads(["ab"], "aab", 2)
        assert i == j < len(w) and u != v
        _assert_fold_matches_oracle(["ab"], "aab")

    @pytest.mark.parametrize("prev, word", [([], "abA"), (["aa"], "abaBA")])
    def test_first_and_last_letters_collide(self, prev, word):
        w, i, u, j, v = _reads(prev, word, 2)
        assert i < j - 1 and u == v and w[i] == -w[j - 1]
        _assert_fold_matches_oracle(prev, word)
        _assert_fold_matches_oracle(prev + [word], "aBA")

    @pytest.mark.parametrize("prev, word", [(["aa"], "aba"), (["aaa"], "aba"),
                                            (["ab"], "aB"), ([], "a")])
    def test_one_letter_middle(self, prev, word):
        _, i, _, j, _ = _reads(prev, word, 2)
        assert j - i == 1
        _assert_fold_matches_oracle(prev, word)

    @pytest.mark.parametrize("word", ["ba", "aBa", "bAA"])
    def test_reads_that_would_overlap(self, word):
        w, i, _, j, _ = _reads(["a", "bb"], word, 2)
        assert j < i < len(w)
        _assert_fold_matches_oracle(["a", "bb"], word)

    def test_words_along_paths_of_the_graph(self):
        # Heads of generators, a short middle, then inverted heads of
        # generators: the reads from both ends go far and meet anywhere.
        rng = random.Random(59)
        for _ in range(200):
            rank = rng.randint(1, 3)
            alphabet = [s for s in range(-rank, rank + 1) if s]
            gens = [tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                    for _ in range(rng.randint(1, 3))]
            for _ in range(3):
                head = rng.choice(gens)[:rng.randint(0, 6)]
                tail = rng.choice(gens)[:rng.randint(0, 6)]
                middle = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
                gens.append(head + middle + inverse_word(tail))
            assert stallings_graph(gens, rank).canonical_key() == \
                naive_fold_key(gens, rank), gens

    @pytest.mark.parametrize("size", [64, 128, 256, 512])
    def test_schreier_generators_of_large_index(self, size):
        rng = random.Random(size)
        rank = 2 + size % 3
        while True:
            perms = [rng.sample(range(size), size) for _ in range(rank)]
            try:
                expected = permutation_graph(perms, rank)
                break
            except ValueError:
                continue
        gens = [concat(expected.tree_word(v), (s,), inverse_word(expected.tree_word(w)))
                for v, s, w in expected.edges()]
        rng.shuffle(gens)
        g = stallings_graph([x for x in gens if x], rank)
        assert g.index() == size
        assert (g._col, g._parent, g._label) == \
            (expected._col, expected._parent, expected._label)
        assert list(g._col) == list(expected._col)
        # The same graph adopted with shuffled vertex names, the base kept at 0.
        names = rng.sample(range(size), size)
        i = names.index(0)
        names[0], names[i] = 0, names[0]
        shuffled = [{} for _ in range(size)]
        for v, s, w in expected.edges():
            shuffled[names[v]][s] = names[w]
            shuffled[names[w]][-s] = names[v]
        adopted = SubgroupGraph.from_adjacency(rank, shuffled)
        assert (adopted._col, adopted._parent, adopted._label) == (g._col, g._parent, g._label)


def _random_reduced(rng, rank, length):
    word = [rng.choice([s for s in range(-rank, rank + 1) if s])]
    while len(word) < length:
        s = rng.randint(-rank, rank)
        if s and s != -word[-1]:
            word.append(s)
    return tuple(word)


def _transitive_perms(rng, size, rank):
    while True:
        perms = [rng.sample(range(size), size) for _ in range(rank)]
        try:
            permutation_graph(perms, rank)
            return perms
        except ValueError:
            continue


class TestColumnLayout:
    """The graph kept as one target column per label, with the tree found
    by the relabelling pass, against oracles that see only ``edges()``."""

    def test_inverse_check_rejects_a_non_integer_dict_target(self):
        # Two vertices joined by one edge of label 1, in dict columns keyed
        # by label; a float target sums to a float.
        assert _inverse_columns({1: {0: 1}, -1: {1: 0}}, [1, -1], 2, 2) is True
        assert _inverse_columns({1: {0: 1.0}, -1: {1: 0}}, [1, -1], 2, 2) is False

    @pytest.mark.parametrize("kind", ["schreier-1024", "fold-10000"])
    def test_tree_words_match_the_breadth_first_oracle(self, kind):
        rng = random.Random(61)
        if kind == "schreier-1024":
            g = permutation_graph(_transitive_perms(rng, 1024, 2), 2)
            assert g.index() == 1024
        else:
            # 10 000 letters in 40 generators: the oracle reads every tree
            # word letter by letter, so the trees are kept a few hundred deep.
            g = stallings_graph([_random_reduced(rng, 2, 250) for _ in range(40)], 2)
            assert g.vertex_count > 8000
        words = [g.tree_word(v) for v in range(g.vertex_count)]
        vertex = {w: v for v, w in enumerate(words)}
        assert len(vertex) == g.vertex_count and words[0] == ()
        assert all(g.step(vertex[w[:-1]], w[-1]) == v for v, w in enumerate(words) if v)
        assert tree_coset_representatives(g, words) == words
        probes = [_random_reduced(rng, 2, rng.randint(1, 60)) for _ in range(300)]
        assert [g.coset_representative(p) for p in probes] == \
            tree_coset_representatives(g, probes)

    def test_permuted_generators_give_equal_graphs_and_hashes(self):
        rng = random.Random(67)
        for _ in range(200):
            rank = rng.randint(1, 3)
            gens = [_random_reduced(rng, rank, rng.randint(1, 8))
                    for _ in range(rng.randint(1, 4))]
            g = stallings_graph(gens, rank)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            h = stallings_graph(shuffled, rank)
            assert g == h and hash(g) == hash(h)
            assert g.canonical_key() == h.canonical_key()

    def test_ambient_rank_tells_graphs_apart(self):
        assert stallings_graph(["ab"], 2) != stallings_graph(["ab"], 3)
        assert stallings_graph([], 1) != stallings_graph([], 2)
        assert stallings_graph(["ab"], 2).export_edge_list() == \
            stallings_graph(["ab"], 3).export_edge_list()

    def test_fold_matches_oracles_past_rank_three(self):
        # Two labels carry most letters and the rest occur a few times.  The
        # rank alone picks the layout: every stored column, of a folded or
        # an adopted graph, is a list in rank up to 8 and a dict past it.
        rng = random.Random(71)
        layouts = set()
        for _ in range(150):
            rank = rng.randint(4, 12)
            alphabet = [s for s in range(-rank, rank + 1) if s]
            heavy = rng.sample(range(1, rank + 1), 2)
            gens = [tuple(rng.choice(heavy) * rng.choice((1, -1))
                          for _ in range(rng.randint(4, 14)))
                    for _ in range(rng.randint(1, 3))]
            gens += [tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                     for _ in range(rng.randint(1, 3))]
            g = stallings_graph(gens, rank)
            assert g.canonical_key() == naive_fold_key(gens, rank), gens
            probes = gens + [tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
                             for _ in range(20)]
            assert [g.coset_representative(p) for p in probes] == \
                tree_coset_representatives(g, probes), gens
            names = rng.sample(range(g.vertex_count), g.vertex_count)
            i = names.index(0)
            names[0], names[i] = 0, names[0]
            adjacency = [{} for _ in names]
            for v, s, w in g.edges():
                adjacency[names[v]][s] = names[w]
                adjacency[names[w]][-s] = names[v]
            adopted = SubgroupGraph.from_adjacency(rank, adjacency)
            assert adopted == g and hash(adopted) == hash(g), gens
            layout = list if rank <= 8 else _Sparse
            assert {*map(type, g._col.values()), *map(type, adopted._col.values())} == {layout}
            layouts.add(layout)
        assert layouts == {list, _Sparse}

    @pytest.mark.parametrize("rank", [2, 12])
    @pytest.mark.parametrize("n", [16, 17, 100])
    def test_full_column_beside_a_one_edge_column(self, n, rank):
        # The a-column is full and the b-column holds one edge.
        g = stallings_graph(["a" * n, "b"], rank)
        assert g.index() is None
        assert (g.vertex_count, g.edge_count, g.subgroup_rank()) == (n, n + 1, 2)
        _, _, edges = naive_fold_key([(1,) * n, (2,)], rank)
        assert g.export_edge_list() == \
            "\n".join(f"{v} --{letter_str(s)}--> {w}" for v, s, w in edges)
        # With b fixing every coset the graph is complete.
        conjugates = ["a" * k + "b" + "A" * k for k in range(1, n)]
        g = stallings_graph(["a" * n, "b", *conjugates], 2)
        assert (g.index(), g.edge_count) == (n, 2 * n)
        assert g.schreier_rank_check()

    def test_wide_alphabet_memory_is_linear(self):
        # One generator of k distinct letters in rank k: every label has
        # one edge.  With a list column per label this took about 146 MB
        # at k = 3000 (tracemalloc peak, CPython 3.11).
        def peak(k):
            tracemalloc.start()
            try:
                g = stallings_graph([tuple(range(1, k + 1))], k)
                return tracemalloc.get_traced_memory()[1], g
            finally:
                tracemalloc.stop()

        small, g = peak(3000)
        assert (g.vertex_count, g.edge_count, g.index()) == (3000, 3000, None)
        assert small < 30_000_000
        large, g = peak(12000)
        assert g.edge_count == 12000
        assert large <= 5 * small

    def test_a_letter_as_wide_as_the_rank_takes_no_memory_in_the_rank(self):
        # Columns are kept for the labels that occur, and nothing is sized by
        # the largest letter: a list of columns up to it would take 32 MB.
        k = 2_000_000
        builds = [lambda: stallings_graph([(k,)], k),
                  lambda: SubgroupGraph.from_adjacency(k, [{k: 0, -k: 0}]),
                  lambda: Double.from_generators([(k,)], k)]
        for build in builds:
            tracemalloc.start()
            try:
                built = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
            graph = getattr(built, "subgroup", built)
            assert graph.export_edge_list() == f"0 --[{k}]--> 0" and graph.index() is None

    def test_large_rank_with_few_labels_is_fast(self):
        # Only labels that occur get a column: rank 200000 costs nothing.
        start = time.perf_counter()
        g = stallings_graph(["abc", "ddd"], 200000)
        text = g.export_edge_list()
        assert time.perf_counter() - start < 1.0
        assert (g.vertex_count, g.edge_count, g.index()) == (5, 6, None)
        assert text.splitlines()[0] == "0 --a--> 1"

    @pytest.mark.parametrize("call", ["trace", "contains", "coset_representative"])
    def test_letters_outside_the_rank_raise(self, call):
        g = stallings_graph(["aa", "b"], 2)
        for word in [(3,), (3, 1), (1, 1, -3), (2, 1, 2, 4), (1, -2, -2, 3, 1)]:
            with pytest.raises(WordError, match="outside the rank-2 alphabet"):
                getattr(g, call)(word)
        with pytest.raises(WordError, match="letter 3 outside the rank-2"):
            g.coset_representative((3, 1))
        with pytest.raises(WordError, match="letter -4 outside the rank-2"):
            g.contains((1, 2, -4, 3))
        assert g.step(0, 3) is None and g.step(0, -3) is None

    @pytest.mark.parametrize("adjacency, message", [
        ([], "no vertices"),
        ([{1: 5}], "leaves the 1-vertex graph"),
        ([{1: -1}, {-1: 0}], "leaves the 2-vertex graph"),
    ])
    def test_from_adjacency_rejects_malformed_input(self, adjacency, message):
        with pytest.raises(ValueError, match=message):
            SubgroupGraph.from_adjacency(1, adjacency)


def _reads_through(g, word):
    # Whether ``word`` as given reads from the base letter by letter; an
    # unhashable letter has no column.
    v = 0
    for s in word:
        try:
            v = g.step(v, s)
        except TypeError:
            return False
        if v is None:
            return False
    return True


def _oracle_reads(g, words):
    # (trace, coset representative) of each word by the oracle: the trace is
    # the vertex whose tree word the representative is, if any, since a
    # tree word followed by an unread rest is no tree word.
    vertex = {g.tree_word(v): v for v in range(g.vertex_count)}
    return [(vertex.get(rep), rep) for rep in tree_coset_representatives(g, words)]


class TestWordIntake:
    """Reads and folding skip the free-reduction loop on reduced words;
    answers are those of reducing every word, and errors those of the one
    letter rule."""

    @given(words)
    def test_reduced_matches_free_reduce(self, w):
        r = free_reduce(w)
        for word in (w, r):
            for make in (tuple, list, iter):
                got = _reduced(make(word))
                assert type(got) is tuple and got == r

    def test_reads_match_the_free_reduce_path(self):
        rng = random.Random(44)
        graphs = [stallings_graph(gens, 2) for gens in
                  (["aa", "b", "abA"], ["aba", "bb", "aBa"], ["ab"], [])]
        graphs.append(SubgroupGraph.from_adjacency(2, [{1: 1, -1: 1, 2: 0, -2: 0},
                                                       {1: 0, -1: 0, 2: 1, -2: 1}]))
        for _ in range(400):
            w = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(0, 12)))
            r = free_reduce(w)
            for g in graphs:
                [(trace, rep)] = _oracle_reads(g, [w])
                for word in (w, r):
                    for make in (tuple, list, iter):
                        assert g.trace(make(word)) == trace
                        assert g.contains(make(word)) == (trace == 0)
                        assert g.coset_representative(make(word)) == rep

    @pytest.mark.parametrize("word", [(0,), (1, 0), (2, -2, 0), (1, 2, 1, 0, 5)])
    def test_zero_letter_texts(self, word):
        for rank in (2, 30):
            g = stallings_graph(["aa", "b"], rank)
            for call in (g.trace, g.contains, g.coset_representative,
                         lambda w: stallings_graph([(1,), w], rank)):
                for make in (tuple, list, iter):
                    with pytest.raises(WordError) as raised:
                        call(make(word))
                    assert str(raised.value) == f"letter 0 outside the rank-{rank} alphabet"

    @pytest.mark.parametrize("rank", [0, 1, 2, 200000])
    def test_from_generators_names_the_first_bad_letter(self, rank):
        good = tuple(range(1, min(rank, 3) + 1))
        for bad in (rank + 1, -rank - 1):
            with pytest.raises(WordError) as raised:
                stallings_graph([(), good, (*good, bad, 0), (2 * bad,)], rank)
            assert str(raised.value) == f"letter {bad} outside the rank-{rank} alphabet"
        gens = [good, (-rank, -rank)] if rank else [good]
        g = stallings_graph(gens, rank)
        assert all(map(g.contains, gens))

    @staticmethod
    def _with_pairs(rng, word, rank, pairs, outside=True):
        # ``word`` with s s^-1 put in at random places; with ``outside``,
        # about one s in four lies outside the rank.
        w = list(word)
        for _ in range(pairs):
            if outside and rng.random() < 0.25:
                s = rng.choice((rank + 1, rank + 7, -rank - 1))
            else:
                s = rng.choice([x for x in range(-rank, rank + 1) if x])
            i = rng.randint(0, len(w))
            w[i:i] = (s, -s)
        return tuple(w)

    def test_reads_of_unreduced_words_match_their_reductions(self):
        # Folds of random words and complete Schreier graphs, ranks 2-4.
        # Probes are generators, tree words and random words with cancelling
        # pairs of letters within the rank put in, so reads both complete
        # and stop.
        rng = random.Random(73)
        for trial in range(60):
            rank = rng.randint(2, 4)
            if trial % 2:
                g = permutation_graph(_transitive_perms(rng, rng.randint(2, 12), rank), rank)
                gens = []
            else:
                gens = [_random_reduced(rng, rank, rng.randint(1, 8))
                        for _ in range(rng.randint(1, 4))]
                g = stallings_graph(gens, rank)
            probes = gens + [g.tree_word(v) for v in range(g.vertex_count)]
            probes += [_random_reduced(rng, rank, rng.randint(1, 10)) for _ in range(10)]
            probes += [()]
            words = [self._with_pairs(rng, p, rank, rng.randint(0, 4), outside=False)
                     for p in probes]
            for w, (trace, rep) in zip(words, _oracle_reads(g, words)):
                for make in (tuple, list, iter):
                    assert g.trace(make(w)) == trace
                    assert g.contains(make(w)) == (trace == 0)
                    assert g.coset_representative(make(w)) == rep

    def test_complete_reads_do_not_reduce(self, monkeypatch):
        # A read that completes answers alone, cancelling pairs included.
        rng = random.Random(79)
        g = permutation_graph(_transitive_perms(rng, 64, 3), 3)
        words = [self._with_pairs(rng, g.tree_word(v), 3, 3, outside=False)
                 for v in range(64)]
        reps = [g.coset_representative(w) for w in words]
        monkeypatch.setattr("geodouble.freegroups._reduced", None)
        assert [g.trace(w) for w in words] == list(range(64))
        assert [g.coset_representative(w) for w in words] == reps
        assert g.contains(self._with_pairs(rng, (), 3, 5, outside=False))

    @staticmethod
    def _outcomes(g, word, make=tuple):
        # (trace, contains, coset_representative) of ``make(word)``, or the
        # type and text of what the first of them raised.
        got = []
        for call in (g.trace, g.contains, g.coset_representative):
            try:
                got.append(call(make(word)))
            except Exception as exc:
                return type(exc), str(exc)
        return tuple(got)

    @staticmethod
    def _expected(g, word):
        # The one letter rule: a word with a letter that is not a nonzero int
        # within the rank raises WordError naming its first such letter,
        # unless the read of the word as given completes, which reads a float
        # equal to an int as that int.  Any other word gets the oracle's
        # answer for its free reduction.
        rank = g.ambient_rank
        bad = [s for s in word if type(s) not in (int, bool) or not 1 <= abs(s) <= rank]
        if bad and not _reads_through(g, word):
            return WordError, f"letter {bad[0]!r} outside the rank-{rank} alphabet"
        [(trace, rep)] = _oracle_reads(g, [free_reduce(map(int, word))])
        return trace, trace == 0, rep

    def test_stopped_reads_match_a_read_of_the_reduction(self):
        # Folds of a few short words are mostly of infinite index, so most
        # reads stop.  Words are reduced, unreduced, or carry a 0, a letter
        # outside the rank or a letter that is not an int.
        rng = random.Random(97)
        for _ in range(60):
            rank = rng.randint(2, 4)
            g = stallings_graph([_random_reduced(rng, rank, rng.randint(1, 6))
                                 for _ in range(rng.randint(1, 3))], rank)
            odd = (0, rank + 1, -rank - 2, 1.5, -0.5, 2.0, True, "x", None, (1,))
            for kind in [0, 1, 2, 3] * 8:
                w = _random_reduced(rng, rank, rng.randint(1, 9)) if rng.random() < 0.9 else ()
                if kind == 1:
                    w = self._with_pairs(rng, w, rank, rng.randint(1, 3))
                elif kind >= 2:
                    i = rng.randint(0, len(w))
                    w = w[:i] + (rng.choice(odd),) + w[i:]
                expected = self._expected(g, w)
                for make in (tuple, list, iter):
                    assert self._outcomes(g, w, make) == expected, w

    def test_stopped_reduced_reads_read_once(self, monkeypatch):
        # A reduced word whose read stops at a missing edge is answered by
        # that read alone: no free reduction loop and no second read.
        rng = random.Random(101)
        g = stallings_graph(["aab", "bAba", "cc"], 3)
        words = [_random_reduced(rng, 3, rng.randint(1, 12)) for _ in range(300)]
        expected = [(g.trace(w), g.coset_representative(w)) for w in words]
        assert sum(trace is None for trace, _ in expected) > 250
        reads = []
        locate = SubgroupGraph._locate
        monkeypatch.setattr("geodouble.freegroups.free_reduce", None)
        monkeypatch.setattr(SubgroupGraph, "_locate",
                            lambda self, word: reads.append(word) or locate(self, word))
        assert [(g.trace(w), g.coset_representative(w)) for w in words] == expected
        assert len(reads) == 2 * len(words)
        with pytest.raises(WordError) as raised:
            g.trace((1, 2, 4))
        assert str(raised.value) == "letter 4 outside the rank-3 alphabet"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reads_keep_the_letter_rule(self, data):
        # Random folds of rank 2-3 read int words with odd letters put in.
        # Each read gets the outcome of the one letter rule, and an answer
        # has a representative of nonzero ints within the rank.
        rank = data.draw(st.integers(2, 3))
        letter = st.integers(-rank, rank).filter(bool)
        gens = data.draw(st.lists(st.lists(letter, min_size=1, max_size=6), max_size=3))
        g = stallings_graph(gens, rank)
        w = data.draw(st.lists(letter, max_size=12))
        for odd in data.draw(st.lists(st.sampled_from(
                [0, rank + 1, -rank - 2, 1.5, 2.0, NAN, True, "x", None]), max_size=3)):
            w.insert(data.draw(st.integers(0, len(w))), odd)
        w = tuple(w)
        expected = self._expected(g, w)
        for make in (tuple, list, iter):
            assert self._outcomes(g, w, make) == expected
        if expected[0] is not WordError:
            rep = self._outcomes(g, w)[2]
            assert all(type(s) in (int, bool) and 1 <= abs(s) <= rank for s in rep)

    def test_generator_intake_matches_the_per_word_loop(self):
        # Shuffled generators, some unreduced and some empty, given as
        # tuples, lists, iterators and strings.
        rng = random.Random(83)
        for _ in range(150):
            rank = rng.randint(2, 4)
            reduced = [_random_reduced(rng, rank, rng.randint(1, 6))
                       for _ in range(rng.randint(0, 5))]
            words = [self._with_pairs(rng, w, rank, rng.randint(0, 2), outside=False)
                     if rng.random() < 0.3 else w for w in reduced]
            words += [()] * rng.randint(0, 2)
            words += [self._with_pairs(rng, (), rank, 1, outside=False)] * rng.randint(0, 1)
            rng.shuffle(words)
            expected = tuple(r for r in map(free_reduce, words) if r)
            key = naive_fold_key(list(expected), rank)
            for make in (tuple, list, iter, word_to_str):
                g = stallings_graph([make(w) for w in words], rank)
                assert g.generators == expected
                assert all(type(w) is tuple for w in g.generators)
                assert g.canonical_key() == key

    def test_reduced_generators_take_no_per_word_loop(self, monkeypatch):
        # Words whose neighbours cancel across their ends, and Schreier
        # generators, in one C-level pass over all of them.
        rng = random.Random(89)
        batches = [[(1, 2), (-2, 1), (-1,), (1, -2)], [(1,), (-1,), (), (1,)], [(), ()]]
        for size in (8, 64, 256):
            g = permutation_graph(_transitive_perms(rng, size, 2), 2)
            batches.append([concat(g.tree_word(v), (s,), inverse_word(g.tree_word(w)))
                            for v, s, w in g.edges()])
        expected = [stallings_graph(b, 2) for b in batches]
        monkeypatch.setattr("geodouble.freegroups._reduced", None)
        for batch, g in zip(batches, expected):
            got = stallings_graph(batch, 2)
            assert got == g and got.generators == tuple(w for w in batch if w)


NAN = float("nan")


class _FirstNan(float):
    """A NaN with hash 0, which a set holding 0 iterates first: min and max
    of that set then both return it."""

    def __hash__(self):
        return 0


def _given(gens, make):
    # Each tuple generator as ``make`` gives it; strings and non-iterables as
    # they are.  "mixed" cycles through tuple, list and iterator.
    makes = (tuple, list, iter) if make == "mixed" else (make,)
    return [makes[i % len(makes)](g) if type(g) is tuple else g for i, g in enumerate(gens)]


class TestFirstFault:
    """Inputs with two faults raise the first one a per-word, per-edge scan
    meets, with its type and text.  A letter is a nonzero int (a bool counts)
    within the rank, and an edge target an int vertex; a letter that only a
    completed read meets is read through its column."""

    @pytest.mark.parametrize("gens, rank, error, message", [
        # A letter out of range ahead of a string that does not parse.
        ([(1, 2), (2, 1), (1, 5), "a b"], 2, WordError, "letter 5 outside the rank-2 alphabet"),
        ([(1, 2), "ae", "a b"], 2, WordError, "letter 'e' outside the rank-2 alphabet"),
        ([(1,), "ac", (0,)], 2, WordError, "letter 'c' outside the rank-2 alphabet"),
        # A zero behind an unreduced word.
        ([(1, -1), "ab", (2, -2, 1), (2, 0), (7,)], 2, WordError,
         "letter 0 outside the rank-2 alphabet"),
        ([(1, 2, -2), (0, 1)], 30, WordError, "letter 0 outside the rank-30 alphabet"),
        # A letter out of range that free reduction would cancel.
        ([(1,), "bA", (1, 5, -5, 2), (0,)], 2, WordError, "letter 5 outside the rank-2 alphabet"),
        ([(1,), (1, 31, -31), (0,)], 30, WordError, "letter 31 outside the rank-30 alphabet"),
        # Unhashable and non-integer letters.
        ([(1,), "b", ([1],), (5,)], 2, WordError, "letter [1] outside the rank-2 alphabet"),
        ([(1,), (5,), ([1],)], 2, WordError, "letter 5 outside the rank-2 alphabet"),
        ([(NAN,), "a", (5,)], 2, WordError, "letter nan outside the rank-2 alphabet"),
        ([(_FirstNan("nan"),), "a", (5,)], 2, WordError, "letter nan outside the rank-2 alphabet"),
        ([(1, 2), "a", (2.5,), (7,)], 2, WordError, "letter 2.5 outside the rank-2 alphabet"),
        ([(1, 2), "a", ("a",), (7,)], 2, WordError, "letter 'a' outside the rank-2 alphabet"),
        ([(1, -1), (1.5,)], 2, WordError, "letter 1.5 outside the rank-2 alphabet"),
        ([(1,), 3, (5,)], 2, TypeError, "'int' object is not iterable"),
        ([(5,), 3], 2, WordError, "letter 5 outside the rank-2 alphabet"),
        # A float that a set of the batch's letters merges with an equal int.
        ([(2,), (1, 2.0)], 2, WordError, "letter 2.0 outside the rank-2 alphabet"),
        ([(2,), (1, 2.0)], 12, WordError, "letter 2.0 outside the rank-12 alphabet"),
    ])
    @pytest.mark.parametrize("make", [tuple, list, iter, "mixed"])
    def test_stallings_graph(self, gens, rank, error, message, make):
        for outer in (list, iter):
            with pytest.raises(error) as raised:
                stallings_graph(outer(_given(gens, make)), rank)
            assert type(raised.value) is error and str(raised.value) == message

    @pytest.mark.parametrize("rank, adjacency, error, message", [
        (1, [{1: 0, -1: 0, 2: 0}, {1: 5}], WordError, "letter 2 outside the rank-1 alphabet"),
        (2, [{1: 0, -1: 0, 2: 3}, {2: 1}], ValueError, "edge 0 --2--> 3 leaves the 2-vertex graph"),
        (12, [{1: 0, -1: 0, 9: 3}, {9: 1}], ValueError,
         "edge 0 --9--> 3 leaves the 2-vertex graph"),
        (2, [{1: 1, -1: 1, 2: 1}, {-1: 0, 1: 0}, {}], ValueError,
         "edge 0 --2--> 1 lacks its reverse entry"),
        (12, [{1: 0, -1: 0, 9: 1, -9: 1}, {9: 0, -9: 0, 10: 1}], ValueError,
         "edge 1 --10--> 1 lacks its reverse entry"),
        (2, [{1: 1, -1: 2}, {-1: 0}, {1: 0}], ValueError, "vertex 1 is dangling; graph is not core"),
        (2, [{1: 0, -1: 0}, {2: 1, -2: 1}, {2: 2, -2: 2}], ValueError,
         "graph is not connected from the base vertex"),
        # Targets that are not ints, bools aside.
        (2, [{1: 0, -1: 0, 2: "0"}, {7: 0}], ValueError,
         "edge 0 --2--> '0' leaves the 2-vertex graph"),
        (12, [{1: 0, -1: 0, 9: 1, -9: 1}, {9: 0, -9: 0, 10: "x"}], ValueError,
         "edge 1 --10--> 'x' leaves the 2-vertex graph"),
        (2, [{1: 0, -1: 0, 2: None}, {1: 9}], ValueError,
         "edge 0 --2--> None leaves the 2-vertex graph"),
        (12, [{1: 0, -1: 0, 9: 1, -9: 1}, {9: 0, -9: 0, 10: None}], ValueError,
         "edge 1 --10--> None leaves the 2-vertex graph"),
        (2, [{1: 0, -1: 0, 2: 0.5}, {7: 0}], ValueError,
         "edge 0 --2--> 0.5 leaves the 2-vertex graph"),
        (2, [{1: 1.0, -1: 1}, {-1: 0, 1: 0}], ValueError,
         "edge 0 --1--> 1.0 leaves the 2-vertex graph"),
        (2, [{1: 0, -1: 0, 2: NAN}, {1: 9}], ValueError, "edge 0 --2--> nan leaves the 2-vertex graph"),
        (2, [{1: 0, -1: 0, "a": 0}, {1: 9}], WordError, "letter 'a' outside the rank-2 alphabet"),
        # A float label equal to an int is no letter.
        (2, [{1.0: 1, -1: 1}, {-1: 0, 1: 0}], WordError, "letter 1.0 outside the rank-2 alphabet"),
        # Past rank 8 also behind the int it equals.
        (12, [{1: 1, -1: 1}, {-1: 0, 1.0: 0}], WordError,
         "letter 1.0 outside the rank-12 alphabet"),
    ])
    def test_from_adjacency(self, rank, adjacency, error, message):
        for outer in (list, iter):
            with pytest.raises(error) as raised:
                SubgroupGraph.from_adjacency(rank, outer(adjacency))
            assert type(raised.value) is error and str(raised.value) == message

    def test_from_adjacency_reads_integer_like_labels_and_targets(self):
        # Bools count as ints, as labels and as targets.
        g = stallings_graph(["aa"], 2)
        for adjacency in ([{1: True, -1: 1}, {-1: 0, 1: 0}], [{True: 1, -1: 1}, {-1: 0, 1: 0}]):
            adopted = SubgroupGraph.from_adjacency(2, adjacency)
            assert adopted == g and adopted.export_edge_list() == "0 --a--> 1\n1 --a--> 0"

    @pytest.mark.parametrize("word, error, message", [
        # Letters that cannot be hashed or added fail the letter rule.
        (([1],), WordError, "letter [1] outside the rank-2 alphabet"),
        (({},), WordError, "letter {} outside the rank-2 alphabet"),
        ((1, -1, [1]), WordError, "letter [1] outside the rank-2 alphabet"),
        ((1, [1]), WordError, "letter [1] outside the rank-2 alphabet"),
        (([1], 1), WordError, "letter [1] outside the rank-2 alphabet"),
        (("a",), WordError, "letter 'a' outside the rank-2 alphabet"),
        ((3.5,), WordError, "letter 3.5 outside the rank-2 alphabet"),
        # Non-integer letters that stop the read.
        ((1.5,), WordError, "letter 1.5 outside the rank-2 alphabet"),
        ((1, 1.5), WordError, "letter 1.5 outside the rank-2 alphabet"),
        ((2, NAN, 5), WordError, "letter nan outside the rank-2 alphabet"),
        ((None,), WordError, "letter None outside the rank-2 alphabet"),
        (("x", 1), WordError, "letter 'x' outside the rank-2 alphabet"),
        ((1, "x"), WordError, "letter 'x' outside the rank-2 alphabet"),
    ])
    def test_reads_raise(self, word, error, message):
        g = stallings_graph(["aa", "b"], 2)
        for call in (g.trace, g.contains, g.coset_representative):
            for make in (tuple, list, iter):
                with pytest.raises(error) as raised:
                    call(make(word))
                assert type(raised.value) is error and str(raised.value) == message

    @pytest.mark.parametrize("word, trace, rep", [
        ((1.0, 1.0), 0, ()),
        ((True, -1), 0, ()),
        ((1, 2, True), None, (1, 2, 1)),
    ])
    def test_reads_of_non_integer_letters(self, word, trace, rep):
        # A read that completes takes a letter equal to an int as that int,
        # and a bool counts as an int.
        g = stallings_graph(["aa", "b"], 2)
        for make in (tuple, list, iter):
            assert g.trace(make(word)) == trace
            assert g.contains(make(word)) == (trace == 0)
            assert g.coset_representative(make(word)) == rep


# Bad words in rank 2, each with the place of its first bad letter.
_BAD_WORDS = [((0,), 0), ((3,), 0), ((3, -3), 0), ((1, 3, -3), 1), ((1.5,), 0), ((1, 2.0), 1),
              (("a",), 0), ((1, "a"), 1), ((None,), 0), (([1],), 0), ((2, 2.0, -2.0), 1)]


class TestOneLetterRule:
    """Every door that knows the rank raises one WordError text for a bad
    word, naming its first bad letter as written; reads are held to it
    unless they complete.  DoubleWord, which does not know the rank, raises
    its rank-free text for a letter that is not a nonzero int."""

    @pytest.mark.parametrize("word, at", _BAD_WORDS)
    def test_every_door_names_the_first_bad_letter(self, word, at):
        bad = word[at]
        g = stallings_graph(["aa", "b"], 2)
        doors = [lambda: stallings_graph([word], 2), lambda: Presentation(2, (word,))]
        if type(bad) is not list:  # a list can be no label
            # Loops before the bad letter, so no other fault comes first.
            adjacency = [{s: i, -s: i} if i < at else {s: i} for i, s in enumerate(word)]
            doors.append(lambda: SubgroupGraph.from_adjacency(2, adjacency))
        if _reads_through(g, word):
            int_word = tuple(map(int, word))
            assert g.trace(word) == g.trace(int_word) is not None
            assert g.coset_representative(word) == g.coset_representative(int_word)
        else:
            doors += [lambda: g.trace(word), lambda: g.contains(word),
                      lambda: g.coset_representative(word)]
        if type(bad) is int and bad:
            dbl = Double(g)
            doors += [lambda: dbl.normal_form(DoubleWord(((0, word),))),
                      lambda: dbl.is_fixed(DoubleWord(((1, word),)))]
        else:
            with pytest.raises(WordError) as raised:
                DoubleWord(((0, word),))
            assert str(raised.value) == ("0 is not a letter" if bad == 0 and type(bad) is int
                                         else f"letter {bad!r} is not an integer")
        for door in doors:
            with pytest.raises(WordError) as raised:
                door()
            assert type(raised.value) is WordError
            assert str(raised.value) == f"letter {bad!r} outside the rank-2 alphabet"


class TestSchreier:
    def test_index_three(self):
        # Complete 3-vertex graph over rank 2: a acts as a 3-cycle, b trivially.
        g = permutation_graph([[1, 2, 0], [0, 1, 2]], 2)
        assert g.index() == 3
        assert g.subgroup_rank() == 4
        assert g.schreier_rank_check()

    def test_whole_group_trivial_case(self):
        g = stallings_graph(["a", "b", "c"], 3)
        assert g.index() == 1
        assert g.schreier_rank_check()

    def test_infinite_index_raises(self):
        g = stallings_graph(["a"], 2)
        with pytest.raises(ValueError):
            g.schreier_rank_check()

    def test_schreier_generators_rebuild_same_graph(self):
        # Generators read from tree + non-tree edges fold back to the graph.
        rng = random.Random(13)
        for _ in range(10):
            size = rng.randint(1, 5)
            rank = rng.randint(1, 3)
            try:
                g = permutation_graph(
                    [rng.sample(range(size), size) for _ in range(rank)], rank)
            except ValueError:
                continue
            gens = []
            tree = {0: ()}
            queue = [0]
            for v in queue:
                for s in list(range(1, rank + 1)) + list(range(-1, -rank - 1, -1)):
                    w = g.step(v, s)
                    if w is not None and w not in tree:
                        tree[w] = tree[v] + (s,)
                        queue.append(w)
            for v, s, w in g.edges():
                gens.append(concat(tree[v], (s,), inverse_word(tree[w])))
            rebuilt = stallings_graph([x for x in gens if x], rank)
            assert rebuilt == g
