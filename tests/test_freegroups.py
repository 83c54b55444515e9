import random

import pytest
from hypothesis import given, strategies as st

from geodouble.freegroups import (
    SubgroupGraph,
    WordError,
    concat,
    free_reduce,
    inverse_word,
    stallings_graph,
    word_from_str,
    word_to_str,
)

from oracles import bounded_products, naive_reduce, permutation_graph, permutation_member

letters = st.integers(min_value=-3, max_value=3).filter(lambda s: s != 0)
words = st.lists(letters, max_size=30).map(tuple)


class TestWords:
    def test_parse_roundtrip(self):
        assert word_from_str("abA") == (1, 2, -1)
        assert word_from_str("") == ()
        assert word_from_str("1") == ()
        assert word_to_str((1, 2, -1)) == "abA"
        assert word_to_str(()) == "1"

    def test_parse_rank_check(self):
        with pytest.raises(WordError):
            word_from_str("abc", rank=2)
        with pytest.raises(WordError):
            word_from_str("a b")

    def test_reduce_examples(self):
        assert free_reduce(word_from_str("aA")) == ()
        assert free_reduce(word_from_str("abBa")) == (1, 1)

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
