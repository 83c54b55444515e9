import gc
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from geodouble import doubling
from geodouble.doubling import (
    PRIMED,
    UNPRIMED,
    Double,
    DoubleWord,
    NormalForm,
    random_double_word,
)
from geodouble.freegroups import SubgroupGraph, WordError, concat, inverse_word, word_from_str

from oracles import (
    leftward_normal_form,
    permutation_graph,
    project_leftward,
    reference_normal_form,
)


@pytest.fixture
def dbl():
    return Double.from_generators(["aa", "b", "abA"], 2)


def random_subgroup(rng, max_gens=4, max_len=6):
    rank = rng.choice([2, 3])
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        w = tuple(rng.choice([s for s in range(-rank, rank + 1) if s])
                  for _ in range(rng.randint(1, max_len)))
        gens.append(w)
    return Double.from_generators(gens, rank), rank


def schreier_double(rng, index, rank=2):
    """Double over the base-point stabiliser of a random transitive action."""
    while True:
        perms = [rng.sample(range(index), index) for _ in range(rank)]
        try:
            return Double(permutation_graph(perms, rank))
        except ValueError:  # not transitive
            continue


def splice_subgroup_words(rng, dbl, dword, rank):
    """Insert subgroup elements, on random sides, between the syllables."""
    syllables = []
    for syllable in dword.syllables:
        syllables.append(syllable)
        if rng.random() < 0.5:
            h = random_double_word(rng, rank, dbl.subgroup, max_syllables=2, in_subgroup=True)
            syllables.extend(h.syllables)
    return DoubleWord(tuple(syllables))


class TestDoubleWordParsing:
    def test_parse(self):
        w = DoubleWord.from_str("u:abA p:bb u:a")
        assert w.syllables == ((UNPRIMED, (1, 2, -1)), (PRIMED, (2, 2)), (UNPRIMED, (1,)))
        assert str(w) == "u:abA p:bb u:a"

    def test_parse_rejects_bad_side(self):
        with pytest.raises(ValueError):
            DoubleWord.from_str("x:ab")

    def test_empty_word(self):
        assert str(DoubleWord(())) == "1"

    def test_syllables_stored_as_given_tuples(self):
        w = DoubleWord(((UNPRIMED, [1, -1, 2]), (PRIMED, iter((2, 2)))))
        assert w.syllables == ((UNPRIMED, (1, -1, 2)), (PRIMED, (2, 2)))

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.sampled_from([0, 1, False, True]),
                              st.lists(st.integers().filter(bool), max_size=6),
                              st.sampled_from([tuple, list]))),
           st.sampled_from([tuple, list, iter]))
    def test_every_given_form_is_stored_as_tuples(self, drawn, given_as):
        syllables = [(side, word_as(word)) for side, word, word_as in drawn]
        assert DoubleWord(given_as(syllables)).syllables == tuple(
            (side, tuple(word)) for side, word in syllables)

    @pytest.mark.parametrize("word", [(0,), (1, 0), [2, -2, 0, 1], iter((1, 0))])
    def test_zero_letter_raises(self, word):
        with pytest.raises(WordError) as raised:
            DoubleWord(((UNPRIMED, (1,)), (PRIMED, word)))
        assert str(raised.value) == "0 is not a letter"

    @pytest.mark.parametrize("word, message", [
        (("a",), "letter 'a' is not an integer"),
        ((1.5,), "letter 1.5 is not an integer"),
        ("ab", "letter 'a' is not an integer"),
        ((1, 2, "B"), "letter 'B' is not an integer"),
        ((1, 2.0), "letter 2.0 is not an integer"),
    ])
    def test_non_integer_letter_raises_at_construction(self, word, message):
        with pytest.raises(WordError) as raised:
            DoubleWord(((UNPRIMED, (1,)), (PRIMED, word)))
        assert str(raised.value) == message

    def test_bool_letters_count_as_ints(self, dbl):
        w = DoubleWord(((UNPRIMED, (True, 2)), (PRIMED, (-True,))))
        assert dbl.normal_form(w) == dbl.normal_form(DoubleWord.from_str("u:ab p:A"))


class TestRandomDoubleWord:
    @pytest.mark.parametrize("rank, message", [
        (0, "rank must be at least 1, got 0"),
        (-1, "rank must be >= 0"),
        (1.5, "rank 1.5 is not an int"),
        (True, "rank True is not an int"),
    ])
    def test_rank_is_checked(self, rank, message):
        with pytest.raises(ValueError) as raised:
            random_double_word(random.Random(0), rank)
        assert type(raised.value) is ValueError and str(raised.value) == message

    def test_rank_one(self):
        w = random_double_word(random.Random(0), 1, max_syllables=3)
        assert w.syllables and all(abs(s) == 1 for _, word in w.syllables for s in word)


class TestFirstFault:
    """A word with several faults reports the first one a syllable-by-syllable
    scan meets: in each syllable its side, then its first letter that is not
    a nonzero int; ``normal_form`` and ``is_fixed`` then name the first letter
    outside the rank."""

    @pytest.mark.parametrize("syllables, error, message", [
        # A bad side in syllable 2 behind a zero letter in syllable 1.
        (((0, (1, 0)), (2, (1,))), WordError, "0 is not a letter"),
        (((2, (1,)), (0, (1, 0))), ValueError, "side must be 0 or 1, got 2"),
        # A non-integer ahead of or behind a zero in the same syllable.
        (((0, ("a", 0)),), WordError, "letter 'a' is not an integer"),
        (((0, (0, 1.5)),), WordError, "0 is not a letter"),
        # A bad side ahead of a bad letter, in one syllable and across two.
        (((5, (0,)),), ValueError, "side must be 0 or 1, got 5"),
        (((0, (1,)), (-1, (2,)), (1, ("x",))), ValueError, "side must be 0 or 1, got -1"),
        (((0, (2.0,)), (7, (1,))), WordError, "letter 2.0 is not an integer"),
        ((([0], (1,)),), ValueError, "side must be 0 or 1, got [0]"),
        (((3, 5),), ValueError, "side must be 0 or 1, got 3"),
        (((0, (1,)), (1, 5)), TypeError, "'int' object is not iterable"),
        (((0, (1,), 2),), ValueError, "too many values to unpack (expected 2)"),
    ])
    def test_double_word(self, syllables, error, message):
        for given in (syllables, list(syllables), iter(syllables)):
            with pytest.raises(error) as raised:
                DoubleWord(given)
            assert type(raised.value) is error and str(raised.value) == message

    @pytest.mark.parametrize("syllables, name", [
        (((0, (1, 3)), (1, (-4,))), "c"),
        (((0, (1, 4, 3)), (1, (-3,))), "d"),
        (((0, (1,)), (1, (2, -3)), (0, (5,))), "C"),
        (((0, (1,)), (1, (1, -1, 3))), "c"),
        (((0, (40,)),), "[40]"),
        (((0, (1,)), (1, (2, -27))), "[-27]"),
    ])
    def test_letter_outside_the_rank(self, syllables, name):
        # The letter is named as the word holds it, an int, not by its string name.
        [bad] = word_from_str(name)
        dbl = Double.from_generators(["aa", "b"], 2)
        for run in (dbl.normal_form, dbl.is_fixed):
            with pytest.raises(WordError) as raised:
                run(DoubleWord(syllables))
            assert str(raised.value) == f"letter {bad} outside the rank-2 alphabet"


class TestNormalForm:
    def test_subgroup_element_has_no_syllables(self, dbl):
        nf = dbl.normal_form(DoubleWord.from_str("u:aa"))
        assert nf.syllable_count == 0
        assert nf.tail == word_from_str("aa")

    def test_primed_subgroup_element_same(self, dbl):
        # H is shared, so the primed copy of a subgroup word is the same element.
        nf_u = dbl.normal_form(DoubleWord.from_str("u:b"))
        nf_p = dbl.normal_form(DoubleWord.from_str("p:b"))
        assert nf_u == nf_p

    def test_single_nonsubgroup_syllable(self, dbl):
        nf = dbl.normal_form(DoubleWord.from_str("u:a"))
        assert nf.syllable_count == 1
        side, rep = nf.syllables[0]
        assert side == UNPRIMED
        # rep * tail reassembles the element and the tail lies in H
        assert concat(rep, nf.tail) == (1,)
        assert dbl.subgroup.contains(nf.tail)
        assert not dbl.subgroup.contains(rep)

    def test_empty_word_is_identity(self, dbl):
        nf = dbl.normal_form(DoubleWord(()))
        assert nf == NormalForm((), ())

    def test_alternating_sides(self, dbl):
        rng = random.Random(2)
        for _ in range(300):
            w = random_double_word(rng, 2, dbl.subgroup)
            nf = dbl.normal_form(w)
            sides = [s for s, _ in nf.syllables]
            assert all(a != b for a, b in zip(sides, sides[1:]))
            assert dbl.subgroup.contains(nf.tail)
            for _, word in nf.syllables:
                assert word and not dbl.subgroup.contains(word)

    def test_projection_preserved(self, dbl):
        # The fold onto one copy is a homomorphism, so it must agree on the
        # input and its normal form.
        rng = random.Random(3)
        for _ in range(300):
            w = random_double_word(rng, 2, dbl.subgroup)
            nf = dbl.normal_form(w)
            assert dbl.project(w) == dbl.project(dbl.nf_as_element(nf))

    def test_invariant_under_h_transfer(self, dbl):
        # Moving a subgroup element across a syllable boundary does not
        # change the element, so the normal form must not change either.
        rng = random.Random(4)
        hwords = [word_from_str(x) for x in ("aa", "b", "abA")]
        for _ in range(200):
            w = random_double_word(rng, 2, dbl.subgroup, max_syllables=4)
            if len(w.syllables) < 2:
                continue
            i = rng.randrange(len(w.syllables) - 1)
            h = rng.choice(hwords)
            if rng.random() < 0.5:
                h = inverse_word(h)
            syls = list(w.syllables)
            s1, w1 = syls[i]
            s2, w2 = syls[i + 1]
            syls[i] = (s1, concat(w1, h))
            syls[i + 1] = (s2, concat(inverse_word(h), w2))
            assert dbl.normal_form(DoubleWord(tuple(syls))) == dbl.normal_form(w)

    def test_same_side_merge(self, dbl):
        w1 = DoubleWord.from_str("u:a u:a")
        w2 = DoubleWord.from_str("u:aa")
        assert dbl.normal_form(w1) == dbl.normal_form(w2)

    def test_product_well_defined_on_elements(self, dbl):
        rng = random.Random(5)
        hwords = [word_from_str(x) for x in ("aa", "b", "abA")]
        for _ in range(100):
            w = random_double_word(rng, 2, dbl.subgroup, max_syllables=3)
            v = random_double_word(rng, 2, dbl.subgroup, max_syllables=3)
            # Rewrite w by an H-transfer, then multiply: same product NF.
            if len(w.syllables) >= 2:
                h = rng.choice(hwords)
                syls = list(w.syllables)
                syls[0] = (syls[0][0], concat(syls[0][1], h))
                syls[1] = (syls[1][0], concat(inverse_word(h), syls[1][1]))
                w2 = DoubleWord(tuple(syls))
            else:
                w2 = w
            prod1 = DoubleWord(w.syllables + v.syllables)
            prod2 = DoubleWord(w2.syllables + v.syllables)
            assert dbl.normal_form(prod1) == dbl.normal_form(prod2)


class TestSwap:
    def test_involution(self, dbl):
        rng = random.Random(6)
        for _ in range(100):
            w = random_double_word(rng, 2, dbl.subgroup)
            assert dbl.swap(dbl.swap(w)) == w

    def test_fixes_subgroup_elements(self, dbl):
        for text in ("u:aa", "u:b", "p:abA", "u:aab"):
            w = DoubleWord.from_str(text)
            if dbl.subgroup.contains(w.syllables[0][1]):
                assert dbl.normal_form(dbl.swap(w)) == dbl.normal_form(w)

    def test_single_letter_swaps_side(self, dbl):
        w = DoubleWord.from_str("u:a")
        assert dbl.swap(w) == DoubleWord.from_str("p:a")

    def test_normal_form_commutes_with_side_flip(self, dbl):
        rng = random.Random(7)
        for _ in range(300):
            w = random_double_word(rng, 2, dbl.subgroup)
            nf = dbl.normal_form(w)
            flipped = NormalForm(tuple((1 - s, x) for s, x in nf.syllables), nf.tail)
            assert dbl.normal_form(dbl.swap(w)) == flipped

    def test_swap_is_homomorphism_on_normal_forms(self, dbl):
        rng = random.Random(8)
        for _ in range(100):
            w = random_double_word(rng, 2, dbl.subgroup, max_syllables=3)
            v = random_double_word(rng, 2, dbl.subgroup, max_syllables=3)
            prod = DoubleWord(w.syllables + v.syllables)
            swapped_prod = DoubleWord(dbl.swap(w).syllables + dbl.swap(v).syllables)
            assert dbl.normal_form(dbl.swap(prod)) == dbl.normal_form(swapped_prod)


class TestIsFixed:
    def test_subgroup_fixed(self, dbl):
        assert dbl.is_fixed(DoubleWord.from_str("u:aa"))
        assert dbl.is_fixed(DoubleWord.from_str("p:b"))

    def test_nonsubgroup_not_fixed(self, dbl):
        assert not dbl.is_fixed(DoubleWord.from_str("u:a"))
        assert not dbl.is_fixed(DoubleWord.from_str("u:a p:ab u:A"))

    def test_conjugate_of_subgroup_word_by_shared_element_is_fixed(self, dbl):
        # The middle syllable b lies in H, so the element collapses to
        # a b a^-1, a generator of H, and the swap fixes it.
        assert dbl.is_fixed(DoubleWord.from_str("u:a p:b u:A"))

    def test_fixed_iff_zero_syllables(self, dbl):
        rng = random.Random(9)
        for _ in range(500):
            w = random_double_word(rng, 2, dbl.subgroup,
                                   in_subgroup=rng.random() < 0.4)
            assert dbl.is_fixed(w) == (dbl.normal_form(w).syllable_count == 0)


class TestIsFixedRunsPassOneOnly:
    """``is_fixed`` answers from the syllable-reduction pass; with the split
    pass made to raise it must still give the right answer."""

    @staticmethod
    def refuse_split(monkeypatch):
        def refuse(self, stack):
            raise AssertionError("is_fixed ran the split pass")

        monkeypatch.setattr(Double, "_split", refuse)

    def test_random_words_match_normal_form(self, dbl, monkeypatch):
        rng = random.Random(15)
        words = [random_double_word(rng, 2, dbl.subgroup, in_subgroup=rng.random() < 0.4)
                 for _ in range(200)]
        expected = [dbl.normal_form(w).syllable_count == 0 for w in words]
        assert True in expected and False in expected
        self.refuse_split(monkeypatch)
        assert [dbl.is_fixed(w) for w in words] == expected

    def test_long_words_on_infinite_index(self, monkeypatch):
        self.refuse_split(monkeypatch)
        dbl = Double.from_generators(["a", "bAB"], 2)
        k = 4000
        # u:a^k, then k syllables alternating p:B and u:b.
        word = DoubleWord(((UNPRIMED, (1,) * k),) + tuple(
            (PRIMED, (-2,)) if i % 2 == 0 else (UNPRIMED, (2,)) for i in range(k)))
        assert not dbl.is_fixed(word)
        assert dbl.is_fixed(DoubleWord(((UNPRIMED, (1,) * k),)))

    def test_raises_the_normal_form_word_error(self, dbl, monkeypatch):
        # The inputs of TestLettersOutsideRank.
        rng = random.Random(13)
        syllables = tuple((i % 2, (rng.choice([1, 2, -1, -2]),)) for i in range(60))
        cases = [(dbl, DoubleWord(syllables + ((1, (letter, 2)),))) for letter in (3, -3)]
        cases.append((schreier_double(random.Random(14), 16), DoubleWord(((0, (1, 3)), (1, (2,))))))
        cases.append((Double.from_generators([], 3), DoubleWord(((0, (4,)),))))
        messages = []
        for double, word in cases:
            with pytest.raises(WordError) as raised:
                double.normal_form(word)
            messages.append(str(raised.value))
        assert messages == [f"letter {s} outside the rank-{k} alphabet"
                            for s, k in ((3, 2), (-3, 2), (3, 2), (4, 3))]
        self.refuse_split(monkeypatch)
        for (double, word), message in zip(cases, messages):
            with pytest.raises(WordError) as raised:
                double.is_fixed(word)
            assert str(raised.value) == message


class TestSharedFirstPass:
    """``normal_form`` then ``is_fixed`` on one object reduces the syllables
    once; any other order or object reduces again and agrees with the
    reference normal form."""

    @staticmethod
    def count_reduce(monkeypatch):
        calls = []
        real_reduce = Double._reduce

        def counting_reduce(self, dword):
            calls.append(dword)
            return real_reduce(self, dword)

        monkeypatch.setattr(Double, "_reduce", counting_reduce)
        return calls

    @staticmethod
    def fixed_by_definition(dbl, dword):
        return reference_normal_form(dbl, dword) == reference_normal_form(dbl, dbl.swap(dword))

    def test_normal_form_then_is_fixed_reduces_once(self, monkeypatch):
        calls = self.count_reduce(monkeypatch)
        rng = random.Random(40)
        for dbl in (Double.from_generators(["aa", "b", "abA"], 2), schreier_double(rng, 16)):
            for _ in range(60):
                w = random_double_word(rng, 2, dbl.subgroup, in_subgroup=rng.random() < 0.4)
                del calls[:]
                nf = dbl.normal_form(w)
                fixed = dbl.is_fixed(w)
                assert calls == [w]
                assert fixed == (nf.syllable_count == 0) == self.fixed_by_definition(dbl, w)
                assert dbl.is_fixed(w) == fixed and len(calls) == 1

    def test_other_orders_and_objects_reduce_again(self, dbl, monkeypatch):
        calls = self.count_reduce(monkeypatch)
        rng = random.Random(41)
        for _ in range(100):
            w = random_double_word(rng, 2, dbl.subgroup, in_subgroup=rng.random() < 0.4)
            twin = DoubleWord(w.syllables)
            expected = self.fixed_by_definition(dbl, w)
            del calls[:]
            assert dbl.is_fixed(w) == expected  # before any normal form
            dbl.normal_form(w)
            assert dbl.is_fixed(twin) == expected  # equal, but another object
            assert len(calls) == 3
            # The last normal form was of w, not of the twin.
            assert dbl.is_fixed(twin) == expected and len(calls) == 4

    def test_after_a_word_error(self, dbl):
        # One word in H and one outside it, so a stale answer would show.
        for text in ("u:aa", "u:a p:b"):
            good = DoubleWord.from_str(text)
            bad = DoubleWord(((0, (1, 3)),))
            dbl.normal_form(good)
            with pytest.raises(WordError, match="letter 3 outside"):
                dbl.normal_form(bad)
            with pytest.raises(WordError, match="letter 3 outside"):
                dbl.is_fixed(bad)
            assert dbl.is_fixed(good) == self.fixed_by_definition(dbl, good)
            assert dbl.is_fixed(DoubleWord.from_str(text)) == self.fixed_by_definition(dbl, good)

    def test_memo_holds_the_word_weakly(self, dbl):
        w = DoubleWord.from_str("u:a p:b u:A")
        dbl.normal_form(w)
        ref, in_h = dbl._last_in_h
        assert ref() is w and in_h
        del w
        gc.collect()
        assert ref() is None
        assert dbl.is_fixed(DoubleWord.from_str("u:a p:b u:A"))

    def test_subgroup_is_read_only(self, dbl):
        # Odd in a, so outside <aa, b, abA>, but inside the whole group: a
        # memo kept across a change of subgroup would answer wrongly.
        w = DoubleWord.from_str("u:a p:b u:A p:a")
        graph = dbl.subgroup
        assert dbl.normal_form(w).syllable_count > 0
        with pytest.raises(AttributeError):
            dbl.subgroup = SubgroupGraph.from_generators(["a", "b"], 2)
        assert dbl.subgroup is graph and dbl.rank == 2
        assert not dbl.is_fixed(w)


class TestLeftwardOracle:
    def test_agrees_on_syllable_count_and_membership(self):
        rng = random.Random(10)
        for _ in range(20):
            dbl, rank = random_subgroup(rng)
            for _ in range(100):
                w = random_double_word(rng, rank, dbl.subgroup,
                                       in_subgroup=rng.random() < 0.3)
                nf = dbl.normal_form(w)
                head, syls = leftward_normal_form(dbl, w)
                assert len(syls) == nf.syllable_count
                assert (len(syls) == 0) == (nf.syllable_count == 0)
                assert dbl.subgroup.contains(head)
                assert project_leftward(dbl, head, syls) == dbl.project(w)

    def test_whole_group_subgroup_everything_fixed(self):
        dbl = Double.from_generators(["a", "b"], 2)
        rng = random.Random(12)
        for _ in range(50):
            w = random_double_word(rng, 2, dbl.subgroup)
            assert dbl.is_fixed(w)
            assert dbl.normal_form(w).syllable_count == 0

    def test_trivial_subgroup(self):
        dbl = Double.from_generators([], 2)
        assert not dbl.is_fixed(DoubleWord.from_str("u:a"))
        assert dbl.is_fixed(DoubleWord(()))
        nf = dbl.normal_form(DoubleWord.from_str("u:a p:a"))
        assert nf.syllable_count == 2
        assert nf.tail == ()


class TestLettersOutsideRank:
    @pytest.mark.parametrize("letter", [3, -3])
    def test_raises_word_error_naming_the_letter(self, dbl, letter):
        rng = random.Random(13)
        syllables = tuple((i % 2, (rng.choice([1, 2, -1, -2]),)) for i in range(60))
        word = DoubleWord(syllables + ((1, (letter, 2)),))
        with pytest.raises(WordError, match=f"letter {letter} outside"):
            dbl.normal_form(word)

    def test_raises_on_finite_index_and_in_the_first_syllable(self):
        dbl = schreier_double(random.Random(14), 16)
        with pytest.raises(WordError, match="letter 3 outside"):
            dbl.normal_form(DoubleWord(((0, (1, 3)), (1, (2,)))))
        with pytest.raises(WordError, match="letter 4 outside"):
            Double.from_generators([], 3).normal_form(DoubleWord(((0, (4,)),)))


class TestReferenceOracle:
    """Exact agreement with the direct quadratic rewrite, on every class of
    input, and ``is_fixed`` against the definition of fixedness: the
    reference normal forms of w and swap(w) agree."""

    @staticmethod
    def check(dbl, dword):
        nf = dbl.normal_form(dword)
        reference = reference_normal_form(dbl, dword)
        assert nf == reference
        assert dbl.is_fixed(dword) == (nf.syllable_count == 0)
        assert dbl.is_fixed(dword) == (reference == reference_normal_form(dbl, dbl.swap(dword)))

    def test_random_subgroups_rank_1_to_3(self):
        rng = random.Random(20)
        for _ in range(30):
            rank = rng.randint(1, 3)
            gens = [tuple(rng.choice([s for s in range(-rank, rank + 1) if s])
                          for _ in range(rng.randint(1, 6)))
                    for _ in range(rng.randint(1, 4))]
            dbl = Double.from_generators(gens, rank)
            for _ in range(40):
                self.check(dbl, random_double_word(rng, rank, dbl.subgroup, max_syllables=12,
                                                   in_subgroup=rng.random() < 0.3))

    @pytest.mark.parametrize("index", [2, 3, 5, 16, 40])
    def test_schreier_subgroups(self, index):
        rng = random.Random(index)
        for _ in range(3):
            dbl = schreier_double(rng, index, rank=rng.choice([2, 3]))
            rank = dbl.rank
            for _ in range(30):
                self.check(dbl, random_double_word(rng, rank, dbl.subgroup, max_syllables=20,
                                                   in_subgroup=rng.random() < 0.3))

    @pytest.mark.parametrize("gens", [["a", "b"], [], ["aa", "b", "abA"]])
    def test_whole_trivial_and_index_two(self, gens):
        rng = random.Random(21)
        dbl = Double.from_generators(gens, 2)
        for _ in range(150):
            self.check(dbl, random_double_word(rng, 2, dbl.subgroup, max_syllables=15,
                                               in_subgroup=rng.random() < 0.3))

    def test_subgroup_words_spliced_between_syllables(self):
        rng = random.Random(22)
        doubles = [Double.from_generators(["aa", "b", "abA"], 2),
                   Double.from_generators(["ab", "bbA"], 2),
                   schreier_double(rng, 5), schreier_double(rng, 16)]
        for dbl in doubles:
            for _ in range(60):
                w = random_double_word(rng, 2, dbl.subgroup, max_syllables=10)
                self.check(dbl, splice_subgroup_words(rng, dbl, w, 2))

    @staticmethod
    def check_switch(dbl, dword):
        """``normal_form`` equals the reference with the coset table carried
        (TABLE_FACTOR 0 and 2) and never used (a factor no word reaches)."""
        reference = reference_normal_form(dbl, dword)
        with pytest.MonkeyPatch.context() as mp:
            for factor in (0, 2, 10 ** 9):
                mp.setattr(doubling, "TABLE_FACTOR", factor)
                assert dbl.normal_form(dword) == reference, factor
        # At 2 the pass-1 stack had more than 2 * V letters, so the table
        # was carried.
        letters = sum(len(word) for _, word, _ in dbl._reduce(dword))
        assert letters > 2 * dbl.subgroup.vertex_count

    def test_long_words_switch_to_the_action_table(self):
        # Tails of 50-400 syllables outgrow 2 * V on index 2-16.
        rng = random.Random(23)
        doubles = [Double.from_generators(["aa", "b", "abA"], 2),
                   schreier_double(rng, 3), schreier_double(rng, 16)]
        for dbl in doubles:
            for length in (50, 120, 400):
                word = DoubleWord(tuple(
                    (i % 2, tuple(rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(1, 3))))
                    for i in range(length)))
                self.check_switch(dbl, word)
                self.check(dbl, word)

    def test_infinite_index_worst_case(self):
        # H = <a, bAB>, u:a^k then alternating p:B, u:b: every syllable
        # reads the whole a^k part of the tail again (the quadratic case).
        dbl = Double.from_generators(["a", "bAB"], 2)
        k = 300
        word = DoubleWord(((UNPRIMED, (1,) * k),) + tuple(
            (PRIMED, (-2,)) if i % 2 == 0 else (UNPRIMED, (2,)) for i in range(k)))
        nf = dbl.normal_form(word)
        assert nf.syllable_count == k and len(nf.tail) == k
        self.check(dbl, word)

    @pytest.mark.parametrize("index, length", [(16, 60), (16, 300), (1024, 1500)])
    def test_words_crossing_the_table_switch(self, index, length):
        rng = random.Random(index + length)
        dbl = schreier_double(rng, index)
        word = DoubleWord(tuple(
            (i % 2, tuple(rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(1, 3))))
            for i in range(length)))
        self.check_switch(dbl, word)

    @pytest.mark.parametrize("rank", [9, 10, 11, 12])
    def test_wide_alphabet_action_table(self, rank):
        # Past rank 8 the graph keeps dict columns, and words of 40 or more
        # syllables carry the action, which reads whole columns.
        rng = random.Random(rank + 25)
        alphabet = [s for s in range(-rank, rank + 1) if s]
        for index in (4, 8):
            dbl = schreier_double(rng, index, rank)
            for _ in range(5):
                word = DoubleWord(tuple(
                    (i % 2, tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3))))
                    for i in range(rng.randint(40, 80))))
                self.check_switch(dbl, word)
                self.check(dbl, word)

    def test_index_1024_short_words(self):
        rng = random.Random(24)
        dbl = schreier_double(rng, 1024)
        for length in (8, 32, 64):
            for _ in range(2):
                self.check(dbl, random_double_word(rng, 2, None, max_syllables=length))


class TestScaling:
    """5000 syllables stay well under the quadratic cost of the direct
    rewrite (several seconds); 300 syllables agree with the leftward form."""

    @staticmethod
    def long_word(rng, length):
        return DoubleWord(tuple(
            (i % 2 if rng.random() < 0.8 else rng.randint(0, 1),
             tuple(rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(1, 3))))
            for i in range(length)))

    @pytest.mark.parametrize("make", [
        lambda rng: schreier_double(rng, 16),
        lambda rng: Double.from_generators(["aa", "b", "abA"], 2),
    ], ids=["index16", "aa_b_abA"])
    def test_5000_syllables_under_two_seconds(self, make):
        rng = random.Random(30)
        dbl = make(rng)
        word = self.long_word(rng, 5000)
        start = time.perf_counter()
        nf = dbl.normal_form(word)
        assert time.perf_counter() - start < 2.0
        assert dbl.subgroup.contains(nf.tail)
        assert dbl.project(word) == dbl.project(dbl.nf_as_element(nf))

        short = self.long_word(rng, 300)
        nf = dbl.normal_form(short)
        head, syls = leftward_normal_form(dbl, short)
        assert len(syls) == nf.syllable_count
        assert dbl.subgroup.contains(nf.tail)
        assert project_leftward(dbl, head, syls) == dbl.project(short)
        assert dbl.project(dbl.nf_as_element(nf)) == dbl.project(short)
