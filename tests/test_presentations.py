import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from geodouble import presentations
from geodouble.cli import main
from geodouble.construction import family_scheme
from geodouble.freegroups import WordError, inverse_word, word_to_str
from geodouble.freegroups import word_from_str as w
from geodouble.presentations import (
    AbelianInvariants,
    AuditCase,
    AuditError,
    AuditReport,
    AuditStep,
    Presentation,
    abelianization,
    audit_sweep,
    cyclic_reduce,
    enumerate_audit_cases,
    presentation_from_complex,
    rank_audit,
    smith_normal_form,
    surface_rank,
    tietze_simplify,
    MAX_RELATOR_LENGTH,
    _REGIONS,
    _cyclic_canonical,
)
from geodouble.triangulation import GluingError, glue, parse_scheme

from oracles import (
    S3,
    S4,
    _det,
    _det_over_q,
    _rank_over_q,
    chain_h1_rank,
    exponent_matrix,
    hom_count,
    local_smith_exponents,
    minors_invariant_factors,
    naive_cyclic_reduce,
    reference_audit_cases,
    reference_face_words,
    reference_rank_audit,
    reference_tietze,
    reference_validate,
    truncated_exponents,
)


def surface_presentation(genus):
    rel = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        rel.extend([a, b, -a, -b])
    return Presentation(2 * genus, (tuple(rel),))


def random_matrix(rng, max_dim=5, bound=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def dense_matrix(rng, k, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(k)]


def random_unimodular(rng, k):
    """The identity after random row additions and row swaps."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        c = rng.randint(-2, 2)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        u[i], u[j] = u[j], u[i]
    return u


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def assert_divisibility_chain(factors):
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def random_relators(rng, generators, count):
    return [tuple(rng.choice((1, -1)) * rng.randint(1, generators)
                  for _ in range(rng.randint(2, 30))) for _ in range(count)]


class TestPresentationBasics:
    def test_relators_cyclically_reduced(self):
        p = Presentation(2, (w("aabAA"),))
        assert p.relators == ((2,),)

    def test_empty_relators_dropped(self):
        p = Presentation(2, (w("aA"), ()))
        assert p.relators == ()

    def test_letter_range_checked(self):
        with pytest.raises(ValueError):
            Presentation(1, (w("ab"),))

    def test_generators_past_z_are_named(self):
        # Generator 28 used to print as the separator "|".
        assert str(Presentation(28, ((27, 28),))) == (
            "< a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s, t, u, v, w, x, y, z, "
            "[27], [28] | [27][28] >")
        assert str(Presentation(2, (w("abAB"),))) == "< a, b | abAB >"

    def test_cyclic_reduce(self):
        assert cyclic_reduce(w("abA")) == (2,)
        assert cyclic_reduce(w("ab")) == (1, 2)
        assert cyclic_reduce(w("abBA")) == ()
        assert cyclic_reduce(w("aBcbA")) == (3,)
        assert cyclic_reduce(w("aBcBA")) == (-2, 3, -2)
        assert cyclic_reduce(()) == ()

    @given(st.lists(st.sampled_from((1, -1, 2, -2, 3)), max_size=40))
    def test_cyclic_reduce_matches_naive(self, word):
        assert cyclic_reduce(word) == naive_cyclic_reduce(word)
        assert cyclic_reduce(word + [-s for s in reversed(word)]) == ()

    def test_cyclic_reduce_is_linear(self):
        # a^k b A^k: about 0.3 s at k = 10^6 on a 2-vCPU x86 host; stripping
        # one end pair per slice took 6.6 s already at k = 40 000.
        k = 10 ** 6
        word = (1,) * k + (2,) + (-1,) * k
        start = time.perf_counter()
        assert cyclic_reduce(word) == (2,)
        assert Presentation(2, (word, (1, 2) * k)).relators == ((2,), (1, 2) * k)
        assert time.perf_counter() - start < 5.0


class TestPresentationFromComplex:
    def test_family_n4(self):
        p = presentation_from_complex(glue(family_scheme(4)))
        assert p.generator_count == 2
        assert len(p.relators) == 8
        assert all(len(r) == 3 for r in p.relators)

    def test_single_tet_no_pairings_is_free(self):
        c = glue(parse_scheme("tets 1"))
        p = presentation_from_complex(c)
        assert p.generator_count == 3
        assert p.relators == ()

    def test_disconnected_rejected(self):
        text = ("tets 2\n"
                "pair 1.132 1.453\npair 1.264 1.516\n"
                "pair 2.132 2.453\npair 2.264 2.516\n")
        with pytest.raises(GluingError):
            presentation_from_complex(glue(parse_scheme(text)))

    def test_h1rank_cli_on_twenty_generators(self, capsys):
        rng = random.Random(61)
        p = Presentation(20, tuple(random_relators(rng, 20, 20)))
        code = main(["--machine", "pres", "h1rank", "--gens", "20",
                     "--relators", ",".join(word_to_str(r) for r in p.relators)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"h1_rank={20 - _rank_over_q(exponent_matrix(p.relators, 20))}" in out.splitlines()

    def test_h1_rank_matches_chain_complex(self):
        # Independent path: boundary matrices without a spanning tree.
        rng = random.Random(41)
        from test_triangulation import random_closed_scheme
        cases = [glue(family_scheme(4)), glue(family_scheme(5))]
        for _ in range(25):
            c = glue(random_closed_scheme(rng))
            if c.connected and all(ec.orientation_consistent for ec in c.edge_classes):
                cases.append(c)
        for c in cases:
            p = presentation_from_complex(c)
            assert abelianization(p).rank == chain_h1_rank(c)

    def test_column_build_matches_reference_words(self):
        """The presentation equals the checked ``Presentation(...)`` of face
        words an oracle reads off the public columns; many of those words
        hold a tree edge or a cancelling pair that must be reduced away."""
        from test_triangulation import oracle_schemes
        complexes = [glue(family_scheme(n)) for n in (4, 5, 64)]
        complexes += [glue(s) for s in oracle_schemes()]
        built = cancelling = 0
        for c in complexes:
            try:
                p = presentation_from_complex(c)
            except GluingError:
                continue
            count, words = reference_face_words(c)
            assert p == Presentation(count, words)
            built += 1
            cancelling += any(cyclic_reduce(word) != word for word in words)
        assert built > 250 and cancelling > 100

    def test_checked_constructor_still_checks(self):
        with pytest.raises(WordError, match="letter 2 outside the rank-1 alphabet"):
            Presentation(1, ((1, 2),))
        assert Presentation(1, ((1, -1),)).relators == ()

    def test_relator_letters_follow_the_word_letter_rule(self):
        # A float letter in the range is no generator, as in freegroups.
        for relator, bad in (((1.5, 2), 1.5), ((1, 2.0), 2.0)):
            with pytest.raises(WordError) as raised:
                Presentation(2, (relator,))
            assert str(raised.value) == f"letter {bad} outside the rank-2 alphabet"
        assert Presentation(2, ((True, 2),)).relators == ((True, 2),)

    def test_family_n4_first_homology(self):
        # Two generators x, y with abelianized relators (1,2) and (-2,1):
        # determinant 5, so H1 is cyclic of order 5.
        inv = abelianization(presentation_from_complex(glue(family_scheme(4))))
        assert inv.rank == 0
        assert inv.torsion == (5,)


class TestTietze:
    def test_trivial_relator_removes_generator(self):
        p = tietze_simplify(Presentation(2, (w("b"),)))
        assert p.generator_count == 1
        assert p.relators == ()

    def test_single_occurrence_elimination(self):
        p = tietze_simplify(Presentation(2, (w("ab"), w("aabb"))))
        assert p.generator_count == 1

    def test_never_increases_generators(self):
        rng = random.Random(43)
        for _ in range(50):
            gens = rng.randint(1, 4)
            rels = tuple(
                tuple(rng.choice([s for s in range(-gens, gens + 1) if s])
                      for _ in range(rng.randint(0, 6)))
                for _ in range(rng.randint(0, 4)))
            p = Presentation(gens, rels)
            q = tietze_simplify(p)
            assert q.generator_count <= p.generator_count

    def test_preserves_abelianization(self):
        rng = random.Random(47)
        for _ in range(60):
            gens = rng.randint(1, 4)
            rels = tuple(
                tuple(rng.choice([s for s in range(-gens, gens + 1) if s])
                      for _ in range(rng.randint(0, 6)))
                for _ in range(rng.randint(0, 4)))
            p = Presentation(gens, rels)
            q = tietze_simplify(p)
            pa, qa = abelianization(p), abelianization(q)
            assert pa.rank == qa.rank
            assert pa.torsion == qa.torsion

    def test_dedupe_key_is_least_rotation_of_word_or_inverse(self):
        def brute(word):
            return min(v[i:] + v[:i] for v in (word, inverse_word(word))
                       for i in range(len(word) or 1))

        words = [(), w("aA"), w("abBA"), w("aAbB")]  # the last three: own inverse up to rotation
        for length in range(1, 7):
            words += itertools.product((1, -1, 2, -2), repeat=length)
        rng = random.Random(67)
        for _ in range(3000):
            words.append(tuple(rng.choice((1, -1, 2, -2, 3, -3))
                               for _ in range(rng.randint(7, 12))))
        for word in words:
            assert _cyclic_canonical(tuple(word)) == brute(tuple(word)), word

    def test_long_relators_left_alone(self):
        long_rel = tuple([1] + [2] * 20)
        p = Presentation(2, (long_rel,))
        assert tietze_simplify(p).generator_count == 2


def chain_presentation(g):
    """a = b^2, b = c^2, ... with a^2 = 1 on g generators: Tietze leaves
    2^g letters on one generator."""
    return Presentation(g, ((1, 1),) + tuple((-i, i + 1, i + 1) for i in range(1, g)))


def letter_invariant(word):
    letters = tuple(sorted(word))
    return min(letters, tuple(-s for s in reversed(letters)))


class TestTietzeOracle:
    """``tietze_simplify`` against ``reference_tietze``, which keys and
    rewrites every relator in every round.  The inputs are the relators as
    drawn, unreduced and empty ones included, and their ``Presentation``,
    which holds them cyclically reduced and non-empty."""

    @staticmethod
    def seeded_cases():
        rng = random.Random(71)
        for _ in range(3000):
            g = rng.choice((1, 2, 3, 4, 6, 8, 12, 30))
            relators = []
            for _ in range(rng.randint(0, 6)):
                r = tuple(rng.choice((1, -1)) * rng.randint(1, g)
                          for _ in range(rng.randint(1, 24)))
                relators.append(r)
                kind = rng.randrange(5)
                k = rng.randrange(len(r))
                if kind == 0:  # a planted rotation, inverted or not
                    u = r[k:] + r[:k]
                    relators.append(inverse_word(u) if rng.random() < 0.5 else u)
                elif kind == 1:  # an anagram, most often not a rotation
                    relators.append(tuple(rng.sample(r, len(r))))
                elif kind == 2:  # self-cancelling, and empty
                    relators += [r[:k] + inverse_word(r[:k]), ()]
            rng.shuffle(relators)
            yield relators, Presentation(g, tuple(relators))

    def test_matches_reference(self):
        seen = dict.fromkeys(("rotation", "anagram", "long", "empty", "past_z"), 0)
        for relators, p in self.seeded_cases():
            q = tietze_simplify(p)
            assert q == reference_tietze(p), p
            words = [cyclic_reduce(r) for r in relators]
            seen["empty"] += () in words
            seen["long"] += any(len(r) > MAX_RELATOR_LENGTH for r in words)
            seen["past_z"] += p.generator_count > 26 and q.generator_count < p.generator_count
            for u, v in itertools.combinations(filter(None, words), 2):
                if letter_invariant(u) == letter_invariant(v):
                    same = _cyclic_canonical(u) == _cyclic_canonical(v)
                    seen["rotation" if same else "anagram"] += 1
        assert min(seen.values()) > 100, seen

    def test_chain_matches_reference(self):
        for g in range(1, 17):
            p = chain_presentation(g)
            q = tietze_simplify(p)
            assert q == reference_tietze(p)
            assert q.generator_count == 1 and q.relators == ((1,) * 2 ** g,)


class TestHomCounts:
    """Homomorphism counts into S3 and S4, which Tietze moves keep."""

    def test_hand_counts(self):
        assert hom_count(1, [(1,) * 5], S4) == 1  # S4 has no element of order 5
        assert hom_count(2, [], S3) == 36
        assert hom_count(2, [(1, 2, -1, -2)], S3) == 18  # commuting pairs: 6 * 3 classes
        assert hom_count(1, [(1, 1)], S3) == 4

    def test_s4_counts_survive_tietze(self):
        # Three generators, so that an image can hold two others, whose
        # order the counts see and the abelianization does not.
        rng = random.Random(73)
        eliminated = 0
        for _ in range(300):
            relators = tuple(tuple(rng.choice((1, -1)) * rng.randint(1, 3)
                                   for _ in range(rng.randint(3, 8)))
                             for _ in range(rng.randint(2, 3)))
            p = Presentation(3, relators)
            q = tietze_simplify(p)
            assert (hom_count(q.generator_count, q.relators, S4)
                    == hom_count(3, p.relators, S4)), p
            eliminated += q.generator_count < 3
        assert eliminated > 250


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)

    def test_rank_deficient(self):
        assert smith_normal_form([[2, 0], [0, 0]]) == (2,)

    def test_divisibility_chain(self):
        factors = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    def test_empty_and_zero(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == ()
        assert smith_normal_form([[5]]) == (5,)

    def test_matches_minors_oracle(self):
        rng = random.Random(53)
        for _ in range(60):
            m = random_matrix(rng, max_dim=4, bound=5)
            assert smith_normal_form(m) == minors_invariant_factors(m)

    def test_invariant_under_unimodular_moves(self):
        rng = random.Random(59)
        for _ in range(40):
            m = random_matrix(rng, max_dim=4, bound=5)
            factors = smith_normal_form(m)
            rows = len(m)
            for _ in range(6):
                i, j = rng.randrange(rows), rng.randrange(rows)
                if i != j:
                    k = rng.randint(-3, 3)
                    m[i] = [x + k * y for x, y in zip(m[i], m[j])]
            assert smith_normal_form(m) == factors

    def test_degenerate_shapes(self):
        assert smith_normal_form([]) == ()
        assert smith_normal_form([[]]) == ()
        assert smith_normal_form([[0, 0, 0]] * 4) == ()
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])

    @pytest.mark.parametrize("entry", [2.0, 2.7, "3", Fraction(2), math.inf, math.nan])
    def test_entries_that_are_not_ints_are_refused(self, entry):
        for matrix in ([[entry]], [[1, 0], [0, 2]] + [[3, entry]], [[4, 6], (entry, 1)]):
            with pytest.raises(ValueError) as raised:
                smith_normal_form(matrix)
            assert type(raised.value) is ValueError
            assert str(raised.value) == f"matrix entry {entry!r} is not an int"

    def test_bool_entries_count_as_ints(self):
        assert smith_normal_form([[True, False], [False, 2]]) == (1, 2)

    @pytest.mark.parametrize("matrix, factors", [
        ([], ()), ([[]], ()), ([[], []], ()), ([[0, 0, 0]], ()), ([[0, 0]] * 3, ()),
        ([[0, 1, 0], [0, 0, 0], [0, -1, 0]], (1,)),
        ([[0, 2, 0], [0, 4, 6]], (2, 6)),
        ([[0, 3], [0, 0], [0, -6]], (3,)),
        ([[0], [5], [0], [-10]], (5,)),
        ([[2, 0, 0, 0], [0, 0, 0, 0], [1, 0, 3, 0]], (1, 6)),
        ([[0, 0, 4], [0, 0, 6], [0, 0, 0]], (2,)),
    ])
    def test_zero_rows_and_columns(self, matrix, factors):
        assert smith_normal_form(matrix) == factors

    def test_bezout_pivot_that_divides(self):
        # The pivot divides the entries it clears; elimination must not cycle.
        m = [[-1, 0], [-1, 0], [0, 2], [3, 0], [-1, 1]]
        assert smith_normal_form(m) == minors_invariant_factors(m) == (1, 1)

    def test_dense_product_is_determinant(self):
        rng = random.Random(71)
        for k in list(range(1, 13)) + [16, 20, 25, 30]:
            m = dense_matrix(rng, k)
            factors = smith_normal_form(m)
            det = _det_over_q(m)
            if k <= 6:
                assert det == _det(m)
            assert len(factors) == _rank_over_q(m)
            assert_divisibility_chain(factors)
            if det:
                assert math.prod(factors) == abs(det)

    def test_rank_deficient_matches_rank_over_q(self):
        rng = random.Random(73)
        for _ in range(20):
            k, rank = rng.randint(2, 12), rng.randint(0, 6)
            left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(k)]
            right = [[rng.randint(-4, 4) for _ in range(k + 1)] for _ in range(rank)]
            m = matmul(left, right) if rank else [[0] * (k + 1) for _ in range(k)]
            factors = smith_normal_form(m)
            assert len(factors) == _rank_over_q(m) <= rank
            assert_divisibility_chain(factors)
            if k <= 4:
                assert factors == minors_invariant_factors(m)

    def test_unimodular_change_of_basis(self):
        rng = random.Random(79)
        for _ in range(25):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            chain = [1]
            for _ in range(min(rows, cols) - 1):
                chain.append(chain[-1] * rng.choice((1, 1, 2, 3, 6)))
            rank = rng.randint(0, min(rows, cols))
            diag = [[chain[i] if i == j and i < rank else 0 for j in range(cols)]
                    for i in range(rows)]
            m = matmul(matmul(random_unimodular(rng, rows), diag),
                       random_unimodular(rng, cols))
            assert smith_normal_form(m) == tuple(chain[:rank])
            a = dense_matrix(rng, rows)
            moved = matmul(matmul(random_unimodular(rng, rows), a),
                           random_unimodular(rng, rows))
            assert smith_normal_form(moved) == smith_normal_form(a)

    def test_tall_matrices_with_repeated_rows(self):
        rng = random.Random(83)
        for _ in range(5):
            base = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(rng.randint(1, 4))]
            tall = base + [[s * x for x in rng.choice(base)]
                           for s in rng.choices((1, -1, 2, -3), k=2000 - len(base))]
            rng.shuffle(tall)
            assert smith_normal_form(tall) == minors_invariant_factors(base)
            assert len(smith_normal_form(tall)) == _rank_over_q(base)

    def test_dense_stalling_sizes_finish(self):
        # Dense 8x8 and 9x9 with entries in [-9, 9] used to run for minutes.
        rng = random.Random(1)
        for k in (8, 9):
            m = dense_matrix(rng, k)
            factors = smith_normal_form(m)
            assert math.prod(factors) == abs(_det_over_q(m))

    def test_dense_sixty_by_sixty(self):
        m = dense_matrix(random.Random(89), 60)
        start = time.perf_counter()
        factors = smith_normal_form(m)
        assert time.perf_counter() - start < 10.0
        assert len(factors) == 60
        assert_divisibility_chain(factors)
        assert math.prod(factors) == abs(_det_over_q(m))


def planted(rng, rows, cols, diag, moves):
    """diag(d) after ``moves`` random row and as many column additions of
    +-1 times another row or column, rows shuffled: U diag(d) V with U and V
    unimodular, whose invariant factors are the nonzero d when d is a
    divisibility chain."""
    m = [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)]
         for i in range(rows)]
    for _ in range(moves):
        i, j = rng.sample(range(rows), 2)
        c = rng.choice((1, -1))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        i, j = rng.sample(range(cols), 2)
        c = rng.choice((1, -1))
        for row in m:
            row[i] += c * row[j]
    rng.shuffle(m)
    return m


def sparse_unit_matrix(rng, rows, cols, per_row):
    m = [[0] * cols for _ in range(rows)]
    for row in m:
        for j in rng.sample(range(cols), min(per_row, cols)):
            row[j] = rng.choice((1, -1))
    return m


class TestSmithLocalOracle:
    """``smith_normal_form`` against Smith forms over Z/p^e, which share no
    code with it: min(v_p(d_i), e) for each invariant factor d_i."""

    PRIMES = (2, 3, 5, 7)

    def assert_local_forms(self, m, factors, primes=PRIMES, e=4):
        places = min(len(m), len(m[0]))
        for p in primes:
            assert truncated_exponents(factors, places, p, e) == local_smith_exponents(m, p, e)

    def test_local_forms_match_minors(self):
        rng = random.Random(107)
        for _ in range(150):
            m = random_matrix(rng, max_dim=5, bound=12)
            if rng.random() < 0.5:
                m = [[x if rng.random() < 0.4 else 0 for x in row] for row in m]
            factors = minors_invariant_factors(m)
            for e in (1, 2, 5):
                self.assert_local_forms(m, factors, e=e)

    def test_random_sparse_and_dense_matrices(self):
        # 500 sparse +-1 matrices up to 60 x 60 and 500 dense ones: one in
        # twenty of those is drawn up to 60 x 60 and the rest up to 12 x 12,
        # since the dense path costs about (size)^3 big-integer steps.
        rng = random.Random(109)
        for trial in range(1000):
            if trial % 2:
                rows, cols = rng.randint(1, 60), rng.randint(1, 60)
                m = sparse_unit_matrix(rng, rows, cols, rng.randint(1, 4))
            else:
                top = 60 if trial % 40 == 0 else 12
                rows, cols = rng.randint(1, top), rng.randint(1, top)
                m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            factors = smith_normal_form(m)
            assert_divisibility_chain(factors)
            self.assert_local_forms(m, factors, e=rng.randint(1, 6))

    @pytest.mark.parametrize("n", [60, 600])
    def test_planted_factors(self, n):
        rng = random.Random(113 + n)
        chain = [1] * (n - n // 10)
        for _ in range(n // 10):
            chain.append(chain[-1] * rng.choice((1, 2, 3)))
        diag = chain[:n - n // 30] + [0] * (n // 30)
        m = planted(rng, n, n, diag, n)
        factors = smith_normal_form(m)
        assert factors == tuple(d for d in diag if d)
        self.assert_local_forms(m, factors, e=3)

    def test_front_end_leaves_the_factors_unchanged(self, monkeypatch):
        # The same matrices with the unit-pivot front end and without it:
        # presentation, sparse +-1, planted, dense [-9, 9] and unit-free ones.
        rng = random.Random(127)
        matrices = [exponent_matrix(Presentation(g, tuple(random_relators(rng, g, g))).relators, g)
                    for g in (4, 8, 12, 16, 20) for _ in range(20)]
        matrices += [sparse_unit_matrix(rng, rng.randint(1, 40), rng.randint(1, 40), 3)
                     for _ in range(60)]
        matrices += [planted(rng, 30, 25, [1] * 20 + [2, 2, 6], 40) for _ in range(10)]
        matrices += [dense_matrix(rng, k) for k in range(2, 31)]
        for rows, cols in [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(30)]:
            matrices.append([[rng.choice((0, 2, -2, 3, -5, 6, -9)) for _ in range(cols)]
                             for _ in range(rows)])
        with_front_end = [smith_normal_form(m) for m in matrices]
        monkeypatch.setattr("geodouble.presentations._unit_pivots", lambda rows: (0, rows))
        assert [smith_normal_form(m) for m in matrices] == with_front_end

    def test_sparse_probe_scale_guard(self):
        # 604 x 601 with four +-1 entries a row, the shape of the doubled
        # family's relation matrix at n = 100: the dense path alone took
        # about 10 s; the front end clears all but about 80 rows.
        rng = random.Random(131)
        m = sparse_unit_matrix(rng, 604, 601, 4)
        start = time.perf_counter()
        factors = smith_normal_form(m)
        assert time.perf_counter() - start < 2.0
        assert_divisibility_chain(factors)
        self.assert_local_forms(m, factors, (2,), e=2)


class TestAbelianization:
    def test_closed_surface_rank(self):
        for g in (1, 2, 3):
            assert abelianization(surface_presentation(g)).rank == 2 * g

    def test_torsion_only(self):
        inv = abelianization(Presentation(1, (w("aaa"),)))
        assert inv.rank == 0
        assert inv.torsion == (3,)

    def test_free_group(self):
        assert abelianization(Presentation(3, ())).rank == 3

    def test_no_relators_or_no_generators(self):
        assert abelianization(Presentation(3, ())) == AbelianInvariants(3, ())
        assert abelianization(Presentation(0, ())) == AbelianInvariants(0, ())
        assert abelianization(Presentation(0, ((), ()))) == AbelianInvariants(0, ())
        # Relators whose exponent rows are all zero.
        assert abelianization(Presentation(2, (w("abAB"),) * 3)) == AbelianInvariants(2, ())

    def test_repeated_relators_change_nothing(self):
        # Each distinct relator is reduced once; the oracle's matrix keeps every row.
        rng = random.Random(17)
        for _ in range(150):
            gens = rng.randint(1, 3)
            distinct = Presentation(gens, tuple(random_relators(rng, gens, rng.randint(1, 4))))
            rows = distinct.relators
            repeated = Presentation(gens, tuple(rng.choice(rows) for _ in range(3 * len(rows))))
            deduplicated = Presentation(gens, tuple(dict.fromkeys(repeated.relators)))
            inv = abelianization(repeated)
            assert inv == abelianization(deduplicated)
            matrix = exponent_matrix(repeated.relators, gens)
            factors = [f for f in minors_invariant_factors(matrix) if f]
            assert inv.rank == gens - len(factors)
            assert inv.torsion == tuple(f for f in factors if f > 1)

    def test_family_relators_repeat(self):
        p = presentation_from_complex(glue(family_scheme(64)))
        assert len(p.relators) == 128 and len(set(p.relators)) == 2
        assert abelianization(p) == abelianization(Presentation(2, tuple(set(p.relators))))


class TestRankArithmetic:
    def test_surface_rank_values(self):
        assert surface_rank(3, 0, True) == 6
        assert surface_rank(2, 2, True) == 5
        assert surface_rank(3, 0, False) == 3
        assert surface_rank(1, 3, False) == 3

    def test_surface_rank_errors(self):
        with pytest.raises(ValueError):
            surface_rank(-1, 0, True)
        with pytest.raises(ValueError):
            surface_rank(0, 0, False)

    @pytest.mark.parametrize("genus, circles, message", [
        (2.5, 1, "genus 2.5 is not an int"),
        (True, 0, "genus True is not an int"),
        (1.0, -1, "genus 1.0 is not an int"),
        (1, 2.0, "boundary circle count 2.0 is not an int"),
        (-1, False, "boundary circle count False is not an int"),
    ])
    def test_surface_rank_counts_are_plain_ints(self, genus, circles, message):
        for orientable in (True, False):
            with pytest.raises(ValueError) as raised:
                surface_rank(genus, circles, orientable)
            assert type(raised.value) is ValueError and str(raised.value) == message


class TestRankAudit:
    def test_orientable_separating_with_boundary(self):
        # Capped boundary genus g + k/2; bound 2(g + k/2) beats 2g + k - 1.
        report = rank_audit(AuditCase(2, 1, 0, True, True))
        assert report.double_rank_lower_bound == 6
        assert report.surface_group_rank == 5
        assert report.strict and report.margin == 1
        assert report.steps[0].value == Fraction(3)

    def test_orientable_nonseparating_same_component(self):
        report = rank_audit(AuditCase(2, 1, 1, True, False, True))
        # glued component genus 2g + 2m + l - 1 = 6, bound 2g + k = 7.
        assert report.steps[0].value == 6
        assert report.double_rank_lower_bound == 7
        assert report.surface_group_rank == 6
        assert report.strict and report.margin == 1

    def test_orientable_nonseparating_different_components(self):
        report = rank_audit(AuditCase(2, 1, 0, True, False, False))
        # component genus sum 2(g + m) = 6, bound 2g + k + 1 = 7 vs 2g + k - 1.
        assert report.steps[0].value == 6
        assert report.double_rank_lower_bound == 7
        assert report.surface_group_rank == 5
        assert report.margin == 2

    def test_nonorientable_closed(self):
        report = rank_audit(AuditCase(3, 0, 0, False, False))
        # boundary genus g - 1 = 2; rank rounds up past it; bound g + 1 = 4 > g.
        assert report.steps[0].value == 2
        assert report.double_rank_lower_bound == 4
        assert report.surface_group_rank == 3
        assert report.strict and report.margin == 1

    def test_nonorientable_with_boundary(self):
        report = rank_audit(AuditCase(2, 1, 1, False, False))
        # glued genus g - 1 + 2m + l = k + g - 1 = 4, bound g + k = 5.
        assert report.steps[0].value == 4
        assert report.double_rank_lower_bound == 5
        assert report.surface_group_rank == 4

    def test_orientable_separating_closed(self):
        report = rank_audit(AuditCase(3, 0, 0, True, True))
        assert report.double_rank_lower_bound == 8
        assert report.surface_group_rank == 6

    def test_assumed_steps_are_tagged(self):
        report = rank_audit(AuditCase(2, 1, 0, True, True))
        assert any(s.assumed for s in report.steps)
        lines = report.lines()
        assert any("assumed" in line for line in lines)
        assert lines[-1].startswith("final:")

    def test_inconsistent_cases_rejected(self):
        with pytest.raises(AuditError):
            rank_audit(AuditCase(2, 1, 1, True, True))  # separating with l != 0
        with pytest.raises(AuditError):
            rank_audit(AuditCase(2, 0, 0, False, True))  # non-orientable separating
        with pytest.raises(AuditError):
            rank_audit(AuditCase(2, 0, 0, True, False, True))  # same component, k=0
        with pytest.raises(AuditError):
            rank_audit(AuditCase(2, 0, 1, True, False, False))  # single circle, diff comps
        with pytest.raises(AuditError):
            rank_audit(AuditCase(0, 0, 0, False, False))  # non-orientable genus 0

    @pytest.mark.parametrize("fields, message", [
        ((1.5, 0, 0), "genus 1.5 is not an int"),
        ((True, 0, 0), "genus True is not an int"),
        ((2, 1.0, -1), "torus_pairs 1.0 is not an int"),
        ((-1, 0, "1"), "single_circles '1' is not an int"),
    ])
    def test_counts_are_plain_ints(self, fields, message):
        with pytest.raises(AuditError) as raised:
            rank_audit(AuditCase(*fields, True, True))
        assert str(raised.value) == message

    def test_sweep_all_strict(self):
        count = 0
        for case in enumerate_audit_cases(10, 5, 5):
            report = rank_audit(case)
            assert report.strict, case
            count += 1
        assert count > 500

    def test_sweep_respects_constraints(self):
        for case in enumerate_audit_cases(4, 2, 2):
            assert case.boundary_circles == 2 * case.torus_pairs + case.single_circles
            if case.separating:
                assert case.single_circles == 0
            if not case.orientable:
                assert not case.separating and case.genus >= 1


def assert_same_report(report, expected):
    assert report == expected
    assert all(type(s.value) is Fraction for s in report.steps)
    assert type(report.double_rank_lower_bound) is Fraction
    assert type(report.margin) is Fraction
    assert type(report.surface_group_rank) is int


def region(case):
    return (case.orientable, case.separating, case.same_component, case.boundary_circles > 0)


class TestRankAuditTable:
    @pytest.mark.parametrize("box", [(0, 0, 0), (1, 1, 1), (4, 2, 2), (10, 5, 5), (30, 8, 8)])
    def test_matches_case_by_case_chain(self, box):
        cases = list(enumerate_audit_cases(*box))
        assert cases == list(reference_audit_cases(*box))
        for case in cases:
            assert_same_report(rank_audit(case), reference_rank_audit(case))

    @given(st.integers(-3, 40), st.integers(-3, 12), st.integers(-3, 12),
           st.booleans(), st.booleans(), st.booleans())
    def test_any_parameters_match_chain(self, g, m, l, orientable, separating, same):
        case = AuditCase(g, m, l, orientable, separating, same)
        try:
            expected = reference_rank_audit(case)
        except AuditError as exc:
            with pytest.raises(AuditError) as caught:
                rank_audit(case)
            assert str(caught.value) == str(exc)
        else:
            assert_same_report(rank_audit(case), expected)

    def test_validate_matches_reference_texts(self):
        # Flags are read for their truth, so ints stand in for them too.
        def fault(check, case):
            try:
                check(case)
            except AuditError as exc:
                return str(exc)
            return None

        flags = (True, False, 0, 1, 2)
        faults = set()
        for g, m, l in itertools.product(range(-2, 4), repeat=3):
            for orientable, separating, same in itertools.product(flags, repeat=3):
                case = AuditCase(g, m, l, orientable, separating, same)
                expected = fault(reference_validate, case)
                assert fault(AuditCase.validate, case) == expected, case
                faults.add(expected)
        assert len(faults) == 10

    def test_one_constant_margin_per_region(self):
        margins = {}
        for case in enumerate_audit_cases(30, 8, 8):
            margins.setdefault(region(case), set()).add(rank_audit(case).margin)
        assert margins == {
            (True, True, False, True): {1},
            (True, True, False, False): {2},
            (True, False, True, True): {1},
            (True, False, False, True): {2},
            (True, False, False, False): {1},
            (False, False, False, True): {1},
            (False, False, False, False): {1},
        }

    @pytest.mark.parametrize("box", [(0, 0, 0), (0, 0, 3), (0, 2, 0), (3, 0, 0), (1, 1, 1),
                                     (2, 0, 4), (4, 3, 0), (10, 5, 5), (7, 2, 9)])
    def test_case_count_formula(self, box):
        gm, mm, lm = box
        expected = (2 * (gm + 1) * (mm + 1) + (gm + 1) * ((mm + 1) * (lm + 1) - 1)
                    + gm * (mm + 1) * (lm + 1))
        assert sum(1 for _ in enumerate_audit_cases(*box)) == expected

    def test_default_and_large_box_counts(self):
        assert sum(1 for _ in enumerate_audit_cases(10, 5, 5)) == 877
        assert sum(1 for _ in enumerate_audit_cases(80, 20, 20)) == 74322

    @pytest.mark.parametrize("box, name", [((-1, 0, 0), "genus_max"),
                                           ((0, -3, 0), "torus_pairs_max"),
                                           ((2, 2, -1), "single_circles_max")])
    def test_negative_maximum_rejected(self, box, name):
        with pytest.raises(AuditError, match=f"{name} must be >= 0"):
            enumerate_audit_cases(*box)


def _accepts(case):
    try:
        case.validate()
    except AuditError:
        return False
    return True


def audit_cone_faults(box=6):
    """Faults of the audit inequality on the sign cones of (g, m, l).

    A cone fixes which of g, m, l are 0 and which are at least 1; with a
    flag triple (orientable, separating, same_component) it picks one row of
    the region table, whose margin c0 + cg*g + cm*m + cl*l - 2*surface_rank
    is affine there, since k = 2m + l > 0 and the branch of ``surface_rank``
    are constant on the cone.  An affine margin that is positive at the
    cone's least point and takes equal, non-negative steps along each free
    axis is positive at every point of the cone, so checking the cone's
    points with coordinates up to ``box`` covers every parameter.  Returns
    one line per fault, naming the cone and flags; validate rejects every
    negative count."""
    faults = []
    for signs in itertools.product((0, 1), repeat=3):
        points = [p for p in itertools.product(range(box + 1), repeat=3)
                  if all((x > 0) == bool(s) for x, s in zip(p, signs))]
        cone = " ".join(f"{axis}{'>=1' if s else '=0'}" for axis, s in zip("gml", signs))
        for flags in itertools.product((True, False), repeat=3):
            name = f"{cone} (orientable, separating, same_component) = {flags}"
            accepted = {_accepts(AuditCase(*p, *flags)) for p in points}
            if len(accepted) > 1:
                faults.append(f"{name}: validate accepts only part of the cone")
                continue
            if not accepted.pop():
                continue
            margin = {p: rank_audit(AuditCase(*p, *flags)).margin for p in points}
            if margin[signs] <= 0:
                faults.append(f"{name}: margin {margin[signs]} at {signs}")
            for i in (i for i, s in enumerate(signs) if s):
                steps = {margin[(*p[:i], p[i] + 1, *p[i + 1:])] - margin[p]
                         for p in points if p[i] < box}
                if len(steps) > 1:
                    faults.append(f"{name}: unequal margin steps along {'gml'[i]}")
                elif min(steps) < 0:
                    faults.append(f"{name}: margin falls along {'gml'[i]}")
    return faults


class TestAuditForEveryParameter:
    """The final inequality 2*rank(ambient) > rank(surface), for every
    consistent (g, m, l) and flag triple, from the region table's affine
    margins; the bounded sweeps check boxes only."""

    def test_every_cone_is_strict(self):
        assert audit_cone_faults() == []

    def test_a_weaker_index_two_bound_names_its_cones(self, monkeypatch):
        # Dropping the + 2 of the index-2 cover step lowers the bound of the
        # regions that end with it by one, to a zero margin.
        weak = {}
        for region, steps in _REGIONS.items():
            label, (c0, *rest), assumed, strict = steps[-1]
            if label.endswith("(index-2 cover)"):
                steps = steps[:-1] + ((label, (c0 - 2, *rest), assumed, strict),)
            weak[region] = steps
        monkeypatch.setattr(presentations, "_REGIONS", weak)
        faults = audit_cone_faults()
        assert len(faults) == 12 and all(": margin 0 at " in f for f in faults), faults


class TestAuditSweep:
    """``audit_sweep`` checks margins as integers from the region table; it
    must count and judge the cases as the reference chain does."""

    @staticmethod
    def reference_cells(box):
        # Per (g, m, l): the number of consistent cases and whether each
        # reference chain ends strictly.
        cells = {}
        for case in reference_audit_cases(*box):
            key = (case.genus, case.torus_pairs, case.single_circles)
            count, strict = cells.get(key, (0, True))
            cells[key] = count + 1, strict and reference_rank_audit(case).strict
        return cells

    def test_every_box_up_to_12_6_6(self):
        cells = self.reference_cells((12, 6, 6))
        for box in itertools.product(range(13), range(7), range(7)):
            inside = [value for (g, m, l), value in cells.items()
                      if g <= box[0] and m <= box[1] and l <= box[2]]
            expected = sum(c for c, _ in inside), all(s for _, s in inside)
            assert audit_sweep(*box) == expected, box

    @given(st.integers(-2, 16), st.integers(-2, 8), st.integers(-2, 8))
    def test_drawn_boxes(self, g, m, l):
        try:
            cases = list(enumerate_audit_cases(g, m, l))
        except AuditError as exc:
            with pytest.raises(AuditError) as caught:
                audit_sweep(g, m, l)
            assert str(caught.value) == str(exc)
            return
        assert cases == list(reference_audit_cases(g, m, l))
        expected = len(cases), all(reference_rank_audit(c).strict for c in cases)
        assert audit_sweep(g, m, l) == expected

    def test_large_box_scale_guard(self):
        # The case-count formula at 80/20/20.
        assert audit_sweep(80, 20, 20) == (74322, True)

    def test_zero_margin_fails(self, monkeypatch):
        # A bound of 5g in the orientable separating region without circles
        # leaves margin g against 2 * surface rank = 4g: 0 at g = 0 only.
        region = (True, True, False, False)
        steps = _REGIONS[region]
        label, _, assumed, strict = steps[-1]
        monkeypatch.setitem(_REGIONS, region,
                            steps[:-1] + ((label, (0, 5, 0, 0), assumed, strict),))
        margins = [rank_audit(case).margin for case in enumerate_audit_cases(10, 5, 5)]
        assert margins.count(0) == 1 and min(margins) == 0
        assert audit_sweep(10, 5, 5) == (877, False)
        assert audit_sweep(0, 0, 0) == (2, False)


class TestAuditRecords:
    """Equality, hash and repr of the audit records, pinned on three cases of
    the 2/2/2 box: first, sixth and last."""

    CASES = {
        0: ((0, 0, 0, True, True, False),
            "AuditCase(genus=0, torus_pairs=0, single_circles=0, orientable=True, "
            "separating=True, same_component=False)",
            ("twice ambient rank, via rank(double) >= rank(piece)", Fraction(2), True, False),
            3, 0, Fraction(2)),
        5: ((0, 1, 0, True, False, True),
            "AuditCase(genus=0, torus_pairs=1, single_circles=0, orientable=True, "
            "separating=False, same_component=True)",
            ("twice ambient rank >= doubled rank + 1 (index-2 cover)", Fraction(2), False, False),
            5, 1, Fraction(1)),
        59: ((2, 2, 2, False, False, False),
             "AuditCase(genus=2, torus_pairs=2, single_circles=2, orientable=False, "
             "separating=False, same_component=False)",
             ("twice ambient rank >= doubled rank + 1 (index-2 cover)", Fraction(8), False, False),
             5, 7, Fraction(1)),
    }

    @pytest.mark.parametrize("index", sorted(CASES))
    def test_eq_hash_and_repr(self, index):
        fields, case_repr, last, step_count, surface, margin = self.CASES[index]
        case = list(enumerate_audit_cases(2, 2, 2))[index]
        assert case == AuditCase(*fields)
        assert case != AuditCase(*fields[:5], not fields[5])
        assert case != fields
        assert hash(case) == hash(fields)
        assert repr(case) == case_repr

        report = rank_audit(case)
        step = report.steps[-1]
        assert step == AuditStep(*last)
        assert step != AuditStep(*last[:3], not last[3])
        assert hash(step) == hash(last)
        assert repr(step) == (f"AuditStep(label={last[0]!r}, value={last[1]!r}, "
                              f"assumed={last[2]}, strict={last[3]})")

        assert len(report.steps) == step_count
        expected = AuditReport(case, report.steps, last[1], surface, margin)
        assert report == expected
        assert report != AuditReport(case, report.steps, last[1], surface + 1, margin)
        assert hash(report) == hash((case, report.steps, last[1], surface, margin))
        assert repr(report) == (
            f"AuditReport(case={case_repr}, steps=({', '.join(map(repr, report.steps))}), "
            f"double_rank_lower_bound={last[1]!r}, surface_group_rank={surface}, "
            f"margin={margin!r})")
