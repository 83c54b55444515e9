import random
from fractions import Fraction

import pytest

from geodouble.construction import (
    InadmissibleFamilyError,
    family_scheme,
    family_stats,
    is_admissible,
    min_n_for_ratio,
    verify_family,
)
from geodouble.triangulation import (
    FacePairing,
    FaceSlot,
    GluingScheme,
    SchemeError,
    boundary_surfaces,
    glue,
    handle_structure,
)

from oracles import scan_min_n


class TestFamilyScheme:
    def test_n4_shape(self):
        s = family_scheme(4)
        assert s.tet_count == 4
        assert len(s.pairings) == 8
        assert s.is_closed

    def test_divisible_by_three_rejected(self):
        with pytest.raises(InadmissibleFamilyError):
            family_scheme(6)

    def test_small_n_rejected(self):
        with pytest.raises(InadmissibleFamilyError):
            family_scheme(3)
        with pytest.raises(InadmissibleFamilyError):
            family_scheme(0)

    def test_admissibility_predicate(self):
        assert [n for n in range(1, 15) if is_admissible(n)] == [4, 5, 7, 8, 10, 11, 13, 14]

    @pytest.mark.parametrize("n", [4, 5, 7, 100])
    def test_scheme_equals_the_checked_construction(self, n):
        # family_scheme skips the face check; the checking constructor
        # accepts the same pairings and gives an equal scheme.
        scheme = family_scheme(n)
        checked = GluingScheme(n, tuple(reversed(scheme.pairings)))
        assert scheme == checked
        # The pairings of the module docstring, one record each.
        records = [FacePairing(FaceSlot(i, fa), FaceSlot(i % n + 1, fb))
                   for i in range(1, n + 1) for fa, fb in (("132", "453"), ("264", "516"))]
        built = GluingScheme(n, tuple(records))
        assert scheme == built and hash(scheme) == hash(built)
        repeated = scheme.pairings[:-1] + (FacePairing(FaceSlot(1, "132"), FaceSlot(2, "453")),)
        with pytest.raises(SchemeError, match="appears in more than one pairing"):
            GluingScheme(n, repeated)


class TestVerifyFamily:
    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_all_assertions_pass(self, n):
        report = verify_family(n)
        assert report.passed, [c for c in report.checks if not c.ok]

    def test_n4_angle_thirty_degrees(self):
        report = verify_family(4)
        by_name = {c.name: c for c in report.checks}
        assert by_name["dihedral_angle_degrees"].actual == (Fraction(30), Fraction(30))

    def test_n5_boundary_genus(self):
        by_name = {c.name: c for c in verify_family(5).checks}
        assert by_name["boundary_genus"].actual == 4

    def test_n8_valence(self):
        by_name = {c.name: c for c in verify_family(8).checks}
        assert by_name["edge_class_valences"].actual == (24, 24)


class TestFamilyStats:
    def test_n4_ratios(self):
        st = family_stats(4)
        assert st.ratio_closed == Fraction(6, 7)
        assert st.ratio_cusped == Fraction(5, 8)
        assert st.fix_rank_closed == 6
        assert st.rank_upper_closed == 7
        assert st.fix_rank_cusped == 5
        assert st.rank_upper_cusped == 8

    def test_n100_ratio(self):
        assert family_stats(100).ratio_closed == Fraction(198, 103)

    def test_fields_eq_and_repr(self):
        st = family_stats(5)
        assert repr(st) == (
            "FamilyStats(n=5, handlebody_genus=6, boundary_genus=4, rank_upper_closed=8, "
            "fix_rank_closed=8, ratio_closed=Fraction(1, 1), rank_upper_cusped=9, "
            "fix_rank_cusped=7, ratio_cusped=Fraction(7, 9))")
        assert st == family_stats(5) and st != family_stats(7)
        assert hash(st) == hash(family_stats(5))

    def test_ratios_strictly_below_two(self):
        for n in range(4, 500):
            if is_admissible(n):
                st = family_stats(n)
                assert st.ratio_closed < 2
                assert st.ratio_cusped < 2

    def test_ratio_monotone_in_n(self):
        values = [family_stats(n).ratio_closed for n in range(4, 200) if is_admissible(n)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_stats_agree_with_complex(self):
        for n in (4, 5, 7):
            st = family_stats(n)
            c = glue(family_scheme(n))
            genus, handles = handle_structure(c)
            assert genus == st.handlebody_genus
            assert boundary_surfaces(c).components[0].genus == st.boundary_genus
            assert st.rank_upper_closed == genus + handles
            assert st.fix_rank_closed == 2 * st.boundary_genus


class TestMinN:
    def test_epsilon_one(self):
        assert min_n_for_ratio(1) == 7

    def test_epsilon_tenth(self):
        assert min_n_for_ratio(Fraction(1, 10)) == 79
        assert min_n_for_ratio("0.1") == 79

    def test_epsilon_large(self):
        assert min_n_for_ratio(Fraction("1.9")) == 4

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="epsilon '1/0' has a zero denominator"):
            min_n_for_ratio("1/0")

    def test_matches_linear_scan(self):
        # Hand-picked values; seeded draws in (0, 2) with denominators up to
        # 10^4; draws in (4/3, 2), where the scan starts below 4; and
        # eps = 8/(k + 3), where the bound 8/eps - 3 is the integer k.
        rng = random.Random(30)
        drawn = []
        for _ in range(300):
            q = rng.randint(1, 10 ** 4)
            drawn.append(Fraction(rng.randint(1, 2 * q - 1), q))
        for _ in range(100):
            q = rng.randint(1, 10 ** 4)
            drawn.append(Fraction(4, 3) + Fraction(rng.randint(1, 2 * q - 1), 3 * q))
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(3, 7),
                    Fraction(19, 10), Fraction(1, 25), Fraction(1, 100), *drawn,
                    *(Fraction(8, k + 3) for k in range(2, 200))):
            assert min_n_for_ratio(eps) == scan_min_n(eps), eps

    def test_result_is_minimal_admissible(self):
        for eps in (Fraction(1, 3), Fraction(2, 9), Fraction(1, 50)):
            n = min_n_for_ratio(eps)
            assert is_admissible(n)
            assert family_stats(n).ratio_closed > 2 - eps
            smaller = [m for m in range(4, n) if is_admissible(m)]
            assert all(family_stats(m).ratio_closed <= 2 - eps for m in smaller)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            min_n_for_ratio(0)
        with pytest.raises(ValueError):
            min_n_for_ratio(2)
        with pytest.raises(ValueError):
            min_n_for_ratio(-1)
