import cmath
import math
import random

import pytest

from geodouble.isometries import (
    INF,
    CommutingCase,
    ElementClass,
    FixType,
    Isometry,
    Tolerance,
    chordal,
    classify,
    commute,
    commuting_criterion,
    cross_ratio,
    fix_type_table,
    fixed_points,
    is_inf,
)

from oracles import (
    make_elliptic,
    make_loxodromic,
    make_parabolic,
    make_pi_rotation,
    random_isometry,
)


class TestClassify:
    def test_parabolic(self):
        assert classify(Isometry(1, 1, 0, 1)) is ElementClass.PARABOLIC

    def test_loxodromic(self):
        assert classify(Isometry(2, 0, 0, 0.5)) is ElementClass.LOXODROMIC

    def test_elliptic(self):
        assert classify(Isometry(1j, 0, 0, -1j)) is ElementClass.ELLIPTIC

    def test_identity(self):
        assert classify(Isometry(1, 0, 0, 1)) is ElementClass.IDENTITY
        assert classify(Isometry(-1, 0, 0, -1)) is ElementClass.IDENTITY

    def test_screw_motion_is_loxodromic(self):
        lam = 1.3 * cmath.exp(0.7j)
        assert classify(Isometry(lam, 0, 0, 1 / lam)) is ElementClass.LOXODROMIC

    def test_determinant_normalisation(self):
        # Same Mobius action, scaled matrix.
        assert classify(Isometry(3, 3, 0, 3)) is ElementClass.PARABOLIC

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            Isometry(1, 1, 1, 1)

    def test_overflowing_determinant_rejected(self):
        # Normalising det = 2e400 would give the zero matrix.
        with pytest.raises(ValueError, match="not finite"):
            Isometry(1e200, 1e200, -1e200, 1e200)

    @pytest.mark.parametrize("entries", [
        (1.5e308 + 1.5e308j, 1, -1, 0),                 # finite parts, modulus past the range
        (1, 0, 1.5e308 - 1.5e308j, 1),
        (1e308, 2e-7, -2e-7, 0),                        # 1e308 / sqrt(4e-14) is infinite
    ])
    def test_overflowing_entry_modulus_rejected(self, entries):
        with pytest.raises(ValueError) as raised:
            Isometry(*entries)
        assert str(raised.value) == "matrix entry modulus is not finite: entries too large"

    def test_overflowing_determinant_modulus_rejected(self):
        with pytest.raises(ValueError) as raised:
            Isometry(1.5e308 + 1.5e308j, 0, 0, 1)
        assert str(raised.value) == "matrix determinant is not finite: entries too large"

    @pytest.mark.parametrize("entries", [
        (1.2e308 + 1.2e308j, 1, -1, 0),                 # modulus 1.7e308, still finite
        (1e308, 1e308, 1e-308, 2e-308),                 # moduli sum past the range
    ])
    def test_largest_finite_moduli_accepted(self, entries):
        g = Isometry(*entries)
        assert not g.is_identity()
        assert max(abs(g.a), abs(g.b), abs(g.c), abs(g.d)) < math.inf

    def test_huge_trace_is_loxodromic(self):
        g = Isometry(1e200, 0, 0, 1e-200)
        assert classify(g) is ElementClass.LOXODROMIC
        assert fixed_points(g).points == (0, INF)

    def test_reversing_rejected(self):
        with pytest.raises(ValueError):
            classify(Isometry(1, 0, 0, 1, reversing=True))

    def test_conjugation_invariance(self):
        rng = random.Random(0)
        samples = [Isometry(1, 1, 0, 1), Isometry(2, 0, 0, 0.5),
                   Isometry(1j, 0, 0, -1j), make_loxodromic(1, -1, 1.5 + 0.2j)]
        for g in samples:
            cls = classify(g)
            for _ in range(20):
                h = random_isometry(rng)
                assert classify(h @ g @ h.inverse(), 1e-7) is cls


class TestFixedPoints:
    def test_translation_fixes_infinity_only(self):
        fps = fixed_points(Isometry(1, 1, 0, 1))
        assert fps.kind == "point"
        assert is_inf(fps.points[0])

    def test_diagonal_fixes_zero_and_infinity(self):
        fps = fixed_points(Isometry(2, 0, 0, 0.5))
        assert fps.kind == "pair"
        assert {abs(fps.points[0]), } == {0.0}
        assert is_inf(fps.points[1])

    def test_identity_fixes_all(self):
        assert fixed_points(Isometry(1, 0, 0, 1)).kind == "all"

    def test_antipodal_has_empty_boundary_set(self):
        # z -> -1/conj(z): |z|^2 = -1 has no solutions; a point reflection.
        anti = Isometry(0, -1, 1, 0, reversing=True)
        assert (anti @ anti).is_identity()
        assert fixed_points(anti).kind == "empty"

    def test_conjugation_map_fixes_real_line(self):
        refl = Isometry(1, 0, 0, 1, reversing=True)
        fps = fixed_points(refl)
        assert fps.kind == "line"
        assert abs(fps.line_point) <= 1e-12
        assert abs(fps.line_direction.imag) <= 1e-12

    def test_unit_circle_inversion(self):
        inv = Isometry(0, 1, 1, 0, reversing=True)
        fps = fixed_points(inv)
        assert fps.kind == "circle"
        assert abs(fps.center) <= 1e-12
        assert abs(fps.radius - 1) <= 1e-12

    def test_non_involution_reversing_rejected(self):
        glide = Isometry(1, 1, 0, 1, reversing=True)  # z -> conj(z) + 1
        with pytest.raises(ValueError):
            fixed_points(glide)

    def test_loxodromic_fixed_points_are_eigen_directions(self):
        # Independent check: eigenvectors of the matrix project to the
        # fixed points on the boundary.
        rng = random.Random(1)
        for _ in range(50):
            p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(p - q) < 0.2:
                continue
            g = make_loxodromic(p, q, 1.7)
            fps = fixed_points(g)
            a, b, c, d = g.a, g.b, g.c, g.d
            tr, det = a + d, a * d - b * c
            for lam_root in (1, -1):
                lam = (tr + lam_root * cmath.sqrt(tr * tr - 4 * det)) / 2
                # eigenvector (x, y) with (a - lam) x + b y = 0
                if abs(b) > 1e-9:
                    z = b / (lam - a)
                elif abs(lam - d) > 1e-9:
                    z = (lam - d) / c
                else:
                    z = INF
                assert min(chordal(z, w) for w in fps.points) < 1e-6

    def test_involution_dichotomy(self):
        # Every reversing involution is exactly one of: point reflection
        # (empty boundary set) or plane reflection (circle/line).
        rng = random.Random(2)
        for _ in range(100):
            h = random_isometry(rng)
            base = Isometry(0, -1, 1, 0, True) if rng.random() < 0.5 \
                else Isometry(1, 0, 0, 1, True)
            g = h @ base @ h.inverse()
            assert (g @ g).is_identity(1e-7)
            fps = fixed_points(g, 1e-7)
            assert fps.kind in ("empty", "circle", "line")

    def test_chordal_distance_of_far_points(self):
        # 1 + |p|^2 overflows for |p| = 1e160; the distance itself does not.
        assert chordal(1e160j, INF) == pytest.approx(2e-160)
        assert chordal(1e160j, 0) == pytest.approx(2)
        assert chordal(1e160, 2e160) == pytest.approx(2 * 1e160 / (1e160 * 2e160))

    @pytest.mark.parametrize("p, q, expected", [
        (1e308, -1e308, 4e-308),
        (-1e308, 1e308, 4e-308),
        (1e308 * (1 + 1j), -1e308 * (1 + 1j), 2 * math.sqrt(2) * 1e-308),
        (1e308 * (1 + 1j), 1e308, math.sqrt(2) * 1e-308),
        (1.7e308, -1e307, 2 * (1 / 1.7e308 + 1 / 1e307)),
        (1e308 * (1 + 1j), -0.5e308 * (1 + 1j), 3 * math.sqrt(2) * 1e-308),
    ])
    def test_chordal_distance_when_the_plain_formula_overflows(self, p, q, expected):
        # 2|p - q| overflows, or |p - q| does and raises, and the product of
        # the two norms overflows.
        try:
            plain = 2 * abs(p - q) / (math.hypot(1, abs(p)) * math.hypot(1, abs(q)))
        except OverflowError:
            plain = math.nan
        assert math.isnan(plain)
        assert chordal(p, q) == pytest.approx(expected, rel=1e-6, abs=0)
        assert chordal(q, p) == chordal(p, q)

    @pytest.mark.parametrize("rows, far_first", [
        (((1e160, 1), (-1, 0)), True),
        (((-1e160, 1), (-1, 0)), False),
        (((1e160j, 1), (-1, 0)), True),
        (((-1e160j, 1), (-1, 0)), False),
        (((1e160, 1e5), (-1e-5, 0)), True),
        (((3e200 + 1e200j, 2), (0.5j, 1e-200)), True),
        (((1e308, 1), (-1, 0)), True),
    ])
    def test_overflowing_discriminant_gives_both_points(self, rows, far_first):
        # (d - a)^2 overflows, though the points are finite.  They still
        # sum to (a - d)/c and multiply to -b/c, in the order the finite
        # formula gives the same matrix with 1e160 or 1e200 scaled to 1e10.
        g = Isometry.from_rows(rows)
        a, b, c, d = g.a, g.b, g.c, g.d
        assert not cmath.isfinite((d - a) * (d - a))
        fps = fixed_points(g)
        assert fps.kind == "pair"
        z1, z2 = fps.points
        assert cmath.isfinite(z1) and cmath.isfinite(z2)
        assert abs((z1 + z2) - (a - d) / c) <= 1e-12 * abs((a - d) / c)
        assert abs(z1 * z2 + b / c) <= 1e-12 * abs(b / c)
        assert (abs(z1) > abs(z2)) == far_first

    def test_fixed_point_past_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="fixed points out of floating-point range"):
            fixed_points(Isometry(1e308, 1e5, -1e-5, 0))


class TestCommute:
    def test_diagonal_pair(self):
        assert commute(Isometry(2, 0, 0, 0.5), Isometry(3, 0, 0, 1 / 3))

    def test_parabolic_pair_sharing_infinity(self):
        assert commute(Isometry(1, 1, 0, 1), Isometry(1, 1j, 0, 1))

    def test_pi_rotation_pair(self):
        # Half-turns about the axes 0..infinity and i..-i; the product check
        # gives commutator -identity, which is the identity in the quotient.
        a = Isometry(1j, 0, 0, -1j)
        b = Isometry(0, 1, -1, 0)
        assert commute(a, b)
        assert commuting_criterion(a, b) is CommutingCase.PERPENDICULAR_PI_ROTATIONS

    def test_generic_pair_fails(self):
        assert not commute(Isometry(1, 1, 0, 1), Isometry(2, 0, 0, 0.5))

    def test_reversing_flags_compose(self):
        r = Isometry(1, 0, 0, 1, reversing=True)
        t = Isometry(1, 1, 0, 1)
        # conj then translate-by-1 commutes with conj (real translation).
        assert commute(r, t)
        ti = Isometry(1, 1j, 0, 1)
        assert not commute(r, ti)


class TestCommutingCriterion:
    def test_shared_axis_loxodromics(self):
        a = make_loxodromic(2, -1j, 1.5)
        b = make_loxodromic(2, -1j, 0.3 + 1j)
        assert commuting_criterion(a, b) is CommutingCase.SHARED_AXIS
        assert commute(a, b, 1e-7)

    def test_shared_axis_mixed_elliptic_loxodromic(self):
        a = make_loxodromic(1, -1, 2.0)
        b = make_elliptic(1, -1, 1.0)
        assert commuting_criterion(a, b) is CommutingCase.SHARED_AXIS

    def test_same_axis_pi_rotations_report_shared_axis(self):
        a = make_pi_rotation(0, INF)
        b = make_pi_rotation(0, INF)
        assert commuting_criterion(a, b) is CommutingCase.SHARED_AXIS

    def test_shared_axis_with_endpoints_near_infinity(self):
        # Fixed points -1e308, -1e-308 and 1e-308, 1e308: both axes run from
        # about 0 to about infinity.  |1e308 - (-1e308)| overflows, and the
        # chordal distance must still read about 4e-308, not nan.
        a = Isometry(1e308, 1, -1, 0)
        b = Isometry(-1e308, 1, -1, 0)
        pa, pb = fixed_points(a).points, fixed_points(b).points
        assert chordal(pa[0], pb[1]) == pytest.approx(4e-308, rel=1e-6, abs=0)
        assert commuting_criterion(a, b) is CommutingCase.SHARED_AXIS
        assert commuting_criterion(b, a) is CommutingCase.SHARED_AXIS

    def test_shared_parabolic_point(self):
        a = make_parabolic(2 + 1j, 1)
        b = make_parabolic(2 + 1j, -3 + 0.5j)
        assert commuting_criterion(a, b) is CommutingCase.SHARED_PARABOLIC_POINT
        assert commute(a, b, 1e-7)

    def test_parabolics_different_points(self):
        a = make_parabolic(0, 1)
        b = make_parabolic(1, 1)
        assert commuting_criterion(a, b) is CommutingCase.NONE
        assert not commute(a, b)

    def test_mixed_parabolic_loxodromic_sharing_point(self):
        a = make_parabolic(INF, 1)
        b = Isometry(2, 0, 0, 0.5)  # fixes 0 and infinity
        assert commuting_criterion(a, b) is CommutingCase.NONE
        assert not commute(a, b)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            commuting_criterion(Isometry(1, 0, 0, 1), Isometry(1, 1, 0, 1))

    def test_conjugated_perpendicular_pair(self):
        rng = random.Random(3)
        for _ in range(50):
            h = random_isometry(rng)
            a = h @ Isometry(1j, 0, 0, -1j) @ h.inverse()
            b = h @ Isometry(0, 1, -1, 0) @ h.inverse()
            assert commute(a, b, 1e-6)
            assert commuting_criterion(a, b, 1e-6) is \
                CommutingCase.PERPENDICULAR_PI_ROTATIONS

    def test_iff_property_on_samples(self):
        rng = random.Random(4)
        hits = 0
        for _ in range(300):
            a, b = random_isometry(rng), random_isometry(rng)
            if a.is_identity(1e-6) or b.is_identity(1e-6):
                continue
            tag = commuting_criterion(a, b, 1e-6)
            if commute(a, b, 1e-6) != (tag is not CommutingCase.NONE):
                hits += 1
        assert hits == 0


class TestCrossRatio:
    def test_perpendicular_axes_give_minus_one(self):
        assert abs(cross_ratio(0, INF, 1j, -1j) + 1) < 1e-12
        assert abs(cross_ratio(1, -1, 1j, -1j) + 1) < 1e-12

    def test_mobius_invariance(self):
        rng = random.Random(5)
        pts = [0.3 + 1j, -2, 5j, 1.25]
        base = cross_ratio(*pts)
        for _ in range(20):
            h = random_isometry(rng)
            moved = [h.apply(p) for p in pts]
            assert abs(cross_ratio(*moved) - base) < 1e-7


class TestFixTypeTable:
    def test_preserving_closed(self):
        assert fix_type_table(True, False, True) == \
            frozenset({FixType.CYCLIC, FixType.WHOLE_GROUP})
        assert fix_type_table(True, True, True) == \
            frozenset({FixType.CYCLIC, FixType.WHOLE_GROUP})

    def test_preserving_cusped(self):
        assert fix_type_table(True, False, False) == frozenset(
            {FixType.TRIVIAL, FixType.CYCLIC, FixType.RANK_TWO_ABELIAN,
             FixType.WHOLE_GROUP})

    def test_reversing_nonsquare_identity(self):
        for closed in (True, False):
            assert fix_type_table(False, False, closed) == \
                frozenset({FixType.TRIVIAL, FixType.CYCLIC})

    def test_reversing_involution(self):
        for closed in (True, False):
            assert fix_type_table(False, True, closed) == \
                frozenset({FixType.TRIVIAL, FixType.SURFACE})


class TestTolerance:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Tolerance(0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_every_form_rejects_non_positive_or_non_finite(self, tol):
        g = Isometry(1, 1, 0, 1)
        for call in (lambda: Tolerance(tol), lambda: classify(g, tol),
                     lambda: fixed_points(g, tol), lambda: commute(g, g, tol),
                     lambda: g.is_identity(tol)):
            with pytest.raises(ValueError, match="positive finite"):
                call()

    def test_tiny_positive_tolerance_accepted(self):
        assert classify(Isometry(1, 1, 0, 1), 1e-300) is ElementClass.PARABOLIC
        assert Tolerance(1e-300).tol == 1e-300

    def test_tolerance_object_accepted(self):
        assert classify(Isometry(1, 1, 0, 1), Tolerance(1e-6)) is ElementClass.PARABOLIC

    def test_apply_action(self):
        g = Isometry(1, 1, 0, 1)
        assert g.apply(0) == 1
        assert is_inf(g.apply(INF))
        r = Isometry(1, 0, 0, 1, reversing=True)
        assert r.apply(1j) == -1j
