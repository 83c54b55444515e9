import cmath
import math
import random

import pytest

from geodouble.isometries import (
    INF,
    _commutator,
    CommutingCase,
    ElementClass,
    FixType,
    Isometry,
    chordal,
    classify,
    commute,
    commuting_criterion,
    cross_ratio,
    fix_type_table,
    fixed_points,
)

from oracles import (
    composed_commute,
    make_elliptic,
    make_loxodromic,
    make_parabolic,
    make_pi_rotation,
    random_isometry,
    reference_criterion,
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

    def test_trace_square_past_the_float_range_is_loxodromic(self):
        # tr^2 has finite parts but a modulus past the float range, which
        # abs() refuses with OverflowError; both of its fixed points are found.
        tr = complex(math.sqrt(1.79e308), 1e153)
        g = Isometry(tr, 1, -1, 0)
        assert classify(g) is ElementClass.LOXODROMIC
        p, q = fixed_points(g).points
        assert abs(p + tr) <= 1e-15 * abs(tr) and abs(q + 1 / tr) <= 1e-15 / abs(tr)

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
        assert cmath.isinf(fps.points[0])

    def test_diagonal_fixes_zero_and_infinity(self):
        fps = fixed_points(Isometry(2, 0, 0, 0.5))
        assert fps.kind == "pair"
        assert {abs(fps.points[0]), } == {0.0}
        assert cmath.isinf(fps.points[1])

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

    @pytest.mark.parametrize("entries", [
        (0, 1e200, -1e-200, 0),                         # |c| within tolerance, d = 0
        (0, 1.9080055990185255e281, -0.5, -1.095477e-318),  # d underflows to 0
    ])
    def test_reversing_involution_with_zero_d_is_antipodal(self, entries):
        # z -> (b/c) / conj(z) with b/c < 0: no boundary fixed point, and no
        # division by d = 0 for a line.
        assert fixed_points(Isometry(*entries, reversing=True)).kind == "empty"

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
        g = Isometry(*rows[0], *rows[1])
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

    def test_overflowing_discriminant_with_c_past_half_the_float_range(self):
        # Normalised, c is about -9e307 and 2c overflows; the points are
        # about a/c and -b/(c * a/c), which underflows to 0.
        g = Isometry(1.4922221269149276e154, 1.238198094361662e-308, -1.0003713833242887e308, 0)
        assert math.isinf(abs(2 * g.c))
        z1, z2 = fixed_points(g).points
        assert z1 == pytest.approx(g.a / g.c, rel=1e-12) and z2 == 0


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


def _outcome(call):
    """A call's value, or the type and text of what it raised."""
    try:
        return call()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _bits(entries):
    return [(z.real.hex(), z.imag.hex()) for z in entries]


def _point(rng):
    if rng.random() < 0.1:
        return INF
    return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))


def _axis(rng):
    while True:
        p, q = _point(rng), _point(rng)
        if chordal(p, q) > 0.2:
            return p, q


def _about(rng, p, q):
    """An elliptic, half-turn or loxodromic with axis p..q."""
    kind = rng.randrange(3)
    if kind == 0:
        return make_elliptic(p, q, rng.uniform(0.2, 6))
    if kind == 1:
        return make_pi_rotation(p, q)
    return make_loxodromic(p, q, cmath.rect(rng.uniform(1.2, 4), rng.uniform(0, 6)))


def _oracle_pair(rng, i):
    """The i-th kind of pair: shared axis, shared parabolic point,
    perpendicular half-turns, unrelated, or reversing (for ``commute``)."""
    kind = i % 5
    if kind == 0:
        p, q = _axis(rng)
        return _about(rng, p, q), _about(rng, p, q)
    if kind == 1:
        p = _point(rng)
        other = p if rng.random() < 0.7 else _point(rng)
        return (make_parabolic(p, cmath.rect(rng.uniform(0.3, 2), rng.uniform(0, 6))),
                make_parabolic(other, cmath.rect(rng.uniform(0.3, 2), rng.uniform(0, 6))))
    if kind == 2:
        # 0..infinity and -1..1 meet at right angles; so do their images.
        h = random_isometry(rng)
        ends = [h.apply(z) for z in (0, INF, -1, 1)]
        return make_pi_rotation(*ends[:2]), make_pi_rotation(*ends[2:])
    if kind == 3:
        p, q = _axis(rng)
        return random_isometry(rng), (_about(rng, p, q) if rng.random() < 0.5
                                      else make_parabolic(p))
    return (random_isometry(rng, reversing=rng.random() < 0.5),
            random_isometry(rng, reversing=rng.random() < 0.5))


def _huge(rng):
    """A determinant-1 matrix with one entry of modulus 1e150-1e200."""
    x = cmath.rect(10 ** rng.uniform(150, 200), rng.uniform(0, 6))
    v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    if rng.random() < 0.5:
        return Isometry(x, v, 0, 1 / x, reversing=rng.random() < 0.3)
    return Isometry(v, x, -1 / x, 0, reversing=rng.random() < 0.3)


class TestReferenceOracle:
    """``commute`` and ``commuting_criterion`` against the composed
    commutator and the criterion through the public calls."""

    def test_commutator_and_criterion_match_the_composed_path(self):
        rng = random.Random(34)
        tags = set()
        for i in range(10_000):
            a, b = _oracle_pair(rng, i)
            for g, h in ((a, b), (b, a)):
                entries = _commutator(g, h)
                comm = composed_commute(g, h)
                assert not comm.reversing
                assert _bits(entries) == _bits((comm.a, comm.b, comm.c, comm.d))
            for tol in (1e-9, 1e-6):
                assert commute(a, b, tol) is comm.is_identity(tol)
                want = _outcome(lambda: reference_criterion(a, b, tol))
                assert _outcome(lambda: commuting_criterion(a, b, tol)) == want
                tags.add(want)
        assert set(CommutingCase) <= tags
        assert (ValueError, "criterion applies to orientation-preserving isometries") in tags

    def test_huge_entries_raise_as_the_composed_path_does(self):
        rng = random.Random(35)
        seen = set()
        for _ in range(2_000):
            a, b = _huge(rng), _huge(rng)
            want = _outcome(lambda: composed_commute(a, b))
            got = _outcome(lambda: _commutator(a, b))
            if isinstance(want, Isometry):
                assert _bits(got) == _bits((want.a, want.b, want.c, want.d))
                seen.add("commutator")
            else:
                assert got == want
                seen.add(want)
            assert _outcome(lambda: commute(a, b)) == \
                _outcome(lambda: composed_commute(a, b).is_identity())
            assert _outcome(lambda: commuting_criterion(a, b)) == \
                _outcome(lambda: reference_criterion(a, b))
        assert seen >= {
            "commutator",
            (ValueError, "matrix determinant is not finite: entries too large"),
            (ValueError, "matrix is not invertible"),
        }


class TestToleranceEdges:
    """Each threshold the shared identity and class tests hold, crossed at
    delta = t/2 (inside) and 2t (outside) by det-1 inputs: (+-1, delta; 0,
    +-1), its transpose and (x, -1; 1, 0) normalise exactly, and
    diag(1 + delta, 1/(1 + delta)) to within a rounding."""

    TOLS = (1e-9, 1e-6, 1e-3)

    @pytest.mark.parametrize("t", TOLS)
    @pytest.mark.parametrize("sign", (1, -1))
    def test_identity(self, t, sign):
        for delta, inside in ((t / 2, True), (2 * t, False)):
            near = Isometry(sign, delta, 0, sign)
            assert (near.a, near.b) == (sign, delta)
            assert near.is_identity(t) is inside
            assert commute(near, Isometry(1, 0, 0, 1), t)
            assert (classify(near, t) is ElementClass.IDENTITY) is inside
            assert (fixed_points(near, t).kind == "all") is inside
            assert Isometry(sign, 0, delta, sign).is_identity(t) is inside
            shifted = Isometry(sign + delta, 0, 0, 1 / (sign + delta))
            assert shifted.is_identity(t) is inside
            if inside:
                with pytest.raises(ValueError, match="nontrivial"):
                    commuting_criterion(near, Isometry(1, 1, 0, 1), t)
            else:
                assert classify(near, t) is ElementClass.PARABOLIC
                assert commuting_criterion(near, Isometry(1, 1, 0, 1), t) is \
                    CommutingCase.SHARED_PARABOLIC_POINT

    @pytest.mark.parametrize("t", TOLS)
    def test_parabolic(self, t):
        # (x, -1; 1, 0) has determinant 1 and trace x, so tr^2 - 4 = x^2 - 4.
        for delta, inside in ((t / 2, True), (2 * t, False)):
            above = Isometry(math.sqrt(4 + delta), -1, 1, 0)
            below = Isometry(math.sqrt(4 - delta), -1, 1, 0)
            want = (ElementClass.PARABOLIC if inside else ElementClass.LOXODROMIC,
                    ElementClass.PARABOLIC if inside else ElementClass.ELLIPTIC)
            assert (classify(above, t), classify(below, t)) == want

    @pytest.mark.parametrize("t", TOLS)
    def test_elliptic_band(self, t):
        # tr^2 = 2 + i*delta off the real axis, and tr^2 = -delta below 0.
        for delta, inside in ((t / 2, True), (2 * t, False)):
            want = ElementClass.ELLIPTIC if inside else ElementClass.LOXODROMIC
            off_axis = Isometry(cmath.sqrt(2 + 1j * delta), -1, 1, 0)
            below_zero = Isometry(1j * math.sqrt(delta), -1, 1, 0)
            assert classify(off_axis, t) is want
            assert classify(below_zero, t) is want


class TestIsometryRecord:
    def test_pole_maps_to_infinity(self):
        # z -> -1/z: the denominator c*z + d vanishes at z = 0.
        g = Isometry(0, -1, 1, 0)
        assert g.apply(0) == INF
        assert g.apply(INF) == 0

    def test_repr(self):
        assert repr(Isometry(0, -1, 1, 0)) == "Isometry([[0j, (-1+0j)], [(1+0j), 0j]])"
        assert repr(Isometry(2, 1, 1, 1, reversing=True)) == \
            "Isometry([[(2+0j), (1+0j)], [(1+0j), (1+0j)]], reversing)"


class TestCrossRatio:
    def test_repeated_point_gives_infinity(self):
        # a = d makes the denominator (a, d)(b, c) vanish.
        assert cross_ratio(0, 1, 2, 0) == INF
        assert cross_ratio(INF, 1, 2, INF) == INF

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
            classify(Isometry(1, 1, 0, 1), 0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_every_form_rejects_non_positive_or_non_finite(self, tol):
        g = Isometry(1, 1, 0, 1)
        for call in (lambda: classify(g, tol),
                     lambda: fixed_points(g, tol), lambda: commute(g, g, tol),
                     lambda: g.is_identity(tol)):
            with pytest.raises(ValueError, match="positive finite"):
                call()

    def test_tiny_positive_tolerance_accepted(self):
        assert classify(Isometry(1, 1, 0, 1), 1e-300) is ElementClass.PARABOLIC

    def test_apply_action(self):
        g = Isometry(1, 1, 0, 1)
        assert g.apply(0) == 1
        assert cmath.isinf(g.apply(INF))
        r = Isometry(1, 0, 0, 1, reversing=True)
        assert r.apply(1j) == -1j
