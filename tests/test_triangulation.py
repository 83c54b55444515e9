import random
from fractions import Fraction

import pytest

from geodouble.construction import family_scheme
from geodouble.presentations import presentation_from_complex
from geodouble.triangulation import (
    EDGE_ENDS,
    FACES,
    FACE_SIGN,
    FACE_WALK_SIGNS,
    FacePairing,
    FaceSlot,
    GluingError,
    GluingScheme,
    SchemeError,
    boundary_surfaces,
    dihedral_admissible,
    dihedral_report,
    glue,
    handle_structure,
    parse_scheme,
    render_scheme,
)

from oracles import brute_link_orientable, brute_orientable, flood_identifications

IDENTITY_DOUBLE = """tets 2
pair 1.132 2.132
pair 1.453 2.453
pair 1.264 2.264
pair 1.516 2.516
"""

CROSSED_DOUBLE = """tets 2
pair 1.132 2.132
pair 1.453 2.453
pair 1.264 2.516
pair 1.516 2.264
"""

# Found by random search; its unique vertex class has a non-orientable link.
NONORIENTABLE_LINK = """tets 3
pair 1.132 3.264 edgeorder 4 2 6
pair 1.264 1.453 edgeorder 3 4 5
pair 1.516 2.132 edgeorder 2 1 3
pair 2.264 2.516 edgeorder 1 6 5
pair 2.453 3.453 edgeorder 3 4 5
pair 3.132 3.516 edgeorder 6 5 1
"""


# Edge 1 of the single tetrahedron is identified with its own reverse.
SELF_REVERSED_EDGE = """tets 1
pair 1.132 1.516 edgeorder 1 6 5
pair 1.264 1.453
"""


def random_closed_scheme(rng, max_tets=3):
    while True:
        tets = rng.randint(1, max_tets)
        slots = [(t, f) for t in range(1, tets + 1) for f in FACES]
        rng.shuffle(slots)
        pairings = []
        try:
            while len(slots) >= 2:
                a, b = slots.pop(), slots.pop()
                pairings.append(FacePairing(FaceSlot(*a), FaceSlot(*b),
                                            rng.randint(0, 2)))
            return GluingScheme(tets, tuple(pairings))
        except SchemeError:
            continue


def assert_glue_matches_flood(scheme):
    """Compare glue's identification data with the flood-fill oracle;
    return the number of orientation-inconsistent edge classes."""
    c = glue(scheme, require_closed=False)
    edges, verts, comps = flood_identifications(scheme)
    assert [ec.orientation_consistent for ec in c.edge_classes] == \
           [consistent for _, consistent in edges]
    assert len(c.edge_lookup) == 6 * scheme.tet_count
    for idx, (ec, (members, consistent)) in enumerate(zip(c.edge_classes, edges)):
        # Member signs are only defined up to a choice in a class that is
        # glued to itself reversed; compare the members alone there.
        if consistent:
            assert ec.members == members
        else:
            assert [m[:2] for m in ec.members] == [m[:2] for m in members]
        for t, e, s in members:
            cls, sign = c.edge_lookup[(t, e)]
            assert cls == idx and (sign == s or not consistent)
    assert c.vertex_classes == tuple(verts)
    assert c.vertex_lookup == {v: i for i, vc in enumerate(verts) for v in vc}
    assert c.tet_components == tuple(comps)
    assert c.orientable == brute_orientable(scheme)
    return sum(1 for _, consistent in edges if not consistent)


class TestModelConstants:
    def test_every_edge_in_two_faces(self):
        counts = {e: 0 for e in EDGE_ENDS}
        for edges in FACES.values():
            for e in edges:
                counts[e] += 1
        assert all(c == 2 for c in counts.values())

    def test_faces_are_triangles(self):
        for name, edges in FACES.items():
            verts = set()
            for e in edges:
                verts.update(EDGE_ENDS[e])
            assert len(verts) == 3, name

    def test_opposite_edge_pairs_share_no_vertex(self):
        for e, f in ((1, 4), (2, 5), (3, 6)):
            assert not set(EDGE_ENDS[e]) & set(EDGE_ENDS[f])

    def test_face_signs_split_two_and_two(self):
        assert FACE_SIGN["132"] == FACE_SIGN["516"]
        assert FACE_SIGN["453"] == FACE_SIGN["264"]
        assert FACE_SIGN["132"] == -FACE_SIGN["453"]

    def test_family_pairings_preserve_arrows(self):
        # The two family pairings match walk signs positionally, so directed
        # edges glue to directed edges.
        assert FACE_WALK_SIGNS["132"] == FACE_WALK_SIGNS["453"]
        assert FACE_WALK_SIGNS["264"] == FACE_WALK_SIGNS["516"]


class TestParsing:
    def test_smallest_wellformed_input(self):
        scheme = parse_scheme("tets 1\npair 1.132 1.453\n")
        assert scheme.tet_count == 1
        assert len(scheme.pairings) == 1
        assert not scheme.is_closed

    def test_comments_and_blank_lines(self):
        text = "# header\n\ntets 1\n# note\npair 1.132 1.453  # trailing\n"
        assert len(parse_scheme(text).pairings) == 1

    def test_roundtrip_family_scheme(self):
        s = family_scheme(4)
        assert parse_scheme(render_scheme(s)) == s

    def test_roundtrip_with_edgeorder(self):
        s = parse_scheme(NONORIENTABLE_LINK)
        assert parse_scheme(render_scheme(s)) == s

    def test_render_is_canonical(self):
        a = parse_scheme("tets 2\npair 2.453 1.132\npair 1.264 2.516\n")
        b = parse_scheme("tets 2\npair 1.264 2.516\npair 1.132 2.453\n")
        assert render_scheme(a) == render_scheme(b)
        assert a == b

    def test_duplicate_slot_rejected(self):
        text = "tets 2\npair 1.132 2.132\npair 1.132 2.453\n"
        with pytest.raises(SchemeError, match="more than one pairing"):
            parse_scheme(text)

    def test_self_pairing_rejected(self):
        with pytest.raises(SchemeError, match="itself"):
            parse_scheme("tets 1\npair 1.132 1.132\n")

    def test_zero_tets_rejected(self):
        with pytest.raises(SchemeError):
            parse_scheme("tets 0\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(SchemeError, match="line 2"):
            parse_scheme("tets 1\npair 1.132\n")

    def test_unknown_face_rejected(self):
        with pytest.raises(SchemeError, match="unknown face"):
            parse_scheme("tets 1\npair 1.123 1.453\n")

    def test_out_of_range_tet_rejected(self):
        with pytest.raises(SchemeError, match="beyond tet count"):
            parse_scheme("tets 1\npair 1.132 2.453\n")

    def test_non_cyclic_edgeorder_rejected(self):
        with pytest.raises(SchemeError, match="cyclic"):
            parse_scheme("tets 1\npair 1.132 1.453 edgeorder 4 3 5\n")


class TestGlue:
    def test_family_n4_counts(self):
        c = glue(family_scheme(4))
        assert len(c.edge_classes) == 2
        assert sorted(ec.valence for ec in c.edge_classes) == [12, 12]
        assert c.vertex_class_count == 1
        assert c.orientable

    def test_family_n5_counts(self):
        c = glue(family_scheme(5))
        assert len(c.edge_classes) == 2
        assert c.vertex_class_count == 1
        assert c.orientable

    def test_identity_double_is_orientable(self):
        # Two tetrahedra glued along their whole boundaries by the identity:
        # the double of a ball.  Confirmed against the exhaustive oracle.
        scheme = parse_scheme(IDENTITY_DOUBLE)
        c = glue(scheme)
        assert brute_orientable(scheme) is True
        assert c.orientable is True
        assert c.vertex_class_count == 4
        assert [ec.valence for ec in c.edge_classes] == [2] * 6

    def test_crossed_double_is_nonorientable(self):
        scheme = parse_scheme(CROSSED_DOUBLE)
        assert brute_orientable(scheme) is False
        assert glue(scheme).orientable is False

    def test_single_tet_mixed_signs_nonorientable(self):
        scheme = parse_scheme("tets 1\npair 1.132 1.516\npair 1.453 1.264\n")
        assert brute_orientable(scheme) is False
        assert glue(scheme).orientable is False

    def test_orientability_matches_oracle_on_random_schemes(self):
        rng = random.Random(17)
        for _ in range(150):
            scheme = random_closed_scheme(rng)
            assert glue(scheme).orientable == brute_orientable(scheme)

    def test_identifications_match_flood_fill_oracle(self):
        rng = random.Random(37)
        inconsistent = 0
        for i in range(150):
            scheme = random_closed_scheme(rng, max_tets=6)
            if i % 2:
                scheme = GluingScheme(scheme.tet_count, tuple(
                    p for p in scheme.pairings if rng.random() < 0.6))
            inconsistent += assert_glue_matches_flood(scheme)
        assert inconsistent > 0

    def test_edge_glued_to_itself_reversed(self):
        scheme = parse_scheme(SELF_REVERSED_EDGE)
        c = glue(scheme)
        assert c.edge_classes[0].members == ((1, 1, 1),)
        assert not c.edge_classes[0].orientation_consistent
        assert assert_glue_matches_flood(scheme) > 0
        with pytest.raises(GluingError, match="reversed"):
            presentation_from_complex(c)

    def test_open_scheme_rejected_by_default(self):
        scheme = parse_scheme("tets 1\npair 1.132 1.453\n")
        with pytest.raises(GluingError, match="not closed"):
            glue(scheme)
        c = glue(scheme, require_closed=False)
        assert not c.closed

    def test_edge_classes_partition(self):
        rng = random.Random(19)
        for _ in range(50):
            scheme = random_closed_scheme(rng)
            c = glue(scheme)
            members = [m[:2] for ec in c.edge_classes for m in ec.members]
            assert len(members) == 6 * scheme.tet_count
            assert len(set(members)) == len(members)
            assert sum(ec.valence for ec in c.edge_classes) == 6 * scheme.tet_count
            vmembers = [v for vc in c.vertex_classes for v in vc]
            assert len(set(vmembers)) == 4 * scheme.tet_count

    def test_relabeling_invariance(self):
        rng = random.Random(29)
        for _ in range(25):
            scheme = random_closed_scheme(rng)
            perm = list(range(1, scheme.tet_count + 1))
            rng.shuffle(perm)
            mapping = {i + 1: perm[i] for i in range(scheme.tet_count)}
            relabeled = GluingScheme(scheme.tet_count, tuple(
                FacePairing(FaceSlot(mapping[p.a.tet], p.a.face),
                            FaceSlot(mapping[p.b.tet], p.b.face), p.rotation)
                for p in scheme.pairings))
            c1, c2 = glue(scheme), glue(relabeled)
            assert c1.orientable == c2.orientable
            assert sorted(ec.valence for ec in c1.edge_classes) == \
                   sorted(ec.valence for ec in c2.edge_classes)
            assert c1.vertex_class_count == c2.vertex_class_count

    def test_glue_deterministic(self):
        s = family_scheme(5)
        c1, c2 = glue(s), glue(s)
        assert [ec.members for ec in c1.edge_classes] == \
               [ec.members for ec in c2.edge_classes]
        assert c1.vertex_classes == c2.vertex_classes


class TestBoundarySurfaces:
    def test_family_n4_genus(self):
        stats = boundary_surfaces(glue(family_scheme(4)))
        assert len(stats.components) == 1
        comp = stats.components[0]
        assert comp.orientable
        assert comp.genus == 3
        assert comp.triangle_count == 16
        assert comp.edge_count == 24

    def test_family_n7_genus(self):
        stats = boundary_surfaces(glue(family_scheme(7)))
        assert stats.components[0].genus == 6
        assert stats.components[0].orientable

    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    def test_family_face_and_edge_counts(self, n):
        # Triangles come one per tetrahedron vertex, sides glue in pairs.
        stats = boundary_surfaces(glue(family_scheme(n)))
        assert stats.total_triangles == 4 * n
        assert sum(c.edge_count for c in stats.components) == (3 * 4 * n) // 2 == 6 * n

    def test_identity_double_links_are_spheres(self):
        stats = boundary_surfaces(glue(parse_scheme(IDENTITY_DOUBLE)))
        assert len(stats.components) == 4
        for comp in stats.components:
            assert comp.euler_characteristic == 2
            assert comp.orientable
            assert comp.genus == 0

    def test_nonorientable_link_example(self):
        c = glue(parse_scheme(NONORIENTABLE_LINK))
        stats = boundary_surfaces(c)
        assert len(stats.components) == 1
        comp = stats.components[0]
        assert brute_link_orientable(c, 0) is False
        assert comp.orientable is False
        assert comp.euler_characteristic == -2
        assert comp.genus == 4

    def test_link_orientability_matches_oracle(self):
        rng = random.Random(31)
        for _ in range(60):
            scheme = random_closed_scheme(rng)
            c = glue(scheme)
            stats = boundary_surfaces(c)
            for comp in stats.components:
                assert comp.orientable == brute_link_orientable(c, comp.vertex_class)

    def test_orientable_components_have_even_euler(self):
        rng = random.Random(37)
        for _ in range(60):
            c = glue(random_closed_scheme(rng))
            for comp in boundary_surfaces(c).components:
                if comp.orientable:
                    assert comp.euler_characteristic % 2 == 0

    def test_open_scheme_rejected(self):
        c = glue(parse_scheme("tets 1\npair 1.132 1.453\n"), require_closed=False)
        with pytest.raises(GluingError):
            boundary_surfaces(c)


class TestDihedral:
    def test_admissibility_rule(self):
        assert not dihedral_admissible(6)
        assert dihedral_admissible(7)
        assert dihedral_admissible(12)

    def test_family_n4_angle(self):
        report = dihedral_report(glue(family_scheme(4)))
        assert all(e.valence == 12 for e in report)
        assert all(e.angle_degrees == Fraction(30) for e in report)
        assert all(e.admissible for e in report)

    def test_valence_six_boundary_excluded(self):
        # Valence 6 puts the angle at exactly 60 degrees, outside the open window.
        scheme = parse_scheme(CROSSED_DOUBLE)
        report = dihedral_report(glue(scheme))
        by_valence = {e.valence: e for e in report}
        assert by_valence[6].angle_degrees == Fraction(60)
        assert not by_valence[6].admissible

    def test_symbolic_angle(self):
        ec = glue(family_scheme(4)).edge_classes[0]
        assert ec.angle_over_pi == Fraction(2, 12)


class TestHandleStructure:
    def test_family_values(self):
        assert handle_structure(glue(family_scheme(4))) == (5, 2)
        assert handle_structure(glue(family_scheme(10))) == (11, 2)

    def test_one_tet_two_pairings(self):
        c = glue(parse_scheme("tets 1\npair 1.132 1.453\npair 1.264 1.516\n"))
        genus, handles = handle_structure(c)
        assert genus == 2

    def test_disconnected_rejected(self):
        text = ("tets 2\n"
                "pair 1.132 1.453\npair 1.264 1.516\n"
                "pair 2.132 2.453\npair 2.264 2.516\n")
        c = glue(parse_scheme(text))
        assert not c.connected
        with pytest.raises(GluingError, match="disconnected"):
            handle_structure(c)
