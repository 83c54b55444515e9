import copy
import dataclasses
import gc
import inspect
import pickle
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geodouble import construction, triangulation
from geodouble.cli import main
from geodouble.construction import family_scheme
from geodouble.presentations import abelianization, presentation_from_complex
from geodouble.triangulation import (
    EDGE_ENDS,
    EdgeClass,
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

from oracles import (
    brute_link_orientable,
    brute_orientable,
    flood_identifications,
    flood_link_counts,
    forest_edge_signs,
    vertex_class_corners,
)

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


def random_pairings(rng, max_tets=3):
    """A tet count and FacePairing records that pair up all of its faces
    at random, each with a random rotation."""
    tets = rng.randint(1, max_tets)
    slots = [(t, f) for t in range(1, tets + 1) for f in FACES]
    rng.shuffle(slots)
    return tets, [FacePairing(FaceSlot(*slots.pop()), FaceSlot(*slots.pop()), rng.randint(0, 2))
                  for _ in range(2 * tets)]


def random_closed_scheme(rng, max_tets=3):
    tets, pairings = random_pairings(rng, max_tets)
    return GluingScheme(tets, tuple(pairings))


def oracle_schemes():
    """500 random schemes of up to 12 tetrahedra; every second one keeps
    only about 60% of its pairings, so half of them are partial."""
    rng = random.Random(37)
    for i in range(500):
        scheme = random_closed_scheme(rng, max_tets=12)
        if i % 2:
            scheme = GluingScheme(scheme.tet_count, tuple(
                p for p in scheme.pairings if rng.random() < 0.6))
        yield scheme


def assert_glue_matches_flood(scheme):
    """Compare glue's identification data with the flood-fill oracle;
    return the number of orientation-inconsistent edge classes."""
    c = glue(scheme, require_closed=False)
    edges, verts, comps = flood_identifications(scheme)
    forest = forest_edge_signs(scheme)
    assert_columns_match_flood(c, edges, verts, comps, forest)
    assert [ec.orientation_consistent for ec in c.edge_classes] == \
           [consistent for _, consistent in edges]
    for ec, (members, consistent) in zip(c.edge_classes, edges):
        # No signs satisfy every link of a class glued to itself reversed;
        # there glue reports the signs of the link-order spanning forest.
        if consistent:
            assert ec.members == members
        assert ec.members == tuple((t, e, forest[(t, e)]) for t, e, _ in members)
    assert c.link_orientable == tuple(
        brute_link_orientable(c, i) for i in range(len(verts)))
    assert c.orientable == brute_orientable(scheme)
    return sum(1 for _, consistent in edges if not consistent)


def assert_columns_match_flood(c, edges, verts, comps, forest):
    """Check glue's columns, before any view is read, item by item against
    the flood-fill classes and the forest signs."""
    n = c.scheme.tet_count
    assert len(c.classes) == len(c.signs) == 11 * n
    assert c.valences == [len(members) for members, _ in edges]
    assert c.edge_consistent == [consistent for _, consistent in edges]
    assert c.edge_roots == [6 * (members[0][0] - 1) + members[0][1] - 1 for members, _ in edges]
    for k, (members, _) in enumerate(edges):
        for t, e, _ in members:
            x = 6 * (t - 1) + e - 1
            assert (c.classes[x], c.signs[x]) == (k, forest[(t, e)])
    assert c.vertex_class_count == len(c.vertex_sizes) == len(verts)
    assert c.vertex_sizes == [len(vclass) for vclass in verts]
    for k, vclass in enumerate(verts):
        for t, v in vclass:
            assert c.classes[6 * n + 4 * (t - 1) + v] == k
    assert c.component_count == len(comps)
    for k, comp in enumerate(comps):
        for t in comp:
            assert c.classes[10 * n + t - 1] == k


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

    def test_constructor_checks_faces_without_parsing(self):
        a, b, c = FaceSlot(1, "132"), FaceSlot(2, "453"), FaceSlot(2, "516")
        with pytest.raises(SchemeError, match="^face 1.132 appears in more than one pairing$"):
            GluingScheme(2, (FacePairing(a, b), FacePairing(a, c)))
        with pytest.raises(SchemeError, match="^face 3.453 beyond tet count 2$"):
            GluingScheme(2, (FacePairing(a, FaceSlot(3, "453")),))
        with pytest.raises(SchemeError, match="tet count must be positive"):
            GluingScheme(0, ())

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


# Canonical text and its near misses; each mutant is (old, new) replaced once.
CANONICAL = "tets 3\npair 1.132 2.453\npair 1.264 3.516\npair 1.453 2.132\npair 2.264 3.132\n"
MUTANTS = [
    ("\n", "\r\n"), ("tets 3\n", "tets 3\r\n"), (" ", "\t"), ("1.264 ", "1.264\t"),
    ("2.453\n", "2.453 \n"), ("3.132\n", "3.132"), ("tets 3\n", "# note\ntets 3\n"),
    ("3.516\n", "3.516  # trailing\n"), ("2.453\n", "2.453\n\n"), ("tets 3\n", "\ntets 3\n"),
    ("1.132", "1.132.2"), ("1.132", "01.132"), ("3.516", "1_0.516"), ("3.516", "\u0663.516"),
    ("2.132", "\uff12.132"), ("1.132", "0.132"), ("3.516", "4.516"), ("2.453", "1.453"),
    ("2.453", "1.132"), ("1.132 2.453", "2.453 1.132"), ("1.264 3.516", "1.264 1.264"),
    ("tets 3", "tets 0"), ("tets 3", "tets 03"), ("tets 3", "tets 1"), ("tets 3", "tets 4"),
    ("pair 1.264 3.516\n", ""), ("1.132", "1.123"), ("pair 1.132", "pair  1.132"),
    ("2.453\n", "2.453 edgeorder 4 5 3\n"), ("2.453\n", "2.453 edgeorder 3 4 5\n"),
    ("pair 1.132 2.453\npair 1.264 3.516", "pair 1.264 3.516\npair 1.132 2.453"),
    ("pair 1.264", "Pair 1.264"),
]


def parse_outcome(parse, text):
    """What a parser gives for text: the scheme, or its error text and line."""
    try:
        return parse(text)
    except SchemeError as exc:
        return str(exc), exc.line


class TestParsePaths:
    """``parse_scheme`` reads canonical text by columns and leaves every
    other text to the line reader ``_parse_lines``: both must agree."""

    def test_paths_agree(self, monkeypatch):
        rng = random.Random(43)
        texts = [render_scheme(family_scheme(n)) for n in (4, 5, 17)]
        texts += [CANONICAL.replace(old, new, 1) for old, new in MUTANTS]
        for i in range(300):
            scheme = random_closed_scheme(rng, max_tets=8)
            keep = 1.0 if i % 2 else 0.6
            pairings = [p for p in scheme.pairings if rng.random() < keep]
            if i % 3 == 0:
                pairings = [FacePairing(p.a, p.b) for p in pairings]
            texts.append(render_scheme(GluingScheme(scheme.tet_count, pairings)))
        # Single-character edits of canonical text.
        for _ in range(400):
            text = rng.choice(texts[:3] + [CANONICAL])
            k = rng.randrange(len(text))
            edit = rng.choice(" \n.0123456789#")
            texts.append(rng.choice((text[:k] + text[k + 1:], text[:k] + edit + text[k:],
                                     text[:k] + edit + text[k + 1:])))
        line_reader = triangulation._parse_lines
        fallbacks = []
        monkeypatch.setattr(triangulation, "_parse_lines",
                            lambda text: fallbacks.append(text) or line_reader(text))
        for text in texts:
            assert parse_outcome(parse_scheme, text) == parse_outcome(line_reader, text), text
        assert len(fallbacks) > 300 and len(texts) - len(fallbacks) > 100
        assert CANONICAL not in fallbacks

    @pytest.mark.parametrize("n", [4, 5, 4096])
    def test_canonical_text_takes_the_column_path(self, n, monkeypatch):
        def refuse(text):
            raise AssertionError("canonical text went to the line reader")

        monkeypatch.setattr(triangulation, "_parse_lines", refuse)
        scheme = family_scheme(n)
        assert parse_scheme(render_scheme(scheme)) == scheme


class TestSchemeRecords:
    """Pins the public behaviour of the scheme records: the text, equality,
    ordering, hashing, copying and error text that callers can see."""

    def test_face_slot(self):
        s = FaceSlot(1, "132")
        assert s == FaceSlot(1, "132") and s != FaceSlot(1, "453")
        assert hash(s) == hash((1, "132"))
        assert FaceSlot(1, "453") < FaceSlot(2, "132") and FaceSlot(1, "264") < FaceSlot(1, "453")
        assert sorted([FaceSlot(2, "132"), FaceSlot(1, "516"), FaceSlot(1, "132")]) == \
            [FaceSlot(1, "132"), FaceSlot(1, "516"), FaceSlot(2, "132")]
        assert repr(s) == "FaceSlot(tet=1, face='132')"
        assert str(s) == "1.132"
        assert str(inspect.signature(FaceSlot, eval_str=True)) == \
            "(tet: int, face: str) -> None"

    def test_face_pairing(self):
        p = FacePairing(FaceSlot(1, "132"), FaceSlot(2, "453"))
        assert p == FacePairing(FaceSlot(1, "132"), FaceSlot(2, "453"), 0)
        assert p != FacePairing(FaceSlot(1, "132"), FaceSlot(2, "453"), 1)
        assert hash(p) == hash((FaceSlot(1, "132"), FaceSlot(2, "453"), 0))
        with pytest.raises(TypeError):
            p < p  # noqa: B015
        text = ("FacePairing(a=FaceSlot(tet=1, face='132'), "
                "b=FaceSlot(tet=2, face='453'), rotation=0)")
        assert repr(p) == str(p) == text
        assert str(inspect.signature(FacePairing, eval_str=True)) == \
            "(a: geodouble.triangulation.FaceSlot, b: geodouble.triangulation.FaceSlot, " \
            "rotation: int = 0) -> None"
        assert [f.name for f in dataclasses.fields(FacePairing)] == ["a", "b", "rotation"]

    def test_swapped_pairing_normalises(self):
        q = FacePairing(FaceSlot(2, "453"), FaceSlot(1, "132"), 1)
        assert (q.a, q.b, q.rotation) == (FaceSlot(1, "132"), FaceSlot(2, "453"), 2)
        assert q == FacePairing(FaceSlot(1, "132"), FaceSlot(2, "453"), 2)
        assert hash(q) == hash((FaceSlot(1, "132"), FaceSlot(2, "453"), 2))
        assert repr(q) == ("FacePairing(a=FaceSlot(tet=1, face='132'), "
                           "b=FaceSlot(tet=2, face='453'), rotation=2)")
        same_tet = FacePairing(FaceSlot(1, "516"), FaceSlot(1, "132"), 2)
        assert (same_tet.a, same_tet.b, same_tet.rotation) == \
            (FaceSlot(1, "132"), FaceSlot(1, "516"), 1)

    def test_replace_pickle_and_copy(self):
        s = FaceSlot(3, "264")
        assert dataclasses.replace(s, tet=4) == FaceSlot(4, "264")
        p = FacePairing(FaceSlot(2, "453"), FaceSlot(1, "132"), 1)
        assert dataclasses.replace(p, rotation=1) == \
            FacePairing(FaceSlot(1, "132"), FaceSlot(2, "453"), 1)
        # replace goes through the constructor, so it normalises again.
        r = dataclasses.replace(p, a=FaceSlot(3, "264"))
        assert (r.a, r.b, r.rotation) == (FaceSlot(2, "453"), FaceSlot(3, "264"), 1)
        for obj in (s, p, family_scheme(4)):
            for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
                assert twin == obj and type(twin) is type(obj)
                assert hash(twin) == hash(obj)

    def test_records_are_frozen(self):
        s, p = FaceSlot(1, "132"), FacePairing(FaceSlot(1, "132"), FaceSlot(2, "453"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.tet = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.rotation = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.a = FaceSlot(3, "132")
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.b

    @pytest.mark.parametrize("a, b, rotation, message", [
        (FaceSlot(1, "123"), FaceSlot(1, "453"), 0, "unknown face name '123'"),
        (FaceSlot(1, "132"), FaceSlot(2, "999"), 0, "unknown face name '999'"),
        (FaceSlot(0, "132"), FaceSlot(1, "453"), 0, "tetrahedron index 0 out of range"),
        (FaceSlot(1, "132"), FaceSlot(-2, "453"), 0, "tetrahedron index -2 out of range"),
        (FaceSlot(1, "132"), FaceSlot(1, "132"), 1, "face 1.132 paired with itself"),
        (FaceSlot(1, "132"), FaceSlot(2, "453"), 3, "rotation 3 not in 0..2"),
        (FaceSlot(0, "123"), FaceSlot(0, "123"), 3, "unknown face name '123'"),
        # Only a plain int is a tetrahedron index or a rotation.
        (FaceSlot(True, "132"), FaceSlot(1, "453"), True, "tetrahedron index True is not an int"),
        (FaceSlot(1.5, "132"), FaceSlot(1, "453"), 0, "tetrahedron index 1.5 is not an int"),
        (FaceSlot(1, "132"), FaceSlot("1", "453"), 0, "tetrahedron index '1' is not an int"),
        (FaceSlot(1, "132"), FaceSlot(1, "453"), True, "rotation True not in 0..2"),
        (FaceSlot(1, "132"), FaceSlot(1, "453"), 1.0, "rotation 1.0 not in 0..2"),
    ])
    def test_error_text(self, a, b, rotation, message):
        with pytest.raises(SchemeError) as info:
            FacePairing(a, b, rotation)
        assert str(info.value) == message and info.value.line is None

    @pytest.mark.parametrize("tet_count, pairings, outcome", [
        (1, [((1, "132"), (1, "132"), 0)], "face 1.132 paired with itself"),
        (1, [((1, "123"), (1, "453"), 0)], "unknown face name '123'"),
        (1, [((0, "132"), (1, "453"), 0)], "tetrahedron index 0 out of range"),
        (1, [((1, "132"), (2, "453"), 0)], "face 2.453 beyond tet count 1"),
        (2, [((1, "132"), (2, "132"), 0), ((1, "132"), (2, "453"), 0)],
         "face 1.132 appears in more than one pairing"),
        # Swapped to 2.453 3.132 with the rotation negated, then claimed lesser face first.
        (1, [((3, "132"), (2, "453"), 1)], "face 2.453 beyond tet count 1"),
        (3, [((3, "132"), (2, "453"), 1)], "tets 3\npair 2.453 3.132 edgeorder 2 1 3\n"),
    ])
    def test_records_and_text_share_the_checks(self, tet_count, pairings, outcome):
        # Each pairing as a record and as a line: rotation r lists b's edges from the r-th.
        text = f"tets {tet_count}\n" + "".join(
            "pair %d.%s %d.%s edgeorder %d %d %d\n" % (*a, *b, *(FACES[b[1]] * 2)[r:r + 3])
            for a, b, r in pairings)

        def records():
            return GluingScheme(tet_count, [FacePairing(FaceSlot(*a), FaceSlot(*b), r)
                                            for a, b, r in pairings])

        for build in (records, lambda: parse_scheme(text)):
            try:
                assert render_scheme(build()) == outcome
            except SchemeError as exc:
                assert str(exc) == ("" if build is records else f"line {exc.line}: ") + outcome

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_accepted_schemes_round_trip(self, data):
        # Plain ints, and values that compare equal to them but are not ints.
        value = st.one_of(st.integers(-1, 3), st.booleans(), st.sampled_from([1.0, 2.5, "1"]))
        slot = st.builds(FaceSlot, value, st.sampled_from(sorted(FACES)))
        try:
            scheme = GluingScheme(data.draw(value), [
                FacePairing(data.draw(slot), data.draw(slot), data.draw(value))
                for _ in range(data.draw(st.integers(0, 3)))])
        except SchemeError:
            return
        assert parse_scheme(render_scheme(scheme)) == scheme

    @pytest.mark.parametrize("line, message", [
        ("pair 1.123 1.453", "line 2: unknown face name '123'"),
        ("pair 1.132 1.999 edgeorder 1 2 3", "line 2: unknown face name '999'"),
        ("pair 0.132 1.453", "line 2: tetrahedron index 0 out of range"),
        ("pair 1.132 1.132", "line 2: face 1.132 paired with itself"),
        ("pair 1.132 2.453", "line 2: face 2.453 beyond tet count 1"),
        ("pair 1.132", "line 2: expected 'pair A B [edgeorder p q r]', got 'pair 1.132'"),
        ("pair  1.132   1.453 order 1 2 3  # x", "line 2: expected 'edgeorder', got 'order'"),
        ("pair 1.132 1.453 edgeorder 3 4 5 6",
         "line 2: expected 'pair A B [edgeorder p q r]', "
         "got 'pair 1.132 1.453 edgeorder 3 4 5 6'"),
        ("pair 1.132 1.453 edgeorder 4 3 5",
         "line 2: edge order (4, 3, 5) must preserve the cyclic order of face 453"),
        ("pair 1.132 1.453 edgeorder 4 x 5", "line 2: bad edge order ['4', 'x', '5']"),
        ("pair 1.132 1.999 edgeorder 1 x 3", "line 2: bad edge order ['1', 'x', '3']"),
        ("pair 1.999 0.453 edgeorder 4 3 5",
         "line 2: edge order (4, 3, 5) must preserve the cyclic order of face 453"),
        ("pair 1.999 0.453 edgeorder 3 4 5", "line 2: unknown face name '999'"),
        ("pair 1.132.0 1.453", "line 2: bad face token '1.132.0'"),
        ("pair 1132 1.453", "line 2: bad face token '1132'"),
        ("pair x.132 1.453", "line 2: bad tetrahedron index in 'x.132'"),
        ("pair .132 1.453", "line 2: bad tetrahedron index in '.132'"),
        ("pair 1. 1.453", "line 2: unknown face name ''"),
        ("tets 1", "line 2: expected 'pair A B [edgeorder p q r]', got 'tets 1'"),
        ("pair 1.132 1.453 edgeorder 4 5",
         "line 2: expected 'pair A B [edgeorder p q r]', "
         "got 'pair 1.132 1.453 edgeorder 4 5'"),
        # Lines with two faults: the check order decides the message.
        ("pair 1.999 x order 1 2 3", "line 2: expected 'edgeorder', got 'order'"),
        ("pair x 1.999 edgeorder a b c", "line 2: bad face token 'x'"),
        ("pair 1.999 1132", "line 2: bad face token '1132'"),
        ("pair 1.999 x.132", "line 2: bad tetrahedron index in 'x.132'"),
        ("pair 1.132 x.999 edgeorder 4 3 5", "line 2: bad tetrahedron index in 'x.999'"),
        ("pair 1.999 5.453", "line 2: unknown face name '999'"),
        ("pair 5.132 1.999", "line 2: unknown face name '999'"),
        ("pair 0.132 1.999", "line 2: tetrahedron index 0 out of range"),
        ("pair 1.999 0.453", "line 2: unknown face name '999'"),
        ("pair 0.132 -1.453", "line 2: tetrahedron index 0 out of range"),
        ("pair 5.132 5.132", "line 2: face 5.132 paired with itself"),
        ("pair 1.132 1.132 edgeorder 3 2 1", "line 2: face 1.132 paired with itself"),
        # Faces are claimed lesser slot first, after normalisation.
        ("pair 3.132 2.453", "line 2: face 2.453 beyond tet count 1"),
        ("pair 2.132 2.453 edgeorder 5 3 4", "line 2: face 2.132 beyond tet count 1"),
    ])
    def test_parse_error_text(self, line, message):
        with pytest.raises(SchemeError) as info:
            parse_scheme(f"tets 1\n{line}\n")
        assert str(info.value) == message and info.value.line == 2

    @pytest.mark.parametrize("text, message", [
        ("", "missing 'tets N' header"),
        ("# only a comment\n", "missing 'tets N' header"),
        ("pair 1.132 1.453\n", "line 1: expected header 'tets N'"),
        ("tets 1 2\n", "line 1: expected header 'tets N'"),
        ("tets\n", "line 1: expected header 'tets N'"),
        ("tets x\n", "line 1: bad tet count 'x'"),
        ("tets 0\n", "line 1: tet count must be positive, got 0"),
        ("\n  tets -3\n", "line 2: tet count must be positive, got -3"),
        ("tets 2\npair 1.132 2.132\npair 2.453 2.132\n",
         "line 3: face 2.132 appears in more than one pairing"),
        ("tets 2\npair 1.132 2.132\npair 3.453 1.132\n",
         "line 3: face 1.132 appears in more than one pairing"),
        ("tets 2\npair 1.264 2.516\npair 2.516 1.132\n",
         "line 3: face 2.516 appears in more than one pairing"),
    ])
    def test_parse_header_and_claim_text(self, text, message):
        with pytest.raises(SchemeError, match=f"^{re.escape(message)}$"):
            parse_scheme(text)

    def test_parse_reads_indices_with_int(self):
        text = "tets 1_0\npair +1.132 1_0.453\npair 01.264 10.516 edgeorder 6 5 1\n"
        assert render_scheme(parse_scheme(text)) == \
            "tets 10\npair 1.132 10.453\npair 1.264 10.516 edgeorder 6 5 1\n"

    @pytest.mark.parametrize("tet_count, pairings, message", [
        # The constructor claims faces in sorted order, not in input order.
        (2, [((2, "132"), (2, "453")), ((1, "132"), (2, "453")), ((2, "132"), (1, "453"))],
         "face 2.132 appears in more than one pairing"),
        (2, [((1, "132"), (3, "453")), ((1, "132"), (2, "453"))],
         "face 1.132 appears in more than one pairing"),
        (1, [((2, "132"), (3, "453"))], "face 2.132 beyond tet count 1"),
        (0, [], "tet count must be positive, got 0"),
        (True, [], "tet count True is not an int"),
        (1.0, [], "tet count 1.0 is not an int"),
    ])
    def test_constructor_claim_order(self, tet_count, pairings, message):
        records = tuple(FacePairing(FaceSlot(*a), FaceSlot(*b)) for a, b in pairings)
        with pytest.raises(SchemeError) as info:
            GluingScheme(tet_count, records)
        assert str(info.value) == message and info.value.line is None

    def test_scheme_repr_and_hash(self):
        s = parse_scheme("tets 2\npair 2.453 1.132 edgeorder 3 2 1\n")
        assert repr(s) == ("GluingScheme(tet_count=2, pairings=(FacePairing("
                           "a=FaceSlot(tet=1, face='132'), b=FaceSlot(tet=2, face='453'), "
                           "rotation=2),))")
        assert repr(parse_scheme("tets 1\n")) == "GluingScheme(tet_count=1, pairings=())"
        twin = GluingScheme(2, s.pairings)
        assert twin == s and hash(twin) == hash(s)
        assert s != GluingScheme(3, s.pairings) and s != parse_scheme("tets 2\n")


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
        inconsistent = self_glued = 0
        for scheme in oracle_schemes():
            self_glued += any(p.a.tet == p.b.tet for p in scheme.pairings)
            inconsistent += assert_glue_matches_flood(scheme)
        assert inconsistent > 0
        assert self_glued > 100

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 12), st.floats(0, 1))
    def test_round_trip_property(self, rng, max_tets, keep):
        # Closed schemes when keep is 1, partial ones below that.
        tets, records = random_pairings(rng, max_tets)
        records = [p for p in records if rng.random() < keep]
        s = GluingScheme(tets, tuple(records))
        parsed = parse_scheme(render_scheme(s))
        assert parsed == s and hash(parsed) == hash(s)
        assert GluingScheme(tets, s.pairings) == s
        assert s.pairings == tuple(sorted(
            records, key=lambda p: (p.a.tet, p.a.face, p.b.tet, p.b.face)))
        assert s.is_closed == (len(records) == 2 * tets)
        assert_glue_matches_flood(s)

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
            assert sum(c.vertex_sizes) == 4 * scheme.tet_count

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
        assert c1.classes == c2.classes and c1.signs == c2.signs


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
        assert sum(c.triangle_count for c in stats.components) == 4 * n
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

    def test_link_counts_match_flood_fill_oracle(self):
        rng = random.Random(53)
        schemes = [parse_scheme(SELF_REVERSED_EDGE)] + \
                  [random_closed_scheme(rng, max_tets=12) for _ in range(500)]
        self_reversed = self_glued = nonorientable = 0
        for scheme in schemes:
            c = glue(scheme)
            self_reversed += any(not ec.orientation_consistent for ec in c.edge_classes)
            self_glued += any(p.a.tet == p.b.tet for p in scheme.pairings)
            expected = flood_link_counts(scheme)
            components = boundary_surfaces(c).components
            assert len(components) == len(expected)
            for comp in components:
                triangles, vertices, chi = expected[vertex_class_corners(c, comp.vertex_class)]
                assert comp.triangle_count == triangles
                assert comp.vertex_count == vertices
                assert comp.euler_characteristic == chi
                orientable = brute_link_orientable(c, comp.vertex_class)
                assert comp.orientable == orientable
                assert comp.genus == ((2 - chi) // 2 if orientable else 2 - chi)
                nonorientable += not orientable
        assert self_reversed > 50
        assert self_glued > 100
        assert nonorientable > 50

    def test_link_euler_characteristics_sum_to_edge_count(self):
        # Without an edge glued to itself reversed, the links have 2E
        # vertices in all, 4n triangles and 6n sides: sum chi = 2(E - n).
        checked = 0
        for scheme in oracle_schemes():
            if not scheme.is_closed:
                continue
            c = glue(scheme)
            if not all(ec.orientation_consistent for ec in c.edge_classes):
                continue
            chi = sum(comp.euler_characteristic for comp in boundary_surfaces(c).components)
            assert chi == 2 * (len(c.edge_classes) - scheme.tet_count)
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("n", [4, 5, 7, 100])
    def test_family_link_euler_characteristic(self, n):
        c = glue(family_scheme(n))
        [comp] = boundary_surfaces(c).components
        assert comp.euler_characteristic == 2 * (len(c.edge_classes) - n) == 4 - 2 * n

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


class TestColumns:
    VIEWS = ("edge_classes",)

    def test_no_hot_path_builds_the_views(self, monkeypatch, tmp_path, capsys):
        made = []

        def recording_glue(*args, **kwargs):
            made.append(real_glue(*args, **kwargs))
            return made[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("an EdgeClass record was built")

        real_glue = triangulation.glue
        monkeypatch.setattr(triangulation, "glue", recording_glue)
        monkeypatch.setattr(construction, "glue", recording_glue)
        monkeypatch.setattr(EdgeClass, "__init__", refuse)
        # The family_sweep library op, then the CLI rows that glue.
        scheme = family_scheme(64)
        c = triangulation.glue(parse_scheme(render_scheme(scheme)))
        assert [comp.genus for comp in boundary_surfaces(c).components] == [63]
        assert handle_structure(c) == (65, 2)
        assert [d.valence for d in dihedral_report(c)] == [192, 192]
        assert abelianization(presentation_from_complex(c)).rank == 0
        assert construction.verify_family(64).passed
        path = tmp_path / "f64.scheme"
        path.write_text(render_scheme(scheme))
        for argv in (["family", "verify", "--n", "64"], ["scheme", "info", str(path)],
                     ["pres", "from-scheme", str(path)]):
            assert main(argv) == 0
        capsys.readouterr()
        assert len(made) == 5
        for c in made:
            assert not set(self.VIEWS) & set(vars(c))

    def test_views_are_built_once_on_read(self):
        c = glue(parse_scheme(NONORIENTABLE_LINK))
        for name in self.VIEWS:
            assert name not in vars(c)
            assert getattr(c, name) is getattr(c, name)
            assert name in vars(c)

    def test_glue_retains_little_memory(self):
        # About 7.6 MB while glue built per-item records; the columns need about 0.7 MB.
        scheme = family_scheme(4096)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            c = glue(scheme)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2_000_000
        assert c.vertex_class_count == 1 and c.orientable


class TestScaling:
    def test_family_glue_is_linear(self):
        # About 0.5 s on a 2-vCPU x86 host; a quadratic step would take minutes.
        n = 20000
        scheme = family_scheme(n)
        start = time.perf_counter()
        c = glue(scheme)
        stats = boundary_surfaces(c)
        handles = handle_structure(c)
        assert time.perf_counter() - start < 3.0
        assert [ec.valence for ec in c.edge_classes] == [3 * n, 3 * n]
        assert [(comp.genus, comp.orientable) for comp in stats.components] == [(n - 1, True)]
        assert handles == (n + 1, 2)

    def test_family_text_round_trip_is_linear(self):
        # About 1.5 s on a 2-vCPU x86 host, family_scheme to presentation.
        n = 20000
        start = time.perf_counter()
        scheme = family_scheme(n)
        parsed = parse_scheme(render_scheme(scheme))
        pres = presentation_from_complex(glue(parsed))
        assert time.perf_counter() - start < 10.0
        assert parsed == scheme
        assert pres.generator_count == 2
