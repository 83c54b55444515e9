"""The four workloads.

A workload is a fixed sweep of sizes.  Each round of a run builds one op
per entry of the sweep, with inputs drawn fresh from ``(workload, seed,
round)``, and shuffles them.  An op's ``run`` makes only calls into the
package (through module and instance attributes, so that tracing can wrap
them) and returns what they produced; its ``check`` then tests that
output with the independent routines in ``oracles`` and returns a
description of the first problem, or None.  Checks may append samples to
``notes`` for the per-layer ratios.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
from fractions import Fraction

import oracles as orc


class Op:
    __slots__ = ("kind", "size", "run", "check")

    def __init__(self, kind: str, size: int, run, check):
        self.kind, self.size, self.run, self.check = kind, size, run, check


def cli(pkg, argv) -> tuple[int, str]:
    """Run ``geodouble.cli.main`` in process and capture what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


def fields(text: str) -> dict[str, str]:
    """``key = value`` lines of a text report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


class Workload:
    name = ""
    deadline_s = 10.0
    round_s = 1.0  # typical wall time of one round; sets the traced run's length

    def __init__(self, pkg, rng: random.Random, notes: dict[str, list[float]]):
        self.pkg = pkg
        self.notes = notes

    def note(self, key: str, value: float) -> None:
        self.notes.setdefault(key, []).append(value)

    def ops(self, rng: random.Random, warm: bool) -> list[Op]:
        raise NotImplementedError

    def round(self, rng: random.Random, warm: bool = False) -> list[Op]:
        ops = self.ops(rng, warm)
        rng.shuffle(ops)
        return ops


# -- family_sweep ------------------------------------------------------------------


class FamilySweep(Workload):
    name = "family_sweep"
    round_s = 3.1
    LIB_N = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
    VERIFY_N = (8, 16, 32, 64, 128, 256, 512)
    REPORT_N = (16, 64, 256, 512, 1024, 2048, 4096)

    def ops(self, rng, warm):
        cut = 1 if warm else None
        ops = [Op("family", n, *self._library(n)) for n in self.LIB_N[:cut]]
        ops += [Op("cli.family_verify", n, *self._verify(n)) for n in self.VERIFY_N[:cut]]
        ops += [Op("cli.family_report", n, *self._report(n)) for n in self.REPORT_N[:cut]]
        return ops

    def _library(self, n):
        pkg = self.pkg

        def run():
            scheme = pkg.construction.family_scheme(n)
            parsed = pkg.triangulation.parse_scheme(pkg.triangulation.render_scheme(scheme))
            cx = pkg.triangulation.glue(parsed)
            boundary = pkg.triangulation.boundary_surfaces(cx)
            handles = pkg.triangulation.handle_structure(cx)
            dihedral = pkg.triangulation.dihedral_report(cx)
            pres = pkg.presentations.presentation_from_complex(cx)
            return scheme, parsed, cx, boundary, handles, dihedral, pres, \
                pkg.presentations.abelianization(pres)

        def check(res):
            scheme, parsed, cx, boundary, handles, dihedral, pres, ab = res
            if parsed != scheme:
                return "render/parse round trip changed the scheme"
            if scheme.tet_count != n or len(scheme.pairings) != 2 * n:
                return f"scheme has {scheme.tet_count} tets, {len(scheme.pairings)} pairings"
            valences = sorted(ec.valence for ec in cx.edge_classes)
            if valences != [3 * n, 3 * n]:
                return f"edge valences {valences}, expected two of {3 * n}"
            if cx.vertex_class_count != 1 or not cx.orientable:
                return "expected one vertex class and an orientable complex"
            genera = [(c.genus, c.orientable) for c in boundary.components]
            if genera != [(n - 1, True)]:
                return f"boundary surfaces {genera}, expected one of genus {n - 1}"
            if tuple(handles) != (n + 1, 2):
                return f"handle structure {handles}, expected ({n + 1}, 2)"
            angles = [d.angle_degrees for d in dihedral]
            if angles != [Fraction(360, 3 * n)] * 2:
                return f"dihedral angles {angles}, expected 360/{3 * n}"
            matrix = orc.exponent_matrix(pres.relators, pres.generator_count)
            problem = orc.abelian_problem(matrix, pres.generator_count, ab.rank, ab.torsion)
            if problem:
                return problem
            if pres.generator_count == 2 and ab.rank == 0:
                order = orc.two_column_index(matrix)
                if math.prod(ab.torsion) != order:
                    return f"torsion order {math.prod(ab.torsion)} != lattice index {order}"
            return None

        return run, check

    def _verify(self, n):
        def run():
            return cli(self.pkg, ["family", "verify", "--n", str(n)])

        def check(res):
            code, text = res
            passes = sum(line.startswith("PASS ") for line in text.splitlines())
            if code != 0 or "FAIL" in text or passes != 11:
                return f"family verify --n {n}: exit {code}, {passes} checks passed"
            return None

        return run, check

    def _report(self, n):
        def run():
            return cli(self.pkg, ["--machine", "family", "report", "--n-min", "4",
                                  "--n-max", str(n)])

        def check(res):
            code, text = res
            rows = {}
            for line in text.splitlines():
                key, _, value = line.partition("=")
                if key.startswith("row."):
                    _, m, field = key.split(".")
                    rows.setdefault(int(m), {})[field] = value
            expected = [m for m in range(4, n + 1) if m % 3]
            if code != 0 or sorted(rows) != expected:
                return f"family report --n-max {n}: exit {code}, {len(rows)} rows"
            for m, row in rows.items():
                want = {"boundary_genus": str(m - 1), "rank_upper_closed": str(m + 3),
                        "fix_rank_closed": str(2 * m - 2),
                        "ratio_closed": str(Fraction(2 * m - 2, m + 3))}
                if any(row.get(k) != v for k, v in want.items()):
                    return f"family report row {m}: {row}"
            return None

        return run, check


# -- double_nf -----------------------------------------------------------------------


class DoubleNF(Workload):
    name = "double_nf"
    round_s = 0.9
    RANK = 2
    DEGREE = 16          # index of the finite-index subgroups
    # Of each kind.  Each op draws its subgroup, so every size meets many
    # subgroups in a run and a seed's cost does not hang on a few of them.
    SUBGROUPS = 12
    # The three identical CLI ops sit at the median of a round's latencies,
    # well apart from their neighbours, so that op_p50_ms does not flip
    # between two op kinds from run to run.
    FINITE_SYLLABLES = (16, 32, 64, 256, 384, 512)
    INFINITE_SYLLABLES = (16, 64, 256, 1024, 2048)
    FIXTEST_SAMPLES = (50, 50, 50)

    def __init__(self, pkg, rng, notes):
        super().__init__(pkg, rng, notes)
        self.finite = []
        for _ in range(self.SUBGROUPS):
            perms = orc.transitive_perms(rng, self.DEGREE, self.RANK)
            gens, _ = orc.schreier_data(perms)
            dbl = pkg.doubling.Double.from_generators(gens, self.RANK)
            self.finite.append((dbl, gens, perms, orc.inverse_perms(perms)))
        self.infinite = []
        while len(self.infinite) < self.SUBGROUPS:
            gens = [orc.random_reduced_word(rng, self.RANK, rng.randint(5, 9)) for _ in range(3)]
            dbl = pkg.doubling.Double.from_generators(gens, self.RANK)
            if dbl.subgroup.index() is None:
                self.infinite.append((dbl, gens, None, None))

    def ops(self, rng, warm):
        cut = 1 if warm else None
        ops = []
        for length in self.FINITE_SYLLABLES[:cut]:
            ops.append(Op("nf.finite", length,
                          *self._normal_form(rng.choice(self.finite), rng, length)))
        for length in self.INFINITE_SYLLABLES[:cut]:
            ops.append(Op("nf.infinite", length,
                          *self._normal_form(rng.choice(self.infinite), rng, length)))
        for i, samples in enumerate(self.FIXTEST_SAMPLES[:cut]):
            group = (self.finite, self.infinite)[i % 2][rng.randrange(self.SUBGROUPS)]
            ops.append(Op("cli.double_fixtest", samples,
                          *self._fixtest(group, samples, rng.randrange(10**6))))
        return ops

    def _normal_form(self, group, rng, length):
        dbl, _, perms, inverse = group
        syllables = tuple((rng.randint(0, 1), orc.random_reduced_word(rng, self.RANK,
                                                                       rng.randint(1, 3)))
                          for _ in range(length))
        word = self.pkg.doubling.DoubleWord(syllables)
        kind = "finite_index" if perms else "infinite_index"

        def run():
            nf = dbl.normal_form(word)
            fixed = dbl.is_fixed(word)
            tail_in = dbl.subgroup.contains(nf.tail)
            syllable_in = [dbl.subgroup.contains(w) for _, w in nf.syllables]
            same = dbl.project(word) == dbl.project(dbl.nf_as_element(nf))
            return nf, fixed, tail_in, syllable_in, same

        def check(res):
            nf, fixed, tail_in, syllable_in, same = res
            self.note(f"tail.{kind}", len(nf.tail))
            if not tail_in or any(syllable_in):
                return "tail outside H or a syllable inside H"
            if not same:
                return "projection of the normal form differs from the word's"
            if fixed != (nf.syllable_count == 0):
                return f"is_fixed={fixed} with {nf.syllable_count} syllables"
            sides = [s for s, _ in nf.syllables]
            if any(a == b for a, b in zip(sides, sides[1:])) or not all(w for _, w in nf.syllables):
                return "syllables do not alternate or one is empty"
            flat = [x for _, w in syllables for x in w]
            flat_nf = [x for _, w in nf.syllables for x in w] + list(nf.tail)
            if orc.reduce_word(flat) != orc.reduce_word(flat_nf):
                return "normal form projects to another element (independent reduction)"
            if perms:
                if orc.act(perms, inverse, nf.tail) != 0:
                    return "tail does not fix the base point of the permutation action"
                if any(orc.act(perms, inverse, w) == 0 for _, w in nf.syllables):
                    return "a syllable fixes the base point of the permutation action"
            return None

        return run, check

    def _fixtest(self, group, samples, seed):
        dbl, gens, _, _ = group
        vertices = dbl.subgroup.vertex_count
        h_text = ",".join(orc.word_text(g) for g in gens)
        letters = sum(map(len, gens))

        def run():
            return cli(self.pkg, ["double", "fixtest", "--rank", str(self.RANK), "--H", h_text,
                                  "--samples", str(samples), "--seed", str(seed)])

        def check(res):
            code, text = res
            self.note("fold.letters", letters)
            self.note("fold.vertices", vertices)
            if code != 0 or fields(text).get("agreements") != f"{samples}/{samples}":
                return f"double fixtest: exit {code}, agreements {fields(text).get('agreements')}"
            return None

        return run, check


# -- subgroup_fold ---------------------------------------------------------------------


class SubgroupFold(Workload):
    name = "subgroup_fold"
    round_s = 0.8
    LONG_LETTERS = (300, 1000, 3000, 10000)   # total over three generators, rank 2
    SCHREIER_DEGREES = (8, 16, 32, 64, 128, 256, 512, 1024)
    CLI_DEGREES = (8, 32, 64)

    def ops(self, rng, warm):
        cut = 1 if warm else None
        ops = [Op("fold.long", n, *self._long(rng, n)) for n in self.LONG_LETTERS[:cut]]
        ops += [Op("fold.schreier", d, *self._schreier(rng, d, 2 + i % 2))
                for i, d in enumerate(self.SCHREIER_DEGREES[:cut])]
        ops += [Op("cli.fg_fold", d, *self._cli(rng, d)) for d in self.CLI_DEGREES[:cut]]
        return ops

    def _long(self, rng, letters):
        pkg = self.pkg
        gens = [orc.random_reduced_word(rng, 2, letters // 3) for _ in range(3)]
        probe = orc.random_reduced_word(rng, 2, 40)

        def run():
            graph = pkg.freegroups.stallings_graph(gens, 2)
            member = [graph.contains(g) for g in gens]
            rep = graph.coset_representative(probe)
            back = graph.contains(orc.reduce_word(probe + orc.invert(rep)))
            return graph, member, graph.index(), back

        def check(res):
            graph, member, index, back = res
            total = sum(map(len, gens))
            self.note("fold.letters", total)
            self.note("fold.vertices", graph.vertex_count)
            if not all(member):
                return "a generator is not in the subgroup it generates"
            if not back:
                return "probe times its coset representative's inverse is not in H"
            if graph.vertex_count > total or not 0 <= graph.subgroup_rank() <= 3:
                return f"{graph.vertex_count} vertices, rank {graph.subgroup_rank()}"
            if index is not None and graph.vertex_count > 2:
                return f"finite index {index} reported for a graph of {graph.vertex_count} vertices"
            return None

        return run, check

    def _schreier(self, rng, degree, rank):
        pkg = self.pkg
        perms = orc.transitive_perms(rng, degree, rank)
        gens, adjacency = orc.schreier_data(perms)

        def run():
            graph = pkg.freegroups.stallings_graph(gens, rank)
            direct = pkg.freegroups.SubgroupGraph.from_adjacency(rank, adjacency)
            member = [graph.contains(g) for g in gens]
            return graph, graph == direct, member, graph.index(), graph.schreier_rank_check()

        def check(res):
            graph, same, member, index, schreier = res
            self.note("fold.letters", sum(map(len, gens)))
            self.note("fold.vertices", graph.vertex_count)
            if not same:
                return "folded graph differs from the Schreier graph of the permutations"
            if not all(member) or index != degree or not schreier:
                return f"index {index} (expected {degree}), Schreier rank check {schreier}"
            return None

        return run, check

    def _cli(self, rng, degree):
        gens, _ = orc.schreier_data(orc.transitive_perms(rng, degree, 2))
        text = ",".join(orc.word_text(g) for g in gens)

        def run():
            return cli(self.pkg, ["fg", "fold", "--rank", "2", "--gens", text])

        def check(res):
            code, out = res
            got = fields(out)
            self.note("fold.letters", sum(map(len, gens)))
            self.note("fold.vertices", int(got.get("vertices", 0)))
            if code != 0 or got.get("vertices") != str(degree) or got.get("edges") != str(2 * degree):
                return f"fg fold: exit {code}, {got.get('vertices')} vertices, {got.get('edges')} edges"
            return None

        return run, check


# -- algebra_mix -----------------------------------------------------------------------


class AlgebraMix(Workload):
    name = "algebra_mix"
    # Ops not bound by Smith normal form take under 50 ms, while SNF on the
    # stalling sizes runs for seconds; a few of those inputs finish in
    # between, so a rerun can now and then differ by one expired op.  The
    # deadline is short so that the stalls, about a sixth of all ops, leave
    # time for many rounds and their share repeats from seed to seed.
    deadline_s = 0.2
    round_s = 1.7
    SNF_SIZES = (2, 3, 4, 5, 6, 7, 8, 9)            # dense square, entries in [-9, 9]
    PRESENTATION_GENERATORS = (4, 8, 12, 16, 20)    # as many relators, 2..30 letters
    AUDIT_SIZES = ((2, 2, 2), (5, 3, 3), (10, 5, 5))
    ISO_KINDS = ("shared_axis", "parabolic", "perpendicular", "generic")
    ISO_BATCHES = (16, 64)
    CLI_H1_GENERATORS = (4, 8, 20)

    def ops(self, rng, warm):
        cut = 1 if warm else None
        ops = [Op("snf", k, *self._snf(rng, k)) for k in self.SNF_SIZES[:cut]]
        for g in self.PRESENTATION_GENERATORS[:cut]:
            ops.append(Op("abelianization", g, *self._abelianization(rng, g)))
            ops.append(Op("tietze", g, *self._tietze(rng, g)))
        for size in self.AUDIT_SIZES[:cut]:
            ops.append(Op("audit", size[0], *self._audit(size)))
            ops.append(Op("cli.audit_sweep", size[0], *self._cli_audit(size)))
        for kind in self.ISO_KINDS:
            for batch in self.ISO_BATCHES[:cut]:
                ops.append(Op(f"iso.{kind}", batch, *self._isometries(rng, kind, batch)))
        for g in self.CLI_H1_GENERATORS[:cut]:
            ops.append(Op("cli.pres_h1rank", g, *self._cli_h1(rng, g)))
        return ops

    def _snf(self, rng, k):
        matrix = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]

        def run():
            return self.pkg.presentations.smith_normal_form(matrix)

        return run, lambda factors: orc.snf_problem(matrix, factors)

    @staticmethod
    def _relators(rng, g):
        return [orc.random_reduced_word(rng, g, rng.randint(2, 30)) for _ in range(g)]

    def _abelianization(self, rng, g):
        relators = self._relators(rng, g)
        pres = self.pkg.presentations.Presentation(g, tuple(relators))

        def run():
            return self.pkg.presentations.abelianization(pres)

        def check(ab):
            return orc.abelian_problem(orc.exponent_matrix(relators, g), g, ab.rank, ab.torsion)

        return run, check

    def _tietze(self, rng, g):
        relators = self._relators(rng, g)
        pres = self.pkg.presentations.Presentation(g, tuple(relators))

        def run():
            return self.pkg.presentations.tietze_simplify(pres)

        def check(out):
            self.note("tietze.generators", g)
            self.note("tietze.removed", g - out.generator_count)
            before = orc.exponent_matrix(relators, g)
            after = orc.exponent_matrix(out.relators, out.generator_count)
            if out.generator_count > g:
                return f"Tietze grew the generators from {g} to {out.generator_count}"
            free_before = g - orc.rational_rank(before)
            free_after = out.generator_count - (orc.rational_rank(after) if after else 0)
            if free_before != free_after:
                return f"H1 free rank changed from {free_before} to {free_after}"
            det = abs(orc.bareiss_det(before))
            if det and len(after) == out.generator_count:
                order = abs(orc.bareiss_det(after)) if after else 1
                if order != det:
                    return f"H1 order changed from {det} to {order}"
            return None

        return run, check

    def _audit(self, size):
        pres = self.pkg.presentations

        def run():
            cases = list(pres.enumerate_audit_cases(*size))
            return cases, [pres.rank_audit(case) for case in cases]

        def check(res):
            cases, reports = res
            if not cases:
                return "no audit cases enumerated"
            for case, rep in zip(cases, reports):
                target = orc.surface_rank(case.genus, 2 * case.torus_pairs + case.single_circles,
                                          case.orientable)
                if (rep.surface_group_rank != target or not rep.strict
                        or rep.margin != rep.double_rank_lower_bound - target):
                    return f"audit case {case}: surface rank {rep.surface_group_rank} " \
                           f"(expected {target}), margin {rep.margin}"
            return None

        return run, check

    def _cli_audit(self, size):
        argv = ["audit", "--sweep", "--g-max", str(size[0]), "--m-max", str(size[1]),
                "--l-max", str(size[2])]

        def run():
            return cli(self.pkg, argv)

        def check(res):
            code, text = res
            cases = sum(1 for _ in self.pkg.presentations.enumerate_audit_cases(*size))
            if code != 0 or fields(text).get("cases") != str(cases) or "FAIL" in text:
                return f"audit sweep {size}: exit {code}, {fields(text).get('cases')} cases"
            return None

        return run, check

    def _cli_h1(self, rng, g):
        relators = self._relators(rng, g)
        argv = ["pres", "h1rank", "--gens", str(g), "--relators",
                ",".join(orc.word_text(r) for r in relators)]

        def run():
            return cli(self.pkg, argv)

        def check(res):
            code, text = res
            got = fields(text)
            if code != 0 or "h1_rank" not in got:
                return f"pres h1rank: exit {code}"
            torsion = () if got["torsion"] == "none" else tuple(map(int, got["torsion"].split(",")))
            return orc.abelian_problem(orc.exponent_matrix(relators, g), g,
                                       int(got["h1_rank"]), torsion)

        return run, check

    def _isometries(self, rng, kind, batch):
        iso = self.pkg.isometries
        pairs, expected = [], []
        for _ in range(batch):
            a, b, want = self._pair(rng, kind)
            pairs.append((iso.Isometry(*a[0], *a[1]), iso.Isometry(*b[0], *b[1])))
            expected.append(want)

        def run():
            return [(iso.commute(a, b), iso.commuting_criterion(a, b), iso.classify(a),
                     iso.classify(b), iso.fixed_points(a), iso.fixed_points(b))
                    for a, b in pairs]

        def check(results):
            for got, want in zip(results, expected):
                commute, tag, class_a, class_b, fix_a, fix_b = got
                if commute != (tag.value != "none"):
                    return f"{kind}: commute={commute} but criterion {tag.value}"
                if want is None:
                    if commute:
                        return "generic pair reported as commuting"
                    continue
                want_tag, want_a, want_b, points_a, points_b = want
                if (tag.value, class_a.value, class_b.value) != (want_tag, want_a, want_b):
                    return f"{kind}: got {tag.value}, {class_a.value}, {class_b.value}"
                if not (orc.same_points(fix_a.points, points_a)
                        and orc.same_points(fix_b.points, points_b)):
                    return f"{kind}: fixed points {fix_a.points}, {fix_b.points}"
            return None

        return run, check

    @staticmethod
    def _point(rng, box=2.0):
        return complex(rng.uniform(-box, box), rng.uniform(-box, box))

    def _pair(self, rng, kind):
        """Two matrices and the expected (criterion, classes, fixed points)."""
        if kind == "shared_axis":
            p, q = self._separated(rng)
            a = orc.loxodromic_about(p, q, cmath.rect(rng.uniform(1.5, 3),
                                                          rng.uniform(0, 2 * math.pi)))
            b = orc.rotation_about(p, q, rng.uniform(0.3, 2.8))
            return a, b, ("shared_axis", "loxodromic", "elliptic", (p, q), (p, q))
        if kind == "parabolic":
            p = self._point(rng)
            a = orc.parabolic_at(p, cmath.rect(rng.uniform(0.5, 2), rng.uniform(0, 6)))
            b = orc.parabolic_at(p, cmath.rect(rng.uniform(0.5, 2), rng.uniform(0, 6)))
            return a, b, ("shared_parabolic_point", "parabolic", "parabolic", (p,), (p,))
        if kind == "perpendicular":
            # The geodesics 0..inf and -1..1 meet at right angles; so do
            # their images under any Moebius map m.
            while True:
                m = self._matrix(rng)
                (a, b), (c, d) = m
                if min(abs(c), abs(d), abs(d - c), abs(d + c)) < 0.2:
                    continue
                ends = (b / d, a / c, orc.apply(m, -1), orc.apply(m, 1))
                gaps = [abs(x - y) for i, x in enumerate(ends) for y in ends[i + 1:]]
                if max(map(abs, ends)) < 4 and min(gaps) > 0.3:
                    break
            p, q, u, v = ends
            return (orc.rotation_about(p, q, math.pi), orc.rotation_about(u, v, math.pi),
                    ("perpendicular_pi_rotations", "elliptic", "elliptic", (p, q), (u, v)))
        while True:
            a, b = self._matrix(rng), self._matrix(rng)
            if min(abs(orc.det2(a)), abs(orc.det2(b))) > 0.1:
                return a, b, None

    def _matrix(self, rng):
        return ((self._point(rng, 1), self._point(rng, 1)),
                (self._point(rng, 1), self._point(rng, 1)))

    def _separated(self, rng):
        while True:
            p, q = self._point(rng), self._point(rng)
            if abs(p - q) > 0.5:
                return p, q


WORKLOADS = {w.name: w for w in (FamilySweep, DoubleNF, SubgroupFold, AlgebraMix)}
