"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion runs at its stated tolerance and within its stated time
budget; run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import random
import time
from fractions import Fraction

from geodouble.construction import (
    family_stats,
    is_admissible,
    min_n_for_ratio,
    verify_family,
)
from geodouble.doubling import Double, random_double_word
from geodouble.freegroups import SubgroupGraph
from geodouble.isometries import (
    CommutingCase,
    Isometry,
    commute,
    commuting_criterion,
)
from geodouble.presentations import (
    AuditCase,
    enumerate_audit_cases,
    rank_audit,
    smith_normal_form,
)

from oracles import (
    leftward_normal_form,
    make_elliptic,
    make_loxodromic,
    make_parabolic,
    minors_invariant_factors,
    random_isometry,
)


def report(number: int, elapsed: float, limit: float, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s < {limit:.0f}s) {detail}")


def test_criterion_1_family_invariants():
    worst = 0.0
    for n in (4, 5, 7, 8, 10, 11, 13):
        start = time.perf_counter()
        rep = verify_family(n)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert rep.passed, (n, rep.failures())
        assert elapsed < 1.0, f"n={n} took {elapsed:.2f}s"
    report(1, worst, 1, "family invariants for n in {4,5,7,8,10,11,13} (worst per-n time)")


def test_criterion_2_ratio_reproduction(capsys):
    start = time.perf_counter()
    count = 0
    for n in range(4, 10_001):
        if not is_admissible(n):
            continue
        st = family_stats(n)
        assert st.ratio_closed == Fraction(2 * n - 2, n + 3)
        assert st.ratio_cusped == Fraction(2 * n - 3, n + 4)
        assert st.ratio_closed < 2
        assert st.ratio_cusped < 2
        count += 1
    assert min_n_for_ratio(Fraction("0.1")) == 79

    # The same values through the command-line report.
    from geodouble.cli import main
    assert main(["--machine", "family", "report", "--n-min", "4",
                 "--n-max", "10000", "--epsilon", "0.1"]) == 0
    out = capsys.readouterr().out
    lines = set(out.splitlines())
    for n in (4, 100, 9998):
        assert f"row.{n}.ratio_closed={Fraction(2 * n - 2, n + 3)}" in lines
        assert f"row.{n}.ratio_cusped={Fraction(2 * n - 3, n + 4)}" in lines
    assert "check.all_ratios_below_two=pass" in lines
    assert "min_n_for_ratio=79" in lines

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, elapsed, 1, f"exact ratios for {count} admissible n <= 10^4; min n at eps=0.1 is 79")


def test_criterion_3_fixed_subgroup_property_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    instances = 0
    words_checked = 0
    discrepancies = 0
    while instances < 20:
        rank = rng.choice([2, 3])
        gens = []
        for _ in range(rng.randint(0, 4)):
            gens.append(tuple(rng.choice([s for s in range(-rank, rank + 1) if s])
                              for _ in range(rng.randint(1, 6))))
        dbl = Double.from_generators(gens, rank)
        instances += 1
        for _ in range(1000):
            w = random_double_word(rng, rank, dbl.subgroup,
                                   in_subgroup=rng.random() < 0.3)
            nf = dbl.normal_form(w)
            fixed = dbl.is_fixed(w)
            zero = nf.syllable_count == 0
            head, syls = leftward_normal_form(dbl, w)
            independent_member = len(syls) == 0
            if not (fixed == zero == independent_member):
                discrepancies += 1
            words_checked += 1
    elapsed = time.perf_counter() - start
    assert discrepancies == 0
    assert words_checked >= 20_000
    assert elapsed < 30.0
    report(3, elapsed, 30,
           f"{words_checked} words over {instances} subgroup instances, 0 discrepancies")


def test_criterion_4_covering_rank_formula():
    start = time.perf_counter()
    rng = random.Random(77)
    built = 0
    while built < 50:
        k = rng.randint(1, 3)
        n = rng.randint(1, 6)
        perms = [rng.sample(range(n), n) for _ in range(k)]
        adjacency = [dict() for _ in range(n)]
        for i, perm in enumerate(perms, start=1):
            for v, w in enumerate(perm):
                adjacency[v][i] = w
                adjacency[w][-i] = v
        try:
            graph = SubgroupGraph.from_adjacency(k, adjacency)
        except ValueError:
            continue  # disconnected draw
        assert graph.index() == n
        rank = graph.subgroup_rank()
        assert rank == n * (k - 1) + 1
        assert Fraction(rank + n - 1, n) == k
        assert graph.schreier_rank_check()
        built += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, elapsed, 10, f"{built} finite-index subgroups satisfy rank = n(k-1)+1 exactly")


def _constructed_pair(rng, case: CommutingCase):
    conj = random_isometry(rng)

    def rand_point():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    if case is CommutingCase.SHARED_PARABOLIC_POINT:
        p = rand_point()
        t1 = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        t2 = complex(rng.uniform(-2, -0.5), rng.uniform(-1, 1))
        a, b = make_parabolic(p, t1), make_parabolic(p, t2)
    elif case is CommutingCase.SHARED_AXIS:
        p, q = rand_point(), rand_point()
        while abs(p - q) < 0.5:
            q = rand_point()
        lam1 = rng.uniform(1.3, 2.5)
        a = make_loxodromic(p, q, lam1)
        if rng.random() < 0.5:
            b = make_loxodromic(p, q, rng.uniform(1.3, 2.5) * 1j ** rng.randint(0, 3))
            if abs(abs(b.trace()) ) < 1e-3:  # avoid an accidental half-turn pair
                b = make_loxodromic(p, q, 1.7)
        else:
            b = make_elliptic(p, q, rng.uniform(0.4, 2.0))
    else:
        a0 = Isometry(1j, 0, 0, -1j)
        b0 = Isometry(0, 1, -1, 0)
        a, b = a0, b0
    return conj @ a @ conj.inverse(), conj @ b @ conj.inverse()


def test_criterion_5_commuting_iff_suite():
    start = time.perf_counter()
    rng = random.Random(4096)
    tol = 1e-9

    pi_pair = (Isometry(1j, 0, 0, -1j), Isometry(0, 1, -1, 0))
    assert commute(*pi_pair, tol)
    assert commuting_criterion(*pi_pair, tol) is CommutingCase.PERPENDICULAR_PI_ROTATIONS

    cases = [CommutingCase.SHARED_PARABOLIC_POINT, CommutingCase.SHARED_AXIS,
             CommutingCase.PERPENDICULAR_PI_ROTATIONS]
    constructed = 0
    while constructed < 510:
        case = cases[constructed % 3]
        a, b = _constructed_pair(rng, case)
        assert commute(a, b, tol), case
        assert commuting_criterion(a, b, tol) is case
        constructed += 1

    generic = 0
    while generic < 500:
        a, b = random_isometry(rng), random_isometry(rng)
        if a.is_identity(1e-6) or b.is_identity(1e-6):
            continue
        if commuting_criterion(a, b, 1e-6) is not CommutingCase.NONE:
            continue  # within the rejection window of a criterion
        comm = a @ b @ a.inverse() @ b.inverse()
        if comm.is_identity(1e-6):
            continue
        assert not commute(a, b, tol)
        assert commuting_criterion(a, b, tol) is CommutingCase.NONE
        generic += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, elapsed, 10,
           f"{constructed} constructed commuting pairs tagged correctly, "
           f"{generic} generic pairs all non-commuting")


def test_criterion_6_smith_normal_form_oracle():
    start = time.perf_counter()
    rng = random.Random(606)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        assert smith_normal_form(matrix) == minors_invariant_factors(matrix)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, elapsed, 10, "200 random matrices match the gcd-of-minors oracle exactly")


def test_criterion_7_rank_audit_strictness():
    start = time.perf_counter()
    count = 0
    for case in enumerate_audit_cases(10, 5, 5):
        rep = rank_audit(case)
        assert rep.strict, case
        count += 1

    # The three quoted chains, intermediate values exact.
    sep = rank_audit(AuditCase(2, 1, 0, True, True))
    assert sep.steps[0].value == 2 + Fraction(2, 2)          # g + k/2
    assert sep.double_rank_lower_bound == 2 * (2 + Fraction(2, 2))
    assert sep.surface_group_rank == 2 * 2 + 2 - 1

    same = rank_audit(AuditCase(2, 1, 1, True, False, True))
    assert same.steps[0].value == 2 * 2 + 2 * 1 + 1 - 1       # 2g + 2m + l - 1
    assert same.double_rank_lower_bound == 2 * 2 + 3          # 2g + k
    assert same.surface_group_rank == 2 * 2 + 3 - 1

    diff = rank_audit(AuditCase(2, 1, 0, True, False, False))
    assert diff.steps[0].value == 2 * 2 + 2 * 1               # g(S1)+m+g(S2)+m

    nonor = rank_audit(AuditCase(3, 1, 1, False, False))
    assert nonor.steps[0].value == 3 - 1 + 2 * 1 + 1          # g - 1 + 2m + l
    assert nonor.steps[0].value == nonor.case.boundary_circles + 3 - 1

    closed_nonor = rank_audit(AuditCase(3, 0, 0, False, False))
    assert closed_nonor.double_rank_lower_bound == 3 + 1      # (g-1)+1 rounded, +1 cover
    assert closed_nonor.surface_group_rank == 3

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(7, elapsed, 5, f"{count} consistent cases all strict; quoted chains exact")
