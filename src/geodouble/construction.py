"""The cyclic n-tetrahedron gluing family and its rank bookkeeping.

For every n > 3 with n not divisible by 3, take n copies of the model
tetrahedron and glue, cyclically in the index i (mod n),

    face 132 of tetrahedron i  to  face 453 of tetrahedron i+1,
    face 264 of tetrahedron i  to  face 516 of tetrahedron i+1,

matching the listed edge triples positionally.  The quotient has exactly
two edge classes of valence 3n, one vertex class, and is orientable; the
vertex link is a single orientable surface of genus n-1, and the complex
is a genus-(n+1) handlebody with two 2-handles attached.

The rank table built on top of this family is exact rational arithmetic:
the closed variant compares a fixed-subgroup rank of 2n-2 against the
rank bound n+3, the cusped variant 2n-3 against n+4, and both ratios
approach (but never reach) 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .triangulation import (
    FACE_NAMES,
    GluingScheme,
    boundary_surfaces,
    dihedral_report,
    glue,
    handle_structure,
)


class InadmissibleFamilyError(ValueError):
    """n outside the family: need n > 3 and n not divisible by 3."""


def is_admissible(n: int) -> bool:
    return n > 3 and n % 3 != 0


def _check_admissible(n: int) -> None:
    if not isinstance(n, int) or not is_admissible(n):
        raise InadmissibleFamilyError(
            f"n={n!r} is not admissible (need an integer n > 3 with 3 not dividing n)")


def family_scheme(n: int) -> GluingScheme:
    """The closed scheme with 2n pairings described in the module docstring."""
    _check_admissible(n)
    # The columns, sorted by face a: tetrahedron 1 holds the lesser face of
    # four pairings, its two with tetrahedron 2 and the two that close the
    # cycle from n; each i in 2..n-1 holds two, with i+1; n holds none.
    # Valid by construction: each of the 4n faces is paired exactly once.
    f132, f264, f453, f516 = map(FACE_NAMES.index, ("132", "264", "453", "516"))
    inner = range(2, n)
    return GluingScheme._from_columns(n, (
        (1, 1, 1, 1, *(i for i in inner for _ in (0, 1))),
        (f132, f264, f453, f516) + (f132, f264) * (n - 2),
        (2, 2, n, n, *(i + 1 for i in inner for _ in (0, 1))),
        (f453, f516, f132, f264) + (f453, f516) * (n - 2),
        (0,) * (2 * n)))


@dataclass(frozen=True)
class FamilyStats:
    """Exact rank bookkeeping for one family member.

    The cusped variant removes a curve from the boundary; only its
    arithmetic consequences are tracked here: the fixed-subgroup rank drops
    to 2n-3 and the rank bound becomes strict below n+4 (stored as n+4;
    reports print the "< n+4" form).
    """

    n: int
    handlebody_genus: int
    boundary_genus: int
    rank_upper_closed: int
    fix_rank_closed: int
    ratio_closed: Fraction
    rank_upper_cusped: int
    fix_rank_cusped: int
    ratio_cusped: Fraction


def family_ranks(n: int) -> tuple[int, int, int, int, int]:
    """Boundary genus, closed bound and fix rank, cusped bound and fix rank; n unchecked."""
    return n - 1, n + 3, 2 * n - 2, n + 4, 2 * n - 3


def family_stats(n: int) -> FamilyStats:
    _check_admissible(n)
    boundary_genus, bound, fix, cusped_bound, cusped_fix = family_ranks(n)
    return FamilyStats(
        n=n,
        handlebody_genus=n + 1,
        boundary_genus=boundary_genus,
        rank_upper_closed=bound,
        fix_rank_closed=fix,
        ratio_closed=Fraction(fix, bound),
        rank_upper_cusped=cusped_bound,
        fix_rank_cusped=cusped_fix,
        ratio_cusped=Fraction(cusped_fix, cusped_bound),
    )


@dataclass(frozen=True)
class FamilyCheck:
    name: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class FamilyReport:
    n: int
    checks: tuple[FamilyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_family(n: int) -> FamilyReport:
    """Glue the family scheme and check every claimed invariant.

    Each failed check is reported by name; nothing is adjusted silently if
    the counts come out differently than claimed.
    """
    stats = family_stats(n)
    complex = glue(family_scheme(n))
    boundary = boundary_surfaces(complex)
    genus, two_handles = handle_structure(complex)
    dihedral = dihedral_report(complex)

    checks = [
        FamilyCheck("edge_class_count", 2, len(complex.valences)),
        FamilyCheck("edge_class_valences", (3 * n, 3 * n), tuple(complex.valences)),
        FamilyCheck("vertex_class_count", 1, complex.vertex_class_count),
        FamilyCheck("orientable", True, complex.orientable),
        FamilyCheck("boundary_component_count", 1, len(boundary.components)),
        FamilyCheck("boundary_orientable", True,
                    all(c.orientable for c in boundary.components)),
        FamilyCheck("boundary_genus", stats.boundary_genus,
                    boundary.components[0].genus if boundary.components else None),
        FamilyCheck("handlebody_genus", stats.handlebody_genus, genus),
        FamilyCheck("two_handle_count", 2, two_handles),
        FamilyCheck("dihedral_angle_degrees", (Fraction(360, 3 * n),) * 2,
                    tuple(d.angle_degrees for d in dihedral)),
        FamilyCheck("dihedral_admissible", (True, True),
                    tuple(d.admissible for d in dihedral)),
    ]
    return FamilyReport(n, tuple(checks))


def min_n_for_ratio(epsilon: Rational | float | str) -> int:
    """Smallest admissible n with (2n-2)/(n+3) > 2 - epsilon, exactly.

    Solving the inequality gives n > 8/eps - 3; the answer is the first
    admissible integer past that bound.  Decimal strings and floats are
    converted exactly to rationals before comparing.
    """
    try:
        eps = Fraction(epsilon)
    except ZeroDivisionError:
        raise ValueError(f"epsilon {epsilon!r} has a zero denominator") from None
    if not 0 < eps < 2:
        raise ValueError(f"epsilon must lie in (0, 2), got {eps}")
    n = int(8 / eps - 3)
    while True:
        n += 1
        _, bound, fix, _, _ = family_ranks(n)
        if is_admissible(n) and Fraction(fix, bound) > 2 - eps:
            return n
