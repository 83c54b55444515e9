"""Input generators and independent output checks for the benchmark.

Nothing here imports the package: words, permutation actions, integer
linear algebra and 2x2 complex matrices are recomputed independently, so a
check that passes does not merely repeat the code under test.  Every
routine is polynomial, so the checks keep up with the workloads' sizes.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd, prod

# -- words and permutation actions -------------------------------------------


def random_reduced_word(rng, rank: int, length: int) -> tuple[int, ...]:
    letters = [s for s in range(-rank, rank + 1) if s]
    out: list[int] = []
    while len(out) < length:
        s = rng.choice(letters)
        if not out or out[-1] != -s:
            out.append(s)
    return tuple(out)


def reduce_word(word) -> tuple[int, ...]:
    out: list[int] = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def invert(word) -> tuple[int, ...]:
    return tuple(-s for s in reversed(word))


def word_text(word) -> str:
    """Letters a, b, ... for generators and A, B, ... for inverses; 1 is empty."""
    if not word:
        return "1"
    return "".join(chr(96 + s) if s > 0 else chr(64 - s) for s in word)


def transitive_perms(rng, degree: int, rank: int) -> list[list[int]]:
    """Random permutations of 0..degree-1, redrawn until they act transitively."""
    while True:
        perms = []
        for _ in range(rank):
            p = list(range(degree))
            rng.shuffle(p)
            perms.append(p)
        seen = {0}
        todo = [0]
        while todo:
            v = todo.pop()
            for p in perms:
                w = p[v]
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        # The orbit of 0 under the positive letters alone is closed under
        # inverses too, since the permutations have finite order.
        if len(seen) == degree:
            return perms


def act(perms: list[list[int]], inverse: list[list[int]], word, point: int = 0) -> int:
    """Image of ``point`` when the letters of ``word`` act on the right."""
    for s in word:
        point = perms[s - 1][point] if s > 0 else inverse[-s - 1][point]
    return point


def inverse_perms(perms: list[list[int]]) -> list[list[int]]:
    out = []
    for p in perms:
        q = [0] * len(p)
        for v, w in enumerate(p):
            q[w] = v
        out.append(q)
    return out


def schreier_data(perms: list[list[int]]) -> tuple[list[tuple[int, ...]], list[dict[int, int]]]:
    """Schreier generators of the stabiliser of 0, and the Schreier graph.

    The generators come from a breadth-first spanning tree: one word
    t(v) s t(w)^-1 per edge v --s--> w outside the tree.  The graph lists
    both directions of every edge, as ``SubgroupGraph.from_adjacency`` wants.
    """
    rank, degree = len(perms), len(perms[0])
    inverse = inverse_perms(perms)
    labels = list(range(1, rank + 1)) + list(range(-1, -rank - 1, -1))
    tree: dict[int, tuple[int, ...]] = {0: ()}
    order = [0]
    for v in order:
        for s in labels:
            w = act(perms, inverse, (s,), v)
            if w not in tree:
                tree[w] = tree[v] + (s,)
                order.append(w)
    gens = []
    adjacency: list[dict[int, int]] = [{} for _ in range(degree)]
    for v in range(degree):
        for s in range(1, rank + 1):
            w = perms[s - 1][v]
            adjacency[v][s] = w
            adjacency[w][-s] = v
            if tree[w] != tree[v] + (s,):
                g = reduce_word(tree[v] + (s,) + invert(tree[w]))
                if g:
                    gens.append(g)
    return gens, adjacency


# -- integer matrices -----------------------------------------------------------


def bareiss_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def rational_rank(matrix) -> int:
    """Rank over the rationals, by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix if any(row)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / p[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def two_column_index(rows) -> int:
    """Index of the lattice spanned by integer rows (x, y) in Z^2, 0 if it
    has rank below 2.  This is the product of the invariant factors."""
    a = b = c = 0  # basis (a, b), (0, c) in Hermite form
    for p, q in rows:
        if p:
            g = gcd(a, p)
            s, t = _bezout(a, p)
            # (g, s*b + t*q) spans the first column; the other combination
            # has first coordinate 0 and feeds the second basis vector.
            c = gcd(c, (p // g) * b - (a // g) * q)
            a, b = g, s * b + t * q
        else:
            c = gcd(c, q)
        if c:
            b %= c
    return abs(a * c)


def _bezout(x: int, y: int) -> tuple[int, int]:
    old_r, r, old_s, s, old_t, t = x, y, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def exponent_matrix(relators, generators: int) -> list[list[int]]:
    rows = []
    for r in relators:
        row = [0] * generators
        for s in r:
            row[abs(s) - 1] += 1 if s > 0 else -1
        rows.append(row)
    return rows


def divisibility_problem(factors) -> str | None:
    if any(d <= 0 for d in factors):
        return f"non-positive invariant factor in {factors}"
    for x, y in zip(factors, factors[1:]):
        if y % x:
            return f"chain breaks: {x} does not divide {y}"
    return None


def snf_problem(matrix, factors) -> str | None:
    """Why ``factors`` cannot be the invariant factors of ``matrix``, or None."""
    problem = divisibility_problem(factors)
    if problem:
        return problem
    rank = rational_rank(matrix)
    if len(factors) != rank:
        return f"{len(factors)} factors but rational rank {rank}"
    if matrix and len(matrix) == len(matrix[0]):
        det = abs(bareiss_det(matrix))
        if det and prod(factors) != det:
            return f"product of factors {prod(factors)} != |det| {det}"
    return None


def abelian_problem(matrix, generators: int, rank: int, torsion) -> str | None:
    """Check an abelianization (free rank, torsion) against its relator matrix."""
    expected_rank = generators - (rational_rank(matrix) if matrix else 0)
    if rank != expected_rank:
        return f"free rank {rank}, expected {expected_rank}"
    if any(t <= 1 for t in torsion):
        return f"torsion factor <= 1 in {torsion}"
    problem = divisibility_problem(torsion)
    if problem:
        return problem
    if matrix and len(matrix) == generators:
        det = abs(bareiss_det(matrix))
        if det and prod(torsion) != det:
            return f"torsion order {prod(torsion)} != |det| {det}"
    return None


# -- surfaces -------------------------------------------------------------------


def surface_rank(genus: int, circles: int, orientable: bool) -> int:
    if orientable:
        return 2 * genus + circles - 1 if circles else 2 * genus
    return genus + circles - 1 if circles else genus


# -- 2x2 complex matrices (Moebius transformations) ------------------------------


def mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def det2(m) -> complex:
    (a, b), (c, d) = m
    return a * d - b * c


def inv(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def conj(frame, core):
    return mul(mul(frame, core), inv(frame))


def frame(p: complex, q: complex):
    """Sends 0 to p and infinity to q."""
    return ((q, p), (1, 1))


def rotation_about(p: complex, q: complex, angle: float):
    half = cmath.exp(0.5j * angle)
    return conj(frame(p, q), ((half, 0), (0, 1 / half)))


def loxodromic_about(p: complex, q: complex, eigenvalue: complex):
    return conj(frame(p, q), ((eigenvalue, 0), (0, 1 / eigenvalue)))


def parabolic_at(p: complex, translation: complex):
    return conj(((p, 1), (1, 0)), ((1, translation), (0, 1)))


def apply(m, z: complex) -> complex:
    (a, b), (c, d) = m
    return (a * z + b) / (c * z + d)


def chordal(p: complex, q: complex) -> float:
    if cmath.isinf(p) or cmath.isinf(q):
        if cmath.isinf(p) and cmath.isinf(q):
            return 0.0
        z = q if cmath.isinf(p) else p
        return 2 / math.sqrt(1 + abs(z) ** 2)
    return 2 * abs(p - q) / math.sqrt((1 + abs(p) ** 2) * (1 + abs(q) ** 2))


def same_points(found, expected, tol: float = 1e-6) -> bool:
    """Do two lists of boundary points agree as sets, within chordal ``tol``?

    Near-duplicates count once: a parabolic's single fixed point may come
    back as two points a rounding error apart."""
    def covered(xs, ys):
        return all(any(chordal(x, y) <= tol for y in ys) for x in xs)
    return covered(found, expected) and covered(expected, found)
