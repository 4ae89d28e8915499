"""Independent brute-force routes used to cross-check the main algorithms.

Nothing here shares code with the implementations under test: parabolic
subsets are found by scanning every root subset, group orders by counting
the first rows of a matrix (for n = 3, unordered pairs of unimodular rows
up to unit scaling) whose cofactors are coprime to the level,
discriminants by eigenvalue products and by complement determinants of
integer matrix products.  The subset scan and the group-order count
refuse inputs above fixed sizes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import DomainError, ResourceLimitError
from .root_datum import RootSystem

BRUTE_FORCE_ROOT_LIMIT = 14
BRUTE_FORCE_ROW_LIMIT = 2 ** 15


def brute_force_parabolic_count(rs: RootSystem) -> int:
    """Count closed subsets S with S u -S = R by scanning all subsets.

    Reads rs.roots only: the negation and sum tables are built here from
    the vectors."""
    roots = rs.roots
    n = len(roots)
    if n > BRUTE_FORCE_ROOT_LIMIT:
        raise ResourceLimitError(
            f"brute force scan over 2^{n} subsets refused")
    index = {r: i for i, r in enumerate(roots)}
    neg = [index[tuple(-x for x in r)] for r in roots]
    add = [[index.get(tuple(a + b for a, b in zip(r, t)), -1) for t in roots]
           for r in roots]
    count = 0
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if any(mask >> i & 1 == 0 and mask >> neg[i] & 1 == 0
               for i in range(n)):
            continue
        closed = True
        for i, j in itertools.combinations(members, 2):
            s = add[i][j]
            if s >= 0 and mask >> s & 1 == 0:
                closed = False
                break
        if closed:
            count += 1
    return count


def sl_group_order(n: int, N: int) -> int:
    """|SL(n, Z/N)| by counting matrices with determinant 1 mod N.

    The first n - 1 rows are enumerated.  The determinant is linear in the
    last row c: det = c . m, with m the cofactor vector of those rows, so
    c . m = 1 (mod N) has N^(n-1) solutions c when gcd(m, N) = 1 and none
    otherwise.

    For n = 3 the two first rows are taken up to unit scaling.  For units
    u and v mod N, (u r1) x (v r2) = uv (r1 x r2) and gcd(uv m, N) =
    gcd(m, N), so whether a pair counts depends on each row only through
    its class {u r : gcd(u, N) = 1}.  Only unimodular rows (gcd(r, N) = 1)
    can count: a prime dividing N and every entry of a row divides every
    entry of its cross product with any row.  cross(r2, r1) = -cross(r1,
    r2), so each unordered pair of distinct classes is tested once and,
    when it counts, adds twice the product of the two class sizes.  A
    class paired with itself has cross product 0, which counts only at
    N = 1.  Levels with more than BRUTE_FORCE_ROW_LIMIT rows N^n are
    refused.
    """
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise DomainError(f"level must be a positive integer, got {N!r}")
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"matrix size must be an integer >= 2, got {n!r}")
    if n > 3:
        raise ResourceLimitError(
            "matrix counting is implemented for n in {2, 3}")
    if N ** n > BRUTE_FORCE_ROW_LIMIT:
        raise ResourceLimitError(
            f"brute force count at level {N} refused: {N}^{n} = {N ** n} "
            f"rows, the limit is {BRUTE_FORCE_ROW_LIMIT}")
    rows = itertools.product(range(N), repeat=n)
    if n == 2:
        count = sum(1 for a, b in rows if math.gcd(a, b, N) == 1)
    else:
        units = [u for u in range(N) if math.gcd(u, N) == 1]
        classes = []
        seen = set()
        for r in rows:
            if r not in seen and math.gcd(*r, N) == 1:
                scaled = {tuple(u * x % N for x in r) for u in units}
                seen |= scaled
                classes.append((r, len(scaled)))
        count = 2 * sum(w1 * w2 for ((a, b, c), w1), ((d, e, f), w2)
                        in itertools.combinations(classes, 2)
                        if math.gcd(b * f - c * e, c * d - a * f,
                                    a * e - b * d, N) == 1)
        if N == 1:
            count += sum(w * w for _, w in classes)
    return count * N ** (n - 1)


def diagonal_discriminant(diag: Sequence[Fraction]) -> Fraction:
    """Product of (1 - x/y) over ordered pairs of distinct diagonal
    entries with x != y."""
    value = Fraction(1)
    for x in diag:
        for y in diag:
            if x != y:
                value *= 1 - x / y
    return value


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def complement_determinant(g: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """det(1 - Ad(g)) restricted to the matrix units the conjugation
    action moves, for diagonal g.

    The action is computed by honest integer products G E H on each unit
    E, with G = a g and H = b g^{-1} integral, so Ad(g) E = G E H / (ab).
    The moved units span the complement of the centralizer, and there
    det(ab - G E H) = (ab)^size det(1 - Ad(g)): one Fraction at the end.
    """
    n = len(g)
    diag = [Fraction(g[i][i]) for i in range(n)]
    a = math.lcm(*(Fraction(x).denominator for row in g for x in row))
    b = math.lcm(*(x.numerator for x in diag))
    big_g = [[int(Fraction(x) * a) for x in row] for row in g]
    big_h = [[b * x.denominator // x.numerator if i == j else 0
              for j in range(n)] for i, x in enumerate(diag)]
    moved = [(i, j) for i in range(n) for j in range(n)
             if i != j and diag[i] != diag[j]]
    size, ab = len(moved), a * b
    m = [[0] * size for _ in range(size)]
    for col, (k, l) in enumerate(moved):
        unit = [[0] * n for _ in range(n)]
        unit[k][l] = 1
        image = _mat_mul(_mat_mul(big_g, unit), big_h)
        for row, (i, j) in enumerate(moved):
            m[row][col] = (ab if row == col else 0) - image[i][j]
    return Fraction(linalg.det(m), ab ** size)
