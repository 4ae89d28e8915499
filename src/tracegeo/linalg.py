"""Exact linear algebra over the rationals.

Matrices are row-major lists of rows of ``fractions.Fraction`` or ``int``.
Rank and determinant share one fraction-free (Bareiss) elimination on
integer rows, so integer input never becomes a Fraction; the
characteristic polynomial and the polynomial helpers work over Fraction.
Hand-rolled rather than numpy because a float rank is not a rank: these
values feed invariants whose contracts promise integer or rational
answers.  Functions never mutate their arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Mat = Sequence[Sequence[Fraction | int]]


def _frac_rows(m: Mat) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


def mat_mul(a: Mat, b: Mat) -> list[list[Fraction]]:
    n, k = len(a), len(a[0])
    if len(b) != k:
        raise ValueError("inner dimension mismatch")
    m = len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            c = Fraction(ai[t])
            if c == 0:
                continue
            bt = b[t]
            row = out[i]
            for j in range(m):
                row[j] += c * Fraction(bt[j])
    return out


def _bareiss(m: Mat) -> tuple[int, Fraction]:
    """Rank of m and, when m is square, its determinant (else 0).

    Each row is first scaled to integers by the lcm of its denominators
    (rows that are all int are copied as they are).  Bareiss's step
    a_ij <- (p a_ij - a_ic a_rj) / p_prev then divides exactly, so every
    entry stays an integer minor of the scaled matrix and the last pivot
    of a full-rank square matrix is its determinant.
    """
    a: list[list[int]] = []
    scale = 1
    for row in m:
        if all(type(x) is int for x in row):
            a.append(list(row))
        else:
            fr = [Fraction(x) for x in row]
            den = math.lcm(*(x.denominator for x in fr))
            a.append([x.numerator * (den // x.denominator) for x in fr])
            scale *= den
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r, sign, prev = 0, 1, 1
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        ar = a[r]
        p = ar[c]
        for i in range(r + 1, rows):
            f = a[i][c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], ar)]
        prev = p
        r += 1
    full_square = r == rows == cols
    return r, Fraction(sign * prev, scale) if full_square else Fraction(0)


def rank(m: Mat) -> int:
    return _bareiss(m)[0]


def det(m: Mat) -> Fraction:
    if any(len(row) != len(m) for row in m):
        raise ValueError("determinant of a non-square matrix")
    return _bareiss(m)[1]


# -- characteristic polynomial ------------------------------------------------
#
# Exact Hessenberg reduction followed by the standard recurrence.  Both the
# row operation and the matching inverse column operation are applied, so the
# reduction is a similarity and the characteristic polynomial is preserved.
# O(n^3) Fraction operations.


def charpoly(m: Mat) -> list[Fraction]:
    """Coefficients of det(xI - m), highest degree first (monic)."""
    a = _frac_rows(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("characteristic polynomial of a non-square matrix")
    # Hessenberg reduction.
    for c in range(n - 2):
        pivot = next((i for i in range(c + 1, n) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            a[c + 1], a[pivot] = a[pivot], a[c + 1]
            for row in a:
                row[c + 1], row[pivot] = row[pivot], row[c + 1]
        inv = Fraction(1) / a[c + 1][c]
        for i in range(c + 2, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c + 1])]
                for row in a:
                    row[c + 1] += f * row[i]
    # Recurrence on leading principal minors of (xI - H).
    polys: list[list[Fraction]] = [[Fraction(1)]]  # p_0 = 1
    for k in range(1, n + 1):
        # p_k = (x - h[k-1][k-1]) p_{k-1} - sum over trailing products.
        prev = polys[k - 1]
        pk = [Fraction(0)] * (k + 1)
        for i, c in enumerate(prev):
            pk[i] += c
            pk[i + 1] -= c * a[k - 1][k - 1]
        prod = Fraction(1)
        for j in range(k - 1, 0, -1):
            prod *= a[j][j - 1]
            if prod == 0:
                break
            term = [prod * a[j - 1][k - 1] * c for c in polys[j - 1]]
            for i, c in enumerate(term):
                pk[k - len(term) + 1 + i] -= c
        polys.append(pk)
    return polys[n]


# -- polynomial helpers (coefficients highest degree first) -------------------


def poly_derivative(p: Sequence[Fraction]) -> list[Fraction]:
    n = len(p) - 1
    if n <= 0:
        return [Fraction(0)]
    return [Fraction(c) * (n - i) for i, c in enumerate(p[:-1])]


def poly_divmod(p: Sequence[Fraction], d: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    p = [Fraction(c) for c in p]
    d = [Fraction(c) for c in d]
    while d and d[0] == 0:
        d = d[1:]
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    q: list[Fraction] = []
    r = p[:]
    while len(r) >= len(d) and any(c != 0 for c in r):
        f = r[0] / d[0]
        q.append(f)
        for i in range(len(d)):
            r[i] -= f * d[i]
        assert r[0] == 0
        r = r[1:]
    if not q:
        q = [Fraction(0)]
    while len(r) > 1 and r[0] == 0:
        r = r[1:]
    if not r:
        r = [Fraction(0)]
    return q, r


def poly_gcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd via the Euclidean algorithm."""
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    while any(c != 0 for c in b):
        _, r = poly_divmod(a, b)
        a, b = b, r
    while len(a) > 1 and a[0] == 0:
        a = a[1:]
    if a and a[0] != 0:
        lead = a[0]
        a = [c / lead for c in a]
    return a

