"""Exact linear algebra over the rationals.

Everything here works on lists of lists of ``fractions.Fraction`` (or ints,
which Fraction arithmetic absorbs).  The point of hand-rolling these rather
than calling numpy is exactness: ranks, nullspaces and characteristic
polynomials feed invariant computations whose contracts promise integer or
rational answers, and a float rank is not a rank.

Matrices are row-major.  Vectors are plain lists.  Functions never mutate
their arguments.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vec = Sequence[Fraction | int]
Mat = Sequence[Sequence[Fraction | int]]


def _frac_rows(m: Mat) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


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


def rref(m: Mat) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and the list of pivot column indices."""
    a = _frac_rows(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Mat) -> int:
    if not m:
        return 0
    return len(rref(m)[1])


def nullspace(m: Mat) -> list[list[Fraction]]:
    """Basis of the right nullspace, one vector per free column."""
    if not m:
        return []
    red, pivots = rref(m)
    cols = len(m[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def in_span(v: Vec, basis: Mat) -> bool:
    """Whether v lies in the row span of basis."""
    rows = [list(map(Fraction, row)) for row in basis]
    base_rank = rank(rows) if rows else 0
    return rank(rows + [list(map(Fraction, v))]) == base_rank


def det(m: Mat) -> Fraction:
    a = _frac_rows(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        inv = Fraction(1) / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


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

