"""Exact linear algebra over the rationals.

Matrices are row-major lists of rows of ``fractions.Fraction`` or ``int``.
Rank and determinant share one fraction-free (Bareiss) elimination on
integer rows, and the characteristic polynomial is Berkowitz's
division-free recursion on the integer matrix D m, D the common
denominator of m, so neither does Fraction arithmetic on the way.  The
squarefree split likewise scales its polynomial to a monic integer one
and takes its gcds by primitive remainder sequences; the other
polynomial helpers work over Fraction.
Hand-rolled rather than numpy because a float rank is not a rank: these
values feed invariants whose contracts promise integer or rational
answers.  Functions never mutate their arguments.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

Mat = Sequence[Sequence[Fraction | int]]


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


def charpoly(m: Mat) -> list[Fraction]:
    """Coefficients of det(xI - m), highest degree first (monic).

    Berkowitz's division-free recursion runs on the integer matrix D m,
    D the common denominator of m; chi_m(x) = D^-n chi_Dm(D x), so
    coefficient i of chi_m is c_i(D m) / D^i.  For a trailing principal
    block [[a, r], [c, B]], its characteristic polynomial is the
    lower-triangular Toeplitz matrix with first column
    (1, -a, -r c, -r B c, -r B^2 c, ...) times chi_B.  O(n^4) integer
    operations.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("characteristic polynomial of a non-square matrix")
    den = math.lcm(*(x.denominator for row in m for x in row))
    a = [[x.numerator * (den // x.denominator) for x in row] for row in m]
    p = [1]
    for k in range(n - 1, -1, -1):
        r, c = a[k][k + 1:], [row[k] for row in a[k + 1:]]
        b = [row[k + 1:] for row in a[k + 1:]]
        t = [1, -a[k][k]]
        for _ in range(n - k - 1):
            t.append(-sum(map(operator.mul, r, c)))
            c = [sum(map(operator.mul, row, c)) for row in b]
        p = [sum(t[i - j] * p[j] for j in range(min(i + 1, len(p))))
             for i in range(len(t))]
    return [Fraction(x, den ** i) for i, x in enumerate(p)]


# -- polynomial helpers (coefficients highest degree first) -------------------


def poly_derivative(p: Sequence[Fraction]) -> list[Fraction]:
    n = len(p) - 1
    if n <= 0:
        return [Fraction(0)]
    return [Fraction(c) * (n - i) for i, c in enumerate(p[:-1])]


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _strip(p: list[Fraction]) -> list[Fraction]:
    """p without leading zeros; the zero polynomial is [0]."""
    while len(p) > 1 and not p[0]:
        p = p[1:]
    return p or [Fraction(0)]


def poly_divmod(p: Sequence[Fraction], d: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder; a nonzero quotient has exactly
    deg p - deg d + 1 coefficients, trailing zeros included."""
    r = _strip([Fraction(c) for c in p])
    d = _strip([Fraction(c) for c in d])
    if not d[0]:
        raise ZeroDivisionError("polynomial division by zero")
    q: list[Fraction] = []
    while len(r) >= len(d):
        f = r[0] / d[0]
        q.append(f)
        r = [x - f * y for x, y in zip(r[1:], d[1:])] + r[len(d):]
    return q or [Fraction(0)], _strip(r)


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content, leading coefficient positive; p nonzero."""
    g = math.gcd(*p)
    return [x // (-g if p[0] < 0 else g) for x in p]


def _int_gcd(p: list[int], q: list[int]) -> list[int]:
    """The primitive gcd of two integer polynomials, p nonzero, with a
    positive leading coefficient, by a primitive remainder sequence: each
    pseudo-remainder lc(b)^k a mod b is divided by its content."""
    a = _primitive(p)
    b = _strip(q)
    while b[0]:
        b = _primitive(b)
        lead, rest, r = b[0], b[1:], a
        while len(r) >= len(b):
            f = r[0]
            r = [lead * x - f * y for x, y in zip(r[1:], rest)] + \
                [lead * x for x in r[len(b):]] if f else r[1:]
        a, b = b, _strip(r)
    return a


def _divide_monic(p: list[int], d: list[int]) -> list[int]:
    """p / d for integer polynomials with d monic and dividing p; the
    quotient has deg p - deg d + 1 coefficients."""
    r = list(p)
    for i in range(len(p) - len(d) + 1):
        f = r[i]
        if f:
            for j in range(1, len(d)):
                r[i + j] -= f * d[j]
    return r[:len(p) - len(d) + 1]


def poly_squarefree(f: Sequence[Fraction]) -> list[list[Fraction]]:
    """Yun's squarefree split of a monic f of positive degree.

    Returns [P_1, P_2, ...] with f = prod P_k^k, each P_k monic, squarefree
    and holding the roots of multiplicity exactly k ([1] when there are
    none).  With b = f / gcd(f, f') and c = f' / gcd(f, f'), each step
    takes P = gcd(b, c - b') and divides it out of b and c - b'.

    The split runs on integers: with D the common denominator of f,
    F(x) = D^n f(x / D) is monic with integer coefficients, so by Gauss's
    lemma every gcd and every P_k of F is too.  Each gcd is the primitive
    part of the last remainder of a primitive remainder sequence, each
    division is integer long division by a monic divisor, and coefficient
    i of F's P_k is D^i times that of f's.
    """
    f = [Fraction(c) for c in f]
    if f[0] != 1:
        raise ValueError("squarefree split of a polynomial that is not monic")
    den = math.lcm(*(c.denominator for c in f))
    big = [c.numerator * (den ** i // c.denominator) for i, c in enumerate(f)]
    df = [c * (len(big) - 1 - i) for i, c in enumerate(big[:-1])] or [0]
    a = _int_gcd(big, df)
    b, c = _divide_monic(big, a), _divide_monic(df, a)
    split = []
    while len(b) > 1:
        # Before P_i is split off, b = prod_{j>=i} P_j and
        # c = sum_{j>=i} (j - i + 1) P_j' b / P_j, so
        # d = sum_{j>i} (j - i) P_j' b / P_j: zero when b = P_i, else of
        # degree deg b - 1 with a positive leading coefficient.
        n = len(b) - 1
        d = [x - y * (n - i) for i, (x, y) in enumerate(zip(c, b))]
        a = _int_gcd(b, d)
        split.append([Fraction(x, den ** i) for i, x in enumerate(a)])
        b, c = _divide_monic(b, a), _divide_monic(d, a)
    return split


def poly_resultant(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Res(a, b) = lc(a)^deg b * prod of b over the roots of a.

    Euclidean recursion: with r = a mod b,
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r), down
    to a constant b, where Res(a, b) = b^deg a.
    """
    a = _strip([Fraction(c) for c in a])
    b = _strip([Fraction(c) for c in b])
    value = Fraction(1)
    while len(b) > 1:
        r = poly_divmod(a, b)[1]
        if not r[0]:
            return Fraction(0)
        if (len(a) - 1) * (len(b) - 1) % 2:
            value = -value
        value *= b[0] ** (len(a) - len(r))
        a, b = b, r
    return value * b[0] ** (len(a) - 1)
