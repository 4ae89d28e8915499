"""Exact linear algebra and polynomials on integers.

Matrices are row-major lists of rows of ``int``, and nothing here makes a
``Fraction``: rank and determinant share one fraction-free (Bareiss)
elimination that refuses any other entry type, and the characteristic
polynomial is Berkowitz's division-free recursion.  Polynomials are lists
of integer coefficients, highest degree first: the squarefree split takes
its gcds by primitive remainder sequences and the resultant is the
subresultant sequence, both on one exact pseudo-remainder.  A caller with
a rational matrix scales its rows to integers first.  Hand-rolled rather
than numpy because a float rank is not a rank: these values feed
invariants whose contracts promise integer or rational answers.
Functions never mutate their arguments.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence


def _bareiss(m: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Rank of the integer matrix m and, when m is square, its determinant
    (else 0).  Bareiss's step a_ij <- (p a_ij - a_ic a_rj) / p_prev
    divides exactly (Math. Comp. 22, 1968), so every entry stays an integer
    minor of m and the last pivot of a full-rank square m is its
    determinant.  The floor division would truncate a Fraction or a float,
    so an entry whose type is not exactly int (bool included) raises
    TypeError."""
    a: list[list[int]] = []
    for row in m:
        if not all(type(x) is int for x in row):
            bad = next(x for x in row if type(x) is not int)
            raise TypeError("rank and det take integer matrices; got an "
                            f"entry of type {type(bad).__name__}")
        a.append(list(row))
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
    return r, sign * prev if r == rows == cols else 0


def rank(m: Sequence[Sequence[int]]) -> int:
    return _bareiss(m)[0]


def det(m: Sequence[Sequence[int]]) -> int:
    if any(len(row) != len(m) for row in m):
        raise ValueError("determinant of a non-square matrix")
    return _bareiss(m)[1]


def charpoly(m: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of det(xI - m) for an integer matrix m, highest degree
    first (monic, integer).

    Berkowitz's division-free recursion: for a trailing principal block
    [[a, r], [c, B]], its characteristic polynomial is the
    lower-triangular Toeplitz matrix with first column
    (1, -a, -r c, -r B c, -r B^2 c, ...) times chi_B.  O(n^4) integer
    operations.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("characteristic polynomial of a non-square matrix")
    p = [1]
    for k in range(n - 1, -1, -1):
        r, c = m[k][k + 1:], [row[k] for row in m[k + 1:]]
        b = [row[k + 1:] for row in m[k + 1:]]
        t = [1, -m[k][k]]
        for _ in range(n - k - 1):
            t.append(-sum(map(operator.mul, r, c)))
            c = [sum(map(operator.mul, row, c)) for row in b]
        p = [sum(t[i - j] * p[j] for j in range(min(i + 1, len(p))))
             for i in range(len(t))]
    return p


# -- integer polynomial helpers (coefficients highest degree first) ----------


def poly_derivative(p: Sequence[int]) -> list[int]:
    return [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])] or [0]


def poly_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _strip(p: list[int]) -> list[int]:
    """p without leading zeros; the zero polynomial is [0]."""
    while len(p) > 1 and not p[0]:
        p = p[1:]
    return p or [0]


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content, leading coefficient positive; p nonzero."""
    g = math.gcd(*p)
    return [x // (-g if p[0] < 0 else g) for x in p]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b, b nonzero;
    a itself when deg a < deg b."""
    lead, rest, r = b[0], b[1:], a
    for _ in range(len(a) - len(b) + 1):
        f = r[0]
        r = [lead * x - f * y for x, y in zip(r[1:], rest)] + \
            [lead * x for x in r[len(b):]]
    return _strip(r)


def _int_gcd(p: list[int], q: list[int]) -> list[int]:
    """The primitive gcd of p and q, p nonzero, with a positive leading
    coefficient, by a primitive remainder sequence: each pseudo-remainder
    is divided by its content."""
    a = _primitive(p)
    b = _strip(q)
    while b[0]:
        b = _primitive(b)
        a, b = b, _prem(a, b)
    return a


def _divide_monic(p: list[int], d: list[int]) -> list[int]:
    """p / d for d monic and dividing p; the quotient has
    deg p - deg d + 1 coefficients."""
    r = list(p)
    for i in range(len(p) - len(d) + 1):
        f = r[i]
        if f:
            for j in range(1, len(d)):
                r[i + j] -= f * d[j]
    return r[:len(p) - len(d) + 1]


def poly_squarefree(f: Sequence[int]) -> list[list[int]]:
    """Yun's squarefree split of a monic integer f of positive degree.

    Returns [P_1, P_2, ...] with f = prod P_k^k, each P_k monic, squarefree
    and holding the roots of multiplicity exactly k ([1] when there are
    none).  With b = f / gcd(f, f') and c = f' / gcd(f, f'), each step
    takes P = gcd(b, c - b') and divides it out of b and c - b'.  By
    Gauss's lemma every gcd and every P_k is monic with integer
    coefficients: each gcd is the primitive part of the last remainder
    of a primitive remainder sequence, and each division is integer long
    division by a monic divisor.
    """
    if f[0] != 1:
        raise ValueError("squarefree split of a polynomial that is not monic")
    df = poly_derivative(f)
    a = _int_gcd(f, df)
    b, c = _divide_monic(f, a), _divide_monic(df, a)
    split = []
    while len(b) > 1:
        # Before P_i is split off, b = prod_{j>=i} P_j and
        # c = sum_{j>=i} (j - i + 1) P_j' b / P_j, so
        # d = sum_{j>i} (j - i) P_j' b / P_j: zero when b = P_i, else of
        # degree deg b - 1 with a positive leading coefficient.
        n = len(b) - 1
        d = [x - y * (n - i) for i, (x, y) in enumerate(zip(c, b))]
        a = _int_gcd(b, d)
        split.append(a)
        b, c = _divide_monic(b, a), _divide_monic(d, a)
    return split


def poly_resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Res(a, b) = lc(a)^deg b * prod of b over the roots of a, for integer
    polynomials, by the subresultant sequence (Cohen, Alg. 3.3.7).

    Each step replaces (a, b) by (b, prem(a, b) / (g h^delta)), with
    delta = deg a - deg b, g the leading coefficient of the step before's
    b and h <- h^(1 - delta) g^delta; both divisions are exact.  When b is
    a constant, Res(a, b) = s h^(1 - deg a) b^deg a, s the product of
    (-1)^(deg a deg b) over the steps and the first swap, if any, that
    puts the longer polynomial first.
    """
    a, b = _strip(list(a)), _strip(list(b))
    sign, g, h = 1, 1, 1
    if len(a) < len(b):
        a, b = b, a
        sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        a, b = b, [x // (g * h ** delta) for x in _prem(a, b)]
        g = a[0]
        h = h * g ** delta // h ** delta
    n = len(a) - 1
    return sign * h * b[0] ** n // h ** n
