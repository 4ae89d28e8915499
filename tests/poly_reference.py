"""Polynomial, determinant, surd and group-order references over
Fraction and row classes, and adapters that put rational input through the
library's integer routines.

The references are the routes the library ran before its polynomials
became integer lists: the derivative, long division (`poly_divmod`),
Euclid's gcd, Yun's squarefree split with exact division by the monic
gcd, and the resultant by the Euclidean recursion.  They share no code
with the library, and the tests compare the library with them.
`complement_determinant` is the discriminant oracle as it ran on
Fraction matrices.  `QuadraticSurd` is the budget's a + b sqrt(d) as it
ran on two Fractions, and `sl3_class_pair_count` is the group-order
oracle's n = 3 count as it ran over every ordered pair of unit-scaling
classes of rows, unimodular or not.

The adapters (`rational_charpoly`, `rational_squarefree`,
`rational_resultant`, `rational_rank`, `rational_det`) scale rational
input to integers by a common denominator, call the library and scale the
result back, so tests can check the library on rational cases.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import Sequence

from tracegeo import linalg
from tracegeo.errors import DomainError, NumericError
from tracegeo.value import Value, set_field


def _strip(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and not p[0]:
        p = p[1:]
    return p or [Fraction(0)]


def poly_derivative(p: Sequence[Fraction]) -> list[Fraction]:
    n = len(p) - 1
    if n <= 0:
        return [Fraction(0)]
    return [Fraction(c) * (n - i) for i, c in enumerate(p[:-1])]


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


def poly_gcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd via the Euclidean algorithm."""
    a = _strip([Fraction(c) for c in p])
    b = _strip([Fraction(c) for c in q])
    while b[0]:
        a, b = b, poly_divmod(a, b)[1]
    return [c / a[0] for c in a] if a[0] else a


def yun_squarefree(f: Sequence[Fraction]) -> list[list[Fraction]]:
    """[P_1, P_2, ...] with f = prod P_k^k for a monic f of positive degree,
    each P_k monic and squarefree ([1] when f has no root of multiplicity
    k)."""
    df = poly_derivative(f)
    a = poly_gcd(f, df)
    b, c = poly_divmod(f, a)[0], poly_divmod(df, a)[0]
    split = []
    while len(b) > 1:
        d = [x - y for x, y in zip(c, poly_derivative(b))]
        a = poly_gcd(b, d)
        split.append(a)
        b, c = poly_divmod(b, a)[0], poly_divmod(d, a)[0]
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


def _denominator(values) -> int:
    return math.lcm(*(Fraction(x).denominator for x in values))


def integer_matrix(m: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """D m for D the common denominator of the entries of m."""
    den = _denominator(x for row in m for x in row)
    return [[int(x * den) for x in row] for row in m]


def _integer_rows(m: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], int]:
    """m with each row scaled to integers by the common denominator of
    its entries, and the product of those row scales."""
    rows, scale = [], 1
    for row in m:
        den = _denominator(row)
        rows.append([int(x * den) for x in row])
        scale *= den
    return rows, scale


def rational_rank(m: Sequence[Sequence[Fraction | int]]) -> int:
    """linalg.rank of m with its rows scaled to integers: scaling a row
    by a nonzero number keeps the rank."""
    return linalg.rank(_integer_rows(m)[0])


def rational_det(m: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """det(m) = det(S m) / prod s_i, for S m the rows of m scaled to
    integers by s_i."""
    rows, scale = _integer_rows(m)
    return Fraction(linalg.det(rows), scale)


def rational_charpoly(m: Sequence[Sequence[Fraction | int]]) -> list[Fraction]:
    """det(xI - m) for a rational m: chi_m(x) = D^-n chi_Dm(D x), so
    coefficient i is that of linalg.charpoly(D m) over D^i."""
    den = _denominator(x for row in m for x in row)
    return [Fraction(c, den ** i)
            for i, c in enumerate(linalg.charpoly(integer_matrix(m)))]


def rational_squarefree(f: Sequence[Fraction]) -> list[list[Fraction]]:
    """linalg.poly_squarefree for a monic rational f of degree n: it splits
    the monic integer F(x) = D^n f(x / D), and coefficient i of each P_k
    of F is D^i times that of f's."""
    den = _denominator(f)
    big = [int(c * den ** i) for i, c in enumerate(f)]
    return [[Fraction(c, den ** i) for i, c in enumerate(p)]
            for p in linalg.poly_squarefree(big)]


def rational_resultant(a: Sequence[Fraction],
                       b: Sequence[Fraction]) -> Fraction:
    """linalg.poly_resultant for rational a = A / d_a and b = B / d_b:
    Res(a, b) = d_a^-deg B d_b^-deg A Res(A, B)."""
    a = _strip([Fraction(c) for c in a])
    b = _strip([Fraction(c) for c in b])
    da, db = _denominator(a), _denominator(b)
    big_a, big_b = [int(c * da) for c in a], [int(c * db) for c in b]
    return Fraction(linalg.poly_resultant(big_a, big_b),
                    da ** (len(b) - 1) * db ** (len(a) - 1))


def _mat_mul(a: list[list[Fraction]],
             b: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def complement_determinant(g: Sequence[Sequence[Fraction]]) -> Fraction:
    """det(1 - Ad(g)) restricted to the matrix units the conjugation
    action moves, for diagonal g.

    The action is computed by honest matrix products g E g^{-1} on each
    unit E, expanded back in the unit basis; the complement of the
    centralizer is exactly the span of the moved units.
    """
    n = len(g)
    diag = [Fraction(g[i][i]) for i in range(n)]
    ginv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        ginv[i][i] = 1 / diag[i]
    moved = [(i, j) for i in range(n) for j in range(n)
             if i != j and diag[i] != diag[j]]
    index = {pair: a for a, pair in enumerate(moved)}
    size = len(moved)
    m = [[Fraction(0)] * size for _ in range(size)]
    gm = [[Fraction(x) for x in row] for row in g]
    for (k, l), col in index.items():
        unit = [[Fraction(0)] * n for _ in range(n)]
        unit[k][l] = Fraction(1)
        image = _mat_mul(_mat_mul(gm, unit), ginv)
        for (i, j), row in index.items():
            m[row][col] = (1 if (i, j) == (k, l) else 0) - image[i][j]
    return rational_det(m)


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _surd(a: Fraction, b: Fraction, d: int) -> Fraction | QuadraticSurd:
    """a + b sqrt(d), as a Fraction when the sqrt part vanishes."""
    return QuadraticSurd(a, b, d) if b else a


class QuadraticSurd(Value):
    """The irrational a + b sqrt(d): rationals a and b != 0 and an integer
    d > 1 that is not a square.  Immutable and hashable.

    Values of one field Q(sqrt d) combine exactly with each other and with
    int and Fraction, a result whose sqrt part vanishes is a Fraction, and
    a float operand makes the result a float.  The triple (a, b^2 d,
    sign b) names the number in any spelling of d, so equality is exact:
    sqrt(8) == 2*sqrt(2).
    """

    _fields = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        a, b = Fraction(a), Fraction(b)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "d", d)
        if not b or not isinstance(d, int) or d < 2 \
                or math.isqrt(d) ** 2 == d:
            raise DomainError("a QuadraticSurd needs b != 0 and an integer "
                              "d > 1 that is not a square")

    def _key(self) -> tuple[Fraction, Fraction, int]:
        return self.a, self.b * self.b * self.d, _sgn(self.b)

    def __eq__(self, other):
        # never equal to a rational or a float, since it is irrational
        if isinstance(other, QuadraticSurd):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        b = abs(self.b)
        root = f"sqrt({self.d})" if b == 1 else f"{b}*sqrt({self.d})"
        if not self.a:
            return root if self.b > 0 else f"-{root}"
        return f"{self.a} {'+' if self.b > 0 else '-'} {root}"

    def _parts(self, other) -> tuple[Fraction, Fraction] | None:
        """other as (a, b) over sqrt(self.d); None for a foreign type."""
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        if not isinstance(other, QuadraticSurd):
            return None
        if other.d == self.d:
            return other.a, other.b
        # sqrt(e) = s sqrt(d) / d when d e = s^2: the same field
        s = math.isqrt(self.d * other.d)
        if s * s != self.d * other.d:
            raise DomainError(f"sqrt({self.d}) and sqrt({other.d}) lie in "
                              "different quadratic fields")
        return other.a, other.b * Fraction(s, self.d)

    def __neg__(self) -> QuadraticSurd:
        return QuadraticSurd(-self.a, -self.b, self.d)

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return _surd(self.a + parts[0], self.b + parts[1], self.d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, float):
            return float(self) * other
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a, b = parts
        return _surd(self.a * a + self.b * b * self.d,
                     self.a * b + self.b * a, self.d)

    __rmul__ = __mul__

    def _inverse(self) -> QuadraticSurd:
        # the norm a^2 - b^2 d vanishes only at 0, since d is not a square
        norm = self.a * self.a - self.b * self.b * self.d
        return _surd(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, float):
            return float(self) / other
        if isinstance(other, QuadraticSurd):
            return self * other._inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        return self._inverse() * other

    def sign(self) -> int:
        sa, sb = _sgn(self.a), _sgn(self.b)
        if sa in (0, sb):
            return sb
        return sa if self.a * self.a > self.b * self.b * self.d else sb

    def __float__(self) -> float:
        # sqrt(d) to 128 fractional bits; with opposite signs go through
        # the conjugate, (a^2 - b^2 d) / (a - b sqrt d), which does not
        # cancel.  float(Fraction) then rounds once.  A value beyond the
        # normal float range is an error, never a printed 0 or inf.
        root = Fraction(math.isqrt(self.d << 256), 1 << 128)
        if self.a * self.b >= 0:
            q = self.a + self.b * root
        else:
            q = (self.a * self.a - self.b * self.b * self.d) \
                / (self.a - self.b * root)
        if not sys.float_info.min <= abs(q) <= sys.float_info.max:
            from decimal import Context, Decimal
            digits = Context(prec=15).divide(Decimal(q.numerator),
                                             Decimal(q.denominator))
            raise NumericError(f"{digits.normalize():g} lies outside the "
                               "float range")
        return float(q)


def sl3_class_pair_count(N: int) -> int:
    """|SL(3, Z/N)|: every row taken up to unit scaling, each ordered pair
    of classes weighted by the product of their sizes when the cross
    product of its representatives is coprime to N, times N^2 last rows."""
    units = [u for u in range(N) if math.gcd(u, N) == 1]
    sizes = {}
    seen = set()
    for r in itertools.product(range(N), repeat=3):
        if r not in seen:
            scaled = {tuple(u * x % N for x in r) for u in units}
            seen |= scaled
            sizes[r] = len(scaled)
    count = sum(w1 * w2 for (a, b, c), w1 in sizes.items()
                for (d, e, f), w2 in sizes.items()
                if math.gcd(b * f - c * e, c * d - a * f, a * e - b * d,
                            N) == 1)
    return count * N ** 2
