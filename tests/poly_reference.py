"""Yun's squarefree split over Fraction, as the library ran it before its
split moved to integer polynomials: Euclid's gcd on Fraction coefficients
and exact division by the monic gcd.  The tests compare the library's
split with this one."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from tracegeo.linalg import poly_derivative, poly_divmod


def _strip(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and not p[0]:
        p = p[1:]
    return p or [Fraction(0)]


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
