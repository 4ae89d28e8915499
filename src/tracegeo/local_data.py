"""Generalized Weyl discriminants and block modulus characters, exactly.

The discriminant of a semisimple rational matrix g is det(1 - Ad(g))
taken on the complement of the centralizer.  Ad(g) has the eigenvalues
x_i / x_j of g's eigenvalues x_i, so with mu_a the distinct eigenvalues
and m_a their multiplicities the value is the product over a != b of
(1 - mu_a / mu_b)^(m_a m_b), and the centralizer has dimension
sum m_a^2.  Yun's algorithm splits the characteristic polynomial of g
into squarefree factors P_k, P_k holding the eigenvalues of multiplicity
k, and the product becomes

    prod_{k != l} Res(P_l, P_k)^(kl) * prod_k Res(P_k, P_k')^(k^2)
    / prod_l ((-1)^deg P_l P_l(0))^(l (n - l)).

Every polynomial has degree at most n, and the n^2-by-n^2 matrix of
Ad(g) is never formed.  Both values depend only on ratios of
eigenvalues, so g is first scaled by the common denominator of its
entries.  Then its characteristic polynomial and, by Gauss's lemma,
every P_k are monic with integer coefficients, and everything after the
scaling runs on integers: each gcd of the split comes from a primitive
remainder sequence, each division is exact long division by a monic
P_k, and each resultant is a subresultant sequence.  The value is one
Fraction of the integer numerator and denominator at the end; no root
finding, no floats.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Sequence

from . import linalg
from .arithmetic import factorize, is_prime
from .errors import DomainError, _read_number
from .value import Value, set_field

RationalLike = int | str | Fraction


def as_fraction(x: RationalLike) -> Fraction:
    """Accept ints, Fractions, and strings in the number grammar of
    errors._read_number ("3/4", "-2", "0.5", "1e-3")."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return _read_number(x, "rational")
    raise DomainError(f"cannot interpret {x!r} as an exact rational")


class RationalMatrix(Value):
    _fields = ("n", "entries")

    def __init__(self, n: int, entries: tuple[tuple[Fraction, ...], ...]):
        set_field(self, "n", n)
        set_field(self, "entries", entries)
        if n < 1:
            raise DomainError("matrix size must be positive")
        if len(entries) != n or any(len(r) != n for r in entries):
            raise DomainError("entries must form a square matrix")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "RationalMatrix":
        n = len(rows)
        ent = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        return cls(n, ent)

    def rows(self) -> list[list[Fraction]]:
        return [list(r) for r in self.entries]


class DiscriminantValue(Value):
    """p_valuations is left out of equality."""

    _fields = ("value", "abs_inf", "p_valuations", "centralizer_dim")
    _uncompared = ("p_valuations",)

    def __init__(self, value: Fraction, abs_inf: Fraction,
                 p_valuations: dict[int, int], centralizer_dim: int = 0):
        set_field(self, "value", value)
        set_field(self, "abs_inf", abs_inf)
        set_field(self, "p_valuations", p_valuations)
        set_field(self, "centralizer_dim", centralizer_dim)


def _valuation(value: Fraction, p: int) -> int:
    v = 0
    num, den = value.numerator, value.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _annihilates(p: Sequence[int], m: list[list[int]]) -> bool:
    """Whether p(m) = 0, for p with integer coefficients, highest degree
    first, and an integer matrix m; the Horner runs on ints."""
    n = len(m)
    cols = list(zip(*m))
    acc = [[p[0] * (i == j) for j in range(n)] for i in range(n)]
    for c in p[1:]:
        acc = [[sum(map(operator.mul, row, col)) for col in cols]
               for row in acc]
        for i in range(n):
            acc[i][i] += c
    return not any(x for row in acc for x in row)


def _check_semisimple(m: list[list[int]], split: list[list[int]]) -> None:
    # The product of the squarefree factors of the characteristic
    # polynomial is its radical, which annihilates the matrix exactly when
    # it is diagonalizable over the algebraic closure.  A squarefree
    # charpoly (every P_k past P_1 is 1) is its own radical, which
    # annihilates the matrix by Cayley-Hamilton: n distinct eigenvalues.
    if any(len(p) > 1 for p in split[1:]) and \
            not _annihilates(functools.reduce(linalg.poly_mul, split), m):
        raise DomainError("matrix is not semisimple; pass the semisimple "
                          "part of its multiplicative Jordan decomposition")


def weyl_discriminant(gamma_s: RationalMatrix,
                      primes: Sequence[int] = ()) -> DiscriminantValue:
    """det(1 - Ad(gamma_s)) on the complement of the centralizer.

    The input must be invertible and semisimple.  p-adic valuations are
    reported for every prime dividing the value's numerator or denominator
    plus any explicitly requested primes.
    """
    value, dim = _discriminant(gamma_s.rows())
    support = set(factorize(abs(value.numerator))) | \
        set(factorize(value.denominator))
    for p in primes:
        if isinstance(p, bool) or not isinstance(p, int) or not is_prime(p):
            raise DomainError(f"{p} is not a prime")
        support.add(p)
    vals = {p: _valuation(value, p) for p in sorted(support)}
    return DiscriminantValue(value=value, abs_inf=abs(value),
                             p_valuations=vals, centralizer_dim=dim)


def _discriminant(g: list[list[Fraction]]) -> tuple[Fraction, int]:
    """det(1 - Ad g) off the centralizer of g, and the centralizer's
    dimension."""
    scale = math.lcm(*(x.denominator for row in g for x in row))
    g = [[x.numerator * (scale // x.denominator) for x in row] for row in g]
    chi_g = linalg.charpoly(g)
    if chi_g[-1] == 0:
        raise DomainError("matrix is not invertible")
    split = linalg.poly_squarefree(chi_g)
    _check_semisimple(g, split)
    n = len(g)
    blocks = [(k, p) for k, p in enumerate(split, 1) if len(p) > 1]
    num = den = 1
    for i, (k, pk) in enumerate(blocks):
        dk = len(pk) - 1
        # Ordered pairs of distinct roots of P_k.  Each root of P_k, of
        # multiplicity k, is the denominator of (1 - mu_a / mu_b) against
        # n - k eigenvalues counted with multiplicity.
        num *= linalg.poly_resultant(pk, linalg.poly_derivative(pk)) \
            ** (k * k)
        den *= ((-1) ** dk * pk[-1]) ** (k * (n - k))
        # Roots of P_l against roots of P_k, both orders:
        # Res(P_l, P_k) Res(P_k, P_l) = (-1)^(deg P_k deg P_l) Res(P_l, P_k)^2.
        for l, pl in blocks[:i]:
            r = linalg.poly_resultant(pl, pk)
            num *= ((-1) ** (dk * (len(pl) - 1)) * r * r) ** (k * l)
    return Fraction(num, den), sum(k * k * (len(p) - 1) for k, p in blocks)


def modulus_character(block_sizes: Sequence[int],
                      block_dets: Sequence[RationalLike],
                      place: int | str = "inf") -> Fraction:
    """Absolute value of det(Ad m) on the nilradical of a standard block
    parabolic, for a block-diagonal m with the given block determinants.

    place is "inf" for the archimedean absolute value or a prime p for the
    exact p-adic one (a power of p, as a Fraction).
    """
    if len(block_sizes) != len(block_dets):
        raise DomainError("block sizes and determinants must have matching "
                          "lengths")
    if any(isinstance(s, bool) or not isinstance(s, int) or s < 1
           for s in block_sizes):
        raise DomainError("block sizes must be positive integers")
    dets = [as_fraction(d) for d in block_dets]
    if any(d == 0 for d in dets):
        raise DomainError("block determinants must be nonzero")
    x = Fraction(1)
    for i in range(len(dets)):
        for j in range(i + 1, len(dets)):
            x *= dets[i] ** block_sizes[j] * dets[j] ** (-block_sizes[i])
    if place == "inf":
        return abs(x)
    if not isinstance(place, bool) and isinstance(place, int) \
            and is_prime(place):
        return Fraction(place) ** (-_valuation(x, place))
    raise DomainError(f"place must be 'inf' or a prime, got {place!r}")
