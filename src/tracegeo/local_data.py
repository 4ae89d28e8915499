"""Generalized Weyl discriminants and block modulus characters, exactly.

The discriminant of a semisimple rational matrix g is det(1 - Ad(g))
taken on the complement of the centralizer.  Ad(g) has the eigenvalues
x_i / x_j of g's eigenvalues x_i, so tr Ad(g)^k = p_k(g) p_k(g^-1) for the
power sums p_k.  Those come from the characteristic polynomial of g (and
of g^-1, its reversal) by Newton's identities, which read backwards give
the characteristic polynomial of Ad(g) without forming the n^2-by-n^2
matrix.  That polynomial is divided by (x - 1) as often as it vanishes at
1, and the quotient is evaluated at 1.  Everything runs in exact rational
arithmetic; no root finding, no floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .arithmetic import factorize, is_prime
from .errors import DomainError

RationalLike = int | str | Fraction


def as_fraction(x: RationalLike) -> Fraction:
    """Accept ints, Fractions, and "num/den" strings."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational {x!r}") from exc
    raise DomainError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class RationalMatrix:
    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("matrix size must be positive")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise DomainError("entries must form a square matrix")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "RationalMatrix":
        n = len(rows)
        ent = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        return cls(n, ent)

    def rows(self) -> list[list[Fraction]]:
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class DiscriminantValue:
    value: Fraction
    abs_inf: Fraction
    p_valuations: dict[int, int] = field(compare=False)
    centralizer_dim: int = 0


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


def _annihilates(p: Sequence[Fraction], m: list[list[Fraction]]) -> bool:
    """Whether p(m) = 0, for p highest degree first.

    With D the common denominator of m, D^deg p(m) is the polynomial with
    coefficients p_i D^i evaluated at the integer matrix D m.  Those
    coefficients are scaled to integers, so the Horner runs on ints.
    """
    n = len(m)
    den = math.lcm(*(x.denominator for row in m for x in row))
    cols = list(zip(*([int(x * den) for x in row] for row in m)))
    coeffs = [c * den ** i for i, c in enumerate(p)]
    scale = math.lcm(*(c.denominator for c in coeffs))
    coeffs = [int(c * scale) for c in coeffs]
    acc = [[coeffs[0] * (i == j) for j in range(n)] for i in range(n)]
    for c in coeffs[1:]:
        acc = [[sum(map(operator.mul, row, col)) for col in cols]
               for row in acc]
        for i in range(n):
            acc[i][i] += c
    return not any(x for row in acc for x in row)


def _check_semisimple(m: list[list[Fraction]], chi: list[Fraction]) -> None:
    # The squarefree radical of the characteristic polynomial chi annihilates
    # the matrix exactly when it is diagonalizable over the algebraic
    # closure.
    radical, _ = linalg.poly_divmod(chi, linalg.poly_gcd(chi, linalg.poly_derivative(chi)))
    if not _annihilates(radical, m):
        raise DomainError("matrix is not semisimple; pass the semisimple "
                          "part of its multiplicative Jordan decomposition")


def _power_sums(chi: Sequence[Fraction], count: int) -> list[Fraction]:
    """p_1..p_count of the roots of the monic chi (highest degree first),
    by Newton's identities p_k = -(k c_k + sum_{i<k} c_i p_{k-i})."""
    p: list[Fraction] = []
    for k in range(1, count + 1):
        s = k * chi[k] if k < len(chi) else 0
        for i in range(1, min(k, len(chi))):
            s += chi[i] * p[k - i - 1]
        p.append(-s)
    return p


def _from_power_sums(p: Sequence[Fraction]) -> list[Fraction]:
    """The monic polynomial of degree len(p) whose roots have the power
    sums p, by the same identities solved for c_k."""
    c = [Fraction(1)]
    for k in range(1, len(p) + 1):
        s = p[k - 1]
        for i in range(1, k):
            s += c[i] * p[k - i - 1]
        c.append(-s / k)
    return c


def weyl_discriminant(gamma_s: RationalMatrix,
                      primes: Sequence[int] = ()) -> DiscriminantValue:
    """det(1 - Ad(gamma_s)) on the complement of the centralizer.

    The input must be invertible and semisimple.  p-adic valuations are
    reported for every prime dividing the value's numerator or denominator
    plus any explicitly requested primes.
    """
    g = gamma_s.rows()
    chi_g = linalg.charpoly(g)
    if chi_g[-1] == 0:
        raise DomainError("matrix is not invertible")
    _check_semisimple(g, chi_g)
    size = gamma_s.n ** 2
    # g^-1 has the reversed characteristic polynomial, made monic.
    chi_inv = [c / chi_g[-1] for c in reversed(chi_g)]
    chi = _from_power_sums([a * b for a, b in zip(
        _power_sums(chi_g, size), _power_sums(chi_inv, size))])
    # Exact synthetic division by (x - 1), as long as 1 stays a root.
    m = 0
    coeffs = list(chi)
    while sum(coeffs) == 0:
        out = []
        acc = Fraction(0)
        for c in coeffs[:-1]:
            acc += c
            out.append(acc)
        coeffs = out
        m += 1
    value = sum(coeffs, Fraction(0))  # evaluation at 1
    assert value != 0
    support = set(factorize(abs(value.numerator))) | \
        set(factorize(value.denominator))
    for p in primes:
        if not is_prime(p):
            raise DomainError(f"{p} is not a prime")
        support.add(p)
    vals = {p: _valuation(value, p) for p in sorted(support)}
    return DiscriminantValue(value=value, abs_inf=abs(value),
                             p_valuations=vals, centralizer_dim=m)


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
    if any(not isinstance(s, int) or s < 1 for s in block_sizes):
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
    if isinstance(place, int) and is_prime(place):
        return Fraction(place) ** (-_valuation(x, place))
    raise DomainError(f"place must be 'inf' or a prime, got {place!r}")
