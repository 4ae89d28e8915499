"""Level arithmetic: factoring, prime supports, congruence-subgroup
indices, bounds.

Factoring is stdlib only: trial division by the primes below 2000, then
deterministic Miller-Rabin and Pollard-Brent (Cohen, A Course in
Computational Algebraic Number Theory, 8.2 and 8.5).  It is exact for
anything the 2^63 level guard admits; larger values, such as discriminant
numerators, get a bounded number of rho steps per split.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .errors import DomainError, ResourceLimitError
from .value import Value, set_field

LEVEL_LIMIT = 2 ** 63
# Python's default limit on int/str conversion: a longer index could be
# computed but not printed.
INDEX_DIGIT_LIMIT = 4300


def _primes_below(n: int) -> tuple[int, ...]:
    """The sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(itertools.compress(range(n), sieve))


# Trial divisors, and the Miller-Rabin bases: the first 12 primes make the
# test exact below 318665857834031151167461 (about 3.18e23), the least
# strong pseudoprime to all of them.
_SMALL_PRIMES = _primes_below(2000)
_MR_BASES = _SMALL_PRIMES[:12]
# Pollard-Brent steps allowed per split of a cofactor of up to 100 digits
# (333 bits), about 1.5 s of work at 100 digits.  A factor p takes about
# sqrt(p) steps: the hardest levels under the 2^63 guard, products of two
# 31-bit primes, split within 2^18.  A step is a multiplication modulo the
# cofactor, whose cost grows about as its size squared, so a larger
# cofactor gets RHO_STEPS scaled down by (333 / its bits)^2.
RHO_STEPS = 2 ** 20


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 12 prime bases: exact below 3.18e23,
    a strong probable-prime test above.  A bool or a non-int raises
    DomainError."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"primality is defined for integers, got {n!r}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _root(m: int, k: int) -> int:
    """floor(m^(1/k)), by Newton's method from above."""
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _pollard_brent(n: int) -> int:
    """A proper factor of a composite n with no factor below 2000, by
    Pollard's rho with Brent's cycle detection, gcds batched 128 steps at a
    time (Brent, BIT 20, 1980)."""
    allowed = min(RHO_STEPS, RHO_STEPS * 333 ** 2 // n.bit_length() ** 2)
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > allowed:
                # n's digit count without str(n), which Python refuses
                # past 4300 digits: 10^k <= n for this k.
                k = max(0, n.bit_length() * 1233 // 4096 - 2)
                raise ResourceLimitError(
                    f"cannot factor a {k + len(str(n // 10 ** k))}-digit "
                    f"cofactor within {allowed} Pollard-Brent steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a positive integer, p increasing.

    Trial division by the primes below 2000, then Miller-Rabin and
    Pollard-Brent on what is left.  A cofactor that does not split within
    its step budget (RHO_STEPS, scaled down above 100 digits) raises
    ResourceLimitError.  A bool, a non-int or n < 1 raises DomainError.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DomainError(f"only a positive integer can be factored, "
                          f"got {n!r}")
    fac: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            fac[p] = fac.get(p, 0) + 1
    # (cofactor, multiplicity): a perfect power's root is factored once.
    todo = [(n, 1)] if n > 1 else []
    while todo:
        m, e = todo.pop()
        if is_prime(m):
            fac[m] = fac.get(m, 0) + e
            continue
        # Rho splits p^k only after about sqrt(p) steps, and squares are
        # common in discriminants, so take perfect powers apart first.
        # Every prime factor of m exceeds 2^10, which bounds the exponent,
        # and a root goes back on todo, so prime exponents are enough.
        for k in _primes_below(m.bit_length() // 10 + 1):
            r = _root(m, k)
            if r ** k == m:
                todo.append((r, e * k))
                break
        else:
            d = _pollard_brent(m)
            todo += [(d, e), (m // d, e)]
    return dict(sorted(fac.items()))


class LevelData(Value):
    _fields = ("N", "factorization", "S_N")

    def __init__(self, N: int, factorization: dict[int, int],
                 S_N: tuple[int, ...]):
        set_field(self, "N", N)
        set_field(self, "factorization", factorization)
        set_field(self, "S_N", S_N)


def _checked_level(N: int) -> int:
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise DomainError("level must be a positive integer")
    if N > LEVEL_LIMIT:
        raise ResourceLimitError(f"levels are limited to {LEVEL_LIMIT}")
    return N


def level_data(N: int) -> LevelData:
    """Exact factorization of a level, with its prime support sorted."""
    fac = factorize(_checked_level(N))
    return LevelData(N=N, factorization=fac, S_N=tuple(fac))


def sl_index(n: int, N: int) -> int:
    """Order of the special linear group over the integers mod N.

    For N >= 3 this is the index of the principal congruence subgroup of
    level N; for N in {1, 2} it is the raw group order (the level is not
    neat and -1 is congruent to 1).  An index of more than
    INDEX_DIGIT_LIMIT digits raises ResourceLimitError.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError("matrix size must be an integer >= 2")
    primes = level_data(N).S_N
    # N^(n^2-1) prod_{p | N} prod_{k=2..n} (1 - p^-k), exactly: p divides
    # N^(n^2-1) at least n^2 - 1 >= 2 + ... + n times.  The product exceeds
    # 1/3, so the index has about (n^2 - 1) log10 N digits; an int compares
    # exactly with a float, so a huge n is refused before the power.
    e = n * n - 1
    if N > 1 and e >= INDEX_DIGIT_LIMIT / math.log10(N):
        digits = f"about {e * math.log10(N):.0f}" if e < 2 ** 1000 \
            else "over 1e300"
        raise ResourceLimitError(
            f"the index for n = {n} at level {N} has {digits} digits; "
            f"indices are limited to {INDEX_DIGIT_LIMIT} digits")
    total = N ** e
    for p in primes:
        for k in range(2, n + 1):
            total = total // p ** k * (p ** k - 1)
    return total


def conjecture_bound(N: int, b: float, c: float) -> float:
    """Evaluate c * (1 + log N)^b with the natural logarithm."""
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise DomainError("level must be a positive integer")
    for name, x in (("exponent b", b), ("constant c", c)):
        if isinstance(x, bool):
            raise DomainError(f"{name} must be a number, not a bool")
    if b < 0:
        raise DomainError("exponent b must be nonnegative")
    if c <= 0:
        raise DomainError("constant c must be positive")
    return c * (1 + math.log(N)) ** b


class PrimeFixedResult(Value):
    _fields = ("ok", "reference", "union", "offenders")

    def __init__(self, ok: bool, reference: tuple[int, ...],
                 union: tuple[int, ...],
                 offenders: tuple[tuple[int, tuple[int, ...]], ...]):
        set_field(self, "ok", ok)
        set_field(self, "reference", reference)
        set_field(self, "union", union)
        set_field(self, "offenders", offenders)


def prime_fixed_check(levels: Sequence[int],
                      allowed: Sequence[int] | None = None) -> PrimeFixedResult:
    """Whether all levels' prime divisors stay inside one fixed set.

    The reference set is `allowed` when given, else the support of the
    first level.  Offenders list each level that escapes, with the primes
    it introduces.
    """
    if not levels:
        raise DomainError("need at least one level")
    supports = [set(level_data(n).S_N) for n in levels]
    if allowed is not None:
        reference = set()
        for p in allowed:
            # The level guard keeps is_prime inside its exact range.
            if isinstance(p, int) and p > LEVEL_LIMIT:
                raise ResourceLimitError(
                    f"allowed primes are limited to {LEVEL_LIMIT}")
            if not isinstance(p, int) or p < 2 or not is_prime(p):
                raise DomainError(f"allowed set must contain primes, got {p}")
            reference.add(p)
    else:
        reference = set(supports[0])
    union: set[int] = set()
    offenders = []
    for n, sup in zip(levels, supports):
        union |= sup
        extra = sup - reference
        if extra:
            offenders.append((n, tuple(sorted(extra))))
    return PrimeFixedResult(ok=not offenders,
                            reference=tuple(sorted(reference)),
                            union=tuple(sorted(union)),
                            offenders=tuple(offenders))
