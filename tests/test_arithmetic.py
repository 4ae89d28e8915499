import math
import random
import re
import time
from fractions import Fraction

import pytest

from tracegeo import arithmetic, oracles
from tracegeo.arithmetic import (INDEX_DIGIT_LIMIT, _pollard_brent, conjecture_bound,
                                 factorize, is_prime, level_data, prime_fixed_check,
                                 sl_index)
from tracegeo.errors import DomainError, ResourceLimitError


def _trial_factor(n: int) -> dict[int, int]:
    """Reference factorization by trial division over every integer."""
    fac: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            fac[d] = fac.get(d, 0) + 1
        d += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def _random_prime(rng, bits, test):
    while True:
        p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if test(p):
            return p


# Carmichael numbers and strong pseudoprimes to the first bases: each fools
# a weaker test.
HARD_COMPOSITES = [561, 41041, 3215031751, 3825123056546413051]


def test_factorize_matches_references():
    rng = random.Random(8)

    def trial_is_prime(n):
        return _trial_factor(n) == {n: 1}

    small = list(range(1, 2000)) + [rng.randrange(1, 10 ** 12)
                                    for _ in range(30)]
    small += [_random_prime(rng, 11 + i % 9, trial_is_prime)
              * _random_prime(rng, 11 + i % 9, trial_is_prime)
              for i in range(20)]
    small += [2003 ** 3, 1999 ** 3, 3 ** 25, 65537 ** 2, 1009 ** 4]
    small += HARD_COMPOSITES[:3]
    for n in small:
        want = _trial_factor(n)
        assert factorize(n) == want, n
        assert is_prime(n) == (want == {n: 1}), n

    sympy = pytest.importorskip("sympy")
    large = [rng.randrange(1, 2 ** 63) for _ in range(200)]
    large += [_random_prime(rng, 31 + i % 2, sympy.isprime)
              * _random_prime(rng, 31, sympy.isprime) for i in range(6)]
    # rho alone would need about 2^30 steps to split (2^61 - 1)^2
    large += [(2 ** 31 - 1) ** 2, 1000003 ** 3, (2 ** 61 - 1) ** 2,
              (2 ** 61 - 1) * 4,
              HARD_COMPOSITES[3], 2 ** 61 - 1, 2 ** 63 - 25, 2 ** 63]
    for n in large:
        want = {int(p): e for p, e in sympy.factorint(n).items()}
        assert factorize(n) == want, n
        assert is_prime(n) == (want == {n: 1}), n


P, Q, M61 = 2003, 1000003, 2 ** 61 - 1


@pytest.mark.parametrize("n,want", [
    (P ** 4, {P: 4}), (P ** 6, {P: 6}), (P ** 12, {P: 12}), (P ** 30, {P: 30}),
    (P ** 4 * Q ** 6, {P: 4, Q: 6}), (P ** 30 * M61 ** 12, {P: 30, M61: 12})],
    ids=["p^4", "p^6", "p^12", "p^30", "p^4 q^6", "p^30 q^12"])
def test_factorize_takes_perfect_powers_apart(n, want):
    # Composite exponents, and products whose exponents share a factor:
    # each power is taken apart root by root.
    assert factorize(n) == want


@pytest.mark.parametrize("k", [1, 2, 4, 6])
def test_factorize_splits_a_perfect_powers_root_once(monkeypatch, k):
    # ((2^31 - 1)(2^61 - 1))^k: the root needs one rho split, where k
    # copies of it each needed their own.
    calls = []
    split = arithmetic._pollard_brent
    monkeypatch.setattr(arithmetic, "_pollard_brent",
                        lambda n: calls.append(n) or split(n))
    assert factorize(((2 ** 31 - 1) * M61) ** k) == {2 ** 31 - 1: k, M61: k}
    assert calls == [(2 ** 31 - 1) * M61]


@pytest.mark.parametrize("n", [12.0, Fraction(12), "12", True, False, 0,
                               -12, None], ids=repr)
def test_factorize_refuses_what_is_not_a_positive_integer(n):
    # 12.0 gave {2: 2, 3.0: 1}; 0, -12, True and False gave {}
    with pytest.raises(DomainError, match="^only a positive integer can be "
                       f"factored, got {re.escape(repr(n))}$"):
        factorize(n)


@pytest.mark.parametrize("n", [True, False, 7.0, Fraction(7), "7", None],
                         ids=repr)
def test_is_prime_refuses_a_bool_or_a_non_integer(n):
    # True and False read as 1 and 0; 7.0 read as a prime
    with pytest.raises(DomainError, match="^primality is defined for "
                       f"integers, got {re.escape(repr(n))}$"):
        is_prime(n)


def test_is_prime_takes_every_integer():
    assert [n for n in range(-5, 12) if is_prime(n)] == [2, 3, 5, 7, 11]


def test_the_group_order_oracle_does_not_factor():
    assert not {"arithmetic", "factorize", "is_prime", "level_data"} & \
        set(vars(oracles))


def test_level_data():
    data = level_data(12)
    assert data.factorization == {2: 2, 3: 1}
    assert data.S_N == (2, 3)
    assert level_data(1).S_N == ()
    assert level_data(97).factorization == {97: 1}


def test_a_cofactor_past_the_str_limit_is_refused_naming_its_digits():
    # Python refuses str() of an int of more than 4300 digits, and the
    # budget at this size is a few hundred steps: 10^4400 + 9 has no
    # factor below 2000 and none that they find.
    with pytest.raises(ResourceLimitError, match=(
            "^cannot factor a 4401-digit cofactor within 544 Pollard-Brent "
            "steps$")):
        _pollard_brent(10 ** 4400 + 9)


def test_level_data_guards():
    with pytest.raises(DomainError):
        level_data(0)
    with pytest.raises(DomainError):
        level_data(-5)
    with pytest.raises(DomainError, match="level must be a positive integer"):
        level_data(True)
    with pytest.raises(ResourceLimitError):
        level_data(2 ** 63 + 1)


def test_the_slowest_level_admitted_is_split_within_5_s():
    # 2327125637 * 3963418141, the slowest to split of 41 products of two
    # primes just under the level limit
    start = time.perf_counter()
    data = level_data(9223371966071980817)
    assert time.perf_counter() - start < 5
    assert data.S_N == (2327125637, 3963418141)


def test_sl_index_known_values():
    assert sl_index(2, 2) == 6
    assert sl_index(2, 4) == 48
    assert sl_index(3, 2) == 168
    assert sl_index(2, 1) == 1


def test_sl_index_refuses_an_index_past_the_digit_limit():
    # 2^(119^2 - 1) has 4263 digits and 2^(120^2 - 1) has 4335.
    start = time.perf_counter()
    assert len(str(sl_index(119, 2))) <= INDEX_DIGIT_LIMIT
    assert time.perf_counter() - start < 5
    with pytest.raises(ResourceLimitError, match="about 4335 digits"):
        sl_index(120, 2)
    with pytest.raises(ResourceLimitError, match="about 10797 digits"):
        sl_index(60, 1000)
    # refused before the power is formed
    with pytest.raises(ResourceLimitError, match="over 1e300 digits"):
        sl_index(10 ** 200, 2)
    assert sl_index(10 ** 200, 1) == 1


def test_sl_index_against_brute_force():
    for n in (2, 3):
        for N in range(2, 17):
            assert sl_index(n, N) == oracles.sl_group_order(n, N), (n, N)


def _sl_index_fraction(n, N):
    """sl_index as it stood in Fraction arithmetic."""
    total = Fraction(N) ** (n * n - 1)
    for p in level_data(N).S_N:
        for k in range(2, n + 1):
            total *= 1 - Fraction(1, p ** k)
    assert total.denominator == 1 and total > 0
    return int(total)


def test_sl_index_matches_the_fraction_formula():
    for n in range(2, 7):
        for N in range(1, 501):
            assert sl_index(n, N) == _sl_index_fraction(n, N), (n, N)


def test_sl_index_multiplicative():
    rng = random.Random(2024)
    done = 0
    while done < 10:
        m, n = rng.randint(2, 30), rng.randint(2, 30)
        if math.gcd(m, n) != 1:
            continue
        done += 1
        size = rng.randint(2, 5)
        assert sl_index(size, m * n) == sl_index(size, m) * sl_index(size, n)


def test_sl_index_validation():
    with pytest.raises(DomainError):
        sl_index(1, 5)
    with pytest.raises(DomainError):
        sl_index(2, 0)
    with pytest.raises(DomainError, match="level must be a positive integer"):
        sl_index(2, True)


def test_conjecture_bound():
    assert conjecture_bound(1, 2.0, 3.0) == 3.0
    got = conjecture_bound(10, 2.0, 1.0)
    assert abs(got - (1 + math.log(10)) ** 2) < 1e-12
    assert conjecture_bound(100, 1.0, 1.0) > conjecture_bound(10, 1.0, 1.0)
    with pytest.raises(DomainError):
        conjecture_bound(10, -1.0, 1.0)
    with pytest.raises(DomainError):
        conjecture_bound(10, 1.0, 0.0)
    with pytest.raises(DomainError, match="level must be a positive integer"):
        conjecture_bound(True, 1, 1)
    # True read as 1 for either float and gave 1.693...
    with pytest.raises(DomainError, match="^exponent b must be a number, "
                       "not a bool$"):
        conjecture_bound(2, True, 1.0)
    with pytest.raises(DomainError, match="^constant c must be a number, "
                       "not a bool$"):
        conjecture_bound(2, 1.0, True)


def test_prime_fixed_families():
    res = prime_fixed_check([2, 4, 8, 64])
    assert res.ok
    assert res.reference == (2,)
    assert res.union == (2,)
    assert res.offenders == ()

    res = prime_fixed_check([2, 6])
    assert not res.ok
    assert res.offenders == ((6, (3,)),)
    assert res.union == (2, 3)

    res = prime_fixed_check([6, 12, 24], allowed=[2, 3])
    assert res.ok
    assert res.reference == (2, 3)

    res = prime_fixed_check([1, 5])
    # first support is empty, so every prime is an escape
    assert not res.ok
    assert res.offenders == ((5, (5,)),)


def test_prime_fixed_validation():
    with pytest.raises(DomainError):
        prime_fixed_check([])
    with pytest.raises(DomainError):
        prime_fixed_check([2, 4], allowed=[4])
    # named as an allowed prime, not as a level
    for p in (10 ** 19 - 1, 10 ** 5000):
        with pytest.raises(ResourceLimitError, match="^allowed primes are "
                           "limited to 9223372036854775808$"):
            prime_fixed_check([6], allowed=[2, p])
