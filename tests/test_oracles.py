"""The brute-force group-order oracle: checked against a straight count of
all N^(n^2) matrices, against the earlier counts over all pairs of first
rows and over all ordered pairs of unit-scaling classes, and pinned on the
degenerate levels.  The complement-determinant oracle: checked against its
Fraction reference."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import poly_reference
from tracegeo import oracles
from tracegeo.arithmetic import sl_index
from tracegeo.errors import DomainError, ResourceLimitError
from tracegeo.root_datum import build_root_system


def _numpy_count(n: int, N: int) -> int:
    """|SL(n, Z/N)| by evaluating the determinant of every matrix: the
    oracle's earlier numpy route, kept as the reference."""
    np = pytest.importorskip("numpy")
    if n == 2:
        rng = [np.arange(N)] * 4
        a, b, c, d = np.meshgrid(*rng, indexing="ij", sparse=True)
        det = (a * d - b * c) % N
        return int(np.count_nonzero(det == 1))
    rng = [np.arange(N, dtype=np.int64)] * 6
    d, e, f, g, h, i = np.meshgrid(*rng, indexing="ij", sparse=True)
    m1 = (e * i - f * h) % N
    m2 = (d * i - f * g) % N
    m3 = (d * h - e * g) % N
    total = 0
    for a in range(N):
        for b in range(N):
            for c in range(N):
                det = (a * m1 - b * m2 + c * m3) % N
                total += int(np.count_nonzero(det == 1))
    return total


def _row_pair_count(n: int, N: int) -> int:
    """|SL(n, Z/N)| over all N^n first rows (n = 2) or all N^(2n) pairs of
    first rows (n = 3), each counted by the last-row gcd rule: the oracle's
    earlier row-pair route, kept as the reference."""
    rows = list(itertools.product(range(N), repeat=n))
    if n == 2:
        count = sum(1 for a, b in rows if math.gcd(a, b, N) == 1)
    else:
        count = sum(1 for (a, b, c), (d, e, f) in itertools.product(rows,
                                                                    repeat=2)
                    if math.gcd(b * f - c * e, c * d - a * f, a * e - b * d,
                                N) == 1)
    return count * N ** (n - 1)


@pytest.mark.parametrize("n, N", [(3, N) for N in range(1, 11)]
                         + [(2, N) for N in range(1, 41)])
def test_matches_the_row_pair_route(n, N):
    assert oracles.sl_group_order(n, N) == _row_pair_count(n, N)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N", range(2, 9))
def test_gcd_rule_matches_full_count(n, N):
    assert oracles.sl_group_order(n, N) == _numpy_count(n, N)


@pytest.mark.parametrize("n", [2, 3])
def test_level_one_is_the_trivial_group(n):
    # Every matrix over Z/1 has determinant 0 = 1, so the group has one
    # element, as the index formula says.
    assert oracles.sl_group_order(n, 1) == 1 == sl_index(n, 1)


@pytest.mark.parametrize("N", [0, -3])
def test_nonpositive_level_rejected(N):
    with pytest.raises(DomainError):
        oracles.sl_group_order(2, N)


@pytest.mark.parametrize("n, N", [(3, 7.0), (2, "5"), (2, True)])
def test_level_that_is_not_an_integer_rejected(n, N):
    with pytest.raises(DomainError, match="level must be a positive integer"):
        oracles.sl_group_order(n, N)


@pytest.mark.parametrize("n", [1, 3.0])
def test_size_that_is_not_an_integer_from_two_rejected(n):
    with pytest.raises(DomainError, match="matrix size must be an integer"):
        oracles.sl_group_order(n, 7)


@pytest.mark.parametrize("n, N", [(3, 33), (2, 182), (3, 1000)])
def test_levels_past_the_row_limit_refused(n, N):
    # 32^3 and 181^2 are the largest row counts admitted
    with pytest.raises(ResourceLimitError,
                       match=f"level {N} refused: .* the limit is 32768"):
        oracles.sl_group_order(n, N)


def test_only_small_sizes_are_counted():
    with pytest.raises(ResourceLimitError):
        oracles.sl_group_order(4, 2)


def test_the_most_roots_admitted_are_scanned_within_5_s():
    # B2xA2: 14 roots, the limit; 2^14 subsets scanned, 17 * 13 parabolic
    start = time.perf_counter()
    count = oracles.brute_force_parabolic_count(
        build_root_system(["B2", "A2"]))
    assert time.perf_counter() - start < 5
    assert count == 221


def test_a_scan_past_14_roots_is_refused():
    with pytest.raises(ResourceLimitError,
                       match=r"^brute force scan over 2\^16 subsets refused$"):
        oracles.brute_force_parabolic_count(
            build_root_system(["B2", "A2", "A1"]))


def test_the_level_with_the_most_classes_is_counted_within_5_s():
    # (3, 30): 2,821 unimodular row classes, the most of an admitted level
    start = time.perf_counter()
    assert oracles.sl_group_order(3, 30) == sl_index(3, 30)
    assert time.perf_counter() - start < 5


def _seeded_diagonals():
    """80 diagonals of each size n = 2..5: rational entries of both signs,
    whole ones among them, and every other diagonal drawn from a pool of
    n - 1 values, so that it repeats an entry."""
    rng = random.Random(4141)
    for n in range(2, 6):
        for trial in range(80):
            pool = [Fraction(rng.choice([x for x in range(-9, 10) if x]),
                             rng.choice((1, 1, 2, 3, 7, 9)))
                    for _ in range(n - 1 if trial % 2 else n)]
            yield [rng.choice(pool) for _ in range(n)] if trial % 2 \
                else pool


def test_complement_determinant_matches_the_fraction_reference():
    repeated = negative = 0
    for diag in _seeded_diagonals():
        rows = [[x if i == j else 0 for j in range(len(diag))]
                for i, x in enumerate(diag)]
        got = oracles.complement_determinant(rows)
        assert type(got) is Fraction, diag
        assert got == poly_reference.complement_determinant(rows), diag
        repeated += len(set(diag)) < len(diag)
        negative += min(diag) < 0
    assert repeated >= 160 and negative >= 250


@pytest.mark.parametrize("N", range(1, 17))
def test_matches_the_class_pair_route(N):
    assert oracles.sl_group_order(3, N) == poly_reference.sl3_class_pair_count(N)
