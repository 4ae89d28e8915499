"""The brute-force group-order oracle: checked against a straight count of
all N^(n^2) matrices, and pinned on the degenerate levels."""

import pytest

from tracegeo import oracles
from tracegeo.arithmetic import sl_index
from tracegeo.errors import DomainError, ResourceLimitError


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


def test_only_small_sizes_are_counted():
    with pytest.raises(ResourceLimitError):
        oracles.sl_group_order(4, 2)
