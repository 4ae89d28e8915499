import time

import pytest

from tracegeo.errors import DomainError, ResourceLimitError
from tracegeo.nilpotent_orbits import (RANK_LIMIT, GLType, OrbitLabel,
                                       _parity_ok, _partition_target,
                                       list_orbits, min_orbit_dim, orbit_dim)
from tracegeo.root_datum import SimpleType, dual_coxeter_number


def centralizer_dim_gl(partition):
    # dim of the centralizer of a nilpotent with Jordan type lambda in
    # gl(n) is sum (2i-1) lambda_i for lambda sorted decreasingly
    return sum((2 * i - 1) * part for i, part in enumerate(partition, 1))


def partition_count(n):
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def test_gl_orbit_count_is_partition_count():
    for n in range(1, 11):
        assert len(list_orbits(GLType(n))) == partition_count(n)


CLASSICAL_UP_TO_20 = ([SimpleType(s, r) for s in "ABC" for r in range(1, 21)]
                      + [SimpleType("D", r) for r in range(2, 21)]
                      + [GLType(n) for n in range(1, 21)])


def _partitions(n):
    """The partitions of n >= 1 in decreasing lexicographic order, by the
    successor rule: lower the last part above 1 by one and refill the rest
    of the sum greedily with parts no larger than it."""
    lam = [n]
    while True:
        yield tuple(lam)
        ones = 0
        while lam and lam[-1] == 1:
            lam.pop()
            ones += 1
        if not lam:
            return
        part = lam.pop() - 1
        q, r = divmod(ones + 1, part)
        lam += [part] * (q + 1)
        if r:
            lam.append(r)


def test_list_orbits_equals_the_checked_filter():
    # list_orbits generates only the admissible partitions and builds its
    # labels past OrbitLabel's checks; filtering every partition through
    # the public constructor, which runs every check, gives the same labels
    # in the same order on every classical type of rank <= 20 and gl1-gl20.
    for t in CLASSICAL_UP_TO_20:
        want = [OrbitLabel(t, lam) for lam in _partitions(_partition_target(t))
                if _parity_ok(t, lam)]
        assert list_orbits(t) == want, t


def _admissible_count(t):
    """The coefficient of x^N, N = _partition_target(t), in the product of
    1/(1 - x^2p) over the parts p of the paired parity and of 1/(1 - x^p)
    over the other parts: type A and gl pair no parity, B and D the even
    parts, C the odd ones."""
    n = _partition_target(t)
    paired = {"B": 0, "C": 1, "D": 0}.get(getattr(t, "series", None))
    series = [1] + [0] * n
    for p in range(1, n + 1):
        step = 2 * p if p % 2 == paired else p
        for total in range(step, n + 1):
            series[total] += series[total - step]
    return series[n]


def test_orbit_counts_are_the_generating_function_coefficients():
    # A third check that reads neither the generator nor the filter.
    counts = {str(t): len(list_orbits(t)) for t in CLASSICAL_UP_TO_20}
    assert counts == {str(t): _admissible_count(t) for t in CLASSICAL_UP_TO_20}
    assert [counts[name] for name in ("A20", "B20", "C20", "D20", "gl20")] \
        == [792, 5922, 7336, 5096, 627]


def test_gl_dims_against_centralizer_formula():
    for n in range(1, 9):
        for lab in list_orbits(GLType(n)):
            want = n * n - centralizer_dim_gl(lab.partition)
            assert orbit_dim(lab) == want, lab


def test_gl_extremes():
    for n in range(2, 9):
        dims = sorted(orbit_dim(lab) for lab in list_orbits(GLType(n)))
        assert dims[0] == 0
        assert dims[1] == 2 * n - 2
        assert dims[-1] == n * n - n


def test_type_a_matches_gl():
    for l in range(1, 8):
        a_dims = sorted(orbit_dim(lab)
                        for lab in list_orbits(SimpleType("A", l)))
        gl_dims = sorted(orbit_dim(lab)
                         for lab in list_orbits(GLType(l + 1)))
        assert a_dims == gl_dims


def test_classical_regular_orbits():
    # the regular orbit has dimension dim(g) - rank
    for l in range(2, 8):
        b = max(orbit_dim(lab) for lab in list_orbits(SimpleType("B", l)))
        assert b == (2 * l + 1) * l - l
        c = max(orbit_dim(lab) for lab in list_orbits(SimpleType("C", l)))
        assert c == 2 * l * l
        d = max(orbit_dim(lab) for lab in list_orbits(SimpleType("D", l)))
        assert d == l * (2 * l - 1) - l


def test_classical_minimal_orbits():
    for series, lo in (("B", 1), ("C", 1), ("D", 2)):
        for l in range(lo, 9):
            t = SimpleType(series, l)
            nontrivial = sorted(d for d in
                                (orbit_dim(lab) for lab in list_orbits(t))
                                if d > 0)
            assert nontrivial[0] == 2 * (dual_coxeter_number(t) - 1)
            assert nontrivial[0] == min_orbit_dim(t)


def test_min_orbit_dim_exceptional():
    assert min_orbit_dim(SimpleType("G", 2)) == 6
    assert min_orbit_dim(SimpleType("F", 4)) == 16
    assert min_orbit_dim(SimpleType("E", 6)) == 22
    assert min_orbit_dim(SimpleType("E", 7)) == 34
    assert min_orbit_dim(SimpleType("E", 8)) == 58


def test_parity_constraints():
    # B: even parts need even multiplicity
    with pytest.raises(DomainError):
        OrbitLabel(SimpleType("B", 2), (4, 1))
    OrbitLabel(SimpleType("B", 2), (2, 2, 1))
    # C: odd parts need even multiplicity
    with pytest.raises(DomainError):
        OrbitLabel(SimpleType("C", 2), (3, 1))
    OrbitLabel(SimpleType("C", 2), (1, 1, 1, 1))
    # D: even parts need even multiplicity
    with pytest.raises(DomainError):
        OrbitLabel(SimpleType("D", 3), (4, 2))
    OrbitLabel(SimpleType("D", 3), (3, 3))
    # size must match the type
    with pytest.raises(DomainError):
        OrbitLabel(SimpleType("B", 2), (3, 3))
    with pytest.raises(DomainError):
        OrbitLabel(GLType(3), (2, 2))


def test_gl_size_refuses_a_bool():
    # SimpleType and RootSystem refuse a bool rank; True is not gl1.
    with pytest.raises(DomainError, match="^gl size must be a positive "
                       "integer$"):
        GLType(True)


def test_very_even_flag():
    labels = list_orbits(SimpleType("D", 4))
    very_even = [lab for lab in labels if lab.very_even]
    assert sorted(str(lab) for lab in very_even) == ["(2,2,2,2)*", "(4,4)*"]
    # flagged once, not listed twice
    assert len([lab for lab in labels
                if lab.partition == (4, 4)]) == 1


def test_very_even_follows_the_partition():
    # The flag is derived, so no label can contradict its partition.
    d4 = OrbitLabel(SimpleType("D", 4), (2, 2, 2, 2))
    assert d4.very_even is True and str(d4).endswith("*")
    for lab in (OrbitLabel(SimpleType("D", 4), (3, 3, 1, 1)),
                OrbitLabel(SimpleType("C", 2), (2, 2)),
                OrbitLabel(GLType(4), (2, 2))):
        assert lab.very_even is False and not str(lab).endswith("*")
    with pytest.raises(TypeError):
        OrbitLabel(GLType(3), (3,), True)


def test_label_str():
    lab = OrbitLabel(GLType(4), (2, 1, 1))
    assert str(lab) == "(2,1,1)"


def test_exceptional_enumeration_refused():
    with pytest.raises(DomainError):
        list_orbits(SimpleType("G", 2))
    with pytest.raises(DomainError):
        list_orbits(SimpleType("E", 8))


def test_rank_guard():
    with pytest.raises(ResourceLimitError):
        list_orbits(SimpleType("B", 21))
    with pytest.raises(ResourceLimitError):
        list_orbits(GLType(22))


def test_the_largest_table_admitted_is_listed_within_5_s():
    # C20: 7,336 orbits, the most of a type at the rank limit (B20 has 5,922)
    start = time.perf_counter()
    labels = list_orbits(SimpleType("C", RANK_LIMIT))
    dims = [orbit_dim(lab) for lab in labels]
    assert time.perf_counter() - start < 5
    assert len(labels) == 7336 and max(dims) == 800 and min(dims) == 0


# -- list_orbits against the raise-and-catch filter ---------------------------


def _partitions_by_recursion(n, cap=None):
    if n == 0:
        return [()]
    cap = n if cap is None else min(cap, n)
    return [(first,) + rest for first in range(cap, 0, -1)
            for rest in _partitions_by_recursion(n - first, first)]


def _parity_by_counts(t, lam):
    """The parity rule as the raising validator counted it: even parts in
    types B and D, odd parts in type C, each with even multiplicity."""
    if isinstance(t, GLType) or t.series == "A":
        return True
    counts = {}
    for x in lam:
        counts[x] = counts.get(x, 0) + 1
    constrained = 0 if t.series in ("B", "D") else 1
    return not [x for x, c in counts.items()
                if x % 2 == constrained and c % 2 == 1]


def _orbits_by_raise_and_catch(t, size):
    """Build a label for every partition of size and keep those whose
    constructor does not raise; it must raise exactly where the counted
    rule fails."""
    labels = []
    for lam in _partitions_by_recursion(size):
        very_even = (isinstance(t, SimpleType) and t.series == "D"
                     and all(x % 2 == 0 for x in lam))
        try:
            labels.append(OrbitLabel(t, lam))
        except DomainError as exc:
            assert "must have even multiplicity" in str(exc), (t, lam)
            assert not _parity_by_counts(t, lam), (t, lam)
        else:
            assert _parity_by_counts(t, lam), (t, lam)
            assert labels[-1].very_even is very_even, (t, lam)
    return labels


CLASSICAL_UP_TO_12 = (
    [(SimpleType("A", r), r + 1) for r in range(1, 13)]
    + [(SimpleType("B", r), 2 * r + 1) for r in range(1, 13)]
    + [(SimpleType("C", r), 2 * r) for r in range(1, 13)]
    + [(SimpleType("D", r), 2 * r) for r in range(2, 13)]
    + [(GLType(n), n) for n in range(1, 13)])


def test_list_orbits_matches_the_raise_and_catch_filter():
    for t, size in CLASSICAL_UP_TO_12:
        assert list_orbits(t) == _orbits_by_raise_and_catch(t, size), t


# -- orbit dimensions against the transpose-partition formula ----------------


def _orbit_dim_by_transpose(label):
    """The dimension from the squares of the transpose partition's parts,
    as orbit_dim computed it before it summed (2i - 1) lambda_i."""
    t = label.attached_type
    lam = label.partition
    sq = sum(c * c for c in
             [sum(1 for x in lam if x > i) for i in range(lam[0])])
    odd = sum(1 for x in lam if x % 2 == 1)
    if isinstance(t, GLType) or t.series == "A":
        n = sum(lam)
        return n * n - sq
    if t.series in ("B", "D"):
        m = sum(lam)
        return (m * m - m) // 2 - (sq - odd) // 2
    l = sum(lam) // 2
    return 2 * l * l + l - (sq + odd) // 2


TRANSPOSE_TYPES = ([SimpleType(s, r) for s in "ABC" for r in range(1, 13)]
                   + [SimpleType("D", r) for r in range(2, 13)]
                   + [GLType(n) for n in range(1, 13)])


@pytest.mark.parametrize("t", TRANSPOSE_TYPES, ids=str)
def test_orbit_dim_matches_the_transpose_formula(t):
    for lab in list_orbits(t):
        assert orbit_dim(lab) == _orbit_dim_by_transpose(lab), lab
