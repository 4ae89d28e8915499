import itertools

import pytest
import sympy

from tracegeo import oracles, parabolic_lattice
from tracegeo.errors import DomainError, ResourceLimitError
from tracegeo.parabolic_lattice import (LeviDatum, _root_rank,
                                        count_contributing_tuples,
                                        d_nonvanishing,
                                        dim_unipotent_radical,
                                        enumerate_parabolic_subsets, f_sets,
                                        full_levi, levi_of, make_levi,
                                        minimal_levi)
from tracegeo.root_datum import build_root_system

# Counts for systems small enough to cross-check by scanning every root
# subset; the larger two are frozen from the same scan run once offline.
BRUTE_CHECKED = {"A1": 3, "A2": 13, "B2": 17, "A3": 75}
FROZEN = {"B3": 147, "A5": 4683}


def test_counts_against_brute_force():
    for name, count in BRUTE_CHECKED.items():
        rs = build_root_system([name])
        got = len(enumerate_parabolic_subsets(rs))
        assert got == oracles.brute_force_parabolic_count(rs) == count, name
    rs = build_root_system(["A1", "A1"])
    got = len(enumerate_parabolic_subsets(rs))
    assert got == oracles.brute_force_parabolic_count(rs) == 9


def test_counts_frozen():
    for name, count in FROZEN.items():
        rs = build_root_system([name])
        assert len(enumerate_parabolic_subsets(rs)) == count, name


def test_parabolic_subsets_are_parabolic():
    for name in ("A2", "B2", "A3"):
        rs = build_root_system([name])
        neg = rs.negation
        add = rs.addition_table
        for p in enumerate_parabolic_subsets(rs):
            s = p.members
            # S u -S covers all roots
            assert all(i in s or neg[i] in s for i in range(len(rs.roots)))
            # closed under addition
            for i, j in itertools.combinations(sorted(s), 2):
                k = add[i][j]
                assert k < 0 or k in s


def test_enumeration_guard():
    rs = build_root_system(["A7"])
    with pytest.raises(ResourceLimitError):
        enumerate_parabolic_subsets(rs)


SIMPLE_TYPES = ([f"{x}{r}" for x in "ABC" for r in range(1, 9)]
                + [f"D{r}" for r in range(2, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])


def test_standard_levi_rank_is_subset_size():
    # The roots of the span of a simple-root subset J have rank |J|.
    seen = 0
    for factors in ([[t] for t in SIMPLE_TYPES]
                    + [["A2", "B3"], ["G2", "F4"], ["D4", "A1"],
                       ["E6", "A2"]]):
        rs = build_root_system(factors)
        s = rs.semisimple_rank
        for mask in range(1 << s):
            subset = [j for j in range(s) if mask >> j & 1]
            assert _root_rank(rs, rs.roots_in_simple_span(subset)) == \
                len(subset), (factors, subset)
            seen += 1
    assert seen == 2890


def test_levi_of_split_center_matches_sympy_rank():
    # One type per isomorphism class of rank <= 4; a_M is the group
    # dimension minus the rank of the Levi's roots in ambient coordinates.
    seen = set()
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                 "D4", "F4", "G2"):
        rs = build_root_system([name])
        want = {}
        for p in enumerate_parabolic_subsets(rs):
            levi = levi_of(p)
            if levi.levi_roots not in want:
                roots = [rs.roots[i] for i in levi.levi_roots]
                want[levi.levi_roots] = rs.group_dim - (
                    sympy.Matrix(roots).rank() if roots else 0)
            assert levi.a_M_dim == want[levi.levi_roots], (name, p)
        seen.update((name, key) for key in want)
    assert len(seen) == 708


def test_parabolic_count_limit(monkeypatch):
    monkeypatch.setattr(parabolic_lattice, "PARABOLIC_COUNT_LIMIT", 100)
    assert len(enumerate_parabolic_subsets(build_root_system(["A3"]))) == 75
    with pytest.raises(ResourceLimitError, match="limited to 100 subsets"):
        enumerate_parabolic_subsets(build_root_system(["B3"]))


def test_levi_dimensions_a2():
    rs = build_root_system(["A2"])
    m0 = minimal_levi(rs)
    assert m0.a_M_dim == 2
    g = full_levi(rs)
    assert g.a_M_dim == 0
    # a Levi generated by one root pair
    alpha_idx = rs.root_index[rs.simple_roots[0]]
    neg_idx = rs.negation[alpha_idx]
    l = make_levi(rs, [alpha_idx, neg_idx])
    assert l.a_M_dim == 1


def test_levi_dimensions_with_torus():
    rs = build_root_system(["A1"], torus_rank=2)
    assert minimal_levi(rs).a_M_dim == 3
    assert full_levi(rs).a_M_dim == 2


def test_make_levi_closure():
    rs = build_root_system(["A2"])
    alpha_idx = rs.root_index[rs.simple_roots[0]]
    beta_idx = rs.root_index[rs.simple_roots[1]]
    # non-symmetric input is rejected outright
    with pytest.raises(DomainError):
        make_levi(rs, [alpha_idx])
    # {±a, ±b} spans ±(a+b) without containing it: not saturated, rejected
    with pytest.raises(DomainError):
        make_levi(rs, [alpha_idx, rs.negation[alpha_idx],
                       beta_idx, rs.negation[beta_idx]])
    l = make_levi(rs, range(len(rs.roots)))
    assert len(l.levi_roots) == 6
    assert l.a_M_dim == 0


def test_f_sets_partition_and_sizes():
    rs = build_root_system(["A2"])
    m0 = minimal_levi(rs)
    f, levis, by_levi = f_sets(rs, m0)
    assert len(f) == 13
    assert len(levis) == 5
    sizes = sorted(len(v) for v in by_levi.values())
    assert sizes == [1, 2, 2, 2, 6]
    assert sum(sizes) == len(f)
    for levi, members in by_levi.items():
        for p in members:
            assert levi_of(p).levi_roots == levi.levi_roots


def test_f_sets_at_intermediate_levi():
    rs = build_root_system(["A2"])
    alpha_idx = rs.root_index[rs.simple_roots[0]]
    l = make_levi(rs, [alpha_idx, rs.negation[alpha_idx]])
    f, levis, by_levi = f_sets(rs, l)
    # parabolics containing this Levi: itself as Levi of two, plus G
    assert len(f) == 3
    assert len(levis) == 2


def test_dim_unipotent_radical():
    rs = build_root_system(["A2"])
    for p in enumerate_parabolic_subsets(rs):
        levi = levi_of(p)
        assert dim_unipotent_radical(p) == (len(p.members)
                                            - len(levi.levi_roots))
        assert 2 * dim_unipotent_radical(p) == (len(rs.roots)
                                                - len(levi.levi_roots))


def test_d_nonvanishing_cases():
    rs = build_root_system(["A2"])
    m0 = minimal_levi(rs)
    g = full_levi(rs)
    idx_a = rs.root_index[rs.simple_roots[0]]
    idx_b = rs.root_index[rs.simple_roots[1]]
    l_a = make_levi(rs, [idx_a, rs.negation[idx_a]])
    l_b = make_levi(rs, [idx_b, rs.negation[idx_b]])
    assert d_nonvanishing(rs, m0, m0, g)
    assert d_nonvanishing(rs, m0, g, m0)
    assert d_nonvanishing(rs, m0, l_a, l_b)
    assert not d_nonvanishing(rs, m0, g, g)
    assert not d_nonvanishing(rs, m0, l_a, l_a)
    assert not d_nonvanishing(rs, m0, m0, l_a)
    assert d_nonvanishing(rs, l_a, l_a, g)


def test_d_nonvanishing_requires_containment():
    rs = build_root_system(["A2"])
    idx_a = rs.root_index[rs.simple_roots[0]]
    idx_b = rs.root_index[rs.simple_roots[1]]
    l_a = make_levi(rs, [idx_a, rs.negation[idx_a]])
    l_b = make_levi(rs, [idx_b, rs.negation[idx_b]])
    with pytest.raises(DomainError):
        d_nonvanishing(rs, l_a, l_b, full_levi(rs))


def test_count_contributing_tuples_values():
    rs = build_root_system(["A2"])
    m0 = minimal_levi(rs)
    assert count_contributing_tuples(rs, m0, 1) == 5
    assert count_contributing_tuples(rs, m0, 2) == 25


def test_count_contributing_tuples_brute_force():
    # The count is the number of tuples over L(M) whose non-maximal
    # entries number at most dim a_M^G.
    for name in ("A2", "A3"):
        rs = build_root_system([name])
        m0 = minimal_levi(rs)
        _, levis, _ = f_sets(rs, m0)
        g_key = full_levi(rs).sort_key()
        d = m0.a_M_dim - rs.torus_rank
        for s in (1, 2, 3):
            brute = sum(
                1 for tup in itertools.product(levis, repeat=s)
                if sum(1 for l in tup if l.sort_key() != g_key) <= d)
            assert count_contributing_tuples(rs, m0, s) == brute, (name, s)


def test_count_contributing_tuples_guards():
    rs = build_root_system(["A2"])
    m0 = minimal_levi(rs)
    with pytest.raises(DomainError):
        count_contributing_tuples(rs, m0, 0)
    with pytest.raises(ResourceLimitError):
        count_contributing_tuples(rs, m0, 9)


def test_system_mismatch_rejected():
    rs1 = build_root_system(["A2"])
    rs2 = build_root_system(["B2"])
    with pytest.raises(DomainError):
        f_sets(rs2, minimal_levi(rs1))


# -- the splitting predicate against the Gram/nullspace construction ---------
#
# The reference builds each split-center space as a sympy nullspace in
# coordinates of the group basis (simple roots, then torus unit vectors),
# takes orthogonal complements under that basis's Gram matrix, and checks
# that the two complements are independent and fill a_M^G.  The route under
# test compares ranks of root sets and never forms a subspace.


def _nullspace(rows, width):
    """Basis of the right nullspace, by sympy; all of Q^width for no rows."""
    m = sympy.Matrix(len(rows), width, [x for row in rows for x in row])
    return [list(v) for v in m.nullspace()]


def _split_reference(rs):
    dim = rs.ambient_dim
    basis = [list(r) for r in rs.simple_roots] + [
        [int(j == dim - rs.torus_rank + k) for j in range(dim)]
        for k in range(rs.torus_rank)]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]

    def a_space(levi_roots):
        return _nullspace(
            [[sum(a * b for a, b in zip(bk, rs.roots[i])) for bk in basis]
             for i in sorted(levi_roots)], len(basis))

    def inner(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(len(u))
                   for j in range(len(v)))

    def relative(outer, inner_sub):
        if not outer:
            return []
        rows = [[inner(o, w) for o in outer] for w in inner_sub]
        return [[sum(c * o[t] for c, o in zip(y, outer))
                 for t in range(len(outer[0]))]
                for y in _nullspace(rows, len(outer))]

    all_roots = frozenset(range(len(rs.roots)))
    cache = {}

    def rel(m, l):
        if (m, l) not in cache:
            cache[m, l] = relative(a_space(m), a_space(l))
        return cache[m, l]

    def d(m, l1, l2):
        rel1, rel2 = rel(m, l1), rel(m, l2)
        if len(rel1) + len(rel2) != len(rel(m, all_roots)):
            return False
        return sympy.Matrix(rel1 + rel2).rank() == len(rel1) + len(rel2)

    return d


SPLIT_SYSTEMS = [(["A1"], 0), (["A1", "A1"], 0), (["A2"], 0), (["A2"], 1),
                 (["A3"], 0), (["B2"], 0), (["G2"], 0), (["B3"], 0),
                 (["C3"], 0), (["A1", "B2"], 0), (["A4"], 0)]


def test_d_nonvanishing_matches_gram_construction():
    seen = 0
    for factors, torus in SPLIT_SYSTEMS:
        rs = build_root_system(factors, torus)
        reference = _split_reference(rs)
        levis = sorted({levi_of(p) for p in enumerate_parabolic_subsets(rs)},
                       key=LeviDatum.sort_key)
        for m in levis:
            bigger = [l for l in levis if m.levi_roots <= l.levi_roots]
            for l1, l2 in itertools.product(bigger, repeat=2):
                assert d_nonvanishing(rs, m, l1, l2) == reference(
                    m.levi_roots, l1.levi_roots, l2.levi_roots), (
                    factors, torus, m.sort_key(), l1.sort_key(),
                    l2.sort_key())
                seen += 1
    assert seen == 8463
