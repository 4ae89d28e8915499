import itertools
import math
import time
import tracemalloc
import types
from fractions import Fraction

import pytest
import sympy

from tracegeo import linalg, oracles, parabolic_lattice, root_datum
from tracegeo.errors import DomainError, ResourceLimitError
from tracegeo.parabolic_lattice import (LeviDatum, ParabolicSubset, _root_rank,
                                        count_contributing_tuples,
                                        d_nonvanishing,
                                        dim_unipotent_radical,
                                        enumerate_parabolic_subsets, f_sets,
                                        full_levi, levi_of, make_levi,
                                        minimal_levi)
from tracegeo.root_datum import (RootSystem, build_root_system, mask_tables,
                                 negate_mask, permute_masks)

import parabolic_reference
from test_invariants_k import roots_in_simple_span
from test_root_datum import negation

# Counts for systems small enough to cross-check by scanning every root
# subset; the larger two are frozen from the same scan run once offline.
BRUTE_CHECKED = {"A1": 3, "A2": 13, "B2": 17, "G2": 25, "A3": 75, "A1xA1": 9}
FROZEN = {"B3": 147, "A5": 4683}


def test_counts_against_brute_force():
    # The scan is handed the root vectors alone, so it can read no table
    # the library derived from them.
    for name, count in BRUTE_CHECKED.items():
        rs = build_root_system(name.split("x"))
        got = len(enumerate_parabolic_subsets(rs))
        bare = types.SimpleNamespace(roots=rs.roots)
        assert got == oracles.brute_force_parabolic_count(bare) == count, name


def test_counts_frozen():
    for name, count in FROZEN.items():
        rs = build_root_system([name])
        assert len(enumerate_parabolic_subsets(rs)) == count, name


def test_parabolic_subsets_are_parabolic():
    for name in ("A2", "B2", "A3"):
        rs = build_root_system([name])
        neg = negation(rs)
        index = {r: i for i, r in enumerate(rs.roots)}
        for p in enumerate_parabolic_subsets(rs):
            s = p.members
            # S u -S covers all roots
            assert all(i in s or neg[i] in s for i in range(len(rs.roots)))
            # closed under addition
            for i, j in itertools.combinations(sorted(s), 2):
                k = index.get(tuple(a + b for a, b in zip(rs.roots[i],
                                                          rs.roots[j])))
                assert k is None or k in s


def _macdonald_order(rs, subset):
    """|W_J| as the product of (ht + 1) / ht over the positive roots in the
    span of J (Macdonald, Math. Ann. 199, 1972)."""
    order = Fraction(1)
    for i in roots_in_simple_span(rs, subset):
        if rs.is_positive[i]:
            order *= Fraction(rs.heights[i] + 1, rs.heights[i])
    assert order.denominator == 1
    return order.numerator


HEIGHT_FORMULA_CASES = ([[f"A{r}"] for r in range(1, 6)]
                        + [["B2"], ["B3"], ["B4"], ["C3"], ["C4"], ["D4"],
                           ["D5"], ["F4"], ["G2"], ["A1", "B2"],
                           ["G2", "A2"]])


@pytest.mark.parametrize("factors", HEIGHT_FORMULA_CASES,
                         ids=["x".join(f) for f in HEIGHT_FORMULA_CASES])
def test_count_matches_height_formula(factors):
    # Every parabolic subset is conjugate to exactly one standard P_J,
    # whose stabilizer in W is W_J: the count is sum_J |W| / |W_J|.
    rs = build_root_system(factors)
    s = rs.semisimple_rank
    w = _macdonald_order(rs, range(s))
    want = sum(w // _macdonald_order(rs, [j for j in range(s)
                                          if mask >> j & 1])
               for mask in range(1 << s))
    assert len(enumerate_parabolic_subsets(rs)) == want


def _bit_loop_closure(rs):
    """Member sets of the standard parabolic seeds closed under the simple
    reflections, each applied to a mask one bit at a time."""
    n = len(rs.roots)
    s = rs.semisimple_rank
    pos = sum(1 << i for i in range(n) if rs.is_positive[i])
    seen = {pos | sum(1 << i for i in roots_in_simple_span(
        rs, [j for j in range(s) if mask >> j & 1])) for mask in range(1 << s)}
    frontier = list(seen)
    while frontier:
        mask = frontier.pop()
        for perm in rs.reflection_perms:
            img = 0
            for i in range(n):
                if mask >> i & 1:
                    img |= 1 << perm[i]
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return {frozenset(i for i in range(n) if m >> i & 1) for m in seen}


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "F4"])
def test_closure_matches_bit_loop_reference(name):
    rs = build_root_system([name])
    got = enumerate_parabolic_subsets(rs)
    keys = [tuple(sorted(p.members)) for p in got]
    assert keys == sorted(set(keys))
    assert {p.members for p in got} == _bit_loop_closure(rs)


@pytest.mark.parametrize("name", ["B3", "F4"])
def test_member_roots_are_sorted_roots(name):
    rs = build_root_system([name])
    for p in enumerate_parabolic_subsets(rs):
        levi = levi_of(p)
        for data, members in ((p, p.members), (levi, levi.levi_roots)):
            assert data.member_roots == tuple(sorted(rs.roots[i]
                                                     for i in members))


def test_a_shared_levi_decodes_its_roots_once():
    # parabolics prints the shared Levi's roots on every row of its
    # subsets: A3's 75 subsets have 15 Levis.
    rs = build_root_system(["A3"])
    levis = [levi_of(p) for p in enumerate_parabolic_subsets(rs)]
    assert len(levis) == 75 and len({id(levi) for levi in levis}) == 15
    for levi in levis:
        assert levi.member_roots is levi.member_roots


@pytest.mark.parametrize("name", ["F4", "A2xB3"])
def test_a_subset_holds_only_its_mask(name):
    # A subset decodes on every read and keeps nothing it decodes, so
    # F4's 5,089 subsets hold no frozenset each, only the int mask of
    # their radical; the Levi they share keeps its own.
    rs = build_root_system(name.split("x"))
    for p in enumerate_parabolic_subsets(rs):
        assert p.members == frozenset(p.sort_key())
        assert len(p.member_roots) == p.mask.bit_count()
        assert vars(p).keys() == {"system", "mask", "radical"}
        assert type(p.radical) is int
        assert levi_of(p).members is levi_of(p).members


def test_f4_lattice_peaks_under_2_mib():
    # 12.1 MB when each subset cached a frozenset; roots generated traced
    root_datum.type_data.cache_clear()
    tracemalloc.start()
    try:
        for p in enumerate_parabolic_subsets(build_root_system(["F4"])):
            p.members, levi_of(p).levi_roots
        assert tracemalloc.get_traced_memory()[1] < 2 * 2**20
    finally:
        tracemalloc.stop()


def test_enumeration_guard():
    rs = build_root_system(["A7"])
    with pytest.raises(ResourceLimitError):
        enumerate_parabolic_subsets(rs)


@pytest.mark.parametrize("copies", [7, 8])
def test_small_products_of_high_rank_are_enumerated(copies):
    # The guard bounds the count, not the rank: each A1 factor has 3
    # parabolic subsets, so copies of A1 have 3^copies.
    rs = build_root_system(["A1"] * copies)
    assert len(enumerate_parabolic_subsets(rs)) == 3 ** copies


def test_count_limit_refuses_before_seeding(monkeypatch):
    # Rank 7 has 2^7 = 128 standard seeds, already past a limit of 100.
    def no_seeding(self):
        raise AssertionError("seeded")

    monkeypatch.setattr(parabolic_lattice, "PARABOLIC_COUNT_LIMIT", 100)
    monkeypatch.setattr(RootSystem, "span_masks", no_seeding)
    with pytest.raises(ResourceLimitError, match="limited to 100 subsets"):
        enumerate_parabolic_subsets(build_root_system(["A1"] * 7))


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
            roots = sum(1 << i for i in roots_in_simple_span(rs, subset))
            assert _root_rank(rs, roots) == len(subset), (factors, subset)
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


def _walk_seeded_a_M_dims(rs):
    """The coset walk as it stood while it carried a rank beside each mask
    (the Levi of w.P_J has rank |J|): {Levi mask: group_dim - rank}."""
    last = len(rs.roots) - 1
    simple = [rs.root_index[a] for a in rs.simple_roots]
    steps = [(mask_tables(perm), 1 << simple[i],
              sum(1 << last - perm[a] for a in simple[:i]))
             for i, perm in enumerate(rs.reflection_perms)]
    found = [span | rs.positive_mask for span in rs.span_masks()]
    ranks = [subset.bit_count() for subset in range(len(found))]
    seeded = {}
    for k, mask in enumerate(found):
        sym = mask & negate_mask(rs, mask)
        assert seeded.setdefault(sym, rs.group_dim - ranks[k]) == \
            rs.group_dim - ranks[k]
        for tables, ascent, descents in steps:
            if mask & ~sym & ascent and not mask & ~sym & descents:
                found += permute_masks(tables, [mask])
                ranks.append(ranks[k])
    return seeded


def test_derived_a_M_dim_matches_the_walk_seeded_rank():
    admitted = []
    for factors in ([[t] for t in SIMPLE_TYPES]
                    + [["A2", "B3"], ["G2", "F4"], ["D4", "A1"]]):
        rs = build_root_system(factors, torus_rank=len(factors) - 1)
        try:
            subsets = enumerate_parabolic_subsets(rs)
        except ResourceLimitError:
            continue
        derived = {}
        for p in subsets:
            levi = levi_of(p)
            derived[levi.mask] = levi.a_M_dim
        assert derived == _walk_seeded_a_M_dims(rs), factors
        admitted.append("x".join(factors))
    assert admitted == ["A1", "A2", "A3", "A4", "A5", "A6", "B1", "B2", "B3",
                        "B4", "B5", "C1", "C2", "C3", "C4", "C5", "D2", "D3",
                        "D4", "D5", "F4", "G2", "A2xB3", "D4xA1"]


def test_levi_records_hold_only_their_mask():
    assert "_fields" not in vars(LeviDatum)
    assert "__init__" not in vars(LeviDatum)
    assert not hasattr(parabolic_lattice, "_levi")
    # the walk only enumerates: no Levi is built
    rs = build_root_system(["B3"])
    enumerate_parabolic_subsets(rs)
    assert rs.levi_memo == {}


# A3's Levis are the set partitions of its four coordinates (the Bell
# number 15); B3 and F4 as the frozenset reference below counts them.
@pytest.mark.parametrize("name,count", [("A3", 15), ("B3", 24), ("F4", 268)])
def test_subsets_with_one_symmetric_part_share_one_levi(name, count):
    rs = build_root_system([name])
    by_sym = {}
    for p in enumerate_parabolic_subsets(rs):
        levi = levi_of(p)
        assert levi.mask == p.mask & negate_mask(rs, p.mask)
        assert by_sym.setdefault(levi.mask, levi) is levi
    assert len(by_sym) == len({id(l) for l in by_sym.values()}) == count
    # f_sets groups through levi_of: its keys are the shared records
    f_all, levis, by_levi = f_sets(rs, minimal_levi(rs))
    assert len(f_all) == sum(map(len, by_levi.values()))
    assert all(by_sym[l.mask] is l for l in levis)
    assert all(by_sym[l.mask] is l for l in by_levi)
    # a shared record works out its a_M_dim once
    levi = levis[0]
    assert "a_M_dim" not in vars(levi)
    dim = levi.a_M_dim
    assert vars(levi)["a_M_dim"] == dim == rs.group_dim


def test_parabolic_count_limit(monkeypatch):
    # The limit is exact: B3 has 147 parabolic subsets.
    monkeypatch.setattr(parabolic_lattice, "PARABOLIC_COUNT_LIMIT", 147)
    assert len(enumerate_parabolic_subsets(build_root_system(["B3"]))) == 147
    monkeypatch.setattr(parabolic_lattice, "PARABOLIC_COUNT_LIMIT", 146)
    assert len(enumerate_parabolic_subsets(build_root_system(["A3"]))) == 75
    with pytest.raises(ResourceLimitError, match="limited to 146 subsets"):
        enumerate_parabolic_subsets(build_root_system(["B3"]))


def test_the_most_subsets_admitted_are_enumerated_within_5_s():
    # 25 * 17 * 17 * 3 * 3 = 65,025 subsets, the most of an admitted
    # system found; each factor's Levis multiply too (8 * 6 * 6 * 2 * 2).
    rs = build_root_system(["G2", "B2", "B2", "A1", "A1"])
    start = time.perf_counter()
    subsets = enumerate_parabolic_subsets(rs)
    levis = {levi_of(p) for p in subsets}
    dims = [dim_unipotent_radical(p) for p in subsets]
    assert time.perf_counter() - start < 5
    assert len(subsets) == 65025 and len(levis) == 1152
    assert max(dims) == 16 and min(dims) == 0


# The simple types within the count limit and their subset counts.  A7,
# B6, C6, D6 and E6 are past it, and so is every larger type of their
# series: each has one of them as a standard Levi, and a Levi's parabolic
# subsets, joined with the radical N_J, are parabolic subsets of the type.
COUNTS_WITHIN_LIMIT = {
    "A1": 3, "A2": 13, "A3": 75, "A4": 541, "A5": 4683, "A6": 47293,
    "B2": 17, "B3": 147, "B4": 1697, "B5": 24483, "C3": 147, "C4": 1697,
    "C5": 24483, "D4": 865, "D5": 12483, "G2": 25, "F4": 5089}


def test_no_system_within_the_limit_has_more_than_64_roots():
    # The enumeration packs each subset's mask in a 64-bit word.  A
    # product's count is its factors' product, so the most roots within
    # the limit are B5xA1's, C5xA1's and F4xA1xA1's 52.
    for name in ["A7", "B6", "C6", "D6", "E6"]:
        with pytest.raises(ResourceLimitError):
            enumerate_parabolic_subsets(build_root_system([name]))
    sizes = []
    for name, count in COUNTS_WITHIN_LIMIT.items():
        rs = build_root_system([name])
        assert len(enumerate_parabolic_subsets(rs)) == count
        sizes.append((len(rs.roots), count))

    def most_roots(start, roots, count):
        return max([roots] + [
            most_roots(i, roots + n, count * c)
            for i, (n, c) in enumerate(sizes[start:], start)
            if count * c <= parabolic_lattice.PARABOLIC_COUNT_LIMIT])

    assert most_roots(0, 0, 1) == 52


def test_levi_dimensions_a2():
    rs = build_root_system(["A2"])
    m0 = minimal_levi(rs)
    assert m0.a_M_dim == 2
    g = full_levi(rs)
    assert g.a_M_dim == 0
    # a Levi generated by one root pair
    alpha_idx = rs.root_index[rs.simple_roots[0]]
    neg_idx = negation(rs)[alpha_idx]
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
    neg = negation(rs)
    # non-symmetric input is rejected outright
    with pytest.raises(DomainError):
        make_levi(rs, [alpha_idx])
    # {±a, ±b} spans ±(a+b) without containing it: not saturated, rejected
    with pytest.raises(DomainError):
        make_levi(rs, [alpha_idx, neg[alpha_idx], beta_idx, neg[beta_idx]])
    # indices must be ints, not floats, strings or bools
    for bad, shown in ((1.0, "1.0"), ("1", "'1'"), (True, "True")):
        with pytest.raises(DomainError) as info:
            make_levi(rs, [bad, neg[alpha_idx]])
        assert str(info.value) == \
            f"root indices must be integers, got {shown}"
    l = make_levi(rs, range(len(rs.roots)))
    assert len(l.levi_roots) == 6
    assert l.a_M_dim == 0


def test_f_sets_rejects_hand_built_non_levis():
    rs = build_root_system(["A2"])
    alpha = rs.root_index[rs.simple_roots[0]]
    beta = rs.root_index[rs.simple_roots[1]]
    neg = negation(rs)
    pairs = 1 << alpha | 1 << neg[alpha] | 1 << beta | 1 << neg[beta]
    for mask, message in ((1 << alpha, "closed under negation"),
                          (pairs, "every root in their span"),
                          (1 << len(rs.roots), "out of range")):
        with pytest.raises(DomainError, match=message):
            f_sets(rs, LeviDatum(rs, mask))


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
    l = make_levi(rs, [alpha_idx, negation(rs)[alpha_idx]])
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
    neg = negation(rs)
    l_a = make_levi(rs, [idx_a, neg[idx_a]])
    l_b = make_levi(rs, [idx_b, neg[idx_b]])
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
    neg = negation(rs)
    l_a = make_levi(rs, [idx_a, neg[idx_a]])
    l_b = make_levi(rs, [idx_b, neg[idx_b]])
    with pytest.raises(DomainError):
        d_nonvanishing(rs, l_a, l_b, full_levi(rs))


def test_hand_built_masks_past_the_roots_are_refused():
    rs = build_root_system(["A2"])
    for mask in (1 << 6, 1 << 7, 63 | 1 << 7, 1 << 100):
        for call in (lambda: levi_of(ParabolicSubset(rs, mask)),
                     lambda: dim_unipotent_radical(ParabolicSubset(rs, mask)),
                     lambda: d_nonvanishing(rs, minimal_levi(rs),
                                            LeviDatum(rs, mask),
                                            full_levi(rs))):
            with pytest.raises(DomainError, match="out of range"):
                call()


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
        for s in (1, 2, 3, 4):
            brute = sum(
                1 for tup in itertools.product(levis, repeat=s)
                if sum(1 for l in tup if l.sort_key() != g_key) <= d)
            assert count_contributing_tuples(rs, m0, s) == brute, (name, s)


def test_count_contributing_tuples_guards():
    rs = build_root_system(["A2"])
    m0 = minimal_levi(rs)
    for bad, shown in ((0, "0"), (-1, "-1"), (2.0, "2.0"), ("3", "'3'"),
                       (True, "True"), (None, "None"),
                       ("3" * 50, "'" + "3" * 39 + "... (52 characters)")):
        with pytest.raises(DomainError) as info:
            count_contributing_tuples(rs, m0, bad)
        assert str(info.value) == \
            f"s_size must be a positive integer, got {shown}"
    # No size guard: the closed form has min(s, d) + 1 terms, here with 5
    # Levis and d = 2.
    assert count_contributing_tuples(rs, m0, 9) == \
        sum(math.comb(9, j) * 4 ** j for j in range(3))


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


# -- the mask layer against the frozenset layer it replaced ------------------
#
# A copy of the frozenset implementation: nibble-table closure, subsets as
# sorted index tuples, Levis as frozenset intersections ranked from the set
# of their positive coordinate rows.  The layer under test must reproduce
# its enumeration order, members, Levis, split-center dims, radical dims
# and f_sets grouping exactly.

_REF_NIBBLE_BITS = tuple(tuple(b for b in range(4) if v >> b & 1)
                         for v in range(16))


def _ref_nibble_tables(perm):
    tables = []
    for base in range(0, len(perm), 4):
        table = [0]
        for j in perm[base:base + 4]:
            table += [img | 1 << j for img in table]
        tables.append(table)
    return tables


def _ref_enumerate(rs):
    s, n = rs.semisimple_rank, len(rs.roots)
    pos_mask = sum(1 << i for i in range(n) if rs.is_positive[i])
    seeds = set()
    for subset in range(1 << s):
        chosen = [i for i in range(s) if subset >> i & 1]
        seeds.add(pos_mask | sum(1 << i
                                 for i in roots_in_simple_span(rs, chosen)))
    shifts = range(0, n, 4)
    tables = [list(zip(shifts, _ref_nibble_tables(perm)))
              for perm in rs.reflection_perms]
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        mask = frontier.pop()
        for table in tables:
            img = 0
            for shift, row in table:
                img |= row[mask >> shift & 15]
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    rows = sorted(tuple(shift + b for shift in shifts
                        for b in _REF_NIBBLE_BITS[m >> shift & 15])
                  for m in seen)
    return [frozenset(r) for r in rows]


def _ref_root_rank(rs, members):
    coords, pos, neg = rs.simple_coords, rs.is_positive, negation(rs)
    rows = {coords[i] if pos[i] else coords[neg[i]] for i in members}
    return linalg.rank(list(rows))


def _ref_symmetric_part(rs, members):
    return members.intersection(map(negation(rs).__getitem__, members))


def _ref_levi_of(rs, members):
    sym = _ref_symmetric_part(rs, members)
    return sym, rs.group_dim - _ref_root_rank(rs, sym)


def _ref_f_sets(rs, m_roots, subsets):
    f_all = [p for p in subsets if m_roots <= p]
    by_levi = {}
    for p in f_all:
        by_levi.setdefault(_ref_levi_of(rs, p), []).append(p)
    return f_all, sorted(by_levi, key=lambda l: tuple(sorted(l[0]))), by_levi


ADMITTED_SIMPLE_TYPES = ([f"A{r}" for r in range(1, 7)]
                         + [f"{x}{r}" for x in "BC" for r in range(1, 6)]
                         + [f"D{r}" for r in range(2, 6)] + ["F4", "G2"])
DIFFERENTIAL_SYSTEMS = ([[t] for t in ADMITTED_SIMPLE_TYPES]
                        + [["A1", "B2"], ["A2", "G2"], ["A1"] * 7])


def test_differential_systems_cover_every_admitted_simple_type():
    # A type is admitted when its parabolic count, by the height formula,
    # is within the limit; no enumeration runs here.
    admitted = []
    for t in SIMPLE_TYPES:
        rs = build_root_system([t])
        s = rs.semisimple_rank
        w = _macdonald_order(rs, range(s))
        count = sum(w // _macdonald_order(rs, [j for j in range(s)
                                               if mask >> j & 1])
                    for mask in range(1 << s))
        if count <= parabolic_lattice.PARABOLIC_COUNT_LIMIT:
            admitted.append(t)
    assert sorted(admitted) == sorted(ADMITTED_SIMPLE_TYPES)


@pytest.mark.parametrize("factors", DIFFERENTIAL_SYSTEMS,
                         ids=["x".join(f) for f in DIFFERENTIAL_SYSTEMS])
def test_lattice_matches_frozenset_reference(factors):
    rs = build_root_system(factors)
    want = _ref_enumerate(rs)
    got = enumerate_parabolic_subsets(rs)
    assert [p.members for p in got] == want
    assert [p.sort_key() for p in got] == [tuple(sorted(p)) for p in want]
    ref_levis = {}
    for p, members in zip(got, want):
        levi = levi_of(p)
        ref = ref_levis.get(levi.levi_roots)
        if ref is None:
            ref = ref_levis[levi.levi_roots] = _ref_levi_of(rs, members)
        assert (levi.levi_roots, levi.a_M_dim) == ref
        assert dim_unipotent_radical(p) == len(members) - len(ref[0])
    assert len(ref_levis) == len({_ref_symmetric_part(rs, p) for p in want})
    maximal = make_levi(rs, roots_in_simple_span(
        rs, range(rs.semisimple_rank - 1)))
    for m in (minimal_levi(rs), maximal, full_levi(rs)):
        f_all, levis, by_levi = f_sets(rs, m)
        ref_all, ref_levis, ref_by = _ref_f_sets(rs, m.levi_roots, want)
        assert [p.members for p in f_all] == ref_all
        assert [(l.levi_roots, l.a_M_dim) for l in levis] == ref_levis
        assert [((l.levi_roots, l.a_M_dim), [p.members for p in ps])
                for l, ps in by_levi.items()] == list(ref_by.items())


DISTINCT_SYSTEMS = ([(f, 0) for f in DIFFERENTIAL_SYSTEMS]
                    + [(["A2"], 1), (["B3", "A1"], 2), (["C3", "A2"], 0)])


@pytest.mark.parametrize(
    "factors,torus", DISTINCT_SYSTEMS,
    ids=["x".join(f) + (f"+T{k}" if k else "") for f, k in DISTINCT_SYSTEMS])
def test_enumerated_masks_are_distinct(factors, torus):
    # Nothing deduplicates the enumeration's masks after the fact, so a
    # subset reached twice would show here; the count is the height
    # formula's.
    rs = build_root_system(factors, torus)
    masks = [p.mask for p in enumerate_parabolic_subsets(rs)]
    assert len(set(masks)) == len(masks)
    s = rs.semisimple_rank
    w = _macdonald_order(rs, range(s))
    assert len(masks) == sum(
        w // _macdonald_order(rs, [j for j in range(s) if mask >> j & 1])
        for mask in range(1 << s))


# -- the layer against the walk on P ---------------------------------------
#
# parabolic_reference holds the route as it ran before a subset carried its
# radical: the walk on P, the string-key sort and the Levi as P n -P.  The
# library must return the same masks in the same order and share one Levi
# record per symmetric part, the reference's.

REFERENCE_SYSTEMS = DISTINCT_SYSTEMS + [(["A2", "B2"], 1),
                                        (["B2", "A1", "A1"], 2), ([], 2)]


@pytest.mark.parametrize(
    "factors,torus", REFERENCE_SYSTEMS,
    ids=[("x".join(f) + (f"+T{k}" if k else "")) or f"T{k}"
         for f, k in REFERENCE_SYSTEMS])
def test_lattice_matches_the_walk_on_p(factors, torus):
    rs = build_root_system(factors, torus)
    got = enumerate_parabolic_subsets(rs)
    assert [p.mask for p in got] == parabolic_reference.enumerate_masks(
        rs, parabolic_lattice.PARABOLIC_COUNT_LIMIT)
    assert rs.levi_memo == {}
    shared = {}
    for p in got:
        assert p.radical == p.mask & ~negate_mask(rs, p.mask)
        levi = levi_of(p)
        assert levi.mask == parabolic_reference.levi_mask(rs, p.mask)
        assert shared.setdefault(levi.mask, levi) is levi
        assert levi_of(ParabolicSubset(rs, p.mask)) is levi
    assert rs.levi_memo == shared


# -- the walk against the walk on P ------------------------------------------
#
# The walk runs on radicals, one level at a time, where the reference walks
# on P in append order.  Each must reach every subset once: the library
# permutes each radical past the seeds exactly once, and refuses exactly
# where the reference does, before any subset is built and before it holds
# more masks than the limit.

def _walk_images(monkeypatch, rs):
    """The subsets whose radicals the library's walk forms by a
    permutation, as masks of P, and its result (or the refusal it
    raised)."""
    images = []

    def recording(tables, masks):
        formed = permute_masks(tables, masks)
        images.extend(formed)
        return formed

    monkeypatch.setattr(parabolic_lattice, "permute_masks", recording)
    try:
        got = enumerate_parabolic_subsets(rs)
    except ResourceLimitError as exc:
        got = exc
    full = (1 << len(rs.roots)) - 1
    return [negate_mask(rs, full ^ r) for r in images], got


@pytest.mark.parametrize(
    "factors,torus", DISTINCT_SYSTEMS,
    ids=["x".join(f) + (f"+T{k}" if k else "") for f, k in DISTINCT_SYSTEMS])
def test_walk_matches_the_negation_walk(monkeypatch, factors, torus):
    rs = build_root_system(factors, torus)
    want = parabolic_reference.walk(rs,
                                    parabolic_lattice.PARABOLIC_COUNT_LIMIT)
    images, got = _walk_images(monkeypatch, rs)
    assert sorted(images) == sorted(want[1 << rs.semisimple_rank:])
    assert [p.mask for p in got] == sorted(
        want, key=parabolic_reference.order_key)
    for p in got:
        assert dim_unipotent_radical(p) == p.radical.bit_count()
        assert dim_unipotent_radical(p) == len(rs.roots) - p.mask.bit_count()


@pytest.mark.parametrize("limit", [8, 9, 20, 100, 146, 147])
def test_walk_refuses_where_the_negation_walk_does(monkeypatch, limit):
    # B3 has 8 seeds and 147 subsets: a limit of 8 refuses before seeding,
    # 9 at the first step, 146 at the last.
    rs = build_root_system(["B3"])
    try:
        want = parabolic_reference.walk(rs, limit)
    except ResourceLimitError as exc:
        want = exc
    monkeypatch.setattr(parabolic_lattice, "PARABOLIC_COUNT_LIMIT", limit)
    if isinstance(want, ResourceLimitError):
        monkeypatch.setattr(parabolic_lattice, "ParabolicSubset", None)
    images, got = _walk_images(monkeypatch, rs)
    if isinstance(want, ResourceLimitError):
        assert isinstance(got, ResourceLimitError)
        assert str(got) == str(want) == (
            f"parabolic enumeration is limited to {limit} subsets; B3 has "
            "more")
        assert 8 + len(images) <= limit or limit <= 8 and not images
        assert rs.levi_memo == {}
    else:
        assert sorted(images) == sorted(want[8:])
        assert len(got) == 147
