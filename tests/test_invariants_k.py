import random
import re
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Sequence

import pytest

from tracegeo import invariants_k, linalg, reproduce, root_datum
from tracegeo.errors import DomainError, ResourceLimitError
from tracegeo.invariants_k import (RELATIVE_ENTRY_LIMIT, GroupSpec,
                                   RelativeDatum, _orbit_dims, _pair_values,
                                   _richardson_absolute, _richardson_relative,
                                   _segment_type, k_by_pairs, k_min_orbit,
                                   k_report, k_richardson)
from tracegeo.nilpotent_orbits import list_orbits, min_orbit_dim, orbit_dim
from tracegeo.root_datum import (SimpleType, build_root_system, mask_flags,
                                 mask_indices, type_data)


def _classical_dims(t):
    """The orbit dimensions of a classical type, read off its partitions."""
    return tuple(sorted({orbit_dim(lab) for lab in list_orbits(t)}))


def roots_in_simple_span(rs, simple_subset):
    """Indices of the roots supported on the given simple roots, read off
    simple_coords."""
    chosen = set(simple_subset)
    return [i for i, c in enumerate(rs.simple_coords)
            if all(j in chosen for j, x in enumerate(c) if x)]


def _cartan(rs):
    """rs's Cartan matrix, cartan[i][j] = <alpha_i, alpha_j coroot>, from
    ambient dot products of its simple roots."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))
    simple = rs.simple_roots
    return [[2 * dot(a, b) // dot(b, b) for b in simple] for a in simple]


def spec(*names, **kw):
    return GroupSpec.build([SimpleType.parse(n) for n in names], **kw)


# Every simple type of rank <= 20.
TYPES_TO_RANK_20 = ([SimpleType(s, r) for s in "ABC" for r in range(1, 21)]
                    + [SimpleType("D", r) for r in range(2, 21)]
                    + [SimpleType("E", r) for r in (6, 7, 8)]
                    + [SimpleType("F", 4), SimpleType("G", 2)])


def test_special_linear_values():
    for n in range(2, 6):
        g = spec(f"A{n - 1}")
        assert k_by_pairs(g) == n - 1
        assert k_richardson(g) == n - 1
        assert k_min_orbit(g) == n - 1


def test_orthogonal_values():
    # odd orthogonal data D_l carries k = 2l - 3
    for l, want in ((3, 3), (4, 5), (5, 7)):
        g = spec(f"D{l}")
        assert k_by_pairs(g) == want
        assert k_min_orbit(g) == want


def test_exceptional_values():
    assert k_by_pairs(spec("G2")) == 3
    assert k_by_pairs(spec("F4")) == 8
    assert k_by_pairs(spec("E6")) == 11
    assert k_by_pairs(spec("E8")) == 29
    assert k_min_orbit(spec("E8")) == 29


def test_products_take_the_minimum():
    g = spec("A3", "A1")
    assert k_min_orbit(g) == 1
    assert k_by_pairs(g) == 1
    g = spec("B3", "A2")
    assert k_min_orbit(g) == min(4, 2) == 2
    assert k_by_pairs(g) == 2


def test_restriction_degree_scales_every_route():
    base = spec("A2")
    scaled = spec("A2", restriction_degree=3)
    assert k_by_pairs(scaled) == 3 * k_by_pairs(base)
    assert k_min_orbit(scaled) == 3 * k_min_orbit(base)
    assert k_richardson(scaled) == 3 * k_richardson(base)
    rel = RelativeDatum(roots=((1,),), contributions=(2,))
    g = GroupSpec.build([SimpleType("D", 2)], restriction_degree=2,
                        relative=rel)
    assert k_richardson(g) == 4


def test_richardson_differs_when_minimal_orbit_is_not_induced():
    # D4: the smallest parabolic radical has dimension 6, but the minimal
    # orbit has dimension 10, so the radical route gives 6 vs 5
    g = spec("D4")
    assert k_richardson(g) == 6
    assert k_min_orbit(g) == 5
    assert k_report(g)["agreement"] is False
    # for type A the minimal orbit is Richardson and they agree
    assert k_richardson(spec("A3")) == k_min_orbit(spec("A3")) == 3


def _least_radical_by_root_columns(t):
    """The least number of positive roots that involve one simple root,
    counted on t's generated roots as the Richardson route did before its
    closed form: the radical of the maximal parabolic of that root."""
    pairs = type_data.__wrapped__(t)[2]
    return min(len(pairs) - col.count(0)
               for col in zip(*[c for _, c in pairs])) // 2


def test_richardson_closed_form_matches_the_root_count(monkeypatch):
    # A45, B36, C36 and D37 are the largest of their series that the root
    # guard admits; uncached, so their roots are not kept.  The rank guard
    # is lifted to reach them.
    monkeypatch.setattr(invariants_k, "PAIR_RANK_LIMIT", 45)
    for t in TYPES_TO_RANK_20 + [SimpleType("A", 45), SimpleType("B", 36),
                                 SimpleType("C", 36), SimpleType("D", 37)]:
        assert _richardson_absolute(build_root_system([t])) == \
            _least_radical_by_root_columns(t), t


def test_relative_datum_route():
    rel = RelativeDatum(roots=((1,),), contributions=(2,))
    g = GroupSpec.build([SimpleType("D", 2)], relative=rel)
    assert k_richardson(g) == 2
    report = k_report(g)
    assert report["richardson_relative"] == 2
    assert report["minorbit"] == 1
    assert report["pairs"] == 1
    assert report["agreement"] is False


def test_relative_rank_two():
    # two independent relative roots: the proper sub-parabolics drop at
    # least the contributions outside the chosen span
    rel = RelativeDatum(roots=((1, 0), (0, 1)), contributions=(3, 4))
    g = GroupSpec.build([SimpleType("A", 3)], relative=rel)
    assert k_richardson(g) == 3


def test_report_agreement_true():
    report = k_report(spec("A2"))
    assert report == {"minorbit": 2, "pairs": 2, "richardson_absolute": 2,
                      "richardson_relative": None, "agreement": True}


def test_relative_datum_validation():
    with pytest.raises(DomainError):
        RelativeDatum(roots=(), contributions=())
    with pytest.raises(DomainError):
        RelativeDatum(roots=((1,),), contributions=(1, 2))
    with pytest.raises(DomainError):
        RelativeDatum(roots=((0,),), contributions=(1,))
    with pytest.raises(DomainError):
        RelativeDatum(roots=((1,),), contributions=(0,))
    with pytest.raises(DomainError):
        RelativeDatum(roots=((1,), (1, 0)), contributions=(1, 1))
    # linalg.rank reads only int entries, so a Fraction, float or bool
    # root entry, or a bool contribution, is refused by name where it
    # enters, not as a TypeError from the rank.
    for bad in (Fraction(1, 2), 0.5, True):
        with pytest.raises(DomainError, match="^relative root entries must "
                           f"be integers, not {re.escape(repr(bad))}$"):
            RelativeDatum(roots=((1,), (bad,)), contributions=(2, 2))
    with pytest.raises(DomainError, match="^nilradical contributions must "
                       "be integers, not True$"):
        RelativeDatum(roots=((1,),), contributions=(True,))


def test_relative_rank_cannot_exceed_absolute():
    rel = RelativeDatum(roots=((1, 0), (0, 1)), contributions=(1, 1))
    with pytest.raises(DomainError):
        GroupSpec.build([SimpleType("A", 1)], relative=rel)


def test_degree_validation():
    with pytest.raises(DomainError):
        spec("A1", restriction_degree=0)
    # True is not degree 1.
    with pytest.raises(DomainError, match="^restriction degree must be a "
                       "positive integer$"):
        GroupSpec(build_root_system(["A1"]), True)


def test_rank_guard():
    g = spec("A4", "A5")
    with pytest.raises(ResourceLimitError):
        k_by_pairs(g)
    with pytest.raises(ResourceLimitError):
        k_richardson(g)
    # the factor-wise route has no such limit
    assert k_min_orbit(g) == 4
    report = k_report(g)
    assert report["pairs"] is None
    assert report["richardson_absolute"] is None
    assert report["agreement"] is True


def test_the_largest_rank_admitted_is_reported_within_5_s():
    # A4xA4: total rank 8, the pair rank limit; empty caches
    for cache in (type_data, _pair_values, _orbit_dims):
        cache.cache_clear()
    start = time.perf_counter()
    report = k_report(spec("A4", "A4"))
    assert time.perf_counter() - start < 5
    assert report == {"minorbit": 4, "pairs": 4, "richardson_absolute": 4,
                      "richardson_relative": None, "agreement": True}


def test_k_reads_only_its_factors_tables():
    # Every route reads per-type tables, so the report builds none of the
    # product's roots or coordinates.
    rs = build_root_system(["E6", "A2"], 1)
    assert k_report(GroupSpec(rs, 2)) == {
        "minorbit": 4, "pairs": 4, "richardson_absolute": 4,
        "richardson_relative": None, "agreement": True}
    assert not {"_assembled", "roots", "simple_coords",
                "support_masks"} & set(vars(rs))


def test_torus_only_rejected():
    g = GroupSpec.build([], torus_rank=2)
    with pytest.raises(DomainError):
        k_min_orbit(g)
    with pytest.raises(DomainError):
        k_by_pairs(g)
    with pytest.raises(DomainError):
        k_richardson(g)


# -- Levi component typing against the signature matcher ---------------------
#
# _component_type reads a component's Dynkin subdiagram off the Cartan
# matrix, as the pairs route did before it typed segments by their place
# on the diagram; it is the reference for _segment_type below and for the
# subset-walk references.  The signature matcher types a component by its
# (root count, short-root count) pair, from the ambient root vectors; the
# two share only the component split.


def _component_type(cartan: Sequence[Sequence[int]],
                    comp: list[int]) -> SimpleType:
    """The simple type of a connected set of simple roots, read off its
    Dynkin subdiagram in the Cartan matrix cartan.

    cartan[i][j] == -2 is a double bond from long root i to short root j,
    and -3 a triple bond.  B2 and A3 stand for B2/C2 and A3/D3: the
    algebras are isomorphic, so their orbit dimensions agree.
    """
    nbrs = {i: [j for j in comp if j != i and cartan[i][j]] for i in comp}
    leaves = {i for i in comp if len(nbrs[i]) == 1}
    for i in comp:
        for j in nbrs[i]:
            if cartan[i][j] == -3:
                return SimpleType("G", 2)
            if cartan[i][j] == -2:
                series = "B" if j in leaves else "C" if i in leaves else "F"
                return SimpleType(series, len(comp))
    for i in comp:
        if len(nbrs[i]) == 3:
            series = "D" if len(leaves & set(nbrs[i])) >= 2 else "E"
            return SimpleType(series, len(comp))
    return SimpleType("A", len(comp))


def _signature(t):
    r = t.rank
    count = {"A": r * (r + 1), "B": 2 * r * r, "C": 2 * r * r,
             "D": 2 * r * (r - 1), "G": 12, "F": 48,
             "E": {6: 72, 7: 126, 8: 240}.get(r, 0)}[t.series]
    shorts = 0 if r == 1 else {"A": 0, "B": 2 * r, "C": 2 * r * (r - 1),
                               "D": 0, "G": 6, "F": 24, "E": 0}[t.series]
    return count, shorts


def _signature_type(rs, comp):
    table = {}
    for series in "ABCDEFG":
        try:
            t = SimpleType(series, len(comp))
        except DomainError:
            continue
        table.setdefault(_signature(t), t)  # B2 over C2, A3 over D3
    members = roots_in_simple_span(rs, comp)
    norms = [sum(x * x for x in rs.roots[i]) for i in members]
    shorts = sum(1 for x in norms if x < max(norms))
    return table[len(members), shorts]


def _components(cartan, simple_subset):
    """The connected components of a simple-root subset, as sorted index
    lists: the list-based split the pairs route used before it worked on
    masks."""
    remaining = set(simple_subset)
    comps = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in list(remaining):
                if cartan[i][j] != 0:
                    remaining.remove(j)
                    comp.add(j)
                    frontier.append(j)
        comps.append(sorted(comp))
    return comps


TYPING_SYSTEMS = ([[f"{s}{r}"] for s in "ABC" for r in range(1, 9)]
                  + [[f"D{r}"] for r in range(2, 9)]
                  + [["E6"], ["E7"], ["E8"], ["F4"], ["G2"]]
                  + [["A2", "B3"], ["G2", "F4"], ["D4", "A1"], ["E6", "A2"],
                     ["B2", "C3"], ["F4", "B4"]])


def test_component_type_matches_signature_matcher():
    seen = 0
    for factors in TYPING_SYSTEMS:
        rs = build_root_system(factors)
        cartan = _cartan(rs)
        s = rs.semisimple_rank
        for subset in range(1 << s):
            chosen = [i for i in range(s) if subset >> i & 1]
            for comp in _components(cartan, chosen):
                assert _component_type(cartan, comp) == \
                    _signature_type(rs, comp), (factors, comp)
                seen += 1
    assert seen == 6639


def _dp_segments(t):
    """Each segment the pairs DP types by _segment_type, as its arguments
    and the segment's simple roots: t's path is its diagram less the leaf,
    alpha_n of D_n or alpha_2 of E_n, and a segment through the leaf's
    anchor, alpha_(n-2) or alpha_4, may take the leaf in.  The leaf alone
    is A1 without a rule."""
    leaf = {"D": t.rank - 1, "E": 1}.get(t.series)
    path = [i for i in range(t.rank) if i != leaf]
    m = len(path)
    for i in range(1, m + 1):
        for j in range(i):
            yield (t, j, i), path[j:i]
    if leaf is not None and t.rank > 2:
        p = path.index(t.rank - 3 if t.series == "D" else 3)
        for j in range(p + 1):
            for i in range(p + 1, m + 1):
                yield (t, j, i, p), path[j:i] + [leaf]


# B2 for C2 and A3 for D3, as _component_type spells them.
_SPELLING = {SimpleType("C", 2): SimpleType("B", 2),
             SimpleType("D", 3): SimpleType("A", 3)}


def test_segment_types_match_the_cartan_reading():
    seen = 0
    for t in TYPES_TO_RANK_20:
        cartan = type_data(t)[3]
        for args, nodes in _dp_segments(t):
            got = _segment_type(*args)
            assert _SPELLING.get(got, got) == \
                _component_type(cartan, nodes), (t, nodes)
            seen += 1
    assert seen == 6405


# -- the pairs route against its earlier form ---------------------------------
#
# The earlier pairs route gave exceptional Levi components only the trivial
# orbit and then added min_orbit_dim(t) = 2(h_dual - 1) for each simple
# factor.  It is kept here as the reference for the route that reads each
# exceptional component's minimal orbit off its own roots.


def _pairs_with_factor_loop(g):
    rs = g.absolute
    cartan = _cartan(rs)
    s = rs.semisimple_rank
    best = None
    for subset in range(1 << s):
        chosen = [i for i in range(s) if subset >> i & 1]
        levi = roots_in_simple_span(rs, chosen)
        dim_v = (len(rs.roots) - len(levi)) // 2
        sums = {0}
        for comp in _components(cartan, chosen):
            t = _component_type(cartan, comp)
            dims = _classical_dims(t) \
                if t.series in "ABCD" else (0,)
            sums = {a + b for a in sums for b in dims}
        for orbit_total in sums:
            if subset == (1 << s) - 1 and orbit_total == 0:
                continue
            cand = orbit_total + 2 * dim_v
            if best is None or cand < best:
                best = cand
    for t in rs.factors:
        best = min(best, min_orbit_dim(t))
    return g.restriction_degree * (best // 2)


DIFFERENTIAL_SYSTEMS = TYPING_SYSTEMS + [["F4", "A1"], ["E7", "A1"]]


@pytest.mark.parametrize("factors", DIFFERENTIAL_SYSTEMS,
                         ids=["x".join(f) for f in DIFFERENTIAL_SYSTEMS])
def test_pairs_match_the_factor_loop_reference(factors):
    g = spec(*factors)
    assert k_by_pairs(g) == _pairs_with_factor_loop(g)


EXCEPTIONAL_K = {"G2": 3, "F4": 8, "E6": 11, "E7": 17, "E8": 29}


def _replace_dual_coxeter(monkeypatch, fn):
    """Bind fn as dual_coxeter_number in every tracegeo module that holds
    the closed form, so that any reader of h_dual reads fn."""
    true_value = root_datum.dual_coxeter_number
    for module in list(sys.modules.values()):
        if module.__name__.startswith("tracegeo") and \
                vars(module).get("dual_coxeter_number") is true_value:
            monkeypatch.setattr(module, "dual_coxeter_number", fn)
    return true_value


def test_pairs_route_reads_no_dual_coxeter_number(monkeypatch):
    def boom(*args):
        raise AssertionError("the pairs route read the h_dual table")
    monkeypatch.setattr(invariants_k, "min_orbit_dim", boom)
    _replace_dual_coxeter(monkeypatch, boom)
    with pytest.raises(AssertionError, match="h_dual"):
        min_orbit_dim(SimpleType("E", 8))
    for name, want in EXCEPTIONAL_K.items():
        assert k_by_pairs(spec(name)) == want, name


def test_pairs_check_catches_a_wrong_dual_coxeter_table(monkeypatch):
    # Shift h_dual by one on E, F and G.  A pairs route that read the same
    # table would shift with it, and the comparison would still pass.
    def shifted(t):
        return true_value(t) + (t.series in "EFG")
    true_value = _replace_dual_coxeter(monkeypatch, shifted)
    wrong = [name for name in EXCEPTIONAL_K
             if k_by_pairs(spec(name)) != shifted(SimpleType.parse(name)) - 1]
    assert wrong == list(EXCEPTIONAL_K)
    assert reproduce._check_pairs_consistency()[0] is False


# -- the per-type DP against the subset walk ---------------------------------
#
# The walk visits all 2^r simple-root subsets J of one simple type, as the
# pairs route did before the DP over the Dynkin diagram: the component of
# J's lowest root adds its root count and orbit dimensions to J minus it.


def _component_of_lowest(adjacency: Sequence[int], subset: int) -> int:
    """The connected component of subset's lowest simple root, as a mask;
    adjacency[i] masks the Dynkin neighbours of simple root i."""
    comp = frontier = subset & -subset
    while frontier:
        reached = 0
        for i in mask_indices(frontier):
            reached |= adjacency[i]
        frontier = reached & subset & ~comp
        comp |= frontier
    return comp


@lru_cache(maxsize=None)
def _levi_table(t: SimpleType) -> tuple[tuple[int, frozenset[int]], ...]:
    """table[J] is the root count of the standard Levi of the subset J of
    t's simple roots and the set of its orbit dimensions, the sums of one
    per component.  C, the component of J's lowest root, adds its closed-
    form root count and its orbit dimensions to table[J & ~C]; each
    distinct C is typed once, on t's own Cartan matrix."""
    cartan = type_data(t)[3]
    adjacency = [sum(1 << j for j, c in enumerate(row) if c and j != i)
                 for i, row in enumerate(cartan)]
    parts: dict[int, tuple[int, tuple[int, ...]]] = {}
    table = [(0, frozenset({0}))]
    for subset in range(1, 1 << t.rank):
        comp = _component_of_lowest(adjacency, subset)
        if comp not in parts:
            c = _component_type(cartan, list(mask_indices(comp)))
            parts[comp] = c.size()[0], _orbit_dims(c)
        roots, dims = parts[comp]
        rest_roots, rest = table[subset & ~comp]
        table.append((roots + rest_roots,
                      frozenset({a + b for a in dims for b in rest})))
    return tuple(table)


SIMPLE_TYPES = ([SimpleType(s, r) for s in "ABC" for r in range(1, 9)]
                + [SimpleType("D", r) for r in range(2, 9)]
                + [SimpleType("E", r) for r in (6, 7, 8)]
                + [SimpleType("F", 4), SimpleType("G", 2)])


@pytest.mark.parametrize("t", SIMPLE_TYPES, ids=str)
def test_pair_values_match_the_subset_walk(t):
    # Sets, not only their largest nontrivial member: every (J, orbit)
    # pair the walk reaches, the DP reaches, and no other.
    assert _pair_values(t) == {roots - d for roots, dims in _levi_table(t)
                               for d in dims}


def test_pairs_dp_at_rank_20_generates_no_root_within_10_s(monkeypatch):
    # k = h_dual - 1; empty caches, so no cached table hides a generator call
    def generate(simple, cartan):
        raise AssertionError("the pairs DP generated roots")
    monkeypatch.setattr(root_datum, "_positive_coords", generate)
    for cache in (type_data, _pair_values, _orbit_dims):
        cache.cache_clear()
    start = time.perf_counter()
    for t in map(SimpleType.parse, ("A20", "B20", "C20", "D20")):
        n = t.size()[0]
        k = (n - max(v for v in _pair_values(t) if v != n)) // 2
        assert k == root_datum.dual_coxeter_number(t) - 1, (t, k)
    assert time.perf_counter() - start < 10


# -- the pairs route against its scan-per-subset form -------------------------
#
# The reference rescans every root for each simple-root subset J, splits J
# into list components and types each one again, as the pairs route did
# before it read one span table and memoised each component's dimensions.


def _theta_grading_dim_by_scan(rs, comp):
    positive = [i for i in roots_in_simple_span(rs, comp)
                if rs.is_positive[i]]
    theta = rs.roots[max(positive, key=rs.heights.__getitem__)]
    return 1 + sum(1 for i in positive
                   if sum(a * b for a, b in zip(rs.roots[i], theta)) > 0)


def _subset_tables_by_scan(rs):
    """For each simple-root subset J, in order: the mask of the roots of
    the standard Levi of J and the set of its orbit dimensions."""
    cartan = _cartan(rs)
    s = rs.semisimple_rank
    tables = []
    for subset in range(1 << s):
        chosen = [i for i in range(s) if subset >> i & 1]
        sums = {0}
        for comp in _components(cartan, chosen):
            t = _component_type(cartan, comp)
            dims = _classical_dims(t) \
                if t.series in "ABCD" else \
                (0, _theta_grading_dim_by_scan(rs, comp))
            sums = {a + b for a in sums for b in dims}
        span = sum(1 << i for i in roots_in_simple_span(rs, chosen))
        tables.append((span, sums))
    return tables


def _pairs_by_scan(g):
    rs = g.absolute
    full = (1 << rs.semisimple_rank) - 1
    best = None
    for subset, (span, sums) in enumerate(_subset_tables_by_scan(rs)):
        dim_v = (len(rs.roots) - span.bit_count()) // 2
        for orbit_total in sums:
            if subset == full and orbit_total == 0:
                continue  # the excluded trivial pair
            cand = orbit_total + 2 * dim_v
            if best is None or cand < best:
                best = cand
    return g.restriction_degree * (best // 2)


@pytest.mark.parametrize("factors", TYPING_SYSTEMS,
                         ids=["x".join(f) for f in TYPING_SYSTEMS])
def test_pairs_match_the_scan_reference(factors):
    for degree in (1, 2, 3):
        g = spec(*factors, restriction_degree=degree)
        assert k_by_pairs(g) == _pairs_by_scan(g), degree


@pytest.mark.parametrize("factors", TYPING_SYSTEMS,
                         ids=["x".join(f) for f in TYPING_SYSTEMS])
def test_span_and_orbit_tables_match_the_scan_reference(factors):
    # A subset of a product's simple roots is one subset per factor, the
    # first factor's in the low bits, and Levi root counts and orbit
    # dimensions add over the factors: the product's scanned table is its
    # factors' tables combined.
    rs = build_root_system(factors)
    combined = [(0, {0})]
    for t in rs.factors:
        combined = [(a + b, {x + y for x in u for y in v})
                    for b, v in _levi_table(t) for a, u in combined]
    assert combined == [(span.bit_count(), sums)
                        for span, sums in _subset_tables_by_scan(rs)]


# -- per-type orbit dimensions against the scan and the partition tables -----


def test_component_dim_sets_match_the_scan_and_partition_tables():
    seen = set()
    for factors in TYPING_SYSTEMS:
        rs = build_root_system(factors)
        cartan = _cartan(rs)
        s = rs.semisimple_rank
        for subset in range(1, 1 << s):
            chosen = [i for i in range(s) if subset >> i & 1]
            for comp in _components(cartan, chosen):
                t = _component_type(cartan, comp)
                want = _classical_dims(t) if t.series in "ABCD" else \
                    (0, _theta_grading_dim_by_scan(rs, comp))
                assert _orbit_dims(t) == want, (factors, comp)
                seen.add(t)
    assert {t.series for t in seen} == set("ABCDEFG")


# -- the relative Richardson route against the subset walk -------------------
#
# The walk visits all 2^m subsets of the m relative roots, as the relative
# route did before it took its minimum over hyperplanes: each subset that
# does not span the datum stands for a proper parabolic, whose radical
# holds the roots outside its span.


def _richardson_relative_by_subsets(rel: RelativeDatum) -> int:
    m = len(rel.roots)
    if m > RELATIVE_ENTRY_LIMIT:
        raise ResourceLimitError(
            f"relative data are limited to {RELATIVE_ENTRY_LIMIT} entries; "
            f"got {m}")
    vectors = rel.roots
    full_rank = linalg.rank(vectors)
    best = None
    for subset in range(1 << m):
        chosen = list(compress(vectors, mask_flags(subset)))
        r = linalg.rank(chosen)
        if r == full_rank:
            continue  # spans everything: not a proper parabolic
        # root i lies outside the span of chosen when it raises the rank
        total = sum(rel.contributions[i] for i in range(m)
                    if linalg.rank(chosen + [vectors[i]]) > r)
        if best is None or total < best:
            best = total
    assert best is not None and best > 0
    return best


def _seeded_relative_data(count: int, seed: int):
    """count random data: widths 1-4, 1-10 roots with entries in -2..2,
    contributions 1-5, and in every third datum a multiple of one root
    beside it, as BC1 has (1) and (2)."""
    rng = random.Random(seed)
    data = []
    for n in range(count):
        width, m = rng.randint(1, 4), rng.randint(1, 10)
        roots = []
        while len(roots) < m:
            v = tuple(rng.randint(-2, 2) for _ in range(width))
            if any(v):
                roots.append(v)
        if n % 3 == 0 and m > 1:
            j, k = rng.sample(range(m), 2)
            roots[k] = tuple(rng.choice((-2, -1, 2, 3)) * x for x in roots[j])
        data.append(RelativeDatum(
            tuple(roots), tuple(rng.randint(1, 5) for _ in range(m))))
    return data


# The relative data the other tests and the CLI tests use, and BC1.
FIXED_RELATIVE_DATA = [
    RelativeDatum(((1,),), (2,)), RelativeDatum(((1,),), (1,)),
    RelativeDatum(((1, 0), (0, 1)), (3, 4)),
    RelativeDatum(((1, 0), (0, 1)), (1, 1)),
    RelativeDatum(((1, 0),), (3,)), RelativeDatum(((0, 1),), (4,)),
    RelativeDatum(((1,),) * 12, (1,) * 12),
    RelativeDatum(((1,), (2,)), (2, 1)),
]


@pytest.mark.parametrize("chunk", range(8))
def test_relative_route_matches_the_subset_walk(chunk):
    for rel in _seeded_relative_data(50, 3800 + chunk):
        assert _richardson_relative(rel) == \
            _richardson_relative_by_subsets(rel), rel


@pytest.mark.parametrize("rel", FIXED_RELATIVE_DATA, ids=repr)
def test_relative_route_matches_the_subset_walk_on_fixed_data(rel):
    assert _richardson_relative(rel) == _richardson_relative_by_subsets(rel)


def test_bc1_relative_datum():
    # The flip on A2 restricts to BC1: the roots (1) and (2) with
    # multiplicities 2 and 1.  The only proper parabolic is the minimal
    # one, whose radical holds both, so the value is 3.
    rel = RelativeDatum(((1,), (2,)), (2, 1))
    g = GroupSpec.build([SimpleType("A", 2)], relative=rel)
    assert k_richardson(g) == 3
    assert k_report(g)["richardson_relative"] == 3


def test_relative_guard_counts_entries():
    rel = RelativeDatum(((1,),) * 13, (1,) * 13)
    with pytest.raises(ResourceLimitError,
                       match="^relative data are limited to 12 entries; "
                             "got 13$"):
        _richardson_relative(rel)


def test_relative_route_at_12_entries_of_rank_12_within_5_s():
    # The 2^12-subset walk, 1.9 s on 12 random entries, is no reference here.
    units = tuple(tuple(int(i == j) for j in range(12)) for i in range(12))
    rel = RelativeDatum(units, tuple(range(12, 0, -1)))
    start = time.perf_counter()
    assert k_richardson(GroupSpec.build(["A12"], relative=rel)) == 1
    assert time.perf_counter() - start < 5
