import functools
import itertools
import random
import time
from fractions import Fraction

import pytest
import sympy

from tracegeo import invariants_k, linalg, root_datum
from tracegeo.errors import DomainError, ParseError, ResourceLimitError
from tracegeo.invariants_k import GroupSpec, k_report
from tracegeo.root_datum import (RootSystem, SimpleType, build_root_system,
                                 dual_coxeter_number, negate_mask)

from test_invariants_k import TYPING_SYSTEMS


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@functools.lru_cache(maxsize=None)
def negation(rs):
    """Index of -root for each root, read off the ambient vectors."""
    index = {r: i for i, r in enumerate(rs.roots)}
    return tuple(index[tuple(-x for x in r)] for r in rs.roots)


ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A4": 20,
    "B2": 8, "B3": 18, "B4": 32,
    "C2": 8, "C3": 18, "C4": 32,
    "D2": 4, "D3": 12, "D4": 24, "D5": 40,
    "G2": 12, "F4": 48, "E6": 72, "E7": 126, "E8": 240,
}


def test_root_counts():
    for name, count in ROOT_COUNTS.items():
        rs = build_root_system([name])
        assert len(rs.roots) == count, name
        assert len(rs.simple_roots) == rs.semisimple_rank
        assert sum(rs.is_positive) == count // 2, name


def test_roots_closed_under_negation_and_distinct():
    for name in ("A3", "B3", "C3", "D4", "G2", "F4", "E6"):
        rs = build_root_system([name])
        root_set = set(rs.roots)
        assert len(root_set) == len(rs.roots)
        for r in rs.roots:
            assert tuple(-x for x in r) in root_set


def test_cartan_integers():
    # <alpha, beta-coroot> must be an integer for every pair of roots.
    for name in ("A2", "B2", "C3", "D4", "G2", "F4"):
        rs = build_root_system([name])
        for b in rs.roots:
            bb = _dot(b, b)
            for a in rs.roots:
                pairing = Fraction(2 * _dot(a, b), bb)
                assert pairing.denominator == 1
                assert abs(pairing) <= 3


def test_simple_roots_are_positive_and_indecomposable():
    for name in ("A3", "B3", "D4", "F4", "E6"):
        rs = build_root_system([name])
        pos = {r for r, p in zip(rs.roots, rs.is_positive) if p}
        for s in rs.simple_roots:
            assert s in pos
        # every positive root is a nonnegative integer combination of
        # simple roots (sign coherence of the stored coordinates)
        for i, r in enumerate(rs.roots):
            coords = rs.simple_coords[i]
            assert all(c.denominator == 1 for c in coords)
            signs = {c > 0 for c in coords if c != 0}
            assert len(signs) == 1


def _reference_perms(rs):
    """Each simple reflection on the ambient roots, from the integer
    pairing 2 (beta, alpha) / (alpha, alpha)."""
    index = {r: k for k, r in enumerate(rs.roots)}
    perms = []
    for a in rs.simple_roots:
        perm = []
        for b in rs.roots:
            c, rem = divmod(2 * _dot(b, a), _dot(a, a))
            assert rem == 0
            perm.append(index[tuple(x - c * y for x, y in zip(b, a))])
        perms.append(tuple(perm))
    return tuple(perms)


# Every simple type of rank <= 8 and the typing products, each with a
# central torus of rank 0, 1 and 2.
SYMMETRY_CASES = [(names, torus) for names in TYPING_SYSTEMS
                  for torus in range(3)]
SYMMETRY_IDS = ["x".join(n) + f"+T{k}" for n, k in SYMMETRY_CASES]


def test_reflections_permute_roots():
    cases = SYMMETRY_CASES + [(("A4", "A5"), 0), (("B2",), 1)]
    for names, torus in cases:
        rs = build_root_system(names, torus)
        n = len(rs.roots)
        assert rs.reflection_perms == _reference_perms(rs), (names, torus)
        for perm in rs.reflection_perms:
            assert sorted(perm) == list(range(n))
            assert any(perm[i] != i for i in range(n))


@pytest.mark.parametrize("names,torus", SYMMETRY_CASES, ids=SYMMETRY_IDS)
def test_negation_reverses_the_sorted_order(names, torus):
    # Negation reverses lexicographic order, so on the sorted roots it is
    # index reversal; the masks compare negate_mask with the image through
    # the negation read off the root vectors, one bit at a time.
    rs = build_root_system(names, torus)
    n = len(rs.roots)
    neg = negation(rs)
    assert neg == tuple(range(n - 1, -1, -1))
    rng = random.Random(2401 + n + torus)
    for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
        want = sum(1 << neg[i] for i in range(n) if mask >> i & 1)
        assert negate_mask(rs, mask) == want


def test_heights_and_highest_root():
    rs = build_root_system(["A3"])
    heights = rs.heights
    assert max(heights) == 3  # e1 - e4 has height l for A_l
    rs = build_root_system(["G2"])
    assert max(rs.heights) == 5


DUAL_COXETER = {
    "A1": 2, "A2": 3, "A5": 6, "B1": 2, "B2": 3, "B3": 5, "B6": 11,
    "C1": 2, "C2": 3, "C3": 4, "C6": 7, "D2": 2, "D3": 4, "D4": 6,
    "D7": 12, "G2": 4, "F4": 9, "E6": 12, "E7": 18, "E8": 30,
}


def test_dual_coxeter_numbers():
    for name, value in DUAL_COXETER.items():
        assert dual_coxeter_number(SimpleType.parse(name)) == value, name


def test_dual_coxeter_series_formulas():
    for l in range(1, 9):
        assert dual_coxeter_number(SimpleType("A", l)) == l + 1
        assert dual_coxeter_number(SimpleType("C", l)) == l + 1
    for l in range(2, 9):
        assert dual_coxeter_number(SimpleType("B", l)) == 2 * l - 1
        assert dual_coxeter_number(SimpleType("D", l)) == 2 * l - 2


def test_products_and_torus():
    rs = build_root_system(["A1", "A1"], torus_rank=2)
    assert len(rs.roots) == 4
    assert rs.semisimple_rank == 2
    assert rs.torus_rank == 2
    assert rs.group_dim == 4
    # factors never pair with each other
    a, b = rs.simple_roots[0], rs.simple_roots[1]
    assert _dot(a, b) == 0
    # trailing torus coordinates stay zero on every root
    assert all(r[-1] == 0 and r[-2] == 0 for r in rs.roots)
    # the name the parabolic count guard prints
    assert str(rs) == "A1xA1+T2"
    assert str(build_root_system([], 2)) == "T2"
    assert str(build_root_system(["A1"], 2)) == "A1+T2"


def test_simple_type_parse_and_str():
    t = SimpleType.parse("B3")
    assert (t.series, t.rank) == ("B", 3)
    assert str(t) == "B3"
    for bad in ("E9", "F3", "G1", "D1", "A0", "H4", "B", "3B", "",
                "A\u00b2", "A\u0663"):
        with pytest.raises(DomainError):
            SimpleType.parse(bad)


def test_an_unparsable_long_name_is_quoted_in_part():
    with pytest.raises(ParseError) as info:
        SimpleType.parse("A" + "x" * 5000)
    assert str(info.value) == ("type rank wants a nonnegative integer, got '"
                               + "x" * 39 + "... (5002 characters) "
                               "(at byte offset 1)")


def test_an_over_long_rank_is_a_domain_error():
    # Python's int() refuses more than 4300 digits with a ValueError.
    for text in ("A" + "7" * 5000, "B" + "1" * 1001):
        message = (f"type rank: at most 1000 digits are read; got "
                   f"{len(text) - 1} (at byte offset 1)")
        for build in (SimpleType.parse, lambda t: build_root_system([t])):
            with pytest.raises(ParseError) as info:
                build(text)
            assert str(info.value) == message
    assert SimpleType.parse("A" + "0" * 5000 + "3") == SimpleType("A", 3)


def test_ranks_must_be_integers():
    for torus in (1.5, "1", True, -1):
        with pytest.raises(DomainError, match="torus_rank"):
            build_root_system(["A2"], torus)
    for rank in (True, 1.5, "2", 0):
        with pytest.raises(DomainError, match="rank must be a positive"):
            SimpleType("A", rank)
    for series in ("", "AB", 1, None):
        with pytest.raises(DomainError, match="series must be one of"):
            SimpleType(series, 2)


def test_addition_table():
    rs = build_root_system(["A2"])
    idx = rs.root_index
    a = rs.simple_roots[0]
    b = rs.simple_roots[1]
    ab = tuple(x + y for x, y in zip(a, b))
    assert rs.roots[idx[ab]] == ab
    # a + a is never a root
    assert tuple(2 * x for x in a) not in idx


def test_pairing_and_coroot():
    rs = build_root_system(["B2"])
    long_roots = [r for r in rs.roots if _dot(r, r) == 2]
    short_roots = [r for r in rs.roots if _dot(r, r) == 1]
    assert len(long_roots) == 4 and len(short_roots) == 4


# -- independent oracle: the ambient realizations, written out in full -------
#
# Every root of each simple type listed directly in its usual coordinates
# (F4 and the E series doubled so all roots are integral), beside the
# Bourbaki simple roots.  The library generates its roots from the simple
# roots by root strings; nothing here touches that route.

E8_SIMPLE = [
    [1, -1, -1, -1, -1, -1, -1, 1],
    [2, 2, 0, 0, 0, 0, 0, 0],
    [-2, 2, 0, 0, 0, 0, 0, 0],
    [0, -2, 2, 0, 0, 0, 0, 0],
    [0, 0, -2, 2, 0, 0, 0, 0],
    [0, 0, 0, -2, 2, 0, 0, 0],
    [0, 0, 0, 0, -2, 2, 0, 0],
    [0, 0, 0, 0, 0, -2, 2, 0],
]


def _units(dim, scale):
    """+-scale e_i."""
    return [[s * scale * (k == i) for k in range(dim)]
            for i in range(dim) for s in (1, -1)]


def _pairs(dim, scale=1):
    """+-scale e_i +-scale e_j for i < j."""
    out = []
    for i, j in itertools.combinations(range(dim), 2):
        for si, sj in itertools.product((scale, -scale), repeat=2):
            v = [0] * dim
            v[i], v[j] = si, sj
            out.append(v)
    return out


def _chain(dim, n):
    """e_i - e_{i+1} for i < n."""
    return [[(k == i) - (k == i + 1) for k in range(dim)] for i in range(n)]


def _oracle_factor(t):
    """(roots, simple roots, ambient dimension) of one simple type."""
    l = t.rank
    if t.series == "A":
        roots = [[(k == i) - (k == j) for k in range(l + 1)]
                 for i, j in itertools.permutations(range(l + 1), 2)]
        return roots, _chain(l + 1, l), l + 1
    if t.series == "B":
        return (_units(l, 1) + _pairs(l),
                _chain(l, l - 1) + [[0] * (l - 1) + [1]], l)
    if t.series == "C":
        return (_units(l, 2) + _pairs(l),
                _chain(l, l - 1) + [[0] * (l - 1) + [2]], l)
    if t.series == "D":
        return _pairs(l), _chain(l, l - 1) + [[0] * (l - 2) + [1, 1]], l
    if t.series == "G":
        # sum-zero sublattice of Z^3: short e_i - e_j, long +-(3e_i - (1,1,1))
        short = [[(k == i) - (k == j) for k in range(3)]
                 for i, j in itertools.permutations(range(3), 2)]
        long_ = [[s * (3 * (k == i) - 1) for k in range(3)]
                 for i in range(3) for s in (1, -1)]
        return short + long_, [[1, -1, 0], [-2, 1, 1]], 3
    if t.series == "F":
        roots = (_units(4, 2) + _pairs(4, 2)
                 + [list(v) for v in itertools.product((1, -1), repeat=4)])
        simple = [[0, 2, -2, 0], [0, 0, 2, -2], [0, 0, 0, 2],
                  [1, -1, -1, -1]]
        return roots, simple, 4
    roots = _pairs(8, 2) + [list(v) for v in itertools.product((1, -1),
                                                               repeat=8)
                            if v.count(-1) % 2 == 0]
    simple = E8_SIMPLE[:l]
    # E6 and E7: the E8 roots orthogonal to everything the first l simple
    # roots are orthogonal to.
    normals = _nullspace(simple, 8)
    roots = [r for r in roots
             if all(sum(a * b for a, b in zip(r, w)) == 0 for w in normals)]
    return roots, simple, 8


def _oracle(factors, torus):
    blocks = [_oracle_factor(t) for t in factors]
    total = sum(dim for _, _, dim in blocks) + torus
    roots, simple, offset = [], [], 0
    for froots, fsimple, dim in blocks:
        pad = ([0] * offset, [0] * (total - offset - dim))
        roots += [tuple(pad[0] + list(r) + pad[1]) for r in froots]
        simple += [tuple(pad[0] + list(s) + pad[1]) for s in fsimple]
        offset += dim
    return sorted(roots), simple


def _nullspace(rows, width):
    """Basis of the vectors orthogonal to every row, by sympy."""
    m = sympy.Matrix(len(rows), width, [x for row in rows for x in row])
    return [list(v) for v in m.nullspace()]


def _oracle_coords(roots, simple):
    """Simple-root coordinates of every root from one sympy row reduction
    of [simple^T | roots^T]."""
    s = len(simple)
    aug = [[v[d] for v in simple] + [r[d] for r in roots]
           for d in range(len(simple[0]))]
    red, pivots = sympy.Matrix(aug).rref()
    assert pivots == tuple(range(s)), "simple roots are not independent"
    return [tuple(red[i, s + k] for i in range(s)) for k in range(len(roots))]


def _oracle_dual_coxeter(t):
    """h_dual read off the roots, which the closed form never reads: 1 plus
    the coefficient sum of the highest root's coroot in the simple-coroot
    basis."""
    simple, _, pairs, _, _ = root_datum.type_data(t)
    # A root theta of maximal height; unique in the irreducible case, and any
    # choice works when a low-rank type happens to be reducible (D2).  The
    # coroot of theta is sum c_i (alpha_i, alpha_i)/(theta, theta) alpha_i
    # coroot, so the coefficient sum is one integer division.
    theta, coords = max(pairs, key=lambda pair: sum(pair[1]))
    total, rem = divmod(sum(c * _dot(a, a) for c, a in zip(coords, simple)),
                        _dot(theta, theta))
    assert rem == 0 and total > 0
    return 1 + total


SIMPLE_TYPES = ([f"{x}{r}" for x in "ABC" for r in range(1, 9)]
                + [f"D{r}" for r in range(2, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])
DIFFERENTIAL_CASES = ([((t,), 0) for t in SIMPLE_TYPES]
                      + [(("A2", "B3"), 0), (("G2", "F4"), 0),
                         (("D4", "A1"), 1), (("E6", "A2"), 0)])


@pytest.mark.parametrize(
    "names,torus", DIFFERENTIAL_CASES,
    ids=["x".join(n) + (f"+T{k}" if k else "") for n, k in DIFFERENTIAL_CASES])
def test_generated_roots_match_ambient_oracle(names, torus):
    factors = [SimpleType.parse(n) for n in names]
    rs = build_root_system(factors, torus)
    roots, simple = _oracle(factors, torus)
    assert list(rs.roots) == roots
    # the closed forms that the size guard counts
    assert sum(t.size()[0] for t in factors) == len(roots)
    assert sum(t.size()[1] for t in factors) + torus == len(roots[0])
    assert list(rs.simple_roots) == simple
    coords = _oracle_coords(roots, simple)
    assert list(rs.simple_coords) == coords
    for r, c in zip(rs.roots, rs.simple_coords):
        assert all(type(x) is int for x in c)
        assert tuple(sum(cj * s[d] for cj, s in zip(c, rs.simple_roots))
                     for d in range(rs.ambient_dim)) == r
    assert list(rs.heights) == [sum(c) for c in coords]
    assert list(rs.is_positive) == [all(x >= 0 for x in c) for c in coords]
    for t in factors:
        assert dual_coxeter_number(t) == _oracle_dual_coxeter(t), str(t)
    if rs.semisimple_rank <= 4:
        s = rs.semisimple_rank
        span = rs.span_masks()
        for mask in range(1 << s):
            subset = [j for j in range(s) if mask >> j & 1]
            # r is in the span exactly when it is orthogonal to the span's
            # orthogonal complement
            normals = _nullspace([rs.simple_roots[j] for j in subset],
                                 rs.ambient_dim)
            want = sum(1 << i for i, r in enumerate(rs.roots)
                       if all(_dot(r, w) == 0 for w in normals))
            assert span[mask] == want, subset


def test_integer_core_needs_no_rational_linear_algebra(monkeypatch):
    # Root generation, coordinates, reflections, dual Coxeter numbers and
    # every k route on absolute data are integer combinatorics.
    def forbidden(*args, **kwargs):
        raise AssertionError("rational linear algebra on the integer path")

    for name in ("rank", "det", "charpoly"):
        monkeypatch.setattr(linalg, name, forbidden)
    root_datum.type_data.cache_clear()
    invariants_k._orbit_dims.cache_clear()
    for name in SIMPLE_TYPES:
        rs = build_root_system([name])
        assert len(rs.simple_coords) == len(rs.reflection_perms[0])
        report = k_report(GroupSpec(rs))
        assert report["minorbit"] == dual_coxeter_number(rs.factors[0]) - 1


# -- the derived fields against the eager six-field builder ------------------
#
# The reference is build_root_system as it stood while RootSystem stored
# ambient_dim, roots, simple_roots and simple_coords as constructor fields
# beside factors and torus_rank.


def _eager_build(factors, torus_rank):
    data = [root_datum.type_data(t) for t in factors]
    total = sum(dim for _, dim, _, _, _ in data) + torus_rank
    rank = sum(t.rank for t in factors)
    simple, pairs, offset = [], [], 0
    for fsimple, dim, fpairs, _, _ in data:
        lead, trail = (0,) * offset, (0,) * (total - offset - dim)
        clead = (0,) * len(simple)
        ctrail = (0,) * (rank - len(simple) - len(fsimple))
        simple += [lead + s + trail for s in fsimple]
        pairs += [(lead + r + trail, clead + c + ctrail) for r, c in fpairs]
        offset += dim
    pairs.sort()
    return dict(ambient_dim=total, roots=tuple(r for r, _ in pairs),
                simple_roots=tuple(simple),
                simple_coords=tuple(c for _, c in pairs),
                semisimple_rank=len(simple))


def test_derived_fields_match_the_eager_builder():
    cases = [(names, torus) for names in TYPING_SYSTEMS
             for torus in (0, 1, 2)] + [([], 2)]
    for names, torus in cases:
        factors = tuple(SimpleType.parse(n) for n in names)
        rs = RootSystem(factors, torus)
        want = _eager_build(factors, torus)
        assert {name: getattr(rs, name) for name in want} == want, \
            (names, torus)
        assert rs == build_root_system(names, torus)
    assert RootSystem._fields == ("factors", "torus_rank")


def test_equal_systems_share_one_hash_without_reading_roots():
    rs = build_root_system(["F4", "A1"], torus_rank=1)
    twin = RootSystem(rs.factors, 1)
    assert rs == twin and hash(rs) == hash(twin)
    assert len({rs, twin, build_root_system(["F4"])}) == 2
    assert "roots" not in vars(twin) and "__hash__" not in vars(RootSystem)


# -- the root-datum layer against its tuple-rebuilding form -------------------
#
# The reference is root_datum as it stood while the generator probed each
# root string by rebuilding coordinate tuples and summing a Cartan column
# per probe, type_data returned (simple roots, dimension, pairs) only, and
# RootSystem took its Cartan matrix from ambient dot products and its
# reflections from the padded simple coordinates of the whole product.


def _tuple_cartan(simple):
    return [[2 * _dot(a, b) // _dot(b, b) for b in simple] for a in simple]


def _tuple_positive_coords(cartan):
    n = len(cartan)
    layer = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    found = set(layer)
    out = []
    while layer:
        out.extend(layer)
        nxt = []
        for beta in layer:
            for i in range(n):
                p = 0
                down = list(beta)
                down[i] -= 1
                while tuple(down) in found:
                    p += 1
                    down[i] -= 1
                if p - sum(c * row[i] for c, row in zip(beta, cartan)) > 0:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in found:
                        found.add(up)
                        nxt.append(up)
        layer = nxt
    return out


@functools.lru_cache(maxsize=None)
def _tuple_type_data(t):
    simple, dim = root_datum._SIMPLE_ROOTS[t.series](t.rank)
    cols = list(zip(*simple))
    pos = [(tuple(_dot(c, col) for col in cols), c)
           for c in _tuple_positive_coords(_tuple_cartan(simple))]
    neg = [(tuple(-x for x in r), tuple(-x for x in c)) for r, c in pos]
    return tuple(map(tuple, simple)), dim, tuple(sorted(pos + neg))


def _tuple_reflection_perms(coords, cartan):
    index = {c: k for k, c in enumerate(coords)}
    last = len(coords) - 1
    perms = []
    for i, column in enumerate(zip(*cartan)):
        terms = [(j, a) for j, a in enumerate(column) if a]
        head = [index[c[:i] + (c[i] - sum(c[j] * a for j, a in terms),)
                      + c[i + 1:]]
                for c in coords[:len(coords) // 2]]
        perms.append(tuple(head + [last - k for k in reversed(head)]))
    return tuple(perms)


def _tuple_build(factors, torus_rank):
    """The five compared fields of build_root_system(factors, torus_rank)."""
    data = [_tuple_type_data(t) for t in factors]
    total = sum(dim for _, dim, _ in data) + torus_rank
    rank = sum(t.rank for t in factors)
    simple, pairs, offset = [], [], 0
    for fsimple, dim, fpairs in data:
        lead, trail = (0,) * offset, (0,) * (total - offset - dim)
        clead = (0,) * len(simple)
        ctrail = (0,) * (rank - len(simple) - len(fsimple))
        simple += [lead + s + trail for s in fsimple]
        pairs += [(lead + r + trail, clead + c + ctrail) for r, c in fpairs]
        offset += dim
    pairs.sort()
    coords = tuple(c for _, c in pairs)
    cartan = _tuple_cartan(simple)
    return dict(roots=tuple(r for r, _ in pairs), simple_roots=tuple(simple),
                simple_coords=coords,
                is_positive=tuple(sum(c) > 0 for c in coords),
                reflection_perms=_tuple_reflection_perms(coords, cartan))


LAYER_CASES = [(tuple(names), torus) for names in TYPING_SYSTEMS
               for torus in range(3)]


def _check_layer(factors, torus):
    rs = build_root_system(factors, torus)
    want = _tuple_build(factors, torus)
    for name, value in want.items():
        assert getattr(rs, name) == value, (str(rs), name)


@pytest.mark.parametrize(
    "names,torus", LAYER_CASES,
    ids=["x".join(n) + f"+T{k}" for n, k in LAYER_CASES])
def test_layer_matches_the_tuple_generator(names, torus):
    _check_layer([SimpleType.parse(n) for n in names], torus)


def test_each_cartan_block_is_read_off_the_dot_products():
    # The pairs route types its Levi components on these blocks.
    for name in SIMPLE_TYPES:
        simple, _, _, cartan, _ = root_datum.type_data(SimpleType.parse(name))
        assert cartan == tuple(map(tuple, _tuple_cartan(simple))), name


def test_random_products_match_the_tuple_generator():
    cases = _random_products(2901, 60)
    assert {torus for _, torus in cases} == {0, 1, 2}
    assert max(sum(t.rank for t in f) for f, _ in cases) <= 16
    for factors, torus in cases:
        _check_layer(factors, torus)


@pytest.mark.parametrize("name", ["A45", "B36", "C36", "D37"])
def test_largest_types_match_the_tuple_generator(name):
    # The largest of their series under ROOT_COORD_LIMIT.
    t = SimpleType.parse(name)
    rs = build_root_system([t])
    _, _, pairs = _tuple_type_data(t)
    assert rs.roots == tuple(r for r, _ in pairs)
    assert rs.simple_coords == tuple(c for _, c in pairs)
    _tuple_type_data.cache_clear()



def _highest_coefficient(t):
    """Bourbaki, plates I-IX: the largest simple coordinate of the highest
    root, with B1 = C1 = A1, D2 = A1xA1 and D3 = A3."""
    small = t.rank < {"B": 2, "C": 2, "D": 4}.get(t.series, 0)
    return 1 if small else {"A": 1, "B": 2, "C": 2, "D": 2, "G": 3,
                            "F": 4, "E": {6: 3, 7: 4, 8: 6}.get(t.rank)
                            }[t.series]


def test_no_simple_coordinate_exceeds_6():
    # The generator keys each root by its simple coordinates read as base-16
    # digits, which is injective only while every digit lies within +-7.
    for name in SIMPLE_TYPES + ["A45", "B36", "C36", "D37"]:
        t = SimpleType.parse(name)
        coords = build_root_system([t]).simple_coords
        top = max(max(c) for c in coords)
        assert top == _highest_coefficient(t) <= 6, name
        assert min(min(c) for c in coords) == -top, name

# -- per-factor assembly against the product-wide generator run --------------
#
# The reference is build_root_system as it stood while products ran the
# root-string generator on their whole block-diagonal Cartan matrix and
# took one ambient dot product per root.


def _product_wide_build(factors, torus_rank):
    blocks = [root_datum._SIMPLE_ROOTS[t.series](t.rank) for t in factors]
    total = sum(dim for _, dim in blocks) + torus_rank
    simple, offset = [], 0
    for fsimple, dim in blocks:
        for s in fsimple:
            v = [0] * total
            v[offset:offset + dim] = s
            simple.append(tuple(v))
        offset += dim
    pos = _tuple_positive_coords(_tuple_cartan(simple))
    cols = list(zip(*simple))
    pairs = sorted((tuple(_dot(c, col) for col in cols), c)
                   for c in pos + [tuple(-x for x in p) for p in pos])
    return ([r for r, _ in pairs], simple, [c for _, c in pairs])


def _random_products(seed, count, max_rank=16):
    """count seeded products of total rank <= max_rank, each with a random
    torus rank in 0..2."""
    rng = random.Random(seed)
    types = [SimpleType.parse(n) for n in SIMPLE_TYPES]
    out = []
    for _ in range(count):
        factors, rank = [], 0
        while True:
            fits = [t for t in types if rank + t.rank <= max_rank]
            if not fits or factors and rng.random() < 0.3:
                break
            factors.append(rng.choice(fits))
            rank += factors[-1].rank
        out.append((factors, rng.randint(0, 2)))
    return out


def test_products_match_the_product_wide_generator_run():
    cases = [([SimpleType.parse(n) for n in names], torus)
             for names in TYPING_SYSTEMS for torus in (0, 1)]
    cases += _random_products(2101, 60)
    assert any(len(f) > 2 and torus for f, torus in cases)
    for factors, torus in cases:
        rs = build_root_system(factors, torus)
        want = _product_wide_build(factors, torus)
        got = (list(rs.roots), list(rs.simple_roots), list(rs.simple_coords))
        assert got == want, ([str(t) for t in factors], torus)
        assert rs.ambient_dim == len(want[1][0])


def test_each_simple_type_runs_the_generator_once(monkeypatch):
    ranks = []
    generate = root_datum._positive_coords

    def counted(simple, cartan):
        ranks.append(len(cartan))
        return generate(simple, cartan)

    monkeypatch.setattr(root_datum, "_positive_coords", counted)
    for cache in (root_datum.type_data, invariants_k._orbit_dims,
                  invariants_k._pair_values):
        cache.cache_clear()
    # k types every Levi component by its place on the Dynkin diagram and
    # counts radicals in closed form, so a classical spec generates no
    # root; only an exceptional component's minimal orbit reads its own.
    k_report(GroupSpec(build_root_system(["A2", "B3"])))
    dual_coxeter_number(SimpleType("A", 2))
    assert ranks == []
    # E6's Levis include D5 and D4, G2's only A1: the exceptional types
    # are generated once each, through every factor and component.
    k_report(GroupSpec(build_root_system(["E6", "G2"])))
    k_report(GroupSpec(build_root_system(["G2", "E6"])))
    assert sorted(ranks) == [2, 6]


def test_k_above_rank_8_generates_no_root(monkeypatch):
    # Above rank 8 only the minorbit route runs, and it reads h_dual, a
    # closed form: A45's 2,070 roots are never generated.
    ranks = []
    monkeypatch.setattr(root_datum, "_positive_coords",
                        lambda simple, cartan: ranks.append(len(cartan)))
    root_datum.type_data.cache_clear()
    report = k_report(GroupSpec(build_root_system(["A45"])))
    assert report["minorbit"] == 45
    assert ranks == []


def test_k_past_the_root_limit_generates_no_root(monkeypatch):
    # A46 holds 101,614 root coordinates, past ROOT_COORD_LIMIT, but no k
    # route reads its roots, so the guard where they are generated never
    # trips.
    ranks = []
    monkeypatch.setattr(root_datum, "_positive_coords",
                        lambda simple, cartan: ranks.append(len(cartan)))
    root_datum.type_data.cache_clear()
    report = k_report(GroupSpec(build_root_system(["A46"])))
    assert report == {"minorbit": 46, "pairs": None,
                      "richardson_absolute": None,
                      "richardson_relative": None, "agreement": True}
    assert ranks == []


def test_size_guard_refuses_before_generating(monkeypatch):
    ranks = []
    generate = root_datum._positive_coords

    def counted(simple, cartan):
        ranks.append(len(cartan))
        return generate(simple, cartan)

    monkeypatch.setattr(root_datum, "_positive_coords", counted)
    root_datum.type_data.cache_clear()
    # E8+T409: 240 roots in dimension 417, 100,080 coordinates
    for factors, torus in ((["A2"], 10 ** 20), (["A300"], 0), (["A46"], 0),
                           (["E8"], 409)):
        rs = build_root_system(factors, torus)
        for name in ("roots", "reflection_perms"):
            with pytest.raises(ResourceLimitError,
                               match="limited to 100000 root coordinates"):
                getattr(rs, name)
    assert ranks == []
    # The constructor, the guard and ambient_dim are closed forms: no root
    # is generated until one is read.
    e8 = build_root_system(["E8"], 408)
    assert e8.ambient_dim == 416 and ranks == []
    assert len(e8.roots) == 240 and ranks == [8]


@pytest.mark.parametrize("name,roots,refused", [
    ("C36", 2592, "C37"), ("D37", 2664, "D38"), ("A45", 2070, "A46")],
    ids=["C36", "D37", "A45"])
def test_the_most_coordinates_admitted_are_generated_within_5_s(
        name, roots, refused):
    # The largest of each kind under the limit: C36 holds 93,312 root
    # coordinates, D37 98,568 and A45 95,220; one rank more is refused.
    root_datum.type_data.cache_clear()
    start = time.perf_counter()
    rs = build_root_system([name])
    perms = rs.reflection_perms
    assert time.perf_counter() - start < 5
    assert len(rs.roots) == roots and len(perms) == rs.semisimple_rank
    assert roots * rs.ambient_dim <= root_datum.ROOT_COORD_LIMIT
    with pytest.raises(ResourceLimitError,
                       match="limited to 100000 root coordinates"):
        build_root_system([refused]).roots
