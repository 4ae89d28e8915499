"""The unipotent decay invariant of a reductive group, three ways.

The invariant is half the minimal dimension of a nontrivial induced
unipotent orbit.  It can be computed by enumerating (Levi, orbit) pairs,
by minimizing unipotent-radical dimensions (valid when the minimal orbit
is a Richardson orbit), or directly from the minimal-orbit dimension
2(h_dual - 1) per simple factor; the pairs route never reads h_dual.
The pairs route runs per simple type, by a DP over its Dynkin diagram (a
path, with one extra leaf in types D and E) that collects the pairs'
values from the diagram's segments in O(r^2) steps, not 2^r subsets.
Restriction of scalars from a degree-n field multiplies every orbit
dimension, hence the invariant, by n.

Groups whose rational structure differs from the split one (rational rank
smaller than absolute rank) carry an optional relative datum: a list of
relative roots with the dimension each contributes to a minimal-parabolic
nilradical.  The Richardson route then runs on that datum instead, and
report-style consumers can compare it against the absolute answer.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

from .errors import DomainError, ResourceLimitError
from .nilpotent_orbits import list_orbits, min_orbit_dim, orbit_dim
from .root_datum import RootSystem, SimpleType, build_root_system, type_data
from .value import Value, set_field

PAIR_RANK_LIMIT = 8
RELATIVE_ENTRY_LIMIT = 12


class RelativeDatum(Value):
    """Rational root data: root vectors with nilradical contributions.

    Each entry is one positive relative root together with the dimension
    of the nilradical slice it accounts for (the root space plus any
    multiples).  For a rational-rank-one group this is a single vector and
    the full minimal-parabolic nilradical dimension.
    """

    _fields = ("roots", "contributions")

    def __init__(self, roots: tuple[tuple[int, ...], ...],
                 contributions: tuple[int, ...]):
        set_field(self, "roots", roots)
        set_field(self, "contributions", contributions)
        if not roots:
            raise DomainError("relative datum needs at least one root")
        if len(roots) != len(contributions):
            raise DomainError("relative roots and contributions must have "
                              "matching lengths")
        width = len(roots[0])
        for r in roots:
            for x in r:
                if type(x) is not int:
                    raise DomainError("relative root entries must be "
                                      f"integers, not {x!r}")
            if len(r) != width or all(x == 0 for x in r):
                raise DomainError("relative roots must be nonzero vectors "
                                  "of equal length")
        for c in contributions:
            if isinstance(c, bool) or not isinstance(c, int):
                raise DomainError("nilradical contributions must be "
                                  f"integers, not {c!r}")
            if c < 1:
                raise DomainError("nilradical contributions must be "
                                  "positive integers")

    @property
    def rank(self) -> int:
        from . import linalg
        return linalg.rank(self.roots)


class GroupSpec(Value):
    _fields = ("absolute", "restriction_degree", "relative")

    def __init__(self, absolute: RootSystem, restriction_degree: int = 1,
                 relative: RelativeDatum | None = None):
        set_field(self, "absolute", absolute)
        set_field(self, "restriction_degree", restriction_degree)
        set_field(self, "relative", relative)
        if isinstance(restriction_degree, bool) \
                or not isinstance(restriction_degree, int) \
                or restriction_degree < 1:
            raise DomainError("restriction degree must be a positive integer")
        if relative is not None:
            if relative.rank > absolute.semisimple_rank:
                raise DomainError("relative rank exceeds absolute rank")

    @classmethod
    def build(cls, factors: Sequence[SimpleType | str], torus_rank: int = 0,
              restriction_degree: int = 1,
              relative: RelativeDatum | None = None) -> "GroupSpec":
        return cls(build_root_system(factors, torus_rank),
                   restriction_degree, relative)


# -- component recognition ----------------------------------------------------


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


@lru_cache(maxsize=None)
def _orbit_dims(t: SimpleType) -> tuple[int, ...]:
    """A classical type's orbit dimensions, from its partitions; an
    exceptional type's trivial and minimal ones only.  The minimal orbit is
    that of a root vector e of the highest root theta, and [g, e] is spanned
    by e, the grade-1 root vectors and the coroot of theta (Collingwood and
    McGovern, ch. 4): 1 + #{alpha > 0 : (alpha, theta) > 0} dimensions."""
    if t.series in "ABCD":
        return tuple(sorted({orbit_dim(lab) for lab in list_orbits(t)}))
    pairs = type_data(t)[2]
    theta = max(pairs, key=lambda pair: sum(pair[1]))[0]
    return (0, 1 + sum(1 for r, c in pairs if sum(c) > 0
                       and sum(a * b for a, b in zip(r, theta)) > 0))


def _segment_values(cartan: Sequence[Sequence[int]],
                    nodes: list[int]) -> set[int]:
    """#roots - d for each orbit dimension d of the component on nodes."""
    c = _component_type(cartan, nodes)
    roots = c.size()[0]
    return {roots - d for d in _orbit_dims(c)}


def _sums(a: set[int], b: set[int]) -> set[int]:
    """The sumset {x + y : x in a, y in b}."""
    return {x + y for x in a for y in b}


@lru_cache(maxsize=None)
def _pair_values(t: SimpleType) -> frozenset[int]:
    """The values #Levi roots - d over the (J, orbit) pairs of t: J a
    subset of t's simple roots, d an orbit dimension of J's standard Levi.

    Both terms add over J's components.  t's diagram is a path but for one
    leaf: alpha_n of D_n on alpha_(n-2), alpha_2 of E_n on alpha_4
    (Bourbaki's numbering; D2's two roots are unlinked).  A subset of the
    first i path nodes either leaves node i - 1 out or ends in a component
    [j, i) after a gap, so left[i] adds [j, i)'s values to left[j - 1];
    right[i] does the same for the path from node i on.  A J with the leaf
    leaves its anchor out, splitting the path there, or joins it to one
    segment through the anchor.  Each segment is typed once.
    """
    cartan = type_data(t)[3]
    leaf = {"D": t.rank - 1, "E": 1}.get(t.series)
    path = [i for i in range(t.rank) if i != leaf]
    m = len(path)
    seg = {(j, i): _segment_values(cartan, path[j:i])
           for i in range(1, m + 1) for j in range(i)}
    left = [{0}]
    for i in range(1, m + 1):
        left.append(left[i - 1].union(*(_sums(left[max(j - 1, 0)], seg[j, i])
                                        for j in range(i))))
    if leaf is None:
        return frozenset(left[m])
    right = [{0}] * (m + 2)
    for j in reversed(range(m)):
        right[j] = right[j + 1].union(*(_sums(seg[j, i], right[i + 1])
                                        for i in range(j + 1, m + 1)))
    # The anchor's path position; D2's leaf has none, and m stands in.
    p = next((p for p, i in enumerate(path) if cartan[leaf][i]), m)
    values = left[m] | _sums(_sums(left[p], right[p + 1]),
                             _segment_values(cartan, [leaf]))
    for j in range(p + 1):
        for i in range(p + 1, m + 1):
            joined = _segment_values(cartan, path[j:i] + [leaf])
            values |= _sums(_sums(left[max(j - 1, 0)], right[i + 1]), joined)
    return frozenset(values)


# -- the three computations ----------------------------------------------------


def k_by_pairs(g: GroupSpec) -> int:
    """Enumerate (standard Levi, orbit) pairs and halve the minimal induced
    dimension, excluding the trivial pair.

    An orbit of dimension d of the standard Levi of a simple-root subset J
    induces one of dimension d + #roots - #Levi roots = #roots - v.  Levis
    and orbits of a product are products, and that sum adds over the
    simple factors, 0 from a factor's trivial pair and more from any
    other: the least nontrivial one is the least of each factor's own,
    #roots less the largest v of _pair_values other than #roots, which
    only the trivial pair reaches.  Exceptional Levi components contribute
    their trivial and minimal orbits only: every nontrivial orbit is at
    least minimal, so larger ones cannot lower the minimum.  Each factor
    is one of its own Levis, so its minimal orbits enter here too.
    """
    rs = g.absolute
    s = rs.semisimple_rank
    if s == 0:
        raise DomainError("no nontrivial unipotent orbits in a torus")
    if s > PAIR_RANK_LIMIT:
        raise ResourceLimitError(
            f"pair enumeration is limited to rank {PAIR_RANK_LIMIT}; "
            f"got rank {s}")
    best = min(n - max(v for v in _pair_values(t) if v != n)
               for t in rs.factors for n in [t.size()[0]])
    assert best % 2 == 0 and best > 0
    return g.restriction_degree * (best // 2)


def k_min_orbit(g: GroupSpec) -> int:
    """Half the minimal nontrivial orbit dimension over the simple factors,
    scaled by the restriction degree."""
    factors = g.absolute.factors
    if not factors:
        raise DomainError("no nontrivial unipotent orbits in a torus")
    return g.restriction_degree * min(min_orbit_dim(t) // 2 for t in factors)


def _richardson_absolute(rs: RootSystem) -> int:
    s = rs.semisimple_rank
    if s == 0:
        raise DomainError("no proper parabolic subgroups in a torus")
    if s > PAIR_RANK_LIMIT:
        raise ResourceLimitError(
            f"parabolic minimization is limited to rank {PAIR_RANK_LIMIT}; "
            f"got rank {s}")
    # R_J grows with J, so the radical dimension is least at a maximal
    # proper parabolic, the one of S minus {i} for some i: its radical is
    # half the roots that involve alpha_i, all of them in i's own factor.
    return min(len(pairs) - col.count(0)
               for pairs in (type_data(t)[2] for t in rs.factors)
               for col in zip(*[c for _, c in pairs])) // 2


def _richardson_relative(rel: RelativeDatum) -> int:
    """The least radical dimension over rel's proper parabolics: the
    contributions of the roots outside a non-spanning set's span.  The
    radical shrinks as the span grows, so the least is at a hyperplane
    (Oxley, Matroid Theory, ch. 1), the span of r - 1 roots for r the
    datum's rank; a smaller span lies in a hyperplane with no larger sum.
    For r = 1 the only such set is empty."""
    from . import linalg
    m = len(rel.roots)
    if m > RELATIVE_ENTRY_LIMIT:
        raise ResourceLimitError(
            f"relative data are limited to {RELATIVE_ENTRY_LIMIT} entries; "
            f"got {m}")
    vectors = rel.roots
    sums = []
    for basis in map(list, combinations(vectors, linalg.rank(vectors) - 1)):
        r = linalg.rank(basis)
        sums.append(sum(c for v, c in zip(vectors, rel.contributions)
                        if linalg.rank(basis + [v]) > r))
    return min(sums)


def k_richardson(g: GroupSpec) -> int:
    """Minimal unipotent-radical dimension over proper standard parabolics.

    Runs on the relative datum when one is present, else on the absolute
    root system.  This equals the decay invariant exactly when the minimal
    orbit is induced from a trivial orbit.
    """
    if g.relative is not None:
        return g.restriction_degree * _richardson_relative(g.relative)
    return g.restriction_degree * _richardson_absolute(g.absolute)


def _guarded(route: Callable[[], int]) -> int | None:
    """The route's value, or None when a resource guard rules it out."""
    try:
        return route()
    except ResourceLimitError:
        return None


def k_report(g: GroupSpec) -> dict:
    """All applicable computations side by side, with an agreement flag.

    Routes that a guard or missing datum rules out appear as None and do
    not affect agreement.
    """
    n, rel = g.restriction_degree, g.relative
    report: dict[str, int | bool | None] = {
        "minorbit": k_min_orbit(g),
        "pairs": _guarded(lambda: k_by_pairs(g)),
        "richardson_absolute":
            _guarded(lambda: n * _richardson_absolute(g.absolute)),
        "richardson_relative": None if rel is None else
            _guarded(lambda: n * _richardson_relative(rel)),
    }
    values = [v for v in report.values() if v is not None]
    report["agreement"] = len(set(values)) == 1
    return report
