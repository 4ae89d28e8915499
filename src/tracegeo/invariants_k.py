"""The unipotent decay invariant of a reductive group, three ways.

The invariant is half the minimal dimension of a nontrivial induced
unipotent orbit.  It can be computed by enumerating (Levi, orbit) pairs,
by minimizing unipotent-radical dimensions (valid when the minimal orbit
is a Richardson orbit), or directly from the minimal-orbit dimension
2(h_dual - 1) per simple factor; the pairs route never reads h_dual.
The pairs route runs per simple type, by a DP over its Dynkin diagram (a
path, with one extra leaf in types D and E) that collects the pairs'
values from the diagram's segments in O(r^2) steps, not 2^r subsets.
Both it and the Richardson route read only the diagram; only an
exceptional component's minimal orbit reads generated roots.
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

# Bounds no work since the pairs DP, but perfbench expects its refusals.
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


# -- segment types ------------------------------------------------------------


def _segment_type(t: SimpleType, j: int, i: int,
                  p: int | None = None) -> SimpleType:
    """The type of the nodes j to i - 1 of t's path, joined to t's leaf
    when p, the path position of the leaf's anchor, is given (j <= p < i).
    Bourbaki's numbering ends the path at every multiple bond but F4's,
    alpha_2 => alpha_3 at path positions 1 and 2.  A leaf joined inside the
    segment makes a branch node: D with an arm of one node, E otherwise.
    """
    n = i - j
    if p is not None:
        if j < p < i - 1:
            return SimpleType("D" if 1 in (p - j, i - 1 - p) else "E", n + 1)
        return SimpleType("A", n + 1)
    if t.series in "BCG" and i == t.rank and n > 1:
        return SimpleType(t.series, n)
    if t.series == "F" and j < 2 < i:
        # alpha_1 alpha_2 alpha_3 is B3, alpha_2 alpha_3 alpha_4 is C3
        return SimpleType("B" if i == 3 else "C" if j else "F", n)
    return SimpleType("A", n)


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


def _segment_values(c: SimpleType) -> set[int]:
    """#roots - d for each orbit dimension d of a component of type c."""
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
    segment through the anchor.  Each segment is typed once, by its place.
    """
    leaf = t.series in "DE"
    m = t.rank - leaf
    seg = {(j, i): _segment_values(_segment_type(t, j, i))
           for i in range(1, m + 1) for j in range(i)}
    left = [{0}]
    for i in range(1, m + 1):
        left.append(left[i - 1].union(*(_sums(left[max(j - 1, 0)], seg[j, i])
                                        for j in range(i))))
    if not leaf:
        return frozenset(left[m])
    right = [{0}] * (m + 2)
    for j in reversed(range(m)):
        right[j] = right[j + 1].union(*(_sums(seg[j, i], right[i + 1])
                                        for i in range(j + 1, m + 1)))
    # The anchor's path position: alpha_(n-2) of D_n, alpha_4 of E_n.  D2's
    # leaf has none, and m stands in.
    p = 2 if t.series == "E" else t.rank - 3 if t.rank > 2 else m
    values = left[m] | _sums(_sums(left[p], right[p + 1]),
                             _segment_values(SimpleType("A", 1)))
    for j in range(p + 1):
        for i in range(p + 1, m + 1):
            joined = _segment_values(_segment_type(t, j, i, p))
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
    # dim G/P, least at one end node of i's own factor (Bourbaki, plates
    # I-IX; Collingwood and McGovern, ch. 7).  D2 is A1xA1, D3 is A3.
    return min({"A": l, "B": 2 * l - 1, "C": 2 * l - 1,
                "D": 2 * l - 2 - (l < 4), "E": {6: 16, 7: 27, 8: 57}.get(l),
                "F": 15, "G": 5}[t.series] for t in rs.factors
               for l in [t.rank])


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
