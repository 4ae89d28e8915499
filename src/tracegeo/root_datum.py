"""Root systems of classical and exceptional type, with exact integer vectors.

Each simple type stores only its simple roots inside a fixed integer lattice
(the usual coordinate realizations, uniformly rescaled where needed so that
every root has integer coordinates: F4 and the E series are stored doubled).
Its roots are generated once per process from the simple roots by integer
root strings on the Cartan matrix, each root an integer key for its
simple-root coordinates carried forward with its ambient vector and its
pairings with the simple coroots; the keys also give the type's simple
reflections as permutations of its roots.  Rescaling a factor changes no
combinatorics: coroots 2a/(a,a) are scale invariant, and all pairings used
downstream are ratios.  The full ambient root lists survive only in the
tests, as an independent oracle.

Products are block-diagonal concatenations of these per-type roots; a
central torus contributes trailing zero coordinates and no roots.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress, count
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, ParseError, ResourceLimitError, _read_int
from .value import Value, set_field

_SERIES = "ABCDEFG"

# RootSystem refuses to generate the roots of a system of more roots times
# ambient dimension than this; A45, B36, C36, D37 and E8+T408, the largest
# of their kinds that pass, build in about a second or less.
ROOT_COORD_LIMIT = 100000


class SimpleType(Value):
    """One simple factor, e.g. A3 or E8."""

    _fields = ("series", "rank")

    def __init__(self, series: str, rank: int):
        set_field(self, "series", series)
        set_field(self, "rank", rank)
        # A tuple, so that "" and "AB" are not matched as substrings.
        if series not in tuple(_SERIES):
            raise DomainError(f"invalid simple type {series}{rank}: "
                              f"series must be one of {_SERIES}")
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
            raise DomainError(f"invalid simple type {series}: rank must "
                              f"be a positive integer, got {rank!r}")
        ok = {"D": rank >= 2, "E": rank in (6, 7, 8),
              "F": rank == 4, "G": rank == 2}.get(series, True)
        if not ok:
            raise DomainError(f"invalid simple type {series}{rank}: "
                              "rank out of range for this series")

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"

    @classmethod
    def parse(cls, text: str, offset: int = 0) -> "SimpleType":
        """A compact name like "A2" or "E8", its rank read by _read_int.
        Each error is a ParseError; offset is the name's byte offset in
        the text it came from."""
        rank = _read_int(text[1:], "type rank", offset=offset + 1)
        try:
            return cls(text[:1], rank)
        except DomainError as exc:
            raise ParseError(str(exc), offset=offset) from exc

    def size(self) -> tuple[int, int]:
        """(number of roots, ambient dimension), in closed form."""
        l = self.rank
        roots = {"A": l * (l + 1), "B": 2 * l * l, "C": 2 * l * l,
                 "D": 2 * l * (l - 1), "E": {6: 72, 7: 126, 8: 240}.get(l),
                 "F": 48, "G": 12}[self.series]
        return roots, {"A": l + 1, "E": 8, "F": 4, "G": 3}.get(self.series, l)


def _chain(dim: int, n: int) -> list[list[int]]:
    """e_i - e_{i+1} for i < n, in Z^dim."""
    return [[int(k == i) - int(k == i + 1) for k in range(dim)]
            for i in range(n)]


_E8_SIMPLE = [
    [1, -1, -1, -1, -1, -1, -1, 1],
    [2, 2, 0, 0, 0, 0, 0, 0],
    [-2, 2, 0, 0, 0, 0, 0, 0],
    [0, -2, 2, 0, 0, 0, 0, 0],
    [0, 0, -2, 2, 0, 0, 0, 0],
    [0, 0, 0, -2, 2, 0, 0, 0],
    [0, 0, 0, 0, -2, 2, 0, 0],
    [0, 0, 0, 0, 0, -2, 2, 0],
]

# Per series: rank -> (ambient simple roots in Bourbaki order, ambient dim).
# G2 sits in the sum-zero sublattice of Z^3; F4 and the E series are doubled
# so that every root is integral; E6 and E7 are spanned by the first 6 and 7
# simple roots of E8.
_SIMPLE_ROOTS = {
    "A": lambda l: (_chain(l + 1, l), l + 1),
    "B": lambda l: (_chain(l, l - 1) + [[0] * (l - 1) + [1]], l),
    "C": lambda l: (_chain(l, l - 1) + [[0] * (l - 1) + [2]], l),
    "D": lambda l: (_chain(l, l - 1) + [[0] * (l - 2) + [1, 1]], l),
    "G": lambda l: ([[1, -1, 0], [-2, 1, 1]], 3),
    "F": lambda l: ([[0, 2, -2, 0], [0, 0, 2, -2], [0, 0, 0, 2],
                     [1, -1, -1, -1]], 4),
    "E": lambda l: (_E8_SIMPLE[:l], 8),
}


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _cartan(simple: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """cartan[i][j] = <alpha_i, alpha_j coroot>
    = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j), an integer."""
    norms = [_dot(b, b) for b in simple]
    return tuple(tuple([2 * _dot(a, b) // nb for b, nb in zip(simple, norms)])
                 for a in simple)


def _positive_coords(simple: Sequence[tuple[int, ...]],
                     cartan: Sequence[tuple[int, ...]]) -> list[tuple]:
    """Positive roots as (ambient vector, key, pairings) triples, generated
    height by height.

    The key of the root sum c_j alpha_j is the integer sum c_j 16^j, its
    simple coordinates read as base-16 digits; pairings[j] is
    <beta, alpha_j coroot>.  No simple coordinate of a root exceeds 6 (the
    highest root of E8 has the largest; Bourbaki, plates I-IX), so every
    key probed below has digits from -1 to 7.  Two digit strings within
    +-7 differ digitwise by less than 16, and their lowest differing digit
    survives modulo the next power of 16: equal keys have equal
    coordinates.

    Root strings: for a positive root beta other than alpha_i, the alpha_i
    string through beta runs from beta - p alpha_i to beta + q alpha_i with
    p - q = <beta, alpha_i coroot>.  Every root below beta is already known,
    so p is read off the known keys and beta + alpha_i is a root iff q > 0,
    which a negative pairing settles without a probe.  The step to
    beta + alpha_i adds 16^i to the key, simple root i to the ambient vector
    and row i of the Cartan matrix to the pairings.
    """
    steps = [1 << 4 * i for i in range(len(cartan))]
    layer = list(zip(simple, steps, cartan))
    found = set(steps)
    out = []
    while layer:
        out += layer
        nxt = []
        for root, key, pairings in layer:
            for step, pairing, alpha, row in zip(steps, pairings, simple,
                                                 cartan):
                up = key + step
                if up in found:
                    continue
                if pairing >= 0:
                    p, down = 0, key - step
                    while down in found:
                        p += 1
                        down -= step
                    if p <= pairing:
                        continue
                found.add(up)
                nxt.append((tuple(map(add, root, alpha)), up,
                            tuple(map(add, pairings, row))))
        layer = nxt
    return out


# A set of roots is an int mask over the sorted roots: bit i is set iff
# roots[i] is a member.  The helpers below decode, negate and permute masks.

_FLAGS = bytes.maketrans(b"01", b"\0\1")


def mask_flags(mask: int) -> bytes:
    """Byte i is bit i of mask."""
    return bin(mask)[:1:-1].encode().translate(_FLAGS)


def mask_indices(mask: int) -> Iterator[int]:
    """The set bits of mask, ascending."""
    return compress(count(), mask_flags(mask))


def mask_tables(perm: Sequence[int]) -> tuple[list[int], ...]:
    """A permutation of root indices acting on root bitmasks, one byte at a
    time: tables[k][v] is the image of the mask v << 8k.  Images of
    disjoint masks are disjoint, so the image of a mask is the sum of
    tables[k][byte k of the mask]."""
    tables = []
    for base in range(0, len(perm), 8):
        table = [0]
        for j in perm[base:base + 8]:
            bit = 1 << j
            table += [img | bit for img in table]
        tables.append(table)
    return tuple(tables)


def permute_masks(tables: tuple[list[int], ...],
                  masks: Iterable[int]) -> list[int]:
    """The images of masks under the permutation behind mask_tables."""
    k, getitem = len(tables), list.__getitem__
    return [sum(map(getitem, tables, mask.to_bytes(k, "little")))
            for mask in masks]


# _REVERSE[b] is the byte b with its eight bits in reverse order: the
# image of b under the bit permutation i -> 7 - i.
_REVERSE = bytes(mask_tables(range(7, -1, -1))[0])


def negate_mask(rs: RootSystem, mask: int) -> int:
    """The mask of the negated roots.  The roots are sorted and closed
    under negation, so -roots[i] is roots[n - 1 - i]: negation reverses
    the n-bit mask."""
    n = len(rs.roots)
    if mask >> n:
        raise DomainError("root index out of range")
    k = (n + 7) // 8
    return int.from_bytes(mask.to_bytes(k, "big").translate(_REVERSE),
                          "little") >> (8 * k - n)


class RootSystem(Value):
    """A finite root system (possibly a product) with a central torus block.

    A system is its simple factors and its torus rank; everything else is
    derived on first read.  roots are integer vectors in the ambient
    lattice, sorted lexicographically; simple_roots keep factor-by-factor
    Bourbaki order; simple_coords[i] writes roots[i] in the simple-root
    basis.  Reading any of them, or any table derived from them, refuses
    a system of more than ROOT_COORD_LIMIT root coordinates (roots times
    ambient dimension, counted in closed form) before any root is
    generated; the constructor, ambient_dim and semisimple_rank do not.
    """

    _fields = ("factors", "torus_rank")

    def __init__(self, factors: tuple[SimpleType, ...], torus_rank: int):
        set_field(self, "factors", tuple(factors))
        set_field(self, "torus_rank", torus_rank)
        if isinstance(torus_rank, bool) or not isinstance(torus_rank, int) \
                or torus_rank < 0:
            raise DomainError("torus_rank must be a nonnegative integer, "
                              f"got {torus_rank!r}")

    @cached_property
    def ambient_dim(self) -> int:
        return sum(t.size()[1] for t in self.factors) + self.torus_rank

    @cached_property
    def _assembled(self) -> tuple[tuple, tuple, tuple, tuple]:
        """(simple roots, roots, simple coordinates, places): each
        factor's type_data padded with zeros outside its own blocks of
        ambient coordinates and simple roots, the roots sorted, and
        places[f] the two slices of roots that hold factor f's.

        A padded root's first nonzero coordinate lies in its own factor's
        block, so the sorted roots are the lower halves of the factors'
        sorted roots (first nonzero coordinate negative) in factor order,
        then the upper halves in reverse factor order.
        """
        total, rank = self.ambient_dim, self.semisimple_rank
        n = sum(t.size()[0] for t in self.factors)
        if n * total > ROOT_COORD_LIMIT:
            raise ResourceLimitError(
                f"root systems are limited to {ROOT_COORD_LIMIT} root "
                f"coordinates (roots times ambient dimension); {self} has "
                f"{n * total}")
        simple: list[tuple[int, ...]] = []
        lower: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        uppers, places = [], []
        offset = 0
        for fsimple, dim, fpairs, _, _ in map(type_data, self.factors):
            lead, trail = (0,) * offset, (0,) * (total - offset - dim)
            clead = (0,) * len(simple)
            ctrail = (0,) * (rank - len(simple) - len(fsimple))
            simple += [lead + s + trail for s in fsimple]
            pairs = [(lead + r + trail, clead + c + ctrail)
                     for r, c in fpairs]
            below, half = len(lower), len(pairs) // 2
            places.append((slice(below, below + half),
                           slice(n - below - half, n - below)))
            lower += pairs[:half]
            uppers.append(pairs[half:])
            offset += dim
        for upper in reversed(uppers):
            lower += upper
        roots, coords = tuple(zip(*lower)) or ((), ())
        return tuple(simple), roots, coords, tuple(places)

    @cached_property
    def simple_roots(self) -> tuple[tuple[int, ...], ...]:
        return self._assembled[0]

    @cached_property
    def roots(self) -> tuple[tuple[int, ...], ...]:
        return self._assembled[1]

    @cached_property
    def simple_coords(self) -> tuple[tuple[int, ...], ...]:
        return self._assembled[2]

    # -- basic derived data --------------------------------------------------

    @cached_property
    def root_index(self) -> dict[tuple[int, ...], int]:
        return {r: i for i, r in enumerate(self.roots)}

    @cached_property
    def semisimple_rank(self) -> int:
        return sum(t.rank for t in self.factors)

    @property
    def group_dim(self) -> int:
        """Dimension of the span of the roots plus the central torus block."""
        return self.semisimple_rank + self.torus_rank

    @cached_property
    def heights(self) -> tuple[int, ...]:
        return tuple(sum(c) for c in self.simple_coords)

    @cached_property
    def is_positive(self) -> tuple[bool, ...]:
        # Coordinates are sign-coherent, so the sign of the height decides.
        return tuple(h > 0 for h in self.heights)

    @cached_property
    def positive_mask(self) -> int:
        """Bit i is set iff roots[i] is positive."""
        return sum(1 << i for i, p in enumerate(self.is_positive) if p)

    @cached_property
    def levi_memo(self) -> dict[int, object]:
        """The LeviDatum of each symmetric root mask, shared by every
        parabolic subset with that symmetric part; filled by levi_of."""
        return {}

    @cached_property
    def support_masks(self) -> tuple[int, ...]:
        """Bit j of support_masks[i] is set iff roots[i] involves alpha_j."""
        return tuple(sum(1 << j for j, c in enumerate(coords) if c)
                     for coords in self.simple_coords)

    def span_masks(self) -> list[int]:
        """span_masks()[J] has bit i set iff roots[i] is supported on the
        simple-root subset J (bit j of J stands for alpha_j).

        Each root is placed at its own support; then one OR sweep per
        simple root j passes every entry without j on to the entry with j.
        The table is built anew on each call and not kept: its 2^s entries
        serve one walk over the subsets.
        """
        span = [0] * (1 << self.semisimple_rank)
        for i, m in enumerate(self.support_masks):
            span[m] |= 1 << i
        for j in range(self.semisimple_rank):
            bit = 1 << j
            for hi in range(bit, len(span), 2 * bit):
                span[hi:hi + bit] = map(int.__or__, span[hi:hi + bit],
                                        span[hi - bit:hi])
        return span

    # -- reflections -----------------------------------------------------------

    @cached_property
    def reflection_perms(self) -> tuple[tuple[int, ...], ...]:
        """For each simple root, the induced permutation of root indices:
        its factor's cached reflection carried to the places of that
        factor's roots in the sorted roots; the roots of every other
        factor are fixed.  A single factor's roots are the sorted roots
        themselves, so its system shares the type's tuples."""
        index = range(len(self.roots))
        if len(self.factors) == 1:
            return type_data(self.factors[0])[4]
        perms = []
        for t, (lower, upper) in zip(self.factors, self._assembled[3]):
            where = [*index[lower], *index[upper]]
            half = len(where) // 2
            for fperm in type_data(t)[4]:
                images = list(map(where.__getitem__, fperm))
                perm = list(index)
                perm[lower], perm[upper] = images[:half], images[half:]
                perms.append(tuple(perm))
        return tuple(perms)

    def __str__(self) -> str:
        name = "x".join(str(t) for t in self.factors) if self.factors else "T"
        if self.torus_rank and self.factors:
            name += f"+T{self.torus_rank}"
        elif self.torus_rank:
            name = f"T{self.torus_rank}"
        return name


@lru_cache(maxsize=None)
def type_data(t: SimpleType) -> tuple:
    """(ambient simple roots, ambient dimension, (root, simple coordinates)
    pairs sorted by root, Cartan matrix, simple reflections) of one simple
    type, all tuples: one generator run serves every product and the orbit
    table of the type.

    Reflection i permutes the indices of the sorted pairs: s_i(beta) =
    beta - <beta, alpha_i coroot> alpha_i has the key of beta less
    <beta, alpha_i coroot> 16^i, and a zero pairing fixes beta.  The
    sorted roots are closed under negation, so -roots[k] is
    roots[n - 1 - k]; since s_i(-beta) = -s_i(beta), the positive roots'
    images give the rest.
    """
    simple, dim = _SIMPLE_ROOTS[t.series](t.rank)
    simple = tuple(map(tuple, simple))
    cartan = _cartan(simple)
    pos = _positive_coords(simple, cartan)
    order = sorted([(r, key) for r, key, _ in pos]
                   + [(tuple([-x for x in r]), -key) for r, key, _ in pos])
    index = {key: k for k, (_, key) in enumerate(order)}
    shifts = range(0, 4 * len(simple), 4)
    coords = {key: tuple([key >> s & 15 for s in shifts])
              for _, key, _ in pos}
    pairs = tuple((r, coords[key] if key > 0
                   else tuple([-x for x in coords[-key]])) for r, key in order)
    last = len(order) - 1
    perms = []
    for shift, column in zip(shifts, zip(*[a for _, _, a in pos])):
        perm = list(range(len(order)))
        for (_, key, _), a in zip(pos, column):
            if a:
                k, img = index[key], index[key - (a << shift)]
                perm[k], perm[last - k] = img, last - img
        perms.append(tuple(perm))
    return simple, dim, pairs, cartan, tuple(perms)


def build_root_system(factors: Sequence[SimpleType | str],
                      torus_rank: int = 0) -> RootSystem:
    """A (product) root system with an optional central torus; factors may
    be SimpleType instances or compact names like "B3"."""
    return RootSystem(tuple(t if isinstance(t, SimpleType)
                            else SimpleType.parse(t) for t in factors),
                      torus_rank)


def dual_coxeter_number(t: SimpleType) -> int:
    """h_dual, 1 plus the coefficient sum of the highest root's coroot, in
    closed form (Bourbaki, plates I-IX): A_l: l+1, B_l: 2l-1 (B1 = A1: 2),
    C_l: l+1, D_l: 2l-2 (D2 = A1xA1: 2), G2: 4, F4: 9, E6: 12, E7: 18,
    E8: 30."""
    l = t.rank
    return {"A": l + 1, "B": 2 * l - 1 if l > 1 else 2, "C": l + 1,
            "D": 2 * l - 2, "E": {6: 12, 7: 18, 8: 30}.get(l), "F": 9,
            "G": 4}[t.series]
