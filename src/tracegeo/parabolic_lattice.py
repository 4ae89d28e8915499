"""Closed parabolic subsets of a root system and their Levi bookkeeping.

A parabolic subgroup containing the maximal split torus is modeled by a
closed subset S of roots with S u -S = R; its Levi is the symmetric part
S n -S and its unipotent radical the antisymmetric part.  Everything here
is finite set combinatorics plus exact ranks of root sets, so all
dimensions and counts are exact.

Subsets are stored as frozensets of root indices into the parent system's
canonical root order; bitmask arithmetic drives the enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from . import linalg
from .errors import DomainError, ResourceLimitError
from .root_datum import RootSystem

PARABOLIC_COUNT_LIMIT = 2**16


@dataclass(frozen=True)
class ParabolicSubset:
    system: RootSystem
    members: frozenset[int]

    @property
    def member_roots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.system.roots[i] for i in self.members))

    def sort_key(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


@dataclass(frozen=True)
class LeviDatum:
    """Symmetric part of a parabolic subset plus its split-center dimension.

    a_M_dim is the dimension of the central split torus of the Levi:
    (rank of the root span + central torus rank) minus the rank of the
    Levi's own roots.
    """

    system: RootSystem
    levi_roots: frozenset[int]
    a_M_dim: int

    @property
    def member_roots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.system.roots[i] for i in self.levi_roots))

    def sort_key(self) -> tuple[int, ...]:
        return tuple(sorted(self.levi_roots))


@lru_cache(maxsize=4096)
def _rows_rank(rows: frozenset[tuple[int, ...]]) -> int:
    return linalg.rank(list(rows))


def _root_rank(rs: RootSystem, members: Iterable[int]) -> int:
    # +-alpha span the same line, and the positive one of the pair has
    # nonnegative coordinates.  Equal row sets have equal ranks in any
    # system, so each distinct Levi is ranked once.
    coords, pos, neg = rs.simple_coords, rs.is_positive, rs.negation
    return _rows_rank(frozenset(coords[i] if pos[i] else coords[neg[i]]
                                for i in members))


def make_levi(rs: RootSystem, root_indices: Iterable[int]) -> LeviDatum:
    """Validate a root subset as a Levi and compute its split-center dim.

    The subset must be closed under negation and saturated in its span
    (every root lying in the rational span of the subset belongs to it).
    """
    members = frozenset(root_indices)
    for i in members:
        if i < 0 or i >= len(rs.roots):
            raise DomainError(f"root index {i} out of range")
        if rs.negation[i] not in members:
            raise DomainError("levi roots must be closed under negation")
    r = _root_rank(rs, members)
    for j in range(len(rs.roots)):
        if j not in members and _root_rank(rs, members | {j}) == r:
            raise DomainError("levi roots must contain every root in "
                              "their span")
    return LeviDatum(rs, members, rs.group_dim - r)


def minimal_levi(rs: RootSystem) -> LeviDatum:
    return LeviDatum(rs, frozenset(), rs.group_dim)


def full_levi(rs: RootSystem) -> LeviDatum:
    return LeviDatum(rs, frozenset(range(len(rs.roots))), rs.torus_rank)


def _symmetric_part(p: ParabolicSubset) -> frozenset[int]:
    return p.members.intersection(map(p.system.negation.__getitem__,
                                      p.members))


def levi_of(p: ParabolicSubset) -> LeviDatum:
    """Symmetric part of a parabolic subset, with its split-center dim."""
    rs = p.system
    sym = _symmetric_part(p)
    return LeviDatum(rs, sym, rs.group_dim - _root_rank(rs, sym))


def dim_unipotent_radical(p: ParabolicSubset) -> int:
    return len(p.members) - len(_symmetric_part(p))


# The members' bit offsets within each 4-bit nibble of a mask.
_NIBBLE_BITS = tuple(tuple(b for b in range(4) if v >> b & 1)
                     for v in range(16))


def _nibble_tables(perm: Sequence[int]) -> list[list[int]]:
    """table[k][v] is the image under perm of the mask v << 4k."""
    tables = []
    for base in range(0, len(perm), 4):
        table = [0]
        for j in perm[base:base + 4]:
            table += [img | 1 << j for img in table]
        tables.append(table)
    return tables


def enumerate_parabolic_subsets(rs: RootSystem) -> list[ParabolicSubset]:
    """All closed subsets S with S u -S = R, as ParabolicSubset values.

    Seeds are the standard parabolic subsets (roots of a simple-root
    subset's span, together with all positive roots); closing the seed set
    under the simple-reflection permutations reaches every chamber, hence
    every parabolic subset.  Each reflection acts on a root bitmask through
    one 16-entry table per 4-bit nibble.  The result is sorted by member
    index tuple.  The closure stops as soon as it holds more than
    PARABOLIC_COUNT_LIMIT masks, before any subset is built; at rank
    s >= 1 there are more than the 2^s seeds, so 2^s >= the limit refuses
    before seeding.
    """
    s = rs.semisimple_rank
    refusal = (f"parabolic enumeration is limited to {PARABOLIC_COUNT_LIMIT} "
               f"subsets; {rs} has more")
    if 1 << s >= PARABOLIC_COUNT_LIMIT:
        raise ResourceLimitError(refusal)
    n = len(rs.roots)
    pos_mask = 0
    for i in range(n):
        if rs.is_positive[i]:
            pos_mask |= 1 << i
    seeds = set()
    for subset in range(1 << s):
        chosen = [i for i in range(s) if subset >> i & 1]
        levi_mask = 0
        for i in rs.roots_in_simple_span(chosen):
            levi_mask |= 1 << i
        seeds.add(levi_mask | pos_mask)
    shifts = range(0, n, 4)
    tables = [list(zip(shifts, _nibble_tables(perm)))
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
        if len(seen) > PARABOLIC_COUNT_LIMIT:
            raise ResourceLimitError(refusal)
    rows = sorted(tuple(shift + b for shift in shifts
                        for b in _NIBBLE_BITS[m >> shift & 15])
                  for m in seen)
    return [ParabolicSubset(rs, frozenset(r)) for r in rows]


def f_sets(rs: RootSystem, m: LeviDatum) -> tuple[
        list[ParabolicSubset], list[LeviDatum],
        dict[LeviDatum, list[ParabolicSubset]]]:
    """Parabolic subsets containing m, grouped by their Levi.

    Returns (F, L, P_by_L) where F lists every parabolic subset whose
    members contain m's roots, L the distinct Levis arising as symmetric
    parts of F's elements, and P_by_L the grouping of F by Levi.  The
    groups partition F.
    """
    if m.system != rs:
        raise DomainError("levi datum belongs to a different root system")
    # Re-validate realizability; hand-built data may not be span-saturated.
    make_levi(rs, m.levi_roots)
    f_all = [p for p in enumerate_parabolic_subsets(rs)
             if m.levi_roots <= p.members]
    by_levi: dict[LeviDatum, list[ParabolicSubset]] = {}
    for p in f_all:
        by_levi.setdefault(levi_of(p), []).append(p)
    levis = sorted(by_levi, key=LeviDatum.sort_key)
    return f_all, levis, by_levi


def d_nonvanishing(rs: RootSystem, m: LeviDatum, l1: LeviDatum,
                   l2: LeviDatum) -> bool:
    """Whether a_M^{L1} + a_M^{L2} = a_M^G is a direct sum (Arthur's
    splitting condition d_M^G(L1, L2) != 0).

    Write r(X) for the rank of the root set X.  For M inside L, the
    complement of a_L in a_M is a_M n span(R_L), of dimension
    r(L) - r(M), and span(R_L1) + span(R_L2) is span(R_M) plus the sum of
    the two complements.  So the sum is direct and fills a_M^G (of
    dimension s - r(M), s the semisimple rank) exactly when
    r(L1) + r(L2) - r(M) = s and r(L1 u L2) = s.  The ranks come from the
    roots, not from a_M_dim, which a hand-built LeviDatum need not get
    right.
    """
    for l in (l1, l2):
        if l.system != rs or m.system != rs:
            raise DomainError("mismatched root systems")
        if not m.levi_roots <= l.levi_roots:
            raise DomainError("m must be contained in both Levis")
    s = rs.semisimple_rank
    r1 = _root_rank(rs, l1.levi_roots)
    r2 = _root_rank(rs, l2.levi_roots)
    return (r1 + r2 - _root_rank(rs, m.levi_roots) == s
            and _root_rank(rs, l1.levi_roots | l2.levi_roots) == s)


def count_contributing_tuples(rs: RootSystem, m: LeviDatum,
                              s_size: int) -> int:
    """Number of s_size-tuples over the Levi lattice of m in which at most
    dim-of-relative-center entries differ from m: a closed-form sum of at
    most d + 1 terms, d that dimension, whatever s_size is."""
    if s_size < 1:
        raise DomainError("s_size must be a positive integer")
    d = m.a_M_dim - rs.torus_rank
    _, levis, _ = f_sets(rs, m)
    n_l = len(levis)
    return sum(math.comb(s_size, j) * (n_l - 1) ** j
               for j in range(min(s_size, d) + 1))
