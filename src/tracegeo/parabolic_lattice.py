"""Closed parabolic subsets of a root system and their Levi bookkeeping.

A parabolic subgroup containing the maximal split torus is modeled by a
closed subset S of roots with S u -S = R; its Levi is the symmetric part
S n -S and its unipotent radical the antisymmetric part.  Everything here
is finite set combinatorics plus exact ranks of root sets, so all
dimensions and counts are exact.

Subsets are stored as root_datum's root masks (bit i set iff roots[i] is
a member), from the enumeration to the caller.  A subset holds only its
system and mask and decodes `members` and `member_roots` on every read;
a Levi, shared by every subset with its symmetric part, decodes
`members` (`levi_roots`) and `member_roots` once, on first access.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress
from typing import Iterable

from . import linalg
from .errors import DomainError, ResourceLimitError, _clip
from .root_datum import (RootSystem, mask_flags, mask_indices, mask_tables,
                         negate_mask, permute_mask)
from .value import Value, set_field

PARABOLIC_COUNT_LIMIT = 2**16

_ORDER = str.maketrans("01", "10")


def _order_key(mask: int) -> str:
    """A key that sorts masks as their ascending index tuples sort.

    Read from bit 0, a set bit sorts before a clear one, and a mask with
    no bits past the first difference sorts first, as a tuple does when
    it is a prefix of the other.
    """
    return bin(mask)[:1:-1].translate(_ORDER) if mask else ""


class _RootMask(Value):
    """A set of roots of system: bit i of mask is set iff roots[i] is a
    member."""

    _fields = ("system", "mask")

    def __init__(self, system: RootSystem, mask: int):
        set_field(self, "system", system)
        set_field(self, "mask", mask)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(mask_indices(self.mask))

    @property
    def member_roots(self) -> tuple[tuple[int, ...], ...]:
        # roots are stored sorted, so ascending index is ascending root.
        return tuple(compress(self.system.roots, mask_flags(self.mask)))

    def sort_key(self) -> tuple[int, ...]:
        return tuple(mask_indices(self.mask))


class ParabolicSubset(_RootMask):
    """A closed subset S of the roots with S u -S = R."""


class LeviDatum(_RootMask):
    """Symmetric part of a parabolic subset.

    a_M_dim is the dimension of the central split torus of the Levi:
    (rank of the root span + central torus rank) minus the rank of the
    Levi's own roots, computed on first read.  levi_roots is another name
    for members.  levi_of shares one record per symmetric part, so a Levi
    keeps what it decodes, where a subset decodes on every read.
    """

    members = cached_property(_RootMask.members.fget)
    member_roots = cached_property(_RootMask.member_roots.fget)

    @cached_property
    def a_M_dim(self) -> int:
        return self.system.group_dim - _root_rank(self.system, self.mask)

    @property
    def levi_roots(self) -> frozenset[int]:
        return self.members


def _rank(rs: RootSystem, mask: int) -> int:
    """Rank of a mask of positive roots."""
    coords = rs.simple_coords
    return linalg.rank([coords[i] for i in mask_indices(mask)])


def _root_rank(rs: RootSystem, mask: int) -> int:
    # +-alpha span the same line, so the positive root of each pair
    # meeting mask spans what mask does.
    return _rank(rs, (mask | negate_mask(rs, mask)) & rs.positive_mask)


def _check_levi(rs: RootSystem, mask: int) -> None:
    """Raise unless mask passes make_levi's checks."""
    if negate_mask(rs, mask) != mask:
        raise DomainError("levi roots must be closed under negation")
    pos = mask & rs.positive_mask
    r = _rank(rs, pos)
    for j in mask_indices(rs.positive_mask & ~mask):
        if _rank(rs, pos | 1 << j) == r:
            raise DomainError("levi roots must contain every root in "
                              "their span")


def make_levi(rs: RootSystem, root_indices: Iterable[int]) -> LeviDatum:
    """Validate a root subset as a Levi.

    The subset must be closed under negation and saturated in its span
    (every root lying in the rational span of the subset belongs to it).
    """
    mask = 0
    for i in root_indices:
        if isinstance(i, bool) or not isinstance(i, int):
            raise DomainError("root indices must be integers, got "
                              f"{_clip(repr(i))}")
        if i < 0 or i >= len(rs.roots):
            raise DomainError(f"root index {i} out of range")
        mask |= 1 << i
    _check_levi(rs, mask)
    return LeviDatum(rs, mask)


def minimal_levi(rs: RootSystem) -> LeviDatum:
    return LeviDatum(rs, 0)


def full_levi(rs: RootSystem) -> LeviDatum:
    return LeviDatum(rs, (1 << len(rs.roots)) - 1)


def levi_of(p: ParabolicSubset) -> LeviDatum:
    """The Levi of a parabolic subset: its symmetric part S n -S.

    Records are shared per system: the first subset with a given
    symmetric part builds its LeviDatum and keeps it in the system's
    levi_memo, and every later one gets that same record back, so its
    a_M_dim and levi_roots are computed once.  F4's 5,089 subsets share
    268 records.
    """
    rs = p.system
    sym = p.mask & negate_mask(rs, p.mask)
    memo = rs.levi_memo
    levi = memo.get(sym)
    if levi is None:
        levi = memo[sym] = LeviDatum(rs, sym)
    return levi


def dim_unipotent_radical(p: ParabolicSubset) -> int:
    """dim V = |R| - |S|, the number of roots of S whose negatives are not
    in S.

    For S u -S = R, every root lies in S or -S, so |S n -S| = 2|S| - |R|
    and the radical S minus S n -S has |R| - |S| roots.  Every subset the
    enumeration returns satisfies this; a hand-built mask that does not
    gets |R| - |S| all the same.  A mask with bits past the roots is
    refused.
    """
    n = len(p.system.roots)
    if p.mask >> n:
        raise DomainError("root index out of range")
    return n - p.mask.bit_count()


def enumerate_parabolic_subsets(rs: RootSystem) -> list[ParabolicSubset]:
    """All closed subsets S with S u -S = R, as ParabolicSubset values.

    Each parabolic subset is w.P_J for exactly one standard P_J (the roots
    of the span of a simple-root subset J together with all positive
    roots) and one minimal coset representative w in W^J.  The walk starts
    at each P_J and steps from P to s_i.P along the ascents i of P
    (alpha_i in P, -alpha_i not), which are the steps from w to s_i.w
    inside W^J.  A child is kept only when i is its smallest left descent,
    so each w is reached from one parent.  j is a descent of s_i.P when
    -s_i(alpha_j) lies in the radical of P (the roots of P whose negatives
    are not in P), so one bit test on the parent decides before the child
    is built (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4).

    Every mask the walk holds has P u -P = R, so a root lies in the
    radical exactly when its negative is not in P, and both tests read P's
    own bits: i is an ascent when the bit of -alpha_i is clear, and j is
    not a descent of s_i.P when the bit of s_i(alpha_j) is set.  Per step,
    want holds the bits of s_i(alpha_j) for j < i and test adds the bit of
    -alpha_i; the child is kept iff mask & test == want.  No mask is
    negated.

    The result is sorted by member index tuple.  The walk stops as soon
    as more than PARABOLIC_COUNT_LIMIT masks exist, before any subset is
    built; at rank s >= 1 there are more than the 2^s seeds, so 2^s >= the
    limit refuses before seeding.
    """
    s = rs.semisimple_rank
    refusal = (f"parabolic enumeration is limited to {PARABOLIC_COUNT_LIMIT} "
               f"subsets; {rs} has more")
    if 1 << s >= PARABOLIC_COUNT_LIMIT:
        raise ResourceLimitError(refusal)
    last = len(rs.roots) - 1
    simple = [rs.root_index[a] for a in rs.simple_roots]
    steps = []
    for i, perm in enumerate(rs.reflection_perms):
        want = sum(1 << perm[a] for a in simple[:i])
        steps.append((mask_tables(perm), want | 1 << last - simple[i], want))
    found = [span | rs.positive_mask for span in rs.span_masks()]
    # found is also the queue: the loop reaches every mask appended to it.
    for mask in found:
        for tables, test, want in steps:
            if mask & test == want:
                found.append(permute_mask(tables, mask))
        if len(found) > PARABOLIC_COUNT_LIMIT:
            raise ResourceLimitError(refusal)
    return [ParabolicSubset(rs, m) for m in sorted(found, key=_order_key)]


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
    _check_levi(rs, m.mask)
    f_all = [p for p in enumerate_parabolic_subsets(rs)
             if not m.mask & ~p.mask]
    by_levi: dict[LeviDatum, list[ParabolicSubset]] = {}
    for p in f_all:
        by_levi.setdefault(levi_of(p), []).append(p)
    levis = sorted(by_levi, key=lambda l: _order_key(l.mask))
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
    r(L1) + r(L2) - r(M) = s and r(L1 u L2) = s.
    """
    for l in (l1, l2):
        if l.system != rs or m.system != rs:
            raise DomainError("mismatched root systems")
        if m.mask & ~l.mask:
            raise DomainError("m must be contained in both Levis")
    s = rs.semisimple_rank
    r1 = _root_rank(rs, l1.mask)
    r2 = _root_rank(rs, l2.mask)
    return (r1 + r2 - _root_rank(rs, m.mask) == s
            and _root_rank(rs, l1.mask | l2.mask) == s)


def count_contributing_tuples(rs: RootSystem, m: LeviDatum,
                              s_size: int) -> int:
    """Number of s_size-tuples over the Levi lattice of m in which at most
    dim-of-relative-center entries differ from m: a closed-form sum of at
    most d + 1 terms, d that dimension, whatever s_size is."""
    if isinstance(s_size, bool) or not isinstance(s_size, int) \
            or s_size < 1:
        raise DomainError("s_size must be a positive integer, got "
                          f"{_clip(repr(s_size))}")
    d = m.a_M_dim - rs.torus_rank
    _, levis, _ = f_sets(rs, m)
    n_l = len(levis)
    return sum(math.comb(s_size, j) * (n_l - 1) ** j
               for j in range(min(s_size, d) + 1))
