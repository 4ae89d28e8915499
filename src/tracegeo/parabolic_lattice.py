"""Closed parabolic subsets of a root system and their Levi bookkeeping.

A parabolic subgroup containing the maximal split torus is modeled by a
closed subset S of roots with S u -S = R; its Levi is the symmetric part
S n -S and its unipotent radical the antisymmetric part.  Everything here
is finite set combinatorics plus exact ranks of root sets, so all
dimensions and counts are exact.

Subsets are stored as root_datum's root masks (bit i set iff roots[i] is
a member), from the enumeration to the caller.  A subset holds its
system, its mask and the mask of its unipotent radical, and decodes
`members` and `member_roots` on every read; a Levi, shared by every
subset with its symmetric part, decodes `members` (`levi_roots`) and
`member_roots` once, on first access.
"""

from __future__ import annotations

import math
from array import array
from functools import cached_property
from itertools import compress
from typing import Iterable

from . import linalg
from .errors import DomainError, ResourceLimitError, _clip
from .root_datum import (_REVERSE, RootSystem, mask_flags, mask_indices,
                         mask_tables, negate_mask, permute_masks)
from .value import Value, set_field

PARABOLIC_COUNT_LIMIT = 2**16


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
    """A closed subset S of the roots with S u -S = R.

    radical is the mask of its unipotent radical N, the roots of S whose
    negatives are not in S.  The enumeration stores it with each subset;
    a subset built by hand computes it on first read.
    """

    @cached_property
    def radical(self) -> int:
        return self.mask & ~negate_mask(self.system, self.mask)


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
    """The Levi of a parabolic subset: its symmetric part S n -S, which
    is S without its radical.

    Records are shared per system: the first subset with a given
    symmetric part builds its LeviDatum and keeps it in the system's
    levi_memo, and every later one gets that same record back, so its
    a_M_dim and levi_roots are computed once.  F4's 5,089 subsets share
    268 records.
    """
    rs = p.system
    sym = p.mask ^ p.radical
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


def _radicals(rs: RootSystem, refusal: str) -> list[int]:
    """The radicals of the parabolic subsets of rs, walked as
    enumerate_parabolic_subsets describes.  The reflections' tables, the
    walk's largest allocation, are freed on return, before any subset is
    built."""
    n = len(rs.roots)
    simple = [rs.root_index[a] for a in rs.simple_roots]
    steps = []
    for i, perm in enumerate(rs.reflection_perms):
        ascent = 1 << simple[i]
        steps.append((mask_tables(perm), ascent, ascent | sum(
            1 << n - 1 - perm[a] for a in simple[:i])))
    found = [rs.positive_mask & ~span for span in rs.span_masks()]
    start = 0
    while start < len(found):
        level = found[start:]
        start = len(found)
        for tables, ascent, test in steps:
            parents = [r for r in level if r & test == ascent]
            if parents:
                if len(found) + len(parents) > PARABOLIC_COUNT_LIMIT:
                    raise ResourceLimitError(refusal)
                found += permute_masks(tables, parents)
    return found


def enumerate_parabolic_subsets(rs: RootSystem) -> list[ParabolicSubset]:
    """All closed subsets S with S u -S = R, as ParabolicSubset values
    that carry their radicals N = {a in S : -a not in S}.

    Each parabolic subset is w.P_J for exactly one standard P_J (the roots
    of the span of a simple-root subset J and all positive roots) and one
    minimal coset representative w in W^J, and its radical is w(N_J), N_J
    the positive roots outside the span of J.  The walk starts at each N_J
    and steps from N to s_i(N) along the ascents i (alpha_i in N), which
    are the steps from w to s_i.w inside W^J, one level (length of w) at a
    time.  A child is kept only when i is its smallest left descent, so
    each w is reached once; j is a descent of s_i.P when -s_i(alpha_j)
    lies in N, one bit test on the parent (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, 2.4).

    The roots are sorted, so -roots[i] = roots[n - 1 - i] and negation
    reverses a mask's n bits.  R minus S is -N, so S is the negation of ~N
    (on n bits), and read from bit n - 1 down, N says whether index 0,
    1, ... is missing from S; h(N) = N & (N + 1) clears N's trailing ones,
    the indices past max S.  Sorting by member index tuple is sorting by
    h(N) << n | ~N.  Let i be the least index in just one of S and T, say
    S, and b = n - 1 - i: N_S and N_T agree above bit b, where N_T has a
    one and N_S a zero.  If T has a member past i, S sorts first, and
    h(N_S) < h(N_T), as h(N_T) keeps bit b, h(N_S) does not, and both keep
    the bits above.  Otherwise T, a prefix of S, sorts first: h(N_T) has
    only bits of N_T above b, which h(N_S) keeps, so h(N_T) <= h(N_S), and
    at equality ~N_T < ~N_S.

    Packed in an array of 64-bit words whose bytes are swapped and then
    each reversed, the N read back as -N shifted up by 64 - n, and S is
    its complement; 1,024 at a time keep the buffers small.  No system
    within the limit has more than 64 roots; the most is 52, in B5xA1,
    C5xA1 and F4xA1xA1.

    More than PARABOLIC_COUNT_LIMIT subsets are refused before any is
    built.  Each step of the walk counts its children before it forms
    them, so it holds at most the limit's number of masks when it
    refuses.  At rank s >= 1 there are more than the 2^s seeds, so 2^s >=
    the limit refuses before seeding.
    """
    s = rs.semisimple_rank
    refusal = (f"parabolic enumeration is limited to {PARABOLIC_COUNT_LIMIT} "
               f"subsets; {rs} has more")
    if 1 << s >= PARABOLIC_COUNT_LIMIT:
        raise ResourceLimitError(refusal)
    n = len(rs.roots)
    full = (1 << n) - 1
    # Each list replaces the last, so no three are alive at once; a key's
    # low n bits are ~N.
    found = [(r & r + 1) << n | full ^ r for r in _radicals(rs, refusal)]
    found.sort()
    found = [full & ~key for key in found]
    shift = 64 - n
    subsets = []
    for i in range(0, len(found), 1024):
        words = array("Q", found[i:i + 1024])
        words.byteswap()
        subsets += [ParabolicSubset(rs, full ^ w >> shift) for w in memoryview(
            words.tobytes().translate(_REVERSE)).cast("Q")]
    for p, r in zip(subsets, found):
        set_field(p, "radical", r)
    return subsets


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
