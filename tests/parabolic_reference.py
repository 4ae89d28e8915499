"""The parabolic enumeration and Levi as they ran on the subset's mask
alone.

These are the routes `tracegeo.parabolic_lattice` ran before a subset
carried the mask of its unipotent radical: the coset walk tests and
permutes the mask of P itself, the masks are sorted by a string key that
orders them as their ascending member-index tuples sort, and the Levi of P
is the mask P n -P, with P negated on every call.  They read the root
system's tables and root_datum's mask helpers, so a test that compares the
library with them compares the walk, the order and the Levi alone.
"""

from __future__ import annotations

from tracegeo.errors import ResourceLimitError
from tracegeo.root_datum import (RootSystem, mask_tables, negate_mask,
                                 permute_masks)

_ORDER = str.maketrans("01", "10")


def order_key(mask: int) -> str:
    """A key that sorts masks as their ascending index tuples sort.

    Read from bit 0, a set bit sorts before a clear one, and a mask with
    no bits past the first difference sorts first, as a tuple does when
    it is a prefix of the other.
    """
    return bin(mask)[:1:-1].translate(_ORDER) if mask else ""


def walk(rs: RootSystem, limit: int) -> list[int]:
    """The mask of every parabolic subset of rs, in the order the walk
    appends them, the 2^s standard parabolics P_J first.

    From P the walk steps to s_i.P when -alpha_i is not in P and every
    s_i(alpha_j) with j < i is, which reaches each subset once.  It raises
    the library's ResourceLimitError as soon as more than limit masks
    exist, and before seeding when the 2^s seeds alone reach the limit.
    """
    refusal = (f"parabolic enumeration is limited to {limit} subsets; "
               f"{rs} has more")
    if 1 << rs.semisimple_rank >= limit:
        raise ResourceLimitError(refusal)
    last = len(rs.roots) - 1
    simple = [rs.root_index[a] for a in rs.simple_roots]
    steps = []
    for i, perm in enumerate(rs.reflection_perms):
        want = sum(1 << perm[a] for a in simple[:i])
        steps.append((mask_tables(perm), want | 1 << last - simple[i], want))
    found = [span | rs.positive_mask for span in rs.span_masks()]
    for mask in found:
        for tables, test, want in steps:
            if mask & test == want:
                found += permute_masks(tables, [mask])
        if len(found) > limit:
            raise ResourceLimitError(refusal)
    return found


def enumerate_masks(rs: RootSystem, limit: int) -> list[int]:
    """The walk's masks sorted by member index tuple."""
    return sorted(walk(rs, limit), key=order_key)


def levi_mask(rs: RootSystem, mask: int) -> int:
    """The symmetric part P n -P of the subset with the given mask."""
    return mask & negate_mask(rs, mask)
