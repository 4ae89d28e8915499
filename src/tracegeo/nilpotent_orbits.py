"""Nilpotent orbit labels and dimensions for classical Lie algebras.

Orbits of classical type are labeled by partitions with the usual parity
constraints; dimensions come from the transpose-partition formulas.
Exceptional types only expose the minimal nontrivial orbit dimension,
which is 2(h_dual - 1) in every type.
"""

from __future__ import annotations

from typing import Iterator

from .errors import DomainError, ResourceLimitError
from .root_datum import SimpleType, dual_coxeter_number
from .value import Value, set_field

RANK_LIMIT = 20


class GLType(Value):
    """Marker for gl(n), the general linear Lie algebra."""

    _fields = ("n",)

    def __init__(self, n: int):
        set_field(self, "n", n)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise DomainError("gl size must be a positive integer")

    def __str__(self) -> str:
        return f"gl{self.n}"


class OrbitLabel(Value):
    """A partition labeling orbits of attached_type."""

    _fields = ("attached_type", "partition")

    def __init__(self, attached_type: SimpleType | GLType,
                 partition: tuple[int, ...]):
        set_field(self, "attached_type", attached_type)
        set_field(self, "partition", partition)
        if not partition or any(x < 1 for x in partition) or \
                list(partition) != sorted(partition, reverse=True):
            raise DomainError("partition must be a decreasing list of "
                              "positive integers")
        _validate_parity(attached_type, partition)

    @property
    def very_even(self) -> bool:
        return isinstance(self.attached_type, SimpleType) and \
            self.attached_type.series == "D" and \
            all(x % 2 == 0 for x in self.partition)

    def __str__(self) -> str:
        body = ",".join(str(x) for x in self.partition)
        star = "*" if self.very_even else ""
        return f"({body}){star}"


def _partition_target(t: SimpleType | GLType) -> int:
    """The partition size: n, r + 1, 2r + 1, 2r, 2r for gl(n), A_r-D_r."""
    if isinstance(t, GLType):
        return t.n
    if t.series == "A":
        return t.rank + 1
    return 2 * t.rank + (t.series == "B")


def _paired_parity(t: SimpleType | GLType) -> int | None:
    """The parity whose parts come in pairs: 0 in types B and D, 1 in C."""
    if isinstance(t, GLType) or t.series == "A":
        return None
    return 1 if t.series == "C" else 0


def _parity_ok(t: SimpleType | GLType, lam: tuple[int, ...]) -> bool:
    """Whether each part of t's paired parity has even multiplicity in lam."""
    paired = _paired_parity(t)
    return all(lam.count(x) % 2 == 0 for x in set(lam) if x % 2 == paired)


def _validate_parity(t: SimpleType | GLType, lam: tuple[int, ...]) -> None:
    if isinstance(t, SimpleType) and t.series not in "ABCD":
        raise DomainError(
            f"no partition labels for exceptional type {t}; "
            "use min_orbit_dim for its minimal orbit dimension")
    if sum(lam) != _partition_target(t):
        raise DomainError(f"partition {lam} has the wrong size for {t}")
    if not _parity_ok(t, lam):
        parts = "odd" if t.series == "C" else "even"
        raise DomainError(f"{parts} parts of {lam} must have even "
                          f"multiplicity in type {t.series}")


def _admissible(rem: int, cap: int, paired: int | None,
                prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """prefix extended by each partition of rem into parts <= cap in which
    the parts of the paired parity come in pairs, in decreasing
    lexicographic order: the largest part first, each multiplicity largest
    first (in steps of 2 when paired), and the rest in 1s, so no branch
    ends empty.  rem is even when 1 is paired, as in type C's 2n."""
    for q in range(min(cap, rem), 1, -1):
        step = 2 if q % 2 == paired else 1
        for m in range(rem // q // step * step, 0, -step):
            lam, r = prefix + (q,) * m, rem - q * m
            if r:
                yield from _admissible(r, q - 1, paired, lam)
            else:
                yield lam
    if rem:
        yield prefix + (1,) * rem


def list_orbits(t: SimpleType | GLType) -> list[OrbitLabel]:
    """All orbit labels for a classical type, largest partition first.

    The admissible partitions are generated directly, not filtered from
    every partition.  Very even labels of type D (all parts even) stand for
    two orbits of equal dimension and are emitted once, flagged.
    """
    if isinstance(t, SimpleType) and t.series not in "ABCD":
        raise DomainError(
            f"orbit enumeration supports classical types only, not {t}; "
            "use min_orbit_dim for its minimal orbit dimension")
    size = t.n if isinstance(t, GLType) else t.rank
    if size > RANK_LIMIT:
        raise ResourceLimitError(
            f"orbit enumeration is limited to rank {RANK_LIMIT}; got {size}")
    n = _partition_target(t)
    labels = []
    for lam in _admissible(n, n, _paired_parity(t)):
        # lam meets the size and parity rules by construction, so
        # OrbitLabel's checks would only repeat these.
        label = object.__new__(OrbitLabel)
        set_field(label, "attached_type", t)
        set_field(label, "partition", lam)
        labels.append(label)
    return labels


def orbit_dim(label: OrbitLabel) -> int:
    """Dimension of the orbit; always even, zero only for the trivial one.

    The formulas read the squares of the transpose partition's parts, and
    sum_j (lambda'_j)^2 = sum_i (2i - 1) lambda_i (Macdonald, Symmetric
    Functions and Hall Polynomials, I (1.6)): one pass over the parts.
    """
    t = label.attached_type
    lam = label.partition
    n = _partition_target(t)
    sq = sum((2 * i - 1) * x for i, x in enumerate(lam, 1))
    if isinstance(t, GLType) or t.series == "A":
        dim = n * n - sq
    else:
        # (n^2 - n - sq + odd) / 2 in B and D, (n^2 + n - sq - odd) / 2 in C
        odd = sum(1 for x in lam if x % 2 == 1)
        dim = (n * n - sq + (1 if t.series == "C" else -1) * (n - odd)) // 2
    assert dim % 2 == 0 and dim >= 0
    return dim


def min_orbit_dim(t: SimpleType) -> int:
    """Dimension of the minimal nontrivial orbit: 2(h_dual - 1).

    For classical types this equals the minimum of orbit_dim over the
    nontrivial partition labels, which the test suite checks by
    enumeration.
    """
    return 2 * (dual_coxeter_number(t) - 1)

