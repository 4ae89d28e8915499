"""Independent expectations for every benchmark operation.

Nothing here imports tracegeo.  Root-system facts come from frozen tables
(dual Coxeter numbers, positive-root counts) and from Cartan matrices
built from Dynkin data, with roots generated by the root-string algorithm
and Weyl orbits enumerated in fundamental-weight coordinates.  Arithmetic
facts come from the factorizations the benchmark itself chose, and
numerical values from closed forms or stdlib decimal arithmetic.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

DUAL_COXETER = {"E6": 12, "E7": 18, "E8": 30, "F4": 9, "G2": 4}


def dual_coxeter(name: str) -> int:
    if name in DUAL_COXETER:
        return DUAL_COXETER[name]
    series, rank = name[0], int(name[1:])
    if series == "B":
        return 2 if rank == 1 else 2 * rank - 1
    if series == "D":
        return 2 * rank - 2
    return rank + 1  # A and C


def positive_root_count(name: str) -> int:
    series, l = name[0], int(name[1:])
    return {"A": l * (l + 1) // 2, "B": l * l, "C": l * l,
            "D": l * (l - 1), "E": {6: 36, 7: 63, 8: 120}.get(l, 0),
            "F": 24, "G": 6}[series]


# -- Cartan data --------------------------------------------------------------


def _gram(name: str) -> list[list[Fraction]]:
    """Inner products of the simple roots, Bourbaki numbering."""
    series, l = name[0], int(name[1:])
    lengths = [Fraction(2)] * l
    edges: dict[tuple[int, int], Fraction] = {}
    half = Fraction(-1, 2)
    if series == "A" or (series in "BC" and l == 1):
        edges = {(i, i + 1): Fraction(-1) for i in range(l - 1)}
    elif series == "B":
        lengths[-1] = Fraction(1)
        edges = {(i, i + 1): Fraction(-1) for i in range(l - 1)}
    elif series == "C":
        lengths = [Fraction(1)] * (l - 1) + [Fraction(2)]
        edges = {(i, i + 1): half for i in range(l - 2)}
        edges[(l - 2, l - 1)] = Fraction(-1)
    elif series == "D":
        edges = {(i, i + 1): Fraction(-1) for i in range(l - 2)}
        if l >= 3:
            edges[(l - 3, l - 1)] = Fraction(-1)
    elif series == "E":
        edges = {(0, 2): Fraction(-1), (1, 3): Fraction(-1)}
        edges.update({(i, i + 1): Fraction(-1) for i in range(2, l - 1)})
    elif series == "F":
        lengths = [Fraction(2), Fraction(2), Fraction(1), Fraction(1)]
        edges = {(0, 1): Fraction(-1), (1, 2): Fraction(-1), (2, 3): half}
    else:  # G2: short root first
        lengths = [Fraction(1), Fraction(3)]
        edges = {(0, 1): Fraction(-3, 2)}
    g = [[Fraction(0)] * l for _ in range(l)]
    for i in range(l):
        g[i][i] = lengths[i]
    for (i, j), v in edges.items():
        g[i][j] = g[j][i] = v
    return g


def _cartan(gram: list[list[Fraction]]) -> list[list[int]]:
    """cartan[i][j] = <alpha_j, alpha_i coroot>."""
    n = len(gram)
    return [[int(2 * gram[i][j] / gram[i][i]) for j in range(n)]
            for i in range(n)]


def _positive_roots(cartan: list[list[int]]) -> set[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, by root strings."""
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                down = list(beta)
                p = 0
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                pairing = sum(c * cartan[i][j] for j, c in enumerate(beta))
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    up = tuple(up)
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        layer = nxt
    return roots


def _sub(matrix: list[list[int]], keep: list[int]) -> list[list[int]]:
    return [[matrix[i][j] for j in keep] for i in keep]


@lru_cache(maxsize=None)
def richardson_dim(name: str) -> int:
    """Minimal unipotent-radical dimension over proper parabolics of a
    simple type; the minimum sits at a maximal parabolic."""
    cartan = _cartan(_gram(name))
    total = len(_positive_roots(cartan))
    assert total == positive_root_count(name), name
    n = len(cartan)
    return min(total - len(_positive_roots(
        _sub(cartan, [j for j in range(n) if j != i]))) for i in range(n))


def _orbit_size(cartan: list[list[int]], weight: tuple[int, ...]) -> int:
    seen = {weight}
    frontier = [weight]
    n = len(cartan)
    while frontier:
        lam = frontier.pop()
        for i in range(n):
            if lam[i] == 0:
                continue
            img = tuple(lam[j] - lam[i] * cartan[i][j] for j in range(n))
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return len(seen)


@lru_cache(maxsize=None)
def parabolic_count(name: str) -> int:
    """Closed subsets S with S u -S = R: sum over J of [W : W_J], each
    index the Weyl orbit size of sum of the fundamental weights off J."""
    cartan = _cartan(_gram(name))
    n = len(cartan)
    return sum(_orbit_size(cartan, tuple(int(not mask >> i & 1)
                                         for i in range(n)))
               for mask in range(1 << n))


# -- group specs --------------------------------------------------------------


def rank(factors: list[str]) -> int:
    return sum(int(f[1:]) for f in factors)


def k_report(factors: list[str], degree: int = 1,
             rank_limit: int = 8) -> dict:
    """The full k_report dict the library should return."""
    k = degree * min(dual_coxeter(f) - 1 for f in factors)
    guarded = rank(factors) > rank_limit
    rich = None if guarded else degree * min(richardson_dim(f)
                                             for f in factors)
    report = {"minorbit": k, "pairs": None if guarded else k,
              "richardson_absolute": rich, "richardson_relative": None}
    values = {v for v in report.values() if v is not None}
    report["agreement"] = len(values) == 1
    return report


def root_count(factors: list[str]) -> int:
    return sum(2 * positive_root_count(f) for f in factors)


# -- orbits -------------------------------------------------------------------


def partition_count(n: int) -> int:
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def orbit_dims_ok(name: str, dims: list[int]) -> str | None:
    """None when the orbit dimensions of a classical type (or gl<n>) have
    the right extremes; else a reason."""
    if name.startswith("gl"):
        n = int(name[2:])
        lo, hi, count = 2 * n - 2, n * n - n, partition_count(n)
    else:
        lo = 2 * (dual_coxeter(name) - 1)
        hi = 2 * positive_root_count(name)
        count = partition_count(int(name[1:]) + 1) if name[0] == "A" else None
    nonzero = [d for d in dims if d]
    if any(d % 2 for d in dims) or 0 not in dims:
        return f"dims {sorted(set(dims))} not even or missing 0"
    if min(nonzero) != lo or max(dims) != hi:
        return f"min/max {min(nonzero)}/{max(dims)}, want {lo}/{hi}"
    if count is not None and len(dims) != count:
        return f"{len(dims)} orbits, want {count}"
    return None


# -- discriminants and levels -------------------------------------------------


def diagonal_discriminant(diag: list[Fraction]) -> tuple[Fraction, int]:
    """(prod over x != y of (1 - x/y), sum of squared multiplicities)."""
    value = Fraction(1)
    for x in diag:
        for y in diag:
            if x != y:
                value *= 1 - x / y
    mult: dict[Fraction, int] = {}
    for x in diag:
        mult[x] = mult.get(x, 0) + 1
    return value, sum(m * m for m in mult.values())


def sl_order(n: int, factorization: dict[int, int]) -> int:
    """|SL(n, Z/N)| from the prime factorization of N."""
    total = 1
    for p, e in factorization.items():
        fp = p ** (n * (n - 1) // 2)
        for k in range(2, n + 1):
            fp *= p ** k - 1
        total *= p ** ((e - 1) * (n * n - 1)) * fp
    return total


# -- budget and Mellin --------------------------------------------------------


def beta_reference(c2, c4, cn, k) -> float:
    """Positive root of C2 b^2 + k b - C4 Cn^2 = 0 in 60-digit decimals,
    via the cancellation-free form 2 C4 Cn^2 / (k + sqrt(disc))."""
    with localcontext() as ctx:
        ctx.prec = 60
        c2d, c4d, cnd, kd = (Decimal(Fraction(x).numerator)
                             / Decimal(Fraction(x).denominator)
                             for x in (c2, c4, cn, k))
        top = 2 * c4d * cnd * cnd
        return float(top / (kd + (kd * kd + 2 * c2d * top).sqrt()))


def beta_square(k: Fraction, c2: Fraction, beta: Fraction, cn: Fraction):
    """C4 for which beta is the exact (rational) budget slope."""
    return (c2 * beta * beta + k * beta) / (cn * cn)


SQRT_FINITE_PART = -2 * math.sqrt(math.pi)
