"""End-to-end reproduction of every stated value and cross-check.

Each check pits a library computation against an independent oracle
(closed forms, brute-force scans, or known constants) and reports
expected versus actual.  The CLI `reproduce` subcommand drives this and
exits nonzero if anything disagrees.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from . import oracles
from .error_budget import (BudgetParams, QuadraticSurd, beta_max, exponents,
                           lambda_min)
from .invariants_k import (GroupSpec, RelativeDatum, k_by_pairs, k_min_orbit,
                           k_richardson)
from .local_data import RationalMatrix, weyl_discriminant
from .arithmetic import sl_index
from .mellin_fp import exp_preset, fp_mellin, sqrt_exp_preset
from .nilpotent_orbits import GLType, list_orbits, min_orbit_dim, orbit_dim
from .parabolic_lattice import (count_contributing_tuples, d_nonvanishing,
                                enumerate_parabolic_subsets, f_sets, levi_of,
                                minimal_levi, full_levi)
from .root_datum import SimpleType, build_root_system, dual_coxeter_number
from .value import Value


class CheckResult(Value):
    """One check's outcome; mutable, so unhashable."""

    _fields = ("name", "detail", "expected", "actual", "ok", "seconds")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, name: str, detail: str, expected: str, actual: str,
                 ok: bool, seconds: float):
        self.name = name
        self.detail = detail
        self.expected = expected
        self.actual = actual
        self.ok = ok
        self.seconds = seconds


def _all_simple_types() -> list[SimpleType]:
    """Every simple type of rank at most 8."""
    out = []
    for series, lo in (("A", 1), ("B", 1), ("C", 1), ("D", 2)):
        out.extend(SimpleType(series, r) for r in range(lo, 9))
    out.extend([SimpleType("E", 6), SimpleType("E", 7), SimpleType("E", 8),
                SimpleType("F", 4), SimpleType("G", 2)])
    return out


def _check_k_sl() -> tuple[bool, str, str, str]:
    expected = {n: n - 1 for n in range(2, 9)}
    actual = {}
    for n in range(2, 9):
        g = GroupSpec.build([SimpleType("A", n - 1)])
        values = {k_by_pairs(g), k_richardson(g), k_min_orbit(g)}
        actual[n] = values.pop() if len(values) == 1 else tuple(sorted(values))
    ok = actual == expected
    return ok, "three-route decay invariant of the special linear series", \
        str(expected), str(actual)


def _check_k_orthogonal() -> tuple[bool, str, str, str]:
    expected = {}
    actual = {}
    for n in (5, 7, 9):
        l = (n + 1) // 2
        expected[f"D{l}"] = n - 2
        g = GroupSpec.build([SimpleType("D", l)])
        pair, mo = k_by_pairs(g), k_min_orbit(g)
        actual[f"D{l}"] = pair if pair == mo else (pair, mo)
    rel = RelativeDatum(roots=((1,),), contributions=(2,))
    g31 = GroupSpec.build([SimpleType("D", 2)], relative=rel)
    expected["rank-one relative"] = 2
    actual["rank-one relative"] = k_richardson(g31)
    ok = actual == expected
    return ok, "orthogonal-type invariants, absolute and rational", \
        str(expected), str(actual)


def _check_k_restriction() -> tuple[bool, str, str, str]:
    expected = {n: n for n in range(1, 6)}
    actual = {}
    for n in range(1, 6):
        g = GroupSpec.build([SimpleType("A", 1)], restriction_degree=n)
        values = {k_by_pairs(g), k_richardson(g), k_min_orbit(g)}
        actual[n] = values.pop() if len(values) == 1 else tuple(sorted(values))
    ok = actual == expected
    return ok, "restriction of scalars scales the invariant by the degree", \
        str(expected), str(actual)


def _check_pairs_consistency() -> tuple[bool, str, str, str]:
    bad = []
    for t in _all_simple_types():
        g = GroupSpec.build([t])
        want = dual_coxeter_number(t) - 1
        got = k_by_pairs(g)
        if got != want:
            bad.append((str(t), want, got))
    return not bad, "pair enumeration equals the minimal-orbit value on " \
        "every simple type of rank <= 8", "no mismatches", \
        ("no mismatches" if not bad else str(bad))


def _check_f_partition() -> tuple[bool, str, str, str]:
    systems = [
        build_root_system([SimpleType("A", 1)]),
        build_root_system([SimpleType("A", 1), SimpleType("A", 1)]),
        build_root_system([SimpleType("A", 2)]),
        build_root_system([SimpleType("A", 3)]),
        build_root_system([SimpleType("B", 2)]),
    ]
    problems = []
    for rs in systems:
        f_all = enumerate_parabolic_subsets(rs)
        levis = {levi_of(p) for p in f_all}
        for m in levis:
            f, l_list, groups = f_sets(rs, m)
            total = sum(len(v) for v in groups.values())
            covered = {p for v in groups.values() for p in v}
            if total != len(f) or covered != set(f):
                problems.append((str(rs), "groups do not partition"))
            for levi, members in groups.items():
                if any(levi_of(p) != levi for p in members):
                    problems.append((str(rs), "group key mismatch"))
            if set(l_list) != set(groups):
                problems.append((str(rs), "levi list mismatch"))
    a2 = build_root_system([SimpleType("A", 2)])
    count = len(enumerate_parabolic_subsets(a2))
    brute = oracles.brute_force_parabolic_count(a2)
    if not (count == brute == 13):
        problems.append(("A2", f"count {count} vs brute {brute} vs 13"))
    return not problems, "parabolic families partition by Levi; A2 count " \
        "matches brute force", "partition holds, A2 count 13", \
        ("ok" if not problems else str(problems))


def _check_orbit_minima() -> tuple[bool, str, str, str]:
    bad = []
    for n in range(2, 9):
        dims = {orbit_dim(lab): lab for lab in list_orbits(GLType(n))}
        nontrivial = [d for d in dims if d > 0]
        if min(nontrivial) != 2 * n - 2:
            bad.append((f"gl{n}", "min", min(nontrivial)))
        if max(dims) != n * n - n:
            bad.append((f"gl{n}", "regular", max(dims)))
    for series, lo in (("B", 1), ("C", 1), ("D", 2)):
        for r in range(lo, 9):
            t = SimpleType(series, r)
            nontrivial = [orbit_dim(lab) for lab in list_orbits(t)
                          if orbit_dim(lab) > 0]
            if min(nontrivial) != min_orbit_dim(t):
                bad.append((str(t), min(nontrivial)))
    return not bad, "partition minima equal twice (dual Coxeter - 1)", \
        "all minima match", ("ok" if not bad else str(bad))


def _conjugated(diag: list[Fraction]) -> list[list[Fraction]]:
    """P D P^-1 for P = LU, L and U the unit triangular matrices of ones:
    P[i][k] = min(i, k) + 1, and P^-1 is -1 beside its diagonal, 2 on it
    but 1 at its end."""
    n = len(diag)
    inv = [[(i == j) * (2 - (j == n - 1)) - (abs(i - j) == 1)
            for j in range(n)] for i in range(n)]
    return [[sum((min(i, k) + 1) * inv[k][j] * diag[k] for k in range(n)
                 if inv[k][j]) for j in range(n)] for i in range(n)]


def _check_discriminant() -> tuple[bool, str, str, str]:
    rng = random.Random(7)
    bad = []
    for trial in range(104):
        n = rng.choice([2, 3, 4])
        diag = [Fraction(rng.choice([x for x in range(-9, 10) if x != 0]),
                         rng.randint(1, 9)) for _ in range(n)]
        if trial >= 100:
            # Repeated entries, so the centralizer is not a torus.
            diag[-1] = diag[0]
        rows = [[x if i == j else 0 for j in range(len(diag))]
                for i, x in enumerate(diag)]
        main = weyl_discriminant(
            RationalMatrix.from_rows(_conjugated(diag))).value
        prod = oracles.diagonal_discriminant(diag)
        comp = oracles.complement_determinant(rows)
        if not (main == prod == comp):
            bad.append((trial, diag, main, prod, comp))
    for n in (2, 3):
        ident = RationalMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)])
        res = weyl_discriminant(ident)
        if res.value != 1 or res.centralizer_dim != n * n:
            bad.append(("identity", n, res.value))
    return not bad, "resultant route on P D P^-1 (P = LU) equals " \
        "eigenvalue product and complement determinant of D on 104 random " \
        "diagonals D, 4 with a repeated entry", "exact agreement", \
        ("ok" if not bad else str(bad[:3]))


def _check_sl_index() -> tuple[bool, str, str, str]:
    bad = []
    for n in (2, 3):
        for N in range(2, 9):
            formula = sl_index(n, N)
            brute = oracles.sl_group_order(n, N)
            if formula != brute:
                bad.append((n, N, formula, brute))
    rng = random.Random(8)
    pairs = 0
    while pairs < 20:
        m, n_lvl = rng.randint(2, 40), rng.randint(2, 40)
        if math.gcd(m, n_lvl) != 1:
            continue
        pairs += 1
        size = rng.randint(2, 4)
        if sl_index(size, m * n_lvl) != sl_index(size, m) * sl_index(size, n_lvl):
            bad.append(("coprime", size, m, n_lvl))
    return not bad, "index formula equals brute-force group order; " \
        "multiplicative over coprime levels", "all equal", \
        ("ok" if not bad else str(bad))


def _check_mellin() -> tuple[bool, str, str, str]:
    bad = []
    for lam in (0.5, 1.0, 2.0, math.e):
        f, expn = exp_preset(lam)
        got = fp_mellin(f, expn)
        if abs(got - (-math.log(lam))) > 1e-8:
            bad.append(("exp", lam, got))
    f, expn = sqrt_exp_preset()
    got = fp_mellin(f, expn)
    if abs(got - (-2 * math.sqrt(math.pi))) > 1e-7:
        bad.append(("sqrt", got))
    base = None
    for t0 in (0.5, 1.0, 2.0):
        f, expn = exp_preset(2.0, t0=t0)
        got = fp_mellin(f, expn)
        if base is None:
            base = got
        elif abs(got - base) > 1e-7:
            bad.append(("split", t0, got, base))
    return not bad, "finite parts match closed forms and are split-point " \
        "independent", "-log(rate), -2 sqrt(pi)", \
        ("ok" if not bad else str(bad))


def _check_budget() -> tuple[bool, str, str, str]:
    bad = []
    golden = beta_max(1, 1, 1, 1)
    if abs(float(golden) - (math.sqrt(5) - 1) / 2) > 1e-12:
        bad.append(("golden", float(golden)))
    for c2, c4, cn, k in ((1, 1, 1, 1), (2, 1, 1, 1), (3, 2, 5, 7),
                          (Fraction(1, 2), 2, 1, Fraction(3, 4))):
        # C2 beta^2 + k beta - C4 Cn^2 = beta (e1 + k), so e1 = -k exactly
        # iff it vanishes.  For beta = a + b sqrt(d), written out in
        # Fractions here, that is C2 (a^2 + b^2 d) + k a - C4 Cn^2 = 0 and
        # b (2 C2 a + k) = 0.
        beta = beta_max(c2, c4, cn, k)
        a, b, d = (beta.a, beta.b, beta.d) \
            if isinstance(beta, QuadraticSurd) else (Fraction(beta), 0, 0)
        if c2 * (a * a + b * b * d) + k * a - c4 * cn * cn \
                or b * (2 * c2 * a + k):
            bad.append(("exact-e1", c2, c4, cn, k, str(beta)))
    rng = random.Random(10)
    for _ in range(100):
        c2 = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        c4 = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        cn = Fraction(rng.randint(1, 20), rng.randint(1, 6))
        k = Fraction(rng.randint(1, 30), rng.randint(1, 8))
        eps = Fraction(rng.randint(1, 49), 100)
        cp = Fraction(rng.randint(0, 20), 10)
        beta = beta_max(c2, c4, cn, k)
        lam = lambda_min(k, beta, eps, cp)
        report = exponents(BudgetParams(k=k, lam=lam, epsilon=eps, C2=c2,
                                        C4=c4, Cn=cn, c_prime=cp, beta=beta))
        if not report.all_ok:
            bad.append(("draw", c2, c4, cn, k, eps, cp))
    return not bad, "quadratic slope choice makes every exponent clear -k " \
        "exactly", "all draws feasible", ("ok" if not bad else str(bad[:3]))


def _check_tuples() -> tuple[bool, str, str, str]:
    bad = []
    for name in ("A2", "A3"):
        rs = build_root_system([SimpleType.parse(name)])
        m0 = minimal_levi(rs)
        d = m0.a_M_dim - rs.torus_rank
        _, levis, _ = f_sets(rs, m0)
        for s in range(1, 5):
            count = count_contributing_tuples(rs, m0, s)
            if count > s ** d * len(levis) ** d:
                bad.append((name, s, count))
    a2 = build_root_system([SimpleType("A", 2)])
    m0 = minimal_levi(a2)
    if count_contributing_tuples(a2, m0, 1) != 5:
        bad.append(("A2", "s=1"))
    if count_contributing_tuples(a2, m0, 2) != 25:
        bad.append(("A2", "s=2"))
    _, levis, _ = f_sets(a2, m0)
    g = full_levi(a2)
    for m in levis:
        bigger = [l for l in levis if m.levi_roots <= l.levi_roots]
        for l1 in bigger:
            for l2 in bigger:
                if d_nonvanishing(a2, m, l1, l2) != d_nonvanishing(a2, m, l2, l1):
                    bad.append(("symmetry", m.sort_key()))
        if not d_nonvanishing(a2, m, m, g):
            bad.append(("m-m-G", m.sort_key()))
    a3 = build_root_system([SimpleType("A", 3)])
    m0 = minimal_levi(a3)
    _, levis3, _ = f_sets(a3, m0)
    g3 = full_levi(a3)
    for l1 in levis3:
        if d_nonvanishing(a3, m0, l1, g3) != d_nonvanishing(a3, m0, g3, l1):
            bad.append(("A3 symmetry", l1.sort_key()))
    if not all(d_nonvanishing(a3, m, m, g3) for m in levis3):
        bad.append(("A3 m-m-G",))
    return not bad, "tuple counts respect the dimension bound; the " \
        "splitting predicate is symmetric and true on (m, m, G)", \
        "bounds and predicates hold", ("ok" if not bad else str(bad))


_CHECKS = [
    ("k_special_linear", _check_k_sl),
    ("k_orthogonal", _check_k_orthogonal),
    ("k_restriction", _check_k_restriction),
    ("k_pairs_consistency", _check_pairs_consistency),
    ("parabolic_partition", _check_f_partition),
    ("orbit_minima", _check_orbit_minima),
    ("weyl_discriminant", _check_discriminant),
    ("sl_index", _check_sl_index),
    ("mellin_finite_part", _check_mellin),
    ("budget_feasibility", _check_budget),
    ("tuple_bound", _check_tuples),
]


def run_reproduction() -> list[CheckResult]:
    results = []
    for name, fn in _CHECKS:
        start = time.monotonic()
        ok, detail, expected, actual = fn()
        results.append(CheckResult(name=name, detail=detail,
                                   expected=expected, actual=actual, ok=ok,
                                   seconds=time.monotonic() - start))
    return results
