"""Acceptance suite: one test per stated criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they print.  Every check here recomputes its expected values
through an independent route (closed forms, brute-force enumeration, or
the oracles module) rather than trusting library internals.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import sympy

from tracegeo import oracles
from tracegeo.arithmetic import sl_index
from tracegeo.error_budget import (BudgetParams, QuadraticSurd, beta_max,
                                   exponents, lambda_min)
from tracegeo.invariants_k import (GroupSpec, RelativeDatum, k_by_pairs,
                                   k_min_orbit, k_richardson)
from tracegeo.local_data import RationalMatrix, weyl_discriminant
from tracegeo.mellin_fp import exp_preset, fp_mellin, sqrt_exp_preset
from tracegeo.nilpotent_orbits import GLType, list_orbits, min_orbit_dim, orbit_dim
from tracegeo.parabolic_lattice import (count_contributing_tuples,
                                        d_nonvanishing,
                                        enumerate_parabolic_subsets, f_sets,
                                        full_levi, levi_of, minimal_levi)
from tracegeo.root_datum import (SimpleType, build_root_system,
                                 dual_coxeter_number)


def _sym(x):
    """A budget value in sympy, built from a surd's public a, b and d."""
    if isinstance(x, QuadraticSurd):
        return sympy.Rational(x.a) + sympy.Rational(x.b) * sympy.sqrt(x.d)
    return sympy.Rational(x)


@contextmanager
def criterion(num: int, desc: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {num:02d} [{status}] {desc}")


def all_simple_types(max_rank: int = 8):
    out = []
    for series, lo in (("A", 1), ("B", 1), ("C", 1), ("D", 2)):
        out.extend(SimpleType(series, r) for r in range(lo, max_rank + 1))
    out.extend([SimpleType("E", 6), SimpleType("E", 7), SimpleType("E", 8),
                SimpleType("F", 4), SimpleType("G", 2)])
    return out


def test_criterion_01_special_linear_three_routes():
    with criterion(1, "k of the special linear series, three routes, < 1 s"):
        start = time.monotonic()
        for n in range(2, 9):
            g = GroupSpec.build([SimpleType("A", n - 1)])
            assert k_by_pairs(g) == n - 1
            assert k_richardson(g) == n - 1
            assert k_min_orbit(g) == n - 1
        assert time.monotonic() - start < 1.0


def test_criterion_02_orthogonal_and_rank_one_relative():
    with criterion(2, "even-orthogonal invariants and the rank-one form"):
        for n in (5, 7, 9):
            g = GroupSpec.build([SimpleType("D", (n + 1) // 2)])
            assert k_by_pairs(g) == n - 2
            assert k_min_orbit(g) == n - 2
        rel = RelativeDatum(roots=((1,),), contributions=(2,))
        g31 = GroupSpec.build([SimpleType("D", 2)], relative=rel)
        assert k_richardson(g31) == 2


def test_criterion_03_restriction_of_scalars():
    with criterion(3, "restriction degree scales the rank-one invariant"):
        for n in range(1, 6):
            g = GroupSpec.build([SimpleType("A", 1)], restriction_degree=n)
            assert k_by_pairs(g) == n
            assert k_richardson(g) == n
            assert k_min_orbit(g) == n


def test_criterion_04_pairs_match_minimal_orbit():
    with criterion(4, "pair route equals dual Coxeter - 1, rank <= 8, < 10 s"):
        start = time.monotonic()
        for t in all_simple_types():
            g = GroupSpec.build([t])
            assert k_by_pairs(g) == dual_coxeter_number(t) - 1, str(t)
        assert time.monotonic() - start < 10.0


def test_criterion_05_parabolic_families_partition():
    with criterion(5, "families above a Levi partition by their own Levi"):
        systems = [
            build_root_system([SimpleType("A", 1)]),
            build_root_system([SimpleType("A", 1), SimpleType("A", 1)]),
            build_root_system([SimpleType("A", 2)]),
            build_root_system([SimpleType("A", 3)]),
            build_root_system([SimpleType("B", 2)]),
        ]
        for rs in systems:
            for m in {levi_of(p) for p in enumerate_parabolic_subsets(rs)}:
                f, l_list, groups = f_sets(rs, m)
                pieces = [set(v) for v in groups.values()]
                # disjointness
                assert sum(len(v) for v in pieces) == len(f)
                # coverage
                assert set().union(*pieces) == set(f)
                assert set(l_list) == set(groups)
                for levi, members in groups.items():
                    assert all(levi_of(p) == levi for p in members)
        a2 = build_root_system([SimpleType("A", 2)])
        count = len(enumerate_parabolic_subsets(a2))
        assert count == oracles.brute_force_parabolic_count(a2) == 13


def test_criterion_06_orbit_dimension_minima():
    with criterion(6, "orbit minima and regular dims from raw partitions"):
        for n in range(2, 9):
            dims = sorted(orbit_dim(lab) for lab in list_orbits(GLType(n)))
            assert dims[0] == 0
            assert dims[1] == 2 * n - 2
            assert dims[-1] == n * n - n
        for series, lo in (("B", 1), ("C", 1), ("D", 2)):
            for r in range(lo, 9):
                t = SimpleType(series, r)
                nontrivial = [orbit_dim(lab) for lab in list_orbits(t)
                              if orbit_dim(lab) > 0]
                assert min(nontrivial) == 2 * (dual_coxeter_number(t) - 1)
                assert min(nontrivial) == min_orbit_dim(t)


def test_criterion_07_discriminant_three_routes():
    with criterion(7, "discriminant routes agree on 100 random diagonals"):
        rng = random.Random(2026)
        for _ in range(100):
            n = rng.choice([2, 3, 4])
            diag = [Fraction(rng.choice([x for x in range(-9, 10) if x]),
                             rng.randint(1, 9)) for _ in range(n)]
            rows = [[diag[i] if i == j else Fraction(0) for j in range(n)]
                    for i in range(n)]
            main = weyl_discriminant(RationalMatrix.from_rows(rows)).value
            assert main == oracles.diagonal_discriminant(diag)
            assert main == oracles.complement_determinant(rows)
        for n in (2, 3, 4):
            ident = RationalMatrix.from_rows(
                [[1 if i == j else 0 for j in range(n)] for i in range(n)])
            assert weyl_discriminant(ident).value == 1


def test_criterion_08_congruence_indices():
    with criterion(8, "index formula vs brute group order; multiplicativity"):
        for n in (2, 3):
            for level in range(2, 9):
                assert sl_index(n, level) == oracles.sl_group_order(n, level)
        rng = random.Random(2027)
        done = 0
        while done < 20:
            m, nn = rng.randint(2, 40), rng.randint(2, 40)
            if math.gcd(m, nn) != 1:
                continue
            done += 1
            size = rng.randint(2, 4)
            assert sl_index(size, m * nn) == sl_index(size, m) * sl_index(size, nn)


def test_criterion_09_mellin_closed_forms():
    with criterion(9, "finite parts match closed forms, split-free, < 5 s"):
        start = time.monotonic()
        for lam in (0.5, 1.0, 2.0, math.e):
            f, expn = exp_preset(lam)
            assert abs(fp_mellin(f, expn) + math.log(lam)) < 1e-8
        f, expn = sqrt_exp_preset()
        assert abs(fp_mellin(f, expn) + 2 * math.sqrt(math.pi)) < 1e-7
        values = []
        for t0 in (0.5, 1.0, 2.0):
            f, expn = exp_preset(2.0, t0=t0)
            values.append(fp_mellin(f, expn))
        assert max(values) - min(values) < 1e-7
        assert time.monotonic() - start < 5.0


def test_criterion_10_budget_boundary():
    with criterion(10, "slope boundary is exact; 100 draws all feasible"):
        golden = beta_max(1, 1, 1, 1)
        assert abs(float(golden) - (math.sqrt(5) - 1) / 2) < 1e-12
        for c2, c4, cn, k in ((1, 1, 1, 1), (2, 3, 1, 5),
                              (Fraction(1, 2), 2, 1, Fraction(3, 4))):
            beta = _sym(beta_max(c2, c4, cn, k))
            e1 = sympy.simplify(-_sym(c4) * _sym(cn) ** 2 / beta
                                + _sym(c2) * beta)
            assert sympy.simplify(e1 + _sym(k)) == 0
        rng = random.Random(2028)
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
                                            C4=c4, Cn=cn, c_prime=cp,
                                            beta=beta))
            for e in (report.e_spec, report.e1, report.e2):
                assert sympy.simplify(_sym(e) + _sym(k)) <= 0
            assert report.all_ok


def test_criterion_11_tuple_bound():
    with criterion(11, "tuple counts within the dimension bound; predicate"):
        for name in ("A2", "A3"):
            rs = build_root_system([SimpleType.parse(name)])
            m0 = minimal_levi(rs)
            d = m0.a_M_dim - rs.torus_rank
            _, levis, _ = f_sets(rs, m0)
            g = full_levi(rs)
            for s in range(1, 5):
                count = count_contributing_tuples(rs, m0, s)
                brute = sum(
                    1 for tup in itertools.product(levis, repeat=s)
                    if sum(1 for l in tup if l != g) <= d)
                assert count == brute
                assert count <= s ** d * len(levis) ** d
            # splitting predicate: symmetric, and (m, m, G) always true
            for m in levis:
                bigger = [l for l in levis if m.levi_roots <= l.levi_roots]
                for l1, l2 in itertools.combinations(bigger, 2):
                    assert d_nonvanishing(rs, m, l1, l2) == \
                        d_nonvanishing(rs, m, l2, l1)
                assert d_nonvanishing(rs, m, m, g)


def test_criterion_12_reproduction_suite():
    with criterion(12, "end-to-end reproduction exits 0 in under 60 s"):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "tracegeo", "reproduce"],
                              capture_output=True, text=True, timeout=120)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all checks passed" in proc.stdout
        assert elapsed < 60.0
