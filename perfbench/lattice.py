"""The `lattice` workload: root data, k reports, orbits and parabolic
lattices on fresh root systems.

Every simple type of rank <= 8 is built and reported, beside a few
products, so per-call overhead on many small systems and the high-rank
scaling of the E types and rank-8 classical types both show.  The seed
picks the restriction degrees, two gl sizes, the split of a rank-9
product and the Levi pair given to d_nonvanishing.  The order is fixed,
so the library's lazy caches fill at the same operations on every seed.
"""

from __future__ import annotations

import math
import random

from tracegeo import GroupSpec, build_root_system, k_report
from tracegeo import (count_contributing_tuples, d_nonvanishing,
                      dim_unipotent_radical, enumerate_parabolic_subsets,
                      f_sets, full_levi, levi_of, list_orbits, minimal_levi,
                      orbit_dim)
from tracegeo import GLType, SimpleType
from tracegeo import oracles

import expect
from ops import Op

SIMPLE = ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(1, 9)]
          + [f"C{r}" for r in range(1, 9)] + [f"D{r}" for r in range(2, 9)]
          + ["E6", "E7", "E8", "F4", "G2"])
CLASSICAL = [t for t in SIMPLE if t[0] in "ABCD"]
FIXED_PRODUCTS = [(["A2", "B3"], 0), (["G2", "F4"], 0), (["D4", "A1"], 1),
                  (["E6", "A2"], 0)]
# Levis containing the maximal torus: Bell numbers for type A, and the
# torus, the group and one rank-one Levi per positive root for B2.
LEVI_COUNTS = {"A2": 5, "A3": 15, "B2": 6}


def _render(factors: list[str], torus: int) -> str:
    return "x".join(factors) + (f"+T{torus}" if torus else "")


def _build_op(spec: str, factors: list[str], torus: int,
              systems: dict) -> Op:
    def run(tr):
        rs = tr.call("root_datum.build_root_system", build_root_system,
                     factors, torus)
        for prop in ("simple_coords", "is_positive", "reflection_perms"):
            tr.call(f"root_datum.{prop}", getattr, rs, prop)
        tr.count("root_datum.roots", len(rs.roots))
        systems[spec] = rs
        return rs

    def check(rs):
        n = expect.root_count(factors)
        if len(rs.roots) != n or sum(rs.is_positive) != n // 2:
            return f"{len(rs.roots)} roots, {sum(rs.is_positive)} positive"
        for perm in rs.reflection_perms:
            if sorted(perm) != list(range(n)) or \
                    any(perm[perm[i]] != i for i in range(n)):
                return "a simple reflection is not an involution of R"
        return None

    return Op(f"build[{spec}]", "lattice.build", "root_datum", run, check)


def _k_op(spec: str, factors: list[str], degree: int, systems: dict) -> Op:
    def run(tr):
        g = tr.call("invariants_k.GroupSpec", GroupSpec, systems[spec],
                    degree)
        report = tr.call("invariants_k.k_report", k_report, g)
        tr.count("invariants_k.routes_null", sum(
            report[r] is None for r in ("pairs", "richardson_absolute")))
        tr.count("invariants_k.disagree", not report["agreement"])
        return report

    want = expect.k_report(factors, degree)

    def check(report):
        return None if report == want else f"got {report}, want {want}"

    return Op(f"k_report[{spec}@res={degree}]", "lattice.k_report",
              "invariants_k", run, check)


def _orbit_ops(name: str) -> list[Op]:
    t = GLType(int(name[2:])) if name.startswith("gl") \
        else SimpleType.parse(name)
    state: dict = {}

    def run_list(tr):
        state["labels"] = tr.call("nilpotent_orbits.list_orbits",
                                  list_orbits, t)
        tr.count("nilpotent_orbits.orbits", len(state["labels"]))
        return state["labels"]

    def run_dims(tr):
        return tr.call("nilpotent_orbits.orbit_dim",
                       lambda: [orbit_dim(lab) for lab in state["labels"]])

    return [Op(f"list_orbits[{name}]", "lattice.list_orbits",
               "nilpotent_orbits", run_list,
               lambda labels: None if labels else "no orbit labels"),
            Op(f"orbit_dims[{name}]", "lattice.orbit_dims",
               "nilpotent_orbits", run_dims,
               lambda dims: expect.orbit_dims_ok(name, dims))]


def _parabolic_op(spec: str, factors: list[str], systems: dict) -> Op:
    def run(tr):
        rs = systems[spec]
        subsets = tr.call("parabolic_lattice.enumerate_parabolic_subsets",
                          enumerate_parabolic_subsets, rs)
        levis = tr.call("parabolic_lattice.levi_of",
                        lambda: [levi_of(p) for p in subsets])
        dims = tr.call("parabolic_lattice.dim_unipotent_radical",
                       lambda: [dim_unipotent_radical(p) for p in subsets])
        tr.count("parabolic_lattice.subsets", len(subsets))
        return subsets, levis, dims

    want = 1
    for f in factors:
        want *= expect.parabolic_count(f)
    n_roots = expect.root_count(factors)

    def check(result):
        subsets, levis, dims = result
        if len(subsets) != want:
            return f"{len(subsets)} parabolic subsets, want {want}"
        for p, levi, dim_v in zip(subsets, levis, dims):
            if not levi.levi_roots <= p.members or \
                    len(p.members) != len(levi.levi_roots) + dim_v or \
                    n_roots != len(levi.levi_roots) + 2 * dim_v:
                return f"levi/radical sizes inconsistent for {p.sort_key()}"
        return None

    return Op(f"parabolics[{spec}]", "lattice.parabolics",
              "parabolic_lattice", run, check)


def _tuple_ops(name: str, sizes: list[int], rng: random.Random,
               systems: dict) -> list[Op]:
    rank = int(name[1:])
    state: dict = {}

    def run_f(tr):
        rs = systems[name]
        m0 = tr.call("parabolic_lattice.minimal_levi", minimal_levi, rs)
        f_all, levis, groups = tr.call("parabolic_lattice.f_sets", f_sets,
                                       rs, m0)
        state.update(rs=rs, m0=m0, levis=levis)
        return f_all, levis, groups

    def check_f(result):
        f_all, levis, groups = result
        members = [p for group in groups.values() for p in group]
        if len(members) != len(f_all) or set(members) != set(f_all):
            return "Levi groups do not partition F"
        if set(levis) != set(groups) or len(levis) != LEVI_COUNTS[name]:
            return f"{len(levis)} Levis, want {LEVI_COUNTS[name]}"
        return None

    ops = [Op(f"f_sets[{name}]", "lattice.f_sets", "parabolic_lattice",
              run_f, check_f)]
    for s in sizes:
        want = sum(math.comb(s, j) * (LEVI_COUNTS[name] - 1) ** j
                   for j in range(min(s, rank) + 1))

        def run_c(tr, s=s):
            return tr.call("parabolic_lattice.count_contributing_tuples",
                           count_contributing_tuples, state["rs"],
                           state["m0"], s)

        ops.append(Op(f"tuples[{name},s={s}]", "lattice.tuples",
                      "parabolic_lattice", run_c,
                      lambda got, want=want:
                      None if got == want else f"got {got}, want {want}"))
    pick = rng.randrange(1, LEVI_COUNTS[name] - 1)

    def run_d(tr):
        rs, m0, levis = state["rs"], state["m0"], state["levis"]
        g = tr.call("parabolic_lattice.full_levi", full_levi, rs)
        l1, l2 = levis[pick], levis[-1 - pick]
        return [tr.call("parabolic_lattice.d_nonvanishing", d_nonvanishing,
                        rs, m0, *args)
                for args in ((m0, g), (l1, l2), (l2, l1))]

    def check_d(got):
        if not got[0]:
            return "d_nonvanishing(m, m, G) is false"
        return None if got[1] == got[2] else "d_nonvanishing not symmetric"

    ops.append(Op(f"d_nonvanishing[{name},{pick}]", "lattice.d_nonvanishing",
                  "parabolic_lattice", run_d, check_d))
    return ops


def _brute_op(systems: dict) -> Op:
    def run(tr):
        return tr.call("oracles.brute_force_parabolic_count",
                       oracles.brute_force_parabolic_count, systems["A2"])

    want = expect.parabolic_count("A2")
    return Op("brute_parabolics[A2]", "lattice.brute", "oracles", run,
              lambda got: None if got == want else f"got {got}, want {want}")


def ops(seed: int) -> list[Op]:
    rng = random.Random(f"lattice:{seed}")
    systems: dict = {}
    a = rng.randint(3, 6)
    specs = [([t], 0) for t in SIMPLE] + FIXED_PRODUCTS + \
        [([f"A{a}", f"A{9 - a}"], 0)]  # rank 9: the rank guards null routes
    out = []
    for factors, torus in specs:
        spec = _render(factors, torus)
        out.append(_build_op(spec, factors, torus, systems))
        out.append(_k_op(spec, factors, rng.randint(1, 3), systems))
    gl = [f"gl{n}" for n in sorted(rng.sample(range(2, 9), 2))]
    for t in CLASSICAL + gl:
        out += _orbit_ops(t)
    out += [_parabolic_op(t, [t], systems) for t in SIMPLE if int(t[1:]) <= 4]
    for name in ("A2", "A3", "B2"):
        out += _tuple_ops(name, [1, 2, 3, 4], rng, systems)
    out.append(_brute_op(systems))
    return out
