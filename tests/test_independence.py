"""Route independence: an oracle shares no code with the route it checks.

Each entry of PAIRS holds a library route, the oracles that check it and
the functions the two sides are known to share, each side a list of calls
on fixed inputs.  sys.setprofile records every tracegeo function that a
side runs, keyed by (file, first line) so that each generator or lambda
frame counts as its own function.  The shared set, less the input code
that every side runs (ALLOWED), must equal the pin: a pin may only
shrink.  The lru_caches are cleared first, and each side builds its own
root systems inside its calls, so that a cached result or a cached
property filled by one side cannot hide a call from the other.
"""

import os
import sys
from collections import Counter
from fractions import Fraction

import pytest

import tracegeo
from tracegeo import errors, oracles, value
from tracegeo.arithmetic import sl_index
from tracegeo.invariants_k import GroupSpec, k_by_pairs, k_min_orbit, \
    k_richardson
from tracegeo.local_data import RationalMatrix, weyl_discriminant
from tracegeo.nilpotent_orbits import list_orbits, min_orbit_dim, orbit_dim
from tracegeo.parabolic_lattice import enumerate_parabolic_subsets
from tracegeo.root_datum import RootSystem, SimpleType, build_root_system

PACKAGE = os.path.dirname(tracegeo.__file__) + os.sep

# Python 3.12 runs these inline (PEP 709), so they are left out on every
# version; the function around one is recorded anyway.
INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def _key(code):
    return code.co_filename, code.co_firstlineno


def _with_nested(code):
    """The keys of code and of the functions defined inside it."""
    keys = {_key(code)}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            keys |= _with_nested(const)
    return keys


# Input code: errors and records, and building a group spec.
ALLOWED_FILES = {errors.__file__, value.__file__}
ALLOWED = set().union(*(_with_nested(fn.__code__) for fn in (
    GroupSpec.__init__, GroupSpec.build.__func__, SimpleType.__init__,
    SimpleType.parse.__func__, RootSystem.__init__,
    RootSystem.semisimple_rank.func, build_root_system)))


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("tracegeo."):
            for item in vars(module).values():
                if hasattr(item, "cache_clear"):
                    item.cache_clear()


def _functions_run(calls):
    """The tracegeo functions the calls run: file:name keyed by (file,
    first line)."""
    seen = {}

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE):
            seen[_key(code)] = \
                f"{os.path.basename(code.co_filename)}:{code.co_name}"

    _clear_caches()
    sys.setprofile(record)
    try:
        for call in calls:
            call()
    finally:
        sys.setprofile(None)
    return seen


# diag(2, 2, -1/3): a repeated eigenvalue, so the centralizer is not a torus.
REPEATED = [Fraction(2), Fraction(2), Fraction(-1, 3)]
REPEATED_ROWS = [[x if i == j else Fraction(0) for j, x in enumerate(REPEATED)]
                 for i in range(len(REPEATED))]
REPEATED_MATRIX = RationalMatrix.from_rows(REPEATED_ROWS)

K_SPECS = [["E6"], ["G2"], ["B4"], ["C3"], ["D5"], ["F4"], ["A2", "B3"]]


def _on_k_specs(route):
    return [lambda factors=factors: route(GroupSpec.build(factors))
            for factors in K_SPECS]


# reproduce's orbit_minima check: the classical types it enumerates.
ORBIT_TYPES = ([("B", r) for r in range(1, 9)] + [("C", r) for r in range(1, 9)]
               + [("D", r) for r in range(2, 9)])


def _least_nonzero_orbit_dim(series, rank):
    return min(d for d in map(orbit_dim, list_orbits(SimpleType(series, rank)))
               if d)


# reproduce's sl_index check: n = 2, 3 at levels 2-8.
SL_LEVELS = [(n, N) for n in (2, 3) for N in range(2, 9)]


def _root_datum(*names):
    return [f"root_datum.py:{name}" for name in names]


# The root generator, which both sides of the parabolic pair run: the
# lambdas pick each series' simple roots.  k's routes share none of it:
# pairs types segments by their place on the diagram, and Richardson is a
# closed form.
GENERATOR = _root_datum("type_data", "_positive_coords", "_cartan",
                        "_chain", "_dot")

PAIRS = {
    "weyl_discriminant": (
        [lambda: weyl_discriminant(REPEATED_MATRIX)],
        [lambda: oracles.complement_determinant(REPEATED_ROWS),
         lambda: oracles.diagonal_discriminant(REPEATED)],
        []),
    "k_by_pairs": (
        _on_k_specs(k_by_pairs),
        _on_k_specs(k_richardson) + _on_k_specs(k_min_orbit),
        []),
    "enumerate_parabolic_subsets": (
        [lambda: enumerate_parabolic_subsets(build_root_system(["A2"]))],
        [lambda: oracles.brute_force_parabolic_count(
            build_root_system(["A2"]))],
        GENERATOR + _root_datum("<lambda>", *["<genexpr>"] * 4, "size",
                                "ambient_dim", "_assembled", "roots")),
    "orbit_minima": (
        [lambda t=t: _least_nonzero_orbit_dim(*t) for t in ORBIT_TYPES],
        [lambda t=t: min_orbit_dim(SimpleType(*t)) for t in ORBIT_TYPES],
        []),
    "sl_index": (
        [lambda n=n, N=N: sl_index(n, N) for n, N in SL_LEVELS],
        [lambda n=n, N=N: oracles.sl_group_order(n, N) for n, N in SL_LEVELS],
        []),
}


@pytest.mark.parametrize("route,checks,pinned", PAIRS.values(), ids=PAIRS)
def test_an_oracle_shares_only_its_pinned_functions(route, checks, pinned):
    ran, checked = _functions_run(route), _functions_run(checks)
    assert ran and checked
    shared = Counter(ran[key] for key in ran.keys() & checked.keys()
                     if key not in ALLOWED and key[0] not in ALLOWED_FILES
                     and ran[key].partition(":")[2] not in INLINED)
    assert shared == Counter(pinned)
