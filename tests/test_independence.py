"""Route independence: an oracle shares no code with the route it checks.

Each entry of PAIRS holds a library route and the oracles that check it,
each side a list of calls on fixed inputs.  sys.setprofile records every
tracegeo function that a side runs, keyed by (file, first line) so that
each comprehension or generator frame counts as its own function, and
the two sides' sets must be disjoint.  Inputs are built outside the
recorded calls, and the lru_caches are cleared first so that a cached
result cannot hide a call.
"""

import os
import sys
from fractions import Fraction

import pytest

import tracegeo
from tracegeo import oracles
from tracegeo.local_data import RationalMatrix, weyl_discriminant

PACKAGE = os.path.dirname(tracegeo.__file__) + os.sep


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("tracegeo."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _functions_run(calls):
    """The tracegeo functions the calls run: file:name keyed by (file,
    first line)."""
    seen = {}

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE):
            seen[code.co_filename, code.co_firstlineno] = \
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

PAIRS = {
    "weyl_discriminant": (
        [lambda: weyl_discriminant(REPEATED_MATRIX)],
        [lambda: oracles.complement_determinant(REPEATED_ROWS),
         lambda: oracles.diagonal_discriminant(REPEATED)]),
}


@pytest.mark.parametrize("route,checks", PAIRS.values(), ids=PAIRS)
def test_an_oracle_shares_no_function_with_its_route(route, checks):
    ran, checked = _functions_run(route), _functions_run(checks)
    assert ran and checked
    shared = ran.keys() & checked.keys()
    assert not shared, sorted(ran[key] for key in shared)
