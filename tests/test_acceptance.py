"""Acceptance suite: each check of `tracegeo reproduce`, one test id per
check.  reproduce.py holds the checks, each a library computation against
an independent oracle; a failing id shows its check's expected and actual
values.
"""

import time

import pytest

from tracegeo.reproduce import _CHECKS, run_reproduction

# Seconds a check may take, and the whole run.
BOUNDS = {"k_special_linear": 1.0, "k_pairs_consistency": 10.0,
          "mellin_finite_part": 5.0}
WHOLE_RUN = 60.0


@pytest.fixture(scope="module")
def reproduction():
    """The results of one run of every check by name, and its seconds."""
    start = time.monotonic()
    results = {r.name: r for r in run_reproduction()}
    return results, time.monotonic() - start


@pytest.mark.parametrize("name", [name for name, _ in _CHECKS])
def test_reproduce_check(reproduction, name):
    results, seconds = reproduction
    r = results[name]
    assert r.ok, f"{r.detail}\nexpected: {r.expected}\nactual:   {r.actual}"
    assert r.seconds < BOUNDS.get(name, WHOLE_RUN), r.seconds
    assert seconds < WHOLE_RUN, seconds
