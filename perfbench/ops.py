"""Operations, the closed-loop pass that times them, and the register of
known defects.

An operation is one step a caller of tracegeo takes: a few public calls
whose result is checked against an independent expectation.  Only the
calls are timed; the check runs after the clock stops.  A failure is a
wrong answer, an exception or (for CLI calls) a wrong exit code, and it
is counted, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from spans import Tracer

CANARY_LOOPS = 150_000
CANARY_EVERY_S = 0.25

# Operation kinds that fail at the seed commit because of known defects:
# the first and last are in the ROADMAP, the slow-decay one was found by
# this benchmark.  They stay in the mix and are counted as failures; a
# failure of any other kind makes the run incorrect.
KNOWN_DEFECTS = {
    "fields.budget.float_extreme":
        "float beta_max cancels to 0 or overflows to inf",
    "fields.mellin.slow_decay":
        "fp_mellin's tail quadrature misses its 1e-10 error guard when the"
        " decay rate is below about 0.3 (at every t0 below 0.13)",
    "cli.error.tol0":
        "mellin-fp --tol 0 exits 4 with scipy's message instead of 2",
}


@dataclass
class Op:
    id: str
    kind: str
    module: str
    run: Callable[[Tracer], Any]
    check: Callable[[Any], str | None]


def canary_ms() -> float:
    """A fixed pure-Python loop.  Its time tracks the host's current CPU
    speed, which drifts by tens of percent on shared machines."""
    start = perf_counter()
    acc = 0
    for i in range(CANARY_LOOPS):
        acc += i * i % 7
    return (perf_counter() - start) * 1000


def run_pass(ops: list[Op], tracer: Tracer) -> list[dict]:
    """Time each operation, then check it.  The canary runs between
    operations at least every CANARY_EVERY_S, outside the timed regions;
    each record carries the mean of the canaries just before and after."""
    records = []
    canaries = []  # (index of the next operation, canary ms)
    last = -math.inf
    canary_ms()  # the first loops in a fresh process run slow
    for i, op in enumerate(ops):
        if perf_counter() - last >= CANARY_EVERY_S:
            canaries.append((i, canary_ms()))
            last = perf_counter()
        tracer.begin_op(op.id)
        start = perf_counter()
        try:
            result, error = op.run(tracer), None
        except Exception as exc:  # an exception is a counted failure
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        tracer.end_op()
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # so is a result the check cannot read
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append({"id": op.id, "kind": op.kind, "module": op.module,
                        "s": elapsed, "error": error})
    canaries.append((len(ops), canary_ms()))
    for (first, before), (end, after) in zip(canaries, canaries[1:]):
        for record in records[first:end]:
            record["canary_ms"] = (before + after) / 2
    return records
