"""In-memory spans and counters recorded around the benchmark's own calls
into each tracegeo module.

A span is (name, tag, start, end, parent, op): name is "<module>.<call>",
tag an optional size class, parent the index of the enclosing span (-1
for an operation's root span) and op the operation id.  Times are
seconds from the tracer's creation.  With tracing off, call() is a plain
call and nothing is kept.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.origin = perf_counter()
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._op = ""

    def _open(self, name: str, tag: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, tag, perf_counter() - self.origin, None,
                           parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][3] = perf_counter() - self.origin

    def begin_op(self, op_id: str) -> None:
        if self.enabled:
            self._op = op_id
            self._open("op", "")

    def end_op(self) -> None:
        if self.enabled:
            self._close(self._stack[0])

    def call(self, name: str, fn, *args, tag: str = "", **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = self._open(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counters[name] += n


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out
