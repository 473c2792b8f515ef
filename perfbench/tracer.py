"""In-memory spans and counters for the traced benchmark run.

A span records (name, start, end, parent span index, operation id), with
times in seconds read from the clock the run measures with.
The operation id names the workload step that caused the span: one set-up
batch, one timed round, the one-off explicit route or the final check.
Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from statistics import median

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans and counters cost one attribute lookup and a call."""

    enabled = False

    def begin_op(self, kind: str) -> None:
        pass

    def span(self, name: str):
        return _NULL

    def count(self, name: str, value=1) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: list[tuple[str, float, int]] = []  # (name, value, op)
        self.ops: list[str] = []  # op id -> kind
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, kind: str) -> None:
        self._op = len(self.ops)
        self.ops.append(kind)

    @contextmanager
    def span(self, name: str):
        rec = [name, self.now(), 0.0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = self.now()
            self._stack.pop()

    def count(self, name: str, value=1) -> None:
        self.counters.append((name, value, self._op))

    # -- summaries -----------------------------------------------------------

    def self_durations(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds."""
        out: dict[str, dict] = {}
        for (name, start, end, _, _), own in zip(self.spans, self.self_durations()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def per_op_median(self, name: str, counter: bool = False) -> float:
        """Median over the operations that touch `name` of its per-operation sum.

        Span sums are self times in seconds, so a layer nested in another
        (the solver inside `linear_w1_norm`, the warm-up inside a route) is
        counted once.  Returns 0.0 when no operation touched it, which is
        what a layer the workload does not exercise reads.
        """
        sums: dict[int, float] = {}
        if counter:
            for cname, value, op in self.counters:
                if cname == name:
                    sums[op] = sums.get(op, 0.0) + value
        else:
            for (sname, _, _, _, op), own in zip(self.spans, self.self_durations()):
                if sname == name:
                    sums[op] = sums.get(op, 0.0) + own
        return float(median(sums.values())) if sums else 0.0

    def total(self, name: str) -> float:
        return float(sum(v for cname, v, _ in self.counters if cname == name))

    def span_total(self, name: str) -> float:
        return sum(end - start for sname, start, end, _, _ in self.spans if sname == name)

    def durations_us(self, name: str) -> list[float]:
        return [(end - start) * 1e6 for sname, start, end, _, _ in self.spans if sname == name]

    def dump(self) -> dict:
        return {
            "ops": self.ops,
            "spans": [
                {"name": n, "start_s": s, "end_s": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans
            ],
            "counters": [{"name": n, "value": v, "op": o} for n, v, o in self.counters],
            "self_times": self.self_times(),
        }
