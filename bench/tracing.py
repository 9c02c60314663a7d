"""Spans around the program's public functions, recorded from outside it.

A Tracer replaces module attributes (``moca.engine.evaluate`` and the like)
with wrappers while it is active and restores them on exit. Callers inside
the program look these functions up through the module at call time, so
their calls are recorded too. Spans stay in memory until the run writes
them out; untraced runs never create a Tracer.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._targets: list[tuple] = []
        self._saved: list[tuple] = []

    def add(self, module, attr: str, name: str, classify=None):
        """Trace module.attr as span `name`; classify(args) may refine the name."""
        self._targets.append((module, attr, name, classify))

    def _wrapper(self, original, name, classify):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": classify(args) if classify else name,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start_ns"] = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                span["end_ns"] = perf_counter_ns()
                stack.pop()

        return traced

    def __enter__(self):
        for module, attr, name, classify in self._targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, classify))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def durations_ms(self, name: str, self_time: bool = False) -> list[float]:
        """Duration of every span called `name`; self time excludes children."""
        child_ns = [0] * len(self.spans)
        if self_time:
            for span in self.spans:
                if span["parent"] is not None:
                    child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
        return [(s["end_ns"] - s["start_ns"] - child_ns[s["id"]]) / 1e6
                for s in self.spans if s["name"] == name]

    def child_totals_ms(self, parent_name: str, child_name: str) -> list[float]:
        """For each `parent_name` span, the summed time of its `child_name` children."""
        totals = {s["id"]: 0 for s in self.spans if s["name"] == parent_name}
        for s in self.spans:
            if s["name"] == child_name and s["parent"] in totals:
                totals[s["parent"]] += s["end_ns"] - s["start_ns"]
        return [ns / 1e6 for ns in totals.values()]


@contextmanager
def counting(module, attrs):
    """Count calls made through module.<attr> for each attr in attrs."""
    counts = dict.fromkeys(attrs, 0)
    saved = {attr: getattr(module, attr) for attr in attrs}

    def make(attr, original):
        def counted(*args, **kwargs):
            counts[attr] += 1
            return original(*args, **kwargs)
        return counted

    for attr, original in saved.items():
        setattr(module, attr, make(attr, original))
    try:
        yield counts
    finally:
        for attr, original in saved.items():
            setattr(module, attr, original)


def median(values):
    return statistics.median(values) if values else None
