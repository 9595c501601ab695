"""Spans recorded from outside the program.

A span is (name, start, end, parent, size, ok): the parent is the index of
the span that was open when this one started (-1 at the top), `size` is a
per-call quantity (elements of an array argument, Newton iterations, matrix
order) and `ok` whether the call reached its goal (a converged step).
Spans live in memory until the run ends.

Wrapping replaces a public name in the namespace its callers look it up
in, so a function imported into `scheme` is wrapped as `scheme.<name>`
and the copy imported elsewhere stays untouched.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import numpy as np


class Tracer:
    """Records spans around wrapped calls and around the benchmark's own
    steps; install() swaps the wrappers in, uninstall() restores the
    originals."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._installed = False

    def _record(self, name, fn, args, kwargs, on_args=None, on_result=None):
        spans = self.spans
        idx = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.append(None)
        self._stack.append(idx)
        size, ok = on_args(args, kwargs) if on_args else (0, True)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            spans[idx] = (name, t0, t1, parent, size, ok)
        if on_result is not None:
            size, ok = on_result(result)
            spans[idx] = (name, t0, t1, parent, size, ok)
        return result

    def wrap(self, owner, attr, name, on_args=None, on_result=None):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self._record(name, original, args, kwargs, on_args, on_result)

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original, traced))

    def wrap_linalg(self, linalg):
        """numpy.linalg.solve/lstsq, named by matrix order: the 3x3 Schur
        step of the Newton solve, or a dense solve of the homotopy."""
        for attr in ("solve", "lstsq"):
            original = getattr(linalg, attr)

            def traced(a, *args, _original=original, **kwargs):
                n = int(np.shape(a)[0])
                name = "scheme.schur_solve" if n <= 3 else "scheme.dense_solve"
                return self._record(
                    name, _original, (a, *args), kwargs, lambda a_, k_: (n, True)
                )

            traced.__wrapped__ = original
            self._patches.append((linalg, attr, original, traced))

    def install(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        self._installed = True

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._installed = False

    @contextlib.contextmanager
    def span(self, name):
        """Span around one of the benchmark's own steps; free when the
        wrappers are not installed."""
        if not self._installed:
            yield
            return
        spans = self.spans
        idx = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            spans[idx] = (name, t0, t1, parent, 0, True)

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, calls that reached
    their goal, and the size and duration of each call."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, dict] = {}
    for i, (name, t0, t1, _, size, ok) in enumerate(spans):
        agg = out.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "ok": 0, "sizes": [], "durations": []}
        )
        dur = t1 - t0
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - child_time[i]
        agg["ok"] += int(ok)
        agg["sizes"].append(size)
        agg["durations"].append(dur)
    return out


def percentile(values, q):
    """q-th percentile (0-100) by linear interpolation; 0 for no values."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), q))
