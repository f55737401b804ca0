"""Span recorder for the traced benchmark run.

The recorder replaces public glekit functions at the module attribute
through which the program reaches them (``glekit.kernels.product_expectation``
is what ``gamma_sequence`` calls, ``glekit.volterra.solve_correlation`` is what
the selectors import at call time) with wrappers that record a span: name,
start, end and parent.  A layer's self time is its span's duration minus the
part of that interval its child spans cover.  Counters are computed after the
wrapped call returns, inside a ``trace.count`` span, so their cost is visible
and kept out of every layer's time.  Hot inner helpers are not wrapped.
"""

from __future__ import annotations

import functools
import itertools
import threading
import tracemalloc
import warnings
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

COUNT_SPAN = "trace.count"


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._replays: list[tuple] = []
        self._paused = False

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record one span; a worker thread's first span hangs off the main one."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        rec = {"id": next(self._ids), "name": name, "parent": parent,
               "counts": {}}
        stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, module, attr: str, name: str, count=None,
             memory: bool = False) -> None:
        """Trace ``module.attr`` under ``name`` until :meth:`restore`.

        ``count(args, kwargs, result)`` returns a dict of counters for the
        call.  With ``memory`` the call is kept for :meth:`measure_memory`.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if memory:
                self._replays.append((rec, fn, args, kwargs))
            if count is not None:
                with self.span(COUNT_SPAN):
                    rec["counts"].update(count(args, kwargs, out))
            return out

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    @contextmanager
    def paused(self):
        """Call through the wrappers without recording, as checks must."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def measure_memory(self) -> None:
        """Count the peak traced allocation of each kept call as ``peak_bytes``.

        ``tracemalloc`` slows every allocation, so the peak comes from a
        second call with the same arguments, made after the traced round and
        outside every span.  The calls kept are seeded, so the second call
        repeats the first.
        """
        for rec, fn, args, kwargs in self._replays:
            tracemalloc.start()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fn(*args, **kwargs)
                rec["counts"]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        self._replays.clear()

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, total and self seconds, summed and max counters.

    ``seconds`` is the spans' duration less the counter spans inside them.
    """
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)

    count_time: dict[int, float] = {}

    def counting(s) -> float:
        if s["id"] not in count_time:
            count_time[s["id"]] = sum(
                (c["end"] - c["start"]) if c["name"] == COUNT_SPAN else counting(c)
                for c in children[s["id"]])
        return count_time[s["id"]]

    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "seconds": 0.0,
                                         "self_seconds": 0.0, "counts": {},
                                         "max": {}})
        duration = s["end"] - s["start"]
        kids = [(c["start"], c["end"]) for c in children[s["id"]]]
        agg["calls"] += 1
        agg["seconds"] += duration - (0.0 if s["name"] == COUNT_SPAN else counting(s))
        agg["self_seconds"] += duration - _covered(kids)
        for k, v in s["counts"].items():
            agg["counts"][k] = agg["counts"].get(k, 0) + v
            agg["max"][k] = max(agg["max"].get(k, v), v)
    return out


def self_time_total(summary: dict) -> float:
    return sum(agg["self_seconds"] for agg in summary.values())
