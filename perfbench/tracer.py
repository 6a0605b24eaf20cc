"""In-memory call spans recorded around public functions, from outside.

A Tracer replaces a function at every module binding it is reached
through (``goi.trainer.total_loss`` and ``goi.codebook.total_loss`` are
one function bound twice), so calls made inside the package are recorded
as well as the benchmark's own. Each span keeps its name, start, end,
parent span and an optional dict of counts taken from the call's
arguments and result. Nothing is written until the caller asks.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

NAME, PARENT, START, END, COUNTS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or -1, start, end, counts]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        """fn recorded as span `name`; counter(args, kwargs, result) -> dict."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result
        return traced

    def install(self, package: str, functions, counters=None) -> None:
        """Wrap each "module.function" of `package` at all of its bindings.

        Bindings are searched in every already-imported module whose name
        starts with `package`, the package itself included.
        """
        counters = counters or {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for qualname in functions:
            mod_name, fn_name = qualname.rsplit(".", 1)
            original = getattr(importlib.import_module(f"{package}.{mod_name}"),
                               fn_name)
            wrapper = self.wrap(qualname, original, counters.get(qualname))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def span_cost(calls: int = 20_000) -> float:
    """Seconds that recording one span adds to a call, timed on a no-op."""
    def noop():
        return None
    traced = Tracer().wrap("noop", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return max(0.0, (t2 - t1 - (t1 - t0)) / calls)


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append(span)
    out = []
    for span, kids in zip(spans, children):
        lo, hi = span[START], span[END]
        covered = union_length((max(k[START], lo), min(k[END], hi))
                               for k in kids if k[END] > lo and k[START] < hi)
        out.append(hi - lo - covered)
    return out


def coverage(spans, start: float, end: float) -> float:
    """Share of [start, end] covered by root spans."""
    roots = [(max(s[START], start), min(s[END], end)) for s in spans
             if s[PARENT] < 0 and s[END] > start and s[START] < end]
    return union_length(roots) / (end - start)
