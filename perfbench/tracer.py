"""Per-layer tracing by wrapping fcad functions from outside the package.

Every wrapped function keeps a per-name counter (calls, accumulated self
time, and an optional item count).  Self time is the call's duration minus
the time covered by nested wrapped calls, so the self times of all names
add up to the duration of the outermost calls.  Functions at layer
boundaries also record one span per call (name, start, end, parent span).
Leaf functions are called about a million times per sweep, so they keep
counters only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass
class Counter:
    calls: int = 0
    self_s: float = 0.0
    items: int = 0


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``span`` records a span per call.  ``args`` maps a parameter that
    receives a callable to the counter name that wraps that callable, and
    ``items`` says whether that counter sums the sizes of its results.
    """

    module: str
    name: str
    span: bool = False
    args: tuple[tuple[str, str, bool], ...] = ()

    @property
    def label(self) -> str:
        return f"{self.module.removeprefix('fcad.')}.{self.name}"


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.counters: dict[str, Counter] = {}
        self.spans: list[Span] = []
        # one frame per active wrapped call: [child seconds, span id or None]
        self._stack: list[list] = []
        self._span_ids = 0
        self._patched: list[tuple[object, str, object]] = []

    def counter(self, name: str) -> Counter:
        return self.counters.setdefault(name, Counter())

    def call(self, name: str, fn, args=(), kwargs=None, span: bool = False, items: bool = False):
        """Run ``fn(*args, **kwargs)`` as one traced call named ``name``."""
        stack = self._stack
        frame = [0.0, None]
        if span:
            frame[1] = self._span_ids
            self._span_ids += 1
        stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            c = self.counter(name)
            c.calls += 1
            c.self_s += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                self.spans.append(Span(frame[1], parent, name, start, end))
        if items:
            c.items += int(np.size(result))
        return result

    def wrap(self, name: str, fn, span: bool = False, items: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, span, items)

        return traced

    def _wrap_target(self, target: Target, fn):
        if not target.args:
            return self.wrap(target.label, fn, target.span)
        signature = inspect.signature(fn)
        missing = [param for param, _, _ in target.args if param not in signature.parameters]
        if missing:
            raise LookupError(f"{target.module}.{target.name} has no parameter {', '.join(missing)}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for param, counter_name, items in target.args:
                value = bound.arguments.get(param)
                if value is not None:
                    bound.arguments[param] = self.wrap(counter_name, value, items=items)
            return self.call(target.label, fn, bound.args, bound.kwargs, target.span)

        return traced

    def install(self, targets) -> None:
        """Replace each target in its module and wherever ``from x import f``
        bound a copy of it inside the fcad package.  A target that no longer
        exists raises ``LookupError``: its layer would silently read 0."""
        modules = [m for k, m in sys.modules.items() if k == "fcad" or k.startswith("fcad.")]
        replacements = []
        for target in targets:
            original = getattr(importlib.import_module(target.module), target.name, None)
            if not callable(original):
                raise LookupError(f"{target.module}.{target.name} does not exist")
            replacements.append((original, self._wrap_target(target, original)))
        for original, wrapped in replacements:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def total_self_s(self) -> float:
        return sum(c.self_s for c in self.counters.values())
