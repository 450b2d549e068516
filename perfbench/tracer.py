"""Spans around cosetlab's public functions, and the arithmetic the benchmark
reports from them.

The tracer wraps functions at the module attributes where callers look them
up, so the package itself is not edited: a function imported by name into
several cosetlab modules is replaced in every one of them.  Spans stay in
memory; the caller writes them out when the run ends.

This module does not import cosetlab, so its arithmetic can be tested alone.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

# Percentiles tried for the tail figure, highest first.
PCT_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    sample: int | None
    info: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def covered_length(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end)
            for s in spans}


def nearest_rank(values, pct: float) -> float:
    """The pct-th percentile by the nearest-rank rule (a value that occurred)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p_hi(values, min_beyond: int = MIN_BEYOND):
    """Highest percentile of PCT_LADDER with at least min_beyond values above
    its rank: (pct, value, count beyond), or None when there are too few values."""
    n = len(values)
    for pct in PCT_LADDER:
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= min_beyond:
            return pct, nearest_rank(values, pct), beyond
    return None


def count_failures(outcomes) -> tuple[int, int]:
    """(attempted, failed) operations over call outcomes.

    Each outcome has ``ops`` (operations the call attempts) and ``ok``; a call
    that raised or exited non-zero fails every one of its operations.
    """
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.ops for o in outcomes if not o.ok)
    return attempted, failed


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.sample: int | None = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, 0.0, 0.0, parent, self.sample)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper of fn recording a span; before(args, kwargs) runs ahead of the
        span, after(span, args, kwargs, result) once it has closed."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result
        return traced

    def patch_function(self, module_prefix: str, fn, name: str, before=None, after=None):
        """Replace fn by its traced wrapper in every loaded module under
        module_prefix that holds it as an attribute."""
        traced = self.wrap(name, fn, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == module_prefix or mod_name.startswith(module_prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
