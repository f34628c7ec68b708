"""In-process span tracer that wraps module attributes from the outside.

A :class:`Tracer` replaces a function at the module attribute through which
callers reach it, records one span per call (name, call site, start, end,
parent span, op id, counters) and puts every original back on
:meth:`Tracer.restore`.  Nothing in the traced package is edited: the
wrappers exist only in the benchmark process and only while tracing is on.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    site: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def call(self, name, site, func, args, kwargs, count=None):
        """Run ``func`` inside a span; ``count(result)`` returns span counters."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, site, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span.counts = count(result)
        return result

    def wrapper(self, name, site, func, count=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.call(name, site, func, args, kwargs, count)
        return traced

    def patch(self, owner, attr, name, site, count=None):
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrapper(name, site, original, count))

    def restore(self):
        """Put back every patched attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def union_length(intervals):
    """Total length covered by a set of ``(start, end)`` intervals."""
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


def self_times(spans):
    """Per-span duration minus the part of it covered by its direct children."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        covered = union_length([(s, e) for s, e in clipped if e > s])
        out.append(span.end - span.start - covered)
    return out
