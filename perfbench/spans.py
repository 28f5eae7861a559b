"""In-memory spans around calls into the package, recorded from outside it.

A ``Tracer`` rebinds a function at the name its caller looks it up by (a
module attribute) to a wrapper that records a span: name, start, end, the
index of the enclosing span, and optional work counters computed from the
call's arguments and result. Nothing under ``src/`` is edited; the original
objects are put back when the ``patched`` block exits, also on error.

Spans are kept in a list and reduced at the end: a span's self time is its
duration minus the part of its interval that its child spans cover.
"""

import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "counters")

    def __init__(self, name, start, end, parent, counters=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.counters = counters

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while ``recording`` is set; installed wrappers stay
    inert otherwise, so checks that run between timed ops leave no spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.recording = False
        self._stack = []

    def wrap(self, name, fn, count=None):
        """A wrapper of ``fn`` that records a span named ``name``.

        ``count(args, kwargs, result)`` may return a dict of work counters
        for the span; it runs after the span has closed.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, tracer.clock(), None, parent)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if count is not None:
                span.counters = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def patched(self, sites):
        """Rebind every ``(module, attribute, span_name, count)`` site for the
        duration of the block and restore each original in ``finally``."""
        saved = []
        try:
            for module, attr, name, count in sites:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def record(self):
        self.recording = True
        try:
            yield
        finally:
            self.recording = False


def self_times(spans):
    """Per-span self time: duration minus the union of child intervals,
    each child clipped to its parent's interval."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[index], key=lambda c: spans[c].start):
            lo = max(spans[child].start, reach)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def aggregate(spans):
    """Name -> {"calls", "total_s", "self_s", counter sums...}, plus
    "<parent name>><name>" entries counting calls per direct parent."""
    own = self_times(spans)
    table = {}
    for span, self_s in zip(spans, own):
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += self_s
        for key, value in (span.counters or {}).items():
            row[key] = row.get(key, 0) + value
        if span.parent is not None:
            edge = f"{spans[span.parent].name}>{span.name}"
            row = table.setdefault(edge, {"calls": 0})
            row["calls"] += 1
    return table
