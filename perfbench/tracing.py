"""Span recording from outside the program.

:class:`SpanRecorder` replaces public entry points (a class's method or
a module's function) with wrappers that record one span per call:
name, start, end, parent span and a correlation key.  Spans stay in
memory until :meth:`SpanRecorder.dump`; :meth:`SpanRecorder.restore`
puts every original back.  Nothing inside the program changes.

The parent of a span is the innermost open span on the same thread.
Work that crosses a thread or a socket (a network server answering a
client) starts a new root there; :func:`op_trees` joins it to the
client's operation through the key, which a wrapper derives from the
call's arguments or result (the row id a commit inserts, the id a
query reads), and through time containment.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

from .stats import self_time


class Span:
    __slots__ = ("name", "start", "end", "parent", "key", "thread", "children")

    def __init__(self, name: str, start: float, parent: Optional["Span"], key, thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.key = key
        self.thread = thread
        self.children: list[Span] = []


class SpanRecorder:
    """Records spans around wrapped entry points; see module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name, key: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is the span name, or a function of the call's
        positional arguments returning it.  ``key(args, kwargs,
        result)`` derives the correlation key; without one the span
        inherits its parent's."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            return self.call(span_name, original, args, kwargs, key)

        self.patch(owner, attr, traced)

    def call(self, name: str, fn, args=(), kwargs=None, key=None, start=None):
        """Run ``fn`` inside a span.  ``start`` backdates the span (a
        queue wait measured from when the work was submitted)."""
        result = None
        with self.span(name, None, start) as span:
            result = fn(*args, **(kwargs or {}))
        if key is not None:
            try:
                span.key = key(args, kwargs, result)
            except (LookupError, TypeError, ValueError, AttributeError):
                span.key = None
        return result

    @contextmanager
    def span(self, name: str, key, start: Optional[float] = None):
        """A span around a block: the load generator opens one per
        operation, with the key that server-side work will carry."""
        stack = self._stack()
        span = Span(
            name,
            self.clock() if start is None else start,
            stack[-1] if stack else None,
            key,
            threading.get_ident(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            self.spans.append(span)

    def restore(self) -> None:
        """Put back every patched original, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times in seconds)."""
        ids = {id(span): n for n, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for n, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": n,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": ids.get(id(span.parent)),
                            "commit": None if span.key is None else str(span.key),
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


def _effective_key(span: Span, cache: dict):
    """A span's own key, else its nearest ancestor's, else (for roots
    of server-side work) the first key found among its descendants."""
    found = cache.get(id(span), cache)
    if found is not cache:
        return found
    node, key = span, None
    while node is not None and key is None:
        key, node = node.key, node.parent
    if key is None:
        pending = list(span.children)
        while pending and key is None:
            child = pending.pop(0)
            key = child.key
            pending.extend(child.children)
    cache[id(span)] = key
    return key


def op_trees(spans: list[Span], op_names: set[str]) -> list[Span]:
    """Link spans into one tree per load-generator operation.

    Returns the operation roots (spans named in ``op_names``) with
    ``children`` filled in.  A root from another thread joins the
    deepest span of the operation with the same key whose interval
    contains it; one that matches no operation (a log-writer burst
    fsync serving several commits) stays out of every tree."""
    for span in spans:
        span.children = []
    for span in spans:
        if span.parent is not None:
            span.parent.children.append(span)
    ops = [s for s in spans if s.name in op_names]
    by_key: dict = defaultdict(list)
    for op in ops:
        by_key[op.key].append(op)
    cache: dict = {}
    for span in spans:
        if span.parent is not None or span.name in op_names:
            continue
        key = _effective_key(span, cache)
        host = None
        for op in by_key.get(key, ()):
            if op.start <= span.start and span.end <= op.end:
                host = op
                break
        if host is None:
            continue
        while True:
            inner = next(
                (
                    c
                    for c in host.children
                    if c.thread == host.thread
                    and c.start <= span.start
                    and span.end <= c.end
                ),
                None,
            )
            if inner is None:
                break
            host = inner
        host.children.append(span)
    return ops


def layer_times(op: Span) -> tuple[dict, dict, dict]:
    """Per span name within one operation tree: summed self time,
    summed inclusive time and call count (the root included)."""
    selfs: dict = defaultdict(float)
    totals: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    pending = [op]
    while pending:
        span = pending.pop()
        selfs[span.name] += self_time(
            span.start, span.end, ((c.start, c.end) for c in span.children)
        )
        totals[span.name] += span.end - span.start
        calls[span.name] += 1
        pending.extend(span.children)
    return selfs, totals, calls
