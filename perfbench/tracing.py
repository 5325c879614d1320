"""In-memory span tracer used by the traced run.

Spans are recorded by wrappers the benchmark installs around the public
functions of each layer (see :mod:`perfbench.layers`); the program itself
is not instrumented.  A span's parent is the innermost open span on the
same thread, or, for work handed to a thread pool, the span that was
innermost on the submitting thread (:meth:`Tracer.inherit`).

Very frequent calls (the native entropy kernels, ``os.fsync``) are
recorded as *leaves*: a count and busy time per name, charged to the
enclosing span instead of creating a span per call.

Self time of a span is its duration minus the part of its interval its
child spans cover, minus the leaf time charged to it.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "leaf_s", "children")

    def __init__(self, name: str, parent: Optional["Span"]) -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.leaf_s = 0.0
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


def covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in parts if min(hi, b) > max(lo, a)
    )
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


def self_time(span: Span) -> float:
    """Duration minus child-covered time minus charged leaf time (>= 0)."""
    child = covered((span.start, span.end), ((c.start, c.end) for c in span.children))
    return max(0.0, span.duration - child - span.leaf_s)


class Tracer:
    """Thread-safe span and leaf recorder; everything stays in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.leaf_calls: Dict[str, int] = defaultdict(int)
        self.leaf_busy: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- context -------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "base", None)

    @contextmanager
    def inherit(self, parent: Optional[Span]):
        """Run the body on this thread as if nested inside ``parent``."""
        saved = (getattr(self._local, "stack", None), getattr(self._local, "base", None))
        self._local.stack, self._local.base = [], parent
        try:
            yield
        finally:
            self._local.stack, self._local.base = saved

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str):
        span = Span(name, self.current())
        stack = self._stack()
        stack.append(span)
        span.start = self.clock()
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def leaf(self, name: str, seconds: float) -> None:
        parent = self.current()
        with self._lock:
            self.leaf_calls[name] += 1
            self.leaf_busy[name] += seconds
            if parent is not None:
                parent.leaf_s += seconds

    # -- analysis ------------------------------------------------------

    def link(self) -> None:
        """Fill ``children`` lists from parent pointers (call once, at the end)."""
        for span in self.spans:
            span.children = []
        for span in self.spans:
            if span.parent is not None:
                span.parent.children.append(span)

    def rooted(self, root_prefix: str) -> List[Span]:
        """Spans (roots excluded) whose root span's name starts with ``root_prefix``."""
        return [
            s for s in self.spans
            if s.parent is not None and s.root().name.startswith(root_prefix)
        ]

    def roots(self, root_prefix: str) -> List[Span]:
        return [
            s for s in self.spans
            if s.parent is None and s.name.startswith(root_prefix)
        ]


def coverage(tracer: Tracer, root_prefix: str) -> float:
    """Share of root-op wall time explained by layer self times and leaves.

    Below 1: time spent in no traced layer.  Above 1: work within one
    request ran concurrently (replica fan-out, hedges).
    """
    roots = tracer.roots(root_prefix)
    wall = sum(r.duration for r in roots)
    if wall <= 0:
        return 0.0
    layers = tracer.rooted(root_prefix)
    explained = sum(self_time(s) for s in layers) + sum(s.leaf_s for s in layers)
    explained += sum(r.leaf_s for r in roots)
    return explained / wall
